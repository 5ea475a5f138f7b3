//! Fault tolerance: CPU failure with takeover, and a total crash with
//! recovery from the TMF audit trail.
//!
//! ```sh
//! cargo run --example fault_tolerance
//! ```

use nonstop_sql::ClusterBuilder;

fn main() {
    // A volume with a backup CPU: $DATA1's Disk Process runs on CPU 1 and
    // restarts on CPU 2 if CPU 1 fails. No backup process runs meanwhile.
    let db = ClusterBuilder::new()
        .volume_with_backup("$DATA1", 0, 1, 0, 2)
        .build();

    let mut s = db.session();
    s.execute(
        "CREATE TABLE ACCOUNT (ACCTNO INT NOT NULL, BALANCE DOUBLE NOT NULL, \
         PRIMARY KEY (ACCTNO))",
    )
    .unwrap();
    for i in 0..100 {
        s.execute(&format!("INSERT INTO ACCOUNT VALUES ({i}, 1000)"))
            .unwrap();
    }
    println!("loaded 100 accounts");

    // --- CPU failure and takeover -------------------------------------
    println!("\nfailing CPU 0.1 (the primary Disk Process's home) ...");
    let before = db.sim.now();
    db.takeover("$DATA1", 0, 2);
    println!(
        "takeover: $DATA1 reopened on CPU 0.2 and replayed the audit trail in {:.2} virtual ms",
        (db.sim.now() - before) as f64 / 1_000.0
    );
    let r = s.query("SELECT COUNT(*) FROM ACCOUNT").unwrap();
    println!(
        "after takeover on CPU 0.2: COUNT(*) = {} (committed data intact)",
        r.rows[0].0[0]
    );
    s.execute("UPDATE ACCOUNT SET BALANCE = BALANCE + 1 WHERE ACCTNO = 0")
        .unwrap();
    println!("writes keep flowing through the new primary");

    // --- Total crash with an in-flight transaction ---------------------
    println!("\nstarting a transaction and crashing mid-flight ...");
    s.execute("BEGIN WORK").unwrap();
    s.execute("UPDATE ACCOUNT SET BALANCE = 0 WHERE ACCTNO = 5")
        .unwrap();
    s.execute("INSERT INTO ACCOUNT VALUES (999, 123)").unwrap();
    db.crash_and_recover_all();

    let mut s2 = db.session();
    let r = s2
        .query("SELECT BALANCE FROM ACCOUNT WHERE ACCTNO = 5")
        .unwrap();
    println!(
        "after recovery: ACCTNO 5 balance = {} (uncommitted update undone)",
        r.rows[0].0[0]
    );
    let r = s2
        .query("SELECT COUNT(*) FROM ACCOUNT WHERE ACCTNO = 999")
        .unwrap();
    println!(
        "after recovery: ghost row count = {} (uncommitted insert gone)",
        r.rows[0].0[0]
    );
    let r = s2
        .query("SELECT BALANCE FROM ACCOUNT WHERE ACCTNO = 0")
        .unwrap();
    println!(
        "after recovery: ACCTNO 0 balance = {} (committed update redone)",
        r.rows[0].0[0]
    );
}
