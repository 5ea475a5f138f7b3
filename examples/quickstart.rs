//! Quickstart: build a cluster, create a table, run SQL.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use nonstop_sql::{Cluster, ClusterBuilder};

fn main() {
    // A two-volume cluster on one node. Each volume is managed by a
    // simulated Disk Process; the audit trail and transaction manager are
    // wired automatically.
    let db: Cluster = ClusterBuilder::new()
        .volume("$DATA1", 0, 1)
        .volume("$DATA2", 0, 2)
        .build();

    let mut session = db.session();
    session
        .execute(
            "CREATE TABLE EMP (EMPNO INT NOT NULL, NAME CHAR(12) NOT NULL, \
             HIRE_DATE INT, SALARY DOUBLE, PRIMARY KEY (EMPNO)) \
             PARTITION BY VALUES (1000) ON ('$DATA1', '$DATA2')",
        )
        .expect("create table");

    for i in 0..2000 {
        let salary = 20_000 + (i % 40) * 1_000;
        session
            .execute(&format!(
                "INSERT INTO EMP VALUES ({i}, 'EMP{i:05}', {}, {salary})",
                1980 + i % 9
            ))
            .expect("insert");
    }

    // The paper's example 1: selection + projection, evaluated at the
    // Disk Process and returned through virtual sequential block buffering.
    let before = db.snapshot();
    let rows = session
        .query("SELECT NAME, HIRE_DATE FROM EMP WHERE EMPNO <= 1000 AND SALARY > 32000")
        .expect("query");
    let delta = db.snapshot() - before;

    println!("{}", rows.to_table());
    println!("rows returned        : {}", rows.rows.len());
    println!("FS-DP messages used  : {}", delta.msgs_fs_dp);
    println!("records examined (DP): {}", delta.dp_records_examined);
    println!("records selected (DP): {}", delta.dp_records_selected);
    println!(
        "\nThe Disk Processes examined {} records but only {} messages crossed the\n\
         FS-DP interface — selection and projection ran at the data source.",
        delta.dp_records_examined, delta.msgs_fs_dp
    );

    // Transactions.
    let mut s2 = db.session();
    s2.execute("BEGIN WORK").unwrap();
    s2.execute("UPDATE EMP SET SALARY = SALARY * 1.10 WHERE EMPNO = 7")
        .unwrap();
    s2.execute("ROLLBACK WORK").unwrap();
    let r = s2.query("SELECT SALARY FROM EMP WHERE EMPNO = 7").unwrap();
    println!(
        "\nafter rollback, EMPNO 7 salary is back to {}",
        r.rows[0].0[0]
    );
}
