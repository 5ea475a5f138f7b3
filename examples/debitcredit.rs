//! DebitCredit: the banking workload the paper's performance claim rests
//! on, run through both the NonStop SQL path and the ENSCRIBE path.
//!
//! ```sh
//! cargo run --example debitcredit
//! ```

use nonstop_sql::ClusterBuilder;
use nsql_sim::SimRng;
use nsql_workloads::{Bank, Debit};

fn main() {
    let txns = 200u32;

    let paths: [(&str, Debit); 2] = [
        ("NonStop SQL", Bank::debit_credit_sql),
        ("ENSCRIBE", Bank::debit_credit_enscribe),
    ];
    for (label, debit) in paths {
        let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
        let bank = Bank::create(&db, 2, 500, "$DATA1").expect("load bank");
        let session = db.session();
        let mut rng = SimRng::seed_from(42);

        let before = db.snapshot();
        let t0 = db.sim.now();
        bank.batch(&session, debit, &mut rng, txns)
            .fault_free()
            .expect("every transaction commits");
        let elapsed = db.sim.now() - t0;
        let m = db.snapshot() - before;

        println!("--- {label} path, {txns} debit-credit transactions ---");
        println!(
            "  FS-DP messages : {:6}  ({:.1}/txn)",
            m.msgs_fs_dp,
            m.msgs_fs_dp as f64 / txns as f64
        );
        println!("  message bytes  : {:6}", m.msg_bytes_total);
        println!(
            "  audit bytes    : {:6}  ({:.0}/txn)",
            m.audit_bytes,
            m.audit_bytes as f64 / txns as f64
        );
        println!(
            "  group commits  : {:6} flushes, {} piggybacked",
            m.audit_flushes, m.group_commit_piggybacks
        );
        println!(
            "  virtual time   : {:.2} ms/txn",
            elapsed as f64 / txns as f64 / 1000.0
        );
        println!(
            "  balance check  : total = {}",
            bank.total_balance(&db).expect("sum")
        );
        println!();
    }

    println!(
        "The SQL path needs 4 FS-DP messages per transaction (3 pushed-down update\n\
         expressions + 1 insert) where ENSCRIBE needs 7 (3 reads + 3 writes + 1 insert),\n\
         and its field-compressed audit is ~3x smaller — the mechanisms behind the\n\
         paper's claim that NonStop SQL matches its pre-existing DBMS."
    );
}
