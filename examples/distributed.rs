//! Distribution: a table partitioned across two network nodes, accessed
//! via secondary index from a third location — the architecture of the
//! paper's Figures 1 and 2.
//!
//! ```sh
//! cargo run --example distributed
//! ```

use nonstop_sql::ClusterBuilder;
use nsql_workloads::Wisconsin;

fn main() {
    // Node 0 holds two volumes, node 1 holds two more; the index volume
    // lives on node 1. Sessions run on node 0, CPU 0.
    let db = ClusterBuilder::new()
        .volume("$DATA1", 0, 1)
        .volume("$DATA2", 0, 2)
        .volume("$FAR1", 1, 0)
        .volume("$FAR2", 1, 1)
        .volume("$IDX", 1, 2)
        .build();

    let w = Wisconsin::create(
        &db,
        "WISC",
        8000,
        &["$DATA1", "$DATA2", "$FAR1", "$FAR2"],
        7,
    )
    .expect("load");
    let mut s = db.session();
    s.execute("CREATE INDEX WISC_U1 ON WISC (UNIQUE1) ON '$IDX'")
        .expect("index");

    println!("table WISC: 8000 rows over 4 volumes on 2 nodes, index on node 1\n");

    // A selective scan: the predicate travels to all four partitions, but
    // only qualifying (and projected) data comes back over the network.
    let before = db.snapshot();
    let r = s
        .query("SELECT UNIQUE2, HUNDRED FROM WISC WHERE HUNDRED = 42")
        .unwrap();
    let m = db.snapshot() - before;
    println!("predicate scan  : {} rows", r.rows.len());
    println!(
        "  FS-DP msgs    : {} ({} crossed nodes)",
        m.msgs_fs_dp, m.msgs_remote
    );
    println!("  bytes moved   : {}", m.msg_bytes_total);
    println!(
        "  DP examined   : {} records (filtered at the source)",
        m.dp_records_examined
    );

    // The same rows via the secondary index (Figure 2): the index's Disk
    // Process finds the primary keys; base records come from whichever
    // node owns them.
    let before = db.snapshot();
    let r = s
        .query("SELECT UNIQUE2, UNIQUE1 FROM WISC WHERE UNIQUE1 BETWEEN 100 AND 179")
        .unwrap();
    let m = db.snapshot() - before;
    println!("\nindex-only scan : {} rows", r.rows.len());
    println!(
        "  FS-DP msgs    : {} ({} crossed nodes)",
        m.msgs_fs_dp, m.msgs_remote
    );
    println!("  bytes moved   : {}", m.msg_bytes_total);

    // Distributed transaction: one UPDATE touching partitions on both
    // nodes commits atomically through TMF.
    let before = db.snapshot();
    let n = s
        .execute("UPDATE WISC SET THOUSAND = THOUSAND + 1 WHERE UNIQUE2 BETWEEN 1990 AND 2010")
        .unwrap()
        .count();
    let m = db.snapshot() - before;
    println!("\ncross-partition UPDATE: {n} rows across the $DATA2/$FAR1 boundary");
    println!("  FS-DP msgs    : {}", m.msgs_fs_dp);
    println!(
        "  committed     : {} (two-phase through TMF)",
        m.txns_committed
    );
    let _ = w;
}
