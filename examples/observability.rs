//! Observability tour: virtual-time tracing, per-statement statistics,
//! the FS ↔ DP message-sequence diagram, `EXPLAIN ANALYZE`, and the
//! built-in histograms.
//!
//! ```sh
//! cargo run --example observability
//! ```

use nonstop_sql::sim::format_sequence;
use nonstop_sql::ClusterBuilder;

fn main() {
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    // Tracing is off by default (and free); turn on the ring buffer.
    db.sim.trace.enable_default();

    let mut s = db.session();
    s.execute(
        "CREATE TABLE EMP (EMPNO INT NOT NULL, NAME CHAR(12) NOT NULL, \
         HIRE_DATE INT NOT NULL, SALARY DOUBLE NOT NULL, PRIMARY KEY (EMPNO))",
    )
    .expect("create table");
    s.execute("BEGIN WORK").unwrap();
    for i in 0..3000 {
        let salary = if i % 3 == 0 { 40_000 } else { 20_000 };
        s.execute(&format!(
            "INSERT INTO EMP VALUES ({i}, 'E{i:05}', {}, {salary})",
            1980 + i % 9
        ))
        .unwrap();
    }
    s.execute("COMMIT WORK").unwrap();

    // --- Per-statement attribution: the paper's example 1 -------------
    let sql = "SELECT NAME, HIRE_DATE FROM EMP WHERE EMPNO <= 1000 AND SALARY > 32000";
    let r = s.query(sql).expect("select");
    let stats = s.last_stats().expect("stats").clone();
    println!("{sql}");
    println!(
        "  -> {} rows in {} virtual µs, {} FS-DP messages ({} re-drives), {} message bytes\n",
        r.rows.len(),
        stats.elapsed_us,
        stats.metrics.msgs_fs_dp,
        stats.metrics.msgs_redrive,
        stats.metrics.msg_bytes_total,
    );

    // The statement's own trace slice, rendered as the paper's
    // Figure-2-style FS <-> DP message-sequence diagram.
    println!("{}", format_sequence(&stats.trace));

    // --- EXPLAIN ANALYZE ----------------------------------------------
    let r = s
        .query(&format!("EXPLAIN ANALYZE {sql}"))
        .expect("explain analyze");
    println!("EXPLAIN ANALYZE {sql}");
    println!("{}", r.to_table());

    // --- Critical-path wait profile -----------------------------------
    // Every statement's elapsed virtual time decomposes into exhaustive
    // wait categories (CPU / message / disk / lock / group-commit /
    // retry) that sum exactly — zero tolerance — to `elapsed_us`. The
    // same rows appear as the WAIT PROFILE section of EXPLAIN ANALYZE.
    println!(
        "wait profile: {} (sums to {} µs elapsed: {})",
        stats.wait,
        stats.elapsed_us,
        stats.wait.total() == stats.elapsed_us,
    );

    // --- Causal span tree ---------------------------------------------
    // Each FS-DP request carries trace/span/parent ids in its header, so
    // the statement's trace slice assembles into one causal tree.
    let roots = nonstop_sql::sim::assemble_spans(&stats.trace);
    for root in &roots {
        println!(
            "span tree: {} ({} µs, self {})",
            root.label,
            root.elapsed(),
            root.self_wait(),
        );
        for req in &root.children {
            println!("  {} on {} -> {}", req.label, req.track, req.wait);
            for dp in &req.children {
                println!("    handled by {} -> {}", dp.track, dp.wait);
            }
        }
    }
    println!();

    // --- Histograms ---------------------------------------------------
    let h = &db.sim.hist;
    println!(
        "statement latency (virtual µs): p50={} p95={} p99={} max={}",
        h.stmt_latency_us.percentile(0.50),
        h.stmt_latency_us.percentile(0.95),
        h.stmt_latency_us.percentile(0.99),
        h.stmt_latency_us.max(),
    );
    println!(
        "message bytes:                  p50={} p99={} max={} (n={})",
        h.msg_bytes.percentile(0.50),
        h.msg_bytes.percentile(0.99),
        h.msg_bytes.max(),
        h.msg_bytes.count(),
    );
    println!(
        "re-drive chain length:          p50={} max={}",
        h.redrive_chain.percentile(0.50),
        h.redrive_chain.max(),
    );
    println!(
        "group-commit batch size:        p50={} max={}",
        h.commit_group.percentile(0.50),
        h.commit_group.max(),
    );
}
