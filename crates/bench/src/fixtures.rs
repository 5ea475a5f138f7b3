//! What the experiment bodies share: clusters, loaded tables, a transaction
//! scope, the measurement window, key and set-list builders, and the
//! canonical mixed workload behind both the `measure` record and the Chrome
//! trace.

use nsql_core::{Cluster, ClusterBuilder, DiskProcessConfig, Session};
use nsql_fs::{BlockedInserter, OpenFile};
use nsql_lock::TxnId;
use nsql_records::{ArithOp, Expr, FieldType, SetList, Value};
use nsql_sim::{SimRng, Window};
use nsql_workloads::{Bank, Wisconsin};

/// What a body returns: its value, or why the experiment cannot be
/// reported. Every error type of the stack converts with `?`, and so does a
/// message (`.ok_or("…")?`, `ensure!`).
pub type Outcome<T> = Result<T, Box<dyn std::error::Error>>;

/// Fail the experiment unless `cond` holds. The checks the bodies make on
/// their own results (money conserved, ledgers that sum to the elapsed
/// time, row counts) end the run with an error, not the process with a
/// panic.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+).into());
        }
    };
}
pub(crate) use ensure;

/// A one-volume cluster (`$DATA1`) whose Disk Process runs with `config`.
pub fn configured(config: DiskProcessConfig) -> Cluster {
    ClusterBuilder::new()
        .dp_config(config)
        .volume("$DATA1", 0, 1)
        .build()
}

/// A one-volume cluster holding the empty table
/// `CREATE TABLE {name} ({columns})`.
pub fn table(name: &str, columns: &str) -> Outcome<(Cluster, OpenFile)> {
    let db = Cluster::single_volume();
    let mut s = db.session();
    s.execute(&format!("CREATE TABLE {name} ({columns})"))?;
    let of = s.open_table(name)?;
    drop(s);
    Ok((db, of))
}

/// Insert `rows` through one blocked insert in one transaction: a handful
/// of messages whatever the row count.
pub fn blocked_insert(
    s: &Session,
    of: &OpenFile,
    rows: impl IntoIterator<Item = Vec<Value>>,
) -> Outcome<()> {
    in_txn(s, |txn| {
        let mut ins = BlockedInserter::new(s.fs(), of, txn);
        for row in rows {
            ins.push(&row)?;
        }
        Ok(ins.flush()?)
    })
}

/// [`table`] with `rows` already in it through [`blocked_insert`], so
/// that setup does not distort what the experiment measures.
pub fn loaded(
    name: &str,
    columns: &str,
    rows: impl IntoIterator<Item = Vec<Value>>,
) -> Outcome<(Cluster, OpenFile)> {
    let (db, of) = table(name, columns)?;
    blocked_insert(&db.session(), &of, rows)?;
    Ok((db, of))
}

/// A one-volume cluster with `n` accounts of 100.00 each, keyed 0..n, in
/// `{name} ({key} INT, BALANCE DOUBLE, FILLER CHAR({filler}))` — the
/// filler sets the record size the audit experiments argue about.
pub fn accounts(name: &str, key: &str, filler: usize, n: i32) -> Outcome<(Cluster, OpenFile)> {
    let columns = format!(
        "{key} INT NOT NULL, BALANCE DOUBLE NOT NULL, \
         FILLER CHAR({filler}) NOT NULL, PRIMARY KEY ({key})"
    );
    let account = |i| {
        vec![
            Value::Int(i),
            Value::Double(100.0),
            Value::Str("F".repeat(filler)),
        ]
    };
    loaded(name, &columns, (0..n).map(account))
}

/// An [`accounts`] row with `change` applied to its balance: what an
/// ENSCRIBE client computes between its READ and its WRITE.
pub fn rebalanced(old: &[Value], change: impl Fn(f64) -> f64) -> Outcome<Vec<Value>> {
    let Some(Value::Double(balance)) = old.get(1) else {
        return Err(format!("{old:?} is not an account row").into());
    };
    let mut new = old.to_vec();
    new[1] = Value::Double(change(*balance));
    Ok(new)
}

/// Run `work` in a transaction of its own, begun and committed on `s`'s
/// CPU.
pub fn in_txn<T>(s: &Session, work: impl FnOnce(TxnId) -> Outcome<T>) -> Outcome<T> {
    let tm = &s.cluster().txnmgr;
    let txn = tm.begin();
    let out = work(txn)?;
    tm.commit(txn, s.cpu())?;
    Ok(out)
}

/// What `work` cost on `db`: one mark before it, closed once after it, so
/// every cell of a row reads the same window.
pub fn window<T>(db: &Cluster, work: impl FnOnce() -> Outcome<T>) -> Outcome<(Window, T)> {
    let mark = db.sim.mark();
    let out = work()?;
    Ok((mark.close(&db.sim), out))
}

/// Flush every volume's cache and then drop it, for cold-cache scans.
pub fn cold_caches(db: &Cluster) -> Outcome<()> {
    for v in db.volumes() {
        let dp = db.dp(&v);
        dp.pool().flush_all()?;
        dp.pool().crash();
    }
    Ok(())
}

/// The encoded primary key of row `k`: every table the experiments create
/// is keyed on one `INT` column.
pub fn pk(k: i32) -> Vec<u8> {
    nsql_records::key::encode_key_prefix(&[(FieldType::Int, Value::Int(k))])
}

/// The set-list `SET f = f <op> v` for field number `field`.
pub fn set_arith(field: u16, op: ArithOp, v: Value) -> SetList {
    let new = Expr::Arith(Box::new(Expr::Field(field)), op, Box::new(Expr::lit(v)));
    SetList {
        sets: vec![(field, new)],
    }
}

/// The canonical mixed workload — 50 DebitCredit transactions on `$DATA2`
/// and a 10% Wisconsin selection on `$DATA1` — on a fresh cluster, with
/// the trace ring on from the start if `traced`. The `measure` record is
/// this window's per-entity delta and the Chrome trace is this run's
/// events, so the two always describe the same thing.
pub fn canonical_workload(traced: bool) -> Outcome<(Cluster, Window)> {
    let db = ClusterBuilder::new()
        .volume("$DATA1", 0, 1)
        .volume("$DATA2", 0, 2)
        .build();
    if traced {
        db.sim.trace.enable_default();
    }
    let w = Wisconsin::create(&db, "WISC", 5_000, &["$DATA1"], 2)?;
    let bank = Bank::create(&db, 2, 50, "$DATA2")?;
    let (window, ()) = window(&db, || {
        let s = db.session();
        let mut rng = SimRng::seed_from(0xE18);
        bank.batch(&s, Bank::debit_credit_sql, &mut rng, 50)
            .fault_free()?;
        let n = db
            .session()
            .query(&w.q_select_10pct_clustered())?
            .rows
            .len();
        ensure!(n == 500, "the 10% selection returned {n} rows, not 500");
        Ok(())
    })?;
    Ok((db, window))
}
