//! The shipped stack, small: the cluster both explorers build afresh for
//! every run, and the requests their scenarios are made of.

use nsql_core::{Cluster, ClusterBuilder, DiskProcessConfig};
use nsql_dp::{ReadLock, SubsetMode};
use nsql_fs::{BlockedInserter, FileSystem, FsError, OpenFile};
use nsql_records::key::encode_record_key;
use nsql_records::{AggFunc, Aggregation, ArithOp, Expr, KeyRange, SetList, Value};

/// The one volume of every explored cluster.
pub(crate) const VOLUME: &str = "$DATA1";

/// A fresh cluster whose one volume — a process pair when `pair` — holds
/// table `T (K, V)` with the rows `(1, 0) … (rows, 0)`.
pub(crate) fn build(
    pair: bool,
    dp: DiskProcessConfig,
    rows: i32,
) -> Result<(Cluster, OpenFile), String> {
    let builder = ClusterBuilder::new().dp_config(dp);
    let db = if pair {
        builder.volume_with_backup(VOLUME, 0, 1, 0, 3).build()
    } else {
        builder.volume(VOLUME, 0, 1).build()
    };
    let of = {
        let mut s = db.session();
        let created = s.execute("CREATE TABLE T (K INT NOT NULL, V INT NOT NULL, PRIMARY KEY (K))");
        let of = created.and_then(|_| s.open_table("T"));
        let of = of.map_err(|e| format!("CREATE TABLE: {e}"))?;
        // One blocked insert: setup is most of what a run costs.
        let txn = db.txnmgr.begin();
        let mut load = BlockedInserter::new(s.fs(), &of, txn);
        let pushed = (1..=rows).try_for_each(|k| load.push(&[Value::Int(k), Value::Int(0)]));
        let loaded = pushed.and_then(|()| load.flush());
        loaded.map_err(|e| format!("load: {e}"))?;
        let committed = db.txnmgr.commit(txn, s.cpu());
        committed.map_err(|e| format!("load: {e}"))?;
        of
    };
    Ok((db, of))
}

/// The encoded primary key of row `k`.
pub(crate) fn key(of: &OpenFile, k: i32) -> Vec<u8> {
    encode_record_key(&of.desc, &[Value::Int(k), Value::Null])
}

/// `SET V = V + 1`: applied twice, it shows.
pub(crate) fn bump() -> SetList {
    let v_plus_1 = Expr::Arith(
        Box::new(Expr::Field(1)),
        ArithOp::Add,
        Box::new(Expr::Lit(Value::Int(1))),
    );
    SetList {
        sets: vec![(1, v_plus_1)],
    }
}

/// `SELECT K, V FROM T` as the File System sends it: every row's `(K, V)`
/// in the order the subset conversation delivered them.
pub(crate) fn select_all(fs: &FileSystem, of: &OpenFile) -> Result<Vec<(i32, i32)>, FsError> {
    let (mode, lock) = (SubsetMode::Vsbb, ReadLock::None);
    let scan = fs.scan(None, of, &KeyRange::all(), None, None, mode, lock)?;
    let pair = |row: &nsql_records::Row| match row.0.as_slice() {
        [Value::Int(k), Value::Int(v)] => Ok((*k, *v)),
        other => Err(FsError::BadRow(format!("{other:?}"))),
    };
    scan.rows.iter().map(pair).collect()
}

/// `SELECT COUNT(*), SUM(K) FROM T` folded where the records lie: the Disk
/// Process replies with the partial groups of each request, merged here in
/// reply order as the executor merges them.
pub(crate) fn count_and_sum(fs: &FileSystem, of: &OpenFile) -> Result<Vec<Value>, FsError> {
    let pushed = [(AggFunc::Count, None), (AggFunc::Sum, Some(0))];
    let aggs = pushed.map(|(func, arg)| (func, arg.map(Expr::Field)));
    let mut fold = Aggregation::new(&[], &aggs);
    let (all, lock) = (KeyRange::all(), ReadLock::None);
    fs.aggregate_with(None, of, &all, None, &[], &pushed, lock, |row| {
        fold.merge(&row.checked()?);
        Ok(())
    })?;
    let rows = fold.finish().map_err(|e| FsError::BadRow(e.to_string()))?;
    Ok(rows.into_iter().flatten().collect())
}
