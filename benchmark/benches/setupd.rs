//! `set_update`: set-oriented writes over a 10 k-row table that fits the
//! Disk Process cache (about 165 blocks of 256 frames).
//!
//! Why it exists: the same `btree`/`cache`/`records` code as `scan_select`,
//! used for writing — per-row node rewrite, audit record and record lock —
//! so a gain for scans that costs updates shows here. Cost per row grows
//! with rows per transaction (the lock manager scans its held list), which
//! is why the mix spans 200 to 5,000 rows. It must not show disk reads or
//! cache steals.

use crate::closed::{execute, Workload, SAMPLE_STATEMENTS, VOLUME};
use crate::drills::Shape;
use crate::spans;
use nsql_core::{Cluster, ClusterBuilder, Outcome, Session};
use nsql_fs::{BlockedInserter, OpenFile};
use nsql_records::key::encode_record_key;
use nsql_records::{ArithOp, CmpOp, Expr, KeyRange, OwnedBound, SetList, Value};
use nsql_sim::SimRng;

const ROWS: u32 = 10_000;
const DEL_INS_ROWS: u32 = 100;

/// Generator and model for `set_update`.
pub struct SetUpdate {
    open: OpenFile,
    /// `V` of every row, by `K` (no row is ever missing between ops).
    v: Vec<i64>,
    sample: Vec<String>,
}

/// One autocommit transaction.
pub enum Op {
    /// `UPDATE … WHERE K BETWEEN lo AND lo+rows-1`; must affect `rows`.
    Update { sql: String, rows: u64 },
    /// `DELETE` a key range, then re-insert it through `BlockedInserter`,
    /// in one transaction.
    DeleteInsert { sql: String, lo: u32 },
}

fn row(k: u32, v: i32) -> [Value; 4] {
    [
        Value::Int(k as i32),
        Value::Int(v),
        Value::Double(1_000.0),
        Value::Str("PPPPPPPP".to_string()),
    ]
}

impl SetUpdate {
    fn update(&mut self, rng: &mut SimRng, rows: u32) -> Op {
        let lo = rng.below(u64::from(ROWS - rows + 1)) as u32;
        for v in &mut self.v[lo as usize..(lo + rows) as usize] {
            *v += 1;
        }
        Op::Update {
            sql: format!(
                "UPDATE T SET BAL = BAL * 1.0001, V = V + 1 WHERE K BETWEEN {lo} AND {}",
                lo + rows - 1
            ),
            rows: u64::from(rows),
        }
    }
}

impl Workload for SetUpdate {
    type Op = Op;
    const NAME: &'static str = "set_update";
    const BATCH: u64 = 20;
    const WARMUP: u64 = 100;
    const FULL_OPS: u64 = 2_000;
    const FITS_CACHE: bool = true;

    fn setup(_seed: u64) -> (Cluster, SetUpdate) {
        let db = ClusterBuilder::new().volume(VOLUME, 0, 1).build();
        let mut s = db.session();
        s.execute(
            "CREATE TABLE T (K INT NOT NULL, V INT NOT NULL, BAL DOUBLE NOT NULL, \
             PAD CHAR(8) NOT NULL, PRIMARY KEY (K))",
        )
        .expect("creating T");
        let open = s.open_table("T").expect("T exists");
        let txn = s.begin().expect("load transaction");
        let mut ins = BlockedInserter::new(s.fs(), &open, txn);
        for k in 0..ROWS {
            ins.push(&row(k, 0)).expect("loading T");
        }
        ins.flush().expect("loading T");
        drop(ins);
        s.commit().expect("load commit");
        db.catalog.bump_rows("T", i64::from(ROWS));
        drop(s);
        (
            db,
            SetUpdate {
                open,
                v: vec![0; ROWS as usize],
                sample: Vec::new(),
            },
        )
    }

    /// Thirteen 200-row updates, three 1,000-row, three delete-and-reinserts
    /// of 100 keys and one 5,000-row update, in drawn order: the median
    /// falls in the small update and the 99th percentile in the big one.
    fn generate(&mut self, rng: &mut SimRng, batch: &mut Vec<Op>) {
        let mut kinds = [200; 20];
        kinds[13..16].fill(1_000);
        kinds[16..19].fill(0);
        kinds[19] = 5_000;
        rng.shuffle(&mut kinds);
        for rows in kinds {
            let op = if rows > 0 {
                self.update(rng, rows)
            } else {
                let lo = rng.below(u64::from(ROWS - DEL_INS_ROWS + 1)) as u32;
                self.v[lo as usize..(lo + DEL_INS_ROWS) as usize].fill(0);
                Op::DeleteInsert {
                    sql: format!(
                        "DELETE FROM T WHERE K BETWEEN {lo} AND {}",
                        lo + DEL_INS_ROWS - 1
                    ),
                    lo,
                }
            };
            if self.sample.len() < SAMPLE_STATEMENTS {
                let (Op::Update { sql, .. } | Op::DeleteInsert { sql, .. }) = &op;
                self.sample.push(sql.clone());
            }
            batch.push(op);
        }
    }

    fn execute(&self, s: &mut Session<'_>, op: &Op) -> Result<(), String> {
        let expect = |sql: &str, out: Outcome, rows: u64| match out {
            Outcome::Count(n) if n == rows => Ok(()),
            other => Err(format!("{sql}: expected {rows} rows, got {other:?}")),
        };
        match op {
            Op::Update { sql, rows } => expect(sql, execute(s, sql)?, *rows),
            Op::DeleteInsert { sql, lo } => {
                let txn = s.begin().map_err(|e| e.to_string())?;
                let body = |s: &mut Session<'_>| {
                    expect(sql, execute(s, sql)?, u64::from(DEL_INS_ROWS))?;
                    let _span = spans::enter("fs");
                    let mut ins = BlockedInserter::new(s.fs(), &self.open, txn);
                    for k in *lo..lo + DEL_INS_ROWS {
                        ins.push(&row(k, 0)).map_err(|e| e.to_string())?;
                    }
                    ins.flush().map_err(|e| e.to_string())
                };
                match body(s) {
                    Ok(()) => {
                        let _span = spans::enter("commit");
                        s.commit().map_err(|e| e.to_string())
                    }
                    Err(e) => {
                        // Leave the session usable; the failure is reported.
                        let _ = s.rollback();
                        Err(e)
                    }
                }
            }
        }
    }

    fn verify(&self, s: &mut Session<'_>) -> Result<(), String> {
        let r = s
            .query("SELECT SUM(V), COUNT(*) FROM T")
            .map_err(|e| e.to_string())?;
        let got: Vec<f64> = r.rows[0].0.iter().filter_map(Value::as_f64).collect();
        let expected = [self.v.iter().sum::<i64>() as f64, f64::from(ROWS)];
        if got != expected {
            return Err(format!(
                "SUM(V), COUNT(*) of T: expected {expected:?}, got {got:?}"
            ));
        }
        Ok(())
    }

    fn shape<'a>(&'a self, db: &'a Cluster) -> Shape<'a> {
        let sets = SetList {
            sets: vec![
                (
                    2,
                    Expr::Arith(
                        Box::new(Expr::Field(2)),
                        ArithOp::Mul,
                        Box::new(Expr::lit(Value::Double(1.0001))),
                    ),
                ),
                (
                    1,
                    Expr::Arith(
                        Box::new(Expr::Field(1)),
                        ArithOp::Add,
                        Box::new(Expr::lit(Value::Int(1))),
                    ),
                ),
            ],
        };
        let open = &self.open;
        let fs_sets = sets.clone();
        Shape {
            db,
            statements: self.sample.clone(),
            table: "T",
            row: row(4_711, 3).to_vec(),
            // `K BETWEEN lo AND hi` is a key range; what a residual
            // predicate on the row would cost.
            predicate: Expr::and(
                Expr::field_cmp(0, CmpOp::Ge, Value::Int(4_000)),
                Expr::field_cmp(0, CmpOp::Le, Value::Int(4_199)),
            ),
            sets,
            tree_keys: ROWS,
            fs_call: Box::new(move |fs, txn, rng| {
                let lo = rng.below(u64::from(ROWS - 200 + 1)) as u32;
                let key_of = |k: u32| encode_record_key(&open.desc, &row(k, 0));
                let range = KeyRange {
                    begin: OwnedBound::Included(key_of(lo)),
                    end: OwnedBound::Included(key_of(lo + 199)),
                };
                let n = fs
                    .update_set(txn, open, &range, None, &fs_sets, None)
                    .expect("set update");
                assert_eq!(n, 200);
            }),
        }
    }
}
