//! `scan_select`: read-only `SELECT`s over a 20 k-row Wisconsin table.
//!
//! Why it exists: set-oriented reads — B-tree leaf walk, row decode and
//! `Expr` evaluation at the Disk Process, bulk I/O and pre-fetch do the
//! work (the table is about 2,000 blocks, 8 times the 256-frame cache).
//! It must not show `lock` or `tmf` work, and `sql` planning is under 1 %.

use crate::closed::{execute, scalar, Workload, SAMPLE_STATEMENTS, VOLUME};
use crate::drills::Shape;
use nsql_core::{Cluster, ClusterBuilder, Outcome, Session};
use nsql_dp::{ReadLock, SubsetMode};
use nsql_records::key::encode_record_key;
use nsql_records::{ArithOp, CmpOp, Expr, KeyRange, OwnedBound, SetList, Value};
use nsql_sim::SimRng;
use nsql_workloads::Wisconsin;

const ROWS: u32 = 20_000;
const RANGE_ROWS: u32 = 1_000;
const FILTER_ROWS: u32 = 200;

/// Generator for `scan_select`; the model is the Wisconsin definition
/// itself (`UNIQUE2` is 0..ROWS in order, `UNIQUE1` a permutation of it,
/// `HUNDRED` is `UNIQUE1 % 100`).
pub struct Scan {
    sample: Vec<String>,
}

/// One statement and the row count the Wisconsin definition implies.
pub struct Query {
    sql: String,
    expect_rows: usize,
}

impl Workload for Scan {
    type Op = Query;
    const NAME: &'static str = "scan_select";
    const BATCH: u64 = 40;
    const WARMUP: u64 = 100;
    const FULL_OPS: u64 = 3_000;
    const FITS_CACHE: bool = false;

    fn setup(seed: u64) -> (Cluster, Scan) {
        let db = ClusterBuilder::new().volume(VOLUME, 0, 1).build();
        Wisconsin::create(&db, "WISC", ROWS, &[VOLUME], seed).expect("loading WISC");
        (db, Scan { sample: Vec::new() })
    }

    /// Six `range`, three `filter` and one `agg` in every ten, in drawn
    /// order: the median falls in `range` and the 99th percentile in `agg`.
    fn generate(&mut self, rng: &mut SimRng, batch: &mut Vec<Query>) {
        let mut kinds = [0, 0, 0, 0, 0, 0, 1, 1, 1, 2].repeat(4);
        rng.shuffle(&mut kinds);
        for kind in kinds {
            let q = match kind {
                0 => {
                    let lo = rng.below(u64::from(ROWS - RANGE_ROWS + 1));
                    Query {
                        sql: format!(
                            "SELECT * FROM WISC WHERE UNIQUE2 BETWEEN {lo} AND {}",
                            lo + u64::from(RANGE_ROWS) - 1
                        ),
                        expect_rows: RANGE_ROWS as usize,
                    }
                }
                1 => {
                    let lo = rng.below(u64::from(ROWS - FILTER_ROWS + 1));
                    Query {
                        sql: format!(
                            "SELECT UNIQUE2, UNIQUE1 FROM WISC WHERE UNIQUE1 BETWEEN {lo} AND {}",
                            lo + u64::from(FILTER_ROWS) - 1
                        ),
                        expect_rows: FILTER_ROWS as usize,
                    }
                }
                _ => Query {
                    sql: "SELECT HUNDRED, MIN(THOUSAND) AS M FROM WISC GROUP BY HUNDRED"
                        .to_string(),
                    expect_rows: 100,
                },
            };
            if self.sample.len() < SAMPLE_STATEMENTS {
                self.sample.push(q.sql.clone());
            }
            batch.push(q);
        }
    }

    fn execute(&self, s: &mut Session<'_>, op: &Query) -> Result<(), String> {
        match execute(s, &op.sql)? {
            Outcome::Rows(r) if r.rows.len() == op.expect_rows => Ok(()),
            Outcome::Rows(r) => Err(format!(
                "{}: expected {} rows, got {}",
                op.sql,
                op.expect_rows,
                r.rows.len()
            )),
            other => Err(format!("{}: expected rows, got {other:?}", op.sql)),
        }
    }

    fn verify(&self, s: &mut Session<'_>) -> Result<(), String> {
        let rows = scalar(s, "SELECT COUNT(*) FROM WISC")?;
        if rows != f64::from(ROWS) {
            return Err(format!("WISC holds {rows} rows, loaded {ROWS}"));
        }
        Ok(())
    }

    fn shape<'a>(&'a self, db: &'a Cluster) -> Shape<'a> {
        let open = db.catalog.table("WISC").expect("WISC exists").open;
        Shape {
            db,
            statements: self.sample.clone(),
            table: "WISC",
            row: Wisconsin::row(4_711, 12_345, ROWS),
            // `UNIQUE1 BETWEEN lo AND hi`, as the planner ships it.
            predicate: Expr::and(
                Expr::field_cmp(1, CmpOp::Ge, Value::Int(10_000)),
                Expr::field_cmp(1, CmpOp::Le, Value::Int(10_199)),
            ),
            // The workload assigns nothing; Wisconsin's own update query.
            sets: SetList {
                sets: vec![(
                    7,
                    Expr::Arith(
                        Box::new(Expr::Field(7)),
                        ArithOp::Add,
                        Box::new(Expr::lit(Value::Int(1))),
                    ),
                )],
            },
            tree_keys: ROWS,
            fs_call: Box::new(move |fs, _txn, rng| {
                let key_of = |u2: u32| encode_record_key(&open.desc, &Wisconsin::row(u2, 0, ROWS));
                let lo = rng.below(u64::from(ROWS - RANGE_ROWS + 1)) as u32;
                let range = KeyRange {
                    begin: OwnedBound::Included(key_of(lo)),
                    end: OwnedBound::Included(key_of(lo + RANGE_ROWS - 1)),
                };
                let scan = fs
                    .scan(
                        None,
                        &open,
                        &range,
                        None,
                        None,
                        SubsetMode::Rsbb,
                        ReadLock::None,
                    )
                    .expect("range scan");
                assert_eq!(scan.rows.len(), RANGE_ROWS as usize);
            }),
        }
    }
}
