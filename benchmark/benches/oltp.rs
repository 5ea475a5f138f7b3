//! `oltp_sql`: DebitCredit as six SQL-text statements per transaction.
//!
//! Why it exists: the only workload where `sql` parse/plan and `core`'s
//! per-statement bookkeeping do most of the host work, and the only point
//! path that misses the Disk Process cache and evicts (100 k ACCOUNT rows
//! are about 5,350 blocks, 21 times the 256-frame cache; draws are
//! uniform). It must not show lock waits or retries: there is one terminal.

use crate::closed::{execute, scalar, Workload, SAMPLE_STATEMENTS, VOLUME};
use crate::drills::Shape;
use nsql_core::{Cluster, ClusterBuilder, Outcome, Session};
use nsql_records::{ArithOp, CmpOp, Expr, SetList, Value};
use nsql_sim::SimRng;
use nsql_workloads::Bank;

const BRANCHES: u32 = 100;
const ACCOUNTS_PER_BRANCH: u32 = 1_000;
const OPENING_BALANCE: f64 = 1_000.0;

/// Generator and model for `oltp_sql`.
pub struct Oltp {
    bank: Bank,
    /// HISTORY rows inserted so far (the next `HID`).
    history: i64,
    /// Sum of every generated delta: what each balance total must move by.
    net_delta: f64,
    /// The first statements generated, kept for the `sql` drills.
    sample: Vec<String>,
}

/// One DebitCredit transaction: the four statements between `BEGIN WORK`
/// and `COMMIT WORK`, each of which must affect exactly one row.
pub struct Txn {
    statements: [String; 4],
}

impl Oltp {
    fn txn(&mut self, rng: &mut SimRng) -> Txn {
        let (aid, tid, bid, delta) = self.bank.draw(rng);
        let hid = self.history;
        self.history += 1;
        self.net_delta += delta;
        let statements = [
            format!("UPDATE ACCOUNT SET ABALANCE = ABALANCE + {delta} WHERE AID = {aid}"),
            format!("UPDATE TELLER SET TBALANCE = TBALANCE + {delta} WHERE TID = {tid}"),
            format!("UPDATE BRANCH SET BBALANCE = BBALANCE + {delta} WHERE BID = {bid}"),
            format!(
                "INSERT INTO HISTORY VALUES ({hid}, {aid}, {tid}, {bid}, {delta}, \
                     'HHHHHHHHHHHHHHHHHHHHHHHH')"
            ),
        ];
        if self.sample.len() < SAMPLE_STATEMENTS {
            self.sample.push("BEGIN WORK".to_string());
            self.sample.extend(statements.iter().cloned());
            self.sample.push("COMMIT WORK".to_string());
        }
        Txn { statements }
    }
}

impl Workload for Oltp {
    type Op = Txn;
    const NAME: &'static str = "oltp_sql";
    const BATCH: u64 = 2_000;
    const WARMUP: u64 = 8_000;
    const FULL_OPS: u64 = 150_000;
    const FITS_CACHE: bool = false;

    fn setup(_seed: u64) -> (Cluster, Oltp) {
        let db = ClusterBuilder::new().volume(VOLUME, 0, 1).build();
        let bank =
            Bank::create(&db, BRANCHES, ACCOUNTS_PER_BRANCH, VOLUME).expect("loading the bank");
        (
            db,
            Oltp {
                bank,
                history: 0,
                net_delta: 0.0,
                sample: Vec::new(),
            },
        )
    }

    fn generate(&mut self, rng: &mut SimRng, batch: &mut Vec<Txn>) {
        batch.extend((0..Self::BATCH).map(|_| self.txn(rng)));
    }

    fn execute(&self, s: &mut Session<'_>, op: &Txn) -> Result<(), String> {
        let body = |s: &mut Session<'_>| {
            execute(s, "BEGIN WORK")?;
            for sql in &op.statements {
                match execute(s, sql)? {
                    Outcome::Count(1) => {}
                    other => return Err(format!("{sql}: expected 1 row, got {other:?}")),
                }
            }
            execute(s, "COMMIT WORK").map(drop)
        };
        let out = body(s);
        if out.is_err() && s.in_txn() {
            // Leave the session usable; the failure is already reported.
            let _ = s.rollback();
        }
        out
    }

    /// Money conservation: every total moved by exactly the generated net
    /// delta, and every transaction left one HISTORY row. Deltas are whole
    /// numbers, so the float sums are exact.
    fn verify(&self, s: &mut Session<'_>) -> Result<(), String> {
        let opening = f64::from(self.bank.accounts) * OPENING_BALANCE;
        for (sql, expected) in [
            (
                "SELECT SUM(ABALANCE) FROM ACCOUNT",
                opening + self.net_delta,
            ),
            ("SELECT SUM(TBALANCE) FROM TELLER", self.net_delta),
            ("SELECT SUM(BBALANCE) FROM BRANCH", self.net_delta),
            ("SELECT COUNT(*) FROM HISTORY", self.history as f64),
        ] {
            let got = scalar(s, sql)?;
            if got != expected {
                return Err(format!("{sql}: expected {expected}, got {got}"));
            }
        }
        Ok(())
    }

    fn shape<'a>(&'a self, db: &'a Cluster) -> Shape<'a> {
        bank_shape(db, &self.bank, self.sample.clone())
    }
}

/// The drill inputs shared by the two DebitCredit workloads: ACCOUNT rows,
/// one pushed-down balance update per File System call.
pub fn bank_shape<'a>(db: &'a Cluster, bank: &'a Bank, statements: Vec<String>) -> Shape<'a> {
    let filler = "F".repeat(84);
    Shape {
        db,
        statements,
        table: "ACCOUNT",
        row: vec![
            Value::Int(4_711),
            Value::Int(4),
            Value::Double(OPENING_BALANCE),
            Value::Str(filler),
        ],
        predicate: Expr::field_cmp(0, CmpOp::Eq, Value::Int(4_711)),
        sets: SetList {
            sets: vec![(
                2,
                Expr::Arith(
                    Box::new(Expr::Field(2)),
                    ArithOp::Add,
                    Box::new(Expr::lit(Value::Double(37.0))),
                ),
            )],
        },
        tree_keys: bank.accounts,
        fs_call: Box::new(move |fs, txn, rng| {
            let (aid, tid, bid, delta) = bank.draw(rng);
            bank.debit_credit_step(fs, txn, 0, aid, tid, bid, delta)
                .expect("balance update");
        }),
    }
}
