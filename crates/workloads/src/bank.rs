//! DebitCredit-style banking workload (the \[Benchmark\] workbook's OLTP
//! load).
//!
//! Schema: BRANCH / TELLER / ACCOUNT / HISTORY with the classic ~100-byte
//! records. The debit-credit transaction updates one account, its teller
//! and branch balances, and appends a history record. Two implementations
//! of the *same* transaction exist:
//!
//! * [`Bank::debit_credit_sql`] — the NonStop SQL path: balance updates as
//!   pushed-down update expressions (one message per record touched,
//!   field-compressed audit);
//! * [`Bank::debit_credit_enscribe`] — the ENSCRIBE path: READ then WRITE
//!   per record (two messages), full-image audit.
//!
//! Experiment E9 runs both and compares messages, I/O, audit bytes, CPU
//! work and virtual time — the paper's claim is that the SQL system
//! *matches* the pre-existing DBMS on this kind of workload.

use nsql_core::{Cluster, DbError, Session};
use nsql_dp::ReadLock;
use nsql_fs::{FileSystem, OpenFile};
use nsql_lock::TxnId;
use nsql_records::key::encode_record_key;
use nsql_records::{ArithOp, Expr, SetList, Value};
use nsql_sim::SimRng;

/// FS-DP messages in one SQL debit-credit transaction (see
/// [`Bank::debit_credit_step`]).
pub const DEBIT_CREDIT_STEPS: usize = 4;

/// Every account's balance as [`Bank::create`] loads it.
const OPENING_BALANCE: f64 = 1000.0;

/// One of [`Bank`]'s two DebitCredit paths: [`Bank::debit_credit_sql`] or
/// [`Bank::debit_credit_enscribe`].
pub type Debit = fn(&Bank, &FileSystem, TxnId, i32, i32, i32, f64) -> Result<(), DbError>;

/// How a [`Bank::batch`] ended.
#[derive(Debug, Default)]
pub struct Batch {
    /// Transactions that committed.
    pub committed: u32,
    /// Sum of the committed transactions' deltas.
    pub net_delta: f64,
    /// Why the first transaction that did not commit did not.
    failure: Option<String>,
}

impl Batch {
    /// For a batch run with no fault plane armed: a transaction that did
    /// not commit is an error.
    pub fn fault_free(self) -> Result<Batch, DbError> {
        match self.failure {
            Some(why) => Err(DbError(format!(
                "DebitCredit transaction did not commit: {why}"
            ))),
            None => Ok(self),
        }
    }
}

/// A loaded bank database.
pub struct Bank {
    /// Number of branches.
    pub branches: u32,
    /// Tellers (10 per branch).
    pub tellers: u32,
    /// Accounts (`accounts_per_branch` per branch).
    pub accounts: u32,
    next_history: std::sync::atomic::AtomicI64,
    account_of: OpenFile,
    teller_of: OpenFile,
    branch_of: OpenFile,
    history_of: OpenFile,
}

impl Bank {
    /// Create and load the four tables. `accounts_per_branch` scales the
    /// database (classic is 100 000; simulations use less).
    pub fn create(
        db: &Cluster,
        branches: u32,
        accounts_per_branch: u32,
        volume: &str,
    ) -> Result<Bank, DbError> {
        let mut s = db.session();
        s.execute(&format!(
            "CREATE TABLE BRANCH (BID INT NOT NULL, BBALANCE DOUBLE NOT NULL, \
             FILLER CHAR(88) NOT NULL, PRIMARY KEY (BID)) ON '{volume}'"
        ))?;
        s.execute(&format!(
            "CREATE TABLE TELLER (TID INT NOT NULL, BID INT NOT NULL, \
             TBALANCE DOUBLE NOT NULL, FILLER CHAR(84) NOT NULL, \
             PRIMARY KEY (TID)) ON '{volume}'"
        ))?;
        s.execute(&format!(
            "CREATE TABLE ACCOUNT (AID INT NOT NULL, BID INT NOT NULL, \
             ABALANCE DOUBLE NOT NULL, FILLER CHAR(84) NOT NULL, \
             PRIMARY KEY (AID)) ON '{volume}'"
        ))?;
        s.execute(&format!(
            "CREATE TABLE HISTORY (HID LARGEINT NOT NULL, AID INT NOT NULL, \
             TID INT NOT NULL, BID INT NOT NULL, DELTA DOUBLE NOT NULL, \
             FILLER CHAR(24) NOT NULL, PRIMARY KEY (HID)) ON '{volume}'"
        ))?;

        let filler = |n: usize| "F".repeat(n);
        let catalog = &db.catalog;
        let get = |t: &str| -> Result<OpenFile, DbError> {
            Ok(catalog.table(t).map_err(|e| DbError(e.to_string()))?.open)
        };
        let branch_of = get("BRANCH")?;
        let teller_of = get("TELLER")?;
        let account_of = get("ACCOUNT")?;
        let history_of = get("HISTORY")?;

        // Bulk load through the blocked-insert interface.
        let txn = db.txnmgr.begin();
        {
            let fs = s.fs();
            let mut ins = nsql_fs::BlockedInserter::new(fs, &branch_of, txn);
            for b in 0..branches {
                ins.push(&[
                    Value::Int(b as i32),
                    Value::Double(0.0),
                    Value::Str(filler(88)),
                ])
                .map_err(|e| DbError(e.to_string()))?;
            }
            ins.flush().map_err(|e| DbError(e.to_string()))?;
            let mut ins = nsql_fs::BlockedInserter::new(fs, &teller_of, txn);
            for t in 0..branches * 10 {
                ins.push(&[
                    Value::Int(t as i32),
                    Value::Int((t / 10) as i32),
                    Value::Double(0.0),
                    Value::Str(filler(84)),
                ])
                .map_err(|e| DbError(e.to_string()))?;
            }
            ins.flush().map_err(|e| DbError(e.to_string()))?;
            let mut ins = nsql_fs::BlockedInserter::new(fs, &account_of, txn);
            for a in 0..branches * accounts_per_branch {
                ins.push(&[
                    Value::Int(a as i32),
                    Value::Int((a / accounts_per_branch) as i32),
                    Value::Double(OPENING_BALANCE),
                    Value::Str(filler(84)),
                ])
                .map_err(|e| DbError(e.to_string()))?;
            }
            ins.flush().map_err(|e| DbError(e.to_string()))?;
        }
        db.txnmgr
            .commit(txn, s.cpu())
            .map_err(|e| DbError(e.to_string()))?;
        db.catalog.bump_rows("BRANCH", branches as i64);
        db.catalog.bump_rows("TELLER", (branches * 10) as i64);
        db.catalog
            .bump_rows("ACCOUNT", (branches * accounts_per_branch) as i64);

        Ok(Bank {
            branches,
            tellers: branches * 10,
            accounts: branches * accounts_per_branch,
            next_history: std::sync::atomic::AtomicI64::new(0),
            account_of,
            teller_of,
            branch_of,
            history_of,
        })
    }

    /// Draw the random inputs of one transaction.
    pub fn draw(&self, rng: &mut SimRng) -> (i32, i32, i32, f64) {
        let aid = rng.below(self.accounts as u64) as i32;
        let tid = rng.below(self.tellers as u64) as i32;
        let bid = tid / 10;
        let delta = rng.between(-500, 500) as f64;
        (aid, tid, bid, delta)
    }

    /// `txns` DebitCredit transactions on `s`, inputs drawn from `rng`,
    /// each applied by `debit` and committed. A transaction that fails is
    /// aborted and the batch goes on, as a terminal would under faults.
    pub fn batch(&self, s: &Session<'_>, debit: Debit, rng: &mut SimRng, txns: u32) -> Batch {
        let tm = &s.cluster().txnmgr;
        let mut batch = Batch::default();
        for _ in 0..txns {
            let (aid, tid, bid, delta) = self.draw(rng);
            let txn = tm.begin();
            let done = match debit(self, s.fs(), txn, aid, tid, bid, delta) {
                Ok(()) => tm.commit(txn, s.cpu()).map_err(|e| e.to_string()),
                Err(e) => {
                    let _ = tm.abort(txn, s.cpu());
                    Err(e.to_string())
                }
            };
            match done {
                Ok(()) => {
                    batch.committed += 1;
                    batch.net_delta += delta;
                }
                Err(why) => {
                    batch.failure.get_or_insert(why);
                }
            }
        }
        batch
    }

    /// The total of all account balances as [`Bank::create`] loaded them:
    /// where a conservation check starts without reading the table.
    pub fn opening_total(&self) -> f64 {
        f64::from(self.accounts) * OPENING_BALANCE
    }

    fn hid(&self) -> i64 {
        self.next_history
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    fn add_expr(field: u16, delta: f64) -> SetList {
        SetList {
            sets: vec![(
                field,
                Expr::Arith(
                    Box::new(Expr::Field(field)),
                    ArithOp::Add,
                    Box::new(Expr::lit(Value::Double(delta))),
                ),
            )],
        }
    }

    fn key_of(of: &OpenFile, id: Value) -> Vec<u8> {
        let mut row = vec![Value::Null; of.desc.num_fields()];
        row[of.desc.key_fields[0] as usize] = id;
        encode_record_key(&of.desc, &row)
    }

    /// One FS-DP message of the SQL debit-credit transaction: steps `0..2`
    /// are the pushed-down account/teller/branch balance updates, the last
    /// step is the history insert. The multi-terminal load engine issues
    /// these one at a time so concurrent transactions interleave — and
    /// contend — at real message granularity, and the typed
    /// [`nsql_fs::FsError`] lets its retry loop match on
    /// [`nsql_fs::FsError::Doomed`].
    #[allow(clippy::too_many_arguments)] // mirrors debit_credit_sql's fields plus the step index
    pub fn debit_credit_step(
        &self,
        fs: &FileSystem,
        txn: TxnId,
        step: usize,
        aid: i32,
        tid: i32,
        bid: i32,
        delta: f64,
    ) -> Result<(), nsql_fs::FsError> {
        match step {
            0 => fs.update_by_key(
                txn,
                &self.account_of,
                &Self::key_of(&self.account_of, Value::Int(aid)),
                &Self::add_expr(2, delta),
                None,
            ),
            1 => fs.update_by_key(
                txn,
                &self.teller_of,
                &Self::key_of(&self.teller_of, Value::Int(tid)),
                &Self::add_expr(2, delta),
                None,
            ),
            2 => fs.update_by_key(
                txn,
                &self.branch_of,
                &Self::key_of(&self.branch_of, Value::Int(bid)),
                &Self::add_expr(1, delta),
                None,
            ),
            _ => fs.insert_row(
                txn,
                &self.history_of,
                &[
                    Value::LargeInt(self.hid()),
                    Value::Int(aid),
                    Value::Int(tid),
                    Value::Int(bid),
                    Value::Double(delta),
                    Value::Str("H".repeat(24)),
                ],
            ),
        }
    }

    /// The NonStop SQL implementation: three pushed-down update
    /// expressions plus one insert — four FS-DP messages, field-compressed
    /// audit, no read-before-write.
    pub fn debit_credit_sql(
        &self,
        fs: &FileSystem,
        txn: TxnId,
        aid: i32,
        tid: i32,
        bid: i32,
        delta: f64,
    ) -> Result<(), DbError> {
        for step in 0..DEBIT_CREDIT_STEPS {
            self.debit_credit_step(fs, txn, step, aid, tid, bid, delta)
                .map_err(|x| DbError(x.to_string()))?;
        }
        Ok(())
    }

    /// The ENSCRIBE implementation of the identical transaction: READ then
    /// WRITE (full record image) per balance — eight messages where SQL
    /// needs four — plus the history insert.
    pub fn debit_credit_enscribe(
        &self,
        fs: &FileSystem,
        txn: TxnId,
        aid: i32,
        tid: i32,
        bid: i32,
        delta: f64,
    ) -> Result<(), DbError> {
        let e = |x: nsql_fs::FsError| DbError(x.to_string());
        let rewrite = |of: &OpenFile, id: Value, bal_field: usize| -> Result<(), DbError> {
            let key = Self::key_of(of, id);
            let old = fs
                .ens_read(Some(txn), of, &key, ReadLock::Shared)
                .map_err(e)?
                .ok_or_else(|| DbError("missing record".into()))?;
            let mut new = old.0.clone();
            let Value::Double(b) = new[bal_field] else {
                return Err(DbError("bad balance".into()));
            };
            new[bal_field] = Value::Double(b + delta);
            fs.ens_rewrite(txn, of, &old.0, &new).map_err(e)
        };
        rewrite(&self.account_of, Value::Int(aid), 2)?;
        rewrite(&self.teller_of, Value::Int(tid), 2)?;
        rewrite(&self.branch_of, Value::Int(bid), 1)?;
        fs.ens_write(
            txn,
            &self.history_of,
            &[
                Value::LargeInt(self.hid()),
                Value::Int(aid),
                Value::Int(tid),
                Value::Int(bid),
                Value::Double(delta),
                Value::Str("H".repeat(24)),
            ],
        )
        .map_err(e)?;
        Ok(())
    }

    /// Total of all account balances (consistency checks).
    pub fn total_balance(&self, db: &Cluster) -> Result<f64, DbError> {
        let mut s = db.session();
        let r = s.query("SELECT SUM(ABALANCE) FROM ACCOUNT")?;
        match r.rows[0].0[0] {
            Value::Double(x) => Ok(x),
            Value::Null => Ok(0.0),
            ref v => Err(DbError(format!("unexpected sum {v}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_core::ClusterBuilder;

    fn db() -> Cluster {
        ClusterBuilder::new().volume("$DATA1", 0, 1).build()
    }

    #[test]
    fn load_shapes() {
        let db = db();
        let bank = Bank::create(&db, 2, 50, "$DATA1").unwrap();
        assert_eq!(bank.branches, 2);
        assert_eq!(bank.tellers, 20);
        assert_eq!(bank.accounts, 100);
        let mut s = db.session();
        assert_eq!(
            s.query("SELECT COUNT(*) FROM ACCOUNT").unwrap().rows[0].0[0],
            Value::LargeInt(100)
        );
        assert_eq!(bank.total_balance(&db).unwrap(), 100.0 * 1000.0);
    }

    #[test]
    fn sql_and_enscribe_paths_agree() {
        let db = db();
        let bank = Bank::create(&db, 1, 20, "$DATA1").unwrap();
        let s = db.session();
        let fs = s.fs();

        let txn = db.txnmgr.begin();
        bank.debit_credit_sql(fs, txn, 3, 5, 0, 100.0).unwrap();
        db.txnmgr.commit(txn, s.cpu()).unwrap();

        let txn = db.txnmgr.begin();
        bank.debit_credit_enscribe(fs, txn, 3, 5, 0, 50.0).unwrap();
        db.txnmgr.commit(txn, s.cpu()).unwrap();

        let mut s2 = db.session();
        let r = s2
            .query("SELECT ABALANCE FROM ACCOUNT WHERE AID = 3")
            .unwrap();
        assert_eq!(r.rows[0].0[0], Value::Double(1150.0));
        let r = s2.query("SELECT COUNT(*) FROM HISTORY").unwrap();
        assert_eq!(r.rows[0].0[0], Value::LargeInt(2));
        let r = s2
            .query("SELECT BBALANCE FROM BRANCH WHERE BID = 0")
            .unwrap();
        assert_eq!(r.rows[0].0[0], Value::Double(150.0));
    }

    #[test]
    fn sql_path_uses_fewer_messages_for_updates() {
        let db = db();
        let bank = Bank::create(&db, 1, 20, "$DATA1").unwrap();
        let s = db.session();
        let fs = s.fs();

        let before = db.snapshot();
        let txn = db.txnmgr.begin();
        bank.debit_credit_sql(fs, txn, 1, 1, 0, 10.0).unwrap();
        db.txnmgr.commit(txn, s.cpu()).unwrap();
        let sql_msgs = (db.snapshot() - before).msgs_fs_dp;

        let before = db.snapshot();
        let txn = db.txnmgr.begin();
        bank.debit_credit_enscribe(fs, txn, 1, 1, 0, 10.0).unwrap();
        db.txnmgr.commit(txn, s.cpu()).unwrap();
        let ens_msgs = (db.snapshot() - before).msgs_fs_dp;

        assert_eq!(sql_msgs, 4, "3 pushed-down updates + 1 insert");
        assert_eq!(ens_msgs, 7, "3 x (read + write) + 1 insert");
    }

    #[test]
    fn money_conserved_under_random_mix() {
        let db = db();
        let bank = Bank::create(&db, 2, 25, "$DATA1").unwrap();
        let s = db.session();
        let fs = s.fs();
        let mut rng = SimRng::seed_from(11);
        let mut expected = 50.0 * 1000.0;
        for i in 0..30 {
            let (aid, tid, bid, delta) = bank.draw(&mut rng);
            let txn = db.txnmgr.begin();
            if i % 2 == 0 {
                bank.debit_credit_sql(fs, txn, aid, tid, bid, delta)
                    .unwrap();
            } else {
                bank.debit_credit_enscribe(fs, txn, aid, tid, bid, delta)
                    .unwrap();
            }
            db.txnmgr.commit(txn, s.cpu()).unwrap();
            expected += delta;
        }
        assert!((bank.total_balance(&db).unwrap() - expected).abs() < 1e-6);
    }
}
