//! The Wisconsin benchmark relation and query suite (1983 form).
//!
//! The relation has thirteen integer attributes and three 52-character
//! strings (~208-byte records, a blocking factor of ~18 in 4 KB blocks).
//! `UNIQUE2` is the sequential primary key (clustered); `UNIQUE1` is a
//! random permutation (non-clustered selections / secondary index).

use nsql_core::{Cluster, DbError, Session};
use nsql_fs::BlockedInserter;
use nsql_records::Value;
use nsql_sim::SimRng;

/// A loaded Wisconsin table.
pub struct Wisconsin {
    /// Table name.
    pub name: String,
    /// Row count.
    pub rows: u32,
}

impl Wisconsin {
    /// CREATE the table (optionally partitioned over `volumes`) and load
    /// `rows` tuples deterministically from `seed`. Loading uses the
    /// blocked-insert interface so setup does not distort experiment
    /// metrics.
    pub fn create(
        db: &Cluster,
        name: &str,
        rows: u32,
        volumes: &[&str],
        seed: u64,
    ) -> Result<Wisconsin, DbError> {
        let mut session = db.session();
        let partition = match volumes.len() {
            0 | 1 => volumes
                .first()
                .map(|v| format!("ON '{v}'"))
                .unwrap_or_default(),
            n => {
                let step = rows / n as u32;
                let splits: Vec<String> = (1..n).map(|i| (i as u32 * step).to_string()).collect();
                let vols: Vec<String> = volumes.iter().map(|v| format!("'{v}'")).collect();
                format!(
                    "PARTITION BY VALUES ({}) ON ({})",
                    splits.join(", "),
                    vols.join(", ")
                )
            }
        };
        session.execute(&format!(
            "CREATE TABLE {name} (\
             UNIQUE2 INT NOT NULL, UNIQUE1 INT NOT NULL, \
             TWO INT NOT NULL, FOUR INT NOT NULL, TEN INT NOT NULL, \
             TWENTY INT NOT NULL, HUNDRED INT NOT NULL, THOUSAND INT NOT NULL, \
             TWOTHOUS INT NOT NULL, FIVETHOUS INT NOT NULL, TENTHOUS INT NOT NULL, \
             ODD100 INT NOT NULL, EVEN100 INT NOT NULL, \
             STRINGU1 CHAR(52) NOT NULL, STRINGU2 CHAR(52) NOT NULL, \
             STRING4 CHAR(52) NOT NULL, \
             PRIMARY KEY (UNIQUE2)) {partition}"
        ))?;

        // Random permutation for UNIQUE1.
        let mut rng = SimRng::seed_from(seed);
        let mut unique1: Vec<u32> = (0..rows).collect();
        rng.shuffle(&mut unique1);

        let info = db.catalog.table(name).map_err(|e| DbError(e.to_string()))?;
        let txn = db.txnmgr.begin();
        {
            let fs = session.fs();
            let mut inserter = BlockedInserter::new(fs, &info.open, txn);
            for u2 in 0..rows {
                inserter
                    .push(&Self::row(u2, unique1[u2 as usize], rows))
                    .map_err(|e| DbError(e.to_string()))?;
            }
            inserter.flush().map_err(|e| DbError(e.to_string()))?;
        }
        db.txnmgr
            .commit(txn, session.cpu())
            .map_err(|e| DbError(e.to_string()))?;
        db.catalog.bump_rows(name, rows as i64);
        Ok(Wisconsin {
            name: name.to_string(),
            rows,
        })
    }

    /// One tuple, per the benchmark's attribute definitions.
    pub fn row(unique2: u32, unique1: u32, _rows: u32) -> Vec<Value> {
        let u1 = unique1 as i32;
        let u2 = unique2 as i32;
        vec![
            Value::Int(u2),
            Value::Int(u1),
            Value::Int(u1 % 2),
            Value::Int(u1 % 4),
            Value::Int(u1 % 10),
            Value::Int(u1 % 20),
            Value::Int(u1 % 100),
            Value::Int(u1 % 1000),
            Value::Int(u1 % 2000),
            Value::Int(u1 % 5000),
            Value::Int(u1 % 10000),
            Value::Int((u1 % 100) * 2 + 1),
            Value::Int((u1 % 100) * 2),
            Value::Str(wisc_string(unique1)),
            Value::Str(wisc_string(unique2)),
            Value::Str(wisc_string(unique1 % 4)),
        ]
    }

    /// The standard 1% clustered selection on the primary key.
    pub fn q_select_1pct_clustered(&self) -> String {
        let hi = self.rows / 100;
        format!(
            "SELECT * FROM {} WHERE UNIQUE2 BETWEEN 0 AND {}",
            self.name,
            hi.saturating_sub(1)
        )
    }

    /// 10% clustered selection.
    pub fn q_select_10pct_clustered(&self) -> String {
        let hi = self.rows / 10;
        format!(
            "SELECT * FROM {} WHERE UNIQUE2 BETWEEN 0 AND {}",
            self.name,
            hi.saturating_sub(1)
        )
    }

    /// 1% non-clustered selection (scan + predicate, or a secondary index
    /// when one exists on UNIQUE1).
    pub fn q_select_1pct_nonclustered(&self) -> String {
        let hi = self.rows / 100;
        format!(
            "SELECT * FROM {} WHERE UNIQUE1 BETWEEN 0 AND {}",
            self.name,
            hi.saturating_sub(1)
        )
    }

    /// The projection query: two columns of the 1% subset (heavily reduced
    /// reply volume — VSBB's best case).
    pub fn q_project_1pct(&self) -> String {
        let hi = self.rows / 100;
        format!(
            "SELECT UNIQUE2, UNIQUE1 FROM {} WHERE UNIQUE1 BETWEEN 0 AND {}",
            self.name,
            hi.saturating_sub(1)
        )
    }

    /// Whole-relation scan (`SELECT *` — travels via RSBB).
    pub fn q_scan_all(&self) -> String {
        format!("SELECT * FROM {}", self.name)
    }

    /// Aggregate: MIN of a column grouped by a 1% attribute.
    pub fn q_agg_min_grouped(&self) -> String {
        format!(
            "SELECT HUNDRED, MIN(THOUSAND) AS M FROM {} GROUP BY HUNDRED",
            self.name
        )
    }

    /// The two-relation join: every row of the 1% subset of this table
    /// joined to `other` on UNIQUE2 (the benchmark's joinAselB shape).
    pub fn q_join_1pct(&self, other: &Wisconsin) -> String {
        let hi = self.rows / 100;
        format!(
            "SELECT A.UNIQUE2, B.UNIQUE1 FROM {} A, {} B \
             WHERE A.UNIQUE2 = B.UNIQUE2 AND A.UNIQUE2 < {hi}",
            self.name, other.name
        )
    }

    /// Run a query in a fresh session and return the row count.
    pub fn run_count(&self, db: &Cluster, sql: &str) -> Result<usize, DbError> {
        let mut s: Session = db.session();
        Ok(s.query(sql)?.rows.len())
    }
}

/// The benchmark's cyclic string attribute: `$xxxxxxx` patterns of 52
/// characters derived from a number. (We use a simpler derivation with the
/// same length and cardinality behaviour.)
pub fn wisc_string(n: u32) -> String {
    let mut s = String::with_capacity(52);
    let letters = [b'A', b'B', b'C', b'D', b'E', b'F', b'G', b'H', b'I', b'J'];
    let digits = format!("{n:08}");
    for d in digits.bytes() {
        s.push(letters[(d - b'0') as usize] as char);
    }
    while s.len() < 52 {
        s.push('X');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_core::ClusterBuilder;

    fn db() -> Cluster {
        ClusterBuilder::new()
            .volume("$DATA1", 0, 1)
            .volume("$DATA2", 0, 2)
            .build()
    }

    #[test]
    fn load_and_counts() {
        let db = db();
        let w = Wisconsin::create(&db, "WISC", 1000, &["$DATA1"], 42).unwrap();
        let mut s = db.session();
        let r = s.query("SELECT COUNT(*) FROM WISC").unwrap();
        assert_eq!(r.rows[0].0[0], Value::LargeInt(1000));
        // UNIQUE1 is a permutation: every value 0..1000 appears once.
        let r = s
            .query("SELECT COUNT(*) FROM WISC WHERE UNIQUE1 < 100")
            .unwrap();
        assert_eq!(r.rows[0].0[0], Value::LargeInt(100));
        assert_eq!(w.rows, 1000);
    }

    #[test]
    fn one_percent_selections_select_one_percent() {
        let db = db();
        let w = Wisconsin::create(&db, "WISC", 1000, &["$DATA1", "$DATA2"], 7).unwrap();
        assert_eq!(w.run_count(&db, &w.q_select_1pct_clustered()).unwrap(), 10);
        assert_eq!(
            w.run_count(&db, &w.q_select_1pct_nonclustered()).unwrap(),
            10
        );
        assert_eq!(
            w.run_count(&db, &w.q_select_10pct_clustered()).unwrap(),
            100
        );
        assert_eq!(w.run_count(&db, &w.q_project_1pct()).unwrap(), 10);
        assert_eq!(w.run_count(&db, &w.q_scan_all()).unwrap(), 1000);
    }

    #[test]
    fn attribute_modulos_hold() {
        let row = Wisconsin::row(5, 123, 1000);
        assert_eq!(row[0], Value::Int(5));
        assert_eq!(row[1], Value::Int(123));
        assert_eq!(row[2], Value::Int(1)); // 123 % 2
        assert_eq!(row[4], Value::Int(3)); // 123 % 10
        assert_eq!(row[6], Value::Int(23)); // 123 % 100
        let Value::Str(s) = &row[13] else { panic!() };
        assert_eq!(s.len(), 52);
    }

    #[test]
    fn deterministic_loads() {
        let a = {
            let db = db();
            Wisconsin::create(&db, "W", 200, &["$DATA1"], 99).unwrap();
            let mut s = db.session();
            s.query("SELECT UNIQUE1 FROM W WHERE UNIQUE2 = 100")
                .unwrap()
                .rows[0]
                .0[0]
                .clone()
        };
        let b = {
            let db = db();
            Wisconsin::create(&db, "W", 200, &["$DATA1"], 99).unwrap();
            let mut s = db.session();
            s.query("SELECT UNIQUE1 FROM W WHERE UNIQUE2 = 100")
                .unwrap()
                .rows[0]
                .0[0]
                .clone()
        };
        assert_eq!(a, b);
    }
}
#[cfg(test)]
mod join_tests {
    use super::*;
    use nsql_core::ClusterBuilder;

    #[test]
    fn join_query_matches() {
        let db = ClusterBuilder::new()
            .volume("$DATA1", 0, 1)
            .volume("$DATA2", 0, 2)
            .build();
        let a = Wisconsin::create(&db, "WA", 500, &["$DATA1"], 1).unwrap();
        let b = Wisconsin::create(&db, "WB", 500, &["$DATA2"], 2).unwrap();
        let mut s = db.session();
        let r = s.query(&a.q_join_1pct(&b)).unwrap();
        assert_eq!(r.rows.len(), 5, "1% of 500 joined 1:1 on the key");
    }
}
