//! FastSort — the sort component invoked by the Executor for ORDER BY.
//!
//! The paper notes "a user option which directs the SQL compiler to cause
//! the invocation at execution time of the parallel sorter, FastSort, which
//! uses multiple processors and disks if available" \[Tsukerman\]. This
//! module reproduces the behavioural shape: run generation plus merge, with
//! CPU work accounted to the executor, and an optional parallelism factor
//! that divides the elapsed (virtual) sorting time as extra processors
//! would.

use nsql_records::{EvalError, Expr, Row, Value};
use nsql_sim::{CostModel, Ctr, Sim, Wait};
use std::cmp::Ordering;

/// Compare two values for sorting: NULLs sort first, otherwise SQL order.
pub fn sort_cmp(a: &Value, b: &Value) -> Ordering {
    match (a.is_null(), b.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => a.sql_cmp(b).unwrap_or(Ordering::Equal),
    }
}

/// Sort rows by the given key expressions (ascending unless `desc`).
///
/// `parallel_ways` > 1 models FastSort's use of multiple processors: the
/// CPU work is unchanged, but the virtual elapsed time of the sort shrinks
/// by that factor (subsorts run concurrently).
pub fn fastsort(
    sim: &Sim,
    rows: Vec<Row>,
    keys: &[(Expr, bool)],
    parallel_ways: u32,
) -> Result<Vec<Row>, EvalError> {
    if rows.len() <= 1 || keys.is_empty() {
        return Ok(rows);
    }
    // Schwartzian decoration: evaluate each key expression once per row.
    let mut decorated: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
    for row in rows {
        let mut kv = Vec::with_capacity(keys.len());
        for (e, _) in keys {
            kv.push(e.eval(&row)?);
        }
        decorated.push((kv, row));
    }

    // Account the sort's path length (~ n log2 n comparisons). The full
    // amount is CPU *work*; with parallel subsorts, elapsed virtual time is
    // the work divided across the processors, plus a merge pass.
    let n = decorated.len() as u64;
    let work = n * (64 - n.leading_zeros() as u64) / 4 + 1;
    let ways = parallel_ways.max(1) as u64;
    sim.cluster.add(Ctr::CpuExecutor, work);
    let elapsed_units = if ways == 1 { work } else { work / ways + n / 8 };
    sim.clock
        .advance_in(Wait::Cpu, elapsed_units * CostModel::CPU_WORK_UNIT_US);

    decorated.sort_by(|(ka, _), (kb, _)| {
        for (i, (_, desc)) in keys.iter().enumerate() {
            let ord = sort_cmp(&ka[i], &kb[i]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    Ok(decorated.into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_sim::Sim;

    fn rows(vals: &[i32]) -> Vec<Row> {
        vals.iter().map(|&v| Row(vec![Value::Int(v)])).collect()
    }

    #[test]
    fn sorts_ascending_and_descending() {
        let sim = Sim::new();
        let keys = vec![(Expr::Field(0), false)];
        let sorted = fastsort(&sim, rows(&[3, 1, 2]), &keys, 1).unwrap();
        assert_eq!(
            sorted.iter().map(|r| r.0[0].clone()).collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
        let keys = vec![(Expr::Field(0), true)];
        let sorted = fastsort(&sim, rows(&[3, 1, 2]), &keys, 1).unwrap();
        assert_eq!(sorted[0].0[0], Value::Int(3));
    }

    #[test]
    fn nulls_sort_first() {
        let sim = Sim::new();
        let input = vec![
            Row(vec![Value::Int(1)]),
            Row(vec![Value::Null]),
            Row(vec![Value::Int(0)]),
        ];
        let keys = vec![(Expr::Field(0), false)];
        let sorted = fastsort(&sim, input, &keys, 1).unwrap();
        assert_eq!(sorted[0].0[0], Value::Null);
        assert_eq!(sorted[1].0[0], Value::Int(0));
    }

    #[test]
    fn multi_key_sort() {
        let sim = Sim::new();
        let input = vec![
            Row(vec![Value::Int(1), Value::Str("B".into())]),
            Row(vec![Value::Int(1), Value::Str("A".into())]),
            Row(vec![Value::Int(0), Value::Str("Z".into())]),
        ];
        let keys = vec![(Expr::Field(0), false), (Expr::Field(1), false)];
        let sorted = fastsort(&sim, input, &keys, 1).unwrap();
        assert_eq!(sorted[0].0[1], Value::Str("Z".into()));
        assert_eq!(sorted[1].0[1], Value::Str("A".into()));
        assert_eq!(sorted[2].0[1], Value::Str("B".into()));
    }

    #[test]
    fn accounts_cpu_work() {
        let sim = Sim::new();
        let keys = vec![(Expr::Field(0), false)];
        let many: Vec<i32> = (0..1000).rev().collect();
        let before = sim.metrics.snapshot().cpu_executor;
        fastsort(&sim, rows(&many), &keys, 1).unwrap();
        assert!(sim.metrics.snapshot().cpu_executor > before);
    }

    #[test]
    fn parallel_sort_same_work_less_time() {
        let run = |ways: u32| {
            let sim = Sim::new();
            let keys = vec![(Expr::Field(0), false)];
            let many: Vec<i32> = (0..10_000).rev().collect();
            let t0 = sim.now();
            let sorted = fastsort(&sim, rows(&many), &keys, ways).unwrap();
            assert_eq!(sorted[0].0[0], Value::Int(0));
            (sim.metrics.snapshot().cpu_executor, sim.now() - t0)
        };
        let (work1, time1) = run(1);
        let (work4, time4) = run(4);
        assert_eq!(work1, work4, "path length unchanged by parallelism");
        assert!(
            time4 * 2 < time1,
            "4-way FastSort ({time4}) should be much faster than serial ({time1})"
        );
    }

    #[test]
    fn stable_for_equal_keys() {
        let sim = Sim::new();
        let input = vec![
            Row(vec![Value::Int(1), Value::Int(10)]),
            Row(vec![Value::Int(1), Value::Int(20)]),
        ];
        let keys = vec![(Expr::Field(0), false)];
        let sorted = fastsort(&sim, input, &keys, 1).unwrap();
        assert_eq!(sorted[0].0[1], Value::Int(10));
        assert_eq!(sorted[1].0[1], Value::Int(20));
    }
}
