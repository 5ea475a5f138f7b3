//! The closed-loop driver: one terminal sends its next operation only after
//! the previous one completed. Shared by `oltp_sql`, `scan_select` and
//! `set_update`.

use crate::drills::Shape;
use crate::harness::{peak_rss_mb, HostMark};
use crate::measured::{note, Measured, VirtMark};
use crate::spans;
use nsql_core::{Cluster, Outcome, Session};
use nsql_sim::SimRng;

/// The data volume every workload runs on.
pub const VOLUME: &str = "$DATA1";

/// Statement texts a workload keeps for the `sql` drills to parse and plan.
pub const SAMPLE_STATEMENTS: usize = 96;

/// `Session::execute` under a `stmt` span.
pub fn execute(s: &mut Session<'_>, sql: &str) -> Result<Outcome, String> {
    let _span = spans::enter("stmt");
    s.execute(sql).map_err(|e| format!("{sql}: {e}"))
}

/// One value from a one-row result, as a float.
pub fn scalar(s: &mut Session<'_>, sql: &str) -> Result<f64, String> {
    let r = s.query(sql).map_err(|e| format!("{sql}: {e}"))?;
    r.rows
        .first()
        .and_then(|row| row.0.first())
        .and_then(|v| if v.is_null() { Some(0.0) } else { v.as_f64() })
        .ok_or_else(|| format!("{sql}: no scalar result"))
}

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Plan {
    /// After the workload's fixed warm-up, measure whole batches until
    /// `seconds` of host time have been spent executing (the driver's
    /// `--seconds`).
    Timed { seconds: f64 },
    /// Exactly this many operations, so that every virtual counter repeats
    /// (`--scale`, and the traced re-run of a timed run).
    Fixed { warmup: u64, ops: u64 },
}

/// A closed-loop workload: a generator with the model its outputs are
/// checked against. The cluster lives beside it so a session can borrow the
/// cluster while the generator advances.
pub trait Workload: Sized {
    /// One generated operation: the inputs the program sees, plus what the
    /// generator expects back.
    type Op;
    /// Name, as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Operations generated and then executed together, about 300 ms of
    /// them. Every batch holds the workload's mix in exact proportion (only
    /// order and keys are drawn), so batches cost the same and the median
    /// batch is a steady reading of host time: in sizing runs it spread
    /// least between seeds, against the mean, the quartile and the minimum.
    /// The generator's own cost stays out of the timed sections, and the
    /// stop condition is tested once per batch.
    const BATCH: u64;
    /// Warm-up operations before a time-boxed run: enough to fill the Disk
    /// Process cache and the allocator's free lists. A fixed count, so that
    /// memory read when it ends does not depend on the machine's speed.
    const WARMUP: u64;
    /// Timed operations of a full-size fixed run (`--scale 1`).
    const FULL_OPS: u64;
    /// Does the working set fit the Disk Process cache? Then every virtual
    /// counter repeats exactly between two runs of one seed; otherwise the
    /// cache's eviction tie-break jitters bulk-read paths slightly.
    const FITS_CACHE: bool;

    /// Build the cluster and load the tables: what `setup_s` times.
    fn setup(seed: u64) -> (Cluster, Self);
    /// Append the next `BATCH` operations, advancing the output model.
    fn generate(&mut self, rng: &mut SimRng, batch: &mut Vec<Self::Op>);
    /// Execute one operation and check its output.
    fn execute(&self, s: &mut Session<'_>, op: &Self::Op) -> Result<(), String>;
    /// Check the final database state against the model.
    fn verify(&self, s: &mut Session<'_>) -> Result<(), String>;
    /// Inputs for the per-layer drills, shaped like this workload's ops.
    fn shape<'a>(&'a self, db: &'a Cluster) -> Shape<'a>;
}

/// Where a section of a run stops: after this much host time spent
/// executing, or this many operations, whichever comes first.
struct Limit {
    ns: f64,
    ops: u64,
}

/// Generate and execute whole batches up to `limit` (a count that is not a
/// multiple of `BATCH` is rounded up).
fn section<W: Workload>(
    db: &Cluster,
    w: &mut W,
    s: &mut Session<'_>,
    rng: &mut SimRng,
    limit: Limit,
) -> Measured {
    let mut m = Measured::default();
    let mut batch: Vec<W::Op> = Vec::with_capacity(W::BATCH as usize);
    while (m.host.wall_ns as f64) < limit.ns && m.ops < limit.ops {
        batch.clear();
        w.generate(rng, &mut batch);
        debug_assert_eq!(batch.len() as u64, W::BATCH);
        m.latencies_us.reserve(batch.len());
        let from = HostMark::now();
        for op in &batch {
            let t0 = db.sim.now();
            let root = spans::enter_op("op");
            let out = w.execute(s, op);
            drop(root);
            match out {
                Ok(()) => m.latencies_us.push(db.sim.now() - t0),
                Err(e) => {
                    m.failed += 1;
                    note(&mut m.errors, e);
                }
            }
        }
        let cost = HostMark::since(&from);
        m.host.add(&cost);
        m.batches.push(cost);
        m.ops += W::BATCH;
    }
    m
}

/// Run `plan` on a freshly set-up cluster and check the final state. With
/// `traced`, spans are recorded over the timed operations (neither the
/// warm-up nor the final check).
pub fn run<W: Workload>(db: &Cluster, w: &mut W, seed: u64, plan: Plan, traced: bool) -> Measured {
    let mut s = db.session();
    let mut rng = SimRng::seed_from(seed);
    let (warmup, timed_limit) = match plan {
        Plan::Timed { seconds } => (
            W::WARMUP,
            Limit {
                ns: seconds * 1e9,
                ops: u64::MAX,
            },
        ),
        Plan::Fixed { warmup, ops } => (
            warmup,
            Limit {
                ns: f64::INFINITY,
                ops,
            },
        ),
    };
    let warm_limit = Limit {
        ns: f64::INFINITY,
        ops: warmup,
    };
    let warm = section(db, w, &mut s, &mut rng, warm_limit);
    let rss_mb = peak_rss_mb();
    if traced {
        spans::start_recording();
    }
    let virt = VirtMark::now(db);
    let mut m = section(db, w, &mut s, &mut rng, timed_limit);
    virt.charge(db, &mut m.counts);
    m.spans = spans::finish_recording();
    m.latencies_us.sort_unstable();
    m.warmup = warm.ops;
    m.rss_mb = rss_mb;
    for e in warm.errors {
        note(&mut m.errors, format!("warm-up: {e}"));
    }
    if let Err(e) = w.verify(&mut s) {
        note(&mut m.errors, e);
    }
    m
}
