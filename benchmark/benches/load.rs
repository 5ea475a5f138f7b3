//! `contended_load`: 12 terminals through `nsql_workloads::load::run_load`
//! at three offered rates, each phase on a fresh cluster.
//!
//! Why it exists: the only workload with more than one transaction in
//! flight — lock queues, deadlock victims, retries, the admission gate and
//! group commit under load. The terminals issue File-System-level
//! DebitCredit steps, so it bypasses `sql` entirely: a `sql`-layer change
//! must not move it. Accounts are drawn Zipf(0.8) over 10 branches × 100
//! accounts (about 60 blocks; fits the cache, though HISTORY growth still
//! evicts).
//!
//! Arrivals are open up to the terminal count: each terminal draws an
//! exponential think time after its previous transaction completes, and
//! latency runs from the arrival instant, so time queued at the admission
//! gate counts.

use crate::closed::{Plan, VOLUME};
use crate::drills::Shape;
use crate::harness::{now_ns, peak_rss_mb, percentile, HostMark};
use crate::measured::{note, release, Measured, VirtMark};
use crate::oltp::bank_shape;
use crate::spans;
use nsql_core::{Cluster, ClusterBuilder};
use nsql_workloads::{run_load, Bank, LoadConfig, LoadOutcome};

pub const NAME: &str = "contended_load";
/// Offered transactions per second of virtual time: light, knee and
/// saturated (capacity is about 70).
pub const RATES_TPS: [u32; 3] = [30, 55, 90];
/// The phase latency percentiles are reported from.
const KNEE: usize = 1;
/// The phase throughput is reported from.
pub const SATURATED: usize = 2;
/// Latency limit on the 99th percentile of virtual response time.
pub const P99_LIMIT_US: u64 = 60_000;
const TERMINALS: usize = 12;
const BRANCHES: u32 = 10;
const ACCOUNTS_PER_BRANCH: u32 = 100;
/// Arrivals of the pilot phase that warms the process up and, for a
/// time-boxed run, measures how many arrivals fit a second.
pub const WARMUP: u64 = 10_000;
/// Timed arrivals per phase of a full-size fixed run.
pub const FULL_OPS: u64 = 100_000;

/// One offered rate's results.
#[derive(Debug, Clone)]
pub struct Phase {
    pub rate_tps: u32,
    /// Arrivals the phase's virtual duration was sized for.
    pub target_arrivals: u64,
    pub outcome: LoadOutcome,
}

impl Phase {
    /// The 99th percentile of virtual response time, by the benchmark's
    /// own order-statistic rule (the engine's rounds differently).
    pub fn p99_us(&self) -> u64 {
        percentile(&self.outcome.latencies_us, 99.0)
    }

    /// Does this rate meet the latency limit without a growing backlog
    /// (under 1 % of arrivals queued at admission, nothing given up)?
    pub fn within_limit(&self) -> bool {
        let o = &self.outcome;
        self.p99_us() <= P99_LIMIT_US
            && o.admission_queued * 100 < o.arrivals
            && o.gave_up + o.other_errors == 0
    }
}

/// Build a cluster and load the bank: what `setup_s` times.
pub fn setup() -> (Cluster, Bank) {
    let db = ClusterBuilder::new().volume(VOLUME, 0, 1).build();
    let bank = Bank::create(&db, BRANCHES, ACCOUNTS_PER_BRANCH, VOLUME).expect("loading the bank");
    (db, bank)
}

fn config(seed: u64, rate_tps: u32, arrivals: u64) -> LoadConfig {
    LoadConfig {
        terminals: TERMINALS,
        duration_us: arrivals * 1_000_000 / u64::from(rate_tps),
        mean_think_us: TERMINALS as f64 * 1e6 / f64::from(rate_tps),
        zipf_theta: 0.8,
        max_inflight: 6,
        seed,
        ..LoadConfig::default()
    }
}

/// Run the three phases. A timed plan sizes them from a pilot phase so that
/// together they fill `seconds`; the pilot doubles as the warm-up. Returns
/// the last phase's cluster for the drills.
pub fn run(seed: u64, plan: Plan, traced: bool) -> (Measured, Cluster, Bank) {
    let mut m = Measured::default();
    let warmup = match plan {
        Plan::Timed { .. } => WARMUP,
        Plan::Fixed { warmup, .. } => warmup,
    };
    let pilot_ns_per_arrival = {
        let (db, bank) = setup();
        let t0 = now_ns();
        let pilot = run_load(&db, &bank, &config(seed, RATES_TPS[KNEE], warmup));
        let ns = (now_ns() - t0) as f64 / pilot.arrivals.max(1) as f64;
        release(db);
        ns
    };
    m.warmup = warmup;
    m.rss_mb = peak_rss_mb();
    let per_phase = match plan {
        Plan::Timed { seconds } => {
            (seconds * 1e9 / pilot_ns_per_arrival / RATES_TPS.len() as f64) as u64
        }
        Plan::Fixed { ops, .. } => ops,
    }
    .max(1);

    if traced {
        spans::start_recording();
    }
    let mut last = None;
    for rate_tps in RATES_TPS {
        let (db, bank) = setup();
        if traced {
            spans::time_servers(&db);
        }
        let cfg = config(seed, rate_tps, per_phase);
        let virt = VirtMark::now(&db);
        let from = HostMark::now();
        let root = spans::enter_op("run_load");
        let outcome = run_load(&db, &bank, &cfg);
        drop(root);
        m.host.add(&HostMark::since(&from));
        virt.charge(&db, &mut m.counts);
        m.phases.push(Phase {
            rate_tps,
            target_arrivals: per_phase,
            outcome,
        });
        if let Some((before, _)) = last.replace((db, bank)) {
            release(before);
        }
    }
    m.spans = spans::finish_recording();

    for phase in &m.phases {
        let o = &phase.outcome;
        m.ops += o.arrivals;
        m.failed += o.gave_up + o.other_errors;
        for (name, n) in [
            ("load.arrivals", o.arrivals),
            ("load.committed", o.committed),
            ("load.aborted", o.aborted),
            ("load.deadlock_retries", o.deadlock_retries),
            ("load.lock_timeouts", o.lock_timeouts),
            ("load.admission_queued", o.admission_queued),
            ("load.gave_up", o.gave_up),
            ("load.other_errors", o.other_errors),
            ("load.admission_wait_us", o.admission_wait_us),
            ("load.elapsed_us", o.elapsed_us),
            ("load.p99_us", phase.p99_us()),
        ] {
            m.counts.add(name, n);
        }
        if o.arrivals != o.committed + o.gave_up {
            note(
                &mut m.errors,
                format!(
                    "{} tps: {} arrivals but {} committed + {} given up",
                    phase.rate_tps, o.arrivals, o.committed, o.gave_up
                ),
            );
        }
    }
    // Money conservation, on the cluster still at hand: the engine's own
    // tally of committed deltas is the model.
    let (db, bank) = last.expect("three phases ran");
    let expected = f64::from(bank.accounts) * 1_000.0 + m.phases[SATURATED].outcome.net_delta;
    match bank.total_balance(&db) {
        Ok(total) if total == expected => {}
        Ok(total) => note(
            &mut m.errors,
            format!("account balances total {total}, committed deltas imply {expected}"),
        ),
        Err(e) => note(&mut m.errors, e.to_string()),
    }
    m.latencies_us = m.phases[KNEE].outcome.latencies_us.clone();
    (m, db, bank)
}

/// Drill inputs: the bank's shapes, no statements.
pub fn shape<'a>(db: &'a Cluster, bank: &'a Bank) -> Shape<'a> {
    bank_shape(db, bank, Vec::new())
}
