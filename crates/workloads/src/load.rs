//! Open-loop multi-terminal DebitCredit engine on the virtual clock.
//!
//! `N` simulated terminals issue debit-credit transactions with Poisson
//! (exponential-gap) arrivals and Zipf-skewed account hotspots. The engine
//! is a cooperative event scheduler: each scheduler step runs exactly one
//! FS-DP message of one terminal's transaction, so concurrent transactions
//! interleave — and genuinely contend for locks and group commit — at
//! message granularity, all on one OS thread and one deterministic clock.
//!
//! Contention is survivable end to end: each terminal runs the
//! [`crate::client`], which aborts a **deadlock victim** (or a timed-out
//! lock wait) and retries it, here after a bounded exponential backoff;
//! re-polls a plain **lock conflict**, here after a short pause, keeping
//! the Disk Process's FIFO grant order; and queues arrivals FIFO at an
//! **admission-control gate** (counted as `admission.queued`), so offered
//! load beyond saturation degrades gracefully — throughput plateaus and
//! queueing absorbs the excess — instead of collapsing into lock thrash.
//!
//! On the *shared* clock, admission queueing only accrues `wait.admission`
//! ledger time when the gate itself is the critical path (grants happen at
//! completion instants, which rarely advance the clock); the per-transaction
//! admission delay — the evidence that the gate absorbs overload — is
//! therefore measured separately in [`LoadOutcome::admission_wait_us`].

use crate::bank::{Bank, DEBIT_CREDIT_STEPS};
use crate::client::{Clients, Phase, Rollback};
use nsql_core::{Cluster, DbError};
use nsql_fs::FileSystem;
use nsql_sim::{Ctr, EntityKind, Mark, MeasureSnapshot, Sim, SimRng, Wait, Zipf, WAIT_CATEGORIES};
use nsql_tmf::txn::TMF_ENTITY;

/// Pause before re-polling a lock held by someone else.
const LOCK_RETRY_US: u64 = 300;
/// Give up on a transaction after this many doomed-and-retried attempts (it
/// then counts as [`LoadOutcome::gave_up`]).
const MAX_TXN_RETRIES: u32 = 8;
/// Base backoff before retrying a doomed transaction (doubles per attempt,
/// capped at 64x).
const RETRY_BACKOFF_US: u64 = 400;

/// Tunables of one multi-terminal run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Number of simulated terminals.
    pub terminals: usize,
    /// Arrivals stop after this much virtual time; in-flight transactions
    /// are drained to completion.
    pub duration_us: u64,
    /// Mean exponential inter-arrival gap per terminal (open loop: the
    /// offered rate is `terminals / mean_think_us`, independent of how
    /// fast the system completes work).
    pub mean_think_us: f64,
    /// Zipf skew of the account picks (`0` = uniform; ~1 = heavy hotspot).
    pub zipf_theta: f64,
    /// Admission-control gate: at most this many transactions in flight;
    /// excess arrivals queue FIFO.
    pub max_inflight: usize,
    /// Virtual-time interval of the telemetry sampler: every this many
    /// microseconds the engine closes an [`IntervalSample`] — throughput,
    /// latencies, the wait-ledger delta, and the busiest MEASURE entity of
    /// the interval. `0` (the default) disables sampling; enabling it
    /// perturbs no clock and no pre-existing counter, so a sampled run
    /// commits the identical transaction history.
    pub sample_every_us: u64,
    /// RNG seed; runs are exactly reproducible per seed.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            terminals: 8,
            duration_us: 200_000,
            mean_think_us: 5_000.0,
            zipf_theta: 0.8,
            max_inflight: 4,
            sample_every_us: 0,
            seed: 1,
        }
    }
}

impl LoadConfig {
    /// The contended cell: ten terminals behind a six-slot gate, each
    /// arriving every 1.2 ms on average with Zipf 1.0 account picks, for
    /// 150 ms. On [`hot_bank`] its transactions deadlock and retry.
    pub fn contended(seed: u64) -> LoadConfig {
        LoadConfig {
            terminals: 10,
            duration_us: 150_000,
            mean_think_us: 1_200.0,
            zipf_theta: 1.0,
            max_inflight: 6,
            seed,
            ..LoadConfig::default()
        }
    }
}

/// The hot bank: one branch of 40 accounts on a one-volume cluster, few
/// enough rows that concurrent terminals collide on them.
pub fn hot_bank() -> Result<(Cluster, Bank), DbError> {
    let db = Cluster::single_volume();
    let bank = Bank::create(&db, 1, 40, "$DATA1")?;
    Ok((db, bank))
}

/// One closed interval of the telemetry sampler: what the engine saw in
/// `[start_us, end_us)` of virtual time.
///
/// Because the virtual clock only moves through *attributed* advances, the
/// interval's wait-ledger delta decomposes its span exactly:
/// `wait_us` sums to `end_us - start_us` — every microsecond of the
/// interval is blamed on some category. The bottleneck report is therefore
/// not a sample or an estimate; it is the ledger itself, windowed.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// Interval start (virtual µs).
    pub start_us: u64,
    /// Interval end (virtual µs); `end_us - start_us` is the exact span.
    pub end_us: u64,
    /// Transactions that arrived during the interval.
    pub arrivals: u64,
    /// Transactions that committed during the interval.
    pub committed: u64,
    /// Transaction attempts aborted during the interval.
    pub aborted: u64,
    /// Latencies of the commits that landed in this interval, sorted.
    pub latencies_us: Vec<u64>,
    /// Wait-ledger delta over the interval, indexed by [`Wait::index`];
    /// sums to exactly `end_us - start_us`.
    pub wait_us: [u64; Wait::COUNT],
    /// The MEASURE entity with the largest summed counter delta over the
    /// interval (`kind/name`, e.g. `process/$DATA1`); empty when nothing
    /// moved.
    pub top_entity: String,
    /// That entity's summed counter delta.
    pub top_entity_delta: u64,
}

impl IntervalSample {
    /// Committed transactions per second of virtual time in this interval.
    pub fn tps(&self) -> f64 {
        let span = self.end_us.saturating_sub(self.start_us);
        if span == 0 {
            0.0
        } else {
            self.committed as f64 * 1_000_000.0 / span as f64
        }
    }

    /// Total attributed wait over the interval (equals the span exactly).
    pub fn wait_total_us(&self) -> u64 {
        self.wait_us.iter().sum()
    }

    /// The interval's bottleneck: the wait category with the largest
    /// ledger delta (ties break in ledger order).
    pub fn top_wait(&self) -> Wait {
        let mut best = WAIT_CATEGORIES[0];
        let mut best_us = self.wait_us[0];
        for w in WAIT_CATEGORIES {
            if self.wait_us[w.index()] > best_us {
                best = w;
                best_us = self.wait_us[w.index()];
            }
        }
        best
    }

    /// Latency percentile within the interval (`p` in `[0, 100]`; 0 when
    /// nothing committed).
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let last = self.latencies_us.len() - 1;
        let idx = ((p.clamp(0.0, 100.0) / 100.0) * last as f64).round() as usize;
        self.latencies_us[idx.min(last)]
    }
}

/// What one run observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadOutcome {
    /// Transactions that arrived during the run window.
    pub arrivals: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transaction attempts aborted (doomed victims; each may retry).
    pub aborted: u64,
    /// Automatic retries after a doom (deadlock victim or lock timeout).
    pub deadlock_retries: u64,
    /// Dooms whose reason was the lock-wait timeout.
    pub lock_timeouts: u64,
    /// Arrivals that had to queue at the admission gate.
    pub admission_queued: u64,
    /// Transactions abandoned after exhausting their retry budget.
    pub gave_up: u64,
    /// Attempts aborted by non-doom errors (fault-plane chaos).
    pub other_errors: u64,
    /// Per-commit latency (commit instant minus arrival instant), sorted.
    pub latencies_us: Vec<u64>,
    /// Total time committed transactions spent queued at the admission
    /// gate (grant instant minus arrival instant).
    pub admission_wait_us: u64,
    /// Net delta applied by committed transactions (conservation checks:
    /// final total balance must equal initial plus this).
    pub net_delta: f64,
    /// Virtual time the whole run took, including drain.
    pub elapsed_us: u64,
    /// Telemetry sampler output: one entry per closed interval, in time
    /// order (empty when [`LoadConfig::sample_every_us`] is 0). The last
    /// interval is the partial one that covers the drain tail.
    pub intervals: Vec<IntervalSample>,
}

impl LoadOutcome {
    /// Latency percentile in microseconds (`p` in `[0, 100]`); 0 when
    /// nothing committed.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let last = self.latencies_us.len() - 1;
        let idx = ((p.clamp(0.0, 100.0) / 100.0) * last as f64).round() as usize;
        self.latencies_us[idx.min(last)]
    }

    /// Committed transactions per second of virtual time.
    pub fn tps(&self) -> f64 {
        if self.elapsed_us == 0 {
            0.0
        } else {
            self.committed as f64 * 1_000_000.0 / self.elapsed_us as f64
        }
    }

    /// Offered transactions per second (arrivals over the arrival window).
    pub fn offered_tps(&self, duration_us: u64) -> f64 {
        if duration_us == 0 {
            0.0
        } else {
            self.arrivals as f64 * 1_000_000.0 / duration_us as f64
        }
    }

    /// The invariants of any run, whatever the load, skew or faults: every
    /// arrival committed or gave up, one latency per commit, money
    /// conserved from `opening` (the account total before the run; the
    /// balance is read here, after it), and no lock, waiter or wait edge
    /// left on any volume. A sampled run's intervals must also tile it,
    /// each with a ledger that sums exactly to its span and `top_wait` its
    /// argmax, and their counts and latencies must add up to the run's.
    pub fn check(&self, db: &Cluster, bank: &Bank, opening: f64) -> Result<(), DbError> {
        ensure!(
            self.arrivals == self.committed + self.gave_up,
            "an arrival vanished: {} arrivals, {} committed, {} gave up",
            self.arrivals,
            self.committed,
            self.gave_up
        );
        ensure!(
            self.latencies_us.len() as u64 == self.committed,
            "{} latencies for {} commits",
            self.latencies_us.len(),
            self.committed
        );
        let [p50, p95, p99] = [50.0, 95.0, 99.0].map(|p| self.percentile_us(p));
        ensure!(
            p50 <= p95 && p95 <= p99,
            "percentiles out of order: {p50}, {p95}, {p99}"
        );
        let total = bank.total_balance(db)?;
        ensure!(
            (total - (opening + self.net_delta)).abs() < 1e-6,
            "money not conserved: {total} vs {opening} + {}",
            self.net_delta
        );
        for volume in db.volumes() {
            let locks = &db.dp(&volume).locks;
            let left = [
                locks.lock_count(),
                locks.waiting_count(),
                locks.wait_edge_count(),
            ];
            ensure!(
                left == [0; 3],
                "{volume}: the lock plane did not drain: {} locks, {} waiters, {} wait edges",
                left[0],
                left[1],
                left[2]
            );
        }
        self.check_intervals()
    }

    /// The sampler's half of [`LoadOutcome::check`].
    fn check_intervals(&self) -> Result<(), DbError> {
        let Some(first) = self.intervals.first() else {
            return Ok(());
        };
        let mut at = first.start_us;
        let (mut arrivals, mut committed, mut aborted) = (0, 0, 0);
        let mut latencies = Vec::with_capacity(self.latencies_us.len());
        for (i, iv) in self.intervals.iter().enumerate() {
            ensure!(
                iv.start_us == at && iv.end_us > at,
                "interval {i} is [{}, {}), after one that ended at {at}",
                iv.start_us,
                iv.end_us
            );
            ensure!(
                iv.wait_total_us() == iv.end_us - at,
                "interval {i}: the ledger sums to {}, the span is {}",
                iv.wait_total_us(),
                iv.end_us - at
            );
            let top = iv.wait_us[iv.top_wait().index()];
            ensure!(
                iv.wait_us.iter().all(|&us| us <= top),
                "interval {i}: the bottleneck is not the argmax"
            );
            arrivals += iv.arrivals;
            committed += iv.committed;
            aborted += iv.aborted;
            latencies.extend_from_slice(&iv.latencies_us);
            at = iv.end_us;
        }
        latencies.sort_unstable();
        ensure!(
            at - first.start_us == self.elapsed_us,
            "the intervals span {}, the run {}",
            at - first.start_us,
            self.elapsed_us
        );
        ensure!(
            (arrivals, committed, aborted) == (self.arrivals, self.committed, self.aborted),
            "the intervals count {arrivals} arrivals, {committed} commits and {aborted} aborts; \
             the run {}, {} and {}",
            self.arrivals,
            self.committed,
            self.aborted
        );
        ensure!(
            latencies == self.latencies_us,
            "the intervals' latencies are not the run's"
        );
        Ok(())
    }
}

/// One transaction's inputs.
#[derive(Debug, Clone, Copy, Default)]
struct Job {
    arrival: u64,
    admitted: u64,
    aid: i32,
    tid: i32,
    bid: i32,
    delta: f64,
    /// Order of the three balance-update steps (the history insert is
    /// always last).
    order: [usize; 3],
}

/// No event of its own: queued at the gate, or past the arrival window.
const NEVER: u64 = u64::MAX;

/// One terminal: its client's next event and the transaction it runs. What
/// the client does there is `clients.clients[i].phase`'s to say.
struct Terminal {
    rng: SimRng,
    t_next: u64,
    /// What the gap until `t_next` is: charged to the clock's ledger when
    /// this terminal's event is the one that advances the clock.
    reason: Wait,
    job: Job,
}

/// The interval sampler: high-water marks of the run tallies plus the
/// previous boundary's [`Mark`], so each closed interval is an exact delta.
/// Inactive (and cost-free) when `every == 0`.
struct Sampler {
    every: u64,
    next_at: u64,
    start: u64,
    mark: Mark,
    prev_arrivals: u64,
    prev_committed: u64,
    prev_aborted: u64,
    prev_lat: usize,
}

impl Sampler {
    fn new(sim: &Sim, start: u64, every: u64) -> Sampler {
        Sampler {
            every,
            next_at: start.saturating_add(every.max(1)),
            start,
            mark: sim.mark(),
            prev_arrivals: 0,
            prev_committed: 0,
            prev_aborted: 0,
            prev_lat: 0,
        }
    }

    /// Close the interval `[self.start, at)` into `out.intervals`. The
    /// caller has already advanced the clock exactly to `at`, so the
    /// ledger delta sums to `at - self.start` with no remainder.
    fn close(&mut self, sim: &Sim, out: &mut LoadOutcome, at: u64) {
        sim.measure
            .entity(EntityKind::Process, "SAMPLER")
            .bump(Ctr::SamplerIntervals);
        let window = self.mark.close(sim);
        let (top_entity, top_entity_delta) = busiest_entity(&window.measure.snap);
        let mut latencies_us = out.latencies_us[self.prev_lat..].to_vec();
        latencies_us.sort_unstable();
        out.intervals.push(IntervalSample {
            start_us: self.start,
            end_us: at,
            arrivals: out.arrivals - self.prev_arrivals,
            committed: out.committed - self.prev_committed,
            aborted: out.aborted - self.prev_aborted,
            latencies_us,
            wait_us: window.wait.us,
            top_entity,
            top_entity_delta,
        });
        self.start = at;
        self.next_at = at.saturating_add(self.every.max(1));
        self.mark = sim.mark();
        self.prev_arrivals = out.arrivals;
        self.prev_committed = out.committed;
        self.prev_aborted = out.aborted;
        self.prev_lat = out.latencies_us.len();
    }
}

/// The MEASURE entity whose counters moved the most over an interval, as
/// `(kind/name, summed delta)`. Ties break on the snapshot's order (entity
/// kind, then name), so the answer is deterministic.
fn busiest_entity(delta: &MeasureSnapshot) -> (String, u64) {
    let mut best = (String::new(), 0u64);
    for (kind, name, vals) in delta.iter() {
        let sum: u64 = vals.iter().sum();
        if sum > best.1 {
            best = (format!("{}/{}", kind.tag(), name), sum);
        }
    }
    best
}

/// Run the multi-terminal engine against a loaded [`Bank`]. Deterministic
/// per `cfg.seed`: same seed, same cluster shape, same outcome.
pub fn run_load(db: &Cluster, bank: &Bank, cfg: &LoadConfig) -> LoadOutcome {
    assert!(cfg.terminals > 0, "need at least one terminal");
    assert!(cfg.max_inflight > 0, "admission gate needs capacity");
    let session = db.session();
    let fs = session.fs();
    let sim = &db.sim;
    let rec = sim.measure.entity(EntityKind::Txn, TMF_ENTITY);
    let zipf = Zipf::new(bank.accounts as u64, cfg.zipf_theta);

    let start = sim.now();
    let cutoff = start + cfg.duration_us;
    let mut clients = Clients::new(cfg.terminals, cfg.max_inflight, MAX_TXN_RETRIES);
    let mut out = LoadOutcome::default();
    let mut sampler =
        (cfg.sample_every_us > 0).then(|| Sampler::new(sim, start, cfg.sample_every_us));

    let mut terminals: Vec<Terminal> = (0..cfg.terminals)
        .map(|i| {
            let mut rng =
                SimRng::seed_from(cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let first = start + rng.exp_us(cfg.mean_think_us);
            Terminal {
                rng,
                t_next: if first > cutoff { NEVER } else { first },
                reason: Wait::Other,
                job: Job::default(),
            }
        })
        .collect();

    loop {
        // Next event: the terminal with the earliest local time (ties break
        // deterministically by terminal id).
        let next = (0..terminals.len()).min_by_key(|&i| (terminals[i].t_next, i));
        let Some(i) = next.filter(|&i| terminals[i].t_next != NEVER) else {
            break;
        };

        // Advance the shared clock to this event, charging any skipped
        // span to whatever this terminal was waiting on. Sampler boundaries
        // split the advance: the clock stops exactly on each boundary, so
        // every interval's ledger delta sums to its span with no remainder.
        let (t_next, reason) = (terminals[i].t_next, terminals[i].reason);
        if let Some(s) = sampler.as_mut() {
            while s.next_at <= t_next {
                // The clock may already sit past the boundary (handlers
                // advance it at message granularity); close at wherever it
                // actually is so the interval delta stays exact.
                let at = s.next_at.max(sim.now());
                sim.clock.advance_to_in(reason, at);
                s.close(sim, &mut out, at);
            }
        }
        sim.clock.advance_to_in(reason, t_next);
        let now = sim.now();

        let client = clients.clients[i];
        if !client.live() && client.phase != Phase::Backoff {
            // An arrival. Draw the transaction, then face the gate.
            out.arrivals += 1;
            let t = &mut terminals[i];
            let aid = zipf.draw(&mut t.rng) as i32;
            let tid = t.rng.below(bank.tellers as u64) as i32;
            // Each transaction performs its three balance updates in its
            // own random order. Real mixed workloads touch resources in
            // inconsistent orders — this is what makes waits-for *cycles*
            // (not just convoys) reachable.
            let mut order = [0usize, 1, 2];
            t.rng.shuffle(&mut order);
            t.job = Job {
                arrival: now,
                admitted: now,
                aid,
                tid,
                bid: tid / 10,
                delta: t.rng.between(-500, 500) as f64,
                order,
            };
            if clients.arrive(db, i) {
                (t.t_next, t.reason) = (now, Wait::Other);
            } else {
                rec.bump(Ctr::AdmissionQueued);
                out.admission_queued += 1;
                t.t_next = NEVER;
            }
            continue;
        }

        // Begin after a backoff, or one FS-DP message of the transaction
        // under a span on this terminal's track (critical-path
        // attribution), or its commit.
        let job = terminals[i].job;
        let send = |fs: &FileSystem, txn, step: usize| {
            let track = format_args!("terminal-{i}");
            let _span = sim.span_root("DEBITCREDIT STEP", &track);
            let actual = *job.order.get(step).unwrap_or(&(DEBIT_CREDIT_STEPS - 1));
            bank.debit_credit_step(fs, txn, actual, job.aid, job.tid, job.bid, job.delta)
        };
        let mut polled = clients.poll(db, fs, i, DEBIT_CREDIT_STEPS, send);
        let client = clients.clients[i];
        if client.phase == Phase::Running && client.step == DEBIT_CREDIT_STEPS {
            // The last message and the commit are one event.
            polled = clients.poll(db, fs, i, DEBIT_CREDIT_STEPS, send);
        }
        let now = sim.now();
        if let Some(j) = polled.admitted {
            // The grant happens at a completion instant, so this charge is
            // normally zero — nonzero only when the gate itself is the
            // critical path.
            let t = &mut terminals[j];
            t.job.admitted = now;
            (t.t_next, t.reason) = (now, Wait::Admission);
        }
        let doomed = matches!(
            polled.rollback,
            Some(Rollback::Doomed(_) | Rollback::CommitRefused)
        );
        out.aborted += u64::from(doomed);
        match &polled.rollback {
            Some(Rollback::Doomed(why)) => out.lock_timeouts += u64::from(why.contains("timeout")),
            Some(Rollback::Request(_) | Rollback::Commit(_)) => out.other_errors += 1,
            Some(Rollback::CommitRefused) | None => {}
        }
        let client = clients.clients[i];
        let t = &mut terminals[i];
        match client.phase {
            Phase::Running => (t.t_next, t.reason) = (now, Wait::Other),
            // Queued behind the holder at the Disk Process: re-poll
            // shortly; FIFO order is kept over there.
            Phase::Waiting => (t.t_next, t.reason) = (now + LOCK_RETRY_US, Wait::Lock),
            Phase::Backoff => {
                if doomed {
                    rec.bump(Ctr::DeadlockRetries);
                    out.deadlock_retries += 1;
                }
                let shift = client.attempt.saturating_sub(1).min(6);
                let backoff = RETRY_BACKOFF_US.saturating_mul(1u64 << shift).max(1);
                (t.t_next, t.reason) = (now + backoff, Wait::Retry);
            }
            Phase::Committed => {
                out.committed += 1;
                out.net_delta += t.job.delta;
                out.latencies_us.push(now.saturating_sub(t.job.arrival));
                out.admission_wait_us += t.job.admitted.saturating_sub(t.job.arrival);
                think_next(t, now, cutoff, cfg);
            }
            Phase::GaveUp => {
                out.gave_up += 1;
                think_next(t, now, cutoff, cfg);
            }
            Phase::Unarrived | Phase::Queued => {
                debug_assert!(false, "a polled client is at the gate or past it");
            }
        }
    }
    debug_assert!(clients.gate.is_empty(), "admission queue drained");
    debug_assert_eq!(clients.inflight, 0, "all slots released");

    // Close the partial interval covering the drain tail, so the series
    // decomposes the whole run: interval spans sum to elapsed_us.
    if let Some(s) = sampler.as_mut() {
        let now = sim.now();
        if now > s.start {
            s.close(sim, &mut out, now);
        }
    }

    out.elapsed_us = sim.now().saturating_sub(start);
    out.latencies_us.sort_unstable();
    out
}

/// Schedule the terminal's next arrival from `now`, or finish it past the
/// cutoff.
fn think_next(t: &mut Terminal, now: u64, cutoff: u64, cfg: &LoadConfig) {
    let at = now.saturating_add(t.rng.exp_us(cfg.mean_think_us));
    (t.t_next, t.reason) = (if at > cutoff { NEVER } else { at }, Wait::Other);
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_core::ClusterBuilder;

    fn hot() -> (Cluster, Bank) {
        hot_bank().expect("bank load")
    }

    #[test]
    fn contended_run_commits_conserves_money_and_resolves_deadlocks() {
        let (db, bank) = hot();
        let initial = bank.total_balance(&db).expect("initial balance");
        let out = run_load(&db, &bank, &LoadConfig::contended(7));
        assert!(out.committed > 10, "outcome {out:?}");
        assert_eq!(out.gave_up, 0, "retry budget never exhausted");
        assert_eq!(out.other_errors, 0, "no chaos in a clean run");
        // Exact conservation: aborted attempts rolled back fully.
        out.check(&db, &bank, initial).unwrap();
        // The hotspot makes real contention: some attempt aborted on a
        // deadlock and was retried to success.
        assert!(out.aborted > 0, "expected doomed attempts under skew");
        assert_eq!(out.deadlock_retries, out.aborted);
    }

    #[test]
    fn same_seed_same_outcome() {
        let (db1, bank1) = hot();
        let (db2, bank2) = hot();
        let a = run_load(&db1, &bank1, &LoadConfig::contended(11));
        let b = run_load(&db2, &bank2, &LoadConfig::contended(11));
        assert_eq!(a, b, "virtual-clock runs are exactly reproducible");
        let c = run_load(&db1, &bank1, &LoadConfig::contended(12));
        assert_ne!(a.latencies_us, c.latencies_us, "seeds matter");
    }

    #[test]
    fn admission_gate_queues_overload_and_everyone_still_finishes() {
        let (db, bank) = hot();
        let cfg = LoadConfig {
            terminals: 12,
            duration_us: 120_000,
            mean_think_us: 600.0, // far beyond saturation
            max_inflight: 2,      // tiny gate
            zipf_theta: 0.5,
            seed: 3,
            ..LoadConfig::default()
        };
        let out = run_load(&db, &bank, &cfg);
        assert!(out.admission_queued > 0, "overload must queue");
        assert!(out.admission_wait_us > 0, "queued txns waited measurably");
        // The gate capped concurrency, so the run drained completely: every
        // arrival committed or exhausted its retries, and the books balance.
        out.check(&db, &bank, bank.opening_total()).unwrap();
    }

    #[test]
    fn sampler_intervals_decompose_the_run_exactly_and_perturb_nothing() {
        let (db1, bank1) = hot();
        let (db2, bank2) = hot();
        let plain = run_load(&db1, &bank1, &LoadConfig::contended(21));
        let sampled = sampled_run(&db2, &bank2);
        // Sampling is a pure observer: the committed history is identical.
        assert_eq!(plain.committed, sampled.committed);
        assert_eq!(plain.latencies_us, sampled.latencies_us);
        assert_eq!(plain.elapsed_us, sampled.elapsed_us);
        assert!(
            sampled.intervals.len() >= 3,
            "{:?}",
            sampled.intervals.len()
        );
        // Intervals tile the run with no gaps, and each one's wait-ledger
        // delta decomposes its span *exactly* — the bottleneck report is
        // the attributed clock itself, windowed.
        sampled.check(&db2, &bank2, bank2.opening_total()).unwrap();
        // Some entity did measurable work in every interval.
        assert!(sampled.intervals.iter().all(|iv| !iv.top_entity.is_empty()));
    }

    #[test]
    fn lock_wait_timeout_dooms_stragglers_when_armed() {
        let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
        // Arm a short lock-wait timeout on every volume.
        db.set_lock_wait_timeout(2_000);
        let bank = Bank::create(&db, 1, 10, "$DATA1").expect("bank load");
        let cfg = LoadConfig {
            terminals: 10,
            duration_us: 120_000,
            mean_think_us: 800.0,
            zipf_theta: 1.2, // brutal hotspot -> convoys
            max_inflight: 8,
            seed: 5,
            ..LoadConfig::default()
        };
        let out = run_load(&db, &bank, &cfg);
        assert!(out.committed > 0);
        assert!(
            out.lock_timeouts > 0,
            "convoy stragglers should time out: {out:?}"
        );
        out.check(&db, &bank, bank.opening_total()).unwrap();
    }

    // The check can fail: each test below alters one thing about a run
    // that checks clean.

    /// The contended cell on `bank`, sampled every 20 ms.
    fn sampled_run(db: &Cluster, bank: &Bank) -> LoadOutcome {
        let cfg = LoadConfig {
            sample_every_us: 20_000,
            ..LoadConfig::contended(21)
        };
        run_load(db, bank, &cfg)
    }

    /// What the check says about a clean sampled run once `alter` has
    /// changed its outcome or its cluster.
    fn altered(alter: impl FnOnce(&Cluster, &Bank, &mut LoadOutcome)) -> String {
        let (db, bank) = hot();
        let mut out = sampled_run(&db, &bank);
        out.check(&db, &bank, bank.opening_total())
            .expect("the run as it happened checks clean");
        alter(&db, &bank, &mut out);
        out.check(&db, &bank, bank.opening_total())
            .expect_err("the altered run")
            .0
    }

    #[test]
    fn check_fails_on_a_vanished_arrival() {
        let why = altered(|_, _, out| out.arrivals += 1);
        assert!(why.contains("an arrival vanished"), "{why}");
    }

    #[test]
    fn check_fails_on_a_balance_off_by_one_delta() {
        // A commit the outcome counts but the accounts never saw.
        let why = altered(|_, _, out| out.net_delta += 250.0);
        assert!(why.contains("money not conserved"), "{why}");
    }

    #[test]
    fn check_fails_on_a_leaked_lock() {
        // A transaction left open holding an account row's lock; its delta
        // is zero, so only the lock plane tells.
        let why = altered(|db, bank, _| {
            let s = db.session();
            let txn = db.txnmgr.begin();
            bank.debit_credit_step(s.fs(), txn, 0, 0, 0, 0, 0.0)
                .expect("update while nothing else runs");
        });
        assert!(why.contains("the lock plane did not drain"), "{why}");
    }

    #[test]
    fn check_fails_on_a_gap_between_intervals() {
        let why = altered(|_, _, out| out.intervals[1].start_us += 1);
        assert!(why.contains("interval 1 is"), "{why}");
    }
}
