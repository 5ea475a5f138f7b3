//! The audit-trail Disk Process and the per-volume audit sender.
//!
//! "Both SQL and ENSCRIBE share the same TMF audit trail (log), which
//! resides on the audit trail volume, managed by a standard Disk Process.
//! The audit trail writing component ... is highly optimized for long, or
//! *bulk* sequential I/O's using group commit and audit piggy-backing."
//!
//! Model:
//!
//! * Data-volume Disk Processes buffer their audit in a [`VolumeAuditor`]
//!   and ship it in batches (counted `Audit` messages) when the send buffer
//!   fills, at prepare time, or when the write-ahead-log check forces it.
//! * The [`Trail`] appends batches to its write buffer. A commit request
//!   opens (or joins) a **commit group**: the group flushes when its timer
//!   expires or the buffer fills. Every flush is a string of sequential
//!   bulk writes to the (simulated) audit volume.
//! * The group-commit timer is fixed or **adaptive**: adapting the timer to
//!   the observed commit arrival rate is the \[Helland\] mechanism the paper
//!   cites ("timers have been introduced to force out pending commits from
//!   a partially full buffer ... dynamically adjusting the timers based on
//!   such system statistics as transaction rate").
//!
//! The audit volume is modelled inside the trail (append-only storage plus
//! a device busy-timeline) rather than through a `nsql_disk::Disk`: the
//! trail never reads its own blocks during normal operation, and modelling
//! it directly lets flushes be scheduled at their exact group-commit times.
//! Its I/O is counted like any volume's all the same: the trail keeps the
//! `(Volume, $AUDIT)` record and a flush reports its write string there.

use crate::audit::{
    AuditBatch, AuditBody, AuditRecord, Lsn, LsnSource, RecordHeader, AUDIT_HEADER,
};
use nsql_lock::TxnId;
use nsql_msg::{Bus, CpuId, MsgKind, Response, Server};
use nsql_sim::sync::Mutex;
use nsql_sim::{CostModel, Ctr, EntityKind, Event, MeasureRecord, Micros, Sim};
use std::any::Any;
use std::sync::Arc;

/// Conventional process name of the audit-trail Disk Process.
pub const AUDIT_PROCESS: &str = "$AUDIT";

/// Group-commit timer policy.
#[derive(Debug, Clone, Copy)]
pub enum CommitTimer {
    /// Flush a commit group this long after its first commit arrives.
    Fixed(Micros),
    /// Adapt the timer to the observed commit inter-arrival time, aiming
    /// for `target_group` commits per flush, clamped to `[min, max]`.
    Adaptive {
        /// Shortest allowed timer.
        min: Micros,
        /// Longest allowed timer.
        max: Micros,
        /// Desired commits per audit write.
        target_group: u32,
    },
}

impl Default for CommitTimer {
    fn default() -> Self {
        // A sensible 1988 default: 5 ms fixed.
        CommitTimer::Fixed(5_000)
    }
}

/// Requests understood by the audit-trail Disk Process.
#[derive(Debug)]
pub enum TrailRequest {
    /// A batch of audit records from a data-volume Disk Process.
    Append(AuditBatch),
    /// Commit `txn`: append a commit record and group-commit it.
    Commit {
        /// Committing transaction.
        txn: TxnId,
    },
    /// Abort `txn`: append an abort record (lazy; presumed abort).
    Abort {
        /// Aborting transaction.
        txn: TxnId,
    },
}

impl TrailRequest {
    /// Wire size for message accounting.
    pub fn wire_size(&self) -> usize {
        match self {
            TrailRequest::Append(batch) => 8 + batch.size,
            TrailRequest::Commit { .. } | TrailRequest::Abort { .. } => 16,
        }
    }
}

/// Replies from the audit-trail Disk Process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrailReply {
    /// Batch accepted.
    Ok,
    /// Commit record will be durable at `completion` (virtual time).
    Committed {
        /// Virtual time at which the covering audit write completes.
        completion: Micros,
    },
}

/// Bytes a segment of the durable log is allocated with.
const LOG_SEGMENT: usize = 256 << 10;

/// Write-buffer capacity in bytes: one maximal bulk I/O. Reaching it forces
/// a flush (the paper's buffer-full condition).
const BUFFER_CAPACITY: usize = CostModel::BULK_IO_MAX;

/// A pending commit group awaiting its timer.
#[derive(Debug)]
struct PendingGroup {
    flush_at: Micros,
}

/// The most recently issued audit write, kept so a crash can tell whether
/// the device was still mid-transfer (and how far it got).
#[derive(Debug, Clone, Copy)]
struct LastFlush {
    /// When the device started the write string.
    start: Micros,
    /// When the write string completes.
    end: Micros,
    /// Byte offset into the last segment of `durable` where this write's
    /// image starts.
    from: usize,
    /// Records this write carried.
    records: usize,
    /// `durable_lsn` before this write.
    lsn_before: Lsn,
}

#[derive(Debug, Default)]
struct TrailInner {
    /// The durable log as the bytes on the audit volume: every flushed
    /// record's [`AuditRecord::encode`] image, in flush order. Records are
    /// decoded again only for recovery. Kept in segments that are allocated
    /// whole and never grown, so appending never copies what is already
    /// there; one audit write lies within one segment.
    durable: Vec<Vec<u8>>,
    durable_lsn: Lsn,
    /// Unflushed write buffer.
    buffer: AuditBatch,
    buffer_commits: u32,
    group: Option<PendingGroup>,
    /// Audit-volume device timeline.
    disk_busy_until: Micros,
    last_flush: Option<LastFlush>,
    /// Adaptive-timer state: EWMA of commit inter-arrival time.
    last_commit_at: Option<Micros>,
    arrival_ewma_us: f64,
}

/// The audit-trail Disk Process.
pub struct Trail {
    sim: Sim,
    lsns: Arc<LsnSource>,
    timer: CommitTimer,
    inner: Mutex<TrailInner>,
    /// MEASURE record of the audit-trail process.
    rec: Arc<MeasureRecord>,
    /// MEASURE record of the audit volume.
    volume_rec: Arc<MeasureRecord>,
}

impl Trail {
    /// Create a trail with the given timer policy.
    pub fn new(sim: Sim, lsns: Arc<LsnSource>, timer: CommitTimer) -> Arc<Self> {
        let rec = sim.measure.entity(EntityKind::Process, AUDIT_PROCESS);
        let volume_rec = sim.measure.entity(EntityKind::Volume, AUDIT_PROCESS);
        Arc::new(Trail {
            sim,
            lsns,
            timer,
            inner: Mutex::new(TrailInner::default()),
            rec,
            volume_rec,
        })
    }

    /// Highest LSN durably on disk as of virtual `now` (settles any group
    /// whose flush time has passed). This is the write-ahead-log watermark.
    pub fn durable_lsn(&self, now: Micros) -> Lsn {
        let mut inner = self.inner.lock();
        self.settle(&mut inner, now);
        inner.durable_lsn
    }

    /// Force the trail durable up to at least `lsn` (write-ahead-log
    /// enforcement before a data page steal/write-behind). Returns the
    /// completion time of the covering flush.
    pub fn force_up_to(&self, lsn: Lsn, now: Micros) -> Micros {
        let mut inner = self.inner.lock();
        self.settle(&mut inner, now);
        if inner.durable_lsn >= lsn || inner.buffer.records == 0 {
            return now;
        }
        self.flush(&mut inner, now, false)
    }

    /// All durably flushed records (for recovery).
    pub fn durable_records(&self, now: Micros) -> Vec<AuditRecord> {
        let mut inner = self.inner.lock();
        self.settle(&mut inner, now);
        let segments = inner.durable.iter();
        segments
            .flat_map(|s| crate::audit::scan_tail(s).0)
            .collect()
    }

    /// Simulate a crash of the whole system at the current virtual time.
    ///
    /// Unflushed (buffered) audit is lost outright. If an audit write was
    /// still in flight on the device, its tail is **torn**: the byte image
    /// of that write is cut at the deterministic fraction of the transfer
    /// window that had elapsed, then scanned ([`crate::audit::scan_tail`]) —
    /// whole checksum-verified records before the cut survive as durable,
    /// the partial/unverifiable suffix is truncated from the trail. Returns
    /// the number of records lost to the torn tail.
    pub fn crash(&self) -> usize {
        let now = self.sim.now();
        let mut inner = self.inner.lock();
        self.settle(&mut inner, now);
        let inner = &mut *inner;
        inner.buffer.clear();
        inner.buffer_commits = 0;
        inner.group = None;

        let mut torn = 0usize;
        if let (Some(lf), Some(log)) = (inner.last_flush.take(), inner.durable.last_mut()) {
            if lf.end > now {
                // The write string was mid-transfer: cut the byte image it
                // was writing where the device stopped.
                let image = &log[lf.from..];
                let written = if now <= lf.start {
                    0
                } else {
                    (image.len() as u64 * (now - lf.start) / (lf.end - lf.start)) as usize
                };
                let (whole, torn_bytes) = crate::audit::scan_tail(&image[..written]);
                torn = lf.records - whole.len();
                inner.durable_lsn = whole.iter().map(|r| r.lsn).fold(lf.lsn_before, Lsn::max);
                log.truncate(lf.from + written - torn_bytes);
                if torn > 0 {
                    let tail = Event::AuditTorn {
                        records: torn as u64,
                        bytes: torn_bytes as u64,
                    };
                    self.sim.emit(&self.rec, tail);
                }
            }
        }
        // The device abandons the write string; it is idle after restart.
        inner.disk_busy_until = now;
        torn
    }

    /// The sequential bulk-write string needed for `bytes`: its blocks, its
    /// writes, its duration.
    fn flush_string(&self, bytes: usize) -> (usize, usize, Micros) {
        let blocks = bytes.div_ceil(CostModel::BLOCK_SIZE).max(1);
        let (writes, duration) = self.sim.cost.bulk_string(blocks);
        (blocks, writes, duration)
    }

    /// Flush the buffer as one audit write, starting no earlier than `at`.
    /// Returns the completion time.
    fn flush(&self, inner: &mut TrailInner, at: Micros, buffer_full: bool) -> Micros {
        let bytes = inner.buffer.size;
        let (blocks, writes, duration) = self.flush_string(bytes);
        let flush = Event::AuditFlush {
            volume: &self.volume_rec,
            records: inner.buffer.records as u64,
            bytes: bytes as u64,
            commits: inner.buffer_commits as u64,
            buffer_full,
            writes: writes as u64,
            blocks: blocks as u64,
        };
        self.sim.emit(&self.rec, flush);

        let start = inner.disk_busy_until.max(at);
        let end = start + duration;
        inner.disk_busy_until = end;
        let image = &inner.buffer.bytes;
        let room = |log: &Vec<u8>| log.capacity() - log.len();
        if inner.durable.last().map_or(0, room) < image.len() {
            let segment = Vec::with_capacity(LOG_SEGMENT.max(image.len()));
            inner.durable.push(segment);
        }
        if let Some(log) = inner.durable.last_mut() {
            inner.last_flush = Some(LastFlush {
                start,
                end,
                from: log.len(),
                records: inner.buffer.records,
                lsn_before: inner.durable_lsn,
            });
            log.extend_from_slice(image);
        }

        inner.durable_lsn = inner.durable_lsn.max(inner.buffer.last_lsn);
        inner.buffer.clear();
        inner.buffer_commits = 0;
        inner.group = None;
        end
    }

    /// Flush any pending group whose timer has expired by `now`.
    fn settle(&self, inner: &mut TrailInner, now: Micros) {
        if let Some(g) = &inner.group {
            if g.flush_at <= now {
                let at = g.flush_at;
                self.flush(inner, at, false);
            }
        }
    }

    /// Current timer interval given adaptive state.
    fn timer_interval(&self, inner: &TrailInner) -> Micros {
        match self.timer {
            CommitTimer::Fixed(us) => us,
            CommitTimer::Adaptive {
                min,
                max,
                target_group,
            } => {
                if inner.arrival_ewma_us <= 0.0 {
                    return max; // no rate info yet: wait for a group
                }
                let want = inner.arrival_ewma_us * target_group as f64;
                (want as Micros).clamp(min, max)
            }
        }
    }

    /// The buffer-full condition, checked after every append.
    fn flush_if_full(&self, inner: &mut TrailInner, now: Micros) {
        if inner.buffer.size >= BUFFER_CAPACITY {
            self.flush(inner, now, true);
        }
    }

    /// Buffer the trail's own record of how `txn` ended.
    fn append_outcome(&self, inner: &mut TrailInner, txn: TxnId, body: AuditBody, now: Micros) {
        self.rec.bump(Ctr::AuditRecords);
        self.rec.add(Ctr::AuditBytes, AUDIT_HEADER as u64);
        let header = RecordHeader {
            lsn: self.lsns.next(),
            txn,
            volume: "",
            file: 0,
        };
        inner.buffer.push(header, &body);
        self.flush_if_full(inner, now);
    }

    /// Core request handling (also callable without a message for tests).
    pub fn apply(&self, req: TrailRequest) -> TrailReply {
        let now = self.sim.now();
        let mut inner = self.inner.lock();
        self.settle(&mut inner, now);
        match req {
            TrailRequest::Append(batch) => {
                inner.buffer.append(batch);
                self.flush_if_full(&mut inner, now);
                TrailReply::Ok
            }
            TrailRequest::Commit { txn } => {
                // Adaptive-timer statistics.
                if let Some(last) = inner.last_commit_at {
                    let delta = now.saturating_sub(last) as f64;
                    inner.arrival_ewma_us = if inner.arrival_ewma_us <= 0.0 {
                        delta
                    } else {
                        0.8 * inner.arrival_ewma_us + 0.2 * delta
                    };
                }
                inner.last_commit_at = Some(now);

                inner.buffer_commits += 1;
                self.append_outcome(&mut inner, txn, AuditBody::Commit, now);
                // The append may have flushed on buffer-full; if so the
                // commit is already durable.
                if inner.buffer.records == 0 {
                    return TrailReply::Committed {
                        completion: inner.disk_busy_until,
                    };
                }
                let completion = match &inner.group {
                    // Piggy-back on the pending group (counted at flush).
                    Some(g) => g.flush_at,
                    None => {
                        let flush_at = now + self.timer_interval(&inner);
                        inner.group = Some(PendingGroup { flush_at });
                        flush_at
                    }
                };
                let completion =
                    completion.max(inner.disk_busy_until) + self.flush_string(inner.buffer.size).2;
                TrailReply::Committed { completion }
            }
            TrailRequest::Abort { txn } => {
                self.append_outcome(&mut inner, txn, AuditBody::Abort, now);
                TrailReply::Ok
            }
        }
    }
}

impl Server for Trail {
    fn handle(&self, request: Box<dyn Any + Send>) -> Response {
        let req = *request
            .downcast::<TrailRequest>()
            .expect("audit trail got a non-TrailRequest message");
        let reply = self.apply(req);
        Response::new(reply, 16)
    }
}

/// Per-volume audit sender, owned by a data-volume Disk Process.
///
/// Buffers audit records and ships them to [`AUDIT_PROCESS`] in batches —
/// field compression makes SQL batches smaller, so the buffer fills (and a
/// message is sent) less often.
pub struct VolumeAuditor {
    bus: Arc<Bus>,
    cpu: CpuId,
    /// Volume name stamped into records.
    pub volume: String,
    lsns: Arc<LsnSource>,
    /// Send the buffer once it holds at least this many bytes.
    send_threshold: std::sync::atomic::AtomicUsize,
    buf: Mutex<AuditBatch>,
    /// MEASURE record of the owning Disk Process (audit generation is
    /// charged to the data volume's process, not the trail).
    rec: Arc<MeasureRecord>,
}

impl VolumeAuditor {
    /// Create an auditor for `volume`, homed on `cpu`.
    pub fn new(bus: Arc<Bus>, cpu: CpuId, volume: impl Into<String>, lsns: Arc<LsnSource>) -> Self {
        let volume = volume.into();
        let rec = bus.sim().measure.entity(EntityKind::Process, &volume);
        VolumeAuditor {
            bus,
            cpu,
            volume,
            lsns,
            send_threshold: std::sync::atomic::AtomicUsize::new(4096),
            buf: Mutex::new(AuditBatch::default()),
            rec,
        }
    }

    /// Change the send-buffer threshold (ablation experiments).
    pub fn set_send_threshold(&self, bytes: usize) {
        self.send_threshold
            .store(bytes, std::sync::atomic::Ordering::Relaxed);
    }

    /// Append an audit record for (`txn`, `file`); ships the buffer if the
    /// threshold is reached. Returns the record's LSN (for WAL page
    /// tagging).
    pub fn log(&self, txn: TxnId, file: u32, body: &AuditBody) -> Lsn {
        let lsn = self.lsns.next();
        let header = RecordHeader {
            lsn,
            txn,
            volume: &self.volume,
            file,
        };
        let size = header.size(body) as u64;
        self.rec.bump(Ctr::AuditRecords);
        self.rec.add(Ctr::AuditBytes, size);
        let should_send = {
            let mut b = self.buf.lock();
            b.push(header, body);
            b.size
                >= self
                    .send_threshold
                    .load(std::sync::atomic::Ordering::Relaxed)
        };
        if should_send {
            self.send();
        }
        lsn
    }

    /// Ship all buffered records to the audit-trail Disk Process.
    pub fn send(&self) {
        let batch = std::mem::take(&mut *self.buf.lock());
        if batch.records == 0 {
            return;
        }
        let req = TrailRequest::Append(batch);
        let size = req.wire_size();
        let _ack = self
            .bus
            .request(self.cpu, AUDIT_PROCESS, MsgKind::Audit, size, Box::new(req))
            .expect("audit trail process unreachable")
            .downcast::<TrailReply>()
            .expect("audit trail reply type");
    }

    /// Number of bytes currently buffered (tests).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.lock().size
    }

    /// Simulate losing this volume's in-memory audit buffer in a crash.
    pub fn crash(&self) {
        *self.buf.lock() = AuditBatch::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditRecord;
    use nsql_records::Value;

    fn append(records: &[AuditRecord]) -> TrailRequest {
        let mut batch = AuditBatch::default();
        for r in records {
            batch.push(r.header(), &r.body);
        }
        TrailRequest::Append(batch)
    }

    fn setup(timer: CommitTimer) -> (Sim, Arc<Bus>, Arc<Trail>, Arc<LsnSource>) {
        let sim = Sim::new();
        let bus = Bus::new(sim.clone());
        let lsns = LsnSource::new();
        let trail = Trail::new(sim.clone(), Arc::clone(&lsns), timer);
        bus.register(AUDIT_PROCESS, CpuId::new(0, 0), trail.clone());
        (sim, bus, trail, lsns)
    }

    fn update_body(nbytes: usize) -> AuditBody {
        AuditBody::UpdateFull {
            key: vec![0u8; 8],
            before: vec![0u8; nbytes / 2],
            after: vec![1u8; nbytes / 2],
        }
    }

    #[test]
    fn commit_becomes_durable_after_timer() {
        let (sim, _bus, trail, _lsns) = setup(CommitTimer::Fixed(5_000));
        let reply = trail.apply(TrailRequest::Commit { txn: TxnId(1) });
        let TrailReply::Committed { completion } = reply else {
            panic!("expected Committed");
        };
        assert!(completion >= sim.now() + 5_000);
        // Not durable yet...
        assert_eq!(trail.durable_lsn(sim.now()), 0);
        // ... durable once the flush time passes.
        sim.clock.advance_to(completion);
        assert!(trail.durable_lsn(sim.now()) >= 1);
        assert_eq!(sim.metrics.snapshot().audit_flushes, 1);
    }

    #[test]
    fn commits_within_timer_share_one_flush() {
        let (sim, _bus, trail, _lsns) = setup(CommitTimer::Fixed(10_000));
        trail.apply(TrailRequest::Commit { txn: TxnId(1) });
        sim.clock.advance(1_000);
        trail.apply(TrailRequest::Commit { txn: TxnId(2) });
        sim.clock.advance(1_000);
        trail.apply(TrailRequest::Commit { txn: TxnId(3) });
        sim.clock.advance(20_000);
        trail.durable_lsn(sim.now()); // settle
        assert_eq!(sim.metrics.snapshot().audit_flushes, 1, "one group flush");
        assert_eq!(sim.metrics.snapshot().group_commit_piggybacks, 2);
    }

    #[test]
    fn spaced_commits_flush_separately() {
        let (sim, _bus, trail, _lsns) = setup(CommitTimer::Fixed(1_000));
        for t in 1..=3u64 {
            trail.apply(TrailRequest::Commit { txn: TxnId(t) });
            sim.clock.advance(50_000);
        }
        trail.durable_lsn(sim.now());
        assert_eq!(sim.metrics.snapshot().audit_flushes, 3);
        assert_eq!(sim.metrics.snapshot().group_commit_piggybacks, 0);
    }

    #[test]
    fn buffer_full_forces_flush() {
        let (sim, _bus, trail, lsns) = setup(CommitTimer::Fixed(1_000_000));
        // Stuff the buffer past 28 KB without any commit.
        let mut pushed = 0usize;
        while pushed < BUFFER_CAPACITY {
            let body = update_body(2_000);
            let rec = AuditRecord {
                lsn: lsns.next(),
                txn: TxnId(1),
                volume: "$DATA1".into(),
                file: 0,
                body,
            };
            pushed += rec.size();
            trail.apply(append(&[rec]));
        }
        assert_eq!(sim.metrics.snapshot().audit_buffer_full_flushes, 1);
        assert!(trail.durable_lsn(sim.now()) > 0);
    }

    #[test]
    fn force_up_to_flushes_immediately() {
        let (sim, _bus, trail, lsns) = setup(CommitTimer::Fixed(1_000_000));
        let lsn = lsns.next();
        trail.apply(append(&[AuditRecord {
            lsn,
            txn: TxnId(1),
            volume: "$D".into(),
            file: 0,
            body: update_body(100),
        }]));
        assert!(trail.durable_lsn(sim.now()) < lsn);
        let done = trail.force_up_to(lsn, sim.now());
        assert!(done >= sim.now());
        assert!(trail.durable_lsn(done) >= lsn);
    }

    #[test]
    fn adaptive_timer_tracks_arrival_rate() {
        let (sim, _bus, trail, _lsns) = setup(CommitTimer::Adaptive {
            min: 500,
            max: 50_000,
            target_group: 4,
        });
        // Fast arrivals: ~1 ms apart -> timer should end up well under max,
        // grouping several commits per flush.
        for t in 1..=40u64 {
            trail.apply(TrailRequest::Commit { txn: TxnId(t) });
            sim.clock.advance(1_000);
        }
        sim.clock.advance(100_000);
        trail.durable_lsn(sim.now());
        let flushes = sim.metrics.snapshot().audit_flushes;
        assert!(
            flushes < 40,
            "adaptive timer should group fast commits ({flushes} flushes for 40 commits)"
        );
        assert!(sim.metrics.snapshot().group_commit_piggybacks > 0);
    }

    #[test]
    fn crash_loses_unflushed_only() {
        let (sim, _bus, trail, lsns) = setup(CommitTimer::Fixed(5_000));
        // Make one record durable.
        let l1 = lsns.next();
        trail.apply(append(&[AuditRecord {
            lsn: l1,
            txn: TxnId(1),
            volume: "$D".into(),
            file: 0,
            body: update_body(50),
        }]));
        let done = trail.force_up_to(l1, sim.now());
        // Wait out the forced write so it is physically complete.
        sim.clock.advance_to(done);
        // Buffer another, then crash before flushing.
        let l2 = lsns.next();
        trail.apply(append(&[AuditRecord {
            lsn: l2,
            txn: TxnId(2),
            volume: "$D".into(),
            file: 0,
            body: update_body(50),
        }]));
        trail.crash();
        let recs = trail.durable_records(sim.now());
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].lsn, l1);
    }

    #[test]
    fn auditor_batches_until_threshold() {
        let (sim, bus, _trail, lsns) = setup(CommitTimer::Fixed(5_000));
        let auditor = VolumeAuditor::new(Arc::clone(&bus), CpuId::new(0, 1), "$DATA1", lsns);
        // Small field-compressed updates: many records per send.
        let body = || AuditBody::UpdateFields {
            key: vec![0u8; 8],
            before: vec![(3, Value::Double(1.0))],
            after: vec![(3, Value::Double(1.07))],
        };
        let mut sent_before = sim.metrics.snapshot().msgs_audit;
        assert_eq!(sent_before, 0);
        let mut logged = 0;
        while sim.metrics.snapshot().msgs_audit == sent_before {
            auditor.log(TxnId(1), 0, &body());
            logged += 1;
            assert!(logged < 1000, "send threshold never reached");
        }
        assert!(
            logged > 20,
            "field-compressed records should batch heavily (got {logged})"
        );
        // Full-image updates fill the buffer much faster.
        sent_before = sim.metrics.snapshot().msgs_audit;
        let mut logged_full = 0;
        while sim.metrics.snapshot().msgs_audit == sent_before {
            auditor.log(TxnId(1), 0, &update_body(200));
            logged_full += 1;
        }
        assert!(
            logged_full < logged / 2,
            "full images ({logged_full}/send) must batch worse than field images ({logged}/send)"
        );
    }

    #[test]
    fn auditor_send_flushes_residue() {
        let (sim, bus, trail, lsns) = setup(CommitTimer::Fixed(5_000));
        let auditor = VolumeAuditor::new(Arc::clone(&bus), CpuId::new(0, 1), "$DATA1", lsns);
        let lsn = auditor.log(
            TxnId(7),
            2,
            &AuditBody::Insert {
                key: vec![1, 2],
                record: vec![3, 4, 5],
            },
        );
        assert!(auditor.buffered_bytes() > 0);
        auditor.send();
        assert_eq!(auditor.buffered_bytes(), 0);
        trail.force_up_to(lsn, sim.now());
        let recs = trail.durable_records(sim.now());
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].txn, TxnId(7));
        assert_eq!(recs[0].file, 2);
    }

    #[test]
    fn crash_mid_flush_tears_the_tail() {
        let (sim, _bus, trail, lsns) = setup(CommitTimer::Fixed(1_000));
        // Buffer several records, then let the group flush start but crash
        // before the write string completes: the tail must be torn back to
        // a whole-record boundary, never replayed partially.
        let mut all = Vec::new();
        for _ in 0..6 {
            let lsn = lsns.next();
            all.push(lsn);
            trail.apply(append(&[AuditRecord {
                lsn,
                txn: TxnId(1),
                volume: "$D".into(),
                file: 0,
                body: update_body(500),
            }]));
        }
        trail.apply(TrailRequest::Commit { txn: TxnId(1) });
        // Advance just past the group timer so the flush *starts*, but not
        // far enough for the multi-microsecond transfer to finish.
        sim.clock.advance(1_001);
        let torn = trail.crash();
        assert!(torn > 0, "crash mid-transfer must tear records");
        let recs = trail.durable_records(sim.now());
        assert!(
            recs.len() < all.len() + 1,
            "the torn suffix must be truncated"
        );
        // Whatever survived is a strict LSN-prefix of what was written.
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.lsn, all[i], "survivors must be the written prefix");
        }
        assert_eq!(
            sim.measure
                .entity(EntityKind::Process, AUDIT_PROCESS)
                .get(Ctr::RecoveryTorn),
            torn as u64
        );
    }

    #[test]
    fn torn_tail_keeps_earlier_flushes_and_their_lsn() {
        let (sim, _bus, trail, lsns) = setup(CommitTimer::Fixed(1_000));
        let rec = |lsn| AuditRecord {
            lsn,
            txn: TxnId(1),
            volume: "$D".into(),
            file: 0,
            body: update_body(500),
        };
        // A first flush that completes...
        let first = lsns.next();
        trail.apply(append(&[rec(first)]));
        let done = trail.force_up_to(first, sim.now());
        sim.clock.advance_to(done);
        // ... then a second one the crash catches mid-transfer.
        let later: Vec<Lsn> = (0..6).map(|_| lsns.next()).collect();
        let later_records: Vec<AuditRecord> = later.iter().map(|&l| rec(l)).collect();
        trail.apply(append(&later_records));
        trail.apply(TrailRequest::Commit { txn: TxnId(1) });
        sim.clock.advance(1_001);
        let torn = trail.crash();
        assert!(torn > 0 && torn <= later.len() + 1);
        let recs = trail.durable_records(sim.now());
        assert_eq!(recs.len(), 1 + later.len() + 1 - torn);
        assert_eq!(recs[0], rec(first), "the completed flush is untouched");
        let top = recs.iter().map(|r| r.lsn).max().unwrap_or(0);
        assert_eq!(trail.durable_lsn(sim.now()), top);
    }

    #[test]
    fn crash_before_flush_start_loses_the_whole_write() {
        let (sim, _bus, trail, _lsns) = setup(CommitTimer::Fixed(5_000));
        trail.apply(TrailRequest::Commit { txn: TxnId(1) });
        // Crash while the group is still pending: the device never started,
        // so nothing of the group survives and nothing is "torn" (clean
        // in-memory loss).
        let torn = trail.crash();
        assert_eq!(torn, 0);
        assert!(trail.durable_records(sim.now()).is_empty());
        assert_eq!(trail.durable_lsn(sim.now()), 0);
    }

    #[test]
    fn crash_after_flush_completion_loses_nothing() {
        let (sim, _bus, trail, _lsns) = setup(CommitTimer::Fixed(1_000));
        let TrailReply::Committed { completion } =
            trail.apply(TrailRequest::Commit { txn: TxnId(1) })
        else {
            panic!("expected Committed");
        };
        sim.clock.advance_to(completion);
        let torn = trail.crash();
        assert_eq!(torn, 0);
        let recs = trail.durable_records(sim.now());
        assert_eq!(recs.len(), 1, "completed flush must survive the crash");
        assert_eq!(recs[0].txn, TxnId(1));
    }
}
