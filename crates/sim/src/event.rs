//! The one write path of the telemetry: [`Sim::emit`].
//!
//! A component reports a happening once — `sim.emit(&entity, event)` — and
//! the single `match` below is the only code that knows which counters,
//! which histogram, which trace record and which flight ring that event
//! feeds. A plain count with no other consumer (a cache hit, a record
//! examined) is one `add` on the entity's [`MeasureRecord`] instead.
//!
//! An [`Event`] borrows its labels and names the other entity it involves
//! by its record; owned strings are built only inside the trace recorder's
//! enabled branch, so with tracing off an event allocates nothing.
//! [`TraceEventKind`] is what the enabled branch writes: the record format
//! of the trace stream, read by the renderers and by tests, and constructed
//! nowhere else.

use crate::measure::{Ctr, FlightEntry, MeasureRecord};
use crate::trace::{FaultAction, TraceEventKind, TraceMsgClass};
use crate::{Sim, Window};
use std::borrow::Cow;

/// How a request ended (see [`Event::Msg`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// The server answered, with this many bytes.
    Bytes(u64),
    /// Nothing came back and the requester waited out its timer.
    TimedOut,
    /// The fault plane failed the exchange with a transport error.
    Failed,
}

/// How a lock wait ended (see [`Event::LockWait`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockWaitEnd {
    /// The requester queued and was bounced back to retry.
    Bounced,
    /// The wait budget ran out: the waiter was doomed.
    TimedOut,
    /// The wait closed a waits-for cycle: a victim was doomed.
    Deadlock,
}

/// Something that happened to an entity. The entity is the first argument
/// of [`Sim::emit`]; each variant says which kind it expects.
#[derive(Debug)]
pub enum Event<'a> {
    /// A request to this *process* went on the wire.
    Msg {
        /// The requesting CPU.
        from: &'a MeasureRecord,
        /// Accounting class.
        class: TraceMsgClass,
        /// Request name when known (a paper verb), else empty.
        label: &'static str,
        /// Request bytes on the wire.
        req_bytes: u64,
        /// What came back.
        reply: Reply,
        /// True when the exchange crossed a node boundary.
        remote: bool,
    },
    /// The fault plane perturbed an exchange with this *process*: what it
    /// injected, and the request's name when known (else empty).
    Fault(FaultAction, &'static str),
    /// One I/O was issued on this *volume*.
    DiskIo {
        /// True for writes.
        write: bool,
        /// Blocks transferred (>1 means bulk I/O).
        blocks: u64,
        /// False for asynchronous (write-behind / pre-fetch) transfers.
        synchronous: bool,
    },
    /// A replaced drive of this *volume* was copied back from its mirror:
    /// so many allocated blocks.
    Remirror(u64),
    /// This *cache* evicted so many frames to make room.
    CacheEvict(u64),
    /// This *cache* pre-fetched so many blocks ahead of a scan.
    Prefetch(u64),
    /// The audit-trail *process* wrote its buffer out as one audit write.
    AuditFlush {
        /// The audit volume the write string went to.
        volume: &'a MeasureRecord,
        /// Records in the flushed group.
        records: u64,
        /// Bytes in the flushed group.
        bytes: u64,
        /// Commits made durable by this flush (the commit group).
        commits: u64,
        /// True when forced by a full buffer rather than the commit timer.
        buffer_full: bool,
        /// Bulk writes the string took.
        writes: u64,
        /// Blocks the string transferred.
        blocks: u64,
    },
    /// A crash caught the audit-trail *process* mid-write; the torn tail
    /// was truncated.
    AuditTorn {
        /// Records lost to the torn tail.
        records: u64,
        /// Bytes discarded past the last whole record.
        bytes: u64,
    },
    /// The *transaction manager* committed this transaction.
    TxnCommit(u64),
    /// The *transaction manager* aborted this transaction.
    TxnAbort(u64),
    /// The *transaction manager* doomed this transaction.
    TxnDoomed(u64),
    /// A lock request of this transaction at this Disk *Process* conflicted
    /// and waited; how the wait ended.
    LockWait(u64, LockWaitEnd),
    /// A requester has backed off and is about to retry a request to this
    /// *process* (the requester counts its `retry.backoffs` itself, when it
    /// decides to retry).
    Retry {
        /// Request name being retried.
        label: &'static str,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
        /// Virtual-time backoff charged before this attempt.
        backoff_us: u64,
    },
    /// A requester re-resolved this *process*'s primary.
    PathSwitch {
        /// The requesting CPU.
        from: &'a MeasureRecord,
        /// True when a set operation resumed after its last confirmed key
        /// (the Subset Control Block was rebuilt mid-scan); false when the
        /// request was simply re-sent to the new primary.
        resumed: bool,
    },
    /// This *CPU* finished an FS-DP continuation chain of so many messages
    /// (1 = no re-drive).
    RedriveChain(u64),
    /// Something addressed to this *process* was refused — what and why,
    /// then an LSN or attempt number that identifies the occasion: left in
    /// its flight ring for the postmortem.
    Refused(String, u64),
    /// A statement ended; its closed window is booked on the *cluster*.
    Statement(&'a Window),
}

/// `ios` I/Os that moved `blocks` blocks in all, on `volume`.
fn count_disk_io(volume: &MeasureRecord, write: bool, ios: u64, blocks: u64) {
    let (ops, moved) = if write {
        (Ctr::DiskWrites, Ctr::BlocksWritten)
    } else {
        (Ctr::DiskReads, Ctr::BlocksRead)
    };
    volume.add(ops, ios);
    volume.add(moved, blocks);
    if blocks > 1 {
        volume.add(Ctr::BulkIos, ios);
    }
}

impl Sim {
    /// Report that `event` happened to `entity`, at the current virtual
    /// time. Moves neither the clock nor the simulated execution.
    pub fn emit(&self, entity: &MeasureRecord, event: Event<'_>) {
        let now = self.clock.now();
        let flight = |tag, label, a, b| {
            entity.flight(FlightEntry {
                at: now,
                tag,
                label,
                a,
                b,
            })
        };
        let trace = |make: &dyn Fn() -> TraceEventKind| self.trace.emit(now, make);
        match event {
            Event::Msg {
                from,
                class,
                label,
                req_bytes,
                reply,
                remote,
            } => {
                from.bump(Ctr::MsgsSent);
                from.add(Ctr::BytesSent, req_bytes);
                if remote {
                    from.bump(Ctr::MsgsRemote);
                }
                match class {
                    TraceMsgClass::FsDp => from.bump(Ctr::MsgsFsDp),
                    TraceMsgClass::Redrive => {
                        from.bump(Ctr::MsgsFsDp);
                        from.bump(Ctr::MsgsRedrive);
                    }
                    TraceMsgClass::Audit => from.bump(Ctr::MsgsAudit),
                    TraceMsgClass::Checkpoint => from.bump(Ctr::MsgsCheckpoint),
                    TraceMsgClass::Other => {}
                }
                let Reply::Bytes(reply_bytes) = reply else {
                    entity.bump(Ctr::MsgsLost);
                    if reply == Reply::TimedOut {
                        entity.bump(Ctr::MsgsTimedOut);
                    }
                    return;
                };
                from.add(Ctr::BytesRecv, reply_bytes);
                entity.bump(Ctr::MsgsRecv);
                entity.add(Ctr::BytesRecv, req_bytes);
                entity.add(Ctr::BytesSent, reply_bytes);
                if class == TraceMsgClass::Redrive {
                    entity.bump(Ctr::MsgsRedrive);
                }
                flight("msg", Cow::Borrowed(label), req_bytes, reply_bytes);
                self.hist.msg_bytes.record(req_bytes + reply_bytes);
                trace(&|| TraceEventKind::Msg {
                    class,
                    label: label.to_string(),
                    from: from.name().to_string(),
                    to: entity.name().to_string(),
                    req_bytes,
                    reply_bytes,
                    remote,
                });
            }
            Event::Fault(action, label) => {
                entity.bump(Ctr::FaultsInjected);
                let what = format!("{} {label}", action.tag());
                flight("fault", Cow::Owned(what), 0, 0);
                trace(&|| TraceEventKind::FaultInject {
                    action,
                    label: label.to_string(),
                    to: entity.name().to_string(),
                });
            }
            Event::DiskIo {
                write,
                blocks,
                synchronous,
            } => {
                count_disk_io(entity, write, 1, blocks);
                match (synchronous, write) {
                    (true, _) => {}
                    (false, true) => entity.bump(Ctr::WritebehindWrites),
                    (false, false) => {
                        entity.bump(Ctr::PrefetchIos);
                        entity.add(Ctr::PrefetchReads, blocks);
                    }
                }
                trace(&|| TraceEventKind::DiskIo {
                    volume: entity.name().to_string(),
                    write,
                    blocks,
                    synchronous,
                });
            }
            Event::Remirror(blocks) => {
                entity.add(Ctr::RemirrorBlocks, blocks);
                trace(&|| TraceEventKind::Remirror {
                    volume: entity.name().to_string(),
                    blocks,
                });
            }
            Event::CacheEvict(frames) => {
                entity.add(Ctr::CacheEvicts, frames);
                trace(&|| TraceEventKind::CacheEvict { frames });
            }
            Event::Prefetch(blocks) => {
                entity.add(Ctr::PrefetchReads, blocks);
                trace(&|| TraceEventKind::Prefetch { blocks });
            }
            Event::AuditFlush {
                volume,
                records,
                bytes,
                commits,
                buffer_full,
                writes,
                blocks,
            } => {
                entity.bump(Ctr::AuditFlushes);
                if buffer_full {
                    entity.bump(Ctr::AuditFullFlushes);
                }
                if commits > 0 {
                    entity.add(Ctr::CommitPiggybacks, commits - 1);
                    self.hist.commit_group.record(commits);
                }
                count_disk_io(volume, true, writes, blocks);
                trace(&|| TraceEventKind::AuditFlush {
                    records,
                    bytes,
                    commits,
                    buffer_full,
                });
            }
            Event::AuditTorn { records, bytes } => {
                entity.add(Ctr::RecoveryTorn, records);
                trace(&|| TraceEventKind::AuditTorn { records, bytes });
            }
            Event::TxnCommit(txn) => {
                entity.bump(Ctr::TxnCommits);
                trace(&|| TraceEventKind::TxnCommit { txn });
            }
            Event::TxnAbort(txn) => {
                entity.bump(Ctr::TxnAborts);
                trace(&|| TraceEventKind::TxnAbort { txn });
            }
            Event::TxnDoomed(txn) => {
                entity.bump(Ctr::TxnDoomed);
                flight("doom", Cow::Owned(format!("T{txn}")), txn, 0);
            }
            Event::LockWait(txn, end) => {
                entity.bump(Ctr::LockWaits);
                match end {
                    LockWaitEnd::Bounced => {}
                    LockWaitEnd::TimedOut => entity.bump(Ctr::LockWaitTimeouts),
                    LockWaitEnd::Deadlock => {
                        entity.bump(Ctr::LockDeadlocks);
                        entity.bump(Ctr::DeadlockDetected);
                        entity.bump(Ctr::DeadlockVictims);
                    }
                }
                trace(&|| TraceEventKind::LockWait {
                    txn,
                    deadlock: end == LockWaitEnd::Deadlock,
                });
            }
            Event::Retry {
                label,
                attempt,
                backoff_us,
            } => {
                flight("retry", Cow::Borrowed(label), attempt.into(), backoff_us);
                trace(&|| TraceEventKind::Retry {
                    label: label.to_string(),
                    to: entity.name().to_string(),
                    attempt,
                    backoff_us,
                });
            }
            Event::PathSwitch { from, resumed } => {
                if !resumed {
                    from.bump(Ctr::PathTakeovers);
                }
                trace(&|| TraceEventKind::PathSwitch {
                    to: entity.name().to_string(),
                    resumed,
                });
            }
            Event::RedriveChain(msgs) => self.hist.redrive_chain.record(msgs),
            Event::Refused(what, detail) => flight("error", Cow::Owned(what), detail, 0),
            Event::Statement(window) => {
                self.hist.stmt_latency_us.record(window.elapsed_us);
                for (w, us) in window.wait.iter() {
                    if us > 0 {
                        self.hist.stmt_wait_us[w.index()].record(us);
                        entity.add_stmt_wait(w, us);
                    }
                }
            }
        }
    }
}
