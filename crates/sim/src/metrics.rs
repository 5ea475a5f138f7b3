//! Cluster totals: the counters the paper's evaluation is expressed in.
//!
//! There is one counter store — the per-entity records of
//! [`crate::measure`] — and a cluster total is *defined* as a sum over the
//! entities of one kind. The `totals!` table below is that definition
//! ([`TOTALS`] exports it), so a total cannot disagree with its entities and
//! nothing bumps a total by name. [`Metrics`] is the view that computes a
//! [`MetricsSnapshot`]; experiments take one before and after a workload
//! and subtract.

use crate::measure::{Ctr, EntityKind, MeasureRegistry, MeasureSnapshot};
use std::fmt;
use std::sync::Arc;

/// The cluster totals of one simulation, computed from its entity records.
#[derive(Debug, Clone)]
pub struct Metrics {
    measure: Arc<MeasureRegistry>,
}

impl Metrics {
    pub(crate) fn new(measure: Arc<MeasureRegistry>) -> Self {
        Metrics { measure }
    }

    /// Sum every total from the entity counters as they stand.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::from(&self.measure.snapshot(0))
    }
}

macro_rules! totals {
    ($($(#[doc = $doc:literal])+ $name:ident = $kind:ident: $ctr:ident $(+ $more:ident)*;)+) => {
        /// Every cluster total at one instant (or, subtracted, over a
        /// window).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[doc = $doc])+ pub $name: u64,)+
        }

        /// The definition of every cluster total, in declaration order:
        /// `(total, entity kind, counters summed over that kind)`.
        pub const TOTALS: &[(&str, EntityKind, &[Ctr])] = &[
            $((stringify!($name), EntityKind::$kind, &[Ctr::$ctr $(, Ctr::$more)*]),)+
        ];

        impl From<&MeasureSnapshot> for MetricsSnapshot {
            /// Sum the totals of a counter snapshot (or of a delta: the sums
            /// are linear).
            fn from(entities: &MeasureSnapshot) -> MetricsSnapshot {
                let sums = entities.sums_by_kind();
                let sum = |kind: EntityKind, c: Ctr| sums[kind as usize][c as usize];
                MetricsSnapshot {
                    $($name: sum(EntityKind::$kind, Ctr::$ctr)
                        $(+ sum(EntityKind::$kind, Ctr::$more))*,)+
                }
            }
        }

        impl MetricsSnapshot {
            /// Iterate (name, value) pairs, in declaration order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
                [$((stringify!($name), self.$name),)+].into_iter()
            }
        }

        impl std::ops::Sub for MetricsSnapshot {
            type Output = MetricsSnapshot;
            /// Saturates at zero, so out-of-order snapshots report 0 rather
            /// than panicking.
            fn sub(self, rhs: MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.saturating_sub(rhs.$name),)+
                }
            }
        }

        impl fmt::Display for MetricsSnapshot {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                for (name, value) in self.iter() {
                    if value != 0 {
                        writeln!(f, "  {name:<28} {value}")?;
                    }
                }
                Ok(())
            }
        }
    };
}

totals! {
    /// Total request/reply message exchanges over the message system.
    msgs_total = Cpu: MsgsSent;
    /// Message exchanges that crossed a node boundary.
    msgs_remote = Cpu: MsgsRemote;
    /// Total bytes carried by messages (requests + replies).
    msg_bytes_total = Cpu: BytesSent + BytesRecv;
    /// FS-DP interface messages (the paper's headline metric).
    msgs_fs_dp = Cpu: MsgsFsDp;
    /// Audit messages from data-volume DPs to the audit-trail DP.
    msgs_audit = Cpu: MsgsAudit;
    /// Continuation re-drive messages (GET^NEXT / UPDATE^SUBSET^NEXT ...).
    msgs_redrive = Cpu: MsgsRedrive;
    /// Disk read operations issued.
    disk_reads = Volume: DiskReads;
    /// Disk write operations issued (the audit volume's included).
    disk_writes = Volume: DiskWrites;
    /// Blocks transferred by disk reads.
    disk_blocks_read = Volume: BlocksRead;
    /// Blocks transferred by disk writes.
    disk_blocks_written = Volume: BlocksWritten;
    /// Disk I/Os that transferred more than one block (bulk I/O).
    disk_bulk_ios = Volume: BulkIos;
    /// Buffer-pool lookups that hit.
    cache_hits = Cache: CacheHits;
    /// Buffer-pool lookups that missed and required a disk read.
    cache_misses = Cache: CacheFaults;
    /// Bulk reads issued by the pre-fetcher (I/Os; the blocks they carried
    /// are the entities' `prefetch.reads`).
    prefetch_reads = Volume: PrefetchIos;
    /// Cache hits satisfied from a pre-fetched block.
    prefetch_hits = Cache: PrefetchHits;
    /// Dirty-string writes issued by the write-behind mechanism.
    writebehind_writes = Volume: WritebehindWrites;
    /// Buffers evicted for room or stolen by the memory-pressure handshake.
    cache_steals = Cache: CacheEvicts;
    /// Audit records generated.
    audit_records = Process: AuditRecords;
    /// Total audit bytes generated.
    audit_bytes = Process: AuditBytes;
    /// Audit-trail disk writes (group-commit flushes).
    audit_flushes = Process: AuditFlushes;
    /// Audit flushes triggered by a buffer-full condition.
    audit_buffer_full_flushes = Process: AuditFullFlushes;
    /// Transactions committed.
    txns_committed = Txn: TxnCommits;
    /// Transactions aborted.
    txns_aborted = Txn: TxnAborts;
    /// Transactions whose commit rode an audit write shared with others.
    group_commit_piggybacks = Process: CommitPiggybacks;
    /// Lock requests that had to wait.
    lock_waits = Process: LockWaits;
    /// Deadlocks detected (victim aborted).
    deadlocks = Process: LockDeadlocks;
    /// CPU work units accounted to the SQL executor / application layer.
    cpu_executor = Cluster: CpuExecutor;
    /// CPU work units accounted to the File System.
    cpu_fs = Cluster: CpuFs;
    /// CPU work units accounted to the Disk Process.
    cpu_dp = Cluster: CpuDp;
    /// Records a Disk Process read request looked at, whichever verb.
    dp_records_examined = File: RecsExamined;
    /// Records selected (passed the DP filter).
    dp_records_selected = File: RecsSelected;
    /// Subset Control Blocks created.
    subset_control_blocks = Scb: ScbCreated;
    /// Rows returned to the application.
    rows_returned = Cluster: RowsReturned;
    /// Message faults injected by the fault plane (drop/dup/delay/error).
    faults_injected = Process: FaultsInjected;
    /// Requests that surfaced a virtual-time timeout to the requester.
    msgs_timed_out = Process: MsgsTimedOut;
    /// File System retries after a timeout or down path.
    fs_retries = Cpu: RetryBackoffs;
    /// Primary re-resolutions (backup takeover observed by a requester).
    path_switches = Cpu: PathTakeovers;
    /// Duplicate requests suppressed by the Disk Process sync-ID cache.
    dp_dup_suppressed = Process: DupSuppressed;
    /// Statement virtual time attributed to CPU service (wait.cpu).
    stmt_wait_cpu_us = Cluster: StmtWaitCpu;
    /// Statement virtual time attributed to the message system (wait.msg).
    stmt_wait_msg_us = Cluster: StmtWaitMsg;
    /// Statement virtual time attributed to disk I/O (wait.disk).
    stmt_wait_disk_us = Cluster: StmtWaitDisk;
    /// Statement virtual time attributed to lock waits (wait.lock).
    stmt_wait_lock_us = Cluster: StmtWaitLock;
    /// Statement virtual time attributed to group-commit waits (wait.commit).
    stmt_wait_commit_us = Cluster: StmtWaitCommit;
    /// Statement virtual time attributed to retry backoff (wait.retry).
    stmt_wait_retry_us = Cluster: StmtWaitRetry;
    /// Statement virtual time attributed to crash recovery (wait.restart).
    stmt_wait_restart_us = Cluster: StmtWaitRestart;
    /// Statement virtual time attributed to admission queueing (wait.admission).
    stmt_wait_admission_us = Cluster: StmtWaitAdmission;
    /// Statement virtual time left unattributed (wait.other; normally 0).
    stmt_wait_other_us = Cluster: StmtWaitOther;
}

impl MetricsSnapshot {
    /// Per-category statement-wait totals in [`crate::clock::WAIT_CATEGORIES`]
    /// order (a [`crate::clock::WaitProfile`] reassembled from the counters).
    pub fn stmt_wait(&self) -> crate::clock::WaitProfile {
        crate::clock::WaitProfile {
            us: [
                self.stmt_wait_cpu_us,
                self.stmt_wait_msg_us,
                self.stmt_wait_disk_us,
                self.stmt_wait_lock_us,
                self.stmt_wait_commit_us,
                self.stmt_wait_retry_us,
                self.stmt_wait_restart_us,
                self.stmt_wait_admission_us,
                self.stmt_wait_other_us,
            ],
        }
    }

    /// Fraction of buffer-pool lookups that hit, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Mean bytes carried per message exchange (request + reply).
    pub fn mean_bytes_per_message(&self) -> f64 {
        if self.msgs_total == 0 {
            0.0
        } else {
            self.msg_bytes_total as f64 / self.msgs_total as f64
        }
    }

    /// Audit bytes generated per committed transaction.
    pub fn audit_bytes_per_txn(&self) -> f64 {
        if self.txns_committed == 0 {
            0.0
        } else {
            self.audit_bytes as f64 / self.txns_committed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> (Arc<MeasureRegistry>, Metrics) {
        let reg = Arc::new(MeasureRegistry::new());
        (Arc::clone(&reg), Metrics::new(reg))
    }

    #[test]
    fn snapshot_delta() {
        let (reg, m) = registry();
        reg.entity(EntityKind::Cpu, "\\0.0").add(Ctr::MsgsSent, 5);
        let before = m.snapshot();
        reg.entity(EntityKind::Cpu, "\\0.1").add(Ctr::MsgsSent, 3);
        reg.entity(EntityKind::Volume, "$DATA1")
            .bump(Ctr::DiskReads);
        // The same counter on another kind is another quantity.
        reg.entity(EntityKind::Process, "$DATA1")
            .add(Ctr::MsgsSent, 99);
        let delta = m.snapshot() - before;
        assert_eq!(delta.msgs_total, 3);
        assert_eq!(delta.disk_reads, 1);
        assert_eq!(delta.disk_writes, 0);
        assert_eq!(m.snapshot().msgs_total, 8);
        // A total may sum several counters.
        let cpu = reg.entity(EntityKind::Cpu, "\\0.0");
        cpu.add(Ctr::BytesSent, 100);
        cpu.add(Ctr::BytesRecv, 8);
        assert_eq!(m.snapshot().msg_bytes_total, 108);
    }

    #[test]
    fn the_table_names_every_field_once_in_order() {
        let names: Vec<&str> = TOTALS.iter().map(|(n, _, _)| *n).collect();
        let fields: Vec<&str> = MetricsSnapshot::default().iter().map(|(n, _)| n).collect();
        assert_eq!(names, fields);
    }

    #[test]
    fn sub_saturates_on_out_of_order_snapshots() {
        let later = MetricsSnapshot {
            msgs_total: 10,
            ..MetricsSnapshot::default()
        };
        // A snapshot taken "before" counters advanced, subtracted the wrong
        // way round, must clamp to zero instead of panicking.
        assert_eq!((MetricsSnapshot::default() - later).msgs_total, 0);
    }

    #[test]
    fn derived_ratios() {
        let mut s = MetricsSnapshot::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.mean_bytes_per_message(), 0.0);
        assert_eq!(s.audit_bytes_per_txn(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        s.msgs_fs_dp = 10;
        s.rows_returned = 5;
        s.msgs_total = 4;
        s.msg_bytes_total = 1000;
        s.audit_bytes = 600;
        s.txns_committed = 3;
        assert_eq!(s.cache_hit_rate(), 0.75);
        assert_eq!(s.mean_bytes_per_message(), 250.0);
        assert_eq!(s.audit_bytes_per_txn(), 200.0);
    }

    #[test]
    fn iter_names_nonempty_and_display() {
        let (reg, m) = registry();
        reg.entity(EntityKind::Cluster, "cluster")
            .add(Ctr::RowsReturned, 2);
        let s = m.snapshot();
        assert!(s.iter().count() > 20);
        let shown = format!("{s}");
        assert!(shown.contains("rows_returned"));
        assert!(!shown.contains("disk_reads"), "zero counters are hidden");
    }
}
