#![warn(missing_docs)]
//! TMF — the Transaction Monitoring Facility.
//!
//! Both ENSCRIBE and NonStop SQL "share the same TMF audit trail (log)",
//! and the audit-trail volume's Disk Process is "highly optimized for long,
//! or *bulk* sequential I/O's using group commit and audit piggy-backing".
//! This crate provides:
//!
//! * [`audit`] — audit records, with ENSCRIBE-style **full-record images**
//!   and SQL-style **field-compressed images** (the paper's *Field Interface
//!   Enables Audit Record Size Reduction* section), and the
//!   [`AuditBatch`] of encoded records they travel and are buffered in;
//! * [`trail`] — the audit-trail Disk Process: an append-only log with
//!   buffered bulk writes, **group commit**, commit piggy-backing, buffer-
//!   full flushes, and **adaptive group-commit timers** (the \[Helland\]
//!   mechanism);
//! * [`txn`] — the transaction manager: transaction identity and state,
//!   participant registration, and the commit/abort protocol (a simplified
//!   presumed-abort two-phase commit across participant Disk Processes);
//! * [`recovery`] — classification of trail records into winners and losers
//!   for crash recovery, and the one LSN-ordered plan of redo and undo
//!   steps that replays them.
//!
//! Audit *data* always moves via counted messages (data DP → audit trail
//! DP). Control state (the durable-LSN watermark used for the write-ahead-
//! log check) is read through a shared handle, standing in for the
//! acknowledgment information piggy-backed on replies in the real system.

pub mod audit;
pub mod recovery;
pub mod trail;
pub mod txn;

pub use audit::{
    decode_record, scan_tail, AuditBatch, AuditBody, AuditRecord, FieldImage, Lsn, LsnSource,
    RecordHeader,
};
pub use recovery::{classify, Direction, RecoveryPlan};
pub use trail::{CommitTimer, Trail, TrailReply, TrailRequest, VolumeAuditor, AUDIT_PROCESS};
pub use txn::{EndTxnRequest, TxnManager, TxnState};
