//! The old ENSCRIBE record-at-a-time File System API.
//!
//! "In the case of ENSCRIBE, the application program invokes the File
//! System explicitly — calling such routines as OPEN, READ, WRITE,
//! LOCKRECORD — to perform key navigation and record-oriented I/O."
//!
//! The only deviation from record-at-a-time is **real sequential block
//! buffering (SBB)**: "each FS-DP request message \[returns\] a copy of a
//! physical file block ... SBB under ENSCRIBE has limited utility,
//! however, since no locking other than at the file level is effective
//! when it is in use" — so [`FileSystem::ens_open_sbb`] takes the
//! mandatory file lock.
//!
//! This API is the *baseline* for the paper's comparisons: one message per
//! record read, and updates that must read the record back to the
//! requester before writing it (two messages), with full-record audit
//! images.

use crate::{bad_row, unexpected, FileSystem, FsError, OpenFile, ReplyRow};
use nsql_dp::{AuditMode, DpReply, DpRequest, ReadLock};
use nsql_lock::{LockMode, TxnId};
use nsql_records::row::encode_row;
use nsql_records::{Row, Value};
use std::collections::VecDeque;

/// A sequential read cursor (record-at-a-time, or SBB-buffered).
pub struct EnscribeCursor<'a> {
    of: &'a OpenFile,
    txn: Option<TxnId>,
    /// Which partition we are currently reading.
    part: usize,
    /// Continuation point within the partition.
    after: Option<Vec<u8>>,
    /// Local block buffer (SBB only).
    buffer: VecDeque<Row>,
    /// Sequential block buffering enabled?
    sbb: bool,
    /// Partition exhausted (record-at-a-time bookkeeping).
    done: bool,
}

impl FileSystem {
    /// OPEN for plain record-at-a-time sequential reading.
    pub fn ens_open<'a>(&self, of: &'a OpenFile, txn: Option<TxnId>) -> EnscribeCursor<'a> {
        EnscribeCursor {
            of,
            txn,
            part: 0,
            after: None,
            buffer: VecDeque::new(),
            sbb: false,
            done: false,
        }
    }

    /// OPEN with sequential block buffering. Takes the mandatory **file
    /// lock** on every partition (shared), excluding writers for the
    /// duration of the transaction.
    pub fn ens_open_sbb<'a>(
        &self,
        of: &'a OpenFile,
        txn: TxnId,
    ) -> Result<EnscribeCursor<'a>, FsError> {
        for p in &of.partitions {
            self.lock(txn, &p.process, p.file, None, LockMode::Shared)?;
        }
        Ok(EnscribeCursor {
            of,
            txn: Some(txn),
            part: 0,
            after: None,
            buffer: VecDeque::new(),
            sbb: true,
            done: false,
        })
    }

    /// READ the next record through a cursor (`None` at end of file).
    pub fn ens_read_next(&self, cur: &mut EnscribeCursor) -> Result<Option<Row>, FsError> {
        loop {
            if let Some(row) = cur.buffer.pop_front() {
                return Ok(Some(row));
            }
            if cur.part >= cur.of.partitions.len() {
                return Ok(None);
            }
            if cur.done {
                cur.part += 1;
                cur.after = None;
                cur.done = false;
                continue;
            }
            let p = &cur.of.partitions[cur.part];
            if cur.sbb {
                // One message returns one physical block's worth.
                let request = DpRequest::ReadSeqBlock {
                    txn: cur.txn,
                    file: p.file,
                    after: cur.after.clone(),
                };
                let verb = request.name();
                let reply = self.send(&p.process, request)?;
                let DpReply::Subset {
                    rows,
                    last_key,
                    done,
                    ..
                } = reply
                else {
                    return Err(unexpected(verb, &reply));
                };
                // De-blocking by the File System from its local block copy.
                let buffer = &mut cur.buffer;
                self.deblock(&rows, |bytes| {
                    buffer.push_back(ReplyRow::new(&cur.of.desc, bytes).decode()?);
                    Ok(())
                })?;
                cur.after = last_key;
                cur.done = done;
                if cur.buffer.is_empty() && done {
                    cur.part += 1;
                    cur.after = None;
                    cur.done = false;
                }
            } else {
                // One message returns one record.
                let request = DpRequest::ReadNext {
                    txn: cur.txn,
                    file: p.file,
                    after: cur.after.clone(),
                    lock: ReadLock::None,
                };
                let verb = request.name();
                match self.send(&p.process, request)? {
                    DpReply::Record(None) => {
                        cur.part += 1;
                        cur.after = None;
                    }
                    DpReply::Subset { rows, last_key, .. } if rows.iter().count() == 1 => {
                        cur.after = last_key;
                        let mut row = None;
                        self.deblock(&rows, |bytes| {
                            row = Some(ReplyRow::new(&cur.of.desc, bytes).decode()?);
                            Ok(())
                        })?;
                        return Ok(row);
                    }
                    other => return Err(unexpected(verb, &other)),
                }
            }
        }
    }

    /// READ a record by primary key.
    pub fn ens_read(
        &self,
        txn: Option<TxnId>,
        of: &OpenFile,
        key: &[u8],
        lock: ReadLock,
    ) -> Result<Option<Row>, FsError> {
        self.read_by_key(txn, of, key, lock)
    }

    /// WRITE (insert) a record, maintaining alternate keys.
    pub fn ens_write(&self, txn: TxnId, of: &OpenFile, values: &[Value]) -> Result<(), FsError> {
        self.insert_row(txn, of, values)
    }

    /// The ENSCRIBE update discipline: the requester has the record (from a
    /// prior READ) and WRITEs back a **full new image** — two messages per
    /// update overall, and a full-image audit record at the Disk Process.
    pub fn ens_rewrite(
        &self,
        txn: TxnId,
        of: &OpenFile,
        old: &[Value],
        new: &[Value],
    ) -> Result<(), FsError> {
        let key = of.rewritten_key(old, new)?;
        let record = encode_row(&of.desc, new).map_err(bad_row)?;
        let p = of.partition_for(&key)?;
        self.send(
            &p.process,
            DpRequest::UpdateRecord {
                txn,
                file: p.file,
                key,
                record,
                audit: AuditMode::FullImage,
            },
        )?;
        // Alternate-key maintenance.
        self.change_indexes(txn, of, Some(old), Some(new))
    }

    /// LOCKRECORD.
    pub fn ens_lock_record(
        &self,
        txn: TxnId,
        of: &OpenFile,
        key: &[u8],
        mode: LockMode,
    ) -> Result<(), FsError> {
        let p = of.partition_for(key)?;
        self.lock(txn, &p.process, p.file, Some(key.to_vec()), mode)
    }
}
