//! The SQL (field/set-oriented) File System API.
//!
//! "The File System dynamically decomposes this single-table request into
//! messages to individual Disk Processes managing partitions (if any)
//! and/or secondary indices." Every method here implements one such
//! decomposition, including the re-drive loop of the continuation
//! protocol: the Disk Process bounds each request execution; the File
//! System re-drives with the last processed key until the range is
//! exhausted.

use crate::{bad_row, unexpected, FileSystem, FsError, IndexChange, IndexInfo, OpenFile, ReplyRow};
use nsql_dp::{DpError, DpReply, DpRequest, FileId, ReadLock, RowBlock, SubsetMode, SubsetOp};
use nsql_lock::{LockMode, TxnId};
use nsql_records::fold::partial_layout;
use nsql_records::key::{encode_record_key, encode_stored_key};
use nsql_records::patch::assign;
use nsql_records::row::encode_row;
use nsql_records::{
    AggFunc, Expr, KeyRange, OwnedBound, RecordDescriptor, Row, SetList, SliceRow, Value,
};
use nsql_sim::{CpuLayer, EntityKind, Event};
use std::collections::BTreeMap;

/// Result of a set-oriented read.
#[derive(Debug, Clone, Default)]
pub struct ScanResult {
    /// Decoded rows (projected when a projection was pushed down).
    pub rows: Vec<Row>,
}

impl FileSystem {
    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Insert a row, maintaining all secondary indices.
    pub fn insert_row(&self, txn: TxnId, of: &OpenFile, values: &[Value]) -> Result<(), FsError> {
        let record = encode_row(&of.desc, values).map_err(bad_row)?;
        let key = encode_record_key(&of.desc, values);
        let p = of.partition_for(&key)?;
        self.send(
            &p.process,
            DpRequest::Insert {
                txn,
                file: p.file,
                key,
                record,
            },
        )?;
        self.change_indexes(txn, of, None, Some(values))
    }

    /// Keep every index of `of` in step with one base row's change from
    /// `old` to `new` ([`IndexInfo::change`]): per index, in index order,
    /// one message deletes its old entry and then one inserts its new one.
    pub(crate) fn change_indexes(
        &self,
        txn: TxnId,
        of: &OpenFile,
        old: Option<&[Value]>,
        new: Option<&[Value]>,
    ) -> Result<(), FsError> {
        for idx in &of.indexes {
            let IndexChange { delete, insert } = idx.change(&of.desc, old, new)?;
            let file = idx.file;
            if let Some(key) = delete {
                self.send(&idx.process, DpRequest::DeleteRecord { txn, file, key })?;
            }
            if let Some((key, record)) = insert {
                let request = DpRequest::Insert {
                    txn,
                    file,
                    key,
                    record,
                };
                self.send(&idx.process, request)?;
            }
        }
        Ok(())
    }

    /// Point read by encoded key.
    pub fn read_by_key(
        &self,
        txn: Option<TxnId>,
        of: &OpenFile,
        key: &[u8],
        lock: ReadLock,
    ) -> Result<Option<Row>, FsError> {
        let record = self.read_record(txn, of, key, lock)?;
        record
            .map(|bytes| ReplyRow::new(&of.desc, &bytes).decode())
            .transpose()
    }

    /// Point read by encoded key: the record's bytes as the reply carries
    /// them.
    fn read_record(
        &self,
        txn: Option<TxnId>,
        of: &OpenFile,
        key: &[u8],
        lock: ReadLock,
    ) -> Result<Option<Vec<u8>>, FsError> {
        let p = of.partition_for(key)?;
        let request = DpRequest::Read {
            txn,
            file: p.file,
            key: key.to_vec(),
            lock,
        };
        let verb = request.name();
        match self.send(&p.process, request)? {
            DpReply::Record(Some(bytes)) => {
                self.sim.cpu_work(CpuLayer::FileSystem, 1);
                Ok(Some(bytes))
            }
            DpReply::Record(None) => Ok(None),
            other => Err(unexpected(verb, &other)),
        }
    }

    /// Single-record update with pushed-down expressions and constraint,
    /// maintaining indices (which requires reading the old row only when an
    /// indexed field is assigned).
    pub fn update_by_key(
        &self,
        txn: TxnId,
        of: &OpenFile,
        key: &[u8],
        sets: &SetList,
        constraint: Option<&Expr>,
    ) -> Result<(), FsError> {
        // With no index touched this is pure pushdown: one message, no
        // read-before-write. Otherwise the File System must see old and new
        // values to fix the affected indices.
        let touched = of.write_changes_indexes(Some(sets));
        let old = self.row_for_indexes(txn, of, key, touched)?;
        let p = of.partition_for(key)?;
        self.send(
            &p.process,
            DpRequest::UpdatePoint {
                txn,
                file: p.file,
                key: key.to_vec(),
                sets: sets.clone(),
                constraint: constraint.cloned(),
            },
        )?;
        if let Some(Row(old)) = old {
            // The new values again, for the indices' sake (the Disk Process
            // made the authoritative evaluation).
            self.sim.cpu_work(CpuLayer::FileSystem, 2);
            let assigned = assign(&of.desc, sets, &SliceRow(&old))
                .map_err(|e| FsError::BadRow(e.to_string()))?;
            let mut new = old.clone();
            for (f, v) in assigned {
                new[f as usize] = v;
            }
            self.change_indexes(txn, of, Some(&old), Some(&new))?;
        }
        Ok(())
    }

    /// The row at `key`, read under a shared lock when a write must keep
    /// indices in step with it (`needed`); a row that is not there is
    /// [`DpError::NotFound`].
    fn row_for_indexes(
        &self,
        txn: TxnId,
        of: &OpenFile,
        key: &[u8],
        needed: bool,
    ) -> Result<Option<Row>, FsError> {
        if !needed {
            return Ok(None);
        }
        let row = self.read_by_key(Some(txn), of, key, ReadLock::Shared)?;
        row.ok_or(FsError::Dp(DpError::NotFound)).map(Some)
    }

    /// Delete one record by key, maintaining indices.
    pub fn delete_by_key(&self, txn: TxnId, of: &OpenFile, key: &[u8]) -> Result<(), FsError> {
        let old = self.row_for_indexes(txn, of, key, of.write_changes_indexes(None))?;
        let p = of.partition_for(key)?;
        self.send(
            &p.process,
            DpRequest::DeleteRecord {
                txn,
                file: p.file,
                key: key.to_vec(),
            },
        )?;
        if let Some(old) = old {
            self.change_indexes(txn, of, Some(&old.0), None)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The set interface: one subset conversation, whatever the verb
    // ------------------------------------------------------------------

    /// The requester's half of a subset conversation, with each of
    /// `destinations` in turn. FIRST carries the key range, the predicate
    /// and the operation `make_op` builds; the Disk Process bounds every
    /// execution, and NEXT re-drives it after the last key it processed
    /// until the range is exhausted. `chunk` is handed each reply's row block
    /// and its affected count.
    ///
    /// The Subset Control Block is volatile: it is lost when the process
    /// crashes and its backup takes over. A re-drive answered `BadSubset`
    /// opens the conversation again with a FIRST that resumes after the last
    /// confirmed key, so a mid-scan takeover is invisible to SQL callers.
    fn drive_subset<'a>(
        &self,
        destinations: impl IntoIterator<Item = (&'a str, FileId, KeyRange)>,
        predicate: Option<&Expr>,
        make_op: &dyn Fn() -> SubsetOp,
        mut chunk: impl FnMut(&RowBlock, u32) -> Result<(), FsError>,
    ) -> Result<(), FsError> {
        for (process, file, range) in destinations {
            let first = |range, op| DpRequest::SubsetFirst {
                file,
                range,
                predicate: predicate.cloned(),
                op,
            };
            let op = make_op();
            let verb = op.verb();
            let end = range.end.clone();
            let mut request = first(range, op);
            // The key the re-drive in flight resumes after.
            let mut resume: Option<Vec<u8>> = None;
            let mut chain = 1u64;
            loop {
                let label = request.name();
                let reply = match (self.send(process, request), resume.take()) {
                    (Err(FsError::Dp(DpError::BadSubset(_))), Some(after)) => {
                        let server = self.sim.measure.entity(EntityKind::Process, process);
                        let (from, resumed) = (&*self.rec, true);
                        self.sim.emit(&server, Event::PathSwitch { from, resumed });
                        let begin = OwnedBound::Excluded(after);
                        let end = end.clone();
                        request = first(KeyRange { begin, end }, make_op());
                        continue;
                    }
                    (reply, _) => reply?,
                };
                let DpReply::Subset {
                    rows,
                    last_key,
                    done,
                    subset,
                    affected,
                    ..
                } = reply
                else {
                    return Err(unexpected(label, &reply));
                };
                chunk(&rows, affected)?;
                if done {
                    break;
                }
                chain += 1;
                let subset = subset
                    .ok_or_else(|| FsError::Protocol("re-drive without an SCB".to_string()))?;
                let after = last_key
                    .ok_or_else(|| FsError::Protocol("re-drive without a last key".to_string()))?;
                resume = Some(after.clone());
                request = DpRequest::SubsetNext {
                    subset,
                    after,
                    verb,
                };
            }
            self.sim.emit(&self.rec, Event::RedriveChain(chain));
        }
        Ok(())
    }

    /// A read subset conversation with each of `destinations`: every reply
    /// row, laid out per `desc`, is de-blocked and handed to `each` where
    /// it lands.
    fn read_subset<'a>(
        &self,
        destinations: impl IntoIterator<Item = (&'a str, FileId, KeyRange)>,
        predicate: Option<&Expr>,
        op: &dyn Fn() -> SubsetOp,
        desc: &RecordDescriptor,
        mut each: impl FnMut(ReplyRow<'_>) -> Result<(), FsError>,
    ) -> Result<(), FsError> {
        self.drive_subset(destinations, predicate, op, |rows, _| {
            self.deblock(rows, |bytes| each(ReplyRow::new(desc, bytes)))
        })
    }

    /// Set-oriented read over a primary-key range: fans out across
    /// partitions, re-driving each until exhausted, and hands each row of
    /// each (virtual) block to `each` as the reply carries it, laid out per
    /// the table's descriptor projected to `projection`.
    #[allow(clippy::too_many_arguments)] // mirrors the GET^FIRST message's fields
    pub fn scan_with(
        &self,
        txn: Option<TxnId>,
        of: &OpenFile,
        range: &KeyRange,
        predicate: Option<&Expr>,
        projection: Option<&[u16]>,
        mode: SubsetMode,
        lock: ReadLock,
        each: impl FnMut(ReplyRow<'_>) -> Result<(), FsError>,
    ) -> Result<(), FsError> {
        let projected = projection.map(|fields| of.desc.project(fields));
        let op = || SubsetOp::Read {
            txn,
            projection: projection.map(<[u16]>::to_vec),
            mode,
            lock,
        };
        let desc = projected.as_ref().unwrap_or(&of.desc);
        self.read_subset(partitions(of, range), predicate, &op, desc, each)
    }

    /// Set-oriented aggregate over a primary-key range, folded where the
    /// records lie (`AGGREGATE^SUBSET`): each Disk Process request folds
    /// the records it selects by `group_by` into `aggs` and replies with
    /// their partial groups, each handed to `each` as the reply carries it,
    /// laid out by [`partial_layout`]. Merged in the order they come, they
    /// make the fold of the whole range. An aggregate that layout refuses
    /// is [`FsError::BadRow`], before any message is sent.
    #[allow(clippy::too_many_arguments)] // mirrors the AGGREGATE^SUBSET^FIRST message's fields
    pub fn aggregate_with(
        &self,
        txn: Option<TxnId>,
        of: &OpenFile,
        range: &KeyRange,
        predicate: Option<&Expr>,
        group_by: &[u16],
        aggs: &[(AggFunc, Option<u16>)],
        lock: ReadLock,
        each: impl FnMut(ReplyRow<'_>) -> Result<(), FsError>,
    ) -> Result<(), FsError> {
        let refused = || FsError::BadRow("aggregate not foldable at the source".into());
        let layout = partial_layout(&of.desc, group_by, aggs).ok_or_else(refused)?;
        let op = || SubsetOp::Aggregate {
            txn,
            lock,
            group_by: group_by.to_vec(),
            aggs: aggs.to_vec(),
        };
        self.read_subset(partitions(of, range), predicate, &op, &layout, each)
    }

    /// [`FileSystem::scan_with`], decoding the rows.
    #[allow(clippy::too_many_arguments)] // mirrors the GET^FIRST message's fields
    pub fn scan(
        &self,
        txn: Option<TxnId>,
        of: &OpenFile,
        range: &KeyRange,
        predicate: Option<&Expr>,
        projection: Option<&[u16]>,
        mode: SubsetMode,
        lock: ReadLock,
    ) -> Result<ScanResult, FsError> {
        let mut rows = Vec::new();
        let decoded = |row: ReplyRow| {
            rows.push(row.decode()?);
            Ok(())
        };
        self.scan_with(txn, of, range, predicate, projection, mode, lock, decoded)?;
        Ok(ScanResult { rows })
    }

    /// A set-oriented write pushed down to the Disk Processes of `range`;
    /// returns the number of records they changed.
    fn write_set(
        &self,
        of: &OpenFile,
        range: &KeyRange,
        predicate: Option<&Expr>,
        op: &dyn Fn() -> SubsetOp,
    ) -> Result<u64, FsError> {
        let mut total = 0u64;
        self.drive_subset(partitions(of, range), predicate, op, |_, affected| {
            total += affected as u64;
            Ok(())
        })?;
        Ok(total)
    }

    /// A set-oriented write on a table whose indices it would disturb: read
    /// the qualifying rows (whole records, locked) and take each one's key
    /// from its key fields, then `change` each by key, which maintains the
    /// indices from the old row.
    fn write_row_at_a_time(
        &self,
        txn: TxnId,
        of: &OpenFile,
        range: &KeyRange,
        predicate: Option<&Expr>,
        change: impl Fn(&[u8]) -> Result<(), FsError>,
    ) -> Result<u64, FsError> {
        let (mode, lock) = (SubsetMode::Vsbb, ReadLock::Shared);
        let mut keys = Vec::new();
        self.scan_with(Some(txn), of, range, predicate, None, mode, lock, |row| {
            let record = row.checked()?;
            keys.push(encode_stored_key(record.desc, record.bytes).map_err(bad_row)?);
            Ok(())
        })?;
        for key in &keys {
            change(key)?;
        }
        Ok(keys.len() as u64)
    }

    /// Set-oriented UPDATE over a key range. When no index covers an
    /// assigned field the whole operation is pushed to the Disk Processes
    /// (`UPDATE^SUBSET`); otherwise the File System falls back to reading
    /// the qualifying rows and updating record-at-a-time with index
    /// maintenance ([`OpenFile::write_changes_indexes`]).
    pub fn update_set(
        &self,
        txn: TxnId,
        of: &OpenFile,
        range: &KeyRange,
        predicate: Option<&Expr>,
        sets: &SetList,
        constraint: Option<&Expr>,
    ) -> Result<u64, FsError> {
        if of.write_changes_indexes(Some(sets)) {
            return self.write_row_at_a_time(txn, of, range, predicate, |key| {
                self.update_by_key(txn, of, key, sets, constraint)
            });
        }
        self.write_set(of, range, predicate, &|| SubsetOp::Update {
            txn,
            sets: sets.clone(),
            constraint: constraint.cloned(),
        })
    }

    /// Set-oriented DELETE over a key range, pushed down when the table has
    /// no indices (index maintenance requires the old rows,
    /// [`OpenFile::write_changes_indexes`]).
    pub fn delete_set(
        &self,
        txn: TxnId,
        of: &OpenFile,
        range: &KeyRange,
        predicate: Option<&Expr>,
    ) -> Result<u64, FsError> {
        if of.write_changes_indexes(None) {
            return self.write_row_at_a_time(txn, of, range, predicate, |key| {
                self.delete_by_key(txn, of, key)
            });
        }
        self.write_set(of, range, predicate, &|| SubsetOp::Delete { txn })
    }

    // ------------------------------------------------------------------
    // Access via secondary index (Figure 2)
    // ------------------------------------------------------------------

    /// Scan a secondary index by index-key range, handing each *index* row
    /// (indexed fields + base primary key, laid out per the index's
    /// descriptor) to `each` — enough for index-only queries.
    pub fn scan_index(
        &self,
        txn: Option<TxnId>,
        idx: &IndexInfo,
        range: &KeyRange,
        predicate: Option<&Expr>,
        lock: ReadLock,
        each: impl FnMut(ReplyRow<'_>) -> Result<(), FsError>,
    ) -> Result<(), FsError> {
        let op = || SubsetOp::Read {
            txn,
            projection: None,
            mode: SubsetMode::Vsbb,
            lock,
        };
        let index = [(idx.process.as_str(), idx.file, range.clone())];
        self.read_subset(index, predicate, &op, &idx.desc, each)
    }

    /// Read base rows via a secondary index (Figure 2): first the index's
    /// Disk Process, which applies `index_predicate` (over the index row)
    /// to the entries of `index_range`, then the base partition's, per
    /// qualifying entry, each base record handed to `each` as the reply
    /// carries it.
    #[allow(clippy::too_many_arguments)] // the index scan's fields, and where rows go
    pub fn read_via_index(
        &self,
        txn: Option<TxnId>,
        of: &OpenFile,
        idx: &IndexInfo,
        index_range: &KeyRange,
        index_predicate: Option<&Expr>,
        lock: ReadLock,
        mut each: impl FnMut(ReplyRow<'_>) -> Result<(), FsError>,
    ) -> Result<(), FsError> {
        let mut keys = Vec::new();
        self.scan_index(txn, idx, index_range, index_predicate, lock, |entry| {
            keys.push(idx.base_key_from_index_row(&of.desc, &entry.checked()?));
            Ok(())
        })?;
        for key in &keys {
            if let Some(record) = self.read_record(txn, of, key, lock)? {
                each(ReplyRow::new(&of.desc, &record))?;
            }
        }
        Ok(())
    }
}

/// The base-table destinations of a subset conversation over `range`.
fn partitions<'a>(
    of: &'a OpenFile,
    range: &KeyRange,
) -> impl Iterator<Item = (&'a str, FileId, KeyRange)> {
    let overlapping = of.partitions_for_range(range).into_iter();
    overlapping.map(|(p, clipped)| (p.process.as_str(), p.file, clipped))
}

/// What a blocked message does with its records. A flush sends the phases
/// in this order: base updates, then deletes, then inserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Blocked {
    Update,
    Delete,
    Insert,
}

/// Where a blocked message goes, by position in the [`OpenFile`]: base
/// partitions first, then secondary indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Destination {
    Partition(usize),
    Index(usize),
}

/// `(key, record)` pairs in arrival order; a delete's record is empty.
type KeyedRecords = Vec<(Vec<u8>, Vec<u8>)>;

/// The File System's local buffers of blocked writes for one transaction
/// over one table: one per phase and destination, kept and sent in that
/// order.
struct BlockedBuffers<'a> {
    fs: &'a FileSystem,
    of: &'a OpenFile,
    txn: TxnId,
    pending: BTreeMap<(Blocked, Destination), KeyedRecords>,
}

impl<'a> BlockedBuffers<'a> {
    fn new(fs: &'a FileSystem, of: &'a OpenFile, txn: TxnId) -> Self {
        BlockedBuffers {
            fs,
            of,
            txn,
            pending: BTreeMap::new(),
        }
    }

    /// Buffer one record; returns how many its buffer now holds.
    fn push(&mut self, what: Blocked, to: Destination, key: Vec<u8>, record: Vec<u8>) -> usize {
        let buffer = self.pending.entry((what, to)).or_default();
        buffer.push((key, record));
        buffer.len()
    }

    /// Buffer what one base row's change from `old` to `new` does to every
    /// index ([`IndexInfo::change`]): the delete of its old entry and the
    /// insert of its new one.
    fn push_index_changes(
        &mut self,
        old: Option<&[Value]>,
        new: Option<&[Value]>,
    ) -> Result<(), FsError> {
        let of = self.of;
        for (i, idx) in of.indexes.iter().enumerate() {
            let IndexChange { delete, insert } = idx.change(&of.desc, old, new)?;
            let index = Destination::Index(i);
            if let Some(key) = delete {
                self.push(Blocked::Delete, index, key, Vec::new());
            }
            if let Some((key, record)) = insert {
                self.push(Blocked::Insert, index, key, record);
            }
        }
        Ok(())
    }

    /// Send one buffer as one message. Inserts go in key order (by prior
    /// agreement the Disk Process locks their span as a group).
    fn send(
        &self,
        what: Blocked,
        to: Destination,
        mut records: KeyedRecords,
    ) -> Result<(), FsError> {
        let (process, file) = match to {
            Destination::Partition(i) => {
                (&self.of.partitions[i].process, self.of.partitions[i].file)
            }
            Destination::Index(i) => (&self.of.indexes[i].process, self.of.indexes[i].file),
        };
        let txn = self.txn;
        let request = match what {
            Blocked::Update => DpRequest::BlockedUpdate { txn, file, records },
            Blocked::Delete => {
                let keys = records.into_iter().map(|(key, _)| key).collect();
                DpRequest::BlockedDelete { txn, file, keys }
            }
            Blocked::Insert => {
                records.sort_by(|a, b| a.0.cmp(&b.0));
                DpRequest::BlockedInsert { txn, file, records }
            }
        };
        self.fs.send(process, request)?;
        Ok(())
    }

    /// Send the one buffer `(what, to)`, if anything is in it.
    fn flush_one(&mut self, what: Blocked, to: Destination) -> Result<(), FsError> {
        match self.pending.remove(&(what, to)) {
            Some(records) => self.send(what, to, records),
            None => Ok(()),
        }
    }

    /// Send every buffer: one message per phase and Disk Process file.
    fn flush(&mut self) -> Result<(), FsError> {
        for ((what, to), records) in std::mem::take(&mut self.pending) {
            self.send(what, to, records)?;
        }
        Ok(())
    }
}

/// Client-side buffering for the blocked sequential-insert extension (the
/// paper's *Opportunities for Future Performance Enhancements*): "multiple
/// sequential inserts issued to the File System by the SQL Executor would
/// then be accumulated in a local buffer by the File System, which would,
/// when required, send the buffer of inserted records to the Disk Process
/// using one message."
pub struct BlockedInserter<'a> {
    buffers: BlockedBuffers<'a>,
}

impl<'a> BlockedInserter<'a> {
    /// Flush a partition buffer at this many records.
    const FLUSH_AT: usize = 100;

    /// A blocked inserter for one transaction over one table.
    pub fn new(fs: &'a FileSystem, of: &'a OpenFile, txn: TxnId) -> Self {
        BlockedInserter {
            buffers: BlockedBuffers::new(fs, of, txn),
        }
    }

    /// Buffer one row; flushes automatically at the threshold.
    pub fn push(&mut self, values: &[Value]) -> Result<(), FsError> {
        let of = self.buffers.of;
        let record = encode_row(&of.desc, values).map_err(bad_row)?;
        let key = encode_record_key(&of.desc, values);
        let partition = Destination::Partition(of.partition_of(&key)?);
        let buffered = self.buffers.push(Blocked::Insert, partition, key, record);
        self.buffers.push_index_changes(None, Some(values))?;
        if buffered >= Self::FLUSH_AT {
            self.buffers.flush_one(Blocked::Insert, partition)?;
        }
        Ok(())
    }

    /// Flush every buffered record (base and index). Must be called before
    /// commit.
    pub fn flush(&mut self) -> Result<(), FsError> {
        self.buffers.flush()
    }
}

/// Client-side buffering for `UPDATE WHERE CURRENT` / `DELETE WHERE
/// CURRENT` (the paper's second future-work enhancement): "by allowing the
/// updates (deletes) to occur in a buffer local to the File System, and
/// then sending the buffer full of updates (deletes) to the Disk Process
/// in one message, substantial message traffic savings in the FS-DP
/// interface could be realized."
///
/// The cursor's owner supplies old and new row values; index maintenance
/// is buffered alongside, so secondary indices also see blocked traffic.
pub struct CursorUpdater<'a> {
    buffers: BlockedBuffers<'a>,
    n_updates: u64,
    n_deletes: u64,
}

impl<'a> CursorUpdater<'a> {
    /// A buffered cursor writer for one transaction over one table.
    pub fn new(fs: &'a FileSystem, of: &'a OpenFile, txn: TxnId) -> Self {
        CursorUpdater {
            buffers: BlockedBuffers::new(fs, of, txn),
            n_updates: 0,
            n_deletes: 0,
        }
    }

    /// Buffer `UPDATE WHERE CURRENT`: the cursor's current row `old`
    /// becomes `new` (same primary key).
    pub fn update(&mut self, old: &[Value], new: &[Value]) -> Result<(), FsError> {
        let of = self.buffers.of;
        let key = of.rewritten_key(old, new)?;
        let record = encode_row(&of.desc, new).map_err(bad_row)?;
        let partition = Destination::Partition(of.partition_of(&key)?);
        self.buffers.push(Blocked::Update, partition, key, record);
        self.buffers.push_index_changes(Some(old), Some(new))?;
        self.n_updates += 1;
        Ok(())
    }

    /// Buffer `DELETE WHERE CURRENT` of the cursor's current row.
    pub fn delete(&mut self, old: &[Value]) -> Result<(), FsError> {
        let of = self.buffers.of;
        let key = encode_record_key(&of.desc, old);
        let partition = Destination::Partition(of.partition_of(&key)?);
        self.buffers
            .push(Blocked::Delete, partition, key, Vec::new());
        self.buffers.push_index_changes(Some(old), None)?;
        self.n_deletes += 1;
        Ok(())
    }

    /// Ship every buffer in one message per Disk Process touched. Returns
    /// `(rows updated, rows deleted)`.
    pub fn flush(&mut self) -> Result<(u64, u64), FsError> {
        self.buffers.flush()?;
        Ok((self.n_updates, self.n_deletes))
    }
}

/// ENSCRIBE-visible lock call used by both APIs.
impl FileSystem {
    /// Acquire a file or record lock through the Disk Process.
    pub fn lock(
        &self,
        txn: TxnId,
        process: &str,
        file: nsql_dp::FileId,
        key: Option<Vec<u8>>,
        mode: LockMode,
    ) -> Result<(), FsError> {
        self.send(
            process,
            DpRequest::Lock {
                txn,
                file,
                key,
                mode,
            },
        )?;
        Ok(())
    }
}
