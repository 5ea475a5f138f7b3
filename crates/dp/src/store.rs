//! Bridging the access methods to the buffer pool.
//!
//! The B-tree (and the other file structures) see a [`nsql_btree::BlockStore`];
//! this module implements it over the Disk Process's [`BufferPool`], adding:
//!
//! * the **current-LSN tag** — every block written during a record
//!   operation is stamped with the audit LSN of that operation, which is
//!   what the write-ahead-log check in the cache keys on;
//! * the **write-ahead hand-off** — an audited change is logged just
//!   before the first block it writes, so one the access method refuses
//!   (it refuses before it writes) is never logged;
//! * the **scan options** — while a set-oriented request is executing, leaf
//!   reads go through the bulk-I/O / pre-fetch path;
//! * the **booked CPU** — what a scan charges per record accrues here and
//!   is booked before the next block access, so every read, pre-fetch and
//!   write sees the clock a charge per record would have left;
//! * the volume **block allocator** (block 0 is the volume label).

use crate::{DiskProcess, FileId};
use nsql_btree::{Block, BlockNo, BlockStore};
use nsql_cache::{BufferPool, ScanOptions};
use nsql_lock::TxnId;
use nsql_sim::sync::Mutex;
use nsql_sim::CpuLayer;
use nsql_tmf::AuditBody;
use std::cell::{Cell, RefCell};

/// Volume block allocator. Block 0 is reserved for the volume label.
#[derive(Debug)]
pub struct Allocator {
    next: BlockNo,
    free: Vec<BlockNo>,
}

impl Allocator {
    /// Allocator for a fresh volume (block 0 reserved).
    pub fn new() -> Self {
        Allocator {
            next: 1,
            free: Vec::new(),
        }
    }

    /// Allocator recovered after a crash: resume after the highest block
    /// ever written. Blocks freed before the crash leak (documented
    /// simplification; a real system re-derives the free list from file
    /// labels).
    pub fn recovered(disk_len: usize) -> Self {
        Allocator {
            next: (disk_len as BlockNo).max(1),
            free: Vec::new(),
        }
    }

    /// Allocate a block number.
    pub fn alloc(&mut self) -> BlockNo {
        if let Some(b) = self.free.pop() {
            return b;
        }
        let b = self.next;
        self.next += 1;
        b
    }

    /// Free a block number.
    pub fn free(&mut self, b: BlockNo) {
        self.free.push(b);
    }

    /// High-water mark (tests).
    pub fn high_water(&self) -> BlockNo {
        self.next
    }
}

impl Default for Allocator {
    fn default() -> Self {
        Self::new()
    }
}

/// An audited change being applied: whose it is, what it is, the Disk
/// Process to log it through, and whether it is logged yet — it is, just
/// ahead of the first block it writes.
pub(crate) struct InProgress<'a> {
    pub dp: &'a DiskProcess,
    pub txn: TxnId,
    pub file: FileId,
    pub body: AuditBody,
    pub logged: Cell<bool>,
}

/// The per-operation view of the volume's blocks.
pub struct DpStore<'a> {
    /// The Disk Process's buffer pool.
    pub pool: &'a BufferPool,
    /// The volume's allocator.
    pub alloc: &'a Mutex<Allocator>,
    /// Audit LSN stamped onto blocks written by the current operation.
    pub lsn: Cell<u64>,
    /// Scan behaviour for `read_for_scan` during the current operation.
    pub scan: Cell<ScanOptions>,
    /// The change in progress, lent while the access method applies it.
    pub(crate) change: RefCell<Option<InProgress<'a>>>,
    /// Disk Process CPU units charged and not yet booked.
    cpu: Cell<u64>,
}

impl<'a> DpStore<'a> {
    /// A store view with no audit tag and point-access reads.
    pub fn new(pool: &'a BufferPool, alloc: &'a Mutex<Allocator>) -> Self {
        DpStore {
            pool,
            alloc,
            lsn: Cell::new(0),
            scan: Cell::new(ScanOptions::default()),
            change: RefCell::new(None),
            cpu: Cell::new(0),
        }
    }

    /// Charge `units` of Disk Process CPU, booked at the next block access
    /// or [`DpStore::book`], whichever comes first. Exact while nothing
    /// between the charge and the booking reads the clock: only a block
    /// access can (a disk read, a pre-fetch landing, a write's log force).
    pub(crate) fn charge(&self, units: u64) {
        self.cpu.set(self.cpu.get() + units);
    }

    /// Book what has been charged onto the shared clock.
    pub(crate) fn book(&self) {
        let units = self.cpu.take();
        if units > 0 {
            self.pool.sim().cpu_work(CpuLayer::DiskProcess, units);
        }
    }
}

impl BlockStore for DpStore<'_> {
    fn block_size(&self) -> usize {
        self.pool.disk().block_size()
    }

    fn read(&self, block: BlockNo) -> Block {
        self.book();
        self.pool
            .read(block)
            .unwrap_or_else(|e| panic!("volume read failed: {e}"))
    }

    fn read_for_scan(&self, block: BlockNo) -> Block {
        self.book();
        self.pool
            .read_scan(block, self.scan.get())
            .unwrap_or_else(|e| panic!("volume scan read failed: {e}"))
    }

    fn will_need(&self, block: BlockNo) {
        self.book();
        if self.scan.get().prefetch {
            self.pool.prefetch(block);
        }
    }

    fn write(&self, block: BlockNo, data: Block) {
        self.book();
        if let Some(change) = &*self.change.borrow() {
            if !change.logged.replace(true) {
                change
                    .dp
                    .log_ahead(self, change.txn, change.file, &change.body);
            }
        }
        self.pool
            .write(block, data, self.lsn.get())
            .unwrap_or_else(|e| panic!("volume write failed: {e}"))
    }

    fn alloc(&self) -> BlockNo {
        self.book();
        self.alloc.lock().alloc()
    }

    fn free(&self, block: BlockNo) {
        self.book();
        self.alloc.lock().free(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_cache::NoWal;
    use nsql_disk::Disk;
    use nsql_sim::Sim;
    use std::sync::Arc;

    #[test]
    fn allocator_reserves_label_block() {
        let mut a = Allocator::new();
        assert_eq!(a.alloc(), 1);
        assert_eq!(a.alloc(), 2);
        a.free(1);
        assert_eq!(a.alloc(), 1);
    }

    #[test]
    fn recovered_allocator_resumes_past_disk() {
        let a = Allocator::recovered(17);
        assert_eq!(a.high_water(), 17);
    }

    #[test]
    fn store_round_trips_through_pool() {
        let sim = Sim::new();
        let disk = Disk::new(sim.clone(), "$D", false);
        let pool = BufferPool::new(sim, disk, Arc::new(NoWal), 16);
        let alloc = Mutex::new(Allocator::new());
        let store = DpStore::new(&pool, &alloc);
        let b = store.alloc();
        store.lsn.set(7);
        store.write(b, vec![1, 2, 3].into());
        assert_eq!(*store.read(b), vec![1, 2, 3]);
    }
}
