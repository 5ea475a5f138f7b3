#![warn(missing_docs)]
//! The cache management component of the Disk Process.
//!
//! "The cache management component of the Disk Process uses a least-
//! recently-used (LRU) algorithm obeying write-ahead-log protocol to manage
//! a main memory buffer pool for staging data to and from disk."
//!
//! The SQL-specific optimizations from the paper's *Set Interface
//! Facilitates Cache Optimizations* section are all here:
//!
//! * **Bulk reads** — given the key span of a set-oriented request, the pool
//!   reads "sequential strings of physical blocks ... using bulk I/O's".
//! * **Asynchronous pre-fetch** — bulk reads issued ahead of need on the
//!   disk's private timeline, overlapping I/O with CPU-bound processing.
//! * **Write-behind** — strings of sequentially-dirtied blocks whose audit
//!   has aged past the write-ahead-log horizon are written out with bulk
//!   I/O during idle time.
//! * **Memory-pressure handshake** — the processor-global memory manager
//!   can steal clean buffers and request the cleaning of dirty ones.
//!
//! The write-ahead-log rule is enforced through a [`WalGate`], implemented
//! by the TMF audit trail: no dirty block may reach disk before the audit
//! covering its latest change is durable.

use nsql_disk::{Block, BlockNo, Disk, DiskError};
use nsql_sim::sync::Mutex;
use nsql_sim::{Ctr, Event, Micros, Sim, Wait};
use std::collections::HashMap;
use std::sync::Arc;

/// Write-ahead-log gate: visibility onto audit durability.
pub trait WalGate: Send + Sync {
    /// Is audit durable at least up to `lsn` as of virtual time `now`?
    fn durable(&self, lsn: u64, now: Micros) -> bool;
    /// Force audit durability up to `lsn`; returns the completion time.
    fn force(&self, lsn: u64, now: Micros) -> Micros;
}

/// A gate for cache uses that carry no audit (temporary files, tests).
pub struct NoWal;

impl WalGate for NoWal {
    fn durable(&self, _lsn: u64, _now: Micros) -> bool {
        true
    }
    fn force(&self, _lsn: u64, now: Micros) -> Micros {
        now
    }
}

/// Per-request scan behaviour, driven by the set-oriented FS-DP interface:
/// "the begin-key and end-key are specified at the initial FS-DP
/// interaction. From then on, the Disk Process can optimize."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanOptions {
    /// Read sequential strings of blocks with one bulk I/O instead of a
    /// block at a time.
    pub bulk: bool,
    /// Keep the *next* string in flight while the caller consumes the
    /// current one: the scan announces the leaf after the one in hand, and
    /// the pool reads ahead the first uncached string within one bulk
    /// string of it ([`BufferPool::prefetch`]).
    pub prefetch: bool,
}

impl ScanOptions {
    /// Everything on (the NonStop SQL set-interface default).
    pub fn sequential() -> Self {
        ScanOptions {
            bulk: true,
            prefetch: true,
        }
    }
}

#[derive(Debug)]
struct Frame {
    block: BlockNo,
    /// The block's image, shared with every reader it was lent to and —
    /// once written out, or if it was read in — with the disk.
    data: Block,
    /// While the frame is dirty, where its slot stands in
    /// [`PoolInner::dirty`].
    dirty: Option<usize>,
    /// Highest audit LSN covering changes to this block (0 = none).
    lsn: u64,
    /// If the block arrived via pre-fetch and has not been waited on yet,
    /// the completion time of that I/O.
    ready_at: Option<Micros>,
    /// Neighbours on the recency list, towards the least and the most
    /// recently used end.
    older: Option<usize>,
    newer: Option<usize>,
}

/// The cached frames: a slab of slots, the slot of each cached block, and a
/// recency list threaded through the slots — least recently used first, the
/// frames one bulk I/O brought in together in ascending block order. A use
/// moves a frame to the newest end by relinking three slots; the victim is
/// the oldest end. The slots of the dirty frames are listed apart, so
/// write-behind finds them without walking the pool.
#[derive(Default)]
struct PoolInner {
    slots: Vec<Frame>,
    /// Slots whose frame was evicted, to be reused.
    vacant: Vec<usize>,
    /// The slots of the dirty frames, in no particular order.
    dirty: Vec<usize>,
    slot_of: HashMap<BlockNo, usize>,
    oldest: Option<usize>,
    newest: Option<usize>,
    /// What a vacant slot holds in place of the image it gave up.
    empty: Block,
    /// The images of one transfer — a read's on their way to their frames,
    /// a write's on their way to the platter: one buffer, kept, so a
    /// transfer allocates nothing to list them.
    images: Vec<Block>,
}

impl PoolInner {
    fn frame(&self, block: BlockNo) -> Option<&Frame> {
        self.slot_of.get(&block).map(|&slot| &self.slots[slot])
    }

    /// The cached frames, least recently used first.
    #[cfg(test)]
    fn by_recency(&self) -> impl Iterator<Item = &Frame> {
        let first = self.oldest.map(|slot| &self.slots[slot]);
        std::iter::successors(first, |f| f.newer.map(|slot| &self.slots[slot]))
    }

    fn unlink(&mut self, slot: usize) {
        let (older, newer) = (self.slots[slot].older, self.slots[slot].newer);
        match older {
            Some(o) => self.slots[o].newer = newer,
            None => self.oldest = newer,
        }
        match newer {
            Some(n) => self.slots[n].older = older,
            None => self.newest = older,
        }
    }

    fn link_newest(&mut self, slot: usize) {
        self.slots[slot].older = self.newest;
        self.slots[slot].newer = None;
        match self.newest {
            Some(n) => self.slots[n].newer = Some(slot),
            None => self.oldest = Some(slot),
        }
        self.newest = Some(slot);
    }

    /// The slot of `block`'s frame, now the most recently used, if it is
    /// cached.
    fn touch(&mut self, block: BlockNo) -> Option<usize> {
        let slot = *self.slot_of.get(&block)?;
        self.unlink(slot);
        self.link_newest(slot);
        Some(slot)
    }

    fn set_dirty(&mut self, slot: usize) {
        if self.slots[slot].dirty.is_none() {
            self.slots[slot].dirty = Some(self.dirty.len());
            self.dirty.push(slot);
        }
    }

    fn set_clean(&mut self, slot: usize) {
        let Some(at) = self.slots[slot].dirty.take() else {
            return;
        };
        self.dirty.swap_remove(at);
        if let Some(&moved) = self.dirty.get(at) {
            self.slots[moved].dirty = Some(at);
        }
    }

    /// Cache `data` as `block` (not cached so far), most recently used.
    fn install(
        &mut self,
        block: BlockNo,
        data: Block,
        dirty: bool,
        lsn: u64,
        ready_at: Option<Micros>,
    ) {
        debug_assert!(
            !self.slot_of.contains_key(&block),
            "block {block} is cached"
        );
        let frame = Frame {
            block,
            data,
            dirty: None,
            lsn,
            ready_at,
            older: None,
            newer: None,
        };
        let slot = match self.vacant.pop() {
            Some(slot) => {
                self.slots[slot] = frame;
                slot
            }
            None => {
                self.slots.push(frame);
                self.slots.len() - 1
            }
        };
        self.slot_of.insert(block, slot);
        self.link_newest(slot);
        if dirty {
            self.set_dirty(slot);
        }
    }

    /// Drop the frame in `slot`; returns what it held, `dirty` saying
    /// whether it was dirty.
    fn evict(&mut self, slot: usize) -> Frame {
        let dirty = self.slots[slot].dirty;
        self.set_clean(slot);
        self.unlink(slot);
        self.vacant.push(slot);
        let empty = Arc::clone(&self.empty);
        let frame = &mut self.slots[slot];
        self.slot_of.remove(&frame.block);
        Frame {
            data: std::mem::replace(&mut frame.data, empty),
            dirty,
            older: None,
            newer: None,
            ..*frame
        }
    }

    /// The dirty blocks `keep` admits, ascending.
    fn dirty_blocks(&self, keep: impl Fn(&Frame) -> bool) -> Vec<BlockNo> {
        let dirty = self.dirty.iter().map(|&slot| &self.slots[slot]);
        let mut dirty: Vec<BlockNo> = dirty.filter(|f| keep(f)).map(|f| f.block).collect();
        dirty.sort_unstable();
        dirty
    }

    /// Append copies of the cached images of `blocks` to `images`, for one
    /// bulk write of frames that stay cached. The copy is the transfer to
    /// the device, and it is deliberate: were the platter to keep a frame's
    /// own image, the next change of the block would have to leave that
    /// image behind and build its successor somewhere else, every time —
    /// the frames' working set would wander through the heap instead of
    /// recycling the buffers it has (measured: `contended_load` 15–20 %
    /// slower). An evicted frame keeps nothing, so it hands its image on
    /// (`make_room`).
    fn copy_out(&self, blocks: &[BlockNo], images: &mut Vec<Block>) {
        let cached = blocks.iter().filter_map(|&b| self.frame(b));
        images.extend(cached.map(|f| Arc::new(Vec::clone(&f.data))));
    }

    fn mark_clean(&mut self, blocks: &[BlockNo]) {
        for b in blocks {
            if let Some(&slot) = self.slot_of.get(b) {
                self.set_clean(slot);
            }
        }
    }
}

/// Cut ascending block numbers into maximal strings of consecutive blocks,
/// none longer than `max`: what one bulk write can carry.
fn strings(blocks: &[BlockNo], max: usize) -> impl Iterator<Item = &[BlockNo]> {
    let consecutive = blocks.chunk_by(|a, b| *b == *a + 1);
    consecutive.flat_map(move |run| run.chunks(max))
}

/// The buffer pool of one Disk Process.
pub struct BufferPool {
    sim: Sim,
    disk: Arc<Disk>,
    wal: Arc<dyn WalGate>,
    /// Capacity in frames (blocks).
    pub capacity: usize,
    /// The cache's MEASURE record, named after its volume.
    rec: Arc<nsql_sim::MeasureRecord>,
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// A pool of `capacity` frames over `disk`, WAL-gated by `wal`.
    pub fn new(sim: Sim, disk: Arc<Disk>, wal: Arc<dyn WalGate>, capacity: usize) -> Self {
        assert!(capacity >= 8, "pool too small to be useful");
        let rec = sim.measure.entity(nsql_sim::EntityKind::Cache, &disk.name);
        BufferPool {
            sim,
            disk,
            wal,
            capacity,
            rec,
            inner: Mutex::new(PoolInner::default()),
        }
    }

    /// The disk behind this pool.
    pub fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    /// The simulation this pool charges.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Read one block (point access: no bulk, no pre-fetch). The frame's
    /// image is lent, not copied: it stays what it is when the block is
    /// written or evicted afterwards.
    pub fn read(&self, block: BlockNo) -> Result<Block, DiskError> {
        self.read_scan(block, ScanOptions::default())
    }

    /// Read one block with scan options. With `bulk`, a miss reads a string
    /// of up to `bulk_io_max_blocks` contiguous allocated blocks.
    /// Pre-fetching of upcoming blocks is driven by the scanner through
    /// [`BufferPool::prefetch`] (the scanner knows the leaf chain; the pool
    /// does not).
    pub fn read_scan(&self, block: BlockNo, opts: ScanOptions) -> Result<Block, DiskError> {
        let mut inner = self.inner.lock();

        if let Some(slot) = inner.touch(block) {
            let f = &mut inner.slots[slot];
            // If the block was pre-fetched, we may have to wait for the I/O
            // to complete — but usually the CPU work since issuing it
            // covers the latency (that is the point of pre-fetch).
            if let Some(ready) = f.ready_at.take() {
                self.sim.clock.advance_to_in(Wait::Disk, ready);
                self.rec.bump(Ctr::PrefetchHits);
            }
            self.rec.bump(Ctr::CacheHits);
            return Ok(Arc::clone(&f.data));
        }

        self.rec.bump(Ctr::CacheFaults);
        // Miss: choose the string length.
        let run = if opts.bulk {
            self.uncached_run(&inner, block).max(1)
        } else {
            1
        };
        self.make_room(&mut inner, run)?;
        let mut images = std::mem::take(&mut inner.images);
        self.disk.fetch(block, run, true, &mut images)?;
        for (b, data) in (block..).zip(images.drain(..)) {
            inner.install(b, data, false, 0, None);
        }
        inner.images = images;
        let installed = inner
            .frame(block)
            .expect("the string read starts at `block`");
        Ok(Arc::clone(&installed.data))
    }

    /// Longest run of uncached, allocated blocks starting at `block`,
    /// clipped to the bulk I/O maximum.
    fn uncached_run(&self, inner: &PoolInner, block: BlockNo) -> usize {
        let max = self.sim.cost.bulk_io_max_blocks();
        let disk_len = self.disk.len_blocks() as u32;
        let uncached = |b: &BlockNo| *b < disk_len && !inner.slot_of.contains_key(b);
        (block..).take(max).take_while(uncached).count()
    }

    /// Asynchronously pre-fetch the first string of uncached blocks that
    /// starts within one bulk string of `from` (the B-tree scan announces
    /// the next leaf in the chain at every leaf). When those blocks are all
    /// cached or in flight there is nothing to do. So the announcement made
    /// at the first leaf of a string just read brings in the string after
    /// it, and the ones made at the rest of its leaves find that string in
    /// flight: each scan keeps one string ahead. The I/O runs on the disk's
    /// private timeline, overlapping the caller's CPU-bound record
    /// processing.
    pub fn prefetch(&self, from: BlockNo) {
        let mut inner = self.inner.lock();
        let mut ahead = from..from.saturating_add(self.sim.cost.bulk_io_max_blocks() as BlockNo);
        let Some(from) = ahead.find(|b| !inner.slot_of.contains_key(b)) else {
            return;
        };
        let run = self.uncached_run(&inner, from);
        if run == 0 {
            return;
        }
        if self.make_room(&mut inner, run).is_err() {
            return; // cannot evict enough: skip the pre-fetch
        }
        let mut images = std::mem::take(&mut inner.images);
        let Ok(ready) = self.disk.fetch(from, run, false, &mut images) else {
            return; // hole in the file: skip
        };
        self.sim.emit(&self.rec, Event::Prefetch(run as u64));
        for (b, data) in (from..).zip(images.drain(..)) {
            inner.install(b, data, false, 0, Some(ready));
        }
        inner.images = images;
    }

    /// Install new contents for a block, tagging it with the audit LSN that
    /// covers the change. Purely in-memory (no-force policy).
    pub fn write(&self, block: BlockNo, data: impl Into<Block>, lsn: u64) -> Result<(), DiskError> {
        let data: Block = data.into();
        assert!(data.len() <= self.disk.block_size());
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.touch(block) {
            let f = &mut inner.slots[slot];
            f.data = data;
            f.lsn = f.lsn.max(lsn);
            f.ready_at = None;
            inner.set_dirty(slot);
            return Ok(());
        }
        self.make_room(&mut inner, 1)?;
        inner.install(block, data, true, lsn, None);
        Ok(())
    }

    /// Evict from the least recently used end until `need` new frames fit.
    fn make_room(&self, inner: &mut PoolInner, need: usize) -> Result<(), DiskError> {
        let mut frames = 0u64;
        while inner.slot_of.len() + need > self.capacity {
            let victim = inner
                .oldest
                .expect("capacity >= 8 so pool is nonempty when full");
            let f = inner.evict(victim);
            if f.dirty.is_some() {
                // Steal of a dirty page: WAL first, then write it out.
                let now = self.sim.now();
                if !self.wal.durable(f.lsn, now) {
                    let done = self.wal.force(f.lsn, now);
                    self.sim.clock.advance_to_in(Wait::Commit, done);
                }
                self.disk.write(f.block, std::slice::from_ref(&f.data))?;
            }
            frames += 1;
        }
        if frames > 0 {
            self.sim.emit(&self.rec, Event::CacheEvict(frames));
        }
        Ok(())
    }

    /// Write-behind: write out maximal strings of contiguous dirty blocks
    /// whose audit is already durable, using asynchronous bulk I/O ("using
    /// idle time between Disk Process requests to write out strings of
    /// sequential blocks updated under a subset").
    ///
    /// Returns the number of blocks written.
    pub fn write_behind(&self) -> usize {
        let now = self.sim.now();
        let mut inner = self.inner.lock();
        let dirty = inner.dirty_blocks(|f| self.wal.durable(f.lsn, now));
        let mut written = 0usize;
        let mut images = std::mem::take(&mut inner.images);
        for string in strings(&dirty, self.sim.cost.bulk_io_max_blocks()) {
            inner.copy_out(string, &mut images);
            if self.disk.write_async(string[0], &images).is_ok() {
                inner.mark_clean(string);
                written += string.len();
            }
            images.clear();
        }
        inner.images = images;
        written
    }

    /// Flush every dirty block synchronously (checkpoint / orderly
    /// shutdown), respecting WAL.
    pub fn flush_all(&self) -> Result<(), DiskError> {
        let mut inner = self.inner.lock();
        let dirty = inner.dirty_blocks(|_| true);
        let lsns = dirty.iter().filter_map(|&b| inner.frame(b));
        let max_lsn = lsns.map(|f| f.lsn).max().unwrap_or(0);
        let now = self.sim.now();
        if max_lsn > 0 && !self.wal.durable(max_lsn, now) {
            let done = self.wal.force(max_lsn, now);
            self.sim.clock.advance_to_in(Wait::Commit, done);
        }
        let mut images = std::mem::take(&mut inner.images);
        for string in strings(&dirty, self.sim.cost.bulk_io_max_blocks()) {
            inner.copy_out(string, &mut images);
            self.disk.write(string[0], &images)?;
            inner.mark_clean(string);
            images.clear();
        }
        inner.images = images;
        Ok(())
    }

    /// Memory-pressure handshake: drop up to `n` clean frames, least
    /// recently used first. Returns how many were stolen.
    pub fn steal_clean(&self, n: usize) -> usize {
        let mut inner = self.inner.lock();
        let mut stolen = 0;
        let mut next = inner.oldest;
        while let Some(slot) = next.filter(|_| stolen < n) {
            let f = &inner.slots[slot];
            next = f.newer;
            if f.dirty.is_none() && f.ready_at.is_none() {
                inner.evict(slot);
                stolen += 1;
            }
        }
        if stolen > 0 {
            self.sim.emit(&self.rec, Event::CacheEvict(stolen as u64));
        }
        stolen
    }

    /// Memory-pressure handshake: clean (write out) dirty frames so their
    /// memory becomes stealable. Uses the write-behind path.
    pub fn clean_dirty(&self) -> usize {
        self.write_behind()
    }

    /// Drop every frame without writing (crash simulation: cache contents
    /// are lost; the disk keeps only what was flushed).
    pub fn crash(&self) {
        *self.inner.lock() = PoolInner::default();
    }

    /// Number of cached frames (tests).
    pub fn cached_frames(&self) -> usize {
        self.inner.lock().slot_of.len()
    }

    /// Number of dirty frames (tests).
    pub fn dirty_frames(&self) -> usize {
        self.inner.lock().dirty.len()
    }

    /// The dirty blocks, ascending, each with the audit LSN its frame
    /// carries — what write-ahead order holds it to (tests).
    pub fn dirty_lsns(&self) -> Vec<(BlockNo, u64)> {
        let inner = self.inner.lock();
        let dirty = inner.dirty_blocks(|_| true).into_iter();
        dirty
            .filter_map(|b| inner.frame(b).map(|f| (b, f.lsn)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_sim::sync::Mutex as PMutex;

    fn setup(capacity: usize) -> (Sim, Arc<Disk>, BufferPool) {
        let sim = Sim::new();
        let disk = Disk::new(sim.clone(), "$D", false);
        let pool = BufferPool::new(sim.clone(), Arc::clone(&disk), Arc::new(NoWal), capacity);
        (sim, disk, pool)
    }

    /// The cached blocks, least recently used first.
    fn recency(pool: &BufferPool) -> Vec<BlockNo> {
        let inner = pool.inner.lock();
        let blocks: Vec<BlockNo> = inner.by_recency().map(|f| f.block).collect();
        assert_eq!(
            blocks.len(),
            inner.slot_of.len(),
            "every frame is on the list"
        );
        blocks
    }

    fn fill_disk(disk: &Disk, nblocks: u32) {
        for b in 0..nblocks {
            disk.write(b, &[vec![b as u8; 64]]).unwrap();
        }
    }

    #[test]
    fn hit_after_miss() {
        let (sim, disk, pool) = setup(16);
        fill_disk(&disk, 4);
        let before = sim.metrics.snapshot();
        assert_eq!(*pool.read(2).unwrap(), vec![2u8; 64]);
        assert_eq!(*pool.read(2).unwrap(), vec![2u8; 64]);
        let d = sim.metrics.snapshot() - before;
        assert_eq!(d.cache_misses, 1);
        assert_eq!(d.cache_hits, 1);
    }

    #[test]
    fn a_hit_lends_the_frame() {
        let (_sim, disk, pool) = setup(8);
        fill_disk(&disk, 16);
        // A miss installs the platter's image; every hit lends that image.
        let missed = pool.read(2).unwrap();
        let hit = pool.read(2).unwrap();
        let scanned = pool.read_scan(2, ScanOptions::sequential()).unwrap();
        assert!(Arc::ptr_eq(&missed, &hit) && Arc::ptr_eq(&hit, &scanned));
        assert!(Arc::ptr_eq(&hit, &disk.read(2, 1).unwrap()[0]));
        // A write replaces the frame's image; what a reader holds stays.
        let written: Block = Arc::new(vec![99u8; 64]);
        pool.write(2, Arc::clone(&written), 0).unwrap();
        assert_eq!(*hit, vec![2u8; 64]);
        assert!(Arc::ptr_eq(&pool.read(2).unwrap(), &written));
        // Evicted dirty, it reaches the disk as the image that was written.
        for b in 8..16 {
            pool.read(b).unwrap();
        }
        assert_eq!(pool.dirty_frames(), 0, "block 2 was stolen");
        assert!(Arc::ptr_eq(&disk.read(2, 1).unwrap()[0], &written));
        // Write-behind leaves the frame cached, and leaves it its image: the
        // platter gets a copy (see `PoolInner::copy_out`).
        let behind: Block = Arc::new(vec![7u8; 64]);
        pool.write(3, Arc::clone(&behind), 0).unwrap();
        assert_eq!(pool.write_behind(), 1);
        assert!(Arc::ptr_eq(&pool.read(3).unwrap(), &behind));
        let on_disk = disk.read(3, 1).unwrap().remove(0);
        assert!(!Arc::ptr_eq(&on_disk, &behind) && on_disk == behind);
    }

    #[test]
    fn write_is_no_force_until_flush() {
        let (_sim, disk, pool) = setup(16);
        fill_disk(&disk, 2);
        pool.write(1, vec![99; 64], 5).unwrap();
        // Disk still has the old contents.
        assert_eq!(disk.read(1, 1).unwrap()[0][0], 1);
        pool.flush_all().unwrap();
        assert_eq!(disk.read(1, 1).unwrap()[0][0], 99);
        assert_eq!(pool.dirty_frames(), 0);
    }

    #[test]
    fn eviction_order_within_a_bulk_string_is_deterministic() {
        // One bulk read brings in a string of frames with the same tick;
        // which of them a later miss evicts must not depend on hash order.
        let evictions = || {
            let (_sim, disk, pool) = setup(8);
            fill_disk(&disk, 32);
            let cached = |pool: &BufferPool| -> Vec<BlockNo> {
                let mut blocks = recency(pool);
                blocks.sort_unstable();
                blocks
            };
            pool.read_scan(0, ScanOptions::sequential()).unwrap();
            let string = cached(&pool);
            assert!(string.len() >= 4, "bulk read brought in {string:?}");
            let mut order = Vec::new();
            for b in 16..24 {
                let before = cached(&pool);
                pool.read(b).unwrap();
                let after = cached(&pool);
                order.extend(before.into_iter().filter(|x| !after.contains(x)));
            }
            (string, order)
        };
        let (string, order) = evictions();
        assert_eq!(evictions(), (string.clone(), order.clone()));
        // Once the pool is full the string goes, lowest block first.
        assert_eq!(order[..string.len()], string[..]);
    }

    /// What the recency list replaced: every frame stamped with the tick of
    /// its last use, the victim found by scanning all of them for the least
    /// `(last_use, block)`. It also keeps each frame's dirty flag and audit
    /// LSN and the WAL horizon, to say which blocks are dirty and which of
    /// them write-behind may write.
    #[derive(Default)]
    struct TickModel {
        frames: HashMap<BlockNo, ModelFrame>,
        tick: u64,
        evictions: Vec<BlockNo>,
        /// The highest durable audit LSN (the gate's).
        horizon: u64,
        /// The LSN the last write was tagged with.
        last_lsn: u64,
        dirty_steals: usize,
    }

    #[derive(Clone, Copy)]
    struct ModelFrame {
        last_use: u64,
        dirty: bool,
        prefetch_pending: bool,
        lsn: u64,
    }

    impl TickModel {
        const CAPACITY: usize = 8;
        const DISK: BlockNo = 40;
        const BULK: usize = 7;

        fn uncached_run(&self, from: BlockNo) -> usize {
            let uncached = |b: &BlockNo| *b < Self::DISK && !self.frames.contains_key(b);
            (from..).take(Self::BULK).take_while(uncached).count()
        }

        fn install(&mut self, block: BlockNo, dirty: bool, prefetch_pending: bool, lsn: u64) {
            let frame = ModelFrame {
                last_use: self.tick,
                dirty,
                prefetch_pending,
                lsn,
            };
            self.frames.insert(block, frame);
        }

        fn make_room(&mut self, need: usize) {
            while self.frames.len() + need > Self::CAPACITY {
                let by_use = self.frames.iter().map(|(b, f)| (f.last_use, *b));
                let victim = by_use.min().unwrap().1;
                let f = self.frames.remove(&victim).unwrap();
                if f.dirty {
                    // A dirty steal forces the audit that covers it.
                    self.horizon = self.horizon.max(f.lsn);
                    self.dirty_steals += 1;
                }
                self.evictions.push(victim);
            }
        }

        fn read(&mut self, block: BlockNo, bulk: bool) {
            self.tick += 1;
            if let Some(f) = self.frames.get_mut(&block) {
                f.last_use = self.tick;
                f.prefetch_pending = false;
                return;
            }
            let run = if bulk {
                self.uncached_run(block).max(1)
            } else {
                1
            };
            self.make_room(run);
            for b in block..block + run as BlockNo {
                self.install(b, false, false, 0);
            }
        }

        fn prefetch(&mut self, from: BlockNo) {
            self.tick += 1;
            let ahead = (from..from + Self::BULK as BlockNo).find(|b| !self.frames.contains_key(b));
            let Some(from) = ahead else {
                return;
            };
            let run = self.uncached_run(from);
            if run > 0 {
                self.make_room(run);
                for b in from..from + run as BlockNo {
                    self.install(b, false, true, 0);
                }
            }
        }

        /// Write `block`; returns the LSN the write was tagged with.
        fn write(&mut self, block: BlockNo) -> u64 {
            self.tick += 1;
            self.last_lsn += 1;
            let lsn = self.last_lsn;
            match self.frames.get(&block) {
                Some(f) => {
                    let lsn = f.lsn.max(lsn);
                    self.install(block, true, false, lsn);
                }
                None => {
                    self.make_room(1);
                    self.install(block, true, false, lsn);
                }
            }
            lsn
        }

        fn steal_clean(&mut self, n: usize) {
            let clean = self
                .frames
                .iter()
                .filter(|(_, f)| !f.dirty && !f.prefetch_pending);
            let mut clean: Vec<(u64, BlockNo)> = clean.map(|(b, f)| (f.last_use, *b)).collect();
            clean.sort_unstable();
            for (_, b) in clean.into_iter().take(n) {
                self.frames.remove(&b);
                self.evictions.push(b);
            }
        }

        /// The dirty blocks whose audit is durable, ascending.
        fn aged(&self) -> Vec<BlockNo> {
            let aged = self.frames.iter();
            let aged = aged.filter(|(_, f)| f.dirty && f.lsn <= self.horizon);
            let mut aged: Vec<BlockNo> = aged.map(|(b, _)| *b).collect();
            aged.sort_unstable();
            aged
        }

        fn dirty(&self) -> Vec<BlockNo> {
            let dirty = self.frames.iter().filter(|(_, f)| f.dirty);
            let mut dirty: Vec<BlockNo> = dirty.map(|(b, _)| *b).collect();
            dirty.sort_unstable();
            dirty
        }

        fn clean(&mut self, blocks: &[BlockNo]) {
            for b in blocks {
                self.frames.get_mut(b).unwrap().dirty = false;
            }
        }

        fn recency(&self) -> Vec<BlockNo> {
            let mut order: Vec<(u64, BlockNo)> =
                self.frames.iter().map(|(b, f)| (f.last_use, *b)).collect();
            order.sort_unstable();
            order.into_iter().map(|(_, b)| b).collect()
        }
    }

    /// The pool's dirty blocks, ascending, after checking that its dirty
    /// list and the frames' places in it agree.
    fn dirty_list(pool: &BufferPool) -> Vec<BlockNo> {
        let inner = pool.inner.lock();
        for (at, &slot) in inner.dirty.iter().enumerate() {
            let f = &inner.slots[slot];
            assert_eq!(f.dirty, Some(at), "slot {slot} is listed at {at}");
            assert_eq!(inner.slot_of.get(&f.block), Some(&slot), "a cached frame");
        }
        let listed = inner.by_recency().filter(|f| f.dirty.is_some()).count();
        assert_eq!(listed, inner.dirty.len(), "every dirty frame is listed");
        let mut blocks: Vec<BlockNo> = inner.dirty.iter().map(|&s| inner.slots[s].block).collect();
        blocks.sort_unstable();
        blocks
    }

    /// What the dirty list replaced: the dirty blocks `keep` admits, found
    /// by walking the whole recency list, ascending.
    fn dirty_by_walk(pool: &BufferPool, keep: impl Fn(&Frame) -> bool) -> Vec<BlockNo> {
        let inner = pool.inner.lock();
        let dirty = inner.by_recency().filter(|f| f.dirty.is_some() && keep(f));
        let mut dirty: Vec<BlockNo> = dirty.map(|f| f.block).collect();
        dirty.sort_unstable();
        dirty
    }

    /// The block counts of the writes `sim` traced since `cursor`, in order,
    /// and whether each was synchronous.
    fn traced_writes(sim: &Sim, cursor: u64) -> Vec<(u64, bool)> {
        let events = sim.trace.since(cursor).into_iter();
        let writes = events.filter_map(|e| match e.kind {
            nsql_sim::TraceEventKind::DiskIo {
                write: true,
                blocks,
                synchronous,
                ..
            } => Some((blocks, synchronous)),
            _ => None,
        });
        writes.collect()
    }

    #[test]
    fn recency_list_evicts_what_the_least_tick_scan_evicted() {
        let (mut wrote_behind, mut held_back, mut dirty_steals) = (0, 0, 0);
        for seed in 0..40 {
            let mut rng = nsql_sim::SimRng::seed_from(0xCAC4E + seed);
            let sim = Sim::new();
            let disk = Disk::new(sim.clone(), "$D", false);
            let gate = Arc::new(TestGate {
                durable_lsn: PMutex::new(0),
                forces: PMutex::new(Vec::new()),
            });
            let pool = BufferPool::new(
                sim.clone(),
                Arc::clone(&disk),
                gate.clone(),
                TickModel::CAPACITY,
            );
            assert_eq!(sim.cost.bulk_io_max_blocks(), TickModel::BULK);
            fill_disk(&disk, TickModel::DISK);
            sim.trace.enable_default();
            let mut model = TickModel::default();
            let mut evictions = Vec::new();
            for step in 0..400 {
                let block = rng.below(u64::from(TickModel::DISK) + 4) as BlockNo;
                let before = recency(&pool);
                let cursor = sim.trace.cursor();
                let op = rng.below(120);
                match op {
                    // Past the end of the disk there is nothing to read.
                    0..=34 if block < TickModel::DISK => {
                        pool.read(block).unwrap();
                        model.read(block, false);
                    }
                    35..=59 if block < TickModel::DISK => {
                        pool.read_scan(block, ScanOptions::sequential()).unwrap();
                        model.read(block, true);
                    }
                    60..=74 => {
                        pool.prefetch(block);
                        model.prefetch(block);
                    }
                    75..=94 if block < TickModel::DISK => {
                        let lsn = model.write(block);
                        pool.write(block, vec![step as u8; 64], lsn).unwrap();
                    }
                    95..=98 => {
                        let n = rng.below(5) as usize;
                        pool.steal_clean(n);
                        model.steal_clean(n);
                    }
                    // What a crash loses was not evicted.
                    99 => {
                        pool.crash();
                        model.frames.clear();
                        assert!(recency(&pool).is_empty());
                        assert!(dirty_list(&pool).is_empty());
                        continue;
                    }
                    100..=109 => {
                        let horizon = model.horizon;
                        let aged = dirty_by_walk(&pool, |f| f.lsn <= horizon);
                        assert_eq!(aged, model.aged(), "seed {seed} step {step}");
                        held_back += model.dirty().len() - aged.len();
                        assert_eq!(pool.write_behind(), aged.len());
                        let strings =
                            strings(&aged, TickModel::BULK).map(|s| (s.len() as u64, false));
                        assert_eq!(traced_writes(&sim, cursor), strings.collect::<Vec<_>>());
                        model.clean(&aged);
                        wrote_behind += aged.len();
                    }
                    110..=111 => {
                        let dirty = dirty_by_walk(&pool, |_| true);
                        let forced = model.frames.values().filter(|f| f.dirty).map(|f| f.lsn);
                        model.horizon = forced.fold(model.horizon, u64::max);
                        pool.flush_all().unwrap();
                        let strings =
                            strings(&dirty, TickModel::BULK).map(|s| (s.len() as u64, true));
                        assert_eq!(traced_writes(&sim, cursor), strings.collect::<Vec<_>>());
                        model.clean(&dirty);
                    }
                    // Audit becomes durable up to the last write or the one before.
                    112..=119 => {
                        let horizon = model.last_lsn.saturating_sub(rng.below(2));
                        model.horizon = model.horizon.max(horizon);
                        *gate.durable_lsn.lock() = model.horizon;
                    }
                    _ => continue,
                }
                assert_eq!(
                    *gate.durable_lsn.lock(),
                    model.horizon,
                    "seed {seed} step {step}"
                );
                // What went, oldest first, and the order of what stayed.
                let after = recency(&pool);
                evictions.extend(before.into_iter().filter(|b| !after.contains(b)));
                assert_eq!(
                    evictions,
                    model.evictions[..],
                    "seed {seed} step {step} op {op}"
                );
                assert_eq!(after, model.recency(), "seed {seed} step {step} op {op}");
                assert_eq!(
                    dirty_list(&pool),
                    model.dirty(),
                    "seed {seed} step {step} op {op}"
                );
                assert_eq!(pool.dirty_frames(), model.dirty().len());
            }
            assert!(
                evictions.len() > 100,
                "seed {seed}: {} evictions",
                evictions.len()
            );
            dirty_steals += model.dirty_steals;
        }
        // Every path ran: strings written behind, blocks the WAL horizon
        // held back, dirty frames stolen.
        assert!(wrote_behind > 100, "{wrote_behind} blocks written behind");
        assert!(held_back > 100, "{held_back} blocks held back");
        assert!(dirty_steals > 100, "{dirty_steals} dirty steals");
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let (sim, disk, pool) = setup(8);
        fill_disk(&disk, 12);
        for b in 0..8 {
            pool.read(b).unwrap();
        }
        pool.read(0).unwrap(); // refresh block 0
        pool.read(8).unwrap(); // evicts block 1 (oldest)
        assert_eq!(pool.cached_frames(), 8);
        // Re-reading 0 is a hit; 1 is a miss.
        let before = sim.metrics.snapshot();
        pool.read(0).unwrap();
        pool.read(1).unwrap();
        let d = sim.metrics.snapshot() - before;
        assert_eq!(d.cache_hits, 1);
        assert_eq!(d.cache_misses, 1);
    }

    #[test]
    fn bulk_scan_reads_strings() {
        let (sim, disk, pool) = setup(32);
        fill_disk(&disk, 14);
        let before = sim.metrics.snapshot();
        for b in 0..14 {
            pool.read_scan(
                b,
                ScanOptions {
                    bulk: true,
                    prefetch: false,
                },
            )
            .unwrap();
        }
        let d = sim.metrics.snapshot() - before;
        assert_eq!(d.disk_reads, 2, "14 blocks = two 7-block strings");
        assert_eq!(d.disk_blocks_read, 14);
        assert_eq!(d.cache_misses, 2);
        assert_eq!(d.cache_hits, 12);
    }

    #[test]
    fn prefetch_overlaps_and_hits() {
        // The scanner (B-tree) announces upcoming blocks; the pool fetches
        // them asynchronously while the caller does CPU work.
        let (sim, disk, pool) = setup(32);
        fill_disk(&disk, 14);
        let before = sim.metrics.snapshot();
        let opts = ScanOptions {
            bulk: true,
            prefetch: false,
        };
        pool.read_scan(0, opts).unwrap(); // blocks 0..7 via bulk miss
        pool.prefetch(7); // announce the next string
        for b in 1..14 {
            pool.read_scan(b, opts).unwrap();
            // Per-record CPU work between block reads.
            sim.clock.advance(20_000);
        }
        let d = sim.metrics.snapshot() - before;
        assert!(d.prefetch_reads >= 1);
        assert!(d.prefetch_hits >= 1);
        assert_eq!(d.cache_misses, 1, "only the first miss was synchronous");
    }

    #[test]
    fn prefetch_saves_elapsed_time() {
        // Scan the same blocks with and without announcing the next string;
        // with CPU work between blocks, pre-fetch must be faster end-to-end.
        let elapsed = |announce: bool| {
            let (sim, disk, pool) = setup(64);
            fill_disk(&disk, 28);
            let opts = ScanOptions {
                bulk: true,
                prefetch: false,
            };
            let t0 = sim.now();
            for b in 0..28 {
                pool.read_scan(b, opts).unwrap();
                if announce && b % 7 == 0 {
                    pool.prefetch(b + 7);
                }
                sim.clock.advance(3_000);
            }
            sim.now() - t0
        };
        let with = elapsed(true);
        let without = elapsed(false);
        assert!(
            with < without,
            "prefetch ({with}) should beat no-prefetch ({without})"
        );
    }

    /// A WAL gate that records force calls and can be toggled.
    struct TestGate {
        durable_lsn: PMutex<u64>,
        forces: PMutex<Vec<u64>>,
    }

    impl WalGate for TestGate {
        fn durable(&self, lsn: u64, _now: Micros) -> bool {
            *self.durable_lsn.lock() >= lsn
        }
        fn force(&self, lsn: u64, now: Micros) -> Micros {
            self.forces.lock().push(lsn);
            let mut d = self.durable_lsn.lock();
            *d = (*d).max(lsn);
            now + 1_000
        }
    }

    #[test]
    fn dirty_steal_forces_wal() {
        let sim = Sim::new();
        let disk = Disk::new(sim.clone(), "$D", false);
        let gate = Arc::new(TestGate {
            durable_lsn: PMutex::new(0),
            forces: PMutex::new(Vec::new()),
        });
        let pool = BufferPool::new(sim.clone(), Arc::clone(&disk), gate.clone(), 8);
        fill_disk(&disk, 16);
        // Dirty one block with lsn 42, not yet durable.
        pool.read(0).unwrap();
        pool.write(0, vec![7; 32], 42).unwrap();
        // Fill the pool so block 0 gets stolen.
        for b in 1..=8 {
            pool.read(b).unwrap();
        }
        assert!(
            gate.forces.lock().contains(&42),
            "stealing a dirty page must force the audit first"
        );
        assert_eq!(disk.read(0, 1).unwrap()[0][0], 7);
    }

    #[test]
    fn write_behind_respects_wal_horizon() {
        let sim = Sim::new();
        let disk = Disk::new(sim.clone(), "$D", false);
        let gate = Arc::new(TestGate {
            durable_lsn: PMutex::new(10),
            forces: PMutex::new(Vec::new()),
        });
        let pool = BufferPool::new(sim.clone(), Arc::clone(&disk), gate.clone(), 32);
        fill_disk(&disk, 8);
        // Blocks 0-3 dirty with durable audit, block 4 dirty with future
        // audit.
        for b in 0..4u32 {
            pool.write(b, vec![b as u8 + 100; 32], 5).unwrap();
        }
        pool.write(4, vec![200; 32], 99).unwrap();
        let written = pool.write_behind();
        assert_eq!(written, 4, "only the aged string goes out");
        assert_eq!(pool.dirty_frames(), 1);
        // One async bulk write of 4 blocks.
        assert_eq!(sim.metrics.snapshot().writebehind_writes, 1);
        assert_eq!(sim.metrics.snapshot().disk_blocks_written, 4 + 8);
        assert!(gate.forces.lock().is_empty(), "write-behind never forces");
    }

    #[test]
    fn steal_clean_handshake() {
        let (sim, disk, pool) = setup(16);
        fill_disk(&disk, 8);
        for b in 0..8 {
            pool.read(b).unwrap();
        }
        pool.write(0, vec![1; 8], 1).unwrap(); // one dirty frame
        let stolen = pool.steal_clean(4);
        assert_eq!(stolen, 4);
        assert_eq!(pool.cached_frames(), 4);
        assert!(sim.metrics.snapshot().cache_steals >= 4);
        // The dirty frame survived stealing.
        assert_eq!(pool.dirty_frames(), 1);
    }

    #[test]
    fn crash_loses_cache_not_disk() {
        let (_sim, disk, pool) = setup(16);
        fill_disk(&disk, 2);
        pool.write(0, vec![123; 8], 1).unwrap();
        pool.crash();
        assert_eq!(pool.cached_frames(), 0);
        // Unflushed change lost; disk has the original.
        assert_eq!(disk.read(0, 1).unwrap()[0][0], 0);
    }
}
