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

use nsql_disk::{BlockNo, Disk, DiskError};
use nsql_sim::sync::Mutex;
use nsql_sim::{Ctr, Micros, Sim, Wait};
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
    /// Issue the *next* string asynchronously while the caller consumes the
    /// current one.
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
    data: Vec<u8>,
    dirty: bool,
    /// Highest audit LSN covering changes to this block (0 = none).
    lsn: u64,
    /// If the block arrived via pre-fetch and has not been waited on yet,
    /// the completion time of that I/O.
    ready_at: Option<Micros>,
    last_use: u64,
}

#[derive(Default)]
struct PoolInner {
    frames: HashMap<BlockNo, Frame>,
    tick: u64,
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

    /// Read one block (point access: no bulk, no pre-fetch).
    pub fn read(&self, block: BlockNo) -> Result<Vec<u8>, DiskError> {
        self.read_scan(block, ScanOptions::default())
    }

    /// Read one block with scan options. With `bulk`, a miss reads a string
    /// of up to `bulk_io_max_blocks` contiguous allocated blocks.
    /// Pre-fetching of upcoming blocks is driven by the scanner through
    /// [`BufferPool::prefetch`] (the scanner knows the leaf chain; the pool
    /// does not).
    pub fn read_scan(&self, block: BlockNo, opts: ScanOptions) -> Result<Vec<u8>, DiskError> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;

        if let Some(f) = inner.frames.get_mut(&block) {
            f.last_use = tick;
            // If the block was pre-fetched, we may have to wait for the I/O
            // to complete — but usually the CPU work since issuing it
            // covers the latency (that is the point of pre-fetch).
            if let Some(ready) = f.ready_at.take() {
                self.sim.clock.advance_to_in(Wait::Disk, ready);
                self.sim.metrics.prefetch_hits.inc();
            }
            self.sim.metrics.cache_hits.inc();
            self.rec.bump(Ctr::CacheHits);
            let _ = opts;
            return Ok(f.data.clone());
        }

        self.sim.metrics.cache_misses.inc();
        self.rec.bump(Ctr::CacheFaults);
        // Miss: choose the string length.
        let run = if opts.bulk {
            self.contiguous_uncached_run(&inner, block)
        } else {
            1
        };
        self.make_room(&mut inner, run)?;
        let datas = self.disk.read(block, run)?;
        let mut out = None;
        for (i, data) in datas.into_iter().enumerate() {
            let b = block + i as u32;
            if i == 0 {
                out = Some(data.clone());
            }
            inner.frames.insert(
                b,
                Frame {
                    data,
                    dirty: false,
                    lsn: 0,
                    ready_at: None,
                    last_use: tick,
                },
            );
        }
        Ok(out.expect("read returned at least one block"))
    }

    /// Longest run of uncached, allocated blocks starting at `block`,
    /// clipped to the bulk I/O maximum.
    fn contiguous_uncached_run(&self, inner: &PoolInner, block: BlockNo) -> usize {
        let max = self.sim.cost.bulk_io_max_blocks();
        let disk_len = self.disk.len_blocks() as u32;
        let mut run = 0usize;
        while run < max {
            let b = block + run as u32;
            if b >= disk_len || inner.frames.contains_key(&b) {
                break;
            }
            run += 1;
        }
        run.max(1)
    }

    /// Asynchronously pre-fetch a string of contiguous blocks starting at
    /// `from` (the B-tree scan announces the next leaf in the chain). The
    /// I/O runs on the disk's private timeline, overlapping the caller's
    /// CPU-bound record processing.
    pub fn prefetch(&self, from: BlockNo) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        self.maybe_prefetch(&mut inner, from, tick);
    }

    /// Asynchronously fetch the next uncached string starting at `from`.
    fn maybe_prefetch(&self, inner: &mut PoolInner, from: BlockNo, tick: u64) {
        let run = {
            let max = self.sim.cost.bulk_io_max_blocks();
            let disk_len = self.disk.len_blocks() as u32;
            let mut run = 0usize;
            while run < max {
                let b = from + run as u32;
                if b >= disk_len || inner.frames.contains_key(&b) {
                    break;
                }
                run += 1;
            }
            run
        };
        if run == 0 {
            return;
        }
        if self.make_room(inner, run).is_err() {
            return; // cannot evict enough: skip the pre-fetch
        }
        let Ok((datas, ready)) = self.disk.read_async(from, run) else {
            return; // hole in the file: skip
        };
        self.rec.add(Ctr::PrefetchReads, run as u64);
        self.sim
            .trace_emit(|| nsql_sim::trace::TraceEventKind::Prefetch { blocks: run as u64 });
        for (i, data) in datas.into_iter().enumerate() {
            inner.frames.insert(
                from + i as u32,
                Frame {
                    data,
                    dirty: false,
                    lsn: 0,
                    ready_at: Some(ready),
                    last_use: tick,
                },
            );
        }
    }

    /// Install new contents for a block, tagging it with the audit LSN that
    /// covers the change. Purely in-memory (no-force policy).
    pub fn write(&self, block: BlockNo, data: Vec<u8>, lsn: u64) -> Result<(), DiskError> {
        assert!(data.len() <= self.disk.block_size());
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(f) = inner.frames.get_mut(&block) {
            f.data = data;
            f.dirty = true;
            f.lsn = f.lsn.max(lsn);
            f.ready_at = None;
            f.last_use = tick;
            return Ok(());
        }
        self.make_room(&mut inner, 1)?;
        inner.frames.insert(
            block,
            Frame {
                data,
                dirty: true,
                lsn,
                ready_at: None,
                last_use: tick,
            },
        );
        Ok(())
    }

    /// Evict LRU frames until `need` new frames fit. The frames of one bulk
    /// string share a tick; among equals the lowest block goes first, so
    /// the choice does not depend on the map's iteration order.
    fn make_room(&self, inner: &mut PoolInner, need: usize) -> Result<(), DiskError> {
        let mut evicted = 0u64;
        while inner.frames.len() + need > self.capacity {
            let victim = inner
                .frames
                .iter()
                .map(|(b, f)| (f.last_use, *b))
                .min()
                .map(|(_, b)| b)
                .expect("capacity >= 8 so pool is nonempty when full");
            let f = inner.frames.remove(&victim).expect("victim exists");
            if f.dirty {
                // Steal of a dirty page: WAL first, then write it out.
                let now = self.sim.now();
                if !self.wal.durable(f.lsn, now) {
                    let done = self.wal.force(f.lsn, now);
                    self.sim.clock.advance_to_in(Wait::Commit, done);
                }
                self.disk.write(victim, std::slice::from_ref(&f.data))?;
            }
            self.sim.metrics.cache_steals.inc();
            evicted += 1;
        }
        if evicted > 0 {
            self.rec.add(Ctr::CacheEvicts, evicted);
            self.sim
                .trace_emit(|| nsql_sim::trace::TraceEventKind::CacheEvict { frames: evicted });
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
        let mut dirty: Vec<BlockNo> = inner
            .frames
            .iter()
            .filter(|(_, f)| f.dirty && self.wal.durable(f.lsn, now))
            .map(|(b, _)| *b)
            .collect();
        dirty.sort_unstable();
        let max = self.sim.cost.bulk_io_max_blocks();
        let mut written = 0usize;
        let mut i = 0;
        while i < dirty.len() {
            // Maximal contiguous run from i.
            let mut j = i + 1;
            while j < dirty.len() && dirty[j] == dirty[j - 1] + 1 && j - i < max {
                j += 1;
            }
            let start = dirty[i];
            let datas: Vec<Vec<u8>> = (i..j)
                .map(|k| inner.frames[&dirty[k]].data.clone())
                .collect();
            if self.disk.write_async(start, &datas).is_ok() {
                for b in &dirty[i..j] {
                    if let Some(f) = inner.frames.get_mut(b) {
                        f.dirty = false;
                    }
                }
                written += j - i;
            }
            i = j;
        }
        written
    }

    /// Flush every dirty block synchronously (checkpoint / orderly
    /// shutdown), respecting WAL.
    pub fn flush_all(&self) -> Result<(), DiskError> {
        let mut inner = self.inner.lock();
        let max_lsn = inner
            .frames
            .values()
            .filter(|f| f.dirty)
            .map(|f| f.lsn)
            .max()
            .unwrap_or(0);
        let now = self.sim.now();
        if max_lsn > 0 && !self.wal.durable(max_lsn, now) {
            let done = self.wal.force(max_lsn, now);
            self.sim.clock.advance_to_in(Wait::Commit, done);
        }
        let mut dirty: Vec<BlockNo> = inner
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(b, _)| *b)
            .collect();
        dirty.sort_unstable();
        let max = self.sim.cost.bulk_io_max_blocks();
        let mut i = 0;
        while i < dirty.len() {
            let mut j = i + 1;
            while j < dirty.len() && dirty[j] == dirty[j - 1] + 1 && j - i < max {
                j += 1;
            }
            let datas: Vec<Vec<u8>> = (i..j)
                .map(|k| inner.frames[&dirty[k]].data.clone())
                .collect();
            self.disk.write(dirty[i], &datas)?;
            for b in &dirty[i..j] {
                inner.frames.get_mut(b).expect("exists").dirty = false;
            }
            i = j;
        }
        Ok(())
    }

    /// Memory-pressure handshake: drop up to `n` clean frames. Returns how
    /// many were stolen.
    pub fn steal_clean(&self, n: usize) -> usize {
        let mut inner = self.inner.lock();
        let mut clean: Vec<(u64, BlockNo)> = inner
            .frames
            .iter()
            .filter(|(_, f)| !f.dirty && f.ready_at.is_none())
            .map(|(b, f)| (f.last_use, *b))
            .collect();
        clean.sort_unstable();
        let take = clean.len().min(n);
        for (_, b) in clean.into_iter().take(take) {
            inner.frames.remove(&b);
            self.sim.metrics.cache_steals.inc();
        }
        self.rec.add(Ctr::CacheEvicts, take as u64);
        take
    }

    /// Memory-pressure handshake: clean (write out) dirty frames so their
    /// memory becomes stealable. Uses the write-behind path.
    pub fn clean_dirty(&self) -> usize {
        self.write_behind()
    }

    /// Drop every frame without writing (crash simulation: cache contents
    /// are lost; the disk keeps only what was flushed).
    pub fn crash(&self) {
        self.inner.lock().frames.clear();
    }

    /// Number of cached frames (tests).
    pub fn cached_frames(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Number of dirty frames (tests).
    pub fn dirty_frames(&self) -> usize {
        self.inner
            .lock()
            .frames
            .values()
            .filter(|f| f.dirty)
            .count()
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
        assert_eq!(pool.read(2).unwrap(), vec![2u8; 64]);
        assert_eq!(pool.read(2).unwrap(), vec![2u8; 64]);
        let d = sim.metrics.since(&before);
        assert_eq!(d.cache_misses, 1);
        assert_eq!(d.cache_hits, 1);
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
                let mut blocks: Vec<BlockNo> = pool.inner.lock().frames.keys().copied().collect();
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
        let d = sim.metrics.since(&before);
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
        let d = sim.metrics.since(&before);
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
        let d = sim.metrics.since(&before);
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
        assert_eq!(sim.metrics.writebehind_writes.get(), 1);
        assert_eq!(sim.metrics.disk_blocks_written.get(), 4 + 8);
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
        assert!(sim.metrics.cache_steals.get() >= 4);
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
