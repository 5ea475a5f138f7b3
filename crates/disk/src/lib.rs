#![warn(missing_docs)]
//! Simulated disk volumes.
//!
//! A [`Disk`] is the physical device behind one Disk Process: an array of
//! 4 KB blocks with a positioning/transfer cost model, optional mirroring,
//! and failure injection. Three properties from the paper are modelled
//! faithfully:
//!
//! * **Bulk I/O** — one operation may transfer a contiguous string of blocks
//!   (up to 28 KB) for a single positioning cost.
//! * **Sequentiality** — an access that continues where the previous one
//!   ended pays a small positioning cost instead of a full seek.
//! * **Asynchrony** — an asynchronous [`Disk::fetch`] schedules an I/O on the disk's
//!   private busy-timeline *without* blocking the virtual clock, so the
//!   cache's pre-fetcher can overlap I/O with CPU-bound processing ("allows
//!   cpu-bound processing using data from the cache to occur in parallel
//!   with disk I/O's").

use nsql_sim::measure::{EntityKind, MeasureRecord};
use nsql_sim::sync::Mutex;
use nsql_sim::{CostModel, Event, Micros, Sim, Wait};
use std::sync::Arc;

/// Index of a block on a volume.
pub type BlockNo = u32;

/// One block image: immutable bytes behind a reference count. The platter,
/// a cache frame and every reader hold the *same* image; a read at any level
/// is a count bump, and whoever changes a block builds a new image and
/// replaces the old one wholesale, so an image once handed out never changes.
pub type Block = Arc<Vec<u8>>;

/// Errors from the disk driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// Read of a block that was never written.
    Unallocated(BlockNo),
    /// Injected write failure.
    WriteFailed,
    /// Both mirrored drives have failed.
    MediaFailure,
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Unallocated(b) => write!(f, "block {b} unallocated"),
            DiskError::WriteFailed => write!(f, "injected write failure"),
            DiskError::MediaFailure => write!(f, "both mirrored drives failed"),
        }
    }
}

impl std::error::Error for DiskError {}

#[derive(Debug, Default)]
struct DiskState {
    blocks: Vec<Option<Block>>,
    /// Block following the last one touched — for sequentiality detection.
    next_sequential: Option<BlockNo>,
    /// Device busy-timeline: virtual time at which the arm becomes free.
    busy_until: Micros,
    /// When each block's last asynchronous write begins on the device
    /// timeline: until then it is queued, and another asynchronous write
    /// of the block is the same I/O.
    write_begins: Vec<Micros>,
    /// Remaining injected write failures.
    write_failures_pending: u32,
    /// Mirror halves still alive (ignored when not mirrored).
    drives_alive: [bool; 2],
}

/// One simulated disk volume (optionally a mirrored pair).
pub struct Disk {
    sim: Sim,
    /// Volume name, e.g. `$DATA1`.
    pub name: String,
    mirrored: bool,
    /// The volume's MEASURE counter record.
    rec: Arc<MeasureRecord>,
    state: Mutex<DiskState>,
}

impl Disk {
    /// Create a volume. `mirrored` volumes survive a single drive failure.
    pub fn new(sim: Sim, name: impl Into<String>, mirrored: bool) -> Arc<Self> {
        let name = name.into();
        let rec = sim.measure.entity(EntityKind::Volume, &name);
        Arc::new(Disk {
            sim,
            name,
            mirrored,
            rec,
            state: Mutex::new(DiskState {
                drives_alive: [true, true],
                ..DiskState::default()
            }),
        })
    }

    /// Block size in bytes (from the cost model; the paper's 4 KB).
    pub fn block_size(&self) -> usize {
        CostModel::BLOCK_SIZE
    }

    /// Number of allocated (ever-written) block slots.
    pub fn len_blocks(&self) -> usize {
        self.state.lock().blocks.len()
    }

    /// Fault injection: the next `n` writes fail.
    pub fn inject_write_failures(&self, n: u32) {
        self.state.lock().write_failures_pending = n;
    }

    /// Fault injection: fail one half of a mirrored pair.
    pub fn fail_drive(&self, which: usize) {
        self.state.lock().drives_alive[which] = false;
    }

    /// Is any half of the volume still serving I/O?
    pub fn media_alive(&self) -> bool {
        self.check_media(&self.state.lock()).is_ok()
    }

    /// Indexes of failed drive halves (at most `[0]` when unmirrored).
    pub fn dead_drives(&self) -> Vec<usize> {
        let st = self.state.lock();
        let halves = if self.mirrored { 2 } else { 1 };
        (0..halves).filter(|&i| !st.drives_alive[i]).collect()
    }

    /// Repair a failed drive. When the other half of a mirrored pair
    /// survived, its contents are copied back onto the replacement before
    /// the drive rejoins the pair: a sequential bulk copy of every
    /// allocated block, charged to the device timeline and to
    /// [`Wait::Restart`] on the virtual clock (recovery work, not
    /// foreground I/O). Emits a `disk.remirror` trace event. Returns the
    /// time at which the drive is back in service.
    pub fn repair_drive(&self, which: usize) -> Micros {
        let mut st = self.state.lock();
        let other_alive = st.drives_alive[1 - which];
        st.drives_alive[which] = true;
        let nblocks = st.blocks.iter().filter(|b| b.is_some()).count();
        if !(self.mirrored && other_alive) || nblocks == 0 {
            // Nothing to copy: an unmirrored revive (media recovery is the
            // Disk Process's job, from the audit trail) or an empty volume.
            return self.sim.now();
        }
        // Copy-back: strings of maximal sequential bulk I/Os from the
        // surviving half to the replacement.
        let (_, total) = self.sim.cost.bulk_string(nblocks);
        let begin = st.busy_until.max(self.sim.now());
        let end = begin + total;
        st.busy_until = end;
        st.next_sequential = None;
        drop(st);
        self.sim.emit(&self.rec, Event::Remirror(nblocks as u64));
        self.sim.clock.advance_to_in(Wait::Restart, end);
        end
    }

    fn check_media(&self, st: &DiskState) -> Result<(), DiskError> {
        let alive = if self.mirrored {
            st.drives_alive[0] || st.drives_alive[1]
        } else {
            st.drives_alive[0]
        };
        if alive {
            Ok(())
        } else {
            Err(DiskError::MediaFailure)
        }
    }

    /// Account one I/O of `nblocks` starting at `start` on the device
    /// timeline; returns the completion time. Blocks the virtual clock when
    /// `synchronous`, otherwise only occupies the device.
    fn account_io(
        &self,
        st: &mut DiskState,
        start: BlockNo,
        nblocks: usize,
        is_write: bool,
        synchronous: bool,
    ) -> Micros {
        let sequential = st.next_sequential == Some(start);
        let cost = self.sim.cost.disk_io_cost(sequential, nblocks);
        let begin = st.busy_until.max(self.sim.now());
        let end = begin + cost;
        st.busy_until = end;
        st.next_sequential = Some(start + nblocks as u32);

        let io = Event::DiskIo {
            write: is_write,
            blocks: nblocks as u64,
            synchronous,
        };
        self.sim.emit(&self.rec, io);
        if synchronous {
            self.sim.clock.advance_to_in(Wait::Disk, end);
        }
        end
    }

    /// Synchronously read `nblocks` contiguous blocks starting at `start`
    /// as one (possibly bulk) I/O.
    pub fn read(&self, start: BlockNo, nblocks: usize) -> Result<Vec<Block>, DiskError> {
        let mut out = Vec::with_capacity(nblocks);
        self.fetch(start, nblocks, true, &mut out)?;
        Ok(out)
    }

    /// One read I/O of `nblocks` contiguous blocks starting at `start`:
    /// appends the images on the platter, shared, to `out` (a buffer the
    /// caller keeps, so the read allocates nothing) and returns the I/O's
    /// completion time. A synchronous read advances the clock to it; an
    /// asynchronous one (pre-fetch) leaves the clock alone, and the caller
    /// must not *use* the images before advancing it there (the cache does
    /// this). A block not on the platter fails the read and appends
    /// nothing.
    pub fn fetch(
        &self,
        start: BlockNo,
        nblocks: usize,
        synchronous: bool,
        out: &mut Vec<Block>,
    ) -> Result<Micros, DiskError> {
        assert!(nblocks >= 1);
        assert!(
            nblocks * self.block_size() <= CostModel::BULK_IO_MAX,
            "bulk I/O limited to {} bytes",
            CostModel::BULK_IO_MAX
        );
        let mut st = self.state.lock();
        self.check_media(&st)?;
        let had = out.len();
        for b in start..start + nblocks as BlockNo {
            match st.blocks.get(b as usize).and_then(Option::as_ref) {
                Some(data) => out.push(Arc::clone(data)),
                None => {
                    out.truncate(had);
                    return Err(DiskError::Unallocated(b));
                }
            }
        }
        Ok(self.account_io(&mut st, start, nblocks, false, synchronous))
    }

    /// Synchronously write a contiguous string of blocks as one (possibly
    /// bulk) I/O. Mirrored volumes write both halves in parallel (same
    /// cost). A [`Block`] is stored as the image it is; bytes are copied
    /// into a new one.
    pub fn write<B: Clone + Into<Block>>(
        &self,
        start: BlockNo,
        blocks: &[B],
    ) -> Result<(), DiskError> {
        self.store(start, blocks, true).map(|_| ())
    }

    /// Schedule an asynchronous write (write-behind). The data is durable
    /// once the returned completion time has been reached. When every
    /// block's last asynchronous write is still queued, not begun, that
    /// write takes the new images: the device does no more work, and the
    /// completion time returned is when its queue drains.
    pub fn write_async<B: Clone + Into<Block>>(
        &self,
        start: BlockNo,
        blocks: &[B],
    ) -> Result<Micros, DiskError> {
        self.store(start, blocks, false)
    }

    /// One write I/O: returns its completion time.
    fn store<B: Clone + Into<Block>>(
        &self,
        start: BlockNo,
        blocks: &[B],
        synchronous: bool,
    ) -> Result<Micros, DiskError> {
        assert!(!blocks.is_empty());
        assert!(
            blocks.len() * self.block_size() <= CostModel::BULK_IO_MAX,
            "bulk I/O limited to {} bytes",
            CostModel::BULK_IO_MAX
        );
        let mut st = self.state.lock();
        self.check_media(&st)?;
        if st.write_failures_pending > 0 {
            st.write_failures_pending -= 1;
            return Err(DiskError::WriteFailed);
        }
        let range = start as usize..start as usize + blocks.len();
        if st.blocks.len() < range.end {
            st.blocks.resize(range.end, None);
            st.write_begins.resize(range.end, 0);
        }
        let bs = self.block_size();
        for (i, data) in blocks.iter().enumerate() {
            let data: Block = data.clone().into();
            assert!(data.len() <= bs, "block exceeds {bs} bytes");
            st.blocks[start as usize + i] = Some(data);
        }
        if !synchronous {
            let now = self.sim.now();
            if st.write_begins[range.clone()].iter().all(|&at| at > now) {
                return Ok(st.busy_until);
            }
            let begins = st.busy_until.max(now);
            st.write_begins[range].fill(begins);
        }
        Ok(self.account_io(&mut st, start, blocks.len(), true, synchronous))
    }

    /// Time at which the device becomes idle (for tests and the
    /// write-behind scheduler).
    pub fn busy_until(&self) -> Micros {
        self.state.lock().busy_until
    }

    /// Drop all contents and reset timelines — used to simulate a volume
    /// restored from scratch in recovery tests.
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.blocks.clear();
        st.write_begins.clear();
        st.next_sequential = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_sim::Ctr;

    fn disk() -> (Sim, Arc<Disk>) {
        let sim = Sim::new();
        let d = Disk::new(sim.clone(), "$DATA1", false);
        (sim, d)
    }

    fn block(fill: u8, size: usize) -> Vec<u8> {
        vec![fill; size]
    }

    #[test]
    fn write_then_read_round_trips() {
        let (_sim, d) = disk();
        let b = block(7, d.block_size());
        d.write(3, std::slice::from_ref(&b)).unwrap();
        assert_eq!(*d.read(3, 1).unwrap()[0], b);
    }

    #[test]
    fn a_read_lends_the_platter_image() {
        let (_sim, d) = disk();
        let image: Block = Arc::new(block(7, d.block_size()));
        d.write(3, std::slice::from_ref(&image)).unwrap();
        // The image written is the image read, twice over: no copy on the
        // way down or on the way up.
        let first = d.read(3, 1).unwrap().remove(0);
        let mut again = Vec::new();
        d.fetch(3, 1, false, &mut again).unwrap();
        assert!(Arc::ptr_eq(&first, &image));
        assert!(Arc::ptr_eq(&again[0], &image));
        // A later write replaces the block wholesale; what a reader holds
        // is a snapshot.
        d.write(3, &[block(9, 16)]).unwrap();
        assert_eq!(*first, block(7, d.block_size()));
        assert_eq!(*d.read(3, 1).unwrap()[0], block(9, 16));
    }

    #[test]
    fn unallocated_read_errors() {
        let (_sim, d) = disk();
        assert_eq!(d.read(9, 1), Err(DiskError::Unallocated(9)));
    }

    #[test]
    fn sequential_access_is_cheaper() {
        let (sim, d) = disk();
        let b = block(1, 512);
        for i in 0..4 {
            d.write(i, std::slice::from_ref(&b)).unwrap();
        }
        // Random read of block 0 (arm was left after block 3).
        let t0 = sim.now();
        d.read(0, 1).unwrap();
        let random_cost = sim.now() - t0;
        // Sequential read of block 1.
        let t1 = sim.now();
        d.read(1, 1).unwrap();
        let seq_cost = sim.now() - t1;
        assert!(seq_cost < random_cost / 5);
    }

    #[test]
    fn bulk_io_counts_once() {
        let (sim, d) = disk();
        let blocks: Vec<_> = (0..7).map(|i| block(i, 512)).collect();
        d.write(0, &blocks).unwrap();
        let s = sim.metrics.snapshot();
        assert_eq!(s.disk_writes, 1);
        assert_eq!(s.disk_blocks_written, 7);
        assert_eq!(s.disk_bulk_ios, 1);
        d.read(0, 7).unwrap();
        let s = sim.metrics.snapshot();
        assert_eq!(s.disk_reads, 1);
        assert_eq!(s.disk_blocks_read, 7);
    }

    #[test]
    fn volume_measure_record_mirrors_the_metrics() {
        let (sim, d) = disk();
        let blocks: Vec<_> = (0..7).map(|i| block(i, 512)).collect();
        d.write(0, &blocks).unwrap();
        d.read(0, 7).unwrap();
        let snap = sim.measure_snapshot();
        assert_eq!(snap.get(EntityKind::Volume, "$DATA1", Ctr::DiskWrites), 1);
        assert_eq!(
            snap.get(EntityKind::Volume, "$DATA1", Ctr::BlocksWritten),
            7
        );
        assert_eq!(snap.get(EntityKind::Volume, "$DATA1", Ctr::DiskReads), 1);
        assert_eq!(snap.get(EntityKind::Volume, "$DATA1", Ctr::BlocksRead), 7);
        assert_eq!(snap.get(EntityKind::Volume, "$DATA1", Ctr::BulkIos), 2);
    }

    #[test]
    #[should_panic(expected = "bulk I/O limited")]
    fn oversized_bulk_io_rejected() {
        let (_sim, d) = disk();
        let blocks: Vec<_> = (0..8).map(|_| block(0, 4096)).collect();
        d.write(0, &blocks).unwrap();
    }

    #[test]
    fn async_read_overlaps_cpu() {
        let (sim, d) = disk();
        let b = block(5, 512);
        d.write(0, std::slice::from_ref(&b)).unwrap();
        let now = sim.now();
        let done = d.fetch(0, 1, false, &mut Vec::new()).unwrap();
        // The clock did not move...
        assert_eq!(sim.now(), now);
        // ... but the device is busy until `done`.
        assert!(done > now);
        assert_eq!(d.busy_until(), done);
        assert_eq!(sim.metrics.snapshot().prefetch_reads, 1);
    }

    #[test]
    fn device_timeline_serialises_ios() {
        let (sim, d) = disk();
        let b = block(2, 512);
        d.write(0, std::slice::from_ref(&b)).unwrap();
        let done1 = d.fetch(0, 1, false, &mut Vec::new()).unwrap();
        let done2 = d.fetch(0, 1, false, &mut Vec::new()).unwrap();
        assert!(done2 > done1, "second I/O queues behind the first");
        // A synchronous read must wait for the queue.
        d.read(0, 1).unwrap();
        assert!(sim.now() >= done2);
    }

    #[test]
    fn a_write_behind_still_queued_takes_the_next_image_of_its_blocks() {
        let (sim, d) = disk();
        let (one, two) = (block(1, 512), block(2, 512));
        // A read keeps the device busy, so the writes queue behind it.
        d.write(0, &[one.clone(), one.clone()]).unwrap();
        d.fetch(0, 2, false, &mut Vec::new()).unwrap();
        let done = d.write_async(0, &[one.clone(), one.clone()]).unwrap();
        let writes = sim.metrics.snapshot().disk_writes;
        // Queued, not begun: the same I/O, with the new images.
        assert_eq!(d.write_async(0, &[two.clone(), two.clone()]), Ok(done));
        assert_eq!(d.busy_until(), done);
        assert_eq!(sim.metrics.snapshot().disk_writes, writes);
        // Begun (a synchronous read waits for the queue): a new I/O.
        assert_eq!(*d.read(1, 1).unwrap()[0], two);
        d.fetch(0, 2, false, &mut Vec::new()).unwrap();
        d.write_async(1, std::slice::from_ref(&one)).unwrap();
        assert_eq!(sim.metrics.snapshot().disk_writes, writes + 1);
        // Only partly queued: a new I/O too.
        d.write_async(0, &[two.clone(), two]).unwrap();
        assert_eq!(sim.metrics.snapshot().disk_writes, writes + 2);
    }

    #[test]
    fn write_failure_injection() {
        let (_sim, d) = disk();
        d.inject_write_failures(1);
        let b = block(0, 16);
        assert_eq!(
            d.write(0, std::slice::from_ref(&b)),
            Err(DiskError::WriteFailed)
        );
        assert!(d.write(0, std::slice::from_ref(&b)).is_ok());
    }

    #[test]
    fn mirrored_survives_single_drive_failure() {
        let sim = Sim::new();
        let d = Disk::new(sim, "$MIR", true);
        let b = block(9, 16);
        d.write(0, std::slice::from_ref(&b)).unwrap();
        d.fail_drive(0);
        assert_eq!(*d.read(0, 1).unwrap()[0], b);
        d.fail_drive(1);
        assert_eq!(d.read(0, 1), Err(DiskError::MediaFailure));
        d.repair_drive(0);
        assert!(d.read(0, 1).is_ok());
    }

    #[test]
    fn unmirrored_dies_with_its_drive() {
        let sim = Sim::new();
        let d = Disk::new(sim, "$SOLO", false);
        let b = block(1, 16);
        d.write(0, std::slice::from_ref(&b)).unwrap();
        d.fail_drive(0);
        assert_eq!(d.read(0, 1), Err(DiskError::MediaFailure));
    }

    #[test]
    fn mirrored_repair_charges_copy_back_time() {
        let sim = Sim::new();
        let d = Disk::new(sim.clone(), "$MIR", true);
        let b = block(3, d.block_size());
        for i in 0..10 {
            d.write(i, std::slice::from_ref(&b)).unwrap();
        }
        d.fail_drive(1);
        let before = sim.now();
        let p0 = sim.clock.profile();
        let end = d.repair_drive(1);
        assert!(end > before, "copy-back must consume virtual time");
        assert_eq!(sim.now(), end, "repair is synchronous");
        let delta = sim.clock.profile() - p0;
        assert_eq!(
            delta.get(Wait::Restart),
            end - before,
            "copy-back time is charged to wait.restart"
        );
        assert!(d.read(0, 1).is_ok());
    }

    #[test]
    fn repair_without_a_survivor_copies_nothing() {
        let sim = Sim::new();
        let d = Disk::new(sim.clone(), "$SOLO", false);
        let b = block(1, 16);
        d.write(0, std::slice::from_ref(&b)).unwrap();
        d.fail_drive(0);
        let before = sim.now();
        // No mirror to copy from: the revive itself is instant (rebuilding
        // the contents from the audit trail is the Disk Process's job).
        let end = d.repair_drive(0);
        assert_eq!(end, before);
        assert_eq!(sim.now(), before);
    }
}
