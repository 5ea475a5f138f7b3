//! The simulation cost model.
//!
//! Absolute values are tunable and deliberately 1988-flavoured (slow disks,
//! expensive messages). The experiments depend on the *relationships* between
//! costs — e.g. a message costs far more than a cache hit, a random disk
//! access costs far more than a sequential continuation — which held for the
//! paper's hardware and still hold today.

use crate::clock::Micros;

/// All tunable cost constants of the simulated cluster.
#[derive(Debug, Clone)]
pub struct CostModel {
    // ----- message system -----
    /// Fixed cost of a request/reply exchange between processes on the same
    /// node (both CPUs' path length and bus transfer), in microseconds.
    pub msg_local_fixed_us: Micros,
    /// Fixed cost of a request/reply exchange crossing nodes.
    pub msg_remote_fixed_us: Micros,
    /// Per-byte cost (request + reply bytes) for intra-node messages, in
    /// nanoseconds per byte.
    pub msg_local_per_byte_ns: u64,
    /// Per-byte cost for inter-node messages, in nanoseconds per byte.
    pub msg_remote_per_byte_ns: u64,

    // ----- disk -----
    /// Positioning cost (seek + rotational latency) for a random access.
    pub disk_random_position_us: Micros,
    /// Positioning cost when the access continues where the previous one on
    /// the same volume left off (track-to-track / same cylinder).
    pub disk_sequential_position_us: Micros,
    /// Transfer time per 4 KB block.
    pub disk_transfer_per_block_us: Micros,

    // ----- CPU -----
    /// Duration of one abstract CPU work unit.
    pub cpu_work_unit_us: Micros,

    // ----- locks -----
    /// Virtual time a requester is charged when a lock request hits a
    /// conflicting holder (the blocked-then-bounced hop). Zero by default —
    /// conflicts fail fast — but the charge is attributed to
    /// [`crate::Wait::Lock`] so experiments can make lock waits visible in
    /// the wait profile by raising it.
    pub lock_wait_us: Micros,

    // ----- sizing (paper-mandated) -----
    /// Physical block size in bytes (the paper: "presently limited to 4K").
    pub block_size: usize,
    /// Maximum bulk I/O length in bytes (the paper: "presently limited to
    /// 28K bytes maximum").
    pub bulk_io_max: usize,
}

impl CostModel {
    /// Maximum number of blocks a single bulk I/O may transfer.
    pub fn bulk_io_max_blocks(&self) -> usize {
        self.bulk_io_max / self.block_size
    }

    /// Cost of a request/reply message exchange carrying `bytes` in total.
    pub fn msg_cost(&self, remote: bool, bytes: usize) -> Micros {
        let (fixed, per_byte_ns) = if remote {
            (self.msg_remote_fixed_us, self.msg_remote_per_byte_ns)
        } else {
            (self.msg_local_fixed_us, self.msg_local_per_byte_ns)
        };
        fixed + (bytes as u64 * per_byte_ns) / 1000
    }

    /// Cost of a disk I/O transferring `blocks` blocks, with or without a
    /// random positioning delay.
    pub fn disk_io_cost(&self, sequential: bool, blocks: usize) -> Micros {
        let position = if sequential {
            self.disk_sequential_position_us
        } else {
            self.disk_random_position_us
        };
        position + blocks as u64 * self.disk_transfer_per_block_us
    }

    /// A string of maximal sequential bulk I/Os moving `blocks` blocks in
    /// all: how many I/Os it takes, and what they cost together.
    pub fn bulk_string(&self, blocks: usize) -> (usize, Micros) {
        let ios = blocks.div_ceil(self.bulk_io_max_blocks());
        let position = ios as u64 * self.disk_sequential_position_us;
        (
            ios,
            position + blocks as u64 * self.disk_transfer_per_block_us,
        )
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            msg_local_fixed_us: 600,
            msg_remote_fixed_us: 3_000,
            msg_local_per_byte_ns: 100,
            msg_remote_per_byte_ns: 500,
            disk_random_position_us: 22_000,
            disk_sequential_position_us: 1_000,
            disk_transfer_per_block_us: 2_000,
            cpu_work_unit_us: 15,
            lock_wait_us: 0,
            block_size: 4096,
            bulk_io_max: 28 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_io_is_seven_blocks() {
        // The paper: 4K blocks, 28K bulk I/O maximum => strings of 7 blocks.
        let c = CostModel::default();
        assert_eq!(c.bulk_io_max_blocks(), 7);
    }

    #[test]
    fn a_bulk_string_is_its_ios_one_after_another() {
        let c = CostModel::default();
        // 7 + 7 + 3 blocks.
        let separately = 2 * c.disk_io_cost(true, 7) + c.disk_io_cost(true, 3);
        assert_eq!(c.bulk_string(17), (3, separately));
        assert_eq!(c.bulk_string(7), (1, c.disk_io_cost(true, 7)));
    }

    #[test]
    fn remote_messages_cost_more() {
        let c = CostModel::default();
        assert!(c.msg_cost(true, 100) > c.msg_cost(false, 100));
        assert!(c.msg_cost(false, 4096) > c.msg_cost(false, 0));
    }

    #[test]
    fn bulk_io_cheaper_than_separate_ios() {
        let c = CostModel::default();
        let bulk = c.disk_io_cost(false, 7);
        let separate = 7 * c.disk_io_cost(false, 1);
        assert!(
            bulk < separate / 3,
            "one 7-block bulk I/O ({bulk}) should be far cheaper than seven random I/Os ({separate})"
        );
    }
}
