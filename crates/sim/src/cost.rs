//! The simulation cost model.
//!
//! Absolute values are deliberately 1988-flavoured (slow disks, expensive
//! messages) and fixed: the paper measured one machine. The experiments
//! depend on the *relationships* between costs — e.g. a message costs far
//! more than a cache hit, a random disk access costs far more than a
//! sequential continuation — which held for the paper's hardware and still
//! hold today.

use crate::clock::Micros;

/// The cost constants of the simulated cluster. Every [`crate::Sim`] holds
/// this one model; the methods combine its constants into the charges
/// components make.
#[derive(Debug, Clone, Copy)]
pub struct CostModel;

impl CostModel {
    // ----- message system -----
    /// Fixed cost of a request/reply exchange between processes on the same
    /// node (both CPUs' path length and bus transfer), in microseconds.
    pub const MSG_LOCAL_FIXED_US: Micros = 600;
    /// Fixed cost of a request/reply exchange crossing nodes.
    pub const MSG_REMOTE_FIXED_US: Micros = 3_000;
    /// Per-byte cost (request + reply bytes) for intra-node messages, in
    /// nanoseconds per byte.
    pub const MSG_LOCAL_PER_BYTE_NS: u64 = 100;
    /// Per-byte cost for inter-node messages, in nanoseconds per byte.
    pub const MSG_REMOTE_PER_BYTE_NS: u64 = 500;

    // ----- disk -----
    /// Positioning cost (seek + rotational latency) for a random access.
    pub const DISK_RANDOM_POSITION_US: Micros = 22_000;
    /// Positioning cost when the access continues where the previous one on
    /// the same volume left off (track-to-track / same cylinder).
    pub const DISK_SEQUENTIAL_POSITION_US: Micros = 1_000;
    /// Transfer time per 4 KB block.
    pub const DISK_TRANSFER_PER_BLOCK_US: Micros = 2_000;

    // ----- CPU -----
    /// Duration of one abstract CPU work unit.
    pub const CPU_WORK_UNIT_US: Micros = 15;

    // ----- sizing (paper-mandated) -----
    /// Physical block size in bytes (the paper: "presently limited to 4K").
    pub const BLOCK_SIZE: usize = 4096;
    /// Maximum bulk I/O length in bytes (the paper: "presently limited to
    /// 28K bytes maximum").
    pub const BULK_IO_MAX: usize = 28 * 1024;

    /// Maximum number of blocks a single bulk I/O may transfer.
    pub fn bulk_io_max_blocks(&self) -> usize {
        Self::BULK_IO_MAX / Self::BLOCK_SIZE
    }

    /// Cost of a request/reply message exchange carrying `bytes` in total.
    pub fn msg_cost(&self, remote: bool, bytes: usize) -> Micros {
        let (fixed, per_byte_ns) = if remote {
            (Self::MSG_REMOTE_FIXED_US, Self::MSG_REMOTE_PER_BYTE_NS)
        } else {
            (Self::MSG_LOCAL_FIXED_US, Self::MSG_LOCAL_PER_BYTE_NS)
        };
        fixed + (bytes as u64 * per_byte_ns) / 1000
    }

    /// Cost of a disk I/O transferring `blocks` blocks, with or without a
    /// random positioning delay.
    pub fn disk_io_cost(&self, sequential: bool, blocks: usize) -> Micros {
        let position = if sequential {
            Self::DISK_SEQUENTIAL_POSITION_US
        } else {
            Self::DISK_RANDOM_POSITION_US
        };
        position + blocks as u64 * Self::DISK_TRANSFER_PER_BLOCK_US
    }

    /// A string of maximal sequential bulk I/Os moving `blocks` blocks in
    /// all: how many I/Os it takes, and what they cost together.
    pub fn bulk_string(&self, blocks: usize) -> (usize, Micros) {
        let ios = blocks.div_ceil(self.bulk_io_max_blocks());
        let position = ios as u64 * Self::DISK_SEQUENTIAL_POSITION_US;
        (
            ios,
            position + blocks as u64 * Self::DISK_TRANSFER_PER_BLOCK_US,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_io_is_seven_blocks() {
        // The paper: 4K blocks, 28K bulk I/O maximum => strings of 7 blocks.
        assert_eq!(CostModel.bulk_io_max_blocks(), 7);
    }

    #[test]
    fn a_bulk_string_is_its_ios_one_after_another() {
        let c = CostModel;
        // 7 + 7 + 3 blocks.
        let separately = 2 * c.disk_io_cost(true, 7) + c.disk_io_cost(true, 3);
        assert_eq!(c.bulk_string(17), (3, separately));
        assert_eq!(c.bulk_string(7), (1, c.disk_io_cost(true, 7)));
    }

    #[test]
    fn remote_messages_cost_more() {
        let c = CostModel;
        assert!(c.msg_cost(true, 100) > c.msg_cost(false, 100));
        assert!(c.msg_cost(false, 4096) > c.msg_cost(false, 0));
    }

    #[test]
    fn bulk_io_cheaper_than_separate_ios() {
        let c = CostModel;
        let bulk = c.disk_io_cost(false, 7);
        let separate = 7 * c.disk_io_cost(false, 1);
        assert!(
            bulk < separate / 3,
            "one 7-block bulk I/O ({bulk}) should be far cheaper than seven random I/Os ({separate})"
        );
    }
}
