#![warn(missing_docs)]
//! The record management component of the Disk Process.
//!
//! "The record management component of the Disk Process implements the
//! access methods supporting the file structures common to ENSCRIBE and
//! NonStop SQL: key-sequenced (B-Tree); relative (direct access);
//! entry-sequenced (direct access for reads, insert at EOF only)."
//!
//! All three access methods operate on 4 KB blocks obtained through a
//! [`BlockStore`] — in production the Disk Process's buffer pool, in tests
//! a [`MemStore`]. The B-tree implements splits and *collapses* (the
//! paper's term for structure shrinkage), which is what breaks physical
//! clustering and shortens the cache's bulk-I/O strings. Leaves are
//! free-at-empty: a delete merges a leaf into its sibling only once the
//! leaf is empty, so records deleted and inserted again refill the leaves
//! they left instead of re-homing them (internal nodes still rebalance
//! under a quarter of a block).
//!
//! A block is read as a [`Block`]: the store's own image, lent, never a
//! copy. The access methods search and iterate it where it is; one that
//! changes a block builds the new image (that is the one copy) and writes
//! it back whole, and one that only moves a block hands the image it read
//! straight back.

pub mod entryseq;
pub mod node;
pub mod relative;
pub mod tree;

pub use entryseq::EntrySequencedFile;
pub use relative::RelativeFile;
pub use tree::{BTreeFile, LeafRewrites, ScanControl, TreeError};

use std::cell::RefCell;
use std::collections::HashMap;

/// Block index within a volume (mirrors `nsql_disk::BlockNo` without the
/// dependency).
pub type BlockNo = u32;

/// One immutable, shared block image (the same type as `nsql_disk::Block`,
/// without the dependency).
pub type Block = std::sync::Arc<Vec<u8>>;

/// Abstract block storage: the Disk Process's cache, or memory in tests.
pub trait BlockStore {
    /// Block size in bytes.
    fn block_size(&self) -> usize;
    /// Read a block (point access): the store's image, lent.
    fn read(&self, block: BlockNo) -> Block;
    /// Read a block as part of a sequential scan. Implementations may apply
    /// bulk I/O; by default identical to [`BlockStore::read`].
    fn read_for_scan(&self, block: BlockNo) -> Block {
        self.read(block)
    }
    /// Advise that `block` will be needed soon (the B-tree scan announces
    /// the next leaf in the chain). Implementations may pre-fetch
    /// asynchronously; by default a no-op.
    fn will_need(&self, _block: BlockNo) {}
    /// Write (replace) a block: the store keeps `data` as the image.
    fn write(&self, block: BlockNo, data: Block);
    /// Allocate a fresh block number.
    fn alloc(&self) -> BlockNo;
    /// Return a block to the free pool.
    fn free(&self, block: BlockNo);
}

/// In-memory block store for unit and property tests.
#[derive(Default)]
pub struct MemStore {
    blocks: RefCell<HashMap<BlockNo, Block>>,
    next: RefCell<BlockNo>,
    free_list: RefCell<Vec<BlockNo>>,
    block_size: usize,
}

impl MemStore {
    /// A store with the standard 4 KB blocks.
    pub fn new() -> Self {
        Self::with_block_size(4096)
    }

    /// A store with custom-size blocks (small blocks force deep trees in
    /// tests).
    pub fn with_block_size(block_size: usize) -> Self {
        MemStore {
            blocks: RefCell::new(HashMap::new()),
            next: RefCell::new(0),
            free_list: RefCell::new(Vec::new()),
            block_size,
        }
    }

    /// Number of live (allocated, not freed) blocks.
    pub fn live_blocks(&self) -> usize {
        self.blocks.borrow().len()
    }

    /// The live blocks' numbers, ascending.
    pub fn live_block_numbers(&self) -> Vec<BlockNo> {
        let mut blocks: Vec<BlockNo> = self.blocks.borrow().keys().copied().collect();
        blocks.sort_unstable();
        blocks
    }
}

impl BlockStore for MemStore {
    fn block_size(&self) -> usize {
        self.block_size
    }
    fn read(&self, block: BlockNo) -> Block {
        let blocks = self.blocks.borrow();
        let image = blocks.get(&block);
        Block::clone(image.unwrap_or_else(|| panic!("read of unallocated block {block}")))
    }
    fn write(&self, block: BlockNo, data: Block) {
        assert!(data.len() <= self.block_size, "block overflow");
        self.blocks.borrow_mut().insert(block, data);
    }
    fn alloc(&self) -> BlockNo {
        if let Some(b) = self.free_list.borrow_mut().pop() {
            self.blocks.borrow_mut().insert(b, Block::default());
            return b;
        }
        let mut next = self.next.borrow_mut();
        let b = *next;
        *next += 1;
        self.blocks.borrow_mut().insert(b, Block::default());
        b
    }
    fn free(&self, block: BlockNo) {
        self.blocks.borrow_mut().remove(&block);
        self.free_list.borrow_mut().push(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_alloc_reuses_freed() {
        let s = MemStore::new();
        let a = s.alloc();
        let b = s.alloc();
        assert_ne!(a, b);
        s.free(a);
        let c = s.alloc();
        assert_eq!(c, a, "freed block is recycled");
        assert_eq!(s.live_blocks(), 2);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn memstore_read_unallocated_panics() {
        let s = MemStore::new();
        s.read(7);
    }
}
