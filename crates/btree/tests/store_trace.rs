//! The B-tree's `BlockStore` call trace is part of its contract.
//!
//! In the Disk Process the store is the buffer pool, so *which* blocks a
//! tree operation reads, writes, allocates and frees — in which order, with
//! which bytes — decides cache hits, LRU order, write-behind strings and
//! through them every virtual metric. This test hashes every call a seeded
//! script makes and pins the hash: a change to how nodes are accessed must
//! leave it alone; only a deliberate change to the access pattern or the
//! node format may move it (and must then re-record it).

use nsql_btree::{BTreeFile, Block, BlockNo, BlockStore, MemStore, ScanControl};
use nsql_sim::SimRng;
use std::cell::Cell;
use std::ops::Bound;

/// The first byte of an internal node's block (`node.rs`).
const INTERNAL_TAG: u8 = 0x02;

/// FNV-1a over every `BlockStore` call made through it.
struct TraceStore {
    inner: MemStore,
    hash: Cell<u64>,
    calls: Cell<u64>,
    /// Internal nodes' blocks freed (seen past the trace).
    internal_frees: Cell<u64>,
}

impl TraceStore {
    fn new(block_size: usize) -> Self {
        TraceStore {
            inner: MemStore::with_block_size(block_size),
            hash: Cell::new(0xcbf2_9ce4_8422_2325),
            calls: Cell::new(0),
            internal_frees: Cell::new(0),
        }
    }

    fn record(&self, kind: u8, block: BlockNo, bytes: &[u8]) {
        let call = [kind]
            .into_iter()
            .chain(block.to_be_bytes())
            .chain((bytes.len() as u32).to_be_bytes())
            .chain(bytes.iter().copied());
        let mut h = self.hash.get();
        for b in call {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.hash.set(h);
        self.calls.set(self.calls.get() + 1);
    }
}

impl BlockStore for TraceStore {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn read(&self, block: BlockNo) -> Block {
        let data = self.inner.read(block);
        self.record(b'r', block, &data);
        data
    }
    fn read_for_scan(&self, block: BlockNo) -> Block {
        let data = self.inner.read_for_scan(block);
        self.record(b's', block, &data);
        data
    }
    fn will_need(&self, block: BlockNo) {
        self.record(b'n', block, &[]);
    }
    fn write(&self, block: BlockNo, data: Block) {
        self.record(b'w', block, &data);
        self.inner.write(block, data);
    }
    fn alloc(&self) -> BlockNo {
        let block = self.inner.alloc();
        self.record(b'a', block, &[]);
        block
    }
    fn free(&self, block: BlockNo) {
        self.record(b'f', block, &[]);
        if self.inner.read(block)[0] == INTERNAL_TAG {
            self.internal_frees.set(self.internal_frees.get() + 1);
        }
        self.inner.free(block);
    }
}

/// Re-recorded when an insert past a leaf's last key came to split at the
/// insertion point (and an internal node whose new separator lands last
/// to promote the one before it): the script's inserts past the largest
/// key leave full leaves behind. Before: 11,857 calls, hash
/// `0x10c8_07ab_6cb9_356c`.
const PINNED_CALLS: u64 = 11_957;
const PINNED_HASH: u64 = 0x581e_44cb_f770_a9da;

#[test]
fn block_store_call_trace_is_pinned() {
    let store = TraceStore::new(256);
    let tree = BTreeFile::open(&store, BTreeFile::create(&store));
    let mut rng = SimRng::seed_from(0x7ACE);
    let key = |k: u64| (k as u16).to_be_bytes().to_vec();
    // Variable-length values (some empty) move the size-based split,
    // merge and borrow decisions around.
    let val = |v: u64| vec![v as u8; v as usize % 41];
    for step in 0..3000u32 {
        // Grow for the first third, then mix, then shrink: on the recorded
        // run the script crosses two root splits (the second of an internal
        // root) and 9 rebalances, each of a leaf its deletes emptied.
        let delete_weight = match step {
            0..=999 => 1,
            1000..=1999 => 3,
            _ => 24,
        };
        let k = key(rng.below(600));
        let v = val(rng.below(256));
        match rng.below(8 + delete_weight) {
            0 | 1 => drop(tree.insert(&k, &v)),
            2 => drop(tree.update(&k, &v)),
            3 => drop(tree.put(&k, &v)),
            4 => drop(tree.get(&k)),
            5 => {
                let limit = 1 + rng.below(40);
                let start = match rng.below(3) {
                    0 => Bound::Unbounded,
                    1 => Bound::Included(&k[..]),
                    _ => Bound::Excluded(&k[..]),
                };
                let mut seen = 0;
                tree.scan(start, |_, _| {
                    seen += 1;
                    if seen >= limit {
                        ScanControl::Stop
                    } else {
                        ScanControl::Continue
                    }
                });
            }
            6 => drop(tree.is_empty()),
            _ => drop(tree.delete(&k)),
        }
    }
    let (calls, hash) = (store.calls.get(), store.hash.get());
    tree.validate();
    assert!(!tree.is_empty(), "script should not end on an empty tree");
    assert_eq!(
        (calls, hash),
        (PINNED_CALLS, PINNED_HASH),
        "BlockStore call trace moved: {calls} calls, hash {hash:#018x}"
    );
}

/// Internal levels from the root of `tree` down to its leaves, read past
/// the trace.
fn internal_levels(store: &TraceStore, tree: &BTreeFile<'_, TraceStore>) -> u32 {
    let (mut block, mut levels) = (tree.root(), 0);
    loop {
        let node = store.inner.read(block);
        if node[0] != INTERNAL_TAG {
            return levels;
        }
        levels += 1;
        block = BlockNo::from_be_bytes([node[3], node[4], node[5], node[6]]);
    }
}

/// The first pin's shrink phase deletes at random, and free-at-empty
/// leaves empty too rarely there to take an internal node below its
/// quarter or to collapse the root. This script grows a tree past two
/// internal levels, then deletes it whole, key range after key range in
/// key order: internal nodes underflow and are freed, the root collapses
/// level by level, and one block is left. Re-recorded with the split at
/// the insertion point, as above. Before: 137,024 calls, hash
/// `0xfd36_c570_6ff5_b66c`.
const SHRINK_CALLS: u64 = 133_649;
const SHRINK_HASH: u64 = 0xf2bc_f225_1e44_a21d;

#[test]
fn block_store_call_trace_of_a_tree_deleted_range_by_range_is_pinned() {
    let store = TraceStore::new(256);
    let tree = BTreeFile::open(&store, BTreeFile::create(&store));
    let mut rng = SimRng::seed_from(0x5EED);
    let key = |k: u64| (k as u32).to_be_bytes().to_vec();
    const KEYS: u64 = 12_000;
    for _ in 0..KEYS {
        let k = rng.below(KEYS);
        assert!(tree.put(&key(k), &vec![k as u8; k as usize % 13]).is_ok());
    }
    let grown = internal_levels(&store, &tree);
    assert!(grown > 2, "the tree grew to {grown} internal levels");
    // Ranges in a scattered order, each deleted in key order.
    let ranges = 10;
    let width = KEYS / ranges;
    for r in (0..ranges).map(|r| r * 3 % ranges) {
        for k in r * width..(r + 1) * width {
            drop(tree.delete(&key(k)));
        }
    }
    let (calls, hash) = (store.calls.get(), store.hash.get());
    tree.validate();
    assert!(tree.is_empty());
    assert!(
        store.internal_frees.get() > 0,
        "no internal block was freed"
    );
    assert_eq!(store.inner.live_blocks(), 1, "only the root is left");
    assert_eq!(internal_levels(&store, &tree), 0);
    assert_eq!(
        (calls, hash),
        (SHRINK_CALLS, SHRINK_HASH),
        "BlockStore call trace moved: {calls} calls, hash {hash:#018x}, {} internal frees",
        store.internal_frees.get()
    );
}

/// Two identical trees over 256-byte blocks, three levels deep.
fn twin_trees() -> [TraceStore; 2] {
    let stores = [TraceStore::new(256), TraceStore::new(256)];
    for store in &stores {
        let tree = BTreeFile::open(store, BTreeFile::create(store));
        for k in 0..2_000u32 {
            assert!(tree.insert(&k.to_be_bytes(), &[k as u8; 9]).is_ok());
        }
        assert_eq!(internal_levels(store, &tree), 2);
    }
    stores
}

#[test]
fn a_leaf_rewrite_of_one_record_makes_the_calls_of_update_and_of_delete() {
    let [each, by_leaf] = twin_trees();
    let (a, b) = (BTreeFile::open(&each, 0), BTreeFile::open(&by_leaf, 0));
    for k in [0u32, 2, 777, 1_997] {
        let key = k.to_be_bytes();
        assert!(a.update(&key, &[1; 12]).is_ok());
        let mut leaves = b.leaf_rewrites();
        assert!(leaves.stage(&key, Some(&[1; 12])));
        leaves.finish();
        assert_eq!(
            (by_leaf.calls.get(), by_leaf.hash.get()),
            (each.calls.get(), each.hash.get()),
            "update of {k}"
        );

        let key = (k + 1).to_be_bytes();
        assert!(a.delete(&key).is_ok());
        let mut leaves = b.leaf_rewrites();
        assert!(leaves.stage(&key, None));
        leaves.finish();
        assert_eq!(
            (by_leaf.calls.get(), by_leaf.hash.get()),
            (each.calls.get(), each.hash.get()),
            "delete of {}",
            k + 1
        );
    }
}

/// Ascending changes a leaf at a time, as the Disk Process's set writes
/// make them: the leaf's changes in place in one image, and through
/// `update` / `delete` where the leaf refuses one (it would overflow, or
/// be emptied). Re-recorded with the split at the insertion point: the
/// twin trees are loaded in key order. Before: 13,635 calls, hash
/// `0xce53_c5ea_9756_dfe1`.
const BY_LEAF_CALLS: u64 = 13_730;
const BY_LEAF_HASH: u64 = 0x7917_7463_3e82_f2c5;

#[test]
fn block_store_call_trace_of_leaf_rewrites_is_pinned() {
    let [store, _] = twin_trees();
    let tree = BTreeFile::open(&store, 0);
    let mut rng = SimRng::seed_from(0x1EAF);
    let (mut refused, mut freed, mut missing) = (0, 0, 0);
    for _ in 0..60 {
        let lo = rng.below(1_900) as u32;
        let delete = rng.below(3) == 0;
        let hi = lo + 1 + rng.below(120) as u32;
        let keys: Vec<u32> = (lo..hi).filter(|_| rng.below(5) > 0).collect();
        let mut leaves = tree.leaf_rewrites();
        for k in keys {
            let key = k.to_be_bytes();
            let value = vec![k as u8; rng.below(24) as usize];
            let value = (!delete).then_some(&value[..]);
            if leaves.stage(&key, value) {
                continue;
            }
            refused += 1;
            let blocks = store.inner.live_blocks();
            let changed = match value {
                Some(value) => tree.update(&key, value),
                None => tree.delete(&key).map(drop),
            };
            // Ranges overlap: a record deleted before is not found.
            missing += usize::from(changed.is_err());
            freed += usize::from(store.inner.live_blocks() < blocks);
        }
        leaves.finish();
    }
    let (calls, hash) = (store.calls.get(), store.hash.get());
    tree.validate();
    assert!(
        refused > missing && freed > 0 && missing > 0,
        "{refused} refused, {freed} freed, {missing} missing"
    );
    assert_eq!(
        (calls, hash),
        (BY_LEAF_CALLS, BY_LEAF_HASH),
        "BlockStore call trace moved: {calls} calls, hash {hash:#018x}"
    );
}
