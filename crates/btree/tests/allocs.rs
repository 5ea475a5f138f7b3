//! Allocation counts as a deterministic proxy for "no block is copied and
//! no node is decoded on the hot path": the block store lends its own image
//! of every block read, so what an operation allocates is what it returns
//! or changes — per *statement*, whatever the tree's height and however
//! many leaves a scan walks. The counts are exact: one copied block or one
//! decoded node (two allocations per entry of a 4 KB node) fails them.

use nsql_btree::node::NodeRef;
use nsql_btree::{BTreeFile, BlockStore, MemStore, ScanControl};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Bound;

thread_local! {
    /// Allocations made by this thread (the harness runs tests on threads
    /// of their own, so other tests do not disturb the count).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged, so its contract is
// met exactly as `System` meets it; the counter is a plain thread-local
// `Cell<u64>` that neither allocates nor has a destructor. `realloc` is
// left to the default, which calls `alloc` and so counts as one.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no counter left; nothing measured
        // runs there.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn key(i: u32) -> [u8; 8] {
    u64::from(i).to_be_bytes()
}

#[test]
fn hot_paths_allocate_per_statement_not_per_block() {
    const ROWS: u32 = 16_000;
    let store = MemStore::new(); // 4 KB blocks
    let tree = BTreeFile::open(&store, BTreeFile::create(&store));
    for i in 0..ROWS {
        tree.insert(&key(i), &[i as u8; 100]).unwrap();
    }

    // Height, and the leaves a scan from `key(1000)` reads for 1,000 rows.
    let mut levels = 1;
    let mut bytes = store.read(tree.root());
    while let NodeRef::Internal(node) = NodeRef::new(&bytes) {
        levels += 1;
        bytes = store.read(node.child_for(&key(1000)).1);
    }
    assert_eq!(levels, 3, "the test wants a three-level tree");
    let mut leaves = 1;
    let mut rows = 0;
    loop {
        let NodeRef::Leaf(leaf) = NodeRef::new(&bytes) else {
            panic!("leaf chain reached an internal node");
        };
        rows += leaf.entries().filter(|(k, _)| *k >= &key(1000)[..]).count();
        match leaf.next() {
            Some(next) if rows < 1000 => bytes = store.read(next),
            _ => break,
        }
        leaves += 1;
    }
    assert!(leaves * 8 < 1000, "{leaves} leaves: too few rows per leaf");

    let (n, got) = allocs_during(|| tree.get(&key(4321)));
    assert_eq!(got, Some(vec![4321u32 as u8; 100]));
    assert_eq!(n, 1, "get allocates the value it returns");

    let (n, res) = allocs_during(|| tree.update(&key(4321), &[9; 100]));
    assert_eq!(res, Ok(()));
    // The changed leaf and the handle it is shared by.
    assert_eq!(n, 2, "update of a leaf with room");

    let (n, res) = allocs_during(|| tree.delete(&key(4321)));
    assert_eq!(res, Ok(vec![9; 100]));
    // The old value, the changed leaf and its handle; the two levels above
    // are re-written as the images that were read.
    assert_eq!(n, 3, "delete above the underflow line");

    let (n, res) = allocs_during(|| tree.insert(&key(4321), &[1; 100]));
    assert_eq!(res, Ok(()));
    assert_eq!(n, 2, "insert into a leaf with room");

    let (n, empty) = allocs_during(|| tree.is_empty());
    assert!(!empty);
    assert_eq!(n, 0, "is_empty reads {levels} blocks in place");

    let mut seen = 0;
    let (n, ()) = allocs_during(|| {
        tree.scan(Bound::Included(&key(1000)[..]), |_, _| {
            seen += 1;
            if seen == 1000 {
                ScanControl::Stop
            } else {
                ScanControl::Continue
            }
        })
    });
    assert_eq!(seen, 1000);
    assert_eq!(n, 0, "a 1,000-entry scan reads {leaves} leaves in place");
}
