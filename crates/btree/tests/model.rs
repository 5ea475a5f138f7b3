//! Randomised model checking: the disk-block B-tree must behave exactly
//! like `std::collections::BTreeMap` under arbitrary operation sequences,
//! while maintaining its structural invariants. Operation sequences are
//! drawn from a seeded RNG so every run is reproducible.

use nsql_btree::node::Node;
use nsql_btree::{BTreeFile, BlockStore, MemStore, ScanControl, TreeError};
use nsql_sim::SimRng;
use std::collections::BTreeMap;
use std::ops::Bound;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u8),
    Update(u16, u8),
    Put(u16, u8),
    Delete(u16),
    Get(u16),
    ScanFrom(u16, u8),
}

fn draw_op(rng: &mut SimRng) -> Op {
    let k = rng.below(512) as u16;
    let v = rng.below(256) as u8;
    match rng.below(6) {
        0 => Op::Insert(k, v),
        1 => Op::Update(k, v),
        2 => Op::Put(k, v),
        3 => Op::Delete(k),
        4 => Op::Get(k),
        _ => Op::ScanFrom(k, 1 + rng.below(31) as u8),
    }
}

fn key(k: u16) -> Vec<u8> {
    k.to_be_bytes().to_vec()
}

fn val(v: u8) -> Vec<u8> {
    // Variable-length values stress the size-based split logic.
    vec![v; 1 + (v as usize % 40)]
}

/// In-place writes must leave exactly the bytes a re-encode of the node
/// would: no padding, no stale tail, counts that match the entries.
fn assert_blocks_canonical(store: &MemStore) {
    for block in store.live_block_numbers() {
        let bytes = store.read(block);
        assert_eq!(Node::decode(&bytes).encode(), *bytes, "block {block}");
    }
}

/// The first `limit` entries a scan from `start` visits.
fn scan_prefix(
    tree: &BTreeFile<MemStore>,
    start: Bound<&[u8]>,
    limit: usize,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut got = Vec::new();
    tree.scan(start, |key, value| {
        got.push((key.to_vec(), value.to_vec()));
        if got.len() >= limit {
            ScanControl::Stop
        } else {
            ScanControl::Continue
        }
    });
    got
}

#[test]
fn btree_equals_model() {
    for case in 0..64u64 {
        let mut rng = SimRng::seed_from(0xB7EE + case);
        let nops = 1 + rng.below(400) as usize;
        // A small block size forces multi-level trees, splits and merges.
        let store = MemStore::with_block_size(256);
        let root = BTreeFile::create(&store);
        let tree = BTreeFile::open(&store, root);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for _ in 0..nops {
            match draw_op(&mut rng) {
                Op::Insert(k, v) => {
                    let (k, v) = (key(k), val(v));
                    let expected = if model.contains_key(&k) {
                        Err(TreeError::DuplicateKey)
                    } else {
                        model.insert(k.clone(), v.clone());
                        Ok(())
                    };
                    assert_eq!(tree.insert(&k, &v), expected);
                }
                Op::Update(k, v) => {
                    let (k, v) = (key(k), val(v));
                    let expected = if model.contains_key(&k) {
                        model.insert(k.clone(), v.clone());
                        Ok(())
                    } else {
                        Err(TreeError::NotFound)
                    };
                    assert_eq!(tree.update(&k, &v), expected);
                }
                Op::Put(k, v) => {
                    let (k, v) = (key(k), val(v));
                    model.insert(k.clone(), v.clone());
                    assert_eq!(tree.put(&k, &v), Ok(()));
                }
                Op::Delete(k) => {
                    let k = key(k);
                    match model.remove(&k) {
                        Some(old) => assert_eq!(tree.delete(&k), Ok(old)),
                        None => assert_eq!(tree.delete(&k), Err(TreeError::NotFound)),
                    }
                }
                Op::Get(k) => {
                    let k = key(k);
                    assert_eq!(tree.get(&k), model.get(&k).cloned());
                }
                Op::ScanFrom(k, n) => {
                    let k = key(k);
                    let got = scan_prefix(&tree, Bound::Included(&k), n as usize);
                    let want: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range(k..)
                        .take(n as usize)
                        .map(|(a, b)| (a.clone(), b.clone()))
                        .collect();
                    assert_eq!(got, want);
                }
            }
            assert_blocks_canonical(&store);
        }

        // Full structural validation and final equality.
        tree.validate();
        let got = tree.entries();
        let want: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(got, want);
    }
}

/// Start bounds that name no stored key: every value between two keys,
/// including the gap between one leaf's last key and the next leaf's
/// first — where the descent lands on a leaf whose keys all lie before
/// the bound — and beyond both ends of the file.
#[test]
fn scan_bounds_between_keys_match_model() {
    let store = MemStore::with_block_size(256);
    let tree = BTreeFile::open(&store, BTreeFile::create(&store));
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for i in 1..=300u16 {
        tree.insert(&key(3 * i), &val(i as u8)).unwrap();
        model.insert(key(3 * i), val(i as u8));
    }
    for round in 0..2 {
        if round == 1 {
            // Holes: deletes leave separators that name keys no longer
            // stored, and widen the gaps at leaf boundaries.
            for i in (1..=300u16).filter(|i| i % 5 < 2) {
                tree.delete(&key(3 * i)).unwrap();
                model.remove(&key(3 * i));
            }
            tree.validate();
        }
        for probe in 0..=905u16 {
            let k = key(probe);
            for (start, model_start) in [
                (Bound::Included(&k[..]), Bound::Included(k.clone())),
                (Bound::Excluded(&k[..]), Bound::Excluded(k.clone())),
            ] {
                let want: Vec<(Vec<u8>, Vec<u8>)> = model
                    .range((model_start, Bound::Unbounded))
                    .take(12)
                    .map(|(a, b)| (a.clone(), b.clone()))
                    .collect();
                assert_eq!(
                    scan_prefix(&tree, start, 12),
                    want,
                    "round {round} from {start:?}"
                );
            }
        }
    }
    assert_eq!(tree.len(), model.len());
}

/// Blocks freed by deletes are reusable: a grow/shrink cycle must not leak
/// more than the tree's final height in blocks.
#[test]
fn space_is_reclaimed() {
    for case in 0..16u64 {
        let mut rng = SimRng::seed_from(0x5ACE + case);
        let n = 50 + rng.below(250) as u16;
        let store = MemStore::with_block_size(256);
        let root = BTreeFile::create(&store);
        let tree = BTreeFile::open(&store, root);
        for i in 0..n {
            tree.insert(&key(i), &val((i % 250) as u8)).unwrap();
        }
        for i in 0..n {
            tree.delete(&key(i)).unwrap();
        }
        tree.validate();
        assert!(
            store.live_blocks() <= 4,
            "{} live blocks after emptying",
            store.live_blocks()
        );
    }
}
