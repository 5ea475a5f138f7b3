//! B-tree node serialization.
//!
//! Nodes serialize into a block as:
//!
//! ```text
//! leaf:     [0x01][nkeys: u16][next_leaf: u32]([klen u16][vlen u16][key][value])*
//! internal: [0x02][nkeys: u16][child0: u32]([klen u16][key][child u32])*
//! ```
//!
//! `next_leaf == u32::MAX` means "no next leaf". An internal node with
//! `nkeys` separators has `nkeys + 1` children; separator `i` is a copy of
//! the smallest key reachable under child `i + 1`.
//!
//! Two representations share the format: [`NodeRef`], borrowed views that
//! search and iterate the block bytes where they are (and copy them once,
//! around a single changed entry), and [`Node`], the owned form a node is
//! restructured in.

use crate::BlockNo;
use std::cmp::Ordering;
use std::ops::Range;

/// Sentinel for "no next leaf".
pub const NO_LEAF: BlockNo = u32::MAX;

const LEAF_TAG: u8 = 0x01;
const INTERNAL_TAG: u8 = 0x02;
/// Bytes before the first entry: tag, `nkeys`, `next_leaf`/`child0`.
const HEADER: usize = 7;

fn u16_at(bytes: &[u8], pos: usize) -> usize {
    usize::from(u16::from_be_bytes([bytes[pos], bytes[pos + 1]]))
}

fn u32_at(bytes: &[u8], pos: usize) -> u32 {
    u32::from_be_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
}

/// A node read in place: a borrowed view over its block bytes.
///
/// Search and iteration work on the bytes as the block store holds them;
/// nothing is copied out. A node's block is exactly its serialized bytes,
/// so the block's length is [`Node::size`].
#[derive(Debug, Clone, Copy)]
pub enum NodeRef<'a> {
    /// A leaf block.
    Leaf(LeafRef<'a>),
    /// An internal block.
    Internal(InternalRef<'a>),
}

impl<'a> NodeRef<'a> {
    /// View `bytes` as the node they serialize.
    ///
    /// # Panics
    /// Panics on malformed bytes — block corruption is a simulation bug,
    /// not a runtime condition.
    pub fn new(bytes: &'a [u8]) -> Self {
        match bytes[0] {
            LEAF_TAG => NodeRef::Leaf(LeafRef { bytes }),
            INTERNAL_TAG => NodeRef::Internal(InternalRef { bytes }),
            other => panic!("corrupt node tag {other}"),
        }
    }
}

/// A leaf's block bytes.
#[derive(Debug, Clone, Copy)]
pub struct LeafRef<'a> {
    bytes: &'a [u8],
}

impl<'a> LeafRef<'a> {
    /// View `bytes`, a leaf's block, as the leaf.
    pub(crate) fn of(bytes: &'a [u8]) -> Self {
        debug_assert_eq!(bytes[0], LEAF_TAG);
        LeafRef { bytes }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        u16_at(self.bytes, 1)
    }

    /// True when the leaf holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Next leaf in key order (`None` at the right edge).
    pub fn next(&self) -> Option<BlockNo> {
        let next = u32_at(self.bytes, 3);
        (next != NO_LEAF).then_some(next)
    }

    /// The `(key, record)` entries in key order.
    pub fn entries(&self) -> LeafEntries<'a> {
        LeafEntries {
            bytes: self.bytes,
            pos: HEADER,
            left: self.len(),
        }
    }

    /// The record stored under `key`.
    pub fn get(&self, key: &[u8]) -> Option<&'a [u8]> {
        self.locate(key).1
    }

    /// Where `key` sits, or would be inserted, and the record it holds.
    pub fn locate(&self, key: &[u8]) -> (LeafSlot, Option<&'a [u8]>) {
        self.locate_from(self.entries(), 0, key)
    }

    /// [`Self::locate`] among the entries past `after`'s, a slot found in
    /// this leaf: a search for ascending keys resumes where the last ended.
    pub fn locate_after(&self, after: &LeafSlot, key: &[u8]) -> (LeafSlot, Option<&'a [u8]>) {
        let passed = after.index + usize::from(after.found());
        let entries = LeafEntries {
            bytes: self.bytes,
            pos: after.entry.end,
            left: self.len() - passed,
        };
        self.locate_from(entries, passed, key)
    }

    /// Search `entries`, the leaf's from entry `index` on, for `key`.
    #[inline]
    fn locate_from(
        &self,
        mut entries: LeafEntries<'a>,
        mut index: usize,
        key: &[u8],
    ) -> (LeafSlot, Option<&'a [u8]>) {
        let mut start = entries.pos;
        let mut value = None;
        while let Some((k, v)) = entries.next() {
            match k.cmp(key) {
                Ordering::Less => {
                    index += 1;
                    start = entries.pos;
                }
                Ordering::Equal => {
                    value = Some(v);
                    break;
                }
                Ordering::Greater => break,
            }
        }
        let end = if value.is_some() { entries.pos } else { start };
        let slot = LeafSlot {
            index,
            entry: start..end,
        };
        (slot, value)
    }

    /// The entries as owned pairs, for restructuring.
    pub fn to_entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.entries()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect()
    }
}

/// Iterator over a leaf's entries, in place.
#[derive(Debug, Clone)]
pub struct LeafEntries<'a> {
    bytes: &'a [u8],
    pos: usize,
    left: usize,
}

impl<'a> Iterator for LeafEntries<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let key_at = self.pos + 4;
        let value_at = key_at + u16_at(self.bytes, self.pos);
        let end = value_at + u16_at(self.bytes, self.pos + 2);
        self.pos = end;
        Some((&self.bytes[key_at..value_at], &self.bytes[value_at..end]))
    }
}

/// The place of a key in a leaf's block bytes (see [`LeafRef::locate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafSlot {
    /// Entry index of the key, or where it would be inserted.
    pub index: usize,
    /// Byte range of the key's entry; empty, at the insertion offset, when
    /// the key is absent.
    pub entry: Range<usize>,
}

impl LeafSlot {
    /// True when the leaf holds the key.
    pub fn found(&self) -> bool {
        !self.entry.is_empty()
    }

    /// The leaf `leaf` — the block the slot was located in — with the
    /// slot's entry replaced by `new` (`None` removes it): the one copy a
    /// change that fits its leaf makes of it, head, entry and tail each
    /// written once into a buffer of the exact size (it goes on to live in
    /// a cache frame). The result is what [`Node::encode`] gives for the
    /// changed leaf.
    pub fn splice(&self, leaf: &[u8], new: Option<(&[u8], &[u8])>) -> Vec<u8> {
        let Range { start, end } = self.entry;
        let new_len = new.map_or(0, |(k, v)| 4 + k.len() + v.len());
        let mut out = Vec::with_capacity(leaf.len() - (end - start) + new_len);
        out.extend_from_slice(&leaf[..start]);
        if let Some((k, v)) = new {
            push_entry(&mut out, k, v);
        }
        out.extend_from_slice(&leaf[end..]);
        let nkeys = u16_at(leaf, 1) + usize::from(new.is_some()) - usize::from(self.found());
        set_len(&mut out, nkeys);
        out
    }
}

/// Append one leaf entry, as [`Node::encode`] writes it.
#[inline]
pub(crate) fn push_entry(out: &mut Vec<u8>, key: &[u8], value: &[u8]) {
    out.extend_from_slice(&(key.len() as u16).to_be_bytes());
    out.extend_from_slice(&(value.len() as u16).to_be_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
}

/// Set the entry count in a node's block bytes.
pub(crate) fn set_len(node: &mut [u8], len: usize) {
    node[1..3].copy_from_slice(&(len as u16).to_be_bytes());
}

/// An internal node's block bytes.
#[derive(Debug, Clone, Copy)]
pub struct InternalRef<'a> {
    bytes: &'a [u8],
}

impl<'a> InternalRef<'a> {
    /// Number of separators.
    pub fn len(&self) -> usize {
        u16_at(self.bytes, 1)
    }

    /// True when the node has a single child and no separator.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The leftmost child.
    pub fn first_child(&self) -> BlockNo {
        u32_at(self.bytes, 3)
    }

    /// Each separator with the child to its right, in key order.
    pub fn seps(&self) -> InternalSeps<'a> {
        InternalSeps {
            bytes: self.bytes,
            pos: HEADER,
            left: self.len(),
        }
    }

    /// The child whose subtree covers `key`, and its index: the number of
    /// separators `<= key`.
    pub fn child_for(&self, key: &[u8]) -> (usize, BlockNo) {
        let mut found = (0, self.first_child());
        for (sep, right) in self.seps() {
            if sep > key {
                break;
            }
            found = (found.0 + 1, right);
        }
        found
    }

    /// Separators and children as owned vectors, for restructuring.
    pub fn to_parts(&self) -> (Vec<Vec<u8>>, Vec<BlockNo>) {
        let mut seps = Vec::with_capacity(self.len());
        let mut children = Vec::with_capacity(self.len() + 1);
        children.push(self.first_child());
        for (sep, right) in self.seps() {
            seps.push(sep.to_vec());
            children.push(right);
        }
        (seps, children)
    }
}

/// Iterator over an internal node's `(separator, right child)` pairs, in
/// place.
#[derive(Debug, Clone)]
pub struct InternalSeps<'a> {
    bytes: &'a [u8],
    pos: usize,
    left: usize,
}

impl<'a> Iterator for InternalSeps<'a> {
    type Item = (&'a [u8], BlockNo);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let key_at = self.pos + 2;
        let child_at = key_at + u16_at(self.bytes, self.pos);
        self.pos = child_at + 4;
        Some((&self.bytes[key_at..child_at], u32_at(self.bytes, child_at)))
    }
}

/// An owned B-tree node: the representation nodes are restructured in
/// (split, merge, borrow, a new root) and validated through. Everything
/// else reads and changes the block bytes through [`NodeRef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Leaf: sorted `(key, record)` entries plus the leaf chain pointer.
    Leaf {
        /// Next leaf in key order (`None` at the right edge).
        next: Option<BlockNo>,
        /// Sorted entries.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// Internal: `children.len() == seps.len() + 1`.
    Internal {
        /// Separator keys.
        seps: Vec<Vec<u8>>,
        /// Child block numbers.
        children: Vec<BlockNo>,
    },
}

impl Node {
    /// An empty leaf.
    pub fn empty_leaf() -> Node {
        Node::Leaf {
            next: None,
            entries: Vec::new(),
        }
    }

    /// Serialized size in bytes.
    pub fn size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                HEADER
                    + entries
                        .iter()
                        .map(|(k, v)| 4 + k.len() + v.len())
                        .sum::<usize>()
            }
            Node::Internal { seps, .. } => HEADER + seps.iter().map(|k| 6 + k.len()).sum::<usize>(),
        }
    }

    /// Number of entries (leaf) or separators (internal).
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => entries.len(),
            Node::Internal { seps, .. } => seps.len(),
        }
    }

    /// True when the node holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize into block bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size());
        match self {
            Node::Leaf { next, entries } => {
                out.push(LEAF_TAG);
                out.extend_from_slice(&(entries.len() as u16).to_be_bytes());
                out.extend_from_slice(&next.unwrap_or(NO_LEAF).to_be_bytes());
                for (k, v) in entries {
                    push_entry(&mut out, k, v);
                }
            }
            Node::Internal { seps, children } => {
                assert_eq!(children.len(), seps.len() + 1, "malformed internal node");
                out.push(INTERNAL_TAG);
                out.extend_from_slice(&(seps.len() as u16).to_be_bytes());
                out.extend_from_slice(&children[0].to_be_bytes());
                for (k, c) in seps.iter().zip(&children[1..]) {
                    out.extend_from_slice(&(k.len() as u16).to_be_bytes());
                    out.extend_from_slice(k);
                    out.extend_from_slice(&c.to_be_bytes());
                }
            }
        }
        out
    }

    /// Deserialize from block bytes.
    ///
    /// # Panics
    /// Panics on malformed bytes (see [`NodeRef::new`]).
    pub fn decode(bytes: &[u8]) -> Node {
        match NodeRef::new(bytes) {
            NodeRef::Leaf(leaf) => Node::Leaf {
                next: leaf.next(),
                entries: leaf.to_entries(),
            },
            NodeRef::Internal(node) => {
                let (seps, children) = node.to_parts();
                Node::Internal { seps, children }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_sim::SimRng;

    /// Sorted distinct keys of 0 to `max_len` bytes over a small alphabet,
    /// so prefixes, the empty key and near-duplicates all occur.
    fn random_keys(rng: &mut SimRng, n: usize, max_len: usize) -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let len = rng.below(max_len as u64 + 1) as usize;
                (0..len).map(|_| rng.below(3) as u8).collect()
            })
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Every stored key, a neighbour either side of each, and the extremes.
    fn probes(keys: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut out = vec![Vec::new(), vec![0xff; 4]];
        for k in keys {
            out.push(k.clone());
            out.push([k.as_slice(), &[0]].concat());
            out.push(k[..k.len().saturating_sub(1)].to_vec());
        }
        out
    }

    #[test]
    fn leaf_view_agrees_with_owned_node() {
        let mut rng = SimRng::seed_from(0x1EAF);
        for case in 0..200 {
            // Case 0 is the empty leaf; key lengths reach the largest a
            // 4 KB block admits (entries are capped at half a block).
            let n = if case == 0 { 0 } else { rng.below(24) as usize };
            let max_len = if case % 10 == 1 { 2000 } else { 6 };
            let entries: Vec<(Vec<u8>, Vec<u8>)> = random_keys(&mut rng, n, max_len)
                .into_iter()
                .map(|k| (k, vec![7; rng.below(4) as usize * 9]))
                .collect();
            let next = rng.chance(0.5).then_some(rng.below(1000) as BlockNo);
            let bytes = Node::Leaf {
                next,
                entries: entries.clone(),
            }
            .encode();
            let NodeRef::Leaf(leaf) = NodeRef::new(&bytes) else {
                panic!("leaf tag");
            };
            assert_eq!((leaf.len(), leaf.next()), (entries.len(), next));
            assert_eq!(leaf.to_entries(), entries);
            let keys: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
            for probe in probes(&keys) {
                let want = keys.binary_search(&probe);
                let (slot, value) = leaf.locate(&probe);
                assert_eq!(slot.found(), want.is_ok());
                assert_eq!(slot.index, want.unwrap_or_else(|i| i));
                assert_eq!(value, want.ok().map(|i| entries[i].1.as_slice()));
                assert_eq!(leaf.get(&probe), value);

                // Each single-entry change gives the bytes `encode` does.
                let mut put = entries.clone();
                match want {
                    Ok(i) => put[i].1 = b"new".to_vec(),
                    Err(i) => put.insert(i, (probe.clone(), b"new".to_vec())),
                }
                assert_eq!(
                    slot.splice(&bytes, Some((&probe, b"new"))),
                    Node::Leaf { next, entries: put }.encode()
                );
                if let Ok(i) = want {
                    let mut removed = entries.clone();
                    removed.remove(i);
                    let removed = Node::Leaf {
                        next,
                        entries: removed,
                    };
                    assert_eq!(slot.splice(&bytes, None), removed.encode());
                }
            }
        }
    }

    #[test]
    fn internal_view_agrees_with_owned_node() {
        let mut rng = SimRng::seed_from(0x1472);
        for case in 0..200 {
            let n = if case == 0 { 0 } else { rng.below(24) as usize };
            let max_len = if case % 10 == 1 { 2000 } else { 6 };
            let seps = random_keys(&mut rng, n, max_len);
            let children: Vec<BlockNo> = (0..=seps.len())
                .map(|_| rng.below(1 << 32) as BlockNo)
                .collect();
            let bytes = Node::Internal {
                seps: seps.clone(),
                children: children.clone(),
            }
            .encode();
            let NodeRef::Internal(node) = NodeRef::new(&bytes) else {
                panic!("internal tag");
            };
            assert_eq!(node.len(), seps.len());
            assert_eq!(node.first_child(), children[0]);
            assert_eq!(node.to_parts(), (seps.clone(), children.clone()));
            for probe in probes(&seps) {
                let ci = seps.partition_point(|s| s.as_slice() <= probe.as_slice());
                assert_eq!(node.child_for(&probe), (ci, children[ci]));
            }
        }
    }

    #[test]
    fn leaf_round_trip() {
        let n = Node::Leaf {
            next: Some(42),
            entries: vec![
                (b"alpha".to_vec(), b"1".to_vec()),
                (b"beta".to_vec(), vec![0u8; 100]),
            ],
        };
        let bytes = n.encode();
        assert_eq!(bytes.len(), n.size());
        assert_eq!(Node::decode(&bytes), n);
    }

    #[test]
    fn leaf_without_next_round_trip() {
        let n = Node::Leaf {
            next: None,
            entries: vec![],
        };
        assert_eq!(Node::decode(&n.encode()), n);
    }

    #[test]
    fn internal_round_trip() {
        let n = Node::Internal {
            seps: vec![b"m".to_vec(), b"t".to_vec()],
            children: vec![1, 2, 3],
        };
        let bytes = n.encode();
        assert_eq!(bytes.len(), n.size());
        assert_eq!(Node::decode(&bytes), n);
    }

    #[test]
    fn empty_values_allowed() {
        // Secondary index entries carry empty values.
        let n = Node::Leaf {
            next: None,
            entries: vec![(b"idxkey".to_vec(), Vec::new())],
        };
        assert_eq!(Node::decode(&n.encode()), n);
    }

    #[test]
    #[should_panic(expected = "corrupt")]
    fn bad_tag_panics() {
        Node::decode(&[9, 0, 0, 0, 0, 0, 0]);
    }
}
