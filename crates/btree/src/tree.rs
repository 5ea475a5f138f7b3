//! Key-sequenced files: a disk-block B-tree.
//!
//! Keys are order-preserving encoded byte strings (see `nsql-records`);
//! values are encoded records. The root block number is stable for the
//! file's lifetime (it is recorded in the volume's file label): root splits
//! copy the old root aside, root collapses copy the last child back in.
//!
//! Range scans walk the leaf chain through [`BlockStore::read_for_scan`],
//! which is where the Disk Process's bulk-I/O and pre-fetch policies attach.

use crate::node::{push_entry, set_len, LeafRef, LeafSlot, Node, NodeRef};
use crate::{Block, BlockNo, BlockStore};
use std::ops::Bound;

/// Errors from key-sequenced file operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeError {
    /// Insert of an existing key.
    DuplicateKey,
    /// Update/delete of a missing key.
    NotFound,
    /// Key+record too large for the block format.
    EntryTooLarge,
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::DuplicateKey => write!(f, "duplicate key"),
            TreeError::NotFound => write!(f, "record not found"),
            TreeError::EntryTooLarge => write!(f, "entry too large for block"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Scan continuation decision from the visitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanControl {
    /// Keep scanning.
    Continue,
    /// Stop (limits reached, end of range, ...).
    Stop,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum WriteMode {
    Insert,
    Update,
    Put,
}

/// A key-sequenced file rooted at a fixed block.
pub struct BTreeFile<'a, S: BlockStore> {
    store: &'a S,
    root: BlockNo,
}

impl<'a, S: BlockStore> BTreeFile<'a, S> {
    /// Create a new empty file; returns its root block number.
    pub fn create(store: &'a S) -> BlockNo {
        let root = store.alloc();
        store.write(root, Node::empty_leaf().encode().into());
        root
    }

    /// Open an existing file by root block.
    pub fn open(store: &'a S, root: BlockNo) -> Self {
        BTreeFile { store, root }
    }

    /// The root block number.
    pub fn root(&self) -> BlockNo {
        self.root
    }

    fn cap(&self) -> usize {
        self.store.block_size()
    }

    fn load(&self, block: BlockNo) -> Node {
        Node::decode(&self.store.read(block))
    }

    fn save(&self, block: BlockNo, node: &Node) {
        self.store.write(block, node.encode().into());
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut bytes = self.store.read(self.root);
        loop {
            match NodeRef::new(&bytes) {
                NodeRef::Internal(node) => {
                    let (_, child) = node.child_for(key);
                    bytes = self.store.read(child);
                }
                NodeRef::Leaf(leaf) => return leaf.get(key).map(<[u8]>::to_vec),
            }
        }
    }

    /// Insert a new record; errors on duplicate key.
    pub fn insert(&self, key: &[u8], value: &[u8]) -> Result<(), TreeError> {
        self.write_entry(key, value, WriteMode::Insert)
    }

    /// Replace an existing record; errors when missing.
    pub fn update(&self, key: &[u8], value: &[u8]) -> Result<(), TreeError> {
        self.write_entry(key, value, WriteMode::Update)
    }

    /// Insert-or-replace (idempotent redo).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), TreeError> {
        self.write_entry(key, value, WriteMode::Put)
    }

    fn write_entry(&self, key: &[u8], value: &[u8], mode: WriteMode) -> Result<(), TreeError> {
        if !entry_fits(self.cap(), key, value) {
            return Err(TreeError::EntryTooLarge);
        }
        if let Some((sep, right)) = self.write_rec(self.root, key, value, mode)? {
            // Root split: move the (already updated) root contents aside,
            // then make the root an internal node over the two halves.
            let left = self.store.alloc();
            self.store.write(left, self.store.read(self.root));
            // Fix: if the old root was a leaf, the leaf that pointed at it
            // is none (root was leftmost); nothing else referenced the root
            // as a leaf, so the copy is safe.
            let new_root = Node::Internal {
                seps: vec![sep],
                children: vec![left, right],
            };
            self.save(self.root, &new_root);
        }
        Ok(())
    }

    /// Write into the subtree at `block`; returns the separator and block
    /// of a new right sibling when `block` had to split.
    fn write_rec(
        &self,
        block: BlockNo,
        key: &[u8],
        value: &[u8],
        mode: WriteMode,
    ) -> Result<Option<(Vec<u8>, BlockNo)>, TreeError> {
        let bytes = self.store.read(block);
        match NodeRef::new(&bytes) {
            NodeRef::Leaf(leaf) => {
                let (slot, _) = leaf.locate(key);
                match mode {
                    WriteMode::Insert if slot.found() => return Err(TreeError::DuplicateKey),
                    WriteMode::Update if !slot.found() => return Err(TreeError::NotFound),
                    _ => {}
                }
                let new_size = bytes.len() - slot.entry.len() + 4 + key.len() + value.len();
                if new_size <= self.cap() {
                    let changed = slot.splice(&bytes, Some((key, value)));
                    self.store.write(block, changed.into());
                    return Ok(None);
                }
                // Split by cumulative size.
                let mut entries = leaf.to_entries();
                if slot.found() {
                    entries[slot.index].1 = value.to_vec();
                } else {
                    entries.insert(slot.index, (key.to_vec(), value.to_vec()));
                }
                let right_block = self.store.alloc();
                let sizes: Vec<usize> =
                    entries.iter().map(|(k, v)| 4 + k.len() + v.len()).collect();
                let right_entries = entries.split_off(split_point(&sizes, self.cap()));
                let sep = right_entries[0].0.clone();
                let right = Node::Leaf {
                    next: leaf.next(),
                    entries: right_entries,
                };
                let left = Node::Leaf {
                    next: Some(right_block),
                    entries,
                };
                self.save(block, &left);
                self.save(right_block, &right);
                Ok(Some((sep, right_block)))
            }
            NodeRef::Internal(node) => {
                let (ci, child) = node.child_for(key);
                let Some((sep, right)) = self.write_rec(child, key, value, mode)? else {
                    return Ok(None);
                };
                let (mut seps, mut children) = node.to_parts();
                seps.insert(ci, sep);
                children.insert(ci + 1, right);
                let sizes: Vec<usize> = seps.iter().map(|k| 6 + k.len()).collect();
                if 7 + sizes.iter().sum::<usize>() <= self.cap() {
                    self.save(block, &Node::Internal { seps, children });
                    return Ok(None);
                }
                // Split the internal node: promote the middle separator.
                let right_block = self.store.alloc();
                let m = split_point(&sizes, self.cap());
                // Separators [0, m-1) stay left, separator m-1 is promoted,
                // [m, ..) go right; children split at m.
                let right = Node::Internal {
                    seps: seps.split_off(m),
                    children: children.split_off(m),
                };
                let promoted = seps.remove(m - 1);
                self.save(block, &Node::Internal { seps, children });
                self.save(right_block, &right);
                Ok(Some((promoted, right_block)))
            }
        }
    }

    /// Delete a record, returning its old value.
    pub fn delete(&self, key: &[u8]) -> Result<Vec<u8>, TreeError> {
        let (old, _) = self.delete_rec(self.root, key)?;
        self.collapse_root();
        Ok(old)
    }

    /// Changes to this file's records in ascending key order, made a leaf
    /// at a time: each leaf's in one new image of it, written once.
    pub fn leaf_rewrites(&self) -> LeafRewrites<'a, S> {
        LeafRewrites {
            tree: BTreeFile {
                store: self.store,
                root: self.root,
            },
            leaf: None,
        }
    }

    /// The leaf that holds `key`, read from the root down as
    /// [`Self::update`] and [`Self::delete`] read it, ready to take changes
    /// of its records in place.
    fn rewrite_leaf(&self, key: &[u8]) -> LeafRewrite<'a, S> {
        let mut path = Vec::new();
        let (mut block, mut bytes) = (self.root, self.store.read(self.root));
        loop {
            let child = match NodeRef::new(&bytes) {
                NodeRef::Internal(node) => node.child_for(key).1,
                NodeRef::Leaf(leaf) => {
                    let len = leaf.len();
                    let size = bytes.len();
                    return LeafRewrite {
                        tree: BTreeFile {
                            store: self.store,
                            root: self.root,
                        },
                        path,
                        block,
                        leaf: bytes,
                        len,
                        size,
                        last: None,
                        image: Vec::new(),
                        removed: false,
                    };
                }
            };
            path.push((block, std::mem::replace(&mut bytes, self.store.read(child))));
            block = child;
        }
    }

    /// Root collapse: while the root is an internal node with a single
    /// child, pull that child up into the root block (the paper's
    /// "collapses").
    fn collapse_root(&self) {
        loop {
            let bytes = self.store.read(self.root);
            match NodeRef::new(&bytes) {
                NodeRef::Internal(node) if node.is_empty() => {
                    let child = node.first_child();
                    self.store.write(self.root, self.store.read(child));
                    self.store.free(child);
                }
                _ => break,
            }
        }
    }

    /// Delete from the subtree at `block`; returns the old value and
    /// whether `block` is left underfull. A leaf is underfull only once it
    /// is empty (free-at-empty, Johnson & Shasha): merging leaves at a
    /// quarter full made every delete-then-reinsert cycle re-home leaves
    /// and scatter the leaf chain across the file. An internal node is
    /// underfull under a quarter of a block.
    fn delete_rec(&self, block: BlockNo, key: &[u8]) -> Result<(Vec<u8>, bool), TreeError> {
        let underfull = |size: usize, len: usize| size < self.cap() / 4 || len == 0;
        let bytes = self.store.read(block);
        match NodeRef::new(&bytes) {
            NodeRef::Leaf(leaf) => {
                let (slot, Some(old)) = leaf.locate(key) else {
                    return Err(TreeError::NotFound);
                };
                let old = old.to_vec();
                let under = leaf.len() == 1;
                self.store.write(block, slot.splice(&bytes, None).into());
                Ok((old, under))
            }
            NodeRef::Internal(node) => {
                let (ci, child) = node.child_for(key);
                let (old, under) = self.delete_rec(child, key)?;
                if !under {
                    // Unchanged, but still re-written — the image that was
                    // read, handed back: the block store sees the same calls
                    // whether or not the child underflowed.
                    let parent_under = underfull(bytes.len(), node.len());
                    self.store.write(block, bytes);
                    return Ok((old, parent_under));
                }
                let (mut seps, mut children) = node.to_parts();
                self.rebalance(&mut seps, &mut children, ci);
                let node = Node::Internal { seps, children };
                let parent_under = underfull(node.size(), node.len());
                self.save(block, &node);
                Ok((old, parent_under))
            }
        }
    }

    /// Fix an underfull child `ci` of the parent holding `seps` and
    /// `children` by merging with or borrowing from an adjacent sibling.
    fn rebalance(&self, seps: &mut Vec<Vec<u8>>, children: &mut Vec<BlockNo>, ci: usize) {
        if children.len() < 2 {
            return; // nothing to merge with; root collapse handles the rest
        }
        let (li, ri) = if ci + 1 < children.len() {
            (ci, ci + 1)
        } else {
            (ci - 1, ci)
        };
        let (lb, rb) = (children[li], children[ri]);
        let mut left = self.load(lb);
        let mut right = self.load(rb);

        // Merge when both halves fit in one block.
        if left.size() + right.size() - 7 + extra_merge_size(&left, &seps[li]) <= self.cap() {
            match (&mut left, right) {
                (
                    Node::Leaf { next, entries },
                    Node::Leaf {
                        next: rnext,
                        entries: rentries,
                    },
                ) => {
                    entries.extend(rentries);
                    *next = rnext;
                }
                (
                    Node::Internal {
                        seps: lseps,
                        children: lchildren,
                    },
                    Node::Internal {
                        seps: rseps,
                        children: rchildren,
                    },
                ) => {
                    lseps.push(seps[li].clone());
                    lseps.extend(rseps);
                    lchildren.extend(rchildren);
                }
                _ => unreachable!("siblings at the same level share a kind"),
            }
            self.save(lb, &left);
            self.store.free(rb);
            seps.remove(li);
            children.remove(ri);
            return;
        }

        // Borrow one entry from the bigger sibling, when it can spare one.
        let (lsize, rsize) = (left.size(), right.size());
        match (&mut left, &mut right) {
            (Node::Leaf { entries: le, .. }, Node::Leaf { entries: re, .. }) => {
                if le.len() >= 2 && (re.is_empty() || lsize > rsize) {
                    let moved = le.pop().expect("len >= 2");
                    re.insert(0, moved);
                    seps[li] = re[0].0.clone();
                } else if re.len() >= 2 {
                    let moved = re.remove(0);
                    le.push(moved);
                    seps[li] = re[0].0.clone();
                } else {
                    return; // cannot improve; tolerate the underflow
                }
            }
            (
                Node::Internal {
                    seps: lseps,
                    children: lchildren,
                },
                Node::Internal {
                    seps: rseps,
                    children: rchildren,
                },
            ) => {
                if lseps.len() >= 2 && (rseps.is_empty() || lseps.len() > rseps.len()) {
                    // Rotate right through the parent.
                    rseps.insert(0, seps[li].clone());
                    seps[li] = lseps.pop().expect("len >= 2");
                    rchildren.insert(0, lchildren.pop().expect("children"));
                } else if rseps.len() >= 2 {
                    // Rotate left through the parent.
                    lseps.push(seps[li].clone());
                    seps[li] = rseps.remove(0);
                    lchildren.push(rchildren.remove(0));
                } else {
                    return;
                }
            }
            _ => unreachable!(),
        }
        self.save(lb, &left);
        self.save(rb, &right);
    }

    /// Scan in key order from `start`, invoking `visit` per record until it
    /// returns [`ScanControl::Stop`] or the file ends.
    pub fn scan<F>(&self, start: Bound<&[u8]>, mut visit: F)
    where
        F: FnMut(&[u8], &[u8]) -> ScanControl,
    {
        // Descend to the leaf that may contain the first qualifying key.
        let seek: Option<&[u8]> = match start {
            Bound::Unbounded => None,
            Bound::Included(k) | Bound::Excluded(k) => Some(k),
        };
        let mut bytes = self.store.read_for_scan(self.root);
        while let NodeRef::Internal(node) = NodeRef::new(&bytes) {
            let child = match seek {
                None => node.first_child(),
                Some(k) => node.child_for(k).1,
            };
            bytes = self.store.read_for_scan(child);
        }
        // Only the first leaf can hold keys before the start bound: once a
        // key has passed it, or the leaf has ended, the bound is spent.
        let mut start = start;
        loop {
            let NodeRef::Leaf(leaf) = NodeRef::new(&bytes) else {
                panic!("leaf chain reached an internal node");
            };
            // Announce the next leaf so the cache can pre-fetch it while
            // this leaf's records are being processed.
            let next = leaf.next();
            if let Some(nb) = next {
                self.store.will_need(nb);
            }
            for (k, v) in leaf.entries() {
                let before_start = match start {
                    Bound::Unbounded => false,
                    Bound::Included(s) => k < s,
                    Bound::Excluded(s) => k <= s,
                };
                if before_start {
                    continue;
                }
                start = Bound::Unbounded;
                if visit(k, v) == ScanControl::Stop {
                    return;
                }
            }
            start = Bound::Unbounded;
            match next {
                Some(nb) => bytes = self.store.read_for_scan(nb),
                None => return,
            }
        }
    }

    /// All entries (tests / small files).
    pub fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        self.scan(Bound::Unbounded, |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            ScanControl::Continue
        });
        out
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.scan(Bound::Unbounded, |_, _| {
            n += 1;
            ScanControl::Continue
        });
        n
    }

    /// True when the file holds no records.
    pub fn is_empty(&self) -> bool {
        let mut bytes = self.store.read(self.root);
        loop {
            match NodeRef::new(&bytes) {
                NodeRef::Internal(node) => bytes = self.store.read(node.first_child()),
                NodeRef::Leaf(leaf) => return leaf.is_empty(),
            }
        }
    }

    /// Check structural invariants (tests): keys sorted and deduplicated,
    /// separators consistent with subtree contents, leaf chain in order.
    pub fn validate(&self) {
        fn walk<S: BlockStore>(
            t: &BTreeFile<S>,
            block: BlockNo,
            lo: Option<&[u8]>,
            hi: Option<&[u8]>,
            leaves: &mut Vec<BlockNo>,
        ) {
            match t.load(block) {
                Node::Leaf { entries, .. } => {
                    for w in entries.windows(2) {
                        assert!(w[0].0 < w[1].0, "leaf keys out of order");
                    }
                    for (k, _) in &entries {
                        if let Some(lo) = lo {
                            assert!(k.as_slice() >= lo, "key below subtree bound");
                        }
                        if let Some(hi) = hi {
                            assert!(k.as_slice() < hi, "key above subtree bound");
                        }
                    }
                    leaves.push(block);
                }
                Node::Internal { seps, children } => {
                    assert_eq!(children.len(), seps.len() + 1);
                    for w in seps.windows(2) {
                        assert!(w[0] < w[1], "separators out of order");
                    }
                    for (i, child) in children.iter().enumerate() {
                        let clo = if i == 0 {
                            lo
                        } else {
                            Some(seps[i - 1].as_slice())
                        };
                        let chi = if i == seps.len() {
                            hi
                        } else {
                            Some(seps[i].as_slice())
                        };
                        walk(t, *child, clo, chi, leaves);
                    }
                }
            }
        }
        let mut leaves = Vec::new();
        walk(self, self.root, None, None, &mut leaves);
        // The leaf chain must visit exactly the leaves, in order.
        let mut chain = Vec::new();
        let mut node = Some({
            let mut block = self.root;
            loop {
                match self.load(block) {
                    Node::Internal { children, .. } => block = children[0],
                    Node::Leaf { .. } => break block,
                }
            }
        });
        while let Some(b) = node {
            chain.push(b);
            node = match self.load(b) {
                Node::Leaf { next, .. } => next,
                _ => panic!("chain left the leaf level"),
            };
        }
        assert_eq!(chain, leaves, "leaf chain does not match tree order");
    }
}

/// Each entry must fit in half a block so splits always succeed, and
/// separator keys must fit comfortably in internal nodes.
fn entry_fits(cap: usize, key: &[u8], value: &[u8]) -> bool {
    let half = (cap - 7) / 2;
    4 + key.len() + value.len() <= half && 6 + key.len() <= half
}

/// Changes to a file's records in ascending key order, a leaf at a time:
/// [`BTreeFile::leaf_rewrites`].
pub struct LeafRewrites<'a, S: BlockStore> {
    tree: BTreeFile<'a, S>,
    /// The leaf the last change was staged in.
    leaf: Option<LeafRewrite<'a, S>>,
}

impl<S: BlockStore> LeafRewrites<'_, S> {
    /// Stage replacing the record under `key` with `value`, or removing it
    /// (`None`), into the new image of its leaf. When `key` lies past the
    /// leaf in hand, that leaf is written first and `key`'s is read from
    /// the root down. `false` — the leaf in hand written, nothing staged —
    /// when the change cannot be made in place: the record is not there,
    /// its new entry is too large for any block, or the leaf would
    /// overflow its block or be emptied. The caller then makes it through
    /// [`BTreeFile::update`] or [`BTreeFile::delete`], which split, free or
    /// rebalance.
    pub fn stage(&mut self, key: &[u8], value: Option<&[u8]>) -> bool {
        let in_hand = self.leaf.as_mut().map(|leaf| leaf.stage(key, value));
        let staged = match in_hand {
            Some(Stage::Elsewhere) | None => {
                self.write();
                let leaf = self.leaf.insert(self.tree.rewrite_leaf(key));
                leaf.stage(key, value)
            }
            Some(staged) => staged,
        };
        if staged != Stage::Staged {
            self.write();
        }
        staged == Stage::Staged
    }

    /// Write the leaf in hand: one new image with its staged changes.
    fn write(&mut self) {
        if let Some(leaf) = self.leaf.take() {
            leaf.finish();
        }
    }

    /// Write the last leaf: every change staged is made.
    pub fn finish(mut self) {
        self.write();
    }
}

/// What [`LeafRewrite::stage`] made of a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Staged: the leaf's new image will hold it.
    Staged,
    /// The key is not among the leaf's records past those staged so far.
    Elsewhere,
    /// Not in place: the new entry is too large for any block, the leaf
    /// would overflow its block, or the leaf would be emptied.
    Refused,
}

/// One leaf's records changed in place, written back as one new image.
/// The image is built as the changes are staged, in key order, each
/// unchanged run of the leaf copied once.
struct LeafRewrite<'a, S: BlockStore> {
    tree: BTreeFile<'a, S>,
    /// The internal nodes read on the way down, root first, as read: a
    /// delete hands them back as [`BTreeFile::delete`] does.
    path: Vec<(BlockNo, Block)>,
    block: BlockNo,
    /// The leaf as read.
    leaf: Block,
    /// Entries and bytes of the leaf with the staged changes.
    len: usize,
    size: usize,
    /// The last change's slot in `leaf`; `None` until one is staged.
    last: Option<LeafSlot>,
    /// The new image up to the end of `last`'s entry.
    image: Vec<u8>,
    /// Whether a staged change removes a record.
    removed: bool,
}

impl<S: BlockStore> LeafRewrite<'_, S> {
    /// Stage replacing the record under `key` with `value`, or removing
    /// it (`None`). A key at or before the last staged one is
    /// [`Stage::Elsewhere`].
    fn stage(&mut self, key: &[u8], value: Option<&[u8]>) -> Stage {
        let leaf = LeafRef::of(&self.leaf);
        let (slot, found) = match &self.last {
            None => leaf.locate(key),
            Some(last) => leaf.locate_after(last, key),
        };
        if found.is_none() {
            return Stage::Elsewhere;
        }
        let cap = self.tree.cap();
        let size = self.size - slot.entry.len() + value.map_or(0, |v| 4 + key.len() + v.len());
        let fits = match value {
            Some(v) => entry_fits(cap, key, v) && size <= cap,
            None => self.len > 1,
        };
        if !fits {
            return Stage::Refused;
        }
        let from = match &self.last {
            None => {
                self.image.reserve_exact(self.leaf.len());
                0
            }
            Some(last) => last.entry.end,
        };
        self.image
            .extend_from_slice(&self.leaf[from..slot.entry.start]);
        match value {
            Some(v) => push_entry(&mut self.image, key, v),
            None => {
                self.len -= 1;
                self.removed = true;
            }
        }
        self.size = size;
        self.last = Some(slot);
        Stage::Staged
    }

    /// Write the leaf with every staged change — nothing when none was
    /// staged. After a removal, the internal nodes above it are handed
    /// back and the root checked for collapse, as [`BTreeFile::delete`]
    /// does: a leaf with one change staged makes the calls
    /// [`BTreeFile::update`] or [`BTreeFile::delete`] of it would.
    fn finish(self) {
        let LeafRewrite {
            tree,
            path,
            block,
            leaf,
            len,
            size,
            last,
            mut image,
            removed,
        } = self;
        let Some(last) = last else {
            return;
        };
        image.extend_from_slice(&leaf[last.entry.end..]);
        set_len(&mut image, len);
        debug_assert_eq!(image.len(), size);
        tree.store.write(block, image.into());
        if removed {
            for (block, bytes) in path.into_iter().rev() {
                tree.store.write(block, bytes);
            }
            tree.collapse_root();
        }
    }
}

/// Split index for an overflowing node: aims for the cumulative-size
/// midpoint, then adjusts so that both halves (plus the 7-byte header) fit
/// in `cap`. Always leaves at least one element on each side.
fn split_point(sizes: &[usize], cap: usize) -> usize {
    let n = sizes.len();
    debug_assert!(n >= 2, "cannot split a node with fewer than 2 entries");
    let total: usize = sizes.iter().sum();
    let mut acc = 0;
    let mut idx = n - 1;
    for (i, s) in sizes.iter().enumerate() {
        acc += s;
        if acc >= total / 2 {
            idx = i + 1;
            break;
        }
    }
    let mut idx = idx.clamp(1, n - 1);
    let left = |i: usize| sizes[..i].iter().sum::<usize>();
    while left(idx) + 7 > cap && idx > 1 {
        idx -= 1;
    }
    while total - left(idx) + 7 > cap && idx < n - 1 {
        idx += 1;
    }
    idx
}

/// Extra bytes a merge adds beyond the two nodes' sizes (internal merges
/// pull the parent separator down).
fn extra_merge_size(left: &Node, parent_sep: &[u8]) -> usize {
    match left {
        Node::Internal { .. } => 6 + parent_sep.len(),
        Node::Leaf { .. } => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use std::collections::BTreeMap;

    fn key(i: u32) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    fn val(i: u32) -> Vec<u8> {
        format!("value-{i:08}").into_bytes()
    }

    #[test]
    fn insert_get_small() {
        let store = MemStore::new();
        let root = BTreeFile::create(&store);
        let t = BTreeFile::open(&store, root);
        for i in 0..100 {
            t.insert(&key(i), &val(i)).unwrap();
        }
        for i in 0..100 {
            assert_eq!(t.get(&key(i)), Some(val(i)));
        }
        assert_eq!(t.get(&key(100)), None);
        t.validate();
    }

    #[test]
    fn duplicate_insert_rejected() {
        let store = MemStore::new();
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        t.insert(&key(1), &val(1)).unwrap();
        assert_eq!(t.insert(&key(1), &val(2)), Err(TreeError::DuplicateKey));
        assert_eq!(t.get(&key(1)), Some(val(1)));
    }

    #[test]
    fn update_and_put() {
        let store = MemStore::new();
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        assert_eq!(t.update(&key(1), &val(9)), Err(TreeError::NotFound));
        t.insert(&key(1), &val(1)).unwrap();
        t.update(&key(1), &val(2)).unwrap();
        assert_eq!(t.get(&key(1)), Some(val(2)));
        t.put(&key(1), &val(3)).unwrap();
        t.put(&key(2), &val(4)).unwrap();
        assert_eq!(t.get(&key(1)), Some(val(3)));
        assert_eq!(t.get(&key(2)), Some(val(4)));
    }

    #[test]
    fn splits_to_multiple_levels() {
        let store = MemStore::with_block_size(256);
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        for i in 0..500 {
            t.insert(&key(i), &val(i)).unwrap();
        }
        assert!(store.live_blocks() > 10, "tree should have split widely");
        for i in 0..500 {
            assert_eq!(t.get(&key(i)), Some(val(i)), "key {i}");
        }
        t.validate();
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn reverse_and_random_insert_orders() {
        for seed in [0u64, 1, 2] {
            let store = MemStore::with_block_size(256);
            let t = BTreeFile::open(&store, BTreeFile::create(&store));
            let mut keys: Vec<u32> = (0..300).collect();
            // Simple deterministic shuffle.
            let mut s = seed.wrapping_add(12345);
            for i in (1..keys.len()).rev() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (s >> 33) as usize % (i + 1);
                keys.swap(i, j);
            }
            for &i in &keys {
                t.insert(&key(i), &val(i)).unwrap();
            }
            t.validate();
            let got: Vec<u32> = t
                .entries()
                .iter()
                .map(|(k, _)| u32::from_be_bytes(k[..4].try_into().unwrap()))
                .collect();
            assert_eq!(got, (0..300).collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn delete_leaf_simple() {
        let store = MemStore::new();
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        t.insert(&key(1), &val(1)).unwrap();
        t.insert(&key(2), &val(2)).unwrap();
        assert_eq!(t.delete(&key(1)).unwrap(), val(1));
        assert_eq!(t.get(&key(1)), None);
        assert_eq!(t.get(&key(2)), Some(val(2)));
        assert_eq!(t.delete(&key(1)), Err(TreeError::NotFound));
    }

    #[test]
    fn a_leaf_is_merged_only_once_a_delete_empties_it() {
        let store = MemStore::with_block_size(256);
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        for i in 0..400 {
            t.insert(&key(i), &val(i)).unwrap();
        }
        let blocks = store.live_block_numbers();
        // Two records of every three go: each leaf keeps at least one, far
        // under a quarter full, and no block is freed.
        let thinned = || (0..400).filter(|i| i % 3 != 0);
        for i in thinned() {
            t.delete(&key(i)).unwrap();
        }
        t.validate();
        assert_eq!(store.live_block_numbers(), blocks);
        // Put back, they land in the leaves they left: nothing moves.
        for i in thinned() {
            t.insert(&key(i), &val(i)).unwrap();
        }
        t.validate();
        assert_eq!(store.live_block_numbers(), blocks);
    }

    #[test]
    fn delete_everything_collapses_tree() {
        let store = MemStore::with_block_size(256);
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        for i in 0..400 {
            t.insert(&key(i), &val(i)).unwrap();
        }
        let peak = store.live_blocks();
        for i in 0..400 {
            t.delete(&key(i)).unwrap();
            if i.is_multiple_of(97) {
                t.validate();
            }
        }
        t.validate();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(
            store.live_blocks() < peak / 4,
            "collapse should free blocks ({} of peak {peak} live)",
            store.live_blocks()
        );
    }

    #[test]
    fn interleaved_inserts_and_deletes_match_model() {
        let store = MemStore::with_block_size(256);
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut s = 99u64;
        for step in 0..3000u32 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = key((s >> 33) as u32 % 200);
            let v = val(step);
            let exists = model.contains_key(&k);
            if (s >> 7).is_multiple_of(3) && exists {
                t.delete(&k).unwrap();
                model.remove(&k);
            } else {
                if exists {
                    t.update(&k, &v).unwrap();
                } else {
                    t.insert(&k, &v).unwrap();
                }
                model.insert(k, v);
            }
        }
        t.validate();
        let got = t.entries();
        let want: Vec<_> = model.into_iter().collect();
        assert_eq!(got, want);
    }

    /// Apply ascending changes to `t` as the Disk Process's set writes
    /// do: staged a leaf at a time, and through `update` / `delete` where
    /// the leaf refuses one. What each change came to.
    fn apply_by_leaf(
        t: &BTreeFile<MemStore>,
        changes: &[(Vec<u8>, Option<Vec<u8>>)],
    ) -> Vec<Result<(), TreeError>> {
        let mut leaves = t.leaf_rewrites();
        let mut outcomes = Vec::new();
        for (k, v) in changes {
            let v = v.as_deref();
            let staged = leaves.stage(k, v);
            outcomes.push(if staged { Ok(()) } else { apply(t, k, v) });
        }
        leaves.finish();
        outcomes
    }

    fn apply(t: &BTreeFile<MemStore>, k: &[u8], v: Option<&[u8]>) -> Result<(), TreeError> {
        match v {
            Some(v) => t.update(k, v),
            None => t.delete(k).map(drop),
        }
    }

    #[test]
    fn leaf_rewrites_end_where_record_at_a_time_changes_do() {
        let mut s = 7u64;
        let mut next = |n: u64| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 33) % n
        };
        let (mut too_large, mut split, mut freed) = (0, 0, 0);
        for round in 0..40 {
            let (by_leaf, each) = (
                MemStore::with_block_size(256),
                MemStore::with_block_size(256),
            );
            let a = BTreeFile::open(&by_leaf, BTreeFile::create(&by_leaf));
            let b = BTreeFile::open(&each, BTreeFile::create(&each));
            for i in 0..300 {
                a.insert(&key(i), &val(i)).unwrap();
                b.insert(&key(i), &val(i)).unwrap();
            }
            // An ascending run of changes: rewrites of every length (some
            // overflow their leaf, some cannot fit any block), and deletes
            // that empty whole leaves.
            let lo = next(200) as u32;
            let hi = lo + 1 + next(100) as u32;
            let mut changes: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
            for i in lo..hi {
                if next(4) == 0 {
                    continue;
                }
                let value = match (round % 3, next(8)) {
                    (0, _) => None,
                    (_, 0) => Some(vec![i as u8; 40 + next(90) as usize]),
                    _ => Some(format!("v{i}").into_bytes()),
                };
                changes.push((key(i), value));
            }
            let blocks = by_leaf.live_blocks();
            let outcomes = apply_by_leaf(&a, &changes);
            too_large += outcomes.iter().filter(|o| o.is_err()).count();
            split += usize::from(by_leaf.live_blocks() > blocks);
            freed += usize::from(by_leaf.live_blocks() < blocks);
            let each_outcomes: Vec<_> = changes
                .iter()
                .map(|(k, v)| apply(&b, k, v.as_deref()))
                .collect();
            assert_eq!(outcomes, each_outcomes);
            assert!(outcomes.contains(&Ok(())));
            a.validate();
            assert_eq!(a.entries(), b.entries(), "round {round}");
            assert_eq!(by_leaf.live_block_numbers(), each.live_block_numbers());
        }
        assert!(
            too_large > 0 && split > 0 && freed > 0,
            "{too_large} {split} {freed}"
        );
    }

    #[test]
    fn a_leaf_rewrite_refuses_what_does_not_fit_in_place() {
        let store = MemStore::with_block_size(256);
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        for i in 0..3 {
            t.insert(&key(i), &val(i)).unwrap();
        }
        let mut leaves = t.leaf_rewrites();
        assert!(!leaves.stage(&key(9), None), "not there");
        assert!(!leaves.stage(&key(1), Some(&[0; 200])), "too large");
        assert!(leaves.stage(&key(1), Some(&[1; 60])));
        assert!(leaves.stage(&key(2), None));
        leaves.finish();
        assert_eq!(t.entries(), vec![(key(0), val(0)), (key(1), vec![1; 60])]);
        // The last record of a leaf is not removed in place; what was
        // staged before it is written.
        let mut leaves = t.leaf_rewrites();
        assert!(leaves.stage(&key(0), None));
        assert!(!leaves.stage(&key(1), None));
        assert_eq!(t.entries(), vec![(key(1), vec![1; 60])]);
        leaves.finish();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn scan_ranges_and_stop() {
        let store = MemStore::with_block_size(256);
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        for i in 0..100 {
            t.insert(&key(i), &val(i)).unwrap();
        }
        // From included bound.
        let mut seen = Vec::new();
        t.scan(Bound::Included(&key(40)[..]), |k, _| {
            seen.push(u32::from_be_bytes(k[..4].try_into().unwrap()));
            if seen.len() == 5 {
                ScanControl::Stop
            } else {
                ScanControl::Continue
            }
        });
        assert_eq!(seen, vec![40, 41, 42, 43, 44]);
        // Excluded bound (the re-drive continuation form).
        let mut seen = Vec::new();
        t.scan(Bound::Excluded(&key(40)[..]), |k, _| {
            seen.push(u32::from_be_bytes(k[..4].try_into().unwrap()));
            if seen.len() == 3 {
                ScanControl::Stop
            } else {
                ScanControl::Continue
            }
        });
        assert_eq!(seen, vec![41, 42, 43]);
        // Bound between keys.
        let mut first = None;
        t.scan(Bound::Included(&[0, 0, 0, 40, 1][..]), |k, _| {
            first = Some(u32::from_be_bytes(k[..4].try_into().unwrap()));
            ScanControl::Stop
        });
        assert_eq!(first, Some(41));
    }

    #[test]
    fn oversized_entry_rejected() {
        let store = MemStore::with_block_size(256);
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        assert_eq!(
            t.insert(&key(1), &vec![0u8; 4096]),
            Err(TreeError::EntryTooLarge)
        );
    }

    #[test]
    fn empty_value_entries() {
        // Secondary indices store empty values.
        let store = MemStore::with_block_size(256);
        let t = BTreeFile::open(&store, BTreeFile::create(&store));
        for i in 0..200 {
            t.insert(&key(i), &[]).unwrap();
        }
        t.validate();
        assert_eq!(t.get(&key(77)), Some(Vec::new()));
        assert_eq!(t.len(), 200);
    }
}
