//! Entry-sequenced files: insert at EOF only, direct access for reads.
//!
//! ENSCRIBE's append-only structure (history/log tables). An entry's
//! address — `(block index, offset)` packed into a `u64` — is stable for
//! the file's lifetime; there is no delete.

use crate::{BlockNo, BlockStore};

/// Errors from entry-sequenced file operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntrySeqError {
    /// Address does not point at an entry.
    BadAddress,
    /// Entry larger than a block can hold.
    EntryTooLarge,
    /// The block directory is full (file at maximum size).
    FileFull,
}

impl std::fmt::Display for EntrySeqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntrySeqError::BadAddress => write!(f, "bad entry address"),
            EntrySeqError::EntryTooLarge => write!(f, "entry too large"),
            EntrySeqError::FileFull => write!(f, "entry-sequenced file full"),
        }
    }
}

impl std::error::Error for EntrySeqError {}

/// An append-only entry-sequenced file.
pub struct EntrySequencedFile<'a, S: BlockStore> {
    store: &'a S,
    header: BlockNo,
}

// Header block: [ndata: u32][tail_used: u32][data blocks: u32...]
// Data block:   [nentries: u16]([len: u16][bytes])*

impl<'a, S: BlockStore> EntrySequencedFile<'a, S> {
    /// Create an empty file; returns the header block number.
    pub fn create(store: &'a S) -> BlockNo {
        let header = store.alloc();
        let mut h = Vec::with_capacity(8);
        h.extend_from_slice(&0u32.to_be_bytes());
        h.extend_from_slice(&0u32.to_be_bytes());
        store.write(header, h.into());
        header
    }

    /// Open by header block.
    pub fn open(store: &'a S, header: BlockNo) -> Self {
        EntrySequencedFile { store, header }
    }

    fn load_header(&self) -> (Vec<BlockNo>, usize) {
        let h = self.store.read(self.header);
        let ndata = u32::from_be_bytes(h[0..4].try_into().unwrap()) as usize;
        let tail_used = u32::from_be_bytes(h[4..8].try_into().unwrap()) as usize;
        let dir = (0..ndata)
            .map(|i| u32::from_be_bytes(h[8 + 4 * i..12 + 4 * i].try_into().unwrap()))
            .collect();
        (dir, tail_used)
    }

    fn save_header(&self, dir: &[BlockNo], tail_used: usize) {
        let mut h = Vec::with_capacity(8 + 4 * dir.len());
        h.extend_from_slice(&(dir.len() as u32).to_be_bytes());
        h.extend_from_slice(&(tail_used as u32).to_be_bytes());
        for b in dir {
            h.extend_from_slice(&b.to_be_bytes());
        }
        self.store.write(self.header, h.into());
    }

    /// Append an entry at EOF; returns its stable address.
    pub fn append(&self, data: &[u8]) -> Result<u64, EntrySeqError> {
        let cap = self.store.block_size();
        if 2 + 2 + data.len() > cap {
            return Err(EntrySeqError::EntryTooLarge);
        }
        let (mut dir, mut tail_used) = self.load_header();
        let needs_new_block = dir.is_empty() || tail_used + 2 + data.len() > cap;
        if needs_new_block {
            if 8 + 4 * (dir.len() + 1) > cap {
                return Err(EntrySeqError::FileFull);
            }
            let b = self.store.alloc();
            self.store.write(b, vec![0u8; 2].into()); // nentries = 0
            dir.push(b);
            tail_used = 2;
        }
        let bi = dir.len() - 1;
        let block_no = dir[bi];
        // The tail block is changed: this is its private copy.
        let mut block = self.store.read(block_no).to_vec();
        block.resize(tail_used.max(block.len()), 0);
        let offset = tail_used;
        let n = u16::from_be_bytes(block[0..2].try_into().unwrap()) + 1;
        block[0..2].copy_from_slice(&n.to_be_bytes());
        block.truncate(offset);
        block.extend_from_slice(&(data.len() as u16).to_be_bytes());
        block.extend_from_slice(data);
        tail_used = block.len();
        self.store.write(block_no, block.into());
        self.save_header(&dir, tail_used);
        Ok(((bi as u64) << 32) | offset as u64)
    }

    /// Read the entry at `address`.
    pub fn read_at(&self, address: u64) -> Result<Vec<u8>, EntrySeqError> {
        let (bi, offset) = ((address >> 32) as usize, (address & 0xFFFF_FFFF) as usize);
        let (dir, _) = self.load_header();
        let block_no = *dir.get(bi).ok_or(EntrySeqError::BadAddress)?;
        let block = self.store.read(block_no);
        if offset + 2 > block.len() || offset < 2 {
            return Err(EntrySeqError::BadAddress);
        }
        let len = u16::from_be_bytes(block[offset..offset + 2].try_into().unwrap()) as usize;
        block
            .get(offset + 2..offset + 2 + len)
            .map(|s| s.to_vec())
            .ok_or(EntrySeqError::BadAddress)
    }

    /// Visit every entry in append order as `(address, bytes)`.
    pub fn scan<F: FnMut(u64, &[u8])>(&self, mut visit: F) {
        let (dir, _) = self.load_header();
        for (bi, block_no) in dir.into_iter().enumerate() {
            let block = self.store.read_for_scan(block_no);
            let n = u16::from_be_bytes(block[0..2].try_into().unwrap()) as usize;
            let mut offset = 2usize;
            for _ in 0..n {
                let len =
                    u16::from_be_bytes(block[offset..offset + 2].try_into().unwrap()) as usize;
                visit(
                    ((bi as u64) << 32) | offset as u64,
                    &block[offset + 2..offset + 2 + len],
                );
                offset += 2 + len;
            }
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.scan(|_, _| n += 1);
        n
    }

    /// True when no entries have been appended.
    pub fn is_empty(&self) -> bool {
        self.load_header().0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    #[test]
    fn append_and_read_back() {
        let store = MemStore::new();
        let f = EntrySequencedFile::open(&store, EntrySequencedFile::create(&store));
        let a1 = f.append(b"first").unwrap();
        let a2 = f.append(b"second").unwrap();
        assert_eq!(f.read_at(a1).unwrap(), b"first");
        assert_eq!(f.read_at(a2).unwrap(), b"second");
        assert_ne!(a1, a2);
    }

    #[test]
    fn addresses_stable_across_blocks() {
        let store = MemStore::with_block_size(128);
        let f = EntrySequencedFile::open(&store, EntrySequencedFile::create(&store));
        let addrs: Vec<u64> = (0..50)
            .map(|i| f.append(format!("entry-{i:03}").as_bytes()).unwrap())
            .collect();
        for (i, a) in addrs.iter().enumerate() {
            assert_eq!(f.read_at(*a).unwrap(), format!("entry-{i:03}").as_bytes());
        }
        assert!(store.live_blocks() > 4);
    }

    #[test]
    fn scan_in_append_order() {
        let store = MemStore::with_block_size(128);
        let f = EntrySequencedFile::open(&store, EntrySequencedFile::create(&store));
        for i in 0..30 {
            f.append(format!("e{i}").as_bytes()).unwrap();
        }
        let mut seen = Vec::new();
        f.scan(|_, bytes| seen.push(String::from_utf8(bytes.to_vec()).unwrap()));
        assert_eq!(seen.len(), 30);
        assert_eq!(seen[0], "e0");
        assert_eq!(seen[29], "e29");
        assert_eq!(f.len(), 30);
    }

    #[test]
    fn bad_addresses_rejected() {
        let store = MemStore::new();
        let f = EntrySequencedFile::open(&store, EntrySequencedFile::create(&store));
        assert_eq!(f.read_at(0), Err(EntrySeqError::BadAddress));
        f.append(b"x").unwrap();
        assert_eq!(f.read_at(1 << 32), Err(EntrySeqError::BadAddress));
        assert_eq!(f.read_at(1), Err(EntrySeqError::BadAddress));
    }

    #[test]
    fn oversized_entry_rejected() {
        let store = MemStore::with_block_size(64);
        let f = EntrySequencedFile::open(&store, EntrySequencedFile::create(&store));
        assert_eq!(f.append(&[0u8; 64]), Err(EntrySeqError::EntryTooLarge));
    }

    #[test]
    fn empty_file_is_empty() {
        let store = MemStore::new();
        let f = EntrySequencedFile::open(&store, EntrySequencedFile::create(&store));
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        f.append(b"x").unwrap();
        assert!(!f.is_empty());
    }
}
