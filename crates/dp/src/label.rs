//! The volume label: the on-disk directory of files on a volume.
//!
//! Block 0 of every volume holds the label: for each file its id, B-tree
//! root block and record descriptor. The label is what lets a Disk
//! Process — or its backup after a takeover — reopen the volume's files
//! after losing all in-memory state.

use crate::protocol::FileId;
use nsql_btree::BlockNo;
use nsql_records::RecordDescriptor;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One file's label entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FileLabel {
    /// File id within the volume.
    pub id: FileId,
    /// Record descriptor.
    pub desc: RecordDescriptor,
    /// Anchor block: the B-tree root.
    pub anchor: BlockNo,
}

/// The whole volume label.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VolumeLabel {
    /// Files by id. A request shares its file's entry (descriptor and
    /// column names included) instead of copying it.
    pub files: BTreeMap<FileId, Arc<FileLabel>>,
    /// Next file id to assign.
    pub next_file: FileId,
}

impl VolumeLabel {
    /// Serialize to block-0 bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"NSQL");
        out.extend_from_slice(&self.next_file.to_be_bytes());
        out.extend_from_slice(&(self.files.len() as u16).to_be_bytes());
        for f in self.files.values() {
            out.extend_from_slice(&f.id.to_be_bytes());
            out.extend_from_slice(&f.anchor.to_be_bytes());
            // The structure tag: 1, key-sequenced, is the only one.
            out.push(1);
            let d = f.desc.encode_bytes();
            out.extend_from_slice(&(d.len() as u16).to_be_bytes());
            out.extend_from_slice(&d);
        }
        out
    }

    /// Deserialize from block-0 bytes.
    ///
    /// # Panics
    /// Panics on a corrupt label (simulation bug, not runtime condition).
    pub fn decode(bytes: &[u8]) -> VolumeLabel {
        assert_eq!(&bytes[0..4], b"NSQL", "not a volume label");
        let next_file = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
        let n = u16::from_be_bytes(bytes[8..10].try_into().unwrap()) as usize;
        let mut pos = 10;
        let mut files = BTreeMap::new();
        for _ in 0..n {
            let id = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap());
            let anchor = u32::from_be_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
            pos += 8;
            assert_eq!(bytes[pos], 1, "corrupt file-kind tag");
            let dlen = u16::from_be_bytes(bytes[pos + 1..pos + 3].try_into().unwrap()) as usize;
            let (desc, used) = RecordDescriptor::decode_bytes(&bytes[pos + 3..pos + 3 + dlen]);
            assert_eq!(used, dlen, "descriptor length mismatch");
            pos += 3 + dlen;
            files.insert(id, Arc::new(FileLabel { id, desc, anchor }));
        }
        VolumeLabel { files, next_file }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_records::{FieldDef, FieldType};

    #[test]
    fn label_round_trips() {
        let desc = RecordDescriptor::new(
            vec![
                FieldDef::new("ID", FieldType::Int),
                FieldDef::nullable("NAME", FieldType::Varchar(30)),
            ],
            vec![0],
        );
        let mut label = VolumeLabel {
            next_file: 3,
            ..VolumeLabel::default()
        };
        label.files.insert(
            0,
            Arc::new(FileLabel {
                id: 0,
                desc,
                anchor: 1,
            }),
        );
        let decoded = VolumeLabel::decode(&label.encode());
        assert_eq!(decoded, label);
    }

    /// The label keeps its on-disk layout: tag 1, key-sequenced, is the
    /// one structure a label may name.
    #[test]
    #[should_panic(expected = "corrupt file-kind tag")]
    fn another_structure_tag_is_refused() {
        let desc = RecordDescriptor::new(vec![FieldDef::new("ID", FieldType::Int)], vec![0]);
        let file = FileLabel {
            id: 0,
            desc,
            anchor: 1,
        };
        let label = VolumeLabel {
            files: BTreeMap::from([(0, Arc::new(file))]),
            next_file: 1,
        };
        let mut bytes = label.encode();
        // Magic, next file id, file count, then the file's id and anchor.
        assert_eq!(bytes[18], 1);
        bytes[18] = 2;
        VolumeLabel::decode(&bytes);
    }

    #[test]
    fn empty_label_round_trips() {
        let label = VolumeLabel::default();
        assert_eq!(VolumeLabel::decode(&label.encode()), label);
    }

    #[test]
    #[should_panic(expected = "not a volume label")]
    fn garbage_rejected() {
        VolumeLabel::decode(&[0u8; 16]);
    }
}
