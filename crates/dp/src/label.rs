//! The volume label: the on-disk directory of files on a volume.
//!
//! Block 0 of every volume holds the label: for each file its id, structure
//! kind, anchor block (B-tree root / header block) and, for key-sequenced
//! files, the record descriptor. The label is what lets a Disk Process —
//! or its backup after a takeover — reopen the volume's files after losing
//! all in-memory state.

use crate::protocol::{FileId, FileKind};
use nsql_btree::BlockNo;
use nsql_records::RecordDescriptor;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One file's label entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FileLabel {
    /// File id within the volume.
    pub id: FileId,
    /// Structure kind (with descriptor for key-sequenced files).
    pub kind: FileKind,
    /// Anchor block: B-tree root or relative/entry-sequenced header.
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
            match &f.kind {
                FileKind::KeySequenced(desc) => {
                    out.push(1);
                    let d = desc.encode_bytes();
                    out.extend_from_slice(&(d.len() as u16).to_be_bytes());
                    out.extend_from_slice(&d);
                }
                FileKind::Relative { slot_size } => {
                    out.push(2);
                    out.extend_from_slice(&slot_size.to_be_bytes());
                }
                FileKind::EntrySequenced => out.push(3),
            }
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
            let kind = match bytes[pos] {
                1 => {
                    let dlen =
                        u16::from_be_bytes(bytes[pos + 1..pos + 3].try_into().unwrap()) as usize;
                    let (desc, used) =
                        RecordDescriptor::decode_bytes(&bytes[pos + 3..pos + 3 + dlen]);
                    assert_eq!(used, dlen, "descriptor length mismatch");
                    pos += 3 + dlen;
                    FileKind::KeySequenced(desc)
                }
                2 => {
                    let slot = u32::from_be_bytes(bytes[pos + 1..pos + 5].try_into().unwrap());
                    pos += 5;
                    FileKind::Relative { slot_size: slot }
                }
                3 => {
                    pos += 1;
                    FileKind::EntrySequenced
                }
                other => panic!("corrupt file-kind tag {other}"),
            };
            files.insert(id, Arc::new(FileLabel { id, kind, anchor }));
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
                kind: FileKind::KeySequenced(desc),
                anchor: 1,
            }),
        );
        label.files.insert(
            1,
            Arc::new(FileLabel {
                id: 1,
                kind: FileKind::Relative { slot_size: 128 },
                anchor: 9,
            }),
        );
        label.files.insert(
            2,
            Arc::new(FileLabel {
                id: 2,
                kind: FileKind::EntrySequenced,
                anchor: 14,
            }),
        );
        let decoded = VolumeLabel::decode(&label.encode());
        assert_eq!(decoded, label);
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
