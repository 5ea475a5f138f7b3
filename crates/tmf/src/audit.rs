//! Audit (journal) records.
//!
//! ENSCRIBE's unit of update is a record, so its audit records "contain
//! full record images by default". SQL syntax names the updated fields, so
//! the Disk Process generates **field-compressed** audit records containing
//! only field-level before/after images — smaller audit, with system-wide
//! benefits (smaller trail, fewer buffer-full sends, larger commit groups).

use nsql_lock::TxnId;
use nsql_records::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Log sequence number. Globally ordered across volumes.
pub type Lsn = u64;

/// Shared LSN sequencer (one per cluster).
#[derive(Debug, Default)]
pub struct LsnSource(AtomicU64);

impl LsnSource {
    /// New sequencer starting at 1 (0 means "no audit yet").
    pub fn new() -> Arc<Self> {
        Arc::new(LsnSource(AtomicU64::new(1)))
    }

    /// Allocate the next LSN.
    pub fn next(&self) -> Lsn {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

/// A field-level image: `(field number, value)` pairs for exactly the
/// fields an update touched.
pub type FieldImage = Vec<(u16, Value)>;

/// Wire size of a field image.
pub fn field_image_size(img: &FieldImage) -> usize {
    img.iter().map(|(_, v)| 2 + v.wire_size()).sum()
}

/// What happened, with enough information to redo and undo it.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditBody {
    /// Record inserted (after-image only).
    Insert {
        /// Encoded primary key.
        key: Vec<u8>,
        /// Encoded record.
        record: Vec<u8>,
    },
    /// Record deleted (before-image only).
    Delete {
        /// Encoded primary key.
        key: Vec<u8>,
        /// Encoded record as it was.
        before: Vec<u8>,
    },
    /// ENSCRIBE-style update: full record before- and after-images.
    UpdateFull {
        /// Encoded primary key.
        key: Vec<u8>,
        /// Full record before-image.
        before: Vec<u8>,
        /// Full record after-image.
        after: Vec<u8>,
    },
    /// SQL-style field-compressed update: images of touched fields only.
    UpdateFields {
        /// Encoded primary key.
        key: Vec<u8>,
        /// Old values of the touched fields.
        before: FieldImage,
        /// New values of the touched fields.
        after: FieldImage,
    },
    /// Transaction committed.
    Commit,
    /// Transaction aborted.
    Abort,
}

impl AuditBody {
    /// Payload bytes of this body (excludes the record header).
    pub fn size(&self) -> usize {
        match self {
            AuditBody::Insert { key, record } => key.len() + record.len(),
            AuditBody::Delete { key, before } => key.len() + before.len(),
            AuditBody::UpdateFull { key, before, after } => key.len() + before.len() + after.len(),
            AuditBody::UpdateFields { key, before, after } => {
                key.len() + field_image_size(before) + field_image_size(after)
            }
            AuditBody::Commit | AuditBody::Abort => 0,
        }
    }

    /// Is this a transaction-outcome record?
    pub fn is_outcome(&self) -> bool {
        matches!(self, AuditBody::Commit | AuditBody::Abort)
    }

    /// Drop the after-images, keeping what UNDO reads: the key and the
    /// before-images. (What a Disk Process holds on to once a change is
    /// logged and applied: the after-image is in the file and on its way to
    /// the trail.)
    pub fn forget_after(&mut self) {
        match self {
            AuditBody::Insert { record: after, .. } | AuditBody::UpdateFull { after, .. } => {
                *after = Vec::new()
            }
            AuditBody::UpdateFields { after, .. } => *after = FieldImage::new(),
            AuditBody::Delete { .. } | AuditBody::Commit | AuditBody::Abort => {}
        }
    }
}

/// One audit record as written to the trail.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Sequence number.
    pub lsn: Lsn,
    /// Owning transaction.
    pub txn: TxnId,
    /// Volume the change belongs to (`$DATA1`, ...). Empty for outcome
    /// records.
    pub volume: String,
    /// File within the volume.
    pub file: u32,
    /// The change itself.
    pub body: AuditBody,
}

/// Fixed per-record header overhead on the trail, in bytes (includes the
/// trailing per-record checksum).
pub const AUDIT_HEADER: usize = 24;

impl AuditRecord {
    /// Total size of this record on the trail / on the wire.
    pub fn size(&self) -> usize {
        self.header().size(&self.body)
    }

    pub(crate) fn header(&self) -> RecordHeader<'_> {
        RecordHeader {
            lsn: self.lsn,
            txn: self.txn,
            volume: &self.volume,
            file: self.file,
        }
    }

    /// FNV-1a checksum over the record's logical content. Deterministic
    /// (no per-process hash seeding), so identical seeded runs produce
    /// byte-identical trails.
    pub fn checksum(&self) -> u64 {
        let mut body = Vec::new();
        encode_body(&self.body, &mut body);
        self.header().checksum_over(body_tag(&self.body), &body)
    }

    /// Serialize as one trail record: fixed header, volume name, body
    /// payload, trailing checksum. [`decode_record`] is the exact inverse
    /// and verifies the checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append this record's [`encode`](Self::encode) image to `out` (the
    /// trail's durable log is the concatenation of these).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.header().encode_into(&self.body, out);
    }
}

/// Everything of an [`AuditRecord`] but its body, borrowed: a record can be
/// sized and encoded from its parts without being assembled first.
#[derive(Debug, Clone, Copy)]
pub struct RecordHeader<'a> {
    /// Sequence number.
    pub lsn: Lsn,
    /// Owning transaction.
    pub txn: TxnId,
    /// Volume the change belongs to; empty for outcome records.
    pub volume: &'a str,
    /// File within the volume.
    pub file: u32,
}

impl RecordHeader<'_> {
    /// Total size on the trail / on the wire of the record with this header
    /// and `body`.
    pub fn size(&self, body: &AuditBody) -> usize {
        AUDIT_HEADER + self.volume.len() + body.size()
    }

    fn checksum_over(&self, tag: u8, encoded_body: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.lsn);
        h.write_u64(self.txn.0);
        h.write_bytes(self.volume.as_bytes());
        h.write_u64(self.file as u64);
        h.write_bytes(&[tag]);
        h.write_bytes(encoded_body);
        h.finish()
    }

    fn encode_into(&self, body: &AuditBody, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.lsn.to_be_bytes());
        out.extend_from_slice(&self.txn.0.to_be_bytes());
        out.extend_from_slice(&self.file.to_be_bytes());
        out.extend_from_slice(&(self.volume.len() as u16).to_be_bytes());
        out.push(body_tag(body));
        let len_at = out.len();
        out.extend_from_slice(&[0; 4]);
        out.extend_from_slice(self.volume.as_bytes());
        let body_at = out.len();
        encode_body(body, out);
        let body_len = (out.len() - body_at) as u32;
        out[len_at..len_at + 4].copy_from_slice(&body_len.to_be_bytes());
        let checksum = self.checksum_over(body_tag(body), &out[body_at..]);
        out.extend_from_slice(&checksum.to_be_bytes());
    }
}

/// A run of audit records in LSN order, held as what the trail will write:
/// their [`AuditRecord::encode`] images end to end. A volume's send buffer,
/// the message that ships it and the trail's write buffer are all one of
/// these, so a record is encoded once, where it is logged, and no
/// structured copy of it travels.
#[derive(Debug, Default)]
pub struct AuditBatch {
    /// The records' trail images, end to end.
    pub(crate) bytes: Vec<u8>,
    /// Number of records.
    pub(crate) records: usize,
    /// Modelled size on the trail / on the wire: the sum of the records'
    /// [`AuditRecord::size`].
    pub(crate) size: usize,
    /// Highest LSN in the batch (0 when empty).
    pub(crate) last_lsn: Lsn,
}

impl AuditBatch {
    /// Append one record, given as its parts.
    pub fn push(&mut self, header: RecordHeader<'_>, body: &AuditBody) {
        header.encode_into(body, &mut self.bytes);
        self.records += 1;
        self.size += header.size(body);
        self.last_lsn = self.last_lsn.max(header.lsn);
    }

    /// Add every record of `other` at the end of this batch.
    pub fn append(&mut self, other: AuditBatch) {
        self.bytes.extend_from_slice(&other.bytes);
        self.records += other.records;
        self.size += other.size;
        self.last_lsn = self.last_lsn.max(other.last_lsn);
    }

    /// Empty the batch, keeping its allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
        (self.records, self.size, self.last_lsn) = (0, 0, 0);
    }
}

// ----------------------------------------------------------------------
// Trail byte encoding (torn-tail detection)
// ----------------------------------------------------------------------

/// Deterministic FNV-1a 64-bit hasher (no `RandomState`, no entropy).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_be_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn body_tag(body: &AuditBody) -> u8 {
    match body {
        AuditBody::Insert { .. } => 1,
        AuditBody::Delete { .. } => 2,
        AuditBody::UpdateFull { .. } => 3,
        AuditBody::UpdateFields { .. } => 4,
        AuditBody::Commit => 5,
        AuditBody::Abort => 6,
    }
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::SmallInt(v) => {
            out.push(2);
            out.extend_from_slice(&v.to_be_bytes());
        }
        Value::Int(v) => {
            out.push(3);
            out.extend_from_slice(&v.to_be_bytes());
        }
        Value::LargeInt(v) => {
            out.push(4);
            out.extend_from_slice(&v.to_be_bytes());
        }
        Value::Double(v) => {
            out.push(5);
            out.extend_from_slice(&v.to_bits().to_be_bytes());
        }
        Value::Str(s) => {
            out.push(6);
            out.extend_from_slice(&(s.len() as u16).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn encode_field_image(img: &FieldImage, out: &mut Vec<u8>) {
    out.extend_from_slice(&(img.len() as u16).to_be_bytes());
    for (field, v) in img {
        out.extend_from_slice(&field.to_be_bytes());
        encode_value(v, out);
    }
}

fn encode_chunk(bytes: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

fn encode_body(body: &AuditBody, out: &mut Vec<u8>) {
    match body {
        AuditBody::Insert { key, record } => {
            encode_chunk(key, out);
            encode_chunk(record, out);
        }
        AuditBody::Delete { key, before } => {
            encode_chunk(key, out);
            encode_chunk(before, out);
        }
        AuditBody::UpdateFull { key, before, after } => {
            encode_chunk(key, out);
            encode_chunk(before, out);
            encode_chunk(after, out);
        }
        AuditBody::UpdateFields { key, before, after } => {
            encode_chunk(key, out);
            encode_field_image(before, out);
            encode_field_image(after, out);
        }
        AuditBody::Commit | AuditBody::Abort => {}
    }
}

/// A byte cursor that never panics on truncated input.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_be_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_be_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    fn chunk(&mut self) -> Option<Vec<u8>> {
        let n = self.u32()? as usize;
        self.take(n).map(|s| s.to_vec())
    }
}

fn decode_value(r: &mut Reader<'_>) -> Option<Value> {
    Some(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.u8()? != 0),
        2 => Value::SmallInt(r.u16()? as i16),
        3 => Value::Int(r.u32()? as i32),
        4 => Value::LargeInt(r.u64()? as i64),
        5 => Value::Double(f64::from_bits(r.u64()?)),
        6 => {
            let n = r.u16()? as usize;
            Value::Str(String::from_utf8(r.take(n)?.to_vec()).ok()?)
        }
        _ => return None,
    })
}

fn decode_field_image(r: &mut Reader<'_>) -> Option<FieldImage> {
    let n = r.u16()? as usize;
    let mut img = Vec::with_capacity(n);
    for _ in 0..n {
        let field = r.u16()?;
        img.push((field, decode_value(r)?));
    }
    Some(img)
}

fn decode_body(tag: u8, payload: &[u8]) -> Option<AuditBody> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let body = match tag {
        1 => AuditBody::Insert {
            key: r.chunk()?,
            record: r.chunk()?,
        },
        2 => AuditBody::Delete {
            key: r.chunk()?,
            before: r.chunk()?,
        },
        3 => AuditBody::UpdateFull {
            key: r.chunk()?,
            before: r.chunk()?,
            after: r.chunk()?,
        },
        4 => AuditBody::UpdateFields {
            key: r.chunk()?,
            before: decode_field_image(&mut r)?,
            after: decode_field_image(&mut r)?,
        },
        5 => AuditBody::Commit,
        6 => AuditBody::Abort,
        _ => return None,
    };
    (r.pos == payload.len()).then_some(body)
}

/// Decode one record from the front of `bytes`, verifying its checksum.
/// Returns the record and the number of bytes consumed; `None` when the
/// prefix is truncated, malformed, or fails checksum verification — the
/// torn-tail condition.
pub fn decode_record(bytes: &[u8]) -> Option<(AuditRecord, usize)> {
    let mut r = Reader { bytes, pos: 0 };
    let lsn = r.u64()?;
    let txn = TxnId(r.u64()?);
    let file = r.u32()?;
    let vol_len = r.u16()? as usize;
    let tag = r.u8()?;
    let body_len = r.u32()? as usize;
    let volume = String::from_utf8(r.take(vol_len)?.to_vec()).ok()?;
    let body = decode_body(tag, r.take(body_len)?)?;
    let stored = r.u64()?;
    let rec = AuditRecord {
        lsn,
        txn,
        volume,
        file,
        body,
    };
    (rec.checksum() == stored).then_some((rec, r.pos))
}

/// Scan a (possibly torn) trail byte image: decode checksum-verified
/// records from the front until the first truncated, malformed, or
/// corrupt record, and truncate everything from that point on. Returns
/// the verified records and the number of torn bytes discarded. A partial
/// record can never be replayed: it either decodes and verifies whole, or
/// it is cut.
pub fn scan_tail(bytes: &[u8]) -> (Vec<AuditRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match decode_record(&bytes[pos..]) {
            Some((rec, used)) => {
                records.push(rec);
                pos += used;
            }
            None => break,
        }
    }
    (records, bytes.len() - pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(body: AuditBody) -> AuditRecord {
        AuditRecord {
            lsn: 1,
            txn: TxnId(1),
            volume: "$DATA1".into(),
            file: 0,
            body,
        }
    }

    #[test]
    fn lsn_source_is_monotone() {
        let s = LsnSource::new();
        let a = s.next();
        let b = s.next();
        assert!(b > a);
        assert!(a >= 1);
    }

    #[test]
    fn field_compression_shrinks_updates() {
        // A 100-byte record where one 8-byte field changed.
        let key = vec![0u8; 8];
        let full = rec(AuditBody::UpdateFull {
            key: key.clone(),
            before: vec![0u8; 100],
            after: vec![1u8; 100],
        });
        let fields = rec(AuditBody::UpdateFields {
            key,
            before: vec![(3, Value::Double(1.0))],
            after: vec![(3, Value::Double(1.07))],
        });
        assert!(
            fields.size() * 3 < full.size(),
            "field-compressed ({}) should be far smaller than full image ({})",
            fields.size(),
            full.size()
        );
    }

    #[test]
    fn outcome_records_are_small() {
        let c = AuditRecord {
            lsn: 9,
            txn: TxnId(3),
            volume: String::new(),
            file: 0,
            body: AuditBody::Commit,
        };
        assert_eq!(c.size(), AUDIT_HEADER);
        assert!(c.body.is_outcome());
        assert!(!rec(AuditBody::Insert {
            key: vec![1],
            record: vec![2]
        })
        .body
        .is_outcome());
    }

    fn sample_records() -> Vec<AuditRecord> {
        vec![
            AuditRecord {
                lsn: 1,
                txn: TxnId(7),
                volume: "$DATA1".into(),
                file: 2,
                body: AuditBody::Insert {
                    key: vec![1, 2, 3],
                    record: vec![9; 40],
                },
            },
            AuditRecord {
                lsn: 2,
                txn: TxnId(7),
                volume: "$DATA1".into(),
                file: 2,
                body: AuditBody::UpdateFields {
                    key: vec![1, 2, 3],
                    before: vec![
                        (0, Value::Null),
                        (1, Value::Bool(true)),
                        (2, Value::SmallInt(-5)),
                        (3, Value::Int(-100_000)),
                    ],
                    after: vec![
                        (4, Value::LargeInt(1 << 40)),
                        (5, Value::Double(1.07)),
                        (6, Value::Str("teller".into())),
                    ],
                },
            },
            AuditRecord {
                lsn: 3,
                txn: TxnId(8),
                volume: "$DATA2".into(),
                file: 0,
                body: AuditBody::UpdateFull {
                    key: vec![4],
                    before: vec![0; 10],
                    after: vec![1; 10],
                },
            },
            AuditRecord {
                lsn: 4,
                txn: TxnId(8),
                volume: "$DATA2".into(),
                file: 1,
                body: AuditBody::Delete {
                    key: vec![4, 4],
                    before: vec![2; 12],
                },
            },
            AuditRecord {
                lsn: 5,
                txn: TxnId(7),
                volume: String::new(),
                file: 0,
                body: AuditBody::Commit,
            },
            AuditRecord {
                lsn: 6,
                txn: TxnId(8),
                volume: String::new(),
                file: 0,
                body: AuditBody::Abort,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trips_every_body_kind() {
        for rec in sample_records() {
            let bytes = rec.encode();
            let (back, used) = decode_record(&bytes).expect("decode");
            assert_eq!(back, rec);
            assert_eq!(used, bytes.len(), "decode must consume the whole record");
        }
    }

    #[test]
    fn corruption_never_yields_wrong_data() {
        // Flip a bit at every byte position: the decode must either fail
        // (checksum catches it) or still yield the original logical record
        // (the flip only produced a non-canonical encoding of the same
        // value, e.g. a Bool payload byte). It must never return data that
        // differs from what was written.
        let records = sample_records();
        let rec = &records[1];
        let good = rec.encode();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            if let Some((back, _)) = decode_record(&bad) {
                assert_eq!(&back, rec, "corruption at byte {i} produced wrong data");
            }
        }
    }

    #[test]
    fn torn_trail_cut_at_every_byte_offset_never_yields_a_partial_record() {
        // Satellite: a trail image cut at ANY byte offset must scan to a
        // whole-record prefix — the torn suffix is truncated, and a partial
        // record is never replayed.
        let records = sample_records();
        let image: Vec<u8> = records.iter().flat_map(|r| r.encode()).collect();
        let boundaries: Vec<usize> = records
            .iter()
            .scan(0usize, |acc, r| {
                *acc += r.encode().len();
                Some(*acc)
            })
            .collect();
        for cut in 0..=image.len() {
            let (scanned, torn) = scan_tail(&image[..cut]);
            let whole = boundaries.iter().filter(|b| **b <= cut).count();
            assert_eq!(
                scanned.len(),
                whole,
                "cut at {cut}: scan must stop at the last whole record"
            );
            assert_eq!(scanned, records[..whole], "cut at {cut}: prefix differs");
            let last_boundary = boundaries[..whole].last().copied().unwrap_or(0);
            assert_eq!(torn, cut - last_boundary, "cut at {cut}: torn byte count");
        }
    }

    #[test]
    fn scan_tail_stops_at_corruption_mid_image() {
        let records = sample_records();
        let mut image: Vec<u8> = records.iter().flat_map(|r| r.encode()).collect();
        let second_start = records[0].encode().len();
        image[second_start + 3] ^= 0xFF; // corrupt record 2's header
        let (scanned, torn) = scan_tail(&image);
        assert_eq!(scanned, records[..1], "only the intact prefix survives");
        assert_eq!(torn, image.len() - second_start);
    }
}
