//! Allocation counts as a deterministic proxy for "a scan touches each row
//! once, where it lies": the cache lends the Disk Process its own image of
//! each leaf, a compiled predicate compares a record's fields in that image,
//! and a selected record goes from there into the reply's one buffer. What
//! a request allocates does not grow with the blocks it reads or the
//! records it examines — only with what it returns.

use nsql_disk::Disk;
use nsql_dp::{
    DiskProcess, DpConfig, DpContext, DpReply, DpRequest, FileId, ReadLock, SubsetMode, SubsetOp,
    SyncId, SyncRequest,
};
use nsql_lock::TxnId;
use nsql_msg::{Bus, CpuId, MsgKind};
use nsql_records::key::encode_record_key;
use nsql_records::row::{decode_row, encode_row};
use nsql_records::{
    AggFunc, ArithOp, CmpOp, Expr, FieldDef, FieldType, Kernel, KeyRange, OwnedBound, Predicate,
    Projection, RecordDescriptor, SetList, Value,
};
use nsql_sim::{Sim, SpanHeader};
use nsql_tmf::{CommitTimer, LsnSource, Trail, TxnManager};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

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

const VOLUME: &str = "$DATA1";

fn desc() -> RecordDescriptor {
    RecordDescriptor::new(
        vec![
            FieldDef::new("EMPNO", FieldType::Int),
            FieldDef::new("NAME", FieldType::Char(12)),
            FieldDef::new("HIRE_DATE", FieldType::Int),
            FieldDef::new("SALARY", FieldType::Double),
        ],
        vec![0],
    )
}

fn row(empno: i32) -> Vec<Value> {
    vec![
        Value::Int(empno),
        Value::Str(format!("EMP{empno:05}")),
        Value::Int(1980 + empno % 9),
        Value::Double(f64::from(1000 + empno * 10)),
    ]
}

/// One request as the File System sends it — sync ID and all, so the
/// duplicate-suppression cache keeps its copy of the reply.
fn send(bus: &Bus, seq: u64, req: DpRequest) -> DpReply {
    let size = req.wire_size();
    let sync = SyncId { opener: 1, seq };
    let span = SpanHeader::default();
    let envelope = Box::new(SyncRequest { sync, span, req });
    bus.request(CpuId::new(0, 0), VOLUME, MsgKind::FsDp, size, envelope)
        .expect("dp unreachable")
        .downcast::<DpReply>()
        .expect("dp reply type")
}

/// `(allocations, block reads, reply)` of one VSBB read of `NAME,
/// HIRE_DATE` over the keys `0..=hi`, selecting by `predicate`.
fn vsbb_read(
    sim: &Sim,
    bus: &Bus,
    file: FileId,
    seq: u64,
    hi: i32,
    predicate: Expr,
) -> (u64, u64, DpReply) {
    let request = DpRequest::SubsetFirst {
        file,
        range: KeyRange {
            begin: OwnedBound::Unbounded,
            end: OwnedBound::Included(encode_record_key(&desc(), &row(hi))),
        },
        predicate: Some(predicate),
        op: SubsetOp::Read {
            txn: None,
            projection: Some(vec![1, 2]),
            mode: SubsetMode::Vsbb,
            lock: ReadLock::None,
        },
    };
    let reads = || sim.metrics.snapshot().cache_hits + sim.metrics.snapshot().cache_misses;
    let (reads_before, allocs_before) = (reads(), ALLOCS.with(Cell::get));
    let reply = send(bus, seq, request);
    let allocs = ALLOCS.with(Cell::get) - allocs_before;
    (allocs, reads() - reads_before, reply)
}

/// `SALARY >= floor`.
fn paid(floor: f64) -> Expr {
    Expr::field_cmp(3, CmpOp::Ge, Value::Double(floor))
}

/// Nobody is paid this much.
const NOBODY: f64 = 1e9;

/// `(examined, selected)` of a reply that finished its range.
fn examined_and_selected(reply: &DpReply) -> (u32, u32) {
    match reply {
        DpReply::Subset {
            done: true,
            examined,
            affected,
            ..
        } => (*examined, *affected),
        other => panic!("expected the range in one reply, got {other:?}"),
    }
}

/// A Disk Process over a 6,000-row EMP file that fits its cache, already
/// read once, and its transaction manager; the handles keep it alive.
fn warm_file() -> (Sim, Arc<Bus>, FileId, Arc<DiskProcess>, Arc<TxnManager>) {
    warm_file_with(true)
}

/// [`warm_file`], with the Disk Process's write-behind on or off.
fn warm_file_with(
    write_behind: bool,
) -> (Sim, Arc<Bus>, FileId, Arc<DiskProcess>, Arc<TxnManager>) {
    let sim = Sim::new();
    let bus = Bus::new(sim.clone());
    let lsns = LsnSource::new();
    let trail = Trail::new(sim.clone(), Arc::clone(&lsns), CommitTimer::Fixed(1_000));
    bus.register(nsql_tmf::AUDIT_PROCESS, CpuId::new(0, 3), trail.clone());
    let txnmgr = TxnManager::new(sim.clone(), Arc::clone(&bus));
    let ctx = DpContext {
        sim: sim.clone(),
        bus: Arc::clone(&bus),
        trail,
        txnmgr: Arc::clone(&txnmgr),
        lsns,
    };
    // One request covers any range, one reply buffer holds every row.
    let config = DpConfig {
        max_records_per_request: 10_000,
        reply_buffer: 1 << 20,
        write_behind,
        ..DpConfig::default()
    };
    let disk = Disk::new(sim.clone(), VOLUME, true);
    let dp = DiskProcess::format(&ctx, VOLUME, CpuId::new(0, 1), disk, config);
    let created = send(&bus, 0, DpRequest::CreateFile { desc: desc() });
    let DpReply::FileCreated(file) = created else {
        panic!("unexpected {created:?}")
    };
    let txn = txnmgr.begin();
    for empno in 0..6_000 {
        let (key, record) = (
            encode_record_key(&desc(), &row(empno)),
            encode_row(&desc(), &row(empno)).unwrap(),
        );
        let insert = DpRequest::Insert {
            txn,
            file,
            key,
            record,
        };
        // Sync ids past the ones the tests send.
        assert!(matches!(
            send(&bus, 10_000 + empno as u64, insert),
            DpReply::Ok
        ));
    }
    txnmgr.commit(txn, CpuId::new(0, 0)).unwrap();
    // The file fits the cache; the first read warms it.
    vsbb_read(&sim, &bus, file, 4_000, 5_999, paid(NOBODY));
    (sim, bus, file, dp, txnmgr)
}

#[test]
fn an_examined_record_allocates_nothing_and_a_selected_one_only_grows_the_buffer() {
    let (sim, bus, file, _dp, _) = warm_file();

    // Rejected records: twice as many cost nothing more.
    let (small, _, reply) = vsbb_read(&sim, &bus, file, 4_001, 999, paid(NOBODY));
    assert_eq!(examined_and_selected(&reply), (1_000, 0));
    let (large, _, reply) = vsbb_read(&sim, &bus, file, 4_002, 1_999, paid(NOBODY));
    assert_eq!(examined_and_selected(&reply), (2_000, 0));
    assert_eq!(large, small, "1,000 against 2,000 records examined");

    // Selected records: all 2,000 go into one buffer, which allocates when
    // it doubles (plus the block's shared handle): 14 allocations more than
    // with none selected. Before the virtual block was one buffer: 16,066,
    // 8 per selected record.
    let (all, _, reply) = vsbb_read(&sim, &bus, file, 4_003, 1_999, paid(0.0));
    assert_eq!(examined_and_selected(&reply), (2_000, 2_000));
    let DpReply::Subset { rows, .. } = &reply else {
        unreachable!()
    };
    assert_eq!(rows.wire_len(), 2_000 * (2 + 1 + 12 + 4));
    let doublings = u64::from(rows.wire_len().ilog2());
    assert!(
        all <= large + doublings + 1,
        "2,000 records selected: {all} allocations, none selected: {large}, \
         the buffer doubled at most {doublings} times"
    );
}

#[test]
fn a_cache_resident_scan_allocates_per_reply_not_per_block() {
    let (sim, bus, file, _dp, _) = warm_file();
    // Twice the leaves, the same handful of allocations (the request, its
    // compiled forms, the reply): a block read is a lent image. Before the
    // cache lent its frames: 29 and 48, one 4 KB copy per block read.
    let (small, small_reads, _) = vsbb_read(&sim, &bus, file, 4_001, 1_999, paid(NOBODY));
    let (large, large_reads, _) = vsbb_read(&sim, &bus, file, 4_002, 3_999, paid(NOBODY));
    assert!(small_reads >= 20 && large_reads >= small_reads + 19);
    assert_eq!(
        large, small,
        "{small_reads} against {large_reads} block reads"
    );
    assert!(small < 10, "{small} allocations for one empty reply");
}

/// Every shape that compiles, each rejecting every record of the EMP
/// file: numbers of both kinds, CHAR (a `String` per record to the
/// interpreter), BETWEEN, IN with a NULL member, IS NULL, a literal on the
/// left, and the connectives over them.
fn compiled_shapes() -> Vec<Expr> {
    let field = |f: u16| Box::new(Expr::Field(f));
    let lit = |v: Value| Box::new(Expr::Lit(v));
    let name = |text: &str| Value::Str(text.into());
    vec![
        Expr::field_cmp(2, CmpOp::Lt, Value::SmallInt(0)),
        Expr::field_cmp(2, CmpOp::Gt, Value::Double(1e6)),
        Expr::field_cmp(1, CmpOp::Eq, name("NOBODY  ")),
        Expr::Cmp(lit(name("A")), CmpOp::Gt, field(1)),
        Expr::Between {
            expr: field(3),
            lo: lit(Value::Int(-2)),
            hi: lit(Value::Double(-1.0)),
        },
        Expr::Between {
            expr: field(0),
            lo: lit(Value::Int(-2)),
            hi: lit(Value::Int(-1)),
        },
        Expr::and(
            Expr::field_cmp(2, CmpOp::Ge, Value::Int(3_000)),
            Expr::field_cmp(2, CmpOp::Le, Value::LargeInt(i64::MAX)),
        ),
        Expr::InList(
            field(0),
            vec![Expr::Lit(Value::Int(-1)), Expr::Lit(Value::Null)],
        ),
        Expr::InList(field(1), vec![Expr::Lit(name("X")), Expr::Lit(name("Y"))]),
        Expr::IsNull {
            expr: field(1),
            negated: false,
        },
        Expr::and(
            Expr::or(paid(NOBODY), Expr::field_cmp(0, CmpOp::Lt, Value::Int(0))),
            Expr::Not(Box::new(Expr::field_cmp(1, CmpOp::Ne, name("EMP00000")))),
        ),
    ]
}

#[test]
fn an_examined_record_under_a_fixed_width_predicate_allocates_nothing() {
    let (sim, bus, file, _dp, _) = warm_file();
    let field = |f: u16| Box::new(Expr::Field(f));
    let compiled = compiled_shapes();
    let mut seq = 5_000;
    let mut allocations = |hi: i32, predicate: &Expr| {
        seq += 1;
        let (allocs, _, reply) = vsbb_read(&sim, &bus, file, seq, hi, predicate.clone());
        let (examined, selected) = examined_and_selected(&reply);
        assert_eq!(examined, hi as u32 + 1);
        assert!(selected <= 1, "{predicate}: {selected} selected");
        allocs
    };
    for predicate in &compiled {
        let (few, many) = (allocations(999, predicate), allocations(1_999, predicate));
        assert_eq!(many, few, "{predicate}: 1,000 against 2,000 records");
    }
    // The proxy is live: what falls back to the interpreter builds a value
    // per field it reads, and a CHAR value is a `String`.
    let interpreted = Expr::Like(field(1), "NOBODY%".into());
    let (few, many) = (
        allocations(999, &interpreted),
        allocations(1_999, &interpreted),
    );
    assert!(many >= few + 1_000, "LIKE: {few} against {many}");
}

/// `(allocations, reply)` of one aggregate request over the keys `0..=hi`:
/// `COUNT(*)`, `SUM(EMPNO)` and `MAX(NAME)` by `HIRE_DATE`.
fn fold_read(bus: &Bus, file: FileId, seq: u64, hi: i32) -> (u64, DpReply) {
    let request = DpRequest::SubsetFirst {
        file,
        range: KeyRange {
            begin: OwnedBound::Unbounded,
            end: OwnedBound::Included(encode_record_key(&desc(), &row(hi))),
        },
        predicate: None,
        op: SubsetOp::Aggregate {
            txn: None,
            lock: ReadLock::None,
            group_by: vec![2],
            aggs: vec![
                (AggFunc::Count, None),
                (AggFunc::Sum, Some(0)),
                (AggFunc::Max, Some(1)),
            ],
        },
    };
    let before = ALLOCS.with(Cell::get);
    let reply = send(bus, seq, request);
    (ALLOCS.with(Cell::get) - before, reply)
}

#[test]
fn a_folded_record_allocates_nothing() {
    let (_sim, bus, file, _dp, _) = warm_file();
    // The first aggregate sizes the buffers its groups keep for the next.
    fold_read(&bus, file, 6_000, 999);
    let (few, reply) = fold_read(&bus, file, 6_001, 999);
    assert_eq!(examined_and_selected(&reply), (1_000, 1_000));
    let (many, reply) = fold_read(&bus, file, 6_002, 1_999);
    assert_eq!(examined_and_selected(&reply), (2_000, 2_000));
    assert_eq!(many, few, "1,000 against 2,000 records folded");
    // The reply is the nine partial groups: the year, the count, the sum
    // as two words and the name, behind a one-byte bitmap.
    let DpReply::Subset { rows, .. } = &reply else {
        unreachable!()
    };
    assert_eq!(rows.iter().count(), 9);
    assert_eq!(rows.wire_len(), 9 * (2 + 1 + 4 + 8 * 4 + 12));
}

/// Allocations of point reads of the records `empnos` in `txn`, each
/// taking a shared record lock or none.
fn point_reads(
    bus: &Bus,
    file: FileId,
    seq: &mut u64,
    txn: TxnId,
    empnos: std::ops::Range<i32>,
    lock: ReadLock,
) -> u64 {
    let before = ALLOCS.with(Cell::get);
    for empno in empnos {
        *seq += 1;
        let key = encode_record_key(&desc(), &row(empno));
        let read = DpRequest::Read {
            txn: Some(txn),
            file,
            key,
            lock,
        };
        let reply = send(bus, *seq, read);
        assert!(matches!(reply, DpReply::Record(Some(_))), "{reply:?}");
    }
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_record_lock_allocates_at_most_its_key() {
    let (_sim, bus, file, dp, txnmgr) = warm_file();
    let txn = txnmgr.begin();
    let mut seq = 7_000;
    // The transaction joins the volume once, on its first lock.
    point_reads(&bus, file, &mut seq, txn, 2_999..3_000, ReadLock::Shared);
    let unlocked = point_reads(&bus, file, &mut seq, txn, 0..1_000, ReadLock::None);
    let locked = point_reads(&bus, file, &mut seq, txn, 0..1_000, ReadLock::Shared);
    assert_eq!(dp.locks.lock_count(), 1_001);
    // The lock table keeps a short key inline; what remains is its index
    // growing. Before the table was indexed: 4 per lock (the key, the
    // record scope's second copy, and the Disk Process's copy of both).
    assert!(
        locked <= unlocked + 1_000,
        "1,000 new record locks: {locked} allocations, {unlocked} without locking"
    );
    // Locked again: every lock is covered, and copies nothing.
    let covered = point_reads(&bus, file, &mut seq, txn, 0..1_000, ReadLock::Shared);
    assert_eq!(covered, unlocked, "1,000 covered re-acquires");
    assert_eq!(dp.locks.lock_count(), 1_001);
    txnmgr.commit(txn, CpuId::new(0, 0)).unwrap();
    assert_eq!(dp.locks.lock_count(), 0);
}

/// Allocations `work` makes on this thread.
fn allocations(work: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    work();
    ALLOCS.with(Cell::get) - before
}

/// The scan kernels, record by record, off the Disk Process: a compiled
/// predicate decides on the bytes, a projection appends to a buffer with
/// room for its rows, and `decode_row` allocates only the row's vector and
/// one string per text field that is not NULL.
#[test]
fn the_scan_kernels_allocate_nothing_per_record() {
    let d = desc();
    let records: Vec<Vec<u8>> = (0..100)
        .map(|empno| encode_row(&d, &row(empno)).unwrap())
        .collect();
    for shape in compiled_shapes() {
        let predicate = Predicate::new(&d, shape.clone());
        assert!(
            !predicate.kernels().contains(&Kernel::Interpreted),
            "{shape} compiles"
        );
        let n = allocations(|| {
            for record in &records {
                assert!(!predicate.passes(&d, black_box(record)).unwrap());
            }
        });
        assert_eq!(n, 0, "{shape}: {n} allocations over 100 records");
    }

    // With text of both kinds, NULLs among it.
    let texts = RecordDescriptor::new(
        vec![
            FieldDef::new("K", FieldType::Int),
            FieldDef::nullable("C", FieldType::Char(8)),
            FieldDef::nullable("V", FieldType::Varchar(20)),
            FieldDef::nullable("D", FieldType::Double),
        ],
        vec![0],
    );
    let text = |k: i32, s: &str| (k % 3 != 0).then(|| Value::Str(s.into()));
    let records: Vec<(Vec<u8>, u64)> = (0..100)
        .map(|k| {
            let values = vec![
                Value::Int(k),
                text(k, "CHAR").unwrap_or(Value::Null),
                text(k + 1, "varying").unwrap_or(Value::Null),
                Value::Double(k.into()),
            ];
            let strings = values.iter().filter(|v| matches!(v, Value::Str(_))).count();
            (encode_row(&texts, &values).unwrap(), strings as u64)
        })
        .collect();
    let plan = Projection::new(&texts, &[2, 3, 1, 0]).unwrap();
    // Room for every row: none is longer than 64 bytes.
    let mut block = Vec::with_capacity(records.len() * 64);
    let n = allocations(|| {
        for (record, _) in &records {
            plan.project_into(black_box(record), &mut block).unwrap();
        }
    });
    assert_eq!(n, 0, "projection: {n} allocations over 100 records");
    for (record, strings) in &records {
        let n = allocations(|| drop(black_box(decode_row(&texts, record).unwrap())));
        assert_eq!(
            n,
            1 + strings,
            "decode_row: the vector and {strings} strings"
        );
    }
}

/// `(allocations, cache hits, reply)` of one `UPDATE^SUBSET` in `txn`
/// raising the salary of the keys `0..=hi`.
fn raise(sim: &Sim, bus: &Bus, file: FileId, seq: u64, txn: TxnId, hi: i32) -> (u64, u64, DpReply) {
    let request = DpRequest::SubsetFirst {
        file,
        range: KeyRange {
            begin: OwnedBound::Unbounded,
            end: OwnedBound::Included(encode_record_key(&desc(), &row(hi))),
        },
        predicate: None,
        op: SubsetOp::Update {
            txn,
            sets: SetList {
                sets: vec![(
                    3,
                    Expr::Arith(
                        Box::new(Expr::Field(3)),
                        ArithOp::Add,
                        Box::new(Expr::Lit(Value::Double(1.0))),
                    ),
                )],
            },
            constraint: None,
        },
    };
    let hits = || sim.metrics.snapshot().cache_hits;
    let (hits_before, allocs_before) = (hits(), ALLOCS.with(Cell::get));
    let reply = send(bus, seq, request);
    let allocs = ALLOCS.with(Cell::get) - allocs_before;
    (allocs, hits() - hits_before, reply)
}

/// Phase 2 of a subset update changes a leaf's records in one new image
/// of it: the leaf is read once (root to leaf) and written once, whatever
/// number of its records change, and a changed record allocates what its
/// audit record and undo entry keep (its key, its field images). Before,
/// each record re-read its leaf and copied it whole: 4,039 reads for the
/// 2,000 records, and 6.35 allocations per record (3.41 at that size;
/// 3.38 over 4,000 records of a file loaded into full leaves).
#[test]
fn a_subset_update_rewrites_each_leaf_once() {
    // Every frame dirty after an update is one it wrote.
    let (sim, bus, file, dp, txnmgr) = warm_file_with(false);
    let updated = |seq: u64, hi: i32| {
        assert!(matches!(
            send(&bus, seq, DpRequest::FlushCache),
            DpReply::Ok
        ));
        let txn = txnmgr.begin();
        let (allocs, hits, reply) = raise(&sim, &bus, file, seq + 1, txn, hi);
        let written = dp.pool().dirty_frames() as u64;
        txnmgr.commit(txn, CpuId::new(0, 0)).unwrap();
        let (_, read, _) = vsbb_read(&sim, &bus, file, seq + 2, hi, paid(NOBODY));
        (allocs, hits, read, written, reply)
    };
    let (few, ..) = updated(8_000, 1_999);
    let (many, hits, read, written, reply) = updated(8_010, 3_999);
    assert_eq!(examined_and_selected(&reply), (4_000, 4_000));
    // The file is a root over its leaves: the scan reads the root and the
    // leaves, each of which phase 2 reads (root and leaf) and writes once.
    assert!(written >= 30, "{written} leaves");
    assert_eq!(read, 1 + written, "the scan's reads against leaves written");
    assert_eq!(hits, read + 2 * written, "reads by the scan and phase 2");
    assert!(
        many - few < 5 * 2_000,
        "2,000 against 4,000 records updated: {few} and {many} allocations"
    );
}
