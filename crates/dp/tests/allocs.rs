//! Allocation counts as a deterministic proxy for "a scan touches each row
//! once": the Disk Process examines a record where it lies in the cached
//! leaf, and a selected one goes from there into the reply's one buffer.
//! What still allocates per block is the block store handing out a copy of
//! each block read.

use nsql_disk::Disk;
use nsql_dp::{
    DiskProcess, DpConfig, DpContext, DpReply, DpRequest, FileId, FileKind, ReadLock, SubsetMode,
    SubsetOp, SyncId, SyncRequest,
};
use nsql_msg::{Bus, CpuId, MsgKind};
use nsql_records::key::encode_record_key;
use nsql_records::row::encode_row;
use nsql_records::{
    CmpOp, Expr, FieldDef, FieldType, KeyRange, OwnedBound, RecordDescriptor, Value,
};
use nsql_sim::{Sim, SpanHeader};
use nsql_tmf::{CommitTimer, LsnSource, Trail, TxnManager};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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
/// HIRE_DATE` over the keys `0..=hi`, selecting by `SALARY >= floor`.
fn vsbb_read(
    sim: &Sim,
    bus: &Bus,
    file: FileId,
    seq: u64,
    hi: i32,
    floor: f64,
) -> (u64, u64, DpReply) {
    let request = DpRequest::SubsetFirst {
        file,
        range: KeyRange {
            begin: OwnedBound::Unbounded,
            end: OwnedBound::Included(encode_record_key(&desc(), &row(hi))),
        },
        predicate: Some(Expr::field_cmp(3, CmpOp::Ge, Value::Double(floor))),
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

#[test]
fn an_examined_record_allocates_nothing_and_a_selected_one_only_grows_the_buffer() {
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
        ..DpConfig::default()
    };
    let disk = Disk::new(sim.clone(), VOLUME, true);
    let _dp = DiskProcess::format(&ctx, VOLUME, CpuId::new(0, 1), disk, config);
    let created = send(
        &bus,
        0,
        DpRequest::CreateFile {
            kind: FileKind::KeySequenced(desc()),
        },
    );
    let DpReply::FileCreated(file) = created else {
        panic!("unexpected {created:?}")
    };
    let txn = txnmgr.begin();
    for empno in 0..3_000 {
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
        assert!(matches!(send(&bus, 1 + empno as u64, insert), DpReply::Ok));
    }
    txnmgr.commit(txn, CpuId::new(0, 0)).unwrap();

    let examined_and_selected = |reply: &DpReply| match reply {
        DpReply::Subset {
            done: true,
            examined,
            affected,
            ..
        } => (*examined, *affected),
        other => panic!("expected the range in one reply, got {other:?}"),
    };
    const NOBODY: f64 = 1e9;
    // The file fits the cache; the first read warms it.
    vsbb_read(&sim, &bus, file, 4_000, 2_999, NOBODY);

    // Rejected records: twice as many cost only the extra leaves' block
    // copies (one allocation each; the bound leaves room for three). 29 and
    // 48 allocations over 20 and 39 block reads; before the virtual block
    // was one buffer 35 and 54 — this half held already.
    let (small, small_reads, reply) = vsbb_read(&sim, &bus, file, 4_001, 999, NOBODY);
    assert_eq!(examined_and_selected(&reply), (1_000, 0));
    let (large, large_reads, reply) = vsbb_read(&sim, &bus, file, 4_002, 1_999, NOBODY);
    assert_eq!(examined_and_selected(&reply), (2_000, 0));
    assert!(large_reads > small_reads);
    assert!(
        large <= small + 3 * (large_reads - small_reads),
        "1,000 records examined: {small} allocations over {small_reads} block reads; \
         2,000: {large} over {large_reads}"
    );

    // Selected records: all 2,000 go into one buffer, which allocates when
    // it doubles (plus the block's shared handle): 62 allocations, 14 more
    // than with none selected. Before: 16,066, 8 per selected record.
    let (all, all_reads, reply) = vsbb_read(&sim, &bus, file, 4_003, 1_999, 0.0);
    assert_eq!(examined_and_selected(&reply), (2_000, 2_000));
    assert_eq!(all_reads, large_reads);
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
