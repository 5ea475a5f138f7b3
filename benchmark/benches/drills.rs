//! Per-layer drills: host nanoseconds per call of each lower layer's public
//! functions in a tight loop, with inputs shaped like the workload that was
//! just run (its statement texts, row layout, key count, message and I/O
//! sizes). They run after a traced run, outside every timed section.

use crate::harness::{median, now_ns, ratio, Metric};
use crate::measured::Counts;
use nsql_btree::{BTreeFile, MemStore, ScanControl};
use nsql_cache::{BufferPool, NoWal};
use nsql_core::Cluster;
use nsql_disk::Disk;
use nsql_fs::FileSystem;
use nsql_lock::{LockManager, LockMode, LockScope, TxnId};
use nsql_msg::{Bus, CpuId, MsgKind, Response, Server};
use nsql_records::key::encode_record_key;
use nsql_records::row::{decode_row, encode_row, extract_field};
use nsql_records::{Expr, RawRecord, SetList, Value};
use nsql_sim::{MeasureReport, Sim, SimRng, Wait};
use nsql_tmf::{AuditBody, AuditRecord, CommitTimer, LsnSource, Trail, TrailRequest};
use std::any::Any;
use std::hint::black_box;
use std::ops::Bound;
use std::sync::Arc;

/// What a workload tells the drills about the shape of its operations.
pub struct Shape<'a> {
    /// The workload's cluster, after its run.
    pub db: &'a Cluster,
    /// Statement texts the workload generated (empty when it bypasses SQL).
    pub statements: Vec<String>,
    /// The table its operations mostly touch.
    pub table: &'static str,
    /// A typical row of that table.
    pub row: Vec<Value>,
    /// A predicate the Disk Process evaluates per row.
    pub predicate: Expr,
    /// The update expressions the Disk Process applies per row.
    pub sets: SetList,
    /// Rows in that table (the B-tree drill caps it at `TREE_KEYS_MAX`).
    pub tree_keys: u32,
    /// One File System call shaped like the workload's operations.
    pub fs_call: Box<FsCall<'a>>,
}

/// A File System call under a transaction, with drawn keys.
pub type FsCall<'a> = dyn Fn(&FileSystem, TxnId, &mut SimRng) + 'a;

/// The B-tree drill builds at most this many keys: enough for the depth of
/// every workload's tree (three levels) without a second of set-up.
const TREE_KEYS_MAX: u32 = 20_000;
/// Host time each drill aims to spend, its untimed preparation included.
const DRILL_BUDGET_NS: u64 = 30_000_000;

/// One timed batch: (calls, nanoseconds).
type Batch = (u64, u64);

/// Median nanoseconds per call over repeated batches: at least
/// `min_batches`, and more while the time budget lasts.
fn drill(min_batches: usize, mut batch: impl FnMut() -> Batch) -> f64 {
    let mut per_call = Vec::new();
    let started = now_ns();
    while per_call.len() < min_batches || now_ns() - started < DRILL_BUDGET_NS {
        let (calls, ns) = batch();
        if calls == 0 {
            return 0.0;
        }
        per_call.push(ns as f64 / calls as f64);
    }
    median(&mut per_call)
}

/// Median nanoseconds per call of `f`, `calls` to a batch.
fn per_call(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    drill(5, || timed(calls, &mut f))
}

/// Time `calls` invocations of `f`.
fn timed(calls: u64, mut f: impl FnMut(u64)) -> Batch {
    let t0 = now_ns();
    for i in 0..calls {
        f(i);
    }
    (calls, now_ns() - t0)
}

struct NullServer {
    reply_bytes: usize,
}

impl Server for NullServer {
    fn handle(&self, _request: Box<dyn Any + Send>) -> Response {
        Response::new((), self.reply_bytes)
    }
}

/// Run every drill. `counts` are the workload's own counts, from which the
/// mean message size and blocks per disk I/O are taken.
pub fn run(shape: &Shape<'_>, counts: &Counts) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut ns = |name: &'static str, value: f64| out.push(Metric::new(name, value, "ns", "D"));
    let mut rng = SimRng::seed_from(0xD811);

    // --- sql: the workload's own statement texts -----------------------
    let db = shape.db;
    let texts = &shape.statements;
    ns(
        "sql.parse_ns",
        per_call(texts.len() as u64, |i| {
            black_box(nsql_sql::parse(&texts[i as usize]).expect("statement parses"));
        }),
    );
    ns(
        "sql.plan_ns",
        drill(5, || {
            let parsed: Vec<_> = texts
                .iter()
                .map(|t| nsql_sql::parse(t).expect("statement parses"))
                .collect();
            let calls = parsed.len() as u64;
            let t0 = now_ns();
            for stmt in parsed {
                black_box(nsql_sql::plan(&db.catalog, stmt).expect("statement plans"));
            }
            (calls, now_ns() - t0)
        }),
    );

    // --- core: what Session::execute does around every statement -------
    let sim = &db.sim;
    ns(
        "core.bookkeeping_ns",
        per_call(100, |_| {
            let before = sim.metrics.snapshot();
            let measure_before = MeasureReport::capture(sim);
            let w0 = sim.wait_profile();
            black_box((
                sim.metrics.snapshot() - before,
                sim.wait_profile() - w0,
                MeasureReport::capture(sim).since(&measure_before),
            ));
        }),
    );

    // --- fs: one call per transaction, the commit outside the timing ---
    let session = db.session();
    ns(
        "fs.call_ns",
        drill(5, || {
            let (mut calls, mut spent) = (0, 0);
            while spent < 2_000_000 && calls < 200 {
                let txn = db.txnmgr.begin();
                let t0 = now_ns();
                (shape.fs_call)(session.fs(), txn, &mut rng);
                spent += now_ns() - t0;
                calls += 1;
                db.txnmgr
                    .commit(txn, session.cpu())
                    .expect("drill transaction commits");
            }
            (calls, spent)
        }),
    );

    // --- msg: a round trip to a server that does nothing ---------------
    let half_exchange = (ratio(counts.get("msg_bytes_total"), counts.get("msgs_total")) / 2.0)
        .round()
        .max(1.0) as usize;
    {
        let bus = Bus::new(Sim::new());
        let server = Arc::new(NullServer {
            reply_bytes: half_exchange,
        });
        bus.register("$NULL", CpuId::new(0, 1), server);
        let from = CpuId::new(0, 0);
        ns(
            "msg.roundtrip_ns",
            per_call(1_000, |_| {
                let reply = bus.request(from, "$NULL", MsgKind::FsDp, half_exchange, Box::new(()));
                black_box(reply.expect("null server replies"));
            }),
        );
    }

    // --- records: the workload's row layout ----------------------------
    let desc = db
        .catalog
        .table(shape.table)
        .expect("the workload's table exists")
        .open
        .desc;
    let record = encode_row(&desc, &shape.row).expect("sample row encodes");
    let key = encode_record_key(&desc, &shape.row);
    let raw = RawRecord {
        desc: &desc,
        bytes: &record,
    };
    let mut fields = Vec::new();
    shape.predicate.collect_fields(&mut fields);
    let field = fields.first().copied().unwrap_or(0);
    ns(
        "records.encode_row_ns",
        per_call(1_000, |_| {
            black_box(encode_row(&desc, black_box(&shape.row)).expect("row encodes"));
        }),
    );
    ns(
        "records.decode_row_ns",
        per_call(1_000, |_| {
            black_box(decode_row(&desc, black_box(&record)).expect("row decodes"));
        }),
    );
    ns(
        "records.extract_field_ns",
        per_call(1_000, |_| {
            black_box(extract_field(&desc, black_box(&record), field).expect("field"));
        }),
    );
    ns(
        "records.expr_eval_ns",
        per_call(1_000, |_| {
            black_box(shape.predicate.passes(black_box(&raw)).expect("predicate"));
        }),
    );
    ns(
        "records.setlist_apply_ns",
        per_call(1_000, |_| {
            black_box(shape.sets.apply(black_box(&raw)).expect("set list applies"));
        }),
    );
    ns(
        "records.key_encode_ns",
        per_call(1_000, |_| {
            black_box(encode_record_key(&desc, black_box(&shape.row)));
        }),
    );

    // --- btree over MemStore: the workload's key count and value size --
    {
        let keys = shape.tree_keys.min(TREE_KEYS_MAX);
        let store = MemStore::new();
        let root = BTreeFile::create(&store);
        let tree = BTreeFile::open(&store, root);
        // Even keys are loaded; the odd ones between them are inserted and
        // deleted again by the drill, so the tree keeps its size.
        let key_of = |k: u32| k.to_be_bytes();
        for k in 0..keys {
            tree.insert(&key_of(2 * k), &record).expect("tree load");
        }
        let pick = |rng: &mut SimRng| rng.below(u64::from(keys)) as u32;
        ns(
            "btree.get_ns",
            per_call(200, |_| {
                black_box(tree.get(&key_of(2 * pick(&mut rng))));
            }),
        );
        ns(
            "btree.update_ns",
            per_call(200, |_| {
                tree.update(&key_of(2 * pick(&mut rng)), &record)
                    .expect("key is present");
            }),
        );
        let run = 100.min(keys);
        let mut deletes = Vec::new();
        ns(
            "btree.insert_ns",
            drill(5, || {
                let lo = rng.below(u64::from(keys - run + 1)) as u32;
                let inserted = timed(u64::from(run), |i| {
                    tree.insert(&key_of(2 * (lo + i as u32) + 1), &record)
                        .expect("key is new");
                });
                let (calls, ns) = timed(u64::from(run), |i| {
                    black_box(tree.delete(&key_of(2 * (lo + i as u32) + 1)).expect("key"));
                });
                deletes.push(ns as f64 / calls as f64);
                inserted
            }),
        );
        ns("btree.delete_ns", median(&mut deletes));
        let entries = 1_000.min(keys);
        ns(
            "btree.scan_ns_per_entry",
            drill(5, || {
                let start = key_of(2 * (rng.below(u64::from(keys - entries + 1)) as u32));
                let mut left = entries;
                let t0 = now_ns();
                tree.scan(Bound::Included(&start), |k, v| {
                    black_box((k, v));
                    left -= 1;
                    if left == 0 {
                        ScanControl::Stop
                    } else {
                        ScanControl::Continue
                    }
                });
                (u64::from(entries), now_ns() - t0)
            }),
        );
    }

    // --- disk: the workload's mean blocks per read and per write -------
    // --- cache: a 256-frame pool over that 1,024-block disk ------------
    {
        const DISK_BLOCKS: u32 = 1_024;
        const FRAMES: u32 = 256;
        let sim = Sim::new();
        let disk = Disk::new(sim.clone(), "$DRILL", true);
        let block = vec![0xA5u8; disk.block_size()];
        for b in 0..DISK_BLOCKS {
            disk.write(b, std::slice::from_ref(&block))
                .expect("disk write");
        }
        let max_string = sim.cost.bulk_io_max_blocks();
        let string_of = |blocks: &str, ios: &str| {
            (ratio(counts.get(blocks), counts.get(ios)).round() as usize).clamp(1, max_string)
        };
        let read_string = string_of("disk_blocks_read", "disk_reads");
        let write_string = vec![block.clone(); string_of("disk_blocks_written", "disk_writes")];
        let start = |rng: &mut SimRng| rng.below(u64::from(DISK_BLOCKS) - max_string as u64) as u32;
        ns(
            "disk.read_ns",
            per_call(200, |_| {
                black_box(disk.read(start(&mut rng), read_string).expect("disk read"));
            }),
        );
        ns(
            "disk.write_ns",
            per_call(200, |_| {
                disk.write(start(&mut rng), &write_string)
                    .expect("disk write");
            }),
        );

        let pool = BufferPool::new(
            sim.clone(),
            Arc::clone(&disk),
            Arc::new(NoWal),
            FRAMES as usize,
        );
        for b in 0..FRAMES {
            pool.read(b).expect("pool read");
        }
        ns(
            "cache.read_hit_ns",
            per_call(500, |_| {
                // The most recently used half stays resident below.
                let b = FRAMES / 2 + rng.below(u64::from(FRAMES / 2)) as u32;
                black_box(pool.read(b).expect("pool read"));
            }),
        );
        ns(
            "cache.write_ns",
            drill(5, || {
                let mut datas = vec![block.clone(); 100];
                timed(100, |i| {
                    let b = FRAMES / 2 + rng.below(u64::from(FRAMES / 2)) as u32;
                    let data = std::mem::take(&mut datas[i as usize]);
                    pool.write(b, data, 0).expect("pool write");
                })
            }),
        );
        // The pool is full and every block read next is absent, so each
        // read evicts: a cycle over more blocks than frames never hits.
        let mut cursor = FRAMES;
        ns(
            "cache.read_miss_ns",
            per_call(100, |_| {
                black_box(pool.read(cursor).expect("pool read"));
                cursor = (cursor + 1) % DISK_BLOCKS;
            }),
        );
    }

    // --- lock: record locks, few held and many held --------------------
    {
        const FILE: u32 = 1;
        let (holder, asker) = (TxnId(1), TxnId(2));
        let record_lock = |k: u32| LockScope::record(k.to_be_bytes().to_vec());
        let holding = |locks: u32| {
            let lm = LockManager::new();
            for k in 0..locks {
                lm.acquire(holder, FILE, record_lock(k), LockMode::Exclusive)
                    .expect("no conflict");
            }
            lm
        };
        // Exactly ten held at every timed call: one fresh table per call.
        let few: Vec<LockManager> = (0..256).map(|_| holding(10)).collect();
        ns(
            "lock.acquire_ns_10_held",
            drill(5, || {
                let batch = timed(few.len() as u64, |i| {
                    few[i as usize]
                        .acquire(asker, FILE, record_lock(1_000_000), LockMode::Exclusive)
                        .expect("no conflict");
                });
                few.iter().for_each(|lm| lm.release_all(asker));
                batch
            }),
        );
        // 5,000 held, growing by under 1 % within a batch.
        let many = holding(5_000);
        ns(
            "lock.acquire_ns_5k_held",
            drill(5, || {
                let batch = timed(32, |i| {
                    many.acquire(
                        asker,
                        FILE,
                        record_lock(1_000_000 + i as u32),
                        LockMode::Exclusive,
                    )
                    .expect("no conflict");
                });
                many.release_all(asker);
                batch
            }),
        );
        drop(many);
        ns(
            "lock.release_all_ns_5k",
            drill(3, || {
                let lm = holding(5_000);
                timed(1, |_| lm.release_all(holder))
            }),
        );
    }

    // --- tmf: commit arrivals at the trail, and the audit record codec -
    {
        let sim = Sim::new();
        let trail = Trail::new(sim.clone(), LsnSource::new(), CommitTimer::default());
        let mut txn = 0;
        ns(
            "tmf.commit_ns",
            per_call(500, |_| {
                txn += 1;
                black_box(trail.apply(TrailRequest::Commit { txn: TxnId(txn) }));
                // Commits arrive a virtual millisecond apart, so group
                // timers expire and flushes happen as they do under load.
                sim.clock.advance_in(Wait::Other, 1_000);
            }),
        );
        let before = shape
            .sets
            .target_fields()
            .iter()
            .map(|&f| (f, shape.row[f as usize].clone()))
            .collect();
        let audit = AuditRecord {
            lsn: 1,
            txn: TxnId(1),
            volume: "$DATA1".to_string(),
            file: 1,
            body: AuditBody::UpdateFields {
                key: key.clone(),
                before,
                after: shape.sets.apply(&raw).expect("set list applies"),
            },
        };
        ns(
            "tmf.audit_encode_ns",
            per_call(1_000, |_| {
                black_box(black_box(&audit).encode());
            }),
        );
    }

    // --- sim: the two calls every layer makes --------------------------
    {
        let sim = Sim::new();
        ns(
            "sim.clock_advance_ns",
            per_call(10_000, |_| {
                black_box(sim.clock.advance_in(Wait::Cpu, 1));
            }),
        );
        ns(
            "sim.metrics_snapshot_ns",
            per_call(1_000, |_| {
                black_box(sim.metrics.snapshot());
            }),
        );
    }
    out
}
