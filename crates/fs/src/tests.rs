//! File System tests: partition routing, index maintenance, Figure-2 paths
//! and the three sequential-read interfaces.

use crate::enscribe::EnscribeCursor;
use crate::sqlapi::BlockedInserter;
use crate::*;
use nsql_disk::Disk;
use nsql_dp::{DiskProcess, DpConfig, DpContext, ReadLock, SubsetMode};
use nsql_lock::LockMode;
use nsql_records::key::{encode_key_prefix, encode_record_key};
use nsql_records::{CmpOp, Expr, FieldDef, FieldType, OwnedBound, SetList};
use nsql_sim::TraceEventKind;
use nsql_tmf::{CommitTimer, LsnSource, Trail, TxnManager, AUDIT_PROCESS};

/// Every row of `idx` in `range`, decoded.
fn index_rows(fs: &FileSystem, idx: &IndexInfo, range: &KeyRange) -> Vec<Row> {
    let mut rows = Vec::new();
    fs.scan_index(None, idx, range, None, ReadLock::None, |row| {
        rows.push(row.decode()?);
        Ok(())
    })
    .unwrap();
    rows
}

struct World {
    sim: Sim,
    bus: Arc<Bus>,
    txnmgr: Arc<TxnManager>,
    fs: FileSystem,
    client: CpuId,
    dps: Vec<Arc<DiskProcess>>,
}

fn world(volumes: &[&str]) -> World {
    let sim = Sim::new();
    let bus = Bus::new(sim.clone());
    let lsns = LsnSource::new();
    let trail = Trail::new(sim.clone(), Arc::clone(&lsns), CommitTimer::Fixed(1_000));
    bus.register(AUDIT_PROCESS, CpuId::new(0, 3), trail.clone());
    let txnmgr = TxnManager::new(sim.clone(), Arc::clone(&bus));
    let ctx = DpContext {
        sim: sim.clone(),
        bus: Arc::clone(&bus),
        trail,
        txnmgr: Arc::clone(&txnmgr),
        lsns,
    };
    let mut dps = Vec::new();
    for (i, name) in volumes.iter().enumerate() {
        let disk = Disk::new(sim.clone(), *name, true);
        let dp = DiskProcess::format(
            &ctx,
            name,
            CpuId::new(0, 1 + i as u8),
            disk,
            DpConfig::default(),
        );
        dps.push(dp);
    }
    let client = CpuId::new(0, 0);
    let fs = FileSystem::new(sim.clone(), Arc::clone(&bus), client);
    World {
        sim,
        bus,
        txnmgr,
        fs,
        client,
        dps,
    }
}

fn emp_desc() -> RecordDescriptor {
    RecordDescriptor::new(
        vec![
            FieldDef::new("EMPNO", FieldType::Int),
            FieldDef::new("NAME", FieldType::Char(12)),
            FieldDef::new("DEPT", FieldType::Int),
            FieldDef::new("SALARY", FieldType::Double),
        ],
        vec![0],
    )
}

fn emp_row(empno: i32, name: &str, dept: i32, salary: f64) -> Vec<Value> {
    vec![
        Value::Int(empno),
        Value::Str(name.into()),
        Value::Int(dept),
        Value::Double(salary),
    ]
}

fn emp_key(empno: i32) -> Vec<u8> {
    encode_record_key(&emp_desc(), &emp_row(empno, "", 0, 0.0))
}

/// Create the EMP table partitioned at EMPNO = 500 across two volumes,
/// with a (non-unique) index on DEPT on a third volume.
fn create_partitioned_emp(w: &World) -> OpenFile {
    let desc = emp_desc();
    let mk_file = |proc_name: &str, desc: RecordDescriptor| -> FileId {
        match w
            .fs
            .send(proc_name, nsql_dp::DpRequest::CreateFile { desc })
            .unwrap()
        {
            nsql_dp::DpReply::FileCreated(id) => id,
            other => panic!("{other:?}"),
        }
    };
    let f1 = mk_file("$DATA1", desc.clone());
    let f2 = mk_file("$DATA2", desc.clone());
    let split = emp_key(500);
    let mut of = OpenFile {
        name: "EMP".into(),
        desc: desc.clone(),
        partitions: vec![
            Partition {
                process: "$DATA1".into(),
                file: f1,
                range: KeyRange {
                    begin: OwnedBound::Unbounded,
                    end: OwnedBound::Excluded(split.clone()),
                },
            },
            Partition {
                process: "$DATA2".into(),
                file: f2,
                range: KeyRange {
                    begin: OwnedBound::Included(split),
                    end: OwnedBound::Unbounded,
                },
            },
        ],
        indexes: Vec::new(),
    };
    // Index on DEPT, on the third volume.
    let idx = IndexInfo::build("EMP_DEPT", "$IDX", 0, &desc, vec![2], false);
    let ifile = mk_file("$IDX", idx.desc.clone());
    let idx = IndexInfo { file: ifile, ..idx };
    of.indexes.push(idx);
    of
}

fn load(w: &World, of: &OpenFile, n: i32) {
    let txn = w.txnmgr.begin();
    for i in 0..n {
        w.fs.insert_row(
            txn,
            of,
            &emp_row(i, &format!("E{i:05}"), i % 10, (1000 + i) as f64),
        )
        .unwrap();
    }
    w.txnmgr.commit(txn, w.client).unwrap();
}

#[test]
fn partition_routing_by_key() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let of = create_partitioned_emp(&w);
    load(&w, &of, 1000);
    // Keys below 500 live on $DATA1, the rest on $DATA2.
    assert_eq!(of.partition_for(&emp_key(10)).unwrap().process, "$DATA1");
    assert_eq!(of.partition_for(&emp_key(700)).unwrap().process, "$DATA2");
    // Point reads work on both sides of the split.
    for k in [499, 500] {
        let row = w.fs.read_by_key(None, &of, &emp_key(k), ReadLock::None);
        assert_eq!(row.unwrap().unwrap().0[0], Value::Int(k));
    }
}

#[test]
fn partitioned_scan_fans_out_in_order() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let of = create_partitioned_emp(&w);
    load(&w, &of, 1000);
    let scan =
        w.fs.scan(
            None,
            &of,
            &KeyRange::all(),
            None,
            Some(&[0]),
            SubsetMode::Vsbb,
            ReadLock::None,
        )
        .unwrap();
    assert_eq!(scan.rows.len(), 1000);
    // Rows arrive in key order across the partition boundary.
    let ids: Vec<i32> = scan
        .rows
        .iter()
        .map(|r| match r.0[0] {
            Value::Int(i) => i,
            _ => panic!(),
        })
        .collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn range_scan_touches_only_needed_partition() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let of = create_partitioned_emp(&w);
    load(&w, &of, 1000);
    let before = w.sim.metrics.snapshot();
    let range = KeyRange {
        begin: OwnedBound::Included(emp_key(600)),
        end: OwnedBound::Included(emp_key(650)),
    };
    let scan =
        w.fs.scan(
            None,
            &of,
            &range,
            None,
            Some(&[0]),
            SubsetMode::Vsbb,
            ReadLock::None,
        )
        .unwrap();
    assert_eq!(scan.rows.len(), 51);
    let d = w.sim.metrics.snapshot() - before;
    // Only $DATA2 was consulted: 51 narrow rows fit one virtual block.
    assert_eq!(d.msgs_fs_dp, 1);
}

#[test]
fn figure_2_read_via_alternate_key() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let of = create_partitioned_emp(&w);
    load(&w, &of, 100);
    let idx = &of.indexes[0];
    // All employees in DEPT 3: index range on prefix (dept = 3).
    let prefix = encode_key_prefix(&[(FieldType::Int, Value::Int(3))]);
    let range = KeyRange::prefix(prefix);
    let before = w.sim.metrics.snapshot();
    let mut rows = Vec::new();
    let lock = ReadLock::None;
    w.fs.read_via_index(None, &of, idx, &range, None, lock, |row| {
        rows.push(row.decode()?);
        Ok(())
    })
    .unwrap();
    assert_eq!(rows.len(), 10);
    for r in &rows {
        assert_eq!(r.0[2], Value::Int(3));
        assert_eq!(r.0.len(), 4, "full base rows returned");
    }
    let d = w.sim.metrics.snapshot() - before;
    // Figure 2's shape: one index subset message + one base read per row.
    assert_eq!(d.msgs_fs_dp, 1 + 10);
}

#[test]
fn index_maintained_on_insert_update_delete() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let of = create_partitioned_emp(&w);
    load(&w, &of, 20);
    let idx = &of.indexes[0];
    let dept_range =
        |d: i32| KeyRange::prefix(encode_key_prefix(&[(FieldType::Int, Value::Int(d))]));

    // Move EMPNO 5 from DEPT 5 to DEPT 9 (indexed field -> maintenance).
    let txn = w.txnmgr.begin();
    let sets = SetList {
        sets: vec![(2, Expr::lit(Value::Int(9)))],
    };
    w.fs.update_by_key(txn, &of, &emp_key(5), &sets, None)
        .unwrap();
    w.txnmgr.commit(txn, w.client).unwrap();

    let in_5 = index_rows(&w.fs, idx, &dept_range(5));
    assert!(
        in_5.iter().all(|r| r.0[1] != Value::Int(5)),
        "old index entry removed"
    );
    let in_9 = index_rows(&w.fs, idx, &dept_range(9));
    assert!(
        in_9.iter().any(|r| r.0[1] == Value::Int(5)),
        "new entry added"
    );

    // Delete EMPNO 5: its index entry disappears.
    let txn = w.txnmgr.begin();
    w.fs.delete_by_key(txn, &of, &emp_key(5)).unwrap();
    w.txnmgr.commit(txn, w.client).unwrap();
    let in_9 = index_rows(&w.fs, idx, &dept_range(9));
    assert!(in_9.iter().all(|r| r.0[1] != Value::Int(5)));
}

#[test]
fn update_of_unindexed_field_pushes_down() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let of = create_partitioned_emp(&w);
    load(&w, &of, 100);
    let before = w.sim.metrics.snapshot();
    let txn = w.txnmgr.begin();
    // SALARY is not indexed: full pushdown, no reads back to the FS.
    let sets = SetList {
        sets: vec![(
            3,
            Expr::Arith(
                Box::new(Expr::Field(3)),
                nsql_records::ArithOp::Mul,
                Box::new(Expr::lit(Value::Double(1.07))),
            ),
        )],
    };
    let n =
        w.fs.update_set(txn, &of, &KeyRange::all(), None, &sets, None)
            .unwrap();
    w.txnmgr.commit(txn, w.client).unwrap();
    assert_eq!(n, 100);
    let d = w.sim.metrics.snapshot() - before;
    assert!(
        d.msgs_fs_dp <= 4,
        "set-oriented pushdown should need ~1 message per partition, got {}",
        d.msgs_fs_dp
    );
    assert_eq!(d.rows_returned, 0);
}

#[test]
fn update_of_indexed_field_falls_back_to_maintenance() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let of = create_partitioned_emp(&w);
    load(&w, &of, 30);
    let txn = w.txnmgr.begin();
    let sets = SetList {
        sets: vec![(2, Expr::lit(Value::Int(7)))],
    };
    let n =
        w.fs.update_set(
            txn,
            &of,
            &KeyRange {
                begin: OwnedBound::Unbounded,
                end: OwnedBound::Included(emp_key(9)),
            },
            None,
            &sets,
            None,
        )
        .unwrap();
    w.txnmgr.commit(txn, w.client).unwrap();
    assert_eq!(n, 10);
    // Every employee 0..=9 is now in DEPT 7 per the index.
    let idx = &of.indexes[0];
    let range = KeyRange::prefix(encode_key_prefix(&[(FieldType::Int, Value::Int(7))]));
    let entries = index_rows(&w.fs, idx, &range);
    // Originally EMPNO 7 and 17, 27 were in dept 7; after the update 0..=9
    // all are, and 7 stays: total = 10 + {17, 27} = 12.
    assert_eq!(entries.len(), 12);
}

#[test]
fn sequential_read_interfaces_message_ratio() {
    // The E2 mechanism: record-at-a-time ≫ RSBB ≫ VSBB in message count.
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let of = create_partitioned_emp(&w);
    load(&w, &of, 1000);

    // Record-at-a-time.
    let before = w.sim.metrics.snapshot();
    let mut cur = w.fs.ens_open(&of, None);
    let mut n = 0;
    while w.fs.ens_read_next(&mut cur).unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, 1000);
    let record_at_a_time = (w.sim.metrics.snapshot() - before).msgs_fs_dp;

    // RSBB.
    let txn = w.txnmgr.begin();
    let before = w.sim.metrics.snapshot();
    let mut cur: EnscribeCursor = w.fs.ens_open_sbb(&of, txn).unwrap();
    let mut n = 0;
    while w.fs.ens_read_next(&mut cur).unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, 1000);
    let rsbb = (w.sim.metrics.snapshot() - before).msgs_fs_dp;
    w.txnmgr.commit(txn, w.client).unwrap();

    // VSBB with projection (narrow rows pack densely).
    let before = w.sim.metrics.snapshot();
    let scan =
        w.fs.scan(
            None,
            &of,
            &KeyRange::all(),
            None,
            Some(&[0]),
            SubsetMode::Vsbb,
            ReadLock::None,
        )
        .unwrap();
    assert_eq!(scan.rows.len(), 1000);
    let vsbb = (w.sim.metrics.snapshot() - before).msgs_fs_dp;

    assert!(record_at_a_time >= 1000);
    assert!(
        rsbb * 3 <= record_at_a_time,
        "RSBB ({rsbb}) must be at least 3x fewer messages than record-at-a-time ({record_at_a_time})"
    );
    assert!(
        vsbb * 2 <= rsbb,
        "projected VSBB ({vsbb}) must beat RSBB ({rsbb})"
    );
}

#[test]
fn sbb_requires_file_lock_blocking_writers() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let of = create_partitioned_emp(&w);
    load(&w, &of, 10);
    let reader = w.txnmgr.begin();
    let _cur = w.fs.ens_open_sbb(&of, reader).unwrap();
    // A writer is blocked anywhere in the file.
    let writer = w.txnmgr.begin();
    let err =
        w.fs.insert_row(writer, &of, &emp_row(5000, "W", 0, 0.0))
            .unwrap_err();
    assert!(matches!(err, FsError::Dp(nsql_dp::DpError::Locked { .. })));
    w.txnmgr.abort(writer, w.client).unwrap();
    w.txnmgr.commit(reader, w.client).unwrap();
}

#[test]
fn enscribe_rewrite_is_read_plus_write() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let of = create_partitioned_emp(&w);
    load(&w, &of, 10);
    let txn = w.txnmgr.begin();
    let before = w.sim.metrics.snapshot();
    // ENSCRIBE discipline: read the record, change a field, write back.
    let old =
        w.fs.ens_read(Some(txn), &of, &emp_key(4), ReadLock::Shared)
            .unwrap()
            .unwrap();
    let mut new = old.0.clone();
    new[3] = Value::Double(4321.0);
    w.fs.ens_rewrite(txn, &of, &old.0, &new).unwrap();
    let d = w.sim.metrics.snapshot() - before;
    assert_eq!(d.msgs_fs_dp, 2, "read + write");
    w.txnmgr.commit(txn, w.client).unwrap();
    let got =
        w.fs.read_by_key(None, &of, &emp_key(4), ReadLock::None)
            .unwrap()
            .unwrap();
    assert_eq!(got.0[3], Value::Double(4321.0));
}

#[test]
fn blocked_inserter_batches_messages() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let of = create_partitioned_emp(&w);
    let txn = w.txnmgr.begin();
    let before = w.sim.metrics.snapshot();
    let mut ins = BlockedInserter::new(&w.fs, &of, txn);
    for i in 0..400 {
        ins.push(&emp_row(i, "BULK", i % 10, 1.0)).unwrap();
    }
    ins.flush().unwrap();
    let d = w.sim.metrics.snapshot() - before;
    w.txnmgr.commit(txn, w.client).unwrap();
    // 400 base records + 400 index entries in a handful of messages.
    assert!(
        d.msgs_fs_dp < 20,
        "blocked insert should batch heavily, got {} messages",
        d.msgs_fs_dp
    );
    let got =
        w.fs.read_by_key(None, &of, &emp_key(399), ReadLock::None)
            .unwrap();
    assert!(got.is_some());
    // Index entries exist too.
    let idx = &of.indexes[0];
    let range = KeyRange::prefix(encode_key_prefix(&[(FieldType::Int, Value::Int(3))]));
    let entries = index_rows(&w.fs, idx, &range);
    assert_eq!(entries.len(), 40);
}

/// The blocked buffers are flushed by phase (update, delete, insert), then
/// partition number, then index number — not in the iteration order of a
/// hashed map, which differs from one run to the next.
#[test]
fn blocked_messages_go_out_in_one_order() {
    let run = || {
        let w = world(&["$DATA1", "$DATA2", "$IDX"]);
        let mut of = create_partitioned_emp(&w);
        // A second index, on SALARY, kept on the first data volume.
        let by_salary = IndexInfo::build("EMP_SALARY", "$DATA1", 0, &of.desc, vec![3], false);
        let desc = by_salary.desc.clone();
        let request = nsql_dp::DpRequest::CreateFile { desc };
        let nsql_dp::DpReply::FileCreated(file) = w.fs.send("$DATA1", request).unwrap() else {
            panic!("index file not created")
        };
        of.indexes.push(IndexInfo { file, ..by_salary });

        w.sim.trace.enable_default();
        let txn = w.txnmgr.begin();
        let row = |i: i32| emp_row(i, "BULK", i % 10, i as f64);
        let mut ins = BlockedInserter::new(&w.fs, &of, txn);
        for i in 450..550 {
            ins.push(&row(i)).unwrap();
        }
        ins.flush().unwrap();
        let mut cur = crate::CursorUpdater::new(&w.fs, &of, txn);
        for i in 450..550 {
            if i % 2 == 0 {
                cur.delete(&row(i)).unwrap();
            } else {
                cur.update(&row(i), &emp_row(i, "BULK", 99, -1.0)).unwrap();
            }
        }
        assert_eq!(cur.flush().unwrap(), (50, 50));
        w.txnmgr.commit(txn, w.client).unwrap();
        let sent = w
            .sim
            .trace
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::Msg { label, to, .. } if label.starts_with("BLOCKED^") => {
                    Some(format!("{label} {to}"))
                }
                _ => None,
            });
        sent.collect::<Vec<_>>()
    };
    let expected = [
        "BLOCKED^INSERT $DATA1",
        "BLOCKED^INSERT $DATA2",
        "BLOCKED^INSERT $IDX",
        "BLOCKED^INSERT $DATA1",
        "BLOCKED^UPDATE $DATA1",
        "BLOCKED^UPDATE $DATA2",
        "BLOCKED^DELETE $DATA1",
        "BLOCKED^DELETE $DATA2",
        "BLOCKED^DELETE $IDX",
        "BLOCKED^DELETE $DATA1",
        "BLOCKED^INSERT $IDX",
        "BLOCKED^INSERT $DATA1",
    ];
    for _ in 0..8 {
        assert_eq!(run(), expected);
    }
}

#[test]
fn unique_index_rejects_duplicates() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let desc = emp_desc();
    let f1 = match w
        .fs
        .send(
            "$DATA1",
            nsql_dp::DpRequest::CreateFile { desc: desc.clone() },
        )
        .unwrap()
    {
        nsql_dp::DpReply::FileCreated(id) => id,
        _ => panic!(),
    };
    let mut of = OpenFile::single("EMP", desc.clone(), "$DATA1", f1);
    let idx = IndexInfo::build("EMP_NAME_U", "$IDX", 0, &desc, vec![1], true);
    let ifile = match w
        .fs
        .send(
            "$IDX",
            nsql_dp::DpRequest::CreateFile {
                desc: idx.desc.clone(),
            },
        )
        .unwrap()
    {
        nsql_dp::DpReply::FileCreated(id) => id,
        _ => panic!(),
    };
    of.indexes.push(IndexInfo { file: ifile, ..idx });

    let txn = w.txnmgr.begin();
    w.fs.insert_row(txn, &of, &emp_row(1, "ALICE", 0, 1.0))
        .unwrap();
    let err =
        w.fs.insert_row(txn, &of, &emp_row(2, "ALICE", 0, 2.0))
            .unwrap_err();
    assert!(matches!(err, FsError::Dp(nsql_dp::DpError::DuplicateKey)));
    w.txnmgr.abort(txn, w.client).unwrap();
}

#[test]
fn delete_set_pushdown_without_indices() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let desc = emp_desc();
    let f1 = match w
        .fs
        .send(
            "$DATA1",
            nsql_dp::DpRequest::CreateFile { desc: desc.clone() },
        )
        .unwrap()
    {
        nsql_dp::DpReply::FileCreated(id) => id,
        _ => panic!(),
    };
    let of = OpenFile::single("EMP", desc, "$DATA1", f1);
    let txn = w.txnmgr.begin();
    for i in 0..200 {
        w.fs.insert_row(txn, &of, &emp_row(i, "X", 0, i as f64))
            .unwrap();
    }
    w.txnmgr.commit(txn, w.client).unwrap();

    let before = w.sim.metrics.snapshot();
    let txn = w.txnmgr.begin();
    let n =
        w.fs.delete_set(
            txn,
            &of,
            &KeyRange::all(),
            Some(&Expr::field_cmp(3, CmpOp::Lt, Value::Double(100.0))),
        )
        .unwrap();
    w.txnmgr.commit(txn, w.client).unwrap();
    assert_eq!(n, 100);
    let d = w.sim.metrics.snapshot() - before;
    assert!(
        d.msgs_fs_dp <= 2,
        "delete subset pushes down, got {}",
        d.msgs_fs_dp
    );
}

#[test]
fn remote_partition_costs_more_time() {
    // Same table, partition 2 on a remote node: scanning it takes longer in
    // virtual time than the local partition.
    let sim = Sim::new();
    let bus = Bus::new(sim.clone());
    let lsns = LsnSource::new();
    let trail = Trail::new(sim.clone(), Arc::clone(&lsns), CommitTimer::Fixed(1_000));
    bus.register(AUDIT_PROCESS, CpuId::new(0, 3), trail.clone());
    let txnmgr = TxnManager::new(sim.clone(), Arc::clone(&bus));
    let ctx = DpContext {
        sim: sim.clone(),
        bus: Arc::clone(&bus),
        trail,
        txnmgr: Arc::clone(&txnmgr),
        lsns,
    };
    let local = DiskProcess::format(
        &ctx,
        "$LOCAL",
        CpuId::new(0, 1),
        Disk::new(sim.clone(), "$LOCAL", false),
        DpConfig::default(),
    );
    let remote = DiskProcess::format(
        &ctx,
        "$REMOTE",
        CpuId::new(1, 0),
        Disk::new(sim.clone(), "$REMOTE", false),
        DpConfig::default(),
    );
    let _ = (&local, &remote);
    let client = CpuId::new(0, 0);
    let fs = FileSystem::new(sim.clone(), Arc::clone(&bus), client);
    let desc = emp_desc();
    let mk = |proc_name: &str| -> FileId {
        match fs
            .send(
                proc_name,
                nsql_dp::DpRequest::CreateFile { desc: desc.clone() },
            )
            .unwrap()
        {
            nsql_dp::DpReply::FileCreated(id) => id,
            _ => panic!(),
        }
    };
    let lf = mk("$LOCAL");
    let rf = mk("$REMOTE");
    let of_local = OpenFile::single("L", desc.clone(), "$LOCAL", lf);
    let of_remote = OpenFile::single("R", desc.clone(), "$REMOTE", rf);
    let txn = txnmgr.begin();
    for i in 0..500 {
        fs.insert_row(txn, &of_local, &emp_row(i, "L", 0, 0.0))
            .unwrap();
        fs.insert_row(txn, &of_remote, &emp_row(i, "R", 0, 0.0))
            .unwrap();
    }
    txnmgr.commit(txn, client).unwrap();

    let t0 = sim.now();
    fs.scan(
        None,
        &of_local,
        &KeyRange::all(),
        None,
        Some(&[0]),
        SubsetMode::Vsbb,
        ReadLock::None,
    )
    .unwrap();
    let local_time = sim.now() - t0;
    let t1 = sim.now();
    fs.scan(
        None,
        &of_remote,
        &KeyRange::all(),
        None,
        Some(&[0]),
        SubsetMode::Vsbb,
        ReadLock::None,
    )
    .unwrap();
    let remote_time = sim.now() - t1;
    assert!(
        remote_time > local_time,
        "remote scan ({remote_time}) should cost more than local ({local_time})"
    );
}

#[test]
fn lock_api_direct() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let of = create_partitioned_emp(&w);
    load(&w, &of, 5);
    let t1 = w.txnmgr.begin();
    w.fs.ens_lock_record(t1, &of, &emp_key(1), LockMode::Exclusive)
        .unwrap();
    let t2 = w.txnmgr.begin();
    let err =
        w.fs.ens_lock_record(t2, &of, &emp_key(1), LockMode::Shared)
            .unwrap_err();
    assert!(matches!(err, FsError::Dp(nsql_dp::DpError::Locked { .. })));
    w.txnmgr.abort(t2, w.client).unwrap();
    w.txnmgr.commit(t1, w.client).unwrap();
    let _ = &w.dps;
    let _ = &w.bus;
}

#[test]
fn cursor_updater_batches_where_current() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let of = create_partitioned_emp(&w);
    load(&w, &of, 200);

    // A cursor walks the table; half the rows get updated, a quarter
    // deleted — all buffered and shipped in a handful of messages.
    let txn = w.txnmgr.begin();
    let scan =
        w.fs.scan(
            Some(txn),
            &of,
            &KeyRange::all(),
            None,
            None,
            SubsetMode::Vsbb,
            nsql_dp::ReadLock::Shared,
        )
        .unwrap();
    let before = w.sim.metrics.snapshot();
    let mut cur = crate::CursorUpdater::new(&w.fs, &of, txn);
    for (i, row) in scan.rows.iter().enumerate() {
        if i % 4 == 0 {
            cur.delete(&row.0).unwrap();
        } else if i % 2 == 0 {
            let mut new = row.0.clone();
            new[3] = Value::Double(7777.0);
            // DEPT (indexed) changes too: index maintenance is buffered.
            new[2] = Value::Int(99);
            cur.update(&row.0, &new).unwrap();
        }
    }
    let (nu, nd) = cur.flush().unwrap();
    let d = w.sim.metrics.snapshot() - before;
    w.txnmgr.commit(txn, w.client).unwrap();

    assert_eq!(nd, 50);
    assert_eq!(nu, 50);
    assert!(
        d.msgs_fs_dp <= 8,
        "100 cursor writes should batch into a few messages, got {}",
        d.msgs_fs_dp
    );

    // Contents are right.
    let left =
        w.fs.scan(
            None,
            &of,
            &KeyRange::all(),
            None,
            None,
            SubsetMode::Vsbb,
            nsql_dp::ReadLock::None,
        )
        .unwrap();
    assert_eq!(left.rows.len(), 150);
    let updated = left
        .rows
        .iter()
        .filter(|r| r.0[3] == Value::Double(7777.0))
        .count();
    assert_eq!(updated, 50);
    // Index reflects the moves into DEPT 99.
    let idx = &of.indexes[0];
    let range = KeyRange::prefix(encode_key_prefix(&[(FieldType::Int, Value::Int(99))]));
    let entries = index_rows(&w.fs, idx, &range);
    assert_eq!(entries.len(), 50);
}

#[test]
fn doom_class_dp_errors_become_typed_fs_doomed() {
    // Deadlock and lock-timeout replies map to the typed, retryable
    // FsError::Doomed — never a panic path — and the reason keeps the
    // keyword retry loops and operators look for.
    let dead = FsError::from(nsql_dp::DpError::Deadlock {
        victim: nsql_lock::TxnId(7),
    });
    let FsError::Doomed { reason } = &dead else {
        panic!("expected Doomed, got {dead:?}");
    };
    assert!(reason.contains("deadlock"), "{reason}");
    assert!(dead.to_string().contains("transaction doomed"));

    let timed = FsError::from(nsql_dp::DpError::LockTimeout {
        victim: nsql_lock::TxnId(9),
    });
    let FsError::Doomed { reason } = &timed else {
        panic!("expected Doomed, got {timed:?}");
    };
    assert!(reason.contains("timeout"), "{reason}");

    // Non-doom errors keep the plain Dp wrapping.
    assert!(matches!(
        FsError::from(nsql_dp::DpError::NotFound),
        FsError::Dp(nsql_dp::DpError::NotFound)
    ));
}

/// A server that answers every request with a bare `Ok` — the wrong shape
/// for every read.
struct AlwaysOk;

impl nsql_msg::Server for AlwaysOk {
    fn handle(&self, _request: Box<dyn std::any::Any + Send>) -> nsql_msg::Response {
        nsql_msg::Response::new(DpReply::Ok, 24)
    }
}

#[test]
fn a_reply_of_the_wrong_shape_is_a_protocol_error_not_a_panic() {
    fn refused<T: std::fmt::Debug>(what: &str, result: Result<T, FsError>) {
        assert!(
            matches!(result, Err(FsError::Protocol(_))),
            "{what}: {result:?}"
        );
    }
    let w = world(&[]);
    w.bus.register("$ODD", CpuId::new(0, 1), Arc::new(AlwaysOk));
    let of = OpenFile::single("EMP", emp_desc(), "$ODD", 0);
    let txn = w.txnmgr.begin();
    let fs = &w.fs;
    refused("READ^NEXT", fs.ens_read_next(&mut fs.ens_open(&of, None)));
    let mut sbb = fs.ens_open_sbb(&of, txn).unwrap();
    refused("READ^SEQ^BLOCK", fs.ens_read_next(&mut sbb));
    refused(
        "READ",
        fs.read_by_key(None, &of, &emp_key(1), ReadLock::None),
    );
    refused(
        "DELETE^SUBSET^FIRST",
        fs.delete_set(txn, &of, &KeyRange::all(), None),
    );
}

/// A key no partition owns is refused with a typed error by every path
/// that routes by key, before any message is sent.
#[test]
fn a_key_no_partition_owns_is_refused() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let mut of = create_partitioned_emp(&w);
    // A file built by hand whose one partition stops at EMPNO 500.
    of.partitions.truncate(1);
    let (row, key) = (emp_row(700, "E00700", 1, 1.0), emp_key(700));
    let refused = |r: Result<(), FsError>| match r {
        Err(FsError::Protocol(e)) => assert!(e.contains("owns the key"), "{e}"),
        other => panic!("expected a refusal, got {other:?}"),
    };
    assert!(of.partition_for(&emp_key(10)).is_ok());
    let before = w.sim.metrics.snapshot();
    let txn = w.txnmgr.begin();
    refused(w.fs.insert_row(txn, &of, &row));
    refused(
        w.fs.read_by_key(Some(txn), &of, &key, ReadLock::None)
            .map(|_| ()),
    );
    refused(w.fs.delete_by_key(txn, &of, &key));
    refused(w.fs.ens_lock_record(txn, &of, &key, LockMode::Exclusive));
    refused(BlockedInserter::new(&w.fs, &of, txn).push(&row));
    let mut cursor = CursorUpdater::new(&w.fs, &of, txn);
    refused(cursor.update(&row, &row));
    refused(cursor.delete(&row));
    assert_eq!((w.sim.metrics.snapshot() - before).msgs_fs_dp, 0);
    w.txnmgr.abort(txn, w.client).unwrap();
}

/// A rewrite that would change the primary key is refused with the Disk
/// Process's own error, before any message is sent.
#[test]
fn a_rewrite_that_changes_the_key_is_refused() {
    let w = world(&["$DATA1", "$DATA2", "$IDX"]);
    let of = create_partitioned_emp(&w);
    load(&w, &of, 10);
    let old = emp_row(3, "E00003", 3, 1003.0);
    let new = emp_row(4, "E00003", 3, 1003.0);
    let key_change = Err(FsError::Dp(nsql_dp::DpError::KeyUpdateNotAllowed));
    let before = w.sim.metrics.snapshot();
    let txn = w.txnmgr.begin();
    assert_eq!(w.fs.ens_rewrite(txn, &of, &old, &new), key_change);
    let mut cursor = CursorUpdater::new(&w.fs, &of, txn);
    assert_eq!(cursor.update(&old, &new), key_change);
    assert_eq!(cursor.flush(), Ok((0, 0)));
    assert_eq!((w.sim.metrics.snapshot() - before).msgs_fs_dp, 0);
    w.txnmgr.abort(txn, w.client).unwrap();
}
