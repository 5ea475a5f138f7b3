//! Disk Process integration tests: the FS-DP interface exercised end to
//! end over a single volume, including the paper's worked examples.

use super::*;
use nsql_msg::MsgKind;
use nsql_records::key::encode_record_key;
use nsql_records::row::{decode_row, encode_row};
use nsql_records::{ArithOp, CmpOp, FieldDef, FieldType, KeyRange, Value};
use nsql_tmf::{CommitTimer, LsnSource};

thread_local! {
    /// Whether this thread's subset writes change their records one at a
    /// time, each through the keyed change, as before leaf rewrites: the
    /// reference the leaf path is checked against.
    static RECORD_AT_A_TIME: Cell<bool> = const { Cell::new(false) };
}

pub(super) fn record_at_a_time() -> bool {
    RECORD_AT_A_TIME.with(Cell::get)
}

/// Phase 2 of a subset write record at a time: each matched record's keyed
/// change, then its 3 units.
pub(super) fn change_each<'s>(
    dp: &'s DiskProcess,
    txn: TxnId,
    file: &AuditedFile<'_, 's>,
    matched: &Matched,
    patch: Option<&Patch>,
) -> Result<(), DpError> {
    for (key, current) in matched.iter() {
        let change = patch.map_or(Change::Delete, Change::Patch);
        dp.keyed_change(txn, file, Key::Record(key.to_vec()), Some(current), change)?;
        dp.sim.cpu_work(CpuLayer::DiskProcess, 3);
    }
    Ok(())
}

struct TestCluster {
    sim: Sim,
    bus: Arc<Bus>,
    trail: Arc<Trail>,
    txnmgr: Arc<TxnManager>,
    ctx: DpContext,
    dp: Arc<DiskProcess>,
    disk: Arc<Disk>,
    client: CpuId,
    /// The sync sequence of the next request (the client's opener is 0).
    seq: std::sync::atomic::AtomicU64,
}

fn cluster() -> TestCluster {
    cluster_with(DpConfig::default())
}

fn cluster_with(config: DpConfig) -> TestCluster {
    let sim = Sim::new();
    let bus = Bus::new(sim.clone());
    let lsns = LsnSource::new();
    let trail = Trail::new(sim.clone(), Arc::clone(&lsns), CommitTimer::Fixed(1_000));
    bus.register(nsql_tmf::AUDIT_PROCESS, CpuId::new(0, 3), trail.clone());
    let txnmgr = TxnManager::new(sim.clone(), Arc::clone(&bus));
    let ctx = DpContext {
        sim: sim.clone(),
        bus: Arc::clone(&bus),
        trail: Arc::clone(&trail),
        txnmgr: Arc::clone(&txnmgr),
        lsns,
    };
    let disk = Disk::new(sim.clone(), "$DATA1", true);
    let dp = DiskProcess::format(&ctx, "$DATA1", CpuId::new(0, 1), Arc::clone(&disk), config);
    TestCluster {
        sim,
        bus,
        trail,
        txnmgr,
        ctx,
        dp,
        disk,
        client: CpuId::new(0, 0),
        seq: Default::default(),
    }
}

/// EMP table from the paper's examples.
fn emp_desc() -> RecordDescriptor {
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

fn emp_row(empno: i32, name: &str, hire: i32, salary: f64) -> Vec<Value> {
    vec![
        Value::Int(empno),
        Value::Str(name.into()),
        Value::Int(hire),
        Value::Double(salary),
    ]
}

impl TestCluster {
    /// `req` as the File System sends it: under a fresh sync ID.
    fn envelope(&self, req: DpRequest) -> Box<SyncRequest> {
        let seq = self.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Box::new(SyncRequest {
            sync: SyncId { opener: 0, seq },
            span: nsql_sim::SpanHeader::default(),
            req,
        })
    }

    fn send(&self, req: DpRequest) -> DpReply {
        let size = req.wire_size();
        let kind = if req.is_redrive() {
            MsgKind::Redrive
        } else {
            MsgKind::FsDp
        };
        self.bus
            .request(self.client, "$DATA1", kind, size, self.envelope(req))
            .expect("dp unreachable")
            .downcast::<DpReply>()
            .expect("dp reply type")
    }

    fn create_emp(&self) -> FileId {
        match self.send(DpRequest::CreateFile { desc: emp_desc() }) {
            DpReply::FileCreated(id) => id,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Insert `n` employees inside one committed transaction.
    fn load_emps(&self, file: FileId, n: i32) {
        let desc = emp_desc();
        let txn = self.txnmgr.begin();
        for i in 0..n {
            let row = emp_row(
                i,
                &format!("EMP{i:05}"),
                1980 + (i % 9),
                (1000 + i * 10) as f64,
            );
            let key = encode_record_key(&desc, &row);
            let record = encode_row(&desc, &row).unwrap();
            match self.send(DpRequest::Insert {
                txn,
                file,
                key,
                record,
            }) {
                DpReply::Ok => {}
                other => panic!("insert failed: {other:?}"),
            }
        }
        self.txnmgr.commit(txn, self.client).unwrap();
    }
}

fn emp_key(empno: i32) -> Vec<u8> {
    let desc = emp_desc();
    encode_record_key(&desc, &emp_row(empno, "", 0, 0.0))
}

fn range_to(hi: i32) -> KeyRange {
    KeyRange {
        begin: OwnedBound::Unbounded,
        end: OwnedBound::Included(emp_key(hi)),
    }
}

#[test]
fn insert_read_roundtrip() {
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 10);
    let reply = c.send(DpRequest::Read {
        txn: None,
        file,
        key: emp_key(7),
        lock: ReadLock::None,
    });
    let DpReply::Record(Some(bytes)) = reply else {
        panic!("expected record");
    };
    let row = decode_row(&emp_desc(), &bytes).unwrap();
    assert_eq!(row.0[0], Value::Int(7));
    assert_eq!(row.0[1], Value::Str("EMP00007".into()));
    // Missing key.
    let reply = c.send(DpRequest::Read {
        txn: None,
        file,
        key: emp_key(99),
        lock: ReadLock::None,
    });
    assert!(matches!(reply, DpReply::Record(None)));
}

#[test]
fn paper_example_1_vsbb_selection_projection() {
    // SELECT NAME, HIRE_DATE FROM EMP WHERE EMPNO <= 1000 AND SALARY > 32000
    let c = cluster();
    let file = c.create_emp();
    let desc = emp_desc();
    let txn = c.txnmgr.begin();
    for i in 0..2000 {
        let salary = if i % 4 == 0 { 40_000.0 } else { 20_000.0 };
        let row = emp_row(i, &format!("E{i}"), 1980, salary);
        c.send(DpRequest::Insert {
            txn,
            file,
            key: encode_record_key(&desc, &row),
            record: encode_row(&desc, &row).unwrap(),
        });
    }
    c.txnmgr.commit(txn, c.client).unwrap();

    let before = c.sim.metrics.snapshot();
    let mut rows_total = 0usize;
    let mut reply = c.send(DpRequest::SubsetFirst {
        file,
        range: range_to(1000),
        predicate: Some(Expr::field_cmp(3, CmpOp::Gt, Value::Double(32_000.0))),
        op: SubsetOp::Read {
            txn: None,
            projection: Some(vec![1, 2]),
            mode: SubsetMode::Vsbb,
            lock: ReadLock::None,
        },
    });
    loop {
        let DpReply::Subset {
            rows,
            last_key,
            done,
            subset,
            ..
        } = reply
        else {
            panic!("unexpected {reply:?}");
        };
        // Projected rows decode with the projected descriptor.
        let pdesc = desc.project(&[1, 2]);
        for r in rows.iter() {
            let row = decode_row(&pdesc, r).unwrap();
            assert_eq!(row.0.len(), 2);
            assert!(matches!(row.0[0], Value::Str(_)));
        }
        rows_total += rows.iter().count();
        if done {
            break;
        }
        reply = c.send(DpRequest::SubsetNext {
            subset: subset.expect("re-drive needs an SCB"),
            after: last_key.expect("re-drive needs a last key"),
            verb: SubsetVerb::Get,
        });
    }
    // EMPNO 0..=1000 with salary > 32000 (every 4th): 0,4,...,1000 = 251.
    assert_eq!(rows_total, 251);
    let d = c.sim.metrics.snapshot() - before;
    assert!(d.msgs_redrive >= 1, "large subset must re-drive");
    assert!(d.subset_control_blocks >= 1);
    assert_eq!(d.dp_records_selected, 251);
    assert!(d.dp_records_examined >= 1001);
    // Filtering at the source: far fewer messages than selected rows.
    assert!(d.msgs_fs_dp as usize * 10 < 1001);
}

#[test]
fn paper_example_2_rsbb_full_scan() {
    // SELECT * FROM EMP;
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 500);
    let before = c.sim.metrics.snapshot();
    let mut got = 0usize;
    let mut reply = c.send(DpRequest::SubsetFirst {
        file,
        range: KeyRange::all(),
        predicate: None,
        op: SubsetOp::Read {
            txn: None,
            projection: None,
            mode: SubsetMode::Rsbb,
            lock: ReadLock::None,
        },
    });
    loop {
        let DpReply::Subset {
            rows,
            last_key,
            done,
            subset,
            ..
        } = reply
        else {
            panic!("unexpected {reply:?}")
        };
        got += rows.iter().count();
        if done {
            break;
        }
        reply = c.send(DpRequest::SubsetNext {
            subset: subset.unwrap(),
            after: last_key.unwrap(),
            verb: SubsetVerb::Get,
        });
    }
    assert_eq!(got, 500);
    let d = c.sim.metrics.snapshot() - before;
    // Blocked transfer: many records per message.
    assert!(
        (d.msgs_fs_dp as usize) < 500 / 10,
        "RSBB must batch records ({} messages for 500 records)",
        d.msgs_fs_dp
    );
}

#[test]
fn paper_example_3_update_subset_with_expression() {
    // UPDATE ACCOUNT SET BALANCE = BALANCE * 1.07 WHERE BALANCE > 0
    let c = cluster();
    let file = c.create_emp();
    let desc = emp_desc();
    let txn = c.txnmgr.begin();
    for i in 0..300 {
        let bal = if i % 2 == 0 { 100.0 } else { -50.0 };
        let row = emp_row(i, "ACCT", 0, bal);
        c.send(DpRequest::Insert {
            txn,
            file,
            key: encode_record_key(&desc, &row),
            record: encode_row(&desc, &row).unwrap(),
        });
    }
    c.txnmgr.commit(txn, c.client).unwrap();

    let txn = c.txnmgr.begin();
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
    let mut affected_total = 0u32;
    let mut reply = c.send(DpRequest::SubsetFirst {
        file,
        range: KeyRange::all(),
        predicate: Some(Expr::field_cmp(3, CmpOp::Gt, Value::Double(0.0))),
        op: SubsetOp::Update {
            txn,
            sets,
            constraint: None,
        },
    });
    loop {
        let DpReply::Subset {
            affected,
            last_key,
            done,
            subset,
            ..
        } = reply
        else {
            panic!("unexpected {reply:?}")
        };
        affected_total += affected;
        if done {
            break;
        }
        reply = c.send(DpRequest::SubsetNext {
            subset: subset.unwrap(),
            after: last_key.unwrap(),
            verb: SubsetVerb::Update,
        });
    }
    c.txnmgr.commit(txn, c.client).unwrap();
    assert_eq!(affected_total, 150);
    // Check an updated and an untouched record.
    let DpReply::Record(Some(bytes)) = c.send(DpRequest::Read {
        txn: None,
        file,
        key: emp_key(0),
        lock: ReadLock::None,
    }) else {
        panic!()
    };
    let row = decode_row(&desc, &bytes).unwrap();
    assert_eq!(row.0[3], Value::Double(107.0));
    let DpReply::Record(Some(bytes)) = c.send(DpRequest::Read {
        txn: None,
        file,
        key: emp_key(1),
        lock: ReadLock::None,
    }) else {
        panic!()
    };
    let row = decode_row(&desc, &bytes).unwrap();
    assert_eq!(row.0[3], Value::Double(-50.0));
}

#[test]
fn delete_subset_removes_matching() {
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 100);
    let txn = c.txnmgr.begin();
    let reply = c.send(DpRequest::SubsetFirst {
        file,
        range: range_to(49),
        predicate: None,
        op: SubsetOp::Delete { txn },
    });
    let DpReply::Subset { affected, done, .. } = reply else {
        panic!()
    };
    assert!(done);
    assert_eq!(affected, 50);
    c.txnmgr.commit(txn, c.client).unwrap();
    assert!(matches!(
        c.send(DpRequest::Read {
            txn: None,
            file,
            key: emp_key(10),
            lock: ReadLock::None
        }),
        DpReply::Record(None)
    ));
    assert!(matches!(
        c.send(DpRequest::Read {
            txn: None,
            file,
            key: emp_key(60),
            lock: ReadLock::None
        }),
        DpReply::Record(Some(_))
    ));
}

#[test]
fn update_point_pushdown_is_one_message() {
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 10);
    let before = c.sim.metrics.snapshot();
    let txn = c.txnmgr.begin();
    let sets = SetList {
        sets: vec![(
            3,
            Expr::Arith(
                Box::new(Expr::Field(3)),
                nsql_records::ArithOp::Sub,
                Box::new(Expr::lit(Value::Double(25.0))),
            ),
        )],
    };
    let reply = c.send(DpRequest::UpdatePoint {
        txn,
        file,
        key: emp_key(3),
        sets,
        constraint: None,
    });
    assert!(matches!(reply, DpReply::Ok));
    let d = c.sim.metrics.snapshot() - before;
    assert_eq!(d.msgs_fs_dp, 1, "no read-before-write message");
    c.txnmgr.commit(txn, c.client).unwrap();
    let DpReply::Record(Some(bytes)) = c.send(DpRequest::Read {
        txn: None,
        file,
        key: emp_key(3),
        lock: ReadLock::None,
    }) else {
        panic!()
    };
    let row = decode_row(&emp_desc(), &bytes).unwrap();
    assert_eq!(row.0[3], Value::Double(1030.0 - 25.0));
}

#[test]
fn constraint_enforced_at_dp() {
    // CHECK SALARY >= 0
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 5);
    let txn = c.txnmgr.begin();
    let sets = SetList {
        sets: vec![(
            3,
            Expr::Arith(
                Box::new(Expr::Field(3)),
                nsql_records::ArithOp::Sub,
                Box::new(Expr::lit(Value::Double(1_000_000.0))),
            ),
        )],
    };
    let reply = c.send(DpRequest::UpdatePoint {
        txn,
        file,
        key: emp_key(2),
        sets,
        constraint: Some(Expr::field_cmp(3, CmpOp::Ge, Value::Double(0.0))),
    });
    assert!(matches!(
        reply,
        DpReply::Error(DpError::ConstraintViolation)
    ));
    c.txnmgr.abort(txn, c.client).unwrap();
    // Record unchanged.
    let DpReply::Record(Some(bytes)) = c.send(DpRequest::Read {
        txn: None,
        file,
        key: emp_key(2),
        lock: ReadLock::None,
    }) else {
        panic!()
    };
    let row = decode_row(&emp_desc(), &bytes).unwrap();
    assert_eq!(row.0[3], Value::Double(1020.0));
}

#[test]
fn key_field_update_rejected() {
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 3);
    let txn = c.txnmgr.begin();
    let sets = SetList {
        sets: vec![(0, Expr::lit(Value::Int(99)))],
    };
    let reply = c.send(DpRequest::UpdatePoint {
        txn,
        file,
        key: emp_key(1),
        sets,
        constraint: None,
    });
    assert!(matches!(
        reply,
        DpReply::Error(DpError::KeyUpdateNotAllowed)
    ));
    c.txnmgr.abort(txn, c.client).unwrap();
}

/// A `SET` list naming a field the record lacks, or assigning one field
/// twice, is refused with its own error by `UPDATE^POINT` and by
/// `UPDATE^SUBSET`, and nothing is changed or logged.
#[test]
fn a_set_list_the_file_cannot_take_is_refused_by_both_update_verbs() {
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 3);
    let txn = c.txnmgr.begin();
    let before = c.sim.metrics.snapshot();
    let lit = || Expr::lit(Value::Double(1.0));
    let lists = [
        (vec![(9, lit())], DpError::NoSuchField(9)),
        (vec![(3, Expr::Field(7))], DpError::NoSuchField(7)),
        (
            vec![(3, lit()), (2, Expr::lit(Value::Int(1))), (3, lit())],
            DpError::AssignedTwice(3),
        ),
    ];
    for (sets, refused) in lists {
        let sets = SetList { sets };
        let point = c.send(DpRequest::UpdatePoint {
            txn,
            file,
            key: emp_key(1),
            sets: sets.clone(),
            constraint: None,
        });
        assert!(
            matches!(&point, DpReply::Error(e) if *e == refused),
            "UPDATE^POINT: {point:?}"
        );
        let subset = c.send(DpRequest::SubsetFirst {
            file,
            range: KeyRange::all(),
            predicate: None,
            op: SubsetOp::Update {
                txn,
                sets,
                constraint: None,
            },
        });
        assert!(
            matches!(&subset, DpReply::Error(e) if *e == refused),
            "UPDATE^SUBSET^FIRST: {subset:?}"
        );
    }
    let d = c.sim.metrics.snapshot() - before;
    assert_eq!(d.audit_records, 0, "a refused update is not logged");
    c.txnmgr.abort(txn, c.client).unwrap();
    let DpReply::Record(Some(bytes)) = c.send(DpRequest::Read {
        txn: None,
        file,
        key: emp_key(1),
        lock: ReadLock::None,
    }) else {
        panic!("employee 1 is still there")
    };
    let row = decode_row(&emp_desc(), &bytes).unwrap();
    assert_eq!(row.0, emp_row(1, "EMP00001", 1981, 1010.0));
}

#[test]
fn abort_undoes_everything() {
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 20);
    let desc = emp_desc();
    let txn = c.txnmgr.begin();
    // Insert a new record, update an existing one, delete another.
    let row = emp_row(100, "NEW", 1999, 5555.0);
    c.send(DpRequest::Insert {
        txn,
        file,
        key: encode_record_key(&desc, &row),
        record: encode_row(&desc, &row).unwrap(),
    });
    c.send(DpRequest::UpdatePoint {
        txn,
        file,
        key: emp_key(5),
        sets: SetList {
            sets: vec![(3, Expr::lit(Value::Double(0.0)))],
        },
        constraint: None,
    });
    c.send(DpRequest::DeleteRecord {
        txn,
        file,
        key: emp_key(6),
    });
    c.txnmgr.abort(txn, c.client).unwrap();

    assert!(matches!(
        c.send(DpRequest::Read {
            txn: None,
            file,
            key: emp_key(100),
            lock: ReadLock::None
        }),
        DpReply::Record(None)
    ));
    let DpReply::Record(Some(bytes)) = c.send(DpRequest::Read {
        txn: None,
        file,
        key: emp_key(5),
        lock: ReadLock::None,
    }) else {
        panic!()
    };
    assert_eq!(
        decode_row(&desc, &bytes).unwrap().0[3],
        Value::Double(1050.0),
        "update undone"
    );
    assert!(matches!(
        c.send(DpRequest::Read {
            txn: None,
            file,
            key: emp_key(6),
            lock: ReadLock::None
        }),
        DpReply::Record(Some(_))
    ));
}

#[test]
fn locks_conflict_and_release() {
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 10);
    let t1 = c.txnmgr.begin();
    let t2 = c.txnmgr.begin();
    // t1 exclusively updates record 3.
    c.send(DpRequest::UpdatePoint {
        txn: t1,
        file,
        key: emp_key(3),
        sets: SetList {
            sets: vec![(3, Expr::lit(Value::Double(1.0)))],
        },
        constraint: None,
    });
    // t2 cannot update or share-lock it.
    let reply = c.send(DpRequest::UpdatePoint {
        txn: t2,
        file,
        key: emp_key(3),
        sets: SetList {
            sets: vec![(3, Expr::lit(Value::Double(2.0)))],
        },
        constraint: None,
    });
    assert!(matches!(reply, DpReply::Error(DpError::Locked { holder }) if holder == t1));
    // After t1 commits, t2 proceeds.
    c.txnmgr.commit(t1, c.client).unwrap();
    let reply = c.send(DpRequest::UpdatePoint {
        txn: t2,
        file,
        key: emp_key(3),
        sets: SetList {
            sets: vec![(3, Expr::lit(Value::Double(2.0)))],
        },
        constraint: None,
    });
    assert!(matches!(reply, DpReply::Ok));
    c.txnmgr.commit(t2, c.client).unwrap();
    assert!(c.sim.metrics.snapshot().lock_waits >= 1);
}

#[test]
fn vsbb_group_lock_vs_enscribe_file_lock() {
    // E13's mechanism: an ENSCRIBE SBB reader must file-lock (blocking all
    // writers); a VSBB reader group-locks only the scanned span.
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 100);

    // VSBB read of EMPNO <= 20 with shared group locking.
    let reader = c.txnmgr.begin();
    let reply = c.send(DpRequest::SubsetFirst {
        file,
        range: range_to(20),
        predicate: None,
        op: SubsetOp::Read {
            txn: Some(reader),
            projection: Some(vec![0, 1]),
            mode: SubsetMode::Vsbb,
            lock: ReadLock::Shared,
        },
    });
    assert!(matches!(reply, DpReply::Subset { .. }));

    // A writer outside the span proceeds...
    let writer = c.txnmgr.begin();
    let ok = c.send(DpRequest::UpdatePoint {
        txn: writer,
        file,
        key: emp_key(50),
        sets: SetList {
            sets: vec![(3, Expr::lit(Value::Double(9.0)))],
        },
        constraint: None,
    });
    assert!(
        matches!(ok, DpReply::Ok),
        "writer outside virtual block must proceed"
    );
    // ... a writer inside the span blocks.
    let blocked = c.send(DpRequest::UpdatePoint {
        txn: writer,
        file,
        key: emp_key(10),
        sets: SetList {
            sets: vec![(3, Expr::lit(Value::Double(9.0)))],
        },
        constraint: None,
    });
    assert!(matches!(blocked, DpReply::Error(DpError::Locked { .. })));

    // The writer saw an error on the blocked statement; roll it back.
    c.txnmgr.abort(writer, c.client).unwrap();
    c.txnmgr.commit(reader, c.client).unwrap();
}

#[test]
fn blocked_insert_is_one_message() {
    let c = cluster();
    let file = c.create_emp();
    let desc = emp_desc();
    let txn = c.txnmgr.begin();
    let records: Vec<(Vec<u8>, Vec<u8>)> = (0..100)
        .map(|i| {
            let row = emp_row(i, "BULK", 1990, 1.0);
            (
                encode_record_key(&desc, &row),
                encode_row(&desc, &row).unwrap(),
            )
        })
        .collect();
    let before = c.sim.metrics.snapshot();
    let reply = c.send(DpRequest::BlockedInsert { txn, file, records });
    let DpReply::Subset { affected, .. } = reply else {
        panic!()
    };
    assert_eq!(affected, 100);
    let d = c.sim.metrics.snapshot() - before;
    assert_eq!(d.msgs_fs_dp, 1, "100 inserts in one message");
    c.txnmgr.commit(txn, c.client).unwrap();
    assert!(matches!(
        c.send(DpRequest::Read {
            txn: None,
            file,
            key: emp_key(99),
            lock: ReadLock::None
        }),
        DpReply::Record(Some(_))
    ));
}

#[test]
fn duplicate_insert_rejected() {
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 5);
    let desc = emp_desc();
    let txn = c.txnmgr.begin();
    let row = emp_row(3, "DUP", 0, 0.0);
    let reply = c.send(DpRequest::Insert {
        txn,
        file,
        key: encode_record_key(&desc, &row),
        record: encode_row(&desc, &row).unwrap(),
    });
    assert!(matches!(reply, DpReply::Error(DpError::DuplicateKey)));
    c.txnmgr.abort(txn, c.client).unwrap();
}

#[test]
fn time_slice_limits_monopolization() {
    let config = DpConfig {
        max_records_per_request: 50,
        ..DpConfig::default()
    };
    let c = cluster_with(config);
    let file = c.create_emp();
    c.load_emps(file, 200);
    // A very selective predicate returns nothing, but the DP still must
    // yield every 50 records examined.
    let before = c.sim.metrics.snapshot();
    let mut reply = c.send(DpRequest::SubsetFirst {
        file,
        range: KeyRange::all(),
        predicate: Some(Expr::field_cmp(0, CmpOp::Eq, Value::Int(-1))),
        op: SubsetOp::Read {
            txn: None,
            projection: Some(vec![0]),
            mode: SubsetMode::Vsbb,
            lock: ReadLock::None,
        },
    });
    let mut redrives = 0;
    loop {
        let DpReply::Subset {
            done,
            last_key,
            subset,
            examined,
            ..
        } = reply
        else {
            panic!()
        };
        assert!(examined <= 50, "time slice exceeded: {examined}");
        if done {
            break;
        }
        redrives += 1;
        reply = c.send(DpRequest::SubsetNext {
            subset: subset.unwrap(),
            after: last_key.unwrap(),
            verb: SubsetVerb::Get,
        });
    }
    assert!(redrives >= 3);
    let d = c.sim.metrics.snapshot() - before;
    assert_eq!(d.dp_records_selected, 0);
    assert_eq!(d.dp_records_examined, 200);
}

#[test]
fn crash_recovery_redo_and_undo() {
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 50); // committed: must survive

    // An uncommitted transaction mutates, then the DP crashes.
    let loser = c.txnmgr.begin();
    c.send(DpRequest::UpdatePoint {
        txn: loser,
        file,
        key: emp_key(7),
        sets: SetList {
            sets: vec![(3, Expr::lit(Value::Double(-777.0)))],
        },
        constraint: None,
    });
    let desc = emp_desc();
    let row = emp_row(200, "GHOST", 0, 0.0);
    c.send(DpRequest::Insert {
        txn: loser,
        file,
        key: encode_record_key(&desc, &row),
        record: encode_row(&desc, &row).unwrap(),
    });
    // Force the loser's audit to the trail (as a steal might) so recovery
    // sees it, then crash before commit.
    c.dp.auditor.send();
    c.trail.force_up_to(u64::MAX - 1, c.sim.now());
    c.dp.crash();

    // Reopen and recover.
    let dp2 = DiskProcess::open(
        &c.ctx,
        "$DATA1",
        CpuId::new(0, 2),
        Arc::clone(&c.disk),
        DpConfig::default(),
    );
    dp2.recover();

    // Committed data survived...
    let DpReply::Record(Some(bytes)) = c.send(DpRequest::Read {
        txn: None,
        file,
        key: emp_key(7),
        lock: ReadLock::None,
    }) else {
        panic!("committed record lost")
    };
    let row = decode_row(&desc, &bytes).unwrap();
    assert_eq!(row.0[3], Value::Double(1070.0), "loser update undone");
    // ... and the loser's insert is gone.
    assert!(matches!(
        c.send(DpRequest::Read {
            txn: None,
            file,
            key: emp_key(200),
            lock: ReadLock::None
        }),
        DpReply::Record(None)
    ));
}

#[test]
fn takeover_after_cpu_failure() {
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 30);
    // Flush committed work to the trail is already done by commit.
    // Fail the primary's CPU.
    let primary_cpu = c.dp.cpu();
    c.bus.fail_cpu(primary_cpu);
    assert!(c
        .bus
        .request(
            c.client,
            "$DATA1",
            MsgKind::FsDp,
            8,
            c.envelope(DpRequest::FlushCache)
        )
        .is_err());
    // Backup takes over on another CPU: opens the same (mirrored) volume
    // and recovers from the trail.
    c.dp.crash();
    let backup = DiskProcess::open(
        &c.ctx,
        "$DATA1",
        CpuId::new(0, 2),
        Arc::clone(&c.disk),
        DpConfig::default(),
    );
    backup.recover();
    // Service resumes with committed data intact.
    let DpReply::Record(Some(_)) = c.send(DpRequest::Read {
        txn: None,
        file,
        key: emp_key(29),
        lock: ReadLock::None,
    }) else {
        panic!("data lost in takeover")
    };
}

#[test]
fn audit_mode_full_vs_field_sizes() {
    // The same one-field update of a wide record audited both ways:
    // field-compressed audit must be much smaller (E6's mechanism).
    let wide_desc = || {
        RecordDescriptor::new(
            vec![
                FieldDef::new("ID", FieldType::Int),
                FieldDef::new("FILLER", FieldType::Char(180)),
                FieldDef::new("BALANCE", FieldType::Double),
            ],
            vec![0],
        )
    };
    let run = |audit: AuditMode| {
        let c = cluster();
        let desc = wide_desc();
        let DpReply::FileCreated(file) = c.send(DpRequest::CreateFile { desc: desc.clone() })
        else {
            panic!()
        };
        let old = vec![
            Value::Int(0),
            Value::Str("X".repeat(180)),
            Value::Double(100.0),
        ];
        let key = encode_record_key(&desc, &old);
        let txn = c.txnmgr.begin();
        c.send(DpRequest::Insert {
            txn,
            file,
            key: key.clone(),
            record: encode_row(&desc, &old).unwrap(),
        });
        c.txnmgr.commit(txn, c.client).unwrap();

        let before = c.sim.metrics.snapshot();
        let txn = c.txnmgr.begin();
        let mut new = old.clone();
        new[2] = Value::Double(107.0); // one 8-byte field of a ~190-byte record
        c.send(DpRequest::UpdateRecord {
            txn,
            file,
            key,
            record: encode_row(&desc, &new).unwrap(),
            audit,
        });
        c.txnmgr.commit(txn, c.client).unwrap();
        (c.sim.metrics.snapshot() - before).audit_bytes
    };
    let full = run(AuditMode::FullImage);
    let field = run(AuditMode::FieldCompressed);
    assert!(
        field * 3 < full,
        "field-compressed audit ({field}) must be much smaller than full image ({full})"
    );
}

/// Field-compressed audit keeps a field whose stored bytes changed, even
/// where SQL finds the old and new values equal: a `0.0` that became
/// `-0.0` must be redone as `-0.0`.
#[test]
fn a_zero_that_changes_sign_is_a_changed_field() {
    let desc = RecordDescriptor::new(
        vec![
            FieldDef::new("ID", FieldType::Int),
            FieldDef::nullable("D", FieldType::Double),
        ],
        vec![0],
    );
    let record = |d: f64| encode_row(&desc, &[Value::Int(1), Value::Double(d)]).unwrap();
    let (before, after) = diff_fields(&desc, &record(0.0), &record(-0.0)).unwrap();
    assert_eq!(
        format!("{before:?} {after:?}"),
        "[(1, Double(0.0))] [(1, Double(-0.0))]"
    );
    let (before, after) = diff_fields(&desc, &record(0.0), &record(0.0)).unwrap();
    assert!(before.is_empty() && after.is_empty());
}

/// Write every dirty block of the volume out, drop the cache and let the
/// disk finish what it has queued.
fn go_cold(c: &TestCluster) {
    c.send(DpRequest::FlushCache);
    c.dp.pool().crash();
    c.sim.clock.advance_to(c.disk.busy_until());
}

#[test]
fn bulk_io_and_prefetch_on_sequential_scan() {
    let cfg = DpConfig {
        cache_frames: 64,
        ..DpConfig::default()
    };
    let c = cluster_with(cfg);
    let file = c.create_emp();
    c.load_emps(file, 2000);
    go_cold(&c);
    let before = c.sim.metrics.snapshot();
    let mut reply = c.send(DpRequest::SubsetFirst {
        file,
        range: KeyRange::all(),
        predicate: None,
        op: SubsetOp::Read {
            txn: None,
            projection: Some(vec![0]),
            mode: SubsetMode::Vsbb,
            lock: ReadLock::None,
        },
    });
    loop {
        let DpReply::Subset {
            done,
            last_key,
            subset,
            ..
        } = reply
        else {
            panic!()
        };
        if done {
            break;
        }
        reply = c.send(DpRequest::SubsetNext {
            subset: subset.unwrap(),
            after: last_key.unwrap(),
            verb: SubsetVerb::Get,
        });
    }
    let d = c.sim.metrics.snapshot() - before;
    assert!(d.disk_bulk_ios > 0, "sequential scan should use bulk I/O");
    assert!(
        d.disk_blocks_read > d.disk_reads,
        "multi-block strings expected"
    );
}

/// How many levels `file`'s B-tree has, root to leaf, read past the
/// request path.
fn levels_of(c: &TestCluster, file: FileId) -> u64 {
    use nsql_btree::node::NodeRef;
    use nsql_btree::BlockStore;
    let label = c.dp.file_label(file).unwrap();
    let store = DpStore::new(&c.dp.pool, &c.dp.alloc);
    let (mut block, mut levels) = (label.anchor, 1);
    while let NodeRef::Internal(node) = NodeRef::new(&store.read(block)) {
        (block, levels) = (node.first_child(), levels + 1);
    }
    levels
}

/// A one-key range lies inside one leaf. On a cold file a keyed `READ` (a
/// primary-key `SELECT`) and an `UPDATE^SUBSET` over the one key each read
/// one block per level: no bulk string, no pre-fetch. The keys are in the
/// first leaf, a middle one and the last, where no separator bounds the
/// leaf.
#[test]
fn a_one_leaf_range_reads_one_block() {
    let c = cluster_with(DpConfig {
        cache_frames: 64,
        ..DpConfig::default()
    });
    let file = c.create_emp();
    c.load_emps(file, 2000);
    let levels = levels_of(&c, file);
    assert!(levels > 1, "a one-level file reads one block anyway");
    let volume = c.sim.measure.entity(EntityKind::Volume, "$DATA1");
    let reads = || [Ctr::DiskReads, Ctr::BlocksRead, Ctr::PrefetchIos].map(|n| volume.get(n));
    let raise = SetList {
        sets: vec![(
            3,
            Expr::Arith(
                Box::new(Expr::Field(3)),
                ArithOp::Add,
                Box::new(Expr::lit(Value::Double(1.0))),
            ),
        )],
    };
    for empno in [0, 1000, 1999] {
        let key = emp_key(empno);
        let txn = c.txnmgr.begin();
        let select = DpRequest::Read {
            txn: None,
            file,
            key: key.clone(),
            lock: ReadLock::None,
        };
        let update = DpRequest::SubsetFirst {
            file,
            range: KeyRange {
                begin: OwnedBound::Included(key.clone()),
                end: OwnedBound::Included(key),
            },
            predicate: None,
            op: SubsetOp::Update {
                txn,
                sets: raise.clone(),
                constraint: None,
            },
        };
        for request in [select, update] {
            let verb = request.name();
            go_cold(&c);
            let before = reads();
            let reply = c.send(request);
            assert!(
                matches!(
                    reply,
                    DpReply::Record(Some(_)) | DpReply::Subset { affected: 1, .. }
                ),
                "{verb} {empno}: {reply:?}"
            );
            let read: Vec<u64> = reads().iter().zip(before).map(|(a, b)| a - b).collect();
            assert_eq!(
                read,
                [levels, levels, 0],
                "{verb} {empno}: disk.reads, blocks.read, prefetch.ios"
            );
        }
        c.txnmgr.abort(txn, c.client).unwrap();
    }
}

use nsql_btree::{Block, BlockNo};

/// What one call on a [`Watched`] store made the volume do.
#[derive(Debug)]
struct Watch {
    /// `'r'` read, `'s'` read for scan, `'n'` will need.
    call: char,
    block: BlockNo,
    /// Blocks a synchronous read brought in.
    read: u64,
    /// Blocks a pre-fetch brought in.
    prefetched: u64,
}

/// The Disk Process's block store, watched: every call is noted with the
/// reads it issued, and the device time of those reads is summed.
struct Watched<'a> {
    store: DpStore<'a>,
    disk: &'a Disk,
    volume: Arc<nsql_sim::MeasureRecord>,
    calls: RefCell<Vec<Watch>>,
    busy: Cell<Micros>,
}

impl Watched<'_> {
    fn watch(&self, call: char, block: BlockNo, f: impl FnOnce() -> Block) -> Block {
        // What the scan charged is booked first, so the clock read here is
        // the one the store's own access starts from.
        self.store.book();
        let blocks = || [Ctr::BlocksRead, Ctr::PrefetchReads].map(|n| self.volume.get(n));
        let (before, busy, now) = (
            blocks(),
            self.disk.busy_until(),
            self.store.pool.sim().now(),
        );
        let data = f();
        let [read, prefetched] = [0, 1].map(|i| blocks()[i] - before[i]);
        if read > 0 {
            let took = self.disk.busy_until() - busy.max(now);
            self.busy.set(self.busy.get() + took);
        }
        let read = read - prefetched;
        self.calls.borrow_mut().push(Watch {
            call,
            block,
            read,
            prefetched,
        });
        data
    }
}

impl nsql_btree::BlockStore for Watched<'_> {
    fn block_size(&self) -> usize {
        self.store.block_size()
    }
    fn read(&self, block: BlockNo) -> Block {
        self.watch('r', block, || self.store.read(block))
    }
    fn read_for_scan(&self, block: BlockNo) -> Block {
        self.watch('s', block, || self.store.read_for_scan(block))
    }
    fn will_need(&self, block: BlockNo) {
        self.watch('n', block, || {
            self.store.will_need(block);
            Block::default()
        });
    }
    fn write(&self, _: BlockNo, _: Block) {
        unreachable!("a scan writes nothing")
    }
    fn alloc(&self) -> BlockNo {
        unreachable!("a scan allocates nothing")
    }
    fn free(&self, _: BlockNo) {
        unreachable!("a scan frees nothing")
    }
}

/// A cold scan keeps one bulk string in flight: after the descent's own
/// read, every string arrives by pre-fetch, issued while the first leaf of
/// the string before it is in hand — so the records of the seven leaves in
/// hand are processed while the next seven come in, and the scan takes its
/// disk's busy time plus the processing of at most one string.
#[test]
fn a_cold_scan_keeps_one_string_in_flight() {
    let c = cluster_with(DpConfig {
        cache_frames: 64,
        ..DpConfig::default()
    });
    let file = c.create_emp();
    c.load_emps(file, 4000);
    let levels = levels_of(&c, file) as usize;
    go_cold(&c);
    let store = DpStore::new(&c.dp.pool, &c.dp.alloc);
    store.scan.set(ScanOptions::sequential());
    let watched = Watched {
        store,
        disk: &c.disk,
        volume: c.sim.measure.entity(EntityKind::Volume, "$DATA1"),
        calls: RefCell::new(Vec::new()),
        busy: Cell::new(0),
    };
    let tree = BTreeFile::open(&watched, c.dp.file_label(file).unwrap().anchor);
    let (t0, cpu0) = (c.sim.now(), c.sim.wait_profile().get(Wait::Cpu));
    let mut records = 0;
    tree.scan(Bound::<&[u8]>::Unbounded, |_, _| {
        records += 1;
        watched.store.charge(1);
        ScanControl::Continue
    });
    watched.store.book();
    let (elapsed, cpu) = (c.sim.now() - t0, c.sim.wait_profile().get(Wait::Cpu) - cpu0);
    assert_eq!(records, 4000);

    // The strings in the order they were read, and the leaf in hand when
    // each pre-fetch was issued. The file was loaded in key order, so its
    // blocks follow one another and so do the strings.
    let calls = watched.calls.into_inner();
    let leaves = calls.iter().filter(|w| w.call == 's').skip(levels - 1);
    let leaves: Vec<_> = leaves.map(|w| w.block).collect();
    let mut strings = Vec::new();
    let mut in_hand = None;
    let mut issued_at = Vec::new();
    for w in &calls {
        if w.call == 's' {
            in_hand = Some(w.block);
        }
        if w.read > 0 {
            strings.push((w.block, w.read));
        }
        if w.prefetched > 0 {
            let (start, len) = *strings.last().expect("a string was read first");
            strings.push((start + len as BlockNo, w.prefetched));
            issued_at.push(in_hand.expect("a leaf is in hand"));
        }
    }
    let sync_reads = calls.iter().filter(|w| w.read > 0).count();
    assert_eq!(
        sync_reads, 1,
        "only the descent waits for a read: {calls:?}"
    );
    assert!(strings.len() >= 5, "{} strings: {strings:?}", strings.len());
    for (k, &leaf) in issued_at.iter().enumerate() {
        let (start, len) = strings[k];
        let first = leaves
            .iter()
            .find(|&&b| (start..start + len as BlockNo).contains(&b));
        assert_eq!(
            Some(&leaf),
            first,
            "string {} was issued at leaf {leaf}, not at the first leaf of {:?}",
            k + 1,
            strings[k]
        );
    }
    // Disk-bound: the records of all but (at most) the last string were
    // processed while the disk was busy reading.
    let per_string = cpu * c.sim.cost.bulk_io_max_blocks() as u64 / leaves.len() as u64;
    let busy = watched.busy.get();
    assert!(
        elapsed <= busy + per_string,
        "elapsed {elapsed} µs, disk busy {busy} µs, one string's processing {per_string} µs"
    );
}

#[test]
fn subset_after_close_is_rejected() {
    let config = DpConfig {
        max_records_per_request: 10,
        ..DpConfig::default()
    };
    let c = cluster_with(config);
    let file = c.create_emp();
    c.load_emps(file, 50);
    let DpReply::Subset {
        subset: Some(id),
        last_key: Some(k),
        ..
    } = c.send(DpRequest::SubsetFirst {
        file,
        range: KeyRange::all(),
        predicate: None,
        op: SubsetOp::Read {
            txn: None,
            projection: Some(vec![0]),
            mode: SubsetMode::Vsbb,
            lock: ReadLock::None,
        },
    })
    else {
        panic!("expected a re-drivable subset")
    };
    c.send(DpRequest::CloseSubset { subset: id });
    let reply = c.send(DpRequest::SubsetNext {
        subset: id,
        after: k,
        verb: SubsetVerb::Get,
    });
    assert!(matches!(reply, DpReply::Error(DpError::BadSubset(_))));
}

/// A `DELETE^SUBSET^FIRST` over the whole file that the time slice stops
/// after ten records: its transaction, SCB id and last key.
fn interrupted_delete(c: &TestCluster, file: FileId) -> (TxnId, SubsetId, Vec<u8>) {
    let txn = c.txnmgr.begin();
    let reply = c.send(DpRequest::SubsetFirst {
        file,
        range: KeyRange::all(),
        predicate: None,
        op: SubsetOp::Delete { txn },
    });
    let DpReply::Subset {
        subset: Some(id),
        last_key: Some(last),
        affected: 10,
        done: false,
        ..
    } = reply
    else {
        panic!("expected ten deletes and a re-drivable subset, got {reply:?}")
    };
    (txn, id, last)
}

/// Rows of `file`, browsed to the end of the file across re-drives.
fn count_rows(c: &TestCluster, file: FileId) -> u32 {
    let mut reply = c.send(DpRequest::SubsetFirst {
        file,
        range: KeyRange::all(),
        predicate: None,
        op: SubsetOp::Read {
            txn: None,
            projection: Some(vec![0]),
            mode: SubsetMode::Vsbb,
            lock: ReadLock::None,
        },
    });
    let mut rows = 0;
    loop {
        let DpReply::Subset {
            done,
            affected,
            last_key,
            subset,
            ..
        } = reply
        else {
            panic!("expected a subset reply, got {reply:?}")
        };
        rows += affected;
        if done {
            return rows;
        }
        reply = c.send(DpRequest::SubsetNext {
            subset: subset.expect("re-drive needs an SCB"),
            after: last_key.expect("re-drive needs a last key"),
            verb: SubsetVerb::Get,
        });
    }
}

#[test]
fn an_scb_dies_with_its_transaction() {
    let config = DpConfig {
        max_records_per_request: 10,
        ..DpConfig::default()
    };
    let c = cluster_with(config);
    let file = c.create_emp();
    c.load_emps(file, 100);
    let (txn, id, last) = interrupted_delete(&c, file);
    c.txnmgr.abort(txn, c.client).unwrap();
    // The re-drive must not re-join the finished transaction and delete ten
    // more rows under it.
    let reply = c.send(DpRequest::SubsetNext {
        subset: id,
        after: last,
        verb: SubsetVerb::Delete,
    });
    assert!(
        matches!(reply, DpReply::Error(DpError::BadSubset(s)) if s == id),
        "{reply:?}"
    );
    assert_eq!(count_rows(&c, file), 100, "the abort restored every row");
}

#[test]
fn a_redrive_of_another_verb_is_refused() {
    let config = DpConfig {
        max_records_per_request: 10,
        ..DpConfig::default()
    };
    let c = cluster_with(config);
    let file = c.create_emp();
    c.load_emps(file, 100);
    let (txn, id, last) = interrupted_delete(&c, file);
    let examined = c.sim.metrics.snapshot().dp_records_examined;
    let reply = c.send(DpRequest::SubsetNext {
        subset: id,
        after: last.clone(),
        verb: SubsetVerb::Get,
    });
    let refused = DpError::WrongVerb {
        subset: id,
        verb: SubsetVerb::Get,
    };
    assert!(
        matches!(&reply, DpReply::Error(e) if *e == refused),
        "{reply:?}"
    );
    assert_eq!(
        c.sim.metrics.snapshot().dp_records_examined,
        examined,
        "a refused re-drive looks at no record"
    );
    // The SCB is still there for the re-drive it was opened for.
    let reply = c.send(DpRequest::SubsetNext {
        subset: id,
        after: last,
        verb: SubsetVerb::Delete,
    });
    assert!(
        matches!(reply, DpReply::Subset { affected: 10, .. }),
        "{reply:?}"
    );
    c.txnmgr.commit(txn, c.client).unwrap();
    assert_eq!(count_rows(&c, file), 80);
}

#[test]
fn a_failed_redrive_frees_its_scb() {
    let config = DpConfig {
        max_records_per_request: 10,
        ..DpConfig::default()
    };
    let c = cluster_with(config);
    let file = c.create_emp();
    c.load_emps(file, 50);
    // HIRE_DATE / (EMPNO - 30) > 0 divides by zero at employee 30, three
    // re-drives into a browse read: no transaction ends to free its SCB.
    let arith = |a, op, b| Expr::Arith(Box::new(a), op, Box::new(b));
    let divisor = arith(Expr::Field(0), ArithOp::Sub, Expr::lit(Value::Int(30)));
    let quotient = arith(Expr::Field(2), ArithOp::Div, divisor);
    let mut reply = c.send(DpRequest::SubsetFirst {
        file,
        range: KeyRange::all(),
        predicate: Some(Expr::Cmp(
            Box::new(quotient),
            CmpOp::Gt,
            Box::new(Expr::lit(Value::Int(0))),
        )),
        op: SubsetOp::Read {
            txn: None,
            projection: None,
            mode: SubsetMode::Vsbb,
            lock: ReadLock::None,
        },
    });
    let mut redrives = 0;
    while let DpReply::Subset {
        done: false,
        subset: Some(subset),
        last_key: Some(after),
        ..
    } = reply
    {
        redrives += 1;
        reply = c.send(DpRequest::SubsetNext {
            subset,
            after,
            verb: SubsetVerb::Get,
        });
    }
    assert!(
        matches!(reply, DpReply::Error(DpError::EvalFailed(_))),
        "{reply:?}"
    );
    assert_eq!(redrives, 3);
    assert!(
        c.dp.state.lock().subsets.is_empty(),
        "the SCB outlived its scan"
    );
}

#[test]
fn an_unknown_file_is_refused_by_every_handler() {
    let c = cluster();
    c.create_emp();
    // Every handler that names a file. None of them may reach a structure,
    // and none may leave audit behind.
    let txn = c.txnmgr.begin();
    let before = c.sim.metrics.snapshot();
    let (file, key) = (99, || 7u64.to_be_bytes().to_vec());
    let sets = || SetList {
        sets: vec![(3, Expr::lit(Value::Double(1.0)))],
    };
    let requests = vec![
        DpRequest::Read {
            txn: None,
            file,
            key: key(),
            lock: ReadLock::None,
        },
        DpRequest::ReadNext {
            txn: None,
            file,
            after: None,
            lock: ReadLock::None,
        },
        DpRequest::ReadSeqBlock {
            txn: None,
            file,
            after: None,
        },
        DpRequest::Insert {
            txn,
            file,
            key: key(),
            record: vec![1; 8],
        },
        DpRequest::UpdateRecord {
            txn,
            file,
            key: key(),
            record: vec![1; 8],
            audit: AuditMode::FullImage,
        },
        DpRequest::DeleteRecord {
            txn,
            file,
            key: key(),
        },
        DpRequest::UpdatePoint {
            txn,
            file,
            key: key(),
            sets: sets(),
            constraint: None,
        },
        DpRequest::BlockedInsert {
            txn,
            file,
            records: vec![(key(), vec![1; 8])],
        },
        DpRequest::BlockedUpdate {
            txn,
            file,
            records: vec![(key(), vec![1; 8])],
        },
        DpRequest::BlockedDelete {
            txn,
            file,
            keys: vec![key()],
        },
        DpRequest::SubsetFirst {
            file,
            range: KeyRange::all(),
            predicate: None,
            op: SubsetOp::Read {
                txn: None,
                projection: None,
                mode: SubsetMode::Rsbb,
                lock: ReadLock::None,
            },
        },
        DpRequest::SubsetFirst {
            file,
            range: KeyRange::all(),
            predicate: None,
            op: SubsetOp::Update {
                txn,
                sets: sets(),
                constraint: None,
            },
        },
        DpRequest::SubsetFirst {
            file,
            range: KeyRange::all(),
            predicate: None,
            op: SubsetOp::Delete { txn },
        },
        DpRequest::Lock {
            txn,
            file,
            key: Some(key()),
            mode: LockMode::Exclusive,
        },
        DpRequest::Lock {
            txn,
            file,
            key: None,
            mode: LockMode::Shared,
        },
    ];
    for req in requests {
        let name = req.name();
        let reply = c.send(req);
        assert!(
            matches!(reply, DpReply::Error(DpError::BadFile(99))),
            "{name}: {reply:?}"
        );
    }
    assert_eq!((c.sim.metrics.snapshot() - before).audit_records, 0);
    assert_eq!(c.dp.locks.lock_count(), 0, "no lock granted");
    c.txnmgr.abort(txn, c.client).unwrap();
}

#[test]
fn a_refused_change_leaves_no_audit_record_and_no_undo_entry() {
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 5);
    let desc = emp_desc();
    let txn = c.txnmgr.begin();
    let before = c.sim.metrics.snapshot();

    // Duplicate key.
    let dup = emp_row(3, "DUP", 0, 0.0);
    let reply = c.send(DpRequest::Insert {
        txn,
        file,
        key: encode_record_key(&desc, &dup),
        record: encode_row(&desc, &dup).unwrap(),
    });
    assert!(matches!(reply, DpReply::Error(DpError::DuplicateKey)));
    let reply = c.send(DpRequest::BlockedInsert {
        txn,
        file,
        records: vec![(
            encode_record_key(&desc, &dup),
            encode_row(&desc, &dup).unwrap(),
        )],
    });
    assert!(matches!(reply, DpReply::Error(DpError::DuplicateKey)));
    // Not found.
    let reply = c.send(DpRequest::DeleteRecord {
        txn,
        file,
        key: emp_key(77),
    });
    assert!(matches!(reply, DpReply::Error(DpError::NotFound)));
    // Too large for a block: one error, whichever request carries it (an
    // oversized update used to be reported as "not found", a blocked
    // insert with its own wording).
    let huge = vec![0u8; 3000];
    let too_large = |reply: DpReply| match reply {
        DpReply::Error(DpError::BadRecord(why)) => assert_eq!(why, "record too large"),
        other => panic!("{other:?}"),
    };
    too_large(c.send(DpRequest::UpdateRecord {
        txn,
        file,
        key: emp_key(3),
        record: huge.clone(),
        audit: AuditMode::FullImage,
    }));
    too_large(c.send(DpRequest::Insert {
        txn,
        file,
        key: emp_key(50),
        record: huge.clone(),
    }));
    too_large(c.send(DpRequest::BlockedInsert {
        txn,
        file,
        records: vec![(emp_key(50), huge.clone())],
    }));
    too_large(c.send(DpRequest::BlockedUpdate {
        txn,
        file,
        records: vec![(emp_key(3), huge)],
    }));

    let d = c.sim.metrics.snapshot() - before;
    assert_eq!(d.audit_records, 0, "a refused change is not logged");
    assert_eq!(d.audit_bytes, 0);
    assert!(
        !c.dp.state.lock().undo.contains_key(&txn),
        "a refused change has nothing to back out"
    );
    // Rolling back therefore leaves the rows the refusals named untouched.
    c.txnmgr.abort(txn, c.client).unwrap();
    let DpReply::Record(Some(bytes)) = c.send(DpRequest::Read {
        txn: None,
        file,
        key: emp_key(3),
        lock: ReadLock::None,
    }) else {
        panic!("employee 3 must survive the rollback of a refused insert")
    };
    let row = decode_row(&desc, &bytes).unwrap();
    assert_eq!(row.0[1], Value::Str("EMP00003".into()));
}

#[test]
fn dirty_steal_under_memory_pressure_forces_audit() {
    // A tiny cache plus many uncommitted updates: evicting dirty pages
    // must first ship the volume's audit and force the trail (write-ahead
    // log), never write an unlogged page.
    let config = DpConfig {
        cache_frames: 8,
        write_behind: false,
        ..DpConfig::default()
    };
    let c = cluster_with(config);
    let file = c.create_emp();
    c.load_emps(file, 5000); // ~50 blocks, far beyond the 8-frame cache

    let before = c.sim.metrics.snapshot();
    let txn = c.txnmgr.begin();
    // Touch records spread over many blocks so dirty pages get stolen
    // while the transaction is still open.
    for i in (0..5000).step_by(100) {
        let reply = c.send(DpRequest::UpdatePoint {
            txn,
            file,
            key: emp_key(i),
            sets: SetList {
                sets: vec![(3, Expr::lit(Value::Double(i as f64)))],
            },
            constraint: None,
        });
        assert!(matches!(reply, DpReply::Ok), "{reply:?}");
    }
    let d = c.sim.metrics.snapshot() - before;
    assert!(d.cache_steals > 0, "the 8-frame cache must steal");
    assert!(
        d.audit_flushes > 0,
        "stealing dirty pages must force the audit trail first"
    );
    // The uncommitted data never becomes visible after an abort, even
    // though some of it reached disk via steals.
    c.txnmgr.abort(txn, c.client).unwrap();
    let DpReply::Record(Some(bytes)) = c.send(DpRequest::Read {
        txn: None,
        file,
        key: emp_key(10),
        lock: ReadLock::None,
    }) else {
        panic!()
    };
    let row = decode_row(&emp_desc(), &bytes).unwrap();
    assert_eq!(row.0[3], Value::Double(1100.0), "undo restored the balance");
}

#[test]
fn measure_records_track_files_scbs_and_lock_waits() {
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 1200);

    // A filtered VSBB scan big enough to re-drive at least once.
    let mut reply = c.send(DpRequest::SubsetFirst {
        file,
        range: KeyRange::all(),
        predicate: Some(Expr::field_cmp(0, CmpOp::Lt, Value::Int(400))),
        op: SubsetOp::Read {
            txn: None,
            projection: None,
            mode: SubsetMode::Vsbb,
            lock: ReadLock::None,
        },
    });
    loop {
        let DpReply::Subset {
            last_key,
            done,
            subset,
            ..
        } = reply
        else {
            panic!("unexpected {reply:?}")
        };
        if done {
            break;
        }
        reply = c.send(DpRequest::SubsetNext {
            subset: subset.expect("re-drive needs an SCB"),
            after: last_key.expect("re-drive needs a last key"),
            verb: SubsetVerb::Get,
        });
    }

    // A lock conflict: txn B waits behind txn A's exclusive record lock.
    let ta = c.txnmgr.begin();
    let tb = c.txnmgr.begin();
    assert!(matches!(
        c.send(DpRequest::Lock {
            txn: ta,
            file,
            key: Some(emp_key(5)),
            mode: LockMode::Exclusive,
        }),
        DpReply::Ok
    ));
    assert!(matches!(
        c.send(DpRequest::Lock {
            txn: tb,
            file,
            key: Some(emp_key(5)),
            mode: LockMode::Exclusive,
        }),
        DpReply::Error(DpError::Locked { .. })
    ));
    c.txnmgr.abort(ta, c.client).unwrap();
    c.txnmgr.abort(tb, c.client).unwrap();

    let snap = c.sim.measure_snapshot();
    let fname = format!("$DATA1#F{file}");
    assert_eq!(
        snap.get(EntityKind::File, &fname, Ctr::RecsExamined),
        1200,
        "every row of the file is examined once"
    );
    assert_eq!(snap.get(EntityKind::File, &fname, Ctr::RecsSelected), 400);
    assert!(snap.get(EntityKind::Scb, "$DATA1", Ctr::ScbCreated) >= 1);
    assert!(snap.get(EntityKind::Scb, "$DATA1", Ctr::ScbRedrives) >= 1);
    assert_eq!(snap.get(EntityKind::Process, "$DATA1", Ctr::LockWaits), 1);
    assert_eq!(
        snap.get(EntityKind::Process, "$DATA1", Ctr::LockDeadlocks),
        0
    );
}

#[test]
fn unknown_payload_gets_a_typed_error_reply() {
    let c = cluster();
    let reply = c
        .bus
        .request(c.client, "$DATA1", MsgKind::FsDp, 8, Box::new(()))
        .unwrap()
        .downcast::<DpReply>()
        .unwrap();
    assert!(matches!(reply, DpReply::Error(DpError::UnknownRequest)));
}

/// A record shorter than its descriptor's fixed part is corrupt to whoever
/// has to look inside it — predicate or projection, reading or writing —
/// and a record like any other to whoever does not. (A predicate used to
/// read its fields as NULL and pass over it: `DELETE … WHERE HIRE_DATE >= 0`
/// answered `affected: 5` and left it behind.)
#[test]
fn a_record_shorter_than_its_fixed_part_is_corrupt_to_whoever_looks_inside() {
    let c = cluster();
    let file = c.create_emp();
    c.load_emps(file, 5);
    let txn = c.txnmgr.begin();
    let stunted = DpRequest::Insert {
        txn,
        file,
        key: emp_key(9_999),
        record: vec![0; 6],
    };
    assert!(matches!(c.send(stunted), DpReply::Ok));
    c.txnmgr.commit(txn, c.client).unwrap();

    let hired = || Some(Expr::field_cmp(2, CmpOp::Ge, Value::Int(0)));
    let first = |predicate, op| {
        c.send(DpRequest::SubsetFirst {
            file,
            range: KeyRange::all(),
            predicate,
            op,
        })
    };
    let read = |projection| SubsetOp::Read {
        txn: None,
        projection,
        mode: SubsetMode::Vsbb,
        lock: ReadLock::None,
    };
    let corrupt = |reply: DpReply, what: &str| match reply {
        DpReply::Error(DpError::BadRecord(why)) => assert_eq!(why, "corrupt record bytes"),
        other => panic!("{what}: {other:?}"),
    };
    corrupt(first(hired(), read(None)), "predicate only");
    corrupt(first(None, read(Some(vec![1, 2]))), "projection only");
    corrupt(first(hired(), read(Some(vec![1, 2]))), "both");
    // Nothing to look inside for: whole records, and a projection of no
    // field at all.
    for projection in [None, Some(Vec::new())] {
        match first(None, read(projection)) {
            DpReply::Subset { affected: 6, .. } => {}
            other => panic!("nobody looks inside: {other:?}"),
        }
    }

    let txn = c.txnmgr.begin();
    let raise = SetList {
        sets: vec![(2, Expr::lit(Value::Int(1999)))],
    };
    let update = SubsetOp::Update {
        txn,
        sets: raise,
        constraint: None,
    };
    corrupt(first(hired(), update), "UPDATE^SUBSET");
    corrupt(first(hired(), SubsetOp::Delete { txn }), "DELETE^SUBSET");
    c.txnmgr.abort(txn, c.client).unwrap();

    // A delete with no predicate takes it like any other record.
    let txn = c.txnmgr.begin();
    match first(None, SubsetOp::Delete { txn }) {
        DpReply::Subset { affected: 6, .. } => {}
        other => panic!("DELETE^SUBSET of everything: {other:?}"),
    }
    c.txnmgr.commit(txn, c.client).unwrap();
}

/// A field a predicate reads that does not decode is a corrupt record, as
/// it is to a projection of that field — under a compiled leaf (`CHAR`) and
/// under an interpreted one (`VARCHAR`) alike. (`RawRecord` reads such a
/// field as NULL, so `WHERE NOTE = 'x'` used to pass over the record and
/// `WHERE NOTE IS NULL` used to select it.)
#[test]
fn a_field_that_does_not_decode_is_corrupt_to_the_predicate_that_reads_it() {
    let desc = RecordDescriptor::new(
        vec![
            FieldDef::new("ID", FieldType::Int),
            FieldDef::new("NAME", FieldType::Char(4)),
            FieldDef::nullable("NOTE", FieldType::Varchar(8)),
        ],
        vec![0],
    );
    let c = cluster();
    let created = c.send(DpRequest::CreateFile { desc: desc.clone() });
    let DpReply::FileCreated(file) = created else {
        panic!("unexpected {created:?}")
    };
    let row = |id: i32| {
        vec![
            Value::Int(id),
            Value::Str("BOB".into()),
            Value::Str("x".into()),
        ]
    };
    // Record 1's NOTE slot points past its tail; record 2's NAME is not
    // UTF-8; record 0 is sound.
    let mut records: Vec<Vec<u8>> = (0..3)
        .map(|id| encode_row(&desc, &row(id)).unwrap())
        .collect();
    let note = desc.slot_offset(2);
    records[1][note..note + 2].copy_from_slice(&900u16.to_be_bytes());
    records[2][desc.slot_offset(1)] = 0xFF;
    let txn = c.txnmgr.begin();
    for (id, record) in records.into_iter().enumerate() {
        let insert = DpRequest::Insert {
            txn,
            file,
            key: encode_record_key(&desc, &row(id as i32)),
            record,
        };
        assert!(matches!(c.send(insert), DpReply::Ok));
    }
    c.txnmgr.commit(txn, c.client).unwrap();

    let only = |id: i32| KeyRange {
        begin: OwnedBound::Included(encode_record_key(&desc, &row(id))),
        end: OwnedBound::Included(encode_record_key(&desc, &row(id))),
    };
    let select = |range: KeyRange, predicate: Expr| {
        let reply = c.send(DpRequest::SubsetFirst {
            file,
            range,
            predicate: Some(predicate),
            op: SubsetOp::Read {
                txn: None,
                projection: Some(vec![0]),
                mode: SubsetMode::Vsbb,
                lock: ReadLock::None,
            },
        });
        match reply {
            DpReply::Subset { affected, .. } => Ok(affected),
            DpReply::Error(DpError::BadRecord(why)) => Err(why),
            other => panic!("unexpected {other:?}"),
        }
    };
    let corrupt = Err("corrupt record bytes".to_string());
    let note_is = |text: &str| Expr::field_cmp(2, CmpOp::Eq, Value::Str(text.into()));
    let note_is_null = Expr::IsNull {
        expr: Box::new(Expr::Field(2)),
        negated: false,
    };
    let name_is = |text: &str| Expr::field_cmp(1, CmpOp::Eq, Value::Str(text.into()));
    let name_is_null = Expr::IsNull {
        expr: Box::new(Expr::Field(1)),
        negated: false,
    };
    assert_eq!(select(only(0), note_is("x")), Ok(1));
    assert_eq!(select(only(0), name_is("BOB")), Ok(1));
    // The two cases ROADMAP item 3 names.
    assert_eq!(select(only(1), note_is("x")), corrupt);
    assert_eq!(select(only(1), note_is_null.clone()), corrupt);
    // The same under compiled leaves.
    assert_eq!(select(only(2), name_is("BOB")), corrupt);
    assert_eq!(select(only(2), name_is_null), corrupt);
    // A predicate that never gets to the field does not trip over it: the
    // sound fields of the same records still filter them.
    let never = |then: Expr| Expr::and(Expr::field_cmp(0, CmpOp::Lt, Value::Int(0)), then);
    assert_eq!(select(KeyRange::all(), never(note_is("x"))), Ok(0));
    assert_eq!(select(KeyRange::all(), never(name_is("BOB"))), Ok(0));
    assert_eq!(select(only(1), name_is("BOB")), Ok(1));
    assert_eq!(select(only(2), note_is("x")), Ok(1));
    // A scan that reaches the record stops at it.
    assert_eq!(select(KeyRange::all(), note_is_null), corrupt);
}

/// Every write verb once, accepted and refused, each on a fresh cluster:
/// the reply, the virtual microseconds the request took, the Disk Process
/// CPU units, the audit records and bytes logged and the locks held
/// afterwards, pinned. Another transaction holds employee 9's record lock
/// throughout; a reply names it as `HOLDER`. The accepted record-at-a-time
/// rows were re-pinned once, when the process-pair checkpoint they sent
/// was deleted: each fell by that one local exchange, `msg_cost(false,
/// bytes + 4)` — 609 µs for a 92-byte insert or update, 610 µs for a
/// delete's or an UPDATE^POINT's 96 bytes. Every other column and every
/// refused row held.
#[test]
fn each_write_verb_costs_what_it_did() {
    struct Files {
        txn: TxnId,
        emp: FileId,
    }
    let desc = emp_desc();
    let row = |empno: i32, salary: f64| emp_row(empno, "NEW", 1990, salary);
    let record = |empno: i32, salary: f64| encode_row(&desc, &row(empno, salary)).unwrap();
    let raise = || SetList {
        sets: vec![(
            3,
            Expr::Arith(
                Box::new(Expr::Field(3)),
                ArithOp::Add,
                Box::new(Expr::lit(Value::Double(1.0))),
            ),
        )],
    };
    let solvent = || Some(Expr::field_cmp(3, CmpOp::Lt, Value::Double(0.0)));
    let to = |hi: i32| range_to(hi);
    type Case<'a> = (
        &'a str,
        &'a str,
        [u64; 5],
        Box<dyn Fn(&Files) -> DpRequest + 'a>,
    );
    let cases: Vec<Case> = vec![
        (
            "insert",
            "Ok",
            [743, 9, 1, 64, 2],
            Box::new(|f| DpRequest::Insert {
                txn: f.txn,
                file: f.emp,
                key: emp_key(50),
                record: record(50, 5.0),
            }),
        ),
        (
            "insert duplicate",
            "Error(DuplicateKey)",
            [683, 5, 0, 0, 2],
            Box::new(|f| DpRequest::Insert {
                txn: f.txn,
                file: f.emp,
                key: emp_key(3),
                record: record(3, 5.0),
            }),
        ),
        (
            "update full",
            "Ok",
            [743, 9, 1, 93, 2],
            Box::new(|f| DpRequest::UpdateRecord {
                txn: f.txn,
                file: f.emp,
                key: emp_key(3),
                record: record(3, 7.0),
                audit: AuditMode::FullImage,
            }),
        ),
        (
            "update fields",
            "Ok",
            [803, 13, 1, 92, 2],
            Box::new(|f| DpRequest::UpdateRecord {
                txn: f.txn,
                file: f.emp,
                key: emp_key(3),
                record: record(3, 7.0),
                audit: AuditMode::FieldCompressed,
            }),
        ),
        (
            "update missing",
            "Error(NotFound)",
            [683, 5, 0, 0, 2],
            Box::new(|f| DpRequest::UpdateRecord {
                txn: f.txn,
                file: f.emp,
                key: emp_key(77),
                record: record(77, 7.0),
                audit: AuditMode::FullImage,
            }),
        ),
        (
            "update fields corrupt",
            "Error(BadRecord(\"corrupt record bytes\"))",
            [680, 5, 0, 0, 2],
            Box::new(|f| DpRequest::UpdateRecord {
                txn: f.txn,
                file: f.emp,
                key: emp_key(3),
                record: vec![1; 3],
                audit: AuditMode::FieldCompressed,
            }),
        ),
        (
            "delete",
            "Ok",
            [740, 9, 1, 64, 2],
            Box::new(|f| DpRequest::DeleteRecord {
                txn: f.txn,
                file: f.emp,
                key: emp_key(3),
            }),
        ),
        (
            "delete missing",
            "Error(NotFound)",
            [680, 5, 0, 0, 2],
            Box::new(|f| DpRequest::DeleteRecord {
                txn: f.txn,
                file: f.emp,
                key: emp_key(77),
            }),
        ),
        (
            "delete locked",
            "Error(Locked { holder: HOLDER })",
            [680, 5, 0, 0, 1],
            Box::new(|f| DpRequest::DeleteRecord {
                txn: f.txn,
                file: f.emp,
                key: emp_key(9),
            }),
        ),
        (
            "update point",
            "Ok",
            [712, 7, 1, 57, 2],
            Box::new(|f| DpRequest::UpdatePoint {
                txn: f.txn,
                file: f.emp,
                key: emp_key(3),
                sets: raise(),
                constraint: None,
            }),
        ),
        (
            "update point key field",
            "Error(KeyUpdateNotAllowed)",
            [681, 5, 0, 0, 1],
            Box::new(|f| DpRequest::UpdatePoint {
                txn: f.txn,
                file: f.emp,
                key: emp_key(3),
                sets: SetList {
                    sets: vec![(0, Expr::lit(Value::Int(99)))],
                },
                constraint: None,
            }),
        ),
        (
            "update point check",
            "Error(ConstraintViolation)",
            [743, 9, 0, 0, 2],
            Box::new(|f| DpRequest::UpdatePoint {
                txn: f.txn,
                file: f.emp,
                key: emp_key(3),
                sets: raise(),
                constraint: solvent(),
            }),
        ),
        (
            "blocked insert",
            "Subset done=true examined=3 affected=3",
            [826, 14, 3, 192, 2],
            Box::new(|f| DpRequest::BlockedInsert {
                txn: f.txn,
                file: f.emp,
                records: (50..53).map(|i| (emp_key(i), record(i, 1.0))).collect(),
            }),
        ),
        (
            "blocked insert duplicate",
            "Error(DuplicateKey)",
            [691, 5, 0, 0, 2],
            Box::new(|f| DpRequest::BlockedInsert {
                txn: f.txn,
                file: f.emp,
                records: (0..3).map(|i| (emp_key(i), record(i, 1.0))).collect(),
            }),
        ),
        (
            "blocked insert empty",
            "Ok",
            [679, 5, 0, 0, 1],
            Box::new(|f| DpRequest::BlockedInsert {
                txn: f.txn,
                file: f.emp,
                records: vec![],
            }),
        ),
        (
            "blocked update",
            "Subset done=true examined=2 affected=2",
            [777, 11, 2, 186, 3],
            Box::new(|f| DpRequest::BlockedUpdate {
                txn: f.txn,
                file: f.emp,
                records: (1..3).map(|i| (emp_key(i), record(i, 2.0))).collect(),
            }),
        ),
        (
            "blocked update missing",
            "Error(NotFound)",
            [732, 8, 1, 93, 3],
            Box::new(|f| DpRequest::BlockedUpdate {
                txn: f.txn,
                file: f.emp,
                records: vec![(emp_key(1), record(1, 2.0)), (emp_key(77), record(77, 2.0))],
            }),
        ),
        (
            "blocked update empty",
            "Subset done=true examined=0 affected=0",
            [680, 5, 0, 0, 1],
            Box::new(|f| DpRequest::BlockedUpdate {
                txn: f.txn,
                file: f.emp,
                records: vec![],
            }),
        ),
        (
            "blocked delete",
            "Subset done=true examined=2 affected=2",
            [771, 11, 2, 128, 3],
            Box::new(|f| DpRequest::BlockedDelete {
                txn: f.txn,
                file: f.emp,
                keys: vec![emp_key(1), emp_key(2)],
            }),
        ),
        (
            "blocked delete locked",
            "Error(Locked { holder: HOLDER })",
            [726, 8, 1, 64, 2],
            Box::new(|f| DpRequest::BlockedDelete {
                txn: f.txn,
                file: f.emp,
                keys: vec![emp_key(8), emp_key(9)],
            }),
        ),
        (
            "update subset",
            "Subset done=true examined=5 affected=5",
            [1133, 35, 5, 285, 6],
            Box::new(|f| DpRequest::SubsetFirst {
                file: f.emp,
                range: to(4),
                predicate: None,
                op: SubsetOp::Update {
                    txn: f.txn,
                    sets: raise(),
                    constraint: None,
                },
            }),
        ),
        (
            "update subset check",
            "Error(ConstraintViolation)",
            [818, 14, 0, 0, 2],
            Box::new(|f| DpRequest::SubsetFirst {
                file: f.emp,
                range: to(4),
                predicate: None,
                op: SubsetOp::Update {
                    txn: f.txn,
                    sets: raise(),
                    constraint: solvent(),
                },
            }),
        ),
        (
            "update subset locked",
            "Error(Locked { holder: HOLDER })",
            [1506, 60, 9, 513, 10],
            Box::new(|f| DpRequest::SubsetFirst {
                file: f.emp,
                range: KeyRange::all(),
                predicate: None,
                op: SubsetOp::Update {
                    txn: f.txn,
                    sets: raise(),
                    constraint: None,
                },
            }),
        ),
        (
            "delete subset",
            "Subset done=true examined=5 affected=5",
            [981, 25, 5, 320, 6],
            Box::new(|f| DpRequest::SubsetFirst {
                file: f.emp,
                range: to(4),
                predicate: None,
                op: SubsetOp::Delete { txn: f.txn },
            }),
        ),
    ];
    let summary = |reply: &DpReply| match reply {
        DpReply::Subset {
            done,
            examined,
            affected,
            ..
        } => format!("Subset done={done} examined={examined} affected={affected}"),
        other => format!("{other:?}"),
    };
    for (name, expect_reply, expect, request) in &cases {
        let c = cluster();
        let emp = c.create_emp();
        c.load_emps(emp, 10);
        let holder = c.txnmgr.begin();
        let reply = c.send(DpRequest::Lock {
            txn: holder,
            file: emp,
            key: Some(emp_key(9)),
            mode: LockMode::Exclusive,
        });
        assert!(matches!(reply, DpReply::Ok));
        let txn = c.txnmgr.begin();
        let request = request(&Files { txn, emp });
        let (before, t0) = (c.sim.metrics.snapshot(), c.sim.now());
        let reply = c.send(request);
        let d = c.sim.metrics.snapshot() - before;
        let got = [
            c.sim.now() - t0,
            d.cpu_dp,
            d.audit_records,
            d.audit_bytes,
            c.dp.locks.lock_count() as u64,
        ];
        let expect_reply = expect_reply.replace("HOLDER", &format!("{holder:?}"));
        assert_eq!(summary(&reply), expect_reply, "{name}");
        assert_eq!(
            got, *expect,
            "{name}: [µs, cpu, audit records, audit bytes, locks]"
        );
    }
}

/// What a subset write leaves behind, which changing a leaf's records
/// through one image must not move: the reply, the virtual clock and every
/// counter but cache hits, the file, the undo list, locks, and the dirty
/// frames with their LSNs; then, once the transaction is aborted, the
/// audit trail (bodies and LSNs) and the file backed out.
#[derive(Debug, PartialEq)]
struct Aftermath {
    reply: String,
    micros: u64,
    counters: String,
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    undo: Vec<(FileId, AuditBody)>,
    locks: usize,
    dirty: Vec<(nsql_btree::BlockNo, u64)>,
    audit: Vec<AuditRecord>,
    backed_out: Vec<(Vec<u8>, Vec<u8>)>,
}

/// The records of `file`, read past the request path.
fn entries_of(c: &TestCluster, file: FileId) -> Vec<(Vec<u8>, Vec<u8>)> {
    let label = c.dp.file_label(file).unwrap();
    let store = DpStore::new(&c.dp.pool, &c.dp.alloc);
    let tree = BTreeFile::open(&store, label.anchor);
    tree.validate();
    tree.entries()
}

/// `request` — made by `setup` on a fresh cluster, against a file it
/// loads, in the transaction it is given — sent once, its records changed
/// a leaf at a time or one at a time; and the cache hits it made.
fn subset_write(
    record_at_a_time: bool,
    setup: &dyn Fn(&TestCluster, TxnId) -> (FileId, DpRequest),
) -> (Aftermath, u64) {
    let c = cluster();
    let txn = c.txnmgr.begin();
    let (file, request) = setup(&c, txn);
    let loaded = entries_of(&c, file);
    let (before, t0) = (c.sim.metrics.snapshot(), c.sim.now());
    RECORD_AT_A_TIME.with(|r| r.set(record_at_a_time));
    let reply = c.send(request);
    RECORD_AT_A_TIME.with(|r| r.set(false));
    let micros = c.sim.now() - t0;
    let mut counters = c.sim.metrics.snapshot() - before;
    let hits = std::mem::take(&mut counters.cache_hits);
    let undo =
        c.dp.state
            .lock()
            .undo
            .get(&txn)
            .cloned()
            .unwrap_or_default();
    let (locks, dirty) = (c.dp.locks.lock_count(), c.dp.pool.dirty_lsns());
    let entries = entries_of(&c, file);
    c.txnmgr.abort(txn, c.client).unwrap();
    c.dp.auditor.send();
    let durable = c.trail.force_up_to(u64::MAX, c.sim.now());
    let aftermath = Aftermath {
        reply: format!("{reply:?}"),
        micros,
        counters: format!("{counters:?}"),
        entries,
        undo,
        locks,
        dirty,
        audit: c.trail.durable_records(durable),
        backed_out: entries_of(&c, file),
    };
    assert_eq!(aftermath.backed_out, loaded, "abort backs every change out");
    (aftermath, hits)
}

/// Both ways of changing the records leave the same aftermath; the leaf
/// way reads fewer blocks when a leaf holds several of them.
fn assert_leaf_rewrites_match(
    what: &str,
    setup: &dyn Fn(&TestCluster, TxnId) -> (FileId, DpRequest),
) -> Aftermath {
    let (each, each_hits) = subset_write(true, setup);
    let (by_leaf, by_leaf_hits) = subset_write(false, setup);
    assert_eq!(by_leaf, each, "{what}");
    assert!(
        by_leaf_hits < each_hits,
        "{what}: {by_leaf_hits} cache hits a leaf at a time, {each_hits} record at a time"
    );
    by_leaf
}

/// `SET SALARY = SALARY <op> <operand>` over EMPNO `lo..=hi` of a loaded
/// EMP file, selecting by `predicate`.
fn emp_update(
    c: &TestCluster,
    txn: TxnId,
    (lo, hi): (i32, i32),
    predicate: Option<Expr>,
    op: ArithOp,
    operand: Expr,
) -> (FileId, DpRequest) {
    let file = c.create_emp();
    c.load_emps(file, 600);
    let sets = SetList {
        sets: vec![(
            3,
            Expr::Arith(Box::new(Expr::Field(3)), op, Box::new(operand)),
        )],
    };
    let request = DpRequest::SubsetFirst {
        file,
        range: KeyRange {
            begin: OwnedBound::Included(emp_key(lo)),
            end: OwnedBound::Included(emp_key(hi)),
        },
        predicate,
        op: SubsetOp::Update {
            txn,
            sets,
            constraint: None,
        },
    };
    (file, request)
}

/// The leaf block holding `key` in `file`, found past the request path.
fn leaf_of(c: &TestCluster, file: FileId, key: &[u8]) -> nsql_btree::BlockNo {
    use nsql_btree::node::NodeRef;
    use nsql_btree::BlockStore;
    let label = c.dp.file_label(file).unwrap();
    let store = DpStore::new(&c.dp.pool, &c.dp.alloc);
    let mut block = label.anchor;
    loop {
        let bytes = store.read(block);
        match NodeRef::new(&bytes) {
            NodeRef::Internal(node) => block = node.child_for(key).1,
            NodeRef::Leaf(_) => return block,
        }
    }
}

/// How many leaves hold EMPNO `lo..=hi` in the file `setup` makes, and
/// whether the range starts and ends inside a leaf.
fn emp_leaves(
    setup: &dyn Fn(&TestCluster, TxnId) -> (FileId, DpRequest),
    (lo, hi): (i32, i32),
) -> (usize, bool) {
    let c = cluster();
    let (file, _) = setup(&c, c.txnmgr.begin());
    let leaf = |empno| leaf_of(&c, file, &emp_key(empno));
    let leaves: std::collections::BTreeSet<_> = (lo..=hi).map(leaf).collect();
    let inside = leaf(lo - 1) == leaf(lo) && leaf(hi + 1) == leaf(hi);
    (leaves.len(), inside)
}

const SPAN: (i32, i32) = (37, 412);

fn raise(c: &TestCluster, txn: TxnId) -> (FileId, DpRequest) {
    // Every third record of the range is left alone.
    let predicate = Expr::Not(Box::new(Expr::field_cmp(2, CmpOp::Eq, Value::Int(1983))));
    emp_update(
        c,
        txn,
        SPAN,
        Some(predicate),
        ArithOp::Add,
        Expr::lit(Value::Double(1.0)),
    )
}

#[test]
fn leaf_rewrites_change_a_range_across_leaves_as_record_at_a_time_did() {
    assert_eq!(emp_leaves(&raise, SPAN), (4, true));
    let done = assert_leaf_rewrites_match("raise", &raise);
    assert!(done.reply.contains("affected: 334"), "{}", done.reply);
    assert_eq!(done.undo.len(), 334);
    let audit = done.audit.len();
    assert_eq!(
        audit,
        601 + 334 + 1,
        "the load and its commit, the changes, the abort"
    );
}

#[test]
fn a_lock_conflict_inside_a_leaf_fails_as_record_at_a_time_did() {
    let conflict = |c: &TestCluster, txn| {
        let made = emp_update(
            c,
            txn,
            SPAN,
            None,
            ArithOp::Mul,
            Expr::lit(Value::Double(1.5)),
        );
        let other = c.txnmgr.begin();
        let lock = DpRequest::Lock {
            txn: other,
            file: made.0,
            key: Some(emp_key(200)),
            mode: LockMode::Exclusive,
        };
        assert!(matches!(c.send(lock), DpReply::Ok));
        made
    };
    let c = cluster();
    let (file, _) = conflict(&c, c.txnmgr.begin());
    let leaf = |empno| leaf_of(&c, file, &emp_key(empno));
    assert!(
        leaf(37) != leaf(200) && leaf(190) == leaf(200),
        "200 is inside a leaf"
    );
    let done = assert_leaf_rewrites_match("lock conflict", &conflict);
    assert!(done.reply.contains("Locked"), "{}", done.reply);
    assert_eq!(done.undo.len(), 200 - 37);
}

#[test]
fn a_patch_error_inside_a_leaf_fails_as_record_at_a_time_did() {
    // SALARY / (EMPNO - 250) divides by zero at 250.
    let divide = |c: &TestCluster, txn| {
        let by = Expr::Arith(
            Box::new(Expr::Field(0)),
            ArithOp::Sub,
            Box::new(Expr::lit(Value::Int(250))),
        );
        emp_update(c, txn, SPAN, None, ArithOp::Div, by)
    };
    let c = cluster();
    let (file, _) = divide(&c, c.txnmgr.begin());
    let leaf = |empno| leaf_of(&c, file, &emp_key(empno));
    assert!(
        leaf(37) != leaf(250) && leaf(240) == leaf(250),
        "250 is inside a leaf"
    );
    let done = assert_leaf_rewrites_match("division by zero", &divide);
    assert!(done.reply.contains("EvalFailed"), "{}", done.reply);
    assert_eq!(done.undo.len(), 250 - 37);
}

#[test]
fn records_that_outgrow_their_leaf_split_it_as_record_at_a_time_did() {
    let grow = |c: &TestCluster, txn| {
        let desc = RecordDescriptor::new(
            vec![
                FieldDef::new("K", FieldType::Int),
                FieldDef::new("V", FieldType::Varchar(200)),
            ],
            vec![0],
        );
        let created = c.send(DpRequest::CreateFile { desc: desc.clone() });
        let DpReply::FileCreated(file) = created else {
            panic!("{created:?}")
        };
        let load = c.txnmgr.begin();
        let row = |k: i32| vec![Value::Int(k), Value::Str(format!("v{k}"))];
        for k in 0..400 {
            let insert = DpRequest::Insert {
                txn: load,
                file,
                key: encode_record_key(&desc, &row(k)),
                record: encode_row(&desc, &row(k)).unwrap(),
            };
            assert!(matches!(c.send(insert), DpReply::Ok));
        }
        c.txnmgr.commit(load, c.client).unwrap();
        let long = Value::Str("L".repeat(120));
        let request = DpRequest::SubsetFirst {
            file,
            range: KeyRange {
                begin: OwnedBound::Included(encode_record_key(&desc, &row(30))),
                end: OwnedBound::Included(encode_record_key(&desc, &row(330))),
            },
            predicate: Some(Expr::field_cmp(0, CmpOp::Ne, Value::Int(100))),
            op: SubsetOp::Update {
                txn,
                sets: SetList {
                    sets: vec![(1, Expr::lit(long))],
                },
                constraint: None,
            },
        };
        (file, request)
    };
    // The leaves split: the file takes many more blocks than it had.
    let c = cluster();
    let (_, request) = grow(&c, c.txnmgr.begin());
    let loaded = c.dp.alloc.lock().high_water();
    c.send(request);
    assert!(c.dp.alloc.lock().high_water() > loaded + 10);
    let done = assert_leaf_rewrites_match("growth", &grow);
    assert!(done.reply.contains("affected: 300"), "{}", done.reply);
}

#[test]
fn a_delete_that_empties_leaves_frees_them_as_record_at_a_time_did() {
    let delete = |c: &TestCluster, txn| {
        let file = c.create_emp();
        c.load_emps(file, 600);
        let request = DpRequest::SubsetFirst {
            file,
            range: KeyRange {
                begin: OwnedBound::Included(emp_key(SPAN.0)),
                end: OwnedBound::Included(emp_key(SPAN.1)),
            },
            predicate: None,
            op: SubsetOp::Delete { txn },
        };
        (file, request)
    };
    assert_eq!(emp_leaves(&delete, SPAN), (4, true));
    // The two leaves wholly inside the range are emptied and merged away.
    let c = cluster();
    let (file, request) = delete(&c, c.txnmgr.begin());
    let leaves = |empnos: &mut dyn Iterator<Item = i32>| {
        let leaves: std::collections::BTreeSet<_> =
            empnos.map(|e| leaf_of(&c, file, &emp_key(e))).collect();
        leaves.len()
    };
    let before = leaves(&mut (0..600));
    c.send(request);
    let kept = leaves(&mut (0..600).filter(|e| !(SPAN.0..=SPAN.1).contains(e)));
    assert_eq!(kept, before - 2);
    let done = assert_leaf_rewrites_match("delete", &delete);
    assert_eq!(done.entries.len(), 600 - 376);
    assert_eq!(done.undo.len(), 376);
}
