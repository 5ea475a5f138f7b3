//! The pre-existing DBMS: ENSCRIBE's record-at-a-time API and the three
//! file structures (key-sequenced, relative, entry-sequenced), driven
//! directly through the File System — the world the paper's SQL system had
//! to match.
//!
//! ```sh
//! cargo run --example enscribe
//! ```

use nonstop_sql::ClusterBuilder;
use nsql_dp::{DpReply, DpRequest, FileKind, ReadLock};
use nsql_fs::OpenFile;
use nsql_records::key::encode_record_key;
use nsql_records::{FieldDef, FieldType, RecordDescriptor, Value};

fn main() {
    let db = ClusterBuilder::new().volume("$DATA1", 0, 1).build();
    let session = db.session();
    let fs = session.fs();

    // --- key-sequenced file, used the ENSCRIBE way --------------------
    let desc = RecordDescriptor::new(
        vec![
            FieldDef::new("PARTNO", FieldType::Int),
            FieldDef::new("DESCR", FieldType::Char(16)),
            FieldDef::new("QTY", FieldType::Int),
        ],
        vec![0],
    );
    let DpReply::FileCreated(file) = fs
        .send(
            "$DATA1",
            DpRequest::CreateFile {
                kind: FileKind::KeySequenced(desc.clone()),
            },
        )
        .unwrap()
    else {
        panic!()
    };
    let of = OpenFile::single("PARTS", desc.clone(), "$DATA1", file);

    let txn = db.txnmgr.begin();
    for i in 0..50 {
        fs.ens_write(
            txn,
            &of,
            &[
                Value::Int(i),
                Value::Str(format!("PART-{i:03}")),
                Value::Int(100),
            ],
        )
        .unwrap();
    }
    db.txnmgr.commit(txn, session.cpu()).unwrap();

    // READ by key, then the ENSCRIBE update discipline: read, modify, WRITE
    // back the full image (two messages; full-record audit).
    let key = encode_record_key(&desc, &[Value::Int(7), Value::Null, Value::Null]);
    let txn = db.txnmgr.begin();
    let old = fs
        .ens_read(Some(txn), &of, &key, ReadLock::Shared)
        .unwrap()
        .unwrap();
    let mut new = old.0.clone();
    new[2] = Value::Int(93);
    fs.ens_rewrite(txn, &of, &old.0, &new).unwrap();
    db.txnmgr.commit(txn, session.cpu()).unwrap();
    println!("key-sequenced: PART 7 quantity rewritten to 93");

    // Sequential read, record at a time: one message per record.
    let before = db.snapshot();
    let mut cur = fs.ens_open(&of, None);
    let mut n = 0;
    while fs.ens_read_next(&mut cur).unwrap().is_some() {
        n += 1;
    }
    let m = db.snapshot() - before;
    println!(
        "key-sequenced: sequential read of {n} records took {} FS-DP messages",
        m.msgs_fs_dp
    );

    // --- relative file: direct access by record number ----------------
    let DpReply::FileCreated(rel) = fs
        .send(
            "$DATA1",
            DpRequest::CreateFile {
                kind: FileKind::Relative { slot_size: 64 },
            },
        )
        .unwrap()
    else {
        panic!()
    };
    let txn = db.txnmgr.begin();
    fs.ens_relative_write(txn, "$DATA1", rel, 12, b"slot twelve".to_vec())
        .unwrap();
    fs.ens_relative_write(txn, "$DATA1", rel, 4000, b"sparse slots are fine".to_vec())
        .unwrap();
    db.txnmgr.commit(txn, session.cpu()).unwrap();
    let got = fs.ens_relative_read("$DATA1", rel, 12).unwrap().unwrap();
    println!(
        "relative: slot 12 holds {:?}",
        String::from_utf8_lossy(&got[..11])
    );

    // --- entry-sequenced file: insert at EOF only ----------------------
    let DpReply::FileCreated(log) = fs
        .send(
            "$DATA1",
            DpRequest::CreateFile {
                kind: FileKind::EntrySequenced,
            },
        )
        .unwrap()
    else {
        panic!()
    };
    let mut addrs = Vec::new();
    for i in 0..5 {
        addrs.push(
            fs.ens_entry_append("$DATA1", log, format!("event {i}").into_bytes())
                .unwrap(),
        );
    }
    let got = fs.ens_entry_read("$DATA1", log, addrs[3]).unwrap().unwrap();
    println!(
        "entry-sequenced: address {} holds {:?}",
        addrs[3],
        String::from_utf8_lossy(&got)
    );

    println!(
        "\nThis is the 1970s-era interface NonStop SQL had to match; run\n\
         `cargo run --example debitcredit` to see the comparison."
    );
}
