//! Allocation counts as a deterministic proxy for "a measurement window is
//! a flat copy": a mark and its close must not rebuild a map of cloned
//! entity names, and `Session::execute` takes exactly one window per
//! statement.

use nonstop_sql::sim::SimRng;
use nonstop_sql::workloads::Bank;
use nonstop_sql::{Cluster, Outcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and bytes requested by this thread (the harness runs
    /// tests on threads of their own, so other tests do not disturb them).
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged, so its contract is
// met exactly as `System` meets it; the counter is a plain thread-local
// `Cell` that neither allocates nor has a destructor. `realloc` is left to
// the default, which calls `alloc` and so counts as one.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no counter left; nothing measured
        // runs there.
        let _ = ALLOCS.try_with(|n| {
            let (count, bytes) = n.get();
            n.set((count + 1, bytes + layout.size() as u64));
        });
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

/// `(allocations, bytes)` requested while `f` ran.
fn allocs_during<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let after = ALLOCS.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), out)
}

/// One DebitCredit as the six SQL statements of the `oltp_sql` workload.
fn debit_credit(db: &Cluster, bank: &Bank, rng: &mut SimRng, hid: u32) {
    let (aid, tid, bid, delta) = bank.draw(rng);
    let mut s = db.session();
    for sql in [
        "BEGIN WORK".to_string(),
        format!("UPDATE ACCOUNT SET ABALANCE = ABALANCE + {delta} WHERE AID = {aid}"),
        format!("UPDATE TELLER SET TBALANCE = TBALANCE + {delta} WHERE TID = {tid}"),
        format!("UPDATE BRANCH SET BBALANCE = BBALANCE + {delta} WHERE BID = {bid}"),
        format!("INSERT INTO HISTORY VALUES ({hid}, {aid}, {tid}, {bid}, {delta}, 'H')"),
        "COMMIT WORK".to_string(),
    ] {
        match s.execute(&sql).unwrap() {
            Outcome::Count(1) | Outcome::Done => {}
            other => panic!("{sql}: {other:?}"),
        }
    }
}

#[test]
fn a_window_is_a_flat_copy() {
    let db = Cluster::single_volume();
    let bank = Bank::create(&db, 2, 50, "$DATA1").unwrap();
    let mut rng = SimRng::seed_from(7);
    debit_credit(&db, &bank, &mut rng, 0);
    assert!(!db.sim.trace.is_enabled());

    // Before the positional snapshot: 38 allocations, 20 KB.
    let ((count, bytes), window) = allocs_during(|| db.sim.mark().close(&db.sim));
    assert!(window.measure.snap.iter().len() >= 8, "a loaded cluster");
    assert!(count <= 6, "mark + close made {count} allocations");
    assert!(bytes < 20_000, "mark + close allocated {bytes} bytes");

    // Before `Session::execute` took one window per statement: 725.
    let ((count, _), ()) = allocs_during(|| debit_credit(&db, &bank, &mut rng, 1));
    assert!(
        count <= 725 - 150,
        "one DebitCredit made {count} allocations"
    );
}
