#![warn(missing_docs)]
//! Workload generators for the paper's evaluation.
//!
//! * [`wisconsin`] — the classic Wisconsin benchmark relation and its
//!   selection/projection queries, which the paper cites for the VSBB
//!   speed-ups ("VSBB gives NonStop SQL an additional factor of three over
//!   RSBB on many of the Wisconsin benchmark queries").
//! * [`bank`] — a DebitCredit/ET1-style banking workload (branch, teller,
//!   account, history), standing in for the \[Benchmark\] workbook's OLTP
//!   load, with both a NonStop SQL implementation and an ENSCRIBE
//!   record-at-a-time implementation of the same transaction.
//! * [`load`] — an open-loop multi-terminal engine that interleaves many
//!   concurrent debit-credit transactions at FS-DP message granularity,
//!   with Poisson arrivals, Zipf-skewed hotspots, an admission-control
//!   gate, and automatic retry of doomed (deadlock-victim / lock-timeout)
//!   transactions.
//! * [`chaos`] — the fault mixes and seeds the chaos suite and `experiments
//!   chaos` share, and the bank and Wisconsin runs that check the
//!   fault-tolerance contract under them.
//!
//! The DebitCredit loop ([`Bank::batch`]), the chaos runs and the load
//! check ([`LoadOutcome::check`]) are written once, here; the tests, the
//! experiments and the examples call them.

/// Return a [`nsql_core::DbError`] carrying the message unless `cond`
/// holds: the checks of this crate end a run with an error, not a panic.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(nsql_core::DbError(format!($($msg)+)));
        }
    };
}

pub mod bank;
pub mod chaos;
pub mod load;
pub mod wisconsin;

pub use bank::{Bank, Batch, Debit, DEBIT_CREDIT_STEPS};
pub use load::{hot_bank, run_load, IntervalSample, LoadConfig, LoadOutcome};
pub use wisconsin::Wisconsin;
