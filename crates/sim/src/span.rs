//! Causal span identities.
//!
//! Every SQL statement opens a **root span** under a fresh trace id; every
//! FS→DP request opens a **child span** under the innermost open span on the
//! requesting thread; and the Disk Process opens a **handling span** under
//! the identity carried in the request header — so the tree survives the
//! wire hop and `assemble_spans` can reconstruct the causal path afterwards.
//!
//! Identities come from a shared [`SpanAllocator`] (plain atomics on no
//! clock), so allocation is always-on, deterministic per seed, and free of
//! virtual-time side effects. A guard borrows its label and whatever names
//! its track; the begin/end *records* (and the track's string) are built
//! inside the trace recorder's enabled branch, so with tracing off a span
//! costs an id, a push and pop of the thread-local stack and two copies of
//! the wait ledger — no allocation.
//! The active-span stack is thread-local, which is exact here: the message
//! bus is synchronous, so a request's DP-side handling runs nested inside
//! the requester's call stack.

use crate::clock::WaitProfile;
use crate::trace::TraceEventKind;
use crate::Sim;
use std::cell::RefCell;
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};

/// The span identity every FS-DP request carries in its header.
///
/// An all-zero header means "no span" (id 0 is never allocated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanHeader {
    /// Trace (statement) id.
    pub trace: u64,
    /// This span's id.
    pub span: u64,
    /// Parent span id (0 for a root).
    pub parent: u64,
}

/// Allocates trace and span ids for one simulation. Ids start at 1; 0 is
/// reserved for "none".
#[derive(Debug, Default)]
pub struct SpanAllocator {
    next_trace: AtomicU64,
    next_span: AtomicU64,
}

impl SpanAllocator {
    /// A fresh allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the next trace id.
    pub fn trace_id(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Allocate the next span id.
    pub fn span_id(&self) -> u64 {
        self.next_span.fetch_add(1, Ordering::Relaxed) + 1
    }
}

thread_local! {
    static ACTIVE: RefCell<Vec<SpanHeader>> = const { RefCell::new(Vec::new()) };
}

/// The innermost open span on this thread (all-zero when none is open).
/// The File System stamps this into outgoing request headers.
pub fn current_span() -> SpanHeader {
    ACTIVE.with(|s| s.borrow().last().copied().unwrap_or_default())
}

/// An open span. Dropping it pops the thread-local stack and emits the
/// [`TraceEventKind::SpanEnd`] event carrying the span's inclusive
/// per-category wait profile (clock ledger delta since the span opened).
pub struct SpanGuard<'a> {
    sim: &'a Sim,
    header: SpanHeader,
    track: &'a dyn Display,
    p0: WaitProfile,
}

impl<'a> SpanGuard<'a> {
    /// The identity to stamp into outgoing request headers.
    pub fn header(&self) -> SpanHeader {
        self.header
    }

    /// Push `header` onto this thread's stack and emit the begin event.
    pub(crate) fn open(
        sim: &'a Sim,
        header: SpanHeader,
        label: &str,
        track: &'a dyn Display,
    ) -> Self {
        ACTIVE.with(|s| s.borrow_mut().push(header));
        let p0 = sim.clock.profile();
        sim.trace
            .emit(sim.clock.now(), || TraceEventKind::SpanBegin {
                trace: header.trace,
                span: header.span,
                parent: header.parent,
                label: label.to_string(),
                track: track.to_string(),
            });
        SpanGuard {
            sim,
            header,
            track,
            p0,
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        ACTIVE.with(|s| {
            s.borrow_mut().pop();
        });
        let (clock, h) = (&self.sim.clock, self.header);
        let wait = clock.profile() - self.p0;
        self.sim
            .trace
            .emit(clock.now(), || TraceEventKind::SpanEnd {
                trace: h.trace,
                span: h.span,
                track: self.track.to_string(),
                wait,
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Wait;

    fn open<'a>(sim: &'a Sim, header: SpanHeader, label: &str) -> SpanGuard<'a> {
        SpanGuard::open(sim, header, label, &"t")
    }

    #[test]
    fn guards_stack_and_attribute_waits() {
        let sim = Sim::new();
        let (clock, rec) = (&sim.clock, &sim.trace);
        rec.enable_default();
        assert_eq!(current_span(), SpanHeader::default());
        {
            let root = open(
                &sim,
                SpanHeader {
                    trace: 1,
                    span: 1,
                    parent: 0,
                },
                "root",
            );
            assert_eq!(current_span(), root.header());
            clock.advance_in(Wait::Cpu, 5);
            {
                let child = open(
                    &sim,
                    SpanHeader {
                        trace: 1,
                        span: 2,
                        parent: 1,
                    },
                    "child",
                );
                assert_eq!(current_span().parent, 1);
                drop(child);
            }
            assert_eq!(current_span().span, 1);
            clock.advance_in(Wait::Msg, 7);
        }
        assert_eq!(current_span(), SpanHeader::default());
        let roots = crate::trace::assemble_spans(&rec.events());
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].children.len(), 1);
        assert_eq!(roots[0].wait.get(Wait::Cpu), 5);
        assert_eq!(roots[0].wait.get(Wait::Msg), 7);
        assert_eq!(roots[0].wait.total(), roots[0].elapsed());
        assert_eq!(roots[0].children[0].wait.total(), 0);
    }

    #[test]
    fn allocator_never_hands_out_zero() {
        let a = SpanAllocator::new();
        assert_eq!(a.trace_id(), 1);
        assert_eq!(a.span_id(), 1);
        assert_eq!(a.span_id(), 2);
    }
}
