#![warn(missing_docs)]
//! The simulated message-based operating system.
//!
//! Tandem's Guardian OS connects requesters and servers — possibly on
//! different CPUs or different network nodes — exclusively via messages;
//! there is no shared memory. This crate reproduces the property that
//! matters to the paper: **every interaction between the File System and a
//! Disk Process is a counted, costed message**, and remote messages cost
//! more than local ones. That is what makes "filter data at its source" a
//! winning strategy.
//!
//! Processes register on a [`Bus`] under Tandem-style `$NAME`s with a home
//! CPU. [`Bus::request`] performs a request/reply exchange: it looks up the
//! server, reports the message (count, bytes, locality) as one
//! [`nsql_sim::Event`], advances the virtual clock per the cost model, and
//! invokes the server's handler in-line (the simulation is deterministic and
//! synchronous). Handlers may themselves send messages (e.g. a data-volume
//! Disk Process sending audit to the audit-trail Disk Process).

use nsql_sim::measure::{EntityKind, MeasureRecord};
use nsql_sim::sync::{Mutex, RwLock};
use nsql_sim::trace::FaultAction;
use nsql_sim::{Event, Reply, Sim, SimRng, Wait};
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A node (one Tandem system of up to 16 CPUs) in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u8);

/// A processor within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CpuId {
    /// Owning node.
    pub node: NodeId,
    /// Processor number within the node (0..15).
    pub cpu: u8,
}

impl CpuId {
    /// Construct from node and cpu numbers.
    pub fn new(node: u8, cpu: u8) -> Self {
        CpuId {
            node: NodeId(node),
            cpu,
        }
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\\{}.{}", self.node.0, self.cpu)
    }
}

/// Message categories, used only for metric attribution: the accounting
/// classes of the telemetry.
pub use nsql_sim::trace::TraceMsgClass as MsgKind;

/// A reply from a server: an opaque payload plus its wire size.
pub struct Response {
    /// Downcast by the requester to the concrete reply type.
    pub payload: Box<dyn Any + Send>,
    /// Reply bytes, for message accounting.
    pub size: usize,
}

impl fmt::Debug for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Response")
            .field("size", &self.size)
            .finish()
    }
}

impl Response {
    /// Convenience constructor.
    pub fn new<T: Any + Send>(payload: T, size: usize) -> Self {
        Response {
            payload: Box::new(payload),
            size,
        }
    }

    /// Downcast the payload to the protocol type the requester expects.
    /// A mismatch is a wire-protocol bug; it surfaces as a typed
    /// [`BusError::BadReply`] so callers on the FS-DP hot path can fold it
    /// into their own error channel instead of tearing the process down.
    pub fn downcast<T: Any>(self) -> Result<T, BusError> {
        match self.payload.downcast::<T>() {
            Ok(v) => Ok(*v),
            Err(_) => Err(BusError::BadReply(format!(
                "reply payload is not a {}",
                std::any::type_name::<T>()
            ))),
        }
    }
}

/// A message server (Disk Process, audit-trail process, backup process, ...).
pub trait Server: Send + Sync {
    /// Handle one request. The payload is downcast to the protocol type the
    /// server expects. Handlers run on the server's CPU: they may account
    /// CPU/disk work and may send further messages through the bus.
    fn handle(&self, request: Box<dyn Any + Send>) -> Response;
}

/// Errors from message sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// No process was ever registered under that name.
    UnknownProcess(String),
    /// The process was registered once but has since been deregistered
    /// (stopped); distinct from a name that never existed.
    Deregistered(String),
    /// The process's CPU has been failed by fault injection.
    CpuDown(String),
    /// The request (or its reply) was lost and the virtual-time request
    /// timer expired before an answer arrived.
    Timeout(String),
    /// The fault plane failed the exchange with a transport error.
    Injected(String),
    /// The reply arrived but its payload was not the protocol type the
    /// requester expected — a wire-protocol bug on one side.
    BadReply(String),
}

impl BusError {
    /// Would a Tandem requester retry this send (possibly on the alternate
    /// path)? Timeouts, down CPUs and transient transport errors are
    /// retriable; addressing errors are not.
    pub fn is_retriable(&self) -> bool {
        matches!(
            self,
            BusError::CpuDown(_) | BusError::Timeout(_) | BusError::Injected(_)
        )
    }
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::UnknownProcess(name) => write!(f, "no process named {name}"),
            BusError::Deregistered(name) => write!(f, "process {name} has stopped"),
            BusError::CpuDown(name) => write!(f, "path down to {name} (CPU failed)"),
            BusError::Timeout(name) => write!(f, "request to {name} timed out"),
            BusError::Injected(name) => write!(f, "transport error on path to {name}"),
            BusError::BadReply(what) => write!(f, "protocol type mismatch: {what}"),
        }
    }
}

impl std::error::Error for BusError {}

struct Entry {
    cpu: CpuId,
    server: Arc<dyn Server>,
    /// The process's MEASURE counter record, fetched once at registration.
    rec: Arc<MeasureRecord>,
}

// ----------------------------------------------------------------------
// Fault plane
// ----------------------------------------------------------------------

/// Virtual-time request timeout charged when the fault plane loses a
/// message.
const FAULT_TIMEOUT_US: u64 = 10_000;

/// Configuration of the deterministic fault plane.
///
/// Only the FS-DP interface is eligible: requests and re-drives. TMF
/// coordination and audit traffic are left alone. The plane numbers the
/// eligible exchanges it is consulted about, from 0. An exchange whose
/// number is scripted in `at` gets that fault and draws nothing; every
/// other one is drawn against a [`SimRng`] seeded with `seed`, the
/// probabilities applying independently per exchange in the order drop,
/// duplicate, delay, error. Either way the same config over the same
/// workload produces the same fault schedule — byte-identical traces
/// included.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the fault schedule.
    pub seed: u64,
    /// Probability the request or its reply is lost (requester times out).
    pub drop: f64,
    /// Probability the request is delivered twice.
    pub duplicate: f64,
    /// Probability delivery is delayed by extra virtual time.
    pub delay: f64,
    /// Probability the exchange fails with a transport error.
    pub error: f64,
    /// Uniform range (inclusive lo, exclusive hi) of injected delay, µs.
    pub delay_us: (u64, u64),
    /// The script: the fault to inject at the n-th eligible exchange,
    /// decided before any dice are drawn. A server crash mid-workload is
    /// `(n, Fault::DownTarget)`; takeover must be arranged by the
    /// path-switch hook (see [`Bus::set_path_switch`]).
    pub at: Vec<(u64, Fault)>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 1,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            error: 0.0,
            delay_us: (200, 2_000),
            at: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// A config with the given seed and everything else default (no faults
    /// until probabilities are raised).
    pub fn with_seed(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..FaultConfig::default()
        }
    }
}

/// One decision of the fault plane for an eligible exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Request lost before the server saw it.
    DropRequest,
    /// Server executed the request but the reply was lost.
    DropReply,
    /// Request delivered twice (the server sees it twice).
    Duplicate,
    /// Delivery delayed by this much extra virtual time.
    Delay(u64),
    /// Transport error.
    Error,
    /// Fail the target's CPU (a one-shot crash; scripted only).
    DownTarget,
}

/// The seeded fault-injection plane: decides, per eligible exchange,
/// whether and how to perturb it.
struct FaultPlane {
    cfg: FaultConfig,
    rng: Mutex<SimRng>,
    /// Count of eligible exchanges seen (the sequence space of `at`).
    seq: AtomicU64,
}

impl FaultPlane {
    fn new(cfg: FaultConfig) -> Self {
        let rng = SimRng::seed_from(cfg.seed);
        FaultPlane {
            cfg,
            rng: Mutex::new(rng),
            seq: AtomicU64::new(0),
        }
    }

    fn decide(&self, kind: MsgKind) -> Option<Fault> {
        if !matches!(kind, MsgKind::FsDp | MsgKind::Redrive) {
            return None;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if let Some(&(_, fault)) = self.cfg.at.iter().find(|(n, _)| *n == seq) {
            return Some(fault);
        }
        let mut rng = self.rng.lock();
        let u = rng.unit();
        let mut edge = self.cfg.drop;
        if u < edge {
            return Some(if rng.chance(0.5) {
                Fault::DropRequest
            } else {
                Fault::DropReply
            });
        }
        edge += self.cfg.duplicate;
        if u < edge {
            return Some(Fault::Duplicate);
        }
        edge += self.cfg.delay;
        if u < edge {
            let (lo, hi) = self.cfg.delay_us;
            return Some(Fault::Delay(lo + rng.below((hi.saturating_sub(lo)).max(1))));
        }
        edge += self.cfg.error;
        if u < edge {
            return Some(Fault::Error);
        }
        None
    }
}

/// Cluster-level hook invoked when a requester finds the path to a process
/// down: perform a backup takeover and return true when a new primary has
/// been registered (the requester then retries the same `$NAME`).
pub type PathSwitchFn = dyn Fn(&str) -> bool + Send + Sync;

/// The message system: process registry plus accounting.
pub struct Bus {
    sim: Sim,
    processes: RwLock<HashMap<String, Entry>>,
    dead_cpus: RwLock<Vec<CpuId>>,
    /// Names that were registered once and later deregistered.
    stopped: RwLock<HashSet<String>>,
    /// One relaxed load when faults are off (the zero-overhead gate).
    faults_on: AtomicBool,
    fault: RwLock<Option<FaultPlane>>,
    path_switch: RwLock<Option<Arc<PathSwitchFn>>>,
    /// Per-CPU MEASURE records, cached so the hot path takes a read lock.
    cpu_recs: RwLock<HashMap<CpuId, Arc<MeasureRecord>>>,
}

impl Bus {
    /// A bus within the given simulation context.
    pub fn new(sim: Sim) -> Arc<Self> {
        Arc::new(Bus {
            sim,
            processes: RwLock::new(HashMap::new()),
            dead_cpus: RwLock::new(Vec::new()),
            stopped: RwLock::new(HashSet::new()),
            faults_on: AtomicBool::new(false),
            fault: RwLock::new(None),
            path_switch: RwLock::new(None),
            cpu_recs: RwLock::new(HashMap::new()),
        })
    }

    /// The MEASURE record of a requester CPU (created on first use).
    fn cpu_rec(&self, cpu: CpuId) -> Arc<MeasureRecord> {
        if let Some(rec) = self.cpu_recs.read().get(&cpu) {
            return Arc::clone(rec);
        }
        let rec = self.sim.measure.entity(EntityKind::Cpu, &cpu.to_string());
        self.cpu_recs.write().insert(cpu, Arc::clone(&rec));
        rec
    }

    /// The simulation context this bus accounts into.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// Register (or replace) a named process on a CPU.
    pub fn register(&self, name: impl Into<String>, cpu: CpuId, server: Arc<dyn Server>) {
        let name = name.into();
        self.stopped.write().remove(&name);
        let rec = self.sim.measure.entity(EntityKind::Process, &name);
        self.processes
            .write()
            .insert(name, Entry { cpu, server, rec });
    }

    /// Remove a process registration. Subsequent sends to the name return
    /// [`BusError::Deregistered`] (not [`BusError::UnknownProcess`]); a
    /// later [`Bus::register`] under the same name works normally.
    pub fn deregister(&self, name: &str) {
        if self.processes.write().remove(name).is_some() {
            self.stopped.write().insert(name.to_string());
        }
    }

    /// Arm the fault plane. FS-DP exchanges may be dropped, duplicated,
    /// delayed or errored from now on.
    pub fn enable_faults(&self, cfg: FaultConfig) {
        *self.fault.write() = Some(FaultPlane::new(cfg));
        self.faults_on.store(true, Ordering::Relaxed);
    }

    /// Disarm the fault plane (sends behave normally again).
    pub fn disable_faults(&self) {
        self.faults_on.store(false, Ordering::Relaxed);
        *self.fault.write() = None;
    }

    /// Is the fault plane currently armed?
    pub fn faults_enabled(&self) -> bool {
        self.faults_on.load(Ordering::Relaxed)
    }

    /// How many eligible exchanges the armed plane has been consulted
    /// about (0 when it is not armed): the length of the sequence space
    /// [`FaultConfig::at`] scripts.
    pub fn fault_exchanges(&self) -> u64 {
        let consulted = |p: &FaultPlane| p.seq.load(Ordering::Relaxed);
        self.fault.read().as_ref().map_or(0, consulted)
    }

    /// Install the cluster's backup-takeover hook (see [`PathSwitchFn`]).
    pub fn set_path_switch(&self, f: Arc<PathSwitchFn>) {
        *self.path_switch.write() = Some(f);
    }

    /// Ask the cluster to re-resolve the primary for `name` (backup
    /// takeover). Returns true when a new primary is available.
    pub fn try_path_switch(&self, name: &str) -> bool {
        let hook = self.path_switch.read().clone();
        match hook {
            Some(f) => f(name),
            None => false,
        }
    }

    /// The CPU a process currently runs on.
    pub fn cpu_of(&self, name: &str) -> Option<CpuId> {
        self.processes.read().get(name).map(|e| e.cpu)
    }

    /// Fault injection: mark a CPU as failed. Subsequent sends to processes
    /// homed there return [`BusError::CpuDown`] until a takeover re-registers
    /// them elsewhere.
    pub fn fail_cpu(&self, cpu: CpuId) {
        self.dead_cpus.write().push(cpu);
    }

    /// Heal a failed CPU (reload).
    pub fn revive_cpu(&self, cpu: CpuId) {
        self.dead_cpus.write().retain(|&c| c != cpu);
    }

    /// Is the CPU currently failed?
    pub fn cpu_is_down(&self, cpu: CpuId) -> bool {
        self.dead_cpus.read().contains(&cpu)
    }

    /// Perform one request/reply exchange.
    ///
    /// `req_size` is the request's wire size in bytes; the reply's size comes
    /// from the server. Both are accounted, along with the exchange itself
    /// and its locality, and the virtual clock advances per the cost model.
    pub fn request(
        &self,
        from: CpuId,
        to: &str,
        kind: MsgKind,
        req_size: usize,
        payload: Box<dyn Any + Send>,
    ) -> Result<Response, BusError> {
        self.exchange(from, to, kind, req_size, "")?
            .run(payload, None)
    }

    /// [`Bus::request`] with a payload *factory*, so the fault plane can
    /// deliver true duplicates (two handler executions of the same
    /// request), and a request name for the trace and the target's flight
    /// ring (the request's `DpRequest::name`). The label is borrowed all
    /// the way down: it becomes an owned string only in a trace record, so
    /// with tracing off an exchange allocates nothing for telemetry. The
    /// File System uses this for every FS-DP request; callers whose
    /// payloads cannot be re-materialized use [`Bus::request`] and never
    /// see duplicate delivery.
    pub fn request_replayable(
        &self,
        from: CpuId,
        to: &str,
        kind: MsgKind,
        req_size: usize,
        make_payload: &dyn Fn() -> Box<dyn Any + Send>,
        label: &'static str,
    ) -> Result<Response, BusError> {
        self.exchange(from, to, kind, req_size, label)?
            .run(make_payload(), Some(make_payload))
    }

    /// Resolve a request's two ends, or say why it cannot be sent.
    fn exchange<'a>(
        &'a self,
        from: CpuId,
        to: &'a str,
        kind: MsgKind,
        req_size: usize,
        label: &'static str,
    ) -> Result<Exchange<'a>, BusError> {
        let (cpu, server, rec) = {
            let procs = self.processes.read();
            match procs.get(to) {
                Some(entry) => (entry.cpu, Arc::clone(&entry.server), Arc::clone(&entry.rec)),
                None if self.stopped.read().contains(to) => {
                    return Err(BusError::Deregistered(to.to_string()))
                }
                None => return Err(BusError::UnknownProcess(to.to_string())),
            }
        };
        if self.cpu_is_down(cpu) {
            return Err(BusError::CpuDown(to.to_string()));
        }
        if self.cpu_is_down(from) {
            return Err(BusError::CpuDown(format!("requester cpu {from}")));
        }
        Ok(Exchange {
            bus: self,
            from: self.cpu_rec(from),
            to,
            cpu,
            server,
            rec,
            kind,
            req_size,
            label,
            remote: from.node != cpu.node,
        })
    }
}

/// One resolved request: who asks whom for what.
struct Exchange<'a> {
    bus: &'a Bus,
    /// The requesting CPU's record.
    from: Arc<MeasureRecord>,
    to: &'a str,
    /// The CPU `to` runs on.
    cpu: CpuId,
    server: Arc<dyn Server>,
    /// The record of `to`.
    rec: Arc<MeasureRecord>,
    kind: MsgKind,
    req_size: usize,
    label: &'static str,
    remote: bool,
}

impl Exchange<'_> {
    /// The request went on the wire and ended in `reply`: its one event,
    /// and the clock advance for the bytes that moved.
    fn went(&self, reply: Reply) {
        let sim = &self.bus.sim;
        let went = Event::Msg {
            from: &self.from,
            class: self.kind,
            label: self.label,
            req_bytes: self.req_size as u64,
            reply,
            remote: self.remote,
        };
        sim.emit(&self.rec, went);
        let bytes = match reply {
            Reply::Bytes(n) => self.req_size + n as usize,
            Reply::TimedOut | Reply::Failed => self.req_size,
        };
        let cost = sim.cost.msg_cost(self.remote, bytes);
        sim.clock.advance_in(Wait::Msg, cost);
    }

    /// Perform the exchange, as the fault plane (when armed) decides.
    fn run(
        &self,
        payload: Box<dyn Any + Send>,
        replay: Option<&dyn Fn() -> Box<dyn Any + Send>>,
    ) -> Result<Response, BusError> {
        let bus = self.bus;
        if bus.faults_on.load(Ordering::Relaxed) {
            let decide = |p: &FaultPlane| p.decide(self.kind);
            let fault = bus.fault.read().as_ref().and_then(decide);
            if let Some(fault) = fault {
                return self.perturb(fault, payload, replay);
            }
        }
        self.deliver(payload)
    }

    /// The unperturbed exchange, handled in-line.
    fn deliver(&self, payload: Box<dyn Any + Send>) -> Result<Response, BusError> {
        let response = self.server.handle(payload);
        self.went(Reply::Bytes(response.size as u64));
        Ok(response)
    }

    /// Execute one fault decision. Dropped messages still account for the
    /// request on the wire and charge the requester's virtual-time timeout;
    /// a dropped *reply* executes the server's side effects first (that is
    /// what the sync-ID duplicate-suppression cache exists for).
    fn perturb(
        &self,
        fault: Fault,
        payload: Box<dyn Any + Send>,
        replay: Option<&dyn Fn() -> Box<dyn Any + Send>>,
    ) -> Result<Response, BusError> {
        let (bus, sim, to) = (self.bus, &self.bus.sim, self.to);
        let emit_fault = |action| sim.emit(&self.rec, Event::Fault(action, self.label));
        match fault {
            Fault::DownTarget => {
                emit_fault(FaultAction::Crash);
                bus.fail_cpu(self.cpu);
                // Postmortem: dump the victim's flight ring with the counter
                // snapshot at the moment of the kill.
                sim.flight_dump(&self.rec, "cpu down (fault plane)");
                Err(BusError::CpuDown(to.to_string()))
            }
            Fault::DropRequest => {
                emit_fault(FaultAction::Drop);
                self.went(Reply::TimedOut);
                sim.clock.advance_in(Wait::Msg, FAULT_TIMEOUT_US);
                Err(BusError::Timeout(to.to_string()))
            }
            Fault::DropReply => {
                emit_fault(FaultAction::Drop);
                self.went(Reply::TimedOut);
                // The server executed the request; only the answer is lost.
                let _ = self.server.handle(payload);
                sim.clock.advance_in(Wait::Msg, FAULT_TIMEOUT_US);
                Err(BusError::Timeout(to.to_string()))
            }
            Fault::Duplicate => {
                emit_fault(FaultAction::Duplicate);
                // First delivery's reply is superseded by the second's; the
                // server must suppress the duplicate itself (sync IDs).
                // Non-replayable payloads degrade to a single delivery.
                if let Some(make) = replay {
                    let _ = self.deliver(make())?;
                }
                self.deliver(payload)
            }
            Fault::Delay(us) => {
                emit_fault(FaultAction::Delay);
                sim.clock.advance_in(Wait::Msg, us);
                self.deliver(payload)
            }
            Fault::Error => {
                emit_fault(FaultAction::Error);
                self.went(Reply::Failed);
                Err(BusError::Injected(to.to_string()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsql_sim::Ctr;

    /// Echo server that replies with the request integer + 1.
    struct Echo;
    impl Server for Echo {
        fn handle(&self, request: Box<dyn Any + Send>) -> Response {
            let n = *request.downcast::<u64>().unwrap();
            Response::new(n + 1, 8)
        }
    }

    fn setup() -> (Sim, Arc<Bus>) {
        let sim = Sim::new();
        let bus = Bus::new(sim.clone());
        (sim, bus)
    }

    #[test]
    fn request_reply_roundtrip() {
        let (_sim, bus) = setup();
        bus.register("$DATA1", CpuId::new(0, 1), Arc::new(Echo));
        let r = bus
            .request(
                CpuId::new(0, 0),
                "$DATA1",
                MsgKind::FsDp,
                16,
                Box::new(41u64),
            )
            .unwrap();
        assert_eq!(r.downcast::<u64>().unwrap(), 42);
    }

    #[test]
    fn accounting_local_vs_remote() {
        let (sim, bus) = setup();
        bus.register("$LOCAL", CpuId::new(0, 1), Arc::new(Echo));
        bus.register("$REMOTE", CpuId::new(1, 0), Arc::new(Echo));
        let from = CpuId::new(0, 0);

        let t0 = sim.now();
        bus.request(from, "$LOCAL", MsgKind::FsDp, 100, Box::new(1u64))
            .unwrap();
        let local_cost = sim.now() - t0;

        let t1 = sim.now();
        bus.request(from, "$REMOTE", MsgKind::FsDp, 100, Box::new(1u64))
            .unwrap();
        let remote_cost = sim.now() - t1;

        assert!(remote_cost > local_cost);
        let s = sim.metrics.snapshot();
        assert_eq!(s.msgs_total, 2);
        assert_eq!(s.msgs_remote, 1);
        assert_eq!(s.msgs_fs_dp, 2);
        assert_eq!(s.msg_bytes_total, 2 * (100 + 8));
    }

    #[test]
    fn redrive_counts_as_fs_dp_too() {
        let (sim, bus) = setup();
        bus.register("$D", CpuId::new(0, 0), Arc::new(Echo));
        bus.request(CpuId::new(0, 0), "$D", MsgKind::Redrive, 10, Box::new(0u64))
            .unwrap();
        let s = sim.metrics.snapshot();
        assert_eq!(s.msgs_fs_dp, 1);
        assert_eq!(s.msgs_redrive, 1);
    }

    #[test]
    fn unknown_process_errors() {
        let (_sim, bus) = setup();
        let err = bus
            .request(CpuId::new(0, 0), "$NOPE", MsgKind::Other, 0, Box::new(0u64))
            .unwrap_err();
        assert_eq!(err, BusError::UnknownProcess("$NOPE".into()));
    }

    #[test]
    fn cpu_failure_blocks_and_takeover_restores() {
        let (_sim, bus) = setup();
        let primary = CpuId::new(0, 1);
        let backup = CpuId::new(0, 2);
        bus.register("$DATA", primary, Arc::new(Echo));
        bus.fail_cpu(primary);
        let err = bus
            .request(CpuId::new(0, 0), "$DATA", MsgKind::FsDp, 0, Box::new(0u64))
            .unwrap_err();
        assert!(matches!(err, BusError::CpuDown(_)));
        // Takeover: re-register on the backup CPU.
        bus.register("$DATA", backup, Arc::new(Echo));
        assert!(bus
            .request(CpuId::new(0, 0), "$DATA", MsgKind::FsDp, 0, Box::new(5u64))
            .is_ok());
        assert_eq!(bus.cpu_of("$DATA"), Some(backup));
        // Revive works too.
        bus.revive_cpu(primary);
        assert!(!bus.cpu_is_down(primary));
    }

    #[test]
    fn nested_sends_from_handler() {
        // A server that forwards to another server (like a data DP sending
        // audit to the audit-trail DP while handling a write).
        struct Forwarder {
            bus: Arc<Bus>,
            inner: String,
            cpu: CpuId,
        }
        impl Server for Forwarder {
            fn handle(&self, request: Box<dyn Any + Send>) -> Response {
                let n = *request.downcast::<u64>().unwrap();
                let r = self
                    .bus
                    .request(self.cpu, &self.inner, MsgKind::Audit, 8, Box::new(n))
                    .unwrap();
                Response::new(r.downcast::<u64>().unwrap() + 100, 8)
            }
        }
        let (sim, bus) = setup();
        bus.register("$AUDIT", CpuId::new(0, 3), Arc::new(Echo));
        bus.register(
            "$DATA",
            CpuId::new(0, 1),
            Arc::new(Forwarder {
                bus: Arc::clone(&bus),
                inner: "$AUDIT".into(),
                cpu: CpuId::new(0, 1),
            }),
        );
        let r = bus
            .request(CpuId::new(0, 0), "$DATA", MsgKind::FsDp, 8, Box::new(1u64))
            .unwrap();
        assert_eq!(r.downcast::<u64>().unwrap(), 102);
        let s = sim.metrics.snapshot();
        assert_eq!(s.msgs_total, 2);
        assert_eq!(s.msgs_audit, 1);
    }

    /// Server that counts how many times it ran (duplicate-delivery probe).
    struct Counting(AtomicU64);
    impl Server for Counting {
        fn handle(&self, _request: Box<dyn Any + Send>) -> Response {
            self.0.fetch_add(1, Ordering::Relaxed);
            Response::new(0u64, 8)
        }
    }

    #[test]
    fn deregistered_is_distinct_from_unknown() {
        let (_sim, bus) = setup();
        let from = CpuId::new(0, 0);
        bus.register("$DATA", CpuId::new(0, 1), Arc::new(Echo));
        bus.deregister("$DATA");
        let err = bus
            .request(from, "$DATA", MsgKind::FsDp, 0, Box::new(0u64))
            .unwrap_err();
        assert_eq!(err, BusError::Deregistered("$DATA".into()));
        assert!(!err.is_retriable());
        // A name that never existed stays UnknownProcess.
        let err = bus
            .request(from, "$NOPE", MsgKind::FsDp, 0, Box::new(0u64))
            .unwrap_err();
        assert_eq!(err, BusError::UnknownProcess("$NOPE".into()));
        // Deregistering an unknown name must not poison the registry.
        bus.deregister("$NOPE");
        let err = bus
            .request(from, "$NOPE", MsgKind::FsDp, 0, Box::new(0u64))
            .unwrap_err();
        assert_eq!(err, BusError::UnknownProcess("$NOPE".into()));
        // Re-registering the stopped name clears the tombstone.
        bus.register("$DATA", CpuId::new(0, 2), Arc::new(Echo));
        assert!(bus
            .request(from, "$DATA", MsgKind::FsDp, 0, Box::new(1u64))
            .is_ok());
    }

    #[test]
    fn dropped_messages_time_out_with_virtual_time_charge() {
        let (sim, bus) = setup();
        bus.register("$DATA", CpuId::new(0, 1), Arc::new(Echo));
        let cfg = FaultConfig {
            drop: 1.0,
            ..FaultConfig::with_seed(42)
        };
        bus.enable_faults(cfg);
        let t0 = sim.now();
        let err = bus
            .request(CpuId::new(0, 0), "$DATA", MsgKind::FsDp, 16, Box::new(1u64))
            .unwrap_err();
        assert_eq!(err, BusError::Timeout("$DATA".into()));
        assert!(err.is_retriable());
        // The lost request went on the wire and the requester waited out
        // its timer: at least the timeout of virtual time passed.
        assert!(sim.now() - t0 >= FAULT_TIMEOUT_US);
        let s = sim.metrics.snapshot();
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.msgs_timed_out, 1);
        assert_eq!(s.msgs_fs_dp, 1);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let (_sim, bus) = setup();
            bus.register("$DATA", CpuId::new(0, 1), Arc::new(Echo));
            bus.enable_faults(FaultConfig {
                drop: 0.3,
                error: 0.2,
                ..FaultConfig::with_seed(seed)
            });
            (0..64)
                .map(|_| {
                    bus.request(CpuId::new(0, 0), "$DATA", MsgKind::FsDp, 8, Box::new(1u64))
                        .is_ok()
                })
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
    }

    #[test]
    fn duplicate_delivery_runs_replayable_handler_twice() {
        let (_sim, bus) = setup();
        let counter = Arc::new(Counting(AtomicU64::new(0)));
        bus.register("$DATA", CpuId::new(0, 1), Arc::clone(&counter) as _);
        bus.enable_faults(FaultConfig {
            duplicate: 1.0,
            ..FaultConfig::with_seed(3)
        });
        let make = || -> Box<dyn Any + Send> { Box::new(9u64) };
        bus.request_replayable(CpuId::new(0, 0), "$DATA", MsgKind::FsDp, 8, &make, "dup")
            .unwrap();
        assert_eq!(counter.0.load(Ordering::Relaxed), 2);
        // Non-replayable payloads degrade to a single delivery.
        bus.request(CpuId::new(0, 0), "$DATA", MsgKind::FsDp, 8, Box::new(9u64))
            .unwrap();
        assert_eq!(counter.0.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn fault_kind_filter_spares_other_traffic() {
        let (_sim, bus) = setup();
        bus.register("$DATA", CpuId::new(0, 1), Arc::new(Echo));
        bus.enable_faults(FaultConfig {
            error: 1.0,
            ..FaultConfig::with_seed(1)
        });
        // Eligible kinds: FS-DP and re-drive only.
        let err = bus
            .request(CpuId::new(0, 0), "$DATA", MsgKind::FsDp, 8, Box::new(1u64))
            .unwrap_err();
        assert_eq!(err, BusError::Injected("$DATA".into()));
        assert!(bus
            .request(CpuId::new(0, 0), "$DATA", MsgKind::Other, 8, Box::new(1u64))
            .is_ok());
        assert!(bus
            .request(CpuId::new(0, 0), "$DATA", MsgKind::Audit, 8, Box::new(1u64))
            .is_ok());
    }

    #[test]
    fn scripted_down_target_fails_the_target_cpu_once() {
        let (_sim, bus) = setup();
        let primary = CpuId::new(0, 1);
        bus.register("$DATA", primary, Arc::new(Echo));
        bus.enable_faults(FaultConfig {
            at: vec![(1, Fault::DownTarget)],
            ..FaultConfig::with_seed(1)
        });
        let from = CpuId::new(0, 0);
        assert!(bus
            .request(from, "$DATA", MsgKind::FsDp, 8, Box::new(1u64))
            .is_ok());
        let err = bus
            .request(from, "$DATA", MsgKind::FsDp, 8, Box::new(1u64))
            .unwrap_err();
        assert_eq!(err, BusError::CpuDown("$DATA".into()));
        assert!(bus.cpu_is_down(primary));
        // Takeover (re-register elsewhere) restores service.
        bus.register("$DATA", CpuId::new(0, 2), Arc::new(Echo));
        assert!(bus
            .request(from, "$DATA", MsgKind::FsDp, 8, Box::new(1u64))
            .is_ok());
    }

    #[test]
    fn the_script_decides_before_the_dice() {
        let (_sim, bus) = setup();
        bus.register("$DATA", CpuId::new(0, 1), Arc::new(Echo));
        assert_eq!(bus.fault_exchanges(), 0, "not armed, not consulted");
        // Every unscripted exchange is dropped; the scripted ones get
        // their own fault, whatever the seed would have drawn.
        bus.enable_faults(FaultConfig {
            drop: 1.0,
            at: vec![(1, Fault::Error), (2, Fault::Delay(5))],
            ..FaultConfig::with_seed(9)
        });
        let send = || bus.request(CpuId::new(0, 0), "$DATA", MsgKind::FsDp, 8, Box::new(1u64));
        assert_eq!(send().unwrap_err(), BusError::Timeout("$DATA".into()));
        assert_eq!(send().unwrap_err(), BusError::Injected("$DATA".into()));
        assert_eq!(send().unwrap().downcast::<u64>().unwrap(), 2);
        assert_eq!(bus.fault_exchanges(), 3);
        // Traffic the plane is not asked about is not counted.
        bus.request(CpuId::new(0, 0), "$DATA", MsgKind::Audit, 8, Box::new(1u64))
            .unwrap();
        assert_eq!(bus.fault_exchanges(), 3);
    }

    #[test]
    fn measure_records_account_both_sides_of_an_exchange() {
        let (sim, bus) = setup();
        bus.register("$DATA", CpuId::new(0, 1), Arc::new(Echo));
        bus.request(
            CpuId::new(0, 0),
            "$DATA",
            MsgKind::FsDp,
            100,
            Box::new(1u64),
        )
        .unwrap();
        bus.request(
            CpuId::new(0, 0),
            "$DATA",
            MsgKind::Redrive,
            10,
            Box::new(1u64),
        )
        .unwrap();
        let snap = sim.measure_snapshot();
        // Requester CPU: two sends, request bytes out, reply bytes back.
        assert_eq!(snap.get(EntityKind::Cpu, "\\0.0", Ctr::MsgsSent), 2);
        assert_eq!(snap.get(EntityKind::Cpu, "\\0.0", Ctr::BytesSent), 110);
        assert_eq!(snap.get(EntityKind::Cpu, "\\0.0", Ctr::BytesRecv), 16);
        // Target process: the mirror image, plus the re-drive tally.
        assert_eq!(snap.get(EntityKind::Process, "$DATA", Ctr::MsgsRecv), 2);
        assert_eq!(snap.get(EntityKind::Process, "$DATA", Ctr::MsgsRedrive), 1);
        assert_eq!(snap.get(EntityKind::Process, "$DATA", Ctr::BytesRecv), 110);
        assert_eq!(snap.get(EntityKind::Process, "$DATA", Ctr::BytesSent), 16);
    }

    #[test]
    fn down_target_dumps_the_victims_flight_ring() {
        let (sim, bus) = setup();
        bus.register("$DATA", CpuId::new(0, 1), Arc::new(Echo));
        bus.enable_faults(FaultConfig {
            at: vec![(2, Fault::DownTarget)],
            ..FaultConfig::with_seed(1)
        });
        let from = CpuId::new(0, 0);
        let payload = || -> Box<dyn Any + Send> { Box::new(1u64) };
        for _ in 0..2 {
            bus.request_replayable(from, "$DATA", MsgKind::FsDp, 32, &payload, "GET^NEXT")
                .unwrap();
        }
        let err = bus
            .request_replayable(from, "$DATA", MsgKind::FsDp, 32, &payload, "GET^NEXT")
            .unwrap_err();
        assert!(matches!(err, BusError::CpuDown(_)));
        let dumps = sim.flight.dumps();
        assert_eq!(dumps.len(), 1, "the kill dumps exactly one postmortem");
        let d = &dumps[0];
        assert_eq!(d.process, "$DATA");
        assert!(d.reason.contains("cpu down"), "{}", d.reason);
        // The ring holds the two delivered exchanges plus the fault entry.
        assert_eq!(d.entries.len(), 3);
        assert!(d.entries.iter().any(|e| e.tag == "fault"));
        assert!(d.entries.iter().filter(|e| e.tag == "msg").count() == 2);
        // And the counter snapshot rode along.
        assert_eq!(
            d.counters.get(EntityKind::Process, "$DATA", Ctr::MsgsRecv),
            2
        );
        assert_eq!(
            d.counters
                .get(EntityKind::Process, "$DATA", Ctr::FaultsInjected),
            1
        );
    }

    #[test]
    fn lost_requests_count_against_the_target_path() {
        let (sim, bus) = setup();
        bus.register("$DATA", CpuId::new(0, 1), Arc::new(Echo));
        bus.enable_faults(FaultConfig {
            drop: 1.0,
            ..FaultConfig::with_seed(42)
        });
        let _ = bus.request(CpuId::new(0, 0), "$DATA", MsgKind::FsDp, 16, Box::new(1u64));
        let snap = sim.measure_snapshot();
        assert_eq!(snap.get(EntityKind::Process, "$DATA", Ctr::MsgsLost), 1);
        assert_eq!(snap.get(EntityKind::Cpu, "\\0.0", Ctr::MsgsSent), 1);
        assert_eq!(snap.get(EntityKind::Process, "$DATA", Ctr::MsgsRecv), 0);
    }

    #[test]
    fn disabled_fault_plane_costs_nothing() {
        let exercise = |bus: &Bus, sim: &Sim| -> (u64, u64) {
            let t0 = sim.now();
            for _ in 0..32 {
                bus.request(CpuId::new(0, 0), "$DATA", MsgKind::FsDp, 64, Box::new(1u64))
                    .unwrap();
            }
            (sim.now() - t0, sim.metrics.snapshot().msgs_total)
        };
        // Plane never armed.
        let (sim_a, bus_a) = setup();
        bus_a.register("$DATA", CpuId::new(0, 1), Arc::new(Echo));
        let base = exercise(&bus_a, &sim_a);
        // Plane armed with an aggressive config, then disarmed.
        let (sim_b, bus_b) = setup();
        bus_b.register("$DATA", CpuId::new(0, 1), Arc::new(Echo));
        bus_b.enable_faults(FaultConfig {
            drop: 0.5,
            error: 0.5,
            ..FaultConfig::with_seed(11)
        });
        assert!(bus_b.faults_enabled());
        bus_b.disable_faults();
        assert!(!bus_b.faults_enabled());
        let after = exercise(&bus_b, &sim_b);
        assert_eq!(base, after, "disabled plane must not perturb cost");
        assert_eq!(sim_b.metrics.snapshot().faults_injected, 0);
    }
}
