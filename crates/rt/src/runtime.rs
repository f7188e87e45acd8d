//! The live FLU/DLU runtime: real threads, real bytes — now on a
//! multi-node topology.
//!
//! Architecture (one [`NodeRuntime`] per simulated worker node):
//!
//! * each node owns one **FLU scheduler** ([`NodeScheduler`]):
//!   invocations are submitted as tasks to its one shared queue,
//!   lazily-spawned worker threads pop the front, and the per-function
//!   replica gauges sum into the node's *active worker-slot window*
//!   instead of dedicated threads-per-function;
//! * a `put` is routed along the workflow's data edges, every
//!   inter-function transfer classified through the paper's three-way
//!   pipe choice (§7): direct socket under the 16 KiB threshold,
//!   node-local pipe when co-located, chunked streaming remote pipe
//!   across nodes. The pipe kind also decides *who* routes
//!   ([`PutPlan::is_handoff`]): hand-offs on the putting FLU thread,
//!   remote pipes on the node's one **merged DLU daemon thread**, which
//!   drains the node's bounded `put` channel;
//! * each node owns a **data sink** (a lock-striped
//!   [`ShardedSink`](crate::ShardedSink), one stripe lock per request
//!   hash) that caches inbound data per `(request, function, edge)` and
//!   triggers an FLU the instant its inputs are complete
//!   (data-availability triggering, no orchestrator);
//! * cross-node traffic flows over the in-process **fabric**: one
//!   bounded queue ([`channel::bounded`](crate::channel::bounded)) plus
//!   shipper thread per directed node pair, with optional
//!   bandwidth/latency shaping ([`LinkConfig`]) — or, in *wire mode*
//!   (`ClusterRuntimeBuilder::start_wire`), over TCP: this process is then
//!   one endpoint of a multi-process cluster (a worker node, or the
//!   client endpoint the coordinator embeds), the same queues are drained
//!   by the [`transport`](crate::transport) module's link agents, and
//!   everything else in this file runs unchanged on both sides of the
//!   socket;
//! * one runtime-wide **janitor thread** passively expires sink entries
//!   past their TTL (counting them as spilled to disk).
//!
//! Bounded DLU queues give real backpressure: a function that produces
//! faster than its DLU drains blocks in `put`, exactly Fig. 6a; a DLU —
//! or a hand-off `put` — that out-produces an inter-node link blocks on
//! the link's bounded queue the same way.
//!
//! When elastic scaling is enabled ([`AutoscaleConfig`]), a runtime-wide
//! **autoscaler thread** samples every function's DLU backlog each tick,
//! converts it into seconds of backpressure via
//! [`dataflower::pressure_secs`] (Eq. 1), and grows or shrinks the
//! function's replica gauge between the configured bounds — which
//! resizes the hosting node's executor parallelism
//! ([`NodeScheduler::set_active`]), the paper's pressure-aware
//! scale-out with a cool-down-guarded scale-in once the DLU drained.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dataflower::{choose_pipe, pressure_secs, CheckpointSchedule, PipeKind};
use dataflower_metrics::Timeline;
use dataflower_workflow::{ActiveGraph, EdgeId, Endpoint, FnId, Workflow, WorkflowSpec};

use crate::admission::{AdmissionGate, Rejected, TenantStats};
use crate::autoscale::{FnScale, ScaleDirection, ScaleEvent, ScalePolicy};
use crate::bytes::Bytes;
use crate::channel::{bounded, Receiver, Sender};
use crate::config::ClusterConfig;
use crate::context::{FluContext, PutTarget};
use crate::error::RtError;
use crate::fabric::{chunk_spans, spawn_link, LinkRetention, NetMsg, ReplaySummary};
use crate::fault::{FaultState, FrameFate};
use crate::node::{NodeReqState, NodeRuntime, NodeState, Placement, PlacementPolicy, SinkEntry};
use crate::orchestrator;
use crate::sched::NodeScheduler;
use crate::trace::{EventKind as TraceEventKind, FateKind, TraceEvent, TraceRecorder};

/// A request identifier issued by [`ClusterRuntime::invoke`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub(crate) u64);

impl ReqId {
    /// The raw request number — stable for the life of the request;
    /// what an external [`AdmissionGate`](crate::AdmissionGate) binds
    /// admission slots to.
    pub fn id(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// The runtime's counters, declared once. The table below generates
/// [`RtStats`] (plain `u64`s), its fixed-order `to_vec`/`from_vec` — the
/// payload of the worker `stats` control RPC, so the order is wire order:
/// append, never reorder — and the live `Counters` (`AtomicU64`s under
/// the same names) with its `snapshot`.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Counters exposed by [`ClusterRuntime::stats`].
        #[derive(Debug, Default, Clone, PartialEq, Eq)]
        pub struct RtStats {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl RtStats {
            /// Flattens the counters into a fixed-order vector — the
            /// payload of the worker `stats` control RPC. Inverse of
            /// [`RtStats::from_vec`].
            pub(crate) fn to_vec(&self) -> Vec<u64> {
                vec![$(self.$name,)*]
            }

            /// Rebuilds stats from [`RtStats::to_vec`]'s ordering;
            /// missing trailing entries (an older worker) read as zero.
            pub(crate) fn from_vec(v: &[u64]) -> RtStats {
                let mut it = v.iter().copied();
                RtStats {
                    $($name: it.next().unwrap_or(0),)*
                }
            }
        }

        #[derive(Default)]
        pub(crate) struct Counters {
            $(pub(crate) $name: AtomicU64,)*
        }

        impl Counters {
            /// A consistent-enough point-in-time copy of every counter
            /// (each field is loaded independently; totals may straddle
            /// concurrent increments, which is fine for stats).
            pub(crate) fn snapshot(&self) -> RtStats {
                RtStats {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

counters! {
    /// `put`/`put_to` calls routed by DLU daemons.
    puts,
    /// Data deliveries into function sinks.
    deliveries,
    /// Function invocations executed.
    invocations,
    /// Sink entries passively expired by the janitors.
    spills,
    /// Inter-function transfers that took the direct socket (< threshold).
    direct_socket_transfers,
    /// Inter-function transfers that took the node-local pipe.
    local_pipe_transfers,
    /// Inter-function transfers that took the streaming remote pipe.
    remote_pipe_transfers,
    /// Chunks shipped by the remote pipe connector.
    remote_chunks,
    /// Checkpoint marks recorded along remote pipe streams (§6.2).
    remote_checkpoints,
    /// Payload bytes that crossed nodes (direct-socket and remote-pipe).
    remote_bytes,
    /// Executor-pool scale-outs triggered by pressure (Eq. 1).
    scale_out_events,
    /// Executor-pool scale-ins after the DLU drained.
    scale_in_events,
    /// Checkpoint-mark acknowledgements received by senders (§6.2): each
    /// trims the retention window of one transfer to its mark.
    acked_marks,
    /// Node crashes (fault-plan kills plus explicit
    /// [`ClusterRuntime::crash_node`] calls that found the node up).
    node_crashes,
    /// Node restarts after a crash.
    node_restarts,
    /// Fabric frames lost at a crashed node's ingress.
    frames_lost_to_crashes,
    /// Fabric frames dropped in flight by fault injection.
    chaos_dropped_frames,
    /// Fabric frames delivered twice by fault injection.
    chaos_duplicated_frames,
    /// Shipper wakeups delayed by fault injection.
    chaos_delayed_frames,
    /// Incomplete transfers replayed when a crashed node restarted.
    recovered_transfers,
    /// Frames re-delivered by recovery (restart replay plus
    /// retransmissions).
    replayed_frames,
    /// Payload bytes re-delivered by recovery.
    replayed_bytes,
    /// Bytes *not* re-sent during restart replay because they sat below
    /// an acknowledged checkpoint mark — the §6.2 savings of resuming
    /// from the mark instead of byte 0.
    resumed_from_mark_bytes,
    /// Transfers swept by the retransmit path (no ack within the
    /// timeout, e.g. after an in-flight frame drop).
    retransmitted_transfers,
    /// Keep-alive heartbeats recorded by the orchestrator control plane
    /// (node-side stamps in-process, coordinator pings over TCP).
    heartbeats,
    /// Liveness checks that found a node's heartbeat stale (or a ping
    /// unanswered) — `heartbeat_miss_threshold` consecutive ones declare
    /// the node lost.
    heartbeat_misses,
    /// Nodes the controller declared permanently lost.
    node_losses,
    /// Functions moved off a lost node by the controller.
    relocated_functions,
    /// Voluntary [`ClusterRuntime::migrate_function`] moves completed.
    live_migrations,
    /// Data frames that arrived at a node no longer hosting their target
    /// function and were forwarded to its current host (mid-relocation
    /// healing).
    forwarded_frames,
    /// Requests admitted through the ingress gate
    /// ([`ClusterRuntime::try_invoke`]).
    admitted_requests,
    /// Arrivals rejected at the ingress gate.
    rejected_requests,
}

impl RtStats {
    /// Total inter-function transfers, across all three pipe kinds.
    pub fn inter_function_transfers(&self) -> u64 {
        self.direct_socket_transfers + self.local_pipe_transfers + self.remote_pipe_transfers
    }

    /// Adds `other`'s counters field-wise — how the coordinator
    /// aggregates per-worker stats into one cluster view, and how the
    /// load harness folds its per-benchmark clusters into one report.
    pub fn merge(&mut self, other: &RtStats) {
        let mine = self.to_vec();
        let theirs = other.to_vec();
        let summed: Vec<u64> = mine
            .iter()
            .zip(theirs.iter())
            .map(|(a, b)| a.saturating_add(*b))
            .collect();
        *self = RtStats::from_vec(&summed);
    }
}

/// What [`ClusterRuntime::crash_node`] found when it took the node down
/// — the damage inventory the subsequent restart will repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashReport {
    /// The crashed node.
    pub node: usize,
    /// False when the node was already down (the call was a no-op).
    pub was_up: bool,
    /// Remote-pipe transfers that were mid-reassembly on the node; each
    /// was rolled back to its last checkpoint mark.
    pub inflight_transfers: usize,
    /// Bytes of reassembly progress that survived the crash because they
    /// sat below a checkpoint mark (summed over the in-flight
    /// transfers). Zero means every in-flight stream restarts from
    /// byte 0.
    pub durable_bytes: u64,
}

pub(crate) struct DluMsg {
    pub req: ReqId,
    pub src_fn: String,
    pub data_name: String,
    pub target: PutTarget,
    pub payload: Bytes,
}

/// Client-side state of one request: what `wait` observes. Per-node sink
/// state (missing-input counts, parked payloads, reassembly buffers)
/// lives in each [`NodeState`] instead.
struct ClientReqState {
    outputs_missing: usize,
    outputs: Vec<(String, Bytes)>,
    errors: Vec<String>,
    /// Client-output edges already collected. A restarted worker's log
    /// replay re-fires its functions and re-ships their outputs, so
    /// arrival is deduplicated per edge for byte-identical results.
    delivered: HashSet<EdgeId>,
}

/// Wire-mode state of an [`Inner`]: present only when the runtime was
/// started by [`ClusterRuntimeBuilder::start_wire`], i.e. this OS process
/// is one endpoint of a TCP cluster.
///
/// The endpoint space is every worker node plus the **client** endpoint
/// (always the last index): the coordinator process, which ships request
/// inputs in and collects the outputs shipped back out. `Inner::nodes`,
/// `link_depth` and `retention` cover the whole endpoint space in this
/// mode, so the client is addressed like any node.
pub(crate) struct WireState {
    /// The endpoint this process embodies: a node index in a worker,
    /// `client` in the coordinator.
    pub(crate) local: usize,
    /// The client endpoint's index (the last one).
    pub(crate) client: usize,
    /// Requests the client already collected or abandoned: late frames
    /// for them must not re-seed sink state (they are orphans, acked away
    /// so the sender's retention cannot leak).
    pub(crate) purged: Mutex<PurgedSet>,
}

/// The set of purged request ids. Ids are minted densely by the client's
/// one counter and purged roughly in order, so the set is a low watermark
/// (every id below it is purged) plus the sparse ids purged ahead of it —
/// resident entries are bounded by the out-of-order window, not by the
/// number of requests ever served.
#[derive(Default)]
pub(crate) struct PurgedSet {
    below: u64,
    ahead: HashSet<u64>,
}

impl PurgedSet {
    pub(crate) fn insert(&mut self, req: u64) {
        if req < self.below {
            return;
        }
        self.ahead.insert(req);
        while self.ahead.remove(&self.below) {
            self.below += 1;
        }
    }

    pub(crate) fn contains(&self, req: u64) -> bool {
        req < self.below || self.ahead.contains(&req)
    }
}

pub(crate) struct Inner {
    pub(crate) workflow: Arc<Workflow>,
    pub(crate) cfg: ClusterConfig,
    /// The live routing authority: every route/deliver/seed decision
    /// reads the placement through this lock, so the orchestrator can
    /// relocate a function at runtime and the data plane follows.
    pub(crate) placement: RwLock<Placement>,
    /// Relocation strategy consulted when a node is lost (`None` falls
    /// back to the least-pressured survivor).
    pub(crate) policy: Option<Arc<dyn PlacementPolicy>>,
    /// Weak self-reference so invocation tasks queued on the node
    /// schedulers can reach the runtime without keeping it alive after
    /// the owning [`ClusterRuntime`] drops.
    pub(crate) me: Weak<Inner>,
    /// Per-node FLU executors. Worker threads spawn
    /// lazily up to each scheduler's active-slot window, which the
    /// autoscaler resizes instead of spawning/retiring threads.
    pub(crate) scheds: Vec<NodeScheduler>,
    /// Registered function bodies, shared by every invocation task.
    pub(crate) bodies: HashMap<String, Body>,
    /// Per-node merged DLU ingress: one daemon per node routes every
    /// hosted function's puts. `signal_shutdown` clears the senders so
    /// each daemon observes disconnect once in-flight invocations drop
    /// their clones. In wire mode only the local node's entry is `Some`
    /// (none at the client endpoint).
    pub(crate) dlu_tx: RwLock<Vec<Option<Sender<DluMsg>>>>,
    reqs: Mutex<HashMap<u64, ClientReqState>>,
    done: Condvar,
    /// One state per endpoint: every worker node, plus — in wire mode —
    /// the trailing client endpoint, whose sink only ever holds the
    /// reassembly buffers of chunked client outputs.
    pub(crate) nodes: Vec<Arc<NodeState>>,
    pub(crate) counters: Counters,
    /// Ingress admission gate (caps from `cfg.admission`); only
    /// [`ClusterRuntime::try_invoke`] consults it, so ungated traffic
    /// pays nothing beyond a release-side map miss.
    pub(crate) gate: AdmissionGate,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Pairs with `shutdown`: janitors and autoscalers sleep on this
    /// condvar so teardown does not have to wait out their polling tick.
    /// The mutex also serializes scale events against `signal_shutdown`,
    /// so the shutdown message count always matches the live executor
    /// count.
    pub(crate) shutdown_mx: Mutex<()>,
    pub(crate) shutdown_cv: Condvar,
    pub(crate) next_transfer: AtomicU64,
    /// Live per-function pool gauges (replicas, DLU backlog, T_FLU).
    pub(crate) scale: HashMap<String, Arc<FnScale>>,
    /// Initial pool size per function (the t=0 point of the timeline).
    initial_replicas: HashMap<String, usize>,
    /// Every scale event since start, in time order.
    scale_events: Mutex<Vec<ScaleEvent>>,
    /// When the runtime started (scale events and heartbeat stamps are
    /// relative to this).
    pub(crate) started: Instant,
    /// Queue-depth gauge of each directed fabric link, indexed
    /// `src * nodes.len() + dst` (self-links stay zero).
    pub(crate) link_depth: Vec<Arc<AtomicUsize>>,
    /// Fault-injection state (`None` for a no-op plan: the per-frame
    /// cost of disabled fault injection is one `Option` check).
    faults: Option<FaultState>,
    /// Sender-side §6.2 retention of un-acked frames, one per directed
    /// link, indexed like `link_depth`. Empty when recovery is disabled.
    pub(crate) retention: Vec<Mutex<LinkRetention>>,
    /// Wire state of a TCP-cluster endpoint; `None` for the in-process
    /// fabric.
    pub(crate) wire: Option<WireState>,
    /// Outbound link rows, one per source endpoint (wire mode: every
    /// entry is this process's one outbound row, whose queues the
    /// transport's link agents drain onto TCP). Routing looks its row up
    /// per put via the *live* placement, which is what makes DLU daemons
    /// location-transparent: after a migration the same daemon ships from
    /// the function's new node. Cleared by `signal_shutdown` so the link
    /// shippers observe sender disconnect and exit.
    pub(crate) links: RwLock<Vec<LinkRow>>,
    /// Trace recorder ([`ClusterRuntimeBuilder::record_trace`]); `None`
    /// when tracing is off, so every disabled hook costs one `Option`
    /// check.
    pub(crate) recorder: Option<Arc<TraceRecorder>>,
}

impl Inner {
    /// The node currently hosting function `name`, per the live
    /// placement.
    pub(crate) fn node_of(&self, name: &str) -> usize {
        self.placement
            .read()
            .expect("placement lock poisoned")
            .node_of(name)
    }

    /// A point-in-time copy of the live placement.
    pub(crate) fn placement_snapshot(&self) -> Placement {
        self.placement
            .read()
            .expect("placement lock poisoned")
            .clone()
    }

    /// Raises the shutdown flag under `shutdown_mx` and wakes every
    /// sleeper of [`Inner::wait_shutdown`] (and the autoscaler). Returns
    /// the lock, so a caller can finish teardown steps before any scale
    /// event runs again.
    pub(crate) fn raise_shutdown(&self) -> MutexGuard<'_, ()> {
        let guard = self.shutdown_mx.lock().expect("shutdown lock poisoned");
        self.shutdown.store(true, Ordering::SeqCst);
        self.shutdown_cv.notify_all();
        guard
    }

    /// The background loops' interruptible tick: sleeps for `tick` or
    /// until shutdown is raised, whichever is first, and returns whether
    /// it is. The flag is read under the lock every raise holds, so a
    /// raise can never slip in between the check and the wait.
    pub(crate) fn wait_shutdown(&self, tick: Duration) -> bool {
        let guard = self.shutdown_mx.lock().expect("shutdown lock poisoned");
        let _ = self
            .shutdown_cv
            .wait_timeout_while(guard, tick, |_| !self.shutdown.load(Ordering::Relaxed))
            .expect("shutdown lock poisoned");
        self.shutdown.load(Ordering::Relaxed)
    }

    /// The outbound link row of `src` (`None` once shutdown cleared the
    /// rows — callers drop the frame, consistent with teardown).
    pub(crate) fn link_row(&self, src: usize) -> Option<LinkRow> {
        self.links
            .read()
            .expect("links lock poisoned")
            .get(src)
            .cloned()
    }

    /// Records one trace event stamped with microseconds since the
    /// runtime started. The closure only runs when tracing is enabled.
    pub(crate) fn trace_with(&self, f: impl FnOnce() -> TraceEventKind) {
        if let Some(rec) = &self.recorder {
            rec.record(self.started.elapsed().as_micros() as u64, f());
        }
    }

    /// The merged-DLU sender of `node` (`None` once shutdown cleared the
    /// senders, or for a remote node in wire mode).
    pub(crate) fn dlu_sender(&self, node: usize) -> Option<Sender<DluMsg>> {
        self.dlu_tx
            .read()
            .expect("dlu senders lock poisoned")
            .get(node)
            .and_then(|s| s.clone())
    }
}

/// One node's outbound fabric link senders, indexed by destination
/// (`None` on the self-link). Shared so per-put row lookups are one Arc
/// clone.
pub(crate) type LinkRow = Arc<Vec<Option<Sender<NetMsg>>>>;

/// The queue-depth gauge of the directed link `src → dst`.
pub(crate) fn depth_of(inner: &Inner, src: usize, dst: usize) -> &AtomicUsize {
    &inner.link_depth[src * inner.nodes.len() + dst]
}

type Body = Arc<dyn Fn(&mut FluContext) + Send + Sync>;

/// Builder for a [`ClusterRuntime`]: register one body per workflow
/// function, pick a [`Placement`], then [`ClusterRuntimeBuilder::start`].
///
/// # Examples
///
/// A two-stage pipeline spread over two nodes; the 64 KiB payload rides
/// the streaming remote pipe between them:
///
/// ```
/// use std::sync::Arc;
/// use dataflower_rt::{Bytes, ClusterRuntimeBuilder, Placement};
/// use dataflower_workflow::{SizeModel, WorkModel, WorkflowBuilder};
///
/// let mut b = WorkflowBuilder::new("pipeline");
/// let upper = b.function("upper", WorkModel::fixed(0.001));
/// let rev = b.function("rev", WorkModel::fixed(0.001));
/// b.client_input(upper, "text", SizeModel::Fixed(64.0));
/// b.edge(upper, rev, "upped", SizeModel::Fixed(64.0));
/// b.client_output(rev, "result", SizeModel::Fixed(64.0));
/// let wf = Arc::new(b.build()?);
///
/// let rt = ClusterRuntimeBuilder::new(wf)
///     .placement(Placement::with_nodes(2).assign("upper", 0).assign("rev", 1))
///     .register("upper", |ctx| {
///         let s = String::from_utf8_lossy(ctx.input("text").unwrap()).to_uppercase();
///         ctx.put("upped", Bytes::from(s));
///     })
///     .register("rev", |ctx| {
///         let s: String = String::from_utf8_lossy(ctx.input("upped").unwrap())
///             .chars().rev().collect();
///         ctx.put("result", Bytes::from(s));
///     })
///     .start()
///     .unwrap();
///
/// let payload = "dataflower ".repeat(6000); // ~64 KiB: over the 16 KiB threshold
/// let req = rt.invoke(vec![("text".into(), Bytes::from(payload))]);
/// let outputs = rt.wait(req, std::time::Duration::from_secs(5)).unwrap();
/// assert!(outputs[0].1.starts_with(b" REWOLFATAD"));
/// assert!(rt.stats().remote_pipe_transfers > 0);
/// rt.shutdown();
/// # Ok::<(), dataflower_workflow::WorkflowError>(())
/// ```
pub struct ClusterRuntimeBuilder {
    workflow: Arc<Workflow>,
    cfg: ClusterConfig,
    placement: Placement,
    policy: Option<Arc<dyn PlacementPolicy>>,
    bodies: HashMap<String, Body>,
    replicas: HashMap<String, usize>,
    record_trace: bool,
}

/// What [`ClusterRuntimeBuilder::start_wire`] hands the transport: the
/// local runtime plus one outbound frame receiver per directed link this
/// endpoint sends on (`None` at its own index).
pub(crate) type WireStart = (ClusterRuntime, Vec<Option<Receiver<NetMsg>>>);

impl ClusterRuntimeBuilder {
    /// Starts building a runtime for `workflow` (single-node placement
    /// until [`ClusterRuntimeBuilder::placement`] replaces it).
    pub fn new(workflow: Arc<Workflow>) -> Self {
        ClusterRuntimeBuilder {
            workflow,
            cfg: ClusterConfig::default(),
            placement: Placement::with_nodes(1),
            policy: None,
            bodies: HashMap::new(),
            replicas: HashMap::new(),
            record_trace: false,
        }
    }

    /// Replaces the configuration.
    pub fn config(mut self, cfg: ClusterConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Replaces the placement map (the low-level routing-table setter;
    /// prefer [`ClusterRuntimeBuilder::policy`] for strategy-driven
    /// placement that also covers relocation).
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Places the workflow over `nodes` nodes with a
    /// [`PlacementPolicy`]: the policy's `initial` computes the starting
    /// placement, and its `relocate` is consulted whenever the
    /// orchestrator must move a lost node's functions.
    pub fn policy(mut self, policy: impl PlacementPolicy + 'static, nodes: usize) -> Self {
        self.placement = policy.initial(&self.workflow, nodes);
        self.policy = Some(Arc::new(policy));
        self
    }

    /// Registers the body of function `name`.
    pub fn register<F>(mut self, name: impl Into<String>, body: F) -> Self
    where
        F: Fn(&mut FluContext) + Send + Sync + 'static,
    {
        self.bodies.insert(name.into(), Arc::new(body));
        self
    }

    /// Overrides the executor-thread count for function `name`
    /// (scale-out within its node).
    pub fn replicas(mut self, name: impl Into<String>, n: usize) -> Self {
        self.replicas.insert(name.into(), n.max(1));
        self
    }

    /// Records a deterministic trace of the run — every invocation, §7
    /// pipe choice, streaming chunk/mark count, plus advisory scale /
    /// fault / crash / relocation events (see [`crate::trace`] for the
    /// format). Collect it with [`ClusterRuntime::trace_events`] or
    /// [`ClusterRuntime::trace_bytes`]. In-process fabric only: a
    /// worker-process ([`TcpCluster`]) node records nothing.
    ///
    /// [`TcpCluster`]: crate::TcpCluster
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Validates registrations and the placement, then spawns every node
    /// and fabric thread.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::UnregisteredFunction`] if a workflow function
    /// has no body, [`RtError::UnknownFunction`] if a body or replica
    /// override names a function not in the workflow, or
    /// [`RtError::InvalidPlacement`] if the placement names an unknown
    /// function or an out-of-range node.
    /// Returns [`RtError::InvalidConfig`], naming the field, if the
    /// configuration's `chunk_bytes` or `checkpoint_interval_bytes` is
    /// zero, the autoscale knobs are inconsistent (`min_replicas` of
    /// zero, `max_replicas` below `min_replicas`, non-positive `alpha`
    /// or drain bandwidth, a zero `sample_interval` while enabled), the
    /// fault plan is invalid (rates outside `[0, 1]`, a kill naming a
    /// node outside the placement's topology), or `heartbeat_interval`
    /// is zero with the orchestrator on.
    pub fn start(self) -> Result<ClusterRuntime, RtError> {
        self.start_as(None).map(|(rt, _)| rt)
    }

    /// Wire-mode variant of [`ClusterRuntimeBuilder::start`]: this OS
    /// process becomes the one endpoint `spec.local` of a TCP cluster — a
    /// worker node, or the trailing client endpoint (the coordinator,
    /// which registers no bodies and runs no node threads). The full
    /// cluster bookkeeping is built over the **endpoint** space (nodes
    /// plus the client), but executor / DLU / janitor / autoscaler
    /// threads are spawned only for the local node, and instead of
    /// in-process shippers the outbound frame queues' receivers are
    /// returned so the TCP transport can attach one link agent per
    /// directed link. Transfer ids are namespaced by `spec.epoch` so a
    /// restarted worker can never collide with ids from its previous
    /// incarnation.
    pub(crate) fn start_wire(self, spec: WireSpec) -> Result<WireStart, RtError> {
        let node_count = self.placement.node_count();
        assert!(
            spec.local <= node_count,
            "endpoint index {} outside the {node_count}-node topology",
            spec.local
        );
        self.start_as(Some(spec))
    }

    /// The one place a runtime is put together, for the in-process
    /// cluster (`wire == None`), a worker process and the client endpoint
    /// alike.
    fn start_as(self, wire: Option<WireSpec>) -> Result<WireStart, RtError> {
        let node_count = self.placement.node_count();
        // The client endpoint (the index past the last node) hosts no
        // functions, so it needs no bodies and runs no node threads.
        let is_client = wire.is_some_and(|w| w.local == node_count);
        self.validate(!is_client)?;
        let endpoints = node_count + usize::from(wire.is_some());
        let (scale, initial_replicas) = self.pool_gauges();
        let scheds: Vec<NodeScheduler> = (0..node_count)
            .map(|n| self.node_scheduler(n, &initial_replicas))
            .collect();
        // A DLU ingress per node this process runs: every node
        // in-process, only the local one in a worker (frames for remote
        // functions never queue here, they ride the wire).
        let mut dlu_tx: Vec<Option<Sender<DluMsg>>> = Vec::with_capacity(node_count);
        let mut dlu_rx: Vec<Option<Receiver<DluMsg>>> = Vec::with_capacity(node_count);
        for n in 0..node_count {
            let (tx, rx) = if wire.map_or(true, |w| w.local == n) {
                let (tx, rx) = bounded::<DluMsg>(self.cfg.dlu_queue_capacity);
                (Some(tx), Some(rx))
            } else {
                (None, None)
            };
            dlu_tx.push(tx);
            dlu_rx.push(rx);
        }
        let faults = if self.cfg.faults.is_noop() {
            None
        } else {
            Some(FaultState::new(self.cfg.faults.clone()))
        };
        let retention: Vec<Mutex<LinkRetention>> = if self.cfg.recovery.is_some() {
            (0..endpoints * endpoints)
                .map(|_| {
                    let mut r = LinkRetention::default();
                    // Orchestrator mode: keep acked transfers replayable
                    // until their request is collected, so a relocation
                    // can re-send them toward the function's new node.
                    r.set_retain_acked(self.cfg.orchestrator);
                    Mutex::new(r)
                })
                .collect()
        } else {
            Vec::new()
        };
        let inner = Arc::new_cyclic(|me| Inner {
            workflow: Arc::clone(&self.workflow),
            cfg: self.cfg.clone(),
            placement: RwLock::new(self.placement.clone()),
            policy: self.policy.clone(),
            me: me.clone(),
            scheds,
            bodies: self.bodies.clone(),
            dlu_tx: RwLock::new(dlu_tx),
            reqs: Mutex::new(HashMap::new()),
            done: Condvar::new(),
            nodes: (0..endpoints).map(|_| Arc::new(NodeState::new())).collect(),
            counters: Counters::default(),
            gate: AdmissionGate::new(self.cfg.admission),
            shutdown: Arc::new(AtomicBool::new(false)),
            shutdown_mx: Mutex::new(()),
            shutdown_cv: Condvar::new(),
            next_transfer: AtomicU64::new(wire.map_or(0, |w| transfer_base(w.local, w.epoch))),
            scale,
            initial_replicas,
            scale_events: Mutex::new(Vec::new()),
            started: Instant::now(),
            link_depth: (0..endpoints * endpoints)
                .map(|_| Arc::new(AtomicUsize::new(0)))
                .collect(),
            faults,
            retention,
            wire: wire.map(|w| WireState {
                local: w.local,
                client: node_count,
                purged: Mutex::new(PurgedSet::default()),
            }),
            links: RwLock::new(Vec::new()),
            // In-process fabric only: a wire endpoint records nothing.
            recorder: (self.record_trace && wire.is_none()).then(|| Arc::new(TraceRecorder::new())),
        });

        // Trace preamble: everything `trace::replay` needs to rebuild
        // this run in the simulator — topology, pipe thresholds, the
        // workflow spec and the initial placement.
        if inner.recorder.is_some() {
            let json = WorkflowSpec::from_workflow(&self.workflow).to_json();
            inner.trace_with(|| TraceEventKind::Meta {
                nodes: node_count as u32,
                direct_threshold_bytes: self.cfg.direct_threshold_bytes as u64,
                chunk_bytes: self.cfg.chunk_bytes as u64,
                checkpoint_interval_bytes: self.cfg.checkpoint_interval_bytes as u64,
                workflow_json: json,
            });
            for f in self.workflow.function_ids() {
                let node = self.placement.node_of(&self.workflow.function(f).name);
                inner.trace_with(|| TraceEventKind::Place {
                    func: f.index() as u32,
                    node: node as u32,
                });
            }
        }

        // Fabric: one bounded queue per directed link. In-process each
        // gets a shipper thread handing frames to the destination node's
        // ingress; in wire mode this endpoint's one outbound row serves
        // every source index and the receivers go to the transport's
        // link agents. The rows live in `Inner.links` (the live routing
        // table); `signal_shutdown` clears them, which is what cascades
        // into shipper/agent exit at teardown.
        let mut fabric_threads = Vec::new();
        let mut out_rx: Vec<Option<Receiver<NetMsg>>> = Vec::new();
        let mut rows: Vec<LinkRow> = Vec::with_capacity(endpoints);
        match wire {
            None => {
                for src in 0..node_count {
                    let mut row = Vec::with_capacity(node_count);
                    for dst in 0..node_count {
                        if src == dst {
                            row.push(None);
                            continue;
                        }
                        let (tx, rx) = bounded::<NetMsg>(self.cfg.link.queue_capacity);
                        let ingress_inner = Arc::clone(&inner);
                        fabric_threads.push(spawn_link(
                            src,
                            dst,
                            self.cfg.link.clone(),
                            rx,
                            Arc::new(move |msg| chaos_ingress(&ingress_inner, src, dst, msg)),
                            Arc::clone(&inner.shutdown),
                            Arc::clone(&inner.link_depth[src * node_count + dst]),
                        ));
                        row.push(Some(tx));
                    }
                    rows.push(Arc::new(row));
                }
            }
            Some(w) => {
                let mut row = Vec::with_capacity(endpoints);
                for dst in 0..endpoints {
                    let (tx, rx) = if dst == w.local {
                        (None, None)
                    } else {
                        let (tx, rx) = bounded::<NetMsg>(self.cfg.link.queue_capacity);
                        (Some(tx), Some(rx))
                    };
                    row.push(tx);
                    out_rx.push(rx);
                }
                let row = Arc::new(row);
                rows = vec![row; endpoints];
            }
        }
        *inner.links.write().expect("links lock poisoned") = rows;

        // Recovery daemon: executes fault-plan restarts and retransmits
        // stale un-acked transfers. Only needed when something can go
        // wrong (an active fault plan) or be repaired (recovery on).
        if self.cfg.recovery.is_some() || inner.faults.is_some() {
            let daemon_inner = Arc::clone(&inner);
            fabric_threads.push(
                std::thread::Builder::new()
                    .name("recovery-daemon".into())
                    .spawn(move || recovery_daemon(daemon_inner))
                    .expect("spawn recovery daemon"),
            );
        }

        // Orchestrator controller (the ε-CON analog): watches every
        // node's heartbeat and relocates the functions of a node that
        // stops beating. Over TCP the coordinator pings its workers
        // through the control channel instead.
        if self.cfg.orchestrator && wire.is_none() {
            let ctl_inner = Arc::clone(&inner);
            fabric_threads.push(
                std::thread::Builder::new()
                    .name("orchestrator".into())
                    .spawn(move || orchestrator::controller(ctl_inner))
                    .expect("spawn orchestrator controller"),
            );
        }

        // Nodes: one merged DLU daemon per node this process runs (FLU
        // workers spawn lazily inside the node schedulers on first
        // submit); the others are bookkeeping only.
        let nodes: Vec<NodeRuntime> = dlu_rx
            .into_iter()
            .enumerate()
            .map(|(node_id, rx)| self.spawn_node(&inner, node_id, rx))
            .collect();

        // Runtime-wide autoscaler: one thread samples every function's
        // pressure and resizes the hosting nodes' active-slot windows.
        if self.cfg.autoscale.enabled && !is_client {
            let scaler_inner = Arc::clone(&inner);
            fabric_threads.push(
                std::thread::Builder::new()
                    .name("autoscaler".into())
                    .spawn(move || autoscaler(scaler_inner))
                    .expect("spawn autoscaler"),
            );
        }
        // Runtime-wide janitor for passive expire across every node.
        if let Some(ttl) = self.cfg.sink_ttl.filter(|_| !is_client) {
            let janitor_inner = Arc::clone(&inner);
            fabric_threads.push(
                std::thread::Builder::new()
                    .name("janitor".into())
                    .spawn(move || janitor(janitor_inner, ttl))
                    .expect("spawn janitor"),
            );
        }

        Ok((
            ClusterRuntime {
                inner,
                nodes,
                fabric_threads,
                next_req: AtomicU64::new(0),
            },
            out_rx,
        ))
    }

    /// Validation shared by every start path (see
    /// [`ClusterRuntimeBuilder::start`]'s docs for the error contract).
    /// The client endpoint of a TCP cluster hosts no functions, so it
    /// alone starts without `bodies`.
    fn validate(&self, bodies: bool) -> Result<(), RtError> {
        self.cfg
            .validate(self.placement.node_count())
            .map_err(RtError::InvalidConfig)?;
        for f in self.workflow.function_ids() {
            let name = &self.workflow.function(f).name;
            if bodies && !self.bodies.contains_key(name) {
                return Err(RtError::UnregisteredFunction(name.clone()));
            }
        }
        for name in self.bodies.keys().chain(self.replicas.keys()) {
            if self.workflow.function_by_name(name).is_none() {
                return Err(RtError::UnknownFunction(name.clone()));
            }
        }
        self.placement
            .validate(&self.workflow)
            .map_err(RtError::InvalidPlacement)
    }

    /// Builds the per-function pool gauges and the t=0 replica counts.
    #[allow(clippy::type_complexity)]
    fn pool_gauges(&self) -> (HashMap<String, Arc<FnScale>>, HashMap<String, usize>) {
        let scaling = self.cfg.autoscale.enabled;
        let mut scale = HashMap::new();
        let mut initial_replicas = HashMap::new();
        for f in self.workflow.function_ids() {
            let name = self.workflow.function(f).name.clone();
            // One executor slot unless `replicas(name, n)` said otherwise.
            let mut replicas = self.replicas.get(&name).copied().unwrap_or(1);
            if scaling {
                replicas = replicas.clamp(
                    self.cfg.autoscale.min_replicas,
                    self.cfg.autoscale.max_replicas,
                );
            }
            scale.insert(name.clone(), Arc::new(FnScale::new(replicas)));
            initial_replicas.insert(name, replicas);
        }
        (scale, initial_replicas)
    }

    /// Builds one node's FLU scheduler. The slot ceiling
    /// is migration-safe: the sum over **all** functions of each one's
    /// replica cap, because relocation or live migration can land any
    /// function here later. The initial active window is the replica
    /// sum of just the functions the placement starts on this node.
    fn node_scheduler(
        &self,
        node_id: usize,
        initial_replicas: &HashMap<String, usize>,
    ) -> NodeScheduler {
        let scaling = self.cfg.autoscale.enabled;
        let mut max_slots = 0usize;
        let mut active = 0usize;
        for f in self.workflow.function_ids() {
            let name = &self.workflow.function(f).name;
            let initial = initial_replicas[name];
            max_slots += if scaling {
                self.cfg.autoscale.max_replicas.max(initial)
            } else {
                initial
            };
            if self.placement.node_of(name) == node_id {
                active += initial;
            }
        }
        NodeScheduler::new(format!("node{node_id}"), max_slots.max(1), active.max(1))
    }

    /// Names of the functions the placement puts on `node_id`, in
    /// workflow order.
    fn hosted_on(&self, node_id: usize) -> Vec<String> {
        self.workflow
            .function_ids()
            .filter_map(|f| {
                let name = &self.workflow.function(f).name;
                (self.placement.node_of(name) == node_id).then(|| name.clone())
            })
            .collect()
    }

    /// Spawns one node's worth of threads: the node's **merged DLU
    /// daemon** (routes every hosted function's puts) and, in in-process
    /// orchestrator mode, its heartbeat responder. FLU invocations run
    /// on the node's scheduler, whose worker threads spawn lazily on
    /// first submit rather than here. Outbound routing fetches
    /// the node's link row from `Inner.links` per put.
    fn spawn_node(
        &self,
        inner: &Arc<Inner>,
        node_id: usize,
        dlu_rx: Option<Receiver<DluMsg>>,
    ) -> NodeRuntime {
        let mut threads = Vec::new();
        if let Some(rx) = dlu_rx {
            let daemon_inner = Arc::clone(inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("node{node_id}-dlu"))
                    .spawn(move || dlu_daemon(daemon_inner, rx))
                    .expect("spawn dlu daemon"),
            );
        }
        // Heartbeat responder (in-process orchestrator mode): stamps the
        // node's keep-alive beat while the node is up. Wire-mode
        // heartbeats are coordinator pings over the control channel
        // instead.
        if self.cfg.orchestrator && inner.wire.is_none() {
            let hb_inner = Arc::clone(inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("node{node_id}-heartbeat"))
                    .spawn(move || orchestrator::heartbeat_responder(hb_inner, node_id))
                    .expect("spawn heartbeat responder"),
            );
        }
        NodeRuntime {
            id: node_id,
            functions: self.hosted_on(node_id),
            state: Arc::clone(&inner.nodes[node_id]),
            threads,
        }
    }
}

/// Identity of one process of a TCP cluster: which endpoint it embodies
/// and which incarnation it is.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireSpec {
    /// The endpoint this process embodies: a node index, or the node
    /// count for the client endpoint (the coordinator).
    pub(crate) local: usize,
    /// Restart epoch (0 on first launch). Namespaces transfer ids so a
    /// restarted worker's streams can never collide with acks or
    /// duplicates addressed to its previous life.
    pub(crate) epoch: u32,
}

/// First transfer id a wire endpoint mints: epoch in the top 16 bits, the
/// endpoint index below it, so every (incarnation, sender) pair draws
/// from a disjoint id space.
fn transfer_base(local: usize, epoch: u32) -> u64 {
    ((epoch as u64) << 48) | ((local as u64 & 0xff) << 40)
}

/// A running multi-node FLU/DLU runtime. Create with
/// [`ClusterRuntimeBuilder`]; without a placement it runs on one node.
pub struct ClusterRuntime {
    pub(crate) inner: Arc<Inner>,
    nodes: Vec<NodeRuntime>,
    fabric_threads: Vec<JoinHandle<()>>,
    next_req: AtomicU64,
}

impl ClusterRuntime {
    /// Invokes the workflow with client inputs `(data_name, payload)`.
    /// Returns immediately; collect results with [`ClusterRuntime::wait`].
    pub fn invoke(&self, inputs: Vec<(String, Bytes)>) -> ReqId {
        let req = ReqId(self.next_req.fetch_add(1, Ordering::Relaxed));
        let wf = &self.inner.workflow;
        // Resolve switches deterministically per request — the same
        // derivation every worker process repeats from the request id
        // alone, so all endpoints agree on the active graph.
        let active = resolve_active(wf, req.0);
        self.inner.trace_with(|| TraceEventKind::Request {
            req: req.0,
            payload_bytes: inputs.iter().map(|(_, p)| p.len() as u64).sum(),
        });

        let outputs_missing = wf
            .client_outputs()
            .filter(|e| active.edge_active(*e))
            .count();
        self.inner
            .reqs
            .lock()
            .expect("runtime lock poisoned")
            .insert(
                req.0,
                ClientReqState {
                    outputs_missing,
                    outputs: Vec::new(),
                    errors: Vec::new(),
                    delivered: HashSet::new(),
                },
            );

        // Seed every node's sink with the request's missing-input counts
        // for the functions it hosts. (Over the wire the nodes live in
        // other processes and seed themselves on first frame arrival.)
        let wire = self.inner.wire.as_ref();
        if wire.is_none() {
            for (node_id, node) in self.inner.nodes.iter().enumerate() {
                node.sink
                    .insert(req.0, seed_req_state(&self.inner, node_id, &active));
            }
        }

        // Hand the client inputs over by data name.
        for (name, payload) in inputs {
            let mut matched = false;
            for eid in wf.client_inputs().collect::<Vec<_>>() {
                let e = wf.edge(eid);
                if e.data_name != name {
                    continue;
                }
                matched = true;
                let Endpoint::Function(dst) = e.target else {
                    continue;
                };
                let dst_node = self.inner.node_of(&wf.function(dst).name);
                let key = format!("{name}@$USER");
                match wire {
                    // Cluster ingress: straight into the hosting node's
                    // sink, no inter-node shaping on the way in.
                    None => deliver(&self.inner, dst_node, req, eid, key, payload.clone()),
                    // This process is the client endpoint: the input
                    // leaves as one retained whole frame, whatever its
                    // size — a client input is not a §7 pipe transfer.
                    Some(w) if active.edge_active(eid) => {
                        if let Some(links) = self.inner.link_row(w.local) {
                            ship_whole(
                                &self.inner,
                                &links,
                                w.local,
                                dst_node,
                                req,
                                eid,
                                key,
                                &payload,
                            );
                        }
                    }
                    Some(_) => {}
                }
            }
            if !matched {
                let mut reqs = self.inner.reqs.lock().expect("runtime lock poisoned");
                if let Some(rs) = reqs.get_mut(&req.0) {
                    rs.errors
                        .push(format!("no client input edge named `{name}`"));
                }
                self.inner.done.notify_all();
            }
        }
        req
    }

    /// Invokes the workflow on behalf of `tenant`, subject to the
    /// configured admission caps ([`ClusterConfig::admission`]). The
    /// in-flight slot is released when the request completes via
    /// [`ClusterRuntime::wait`] or is abandoned via
    /// [`ClusterRuntime::forget`].
    ///
    /// # Errors
    ///
    /// [`Rejected`] when the tenant (or the whole gate) is at its
    /// in-flight cap; nothing enters the data plane in that case.
    pub fn try_invoke(
        &self,
        tenant: &str,
        inputs: Vec<(String, Bytes)>,
    ) -> Result<ReqId, Rejected> {
        if let Err(r) = self.inner.gate.try_admit(tenant) {
            self.inner
                .counters
                .rejected_requests
                .fetch_add(1, Ordering::Relaxed);
            return Err(r);
        }
        self.inner
            .counters
            .admitted_requests
            .fetch_add(1, Ordering::Relaxed);
        let req = self.invoke(inputs);
        self.inner.gate.bind(req.0, tenant);
        Ok(req)
    }

    /// Per-tenant admission counters (admitted/rejected/completed/
    /// failed/in-flight), sorted by tenant name. Empty when no
    /// [`ClusterRuntime::try_invoke`] traffic arrived.
    pub fn tenant_stats(&self) -> Vec<(String, TenantStats)> {
        self.inner.gate.tenant_stats()
    }

    /// The recorded trace so far, in record order (`None` unless the
    /// runtime was built with [`ClusterRuntimeBuilder::record_trace`]).
    /// Feed it to [`trace::replay`](crate::trace::replay) and
    /// [`trace::diff`](crate::trace::diff) for sim↔live differential
    /// checking.
    pub fn trace_events(&self) -> Option<Vec<TraceEvent>> {
        self.inner.recorder.as_ref().map(|r| r.events())
    }

    /// The recorded trace in its on-disk encoding (the [`crate::trace`]
    /// `DFTR` format), ready to write to a file.
    ///
    /// This is a live snapshot: transfers off a request's critical path
    /// (a sibling branch still shipping when the last client output
    /// lands) record their events concurrently with
    /// [`ClusterRuntime::wait`] returning, so a trace read while the
    /// cluster is up may miss trailing events. For a complete trace,
    /// use [`ClusterRuntime::shutdown_into_trace`].
    pub fn trace_bytes(&self) -> Option<Vec<u8>> {
        self.inner.recorder.as_ref().map(|r| r.to_bytes())
    }

    /// Shuts the runtime down ([`ClusterRuntime::shutdown`]) and returns
    /// the recorded trace in its on-disk [`crate::trace`] encoding
    /// (`None` unless built with
    /// [`ClusterRuntimeBuilder::record_trace`]). Unlike
    /// [`ClusterRuntime::trace_bytes`], the trace is read only after
    /// every node and fabric thread has drained and joined, so it is
    /// guaranteed to hold every event of every completed request.
    pub fn shutdown_into_trace(self) -> Option<Vec<u8>> {
        let recorder = self.inner.recorder.clone();
        self.shutdown();
        recorder.map(|r| r.to_bytes())
    }

    /// Blocks until every client output of `req` arrived, or `timeout`.
    ///
    /// A successful wait releases everything the runtime tracked for the
    /// request. A timed-out or faulted request stays tracked so `wait`
    /// can be retried; callers abandoning such a request should
    /// [`ClusterRuntime::forget`] it, or its parked payloads remain in
    /// the node sinks for the runtime's lifetime.
    ///
    /// # Errors
    ///
    /// [`RtError::Timeout`] if the deadline passes first;
    /// [`RtError::Faulted`] if any function body reported an error (e.g.
    /// a `put` with an unknown data name); [`RtError::UnknownRequest`]
    /// for a foreign id.
    pub fn wait(&self, req: ReqId, timeout: Duration) -> Result<Vec<(String, Bytes)>, RtError> {
        let deadline = Instant::now() + timeout;
        let mut reqs = self.inner.reqs.lock().expect("runtime lock poisoned");
        loop {
            let rs = reqs.get(&req.0).ok_or(RtError::UnknownRequest)?;
            if !rs.errors.is_empty() {
                return Err(RtError::Faulted(rs.errors.join("; ")));
            }
            if rs.outputs_missing == 0 {
                let rs = reqs.remove(&req.0).expect("checked above");
                drop(reqs);
                // Drop the request's per-node sink state (leftover
                // entries of switched-off branches, reassembly buffers).
                purge_request(&self.inner, req.0);
                self.inner.gate.finish(req.0, true);
                return Ok(rs.outputs);
            }
            // Re-check the deadline on every wakeup (spurious or not)
            // and saturate the remaining-time arithmetic: an `Instant`
            // subtraction panics on underflow, and a wakeup can land
            // after the deadline passed.
            let now = Instant::now();
            if now >= deadline {
                return Err(RtError::Timeout);
            }
            reqs = self
                .inner
                .done
                .wait_timeout(reqs, deadline.saturating_duration_since(now))
                .expect("runtime lock poisoned")
                .0;
        }
    }

    /// Abandons a request: drops its client-side state and every node's
    /// parked payloads and reassembly buffers for it. Call this after
    /// giving up on a timed-out or faulted request so a long-lived
    /// runtime does not accumulate dead sink entries; in-flight puts for
    /// the request are discarded on arrival afterwards.
    pub fn forget(&self, req: ReqId) {
        self.inner
            .reqs
            .lock()
            .expect("runtime lock poisoned")
            .remove(&req.0);
        purge_request(&self.inner, req.0);
        self.inner.gate.finish(req.0, false);
    }

    /// Number of worker nodes in the topology.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node at `index` (FLU scheduler, merged DLU
    /// daemon and sink of the functions placed there).
    pub fn node(&self, index: usize) -> &NodeRuntime {
        &self.nodes[index]
    }

    /// The node currently hosting function `name` per the **live**
    /// placement — relocation and [`ClusterRuntime::migrate_function`]
    /// move this answer at runtime.
    pub fn node_of(&self, name: &str) -> usize {
        self.inner.node_of(name)
    }

    /// Replica gauge of function `name`: how many worker slots of its
    /// hosting node's scheduler it contributes. With elastic scaling
    /// enabled this is a **live gauge** that moves as the autoscaler
    /// grows and shrinks the function's share of executor parallelism.
    pub fn replicas_of(&self, name: &str) -> Option<usize> {
        self.inner
            .scale
            .get(name)
            .map(|s| s.replicas.load(Ordering::Relaxed))
    }

    /// The current Eq. 1 pressure sample of function `name`, seconds:
    /// `α · backlog / Bw − T_FLU` with the configured autoscale
    /// coefficients. Positive means the DLU is not keeping up.
    pub fn pressure_of(&self, name: &str) -> Option<f64> {
        let s = self.inner.scale.get(name)?;
        let auto = &self.inner.cfg.autoscale;
        Some(pressure_secs(
            auto.alpha,
            s.backlog_bytes.load(Ordering::Relaxed) as f64,
            auto.drain_bw_bytes_per_sec,
            s.t_flu.lock().expect("t_flu lock poisoned").get_or(0.0),
        ))
    }

    /// Bytes currently sitting in (or being drained from) the DLU queues
    /// of the functions hosted on `node` — the node's outbound pressure.
    pub fn node_pressure(&self, node: usize) -> u64 {
        node_pressure_of(&self.inner, node)
    }

    /// Messages queued (or in shaping) on the fabric links **into**
    /// `node` — the node's inbound pressure.
    pub fn fabric_inbound_depth(&self, node: usize) -> usize {
        (0..self.inner.nodes.len())
            .filter(|src| *src != node)
            .map(|src| depth_of(&self.inner, src, node).load(Ordering::Relaxed))
            .sum()
    }

    /// The node with the least combined pressure: DLU backlog bytes plus
    /// inbound fabric queue depth (scaled by the chunk size so both terms
    /// are bytes). The orchestrator feeds this figure into
    /// [`PlacementPolicy::relocate`] after a node loss, and callers can
    /// use it to pick [`ClusterRuntime::migrate_function`] targets.
    pub fn least_pressured_node(&self) -> usize {
        let chunk = self.inner.cfg.chunk_bytes as u64;
        (0..self.nodes.len())
            .min_by_key(|n| self.node_pressure(*n) + self.fabric_inbound_depth(*n) as u64 * chunk)
            .unwrap_or(0)
    }

    /// Crashes `node` (§6.2 data-plane crash): from now until
    /// [`ClusterRuntime::restart_node`], every fabric frame inbound to
    /// the node is lost, and the node's in-flight reassembly state was
    /// rolled back to the last checkpoint mark of each stream — progress
    /// past a mark is volatile, progress below it is durable.
    ///
    /// With [`ClusterConfig::recovery()`] on the crash is survivable: senders
    /// retain every un-acked frame, and the restart replays each
    /// incomplete transfer from its last acknowledged mark. Without
    /// recovery, a crash mid-request loses data and `wait` times out —
    /// exactly the failure the checkpoint protocol exists to fix.
    ///
    /// Returns a [`CrashReport`] describing the damage; crashing an
    /// already-down node is a no-op (`was_up == false`).
    ///
    /// Fault-plan kills ([`FaultPlan::kill_node`](crate::fault::FaultPlan::kill_node))
    /// drive this same path at a deterministic logical event.
    pub fn crash_node(&self, node: usize) -> CrashReport {
        crash_node_inner(&self.inner, node)
    }

    /// Restarts a crashed node. With [`ClusterConfig::recovery()`] on, replays
    /// every incomplete inbound transfer from the senders' retention
    /// windows — resuming chunked streams at their last acknowledged
    /// checkpoint mark, not byte 0 — before returning; the surviving
    /// Wait-Match sink entries were never lost (the sink is modeled
    /// durable, per the paper's function-exclusive disk backing).
    /// Restarting a node that is not down is a no-op.
    pub fn restart_node(&self, node: usize) {
        restart_node_inner(&self.inner, node)
    }

    /// Transfers currently held in the §6.2 retention windows across all
    /// links: sent but not yet fully acknowledged. Zero when recovery is
    /// disabled, and zero again once a quiesced runtime has delivered
    /// and acked everything — retention must never leak.
    pub fn retained_transfers(&self) -> usize {
        self.inner
            .retention
            .iter()
            .map(|r| r.lock().expect("retention lock poisoned").len())
            .sum()
    }

    /// Every scale event since the runtime started, in time order (empty
    /// while autoscaling is disabled).
    pub fn scaling_timeline(&self) -> Vec<ScaleEvent> {
        self.inner
            .scale_events
            .lock()
            .expect("scale events lock poisoned")
            .clone()
    }

    /// The per-function replica counts over time as a
    /// [`dataflower_metrics::Timeline`]: one series per function, starting
    /// at its initial pool size, stepping on every scale event.
    pub fn replica_timeline(&self) -> Timeline {
        let mut t = Timeline::new();
        for f in self.inner.workflow.function_ids() {
            let name = &self.inner.workflow.function(f).name;
            t.record(name.clone(), 0.0, self.inner.initial_replicas[name] as f64);
        }
        for ev in self.scaling_timeline() {
            t.record(ev.function, ev.at.as_secs_f64(), ev.to_replicas as f64);
        }
        t
    }

    /// Runtime counters, aggregated across all nodes and links.
    pub fn stats(&self) -> RtStats {
        self.inner.counters.snapshot()
    }

    /// Stops all node and fabric threads and waits for them (clean
    /// teardown; prefer this over relying on `Drop`, which detaches
    /// without joining).
    ///
    /// Teardown cascades: scheduler workers drain their queues and park
    /// permanently, in-flight invocations drop their DLU senders, the
    /// merged DLU daemons drain and drop the link senders, the link
    /// shippers drain and exit.
    pub fn shutdown(mut self) {
        self.signal_shutdown();
        for sched in &self.inner.scheds {
            sched.stop();
        }
        for node in &mut self.nodes {
            for t in node.threads.drain(..) {
                let _ = t.join();
            }
        }
        for t in self.fabric_threads.drain(..) {
            let _ = t.join();
        }
    }

    fn signal_shutdown(&self) {
        // The lock orders the store before any janitor's or autoscaler's
        // next wait (none can sleep through the signal) and freezes the
        // replica gauges: the autoscaler only scales while holding this
        // same mutex.
        let _guard = self.inner.raise_shutdown();
        // Wake every scheduler worker (non-blocking; `shutdown` joins).
        for sched in &self.inner.scheds {
            sched.signal_stop();
        }
        // Drop the DLU senders: each node's daemon exits once in-flight
        // invocations drop their clones and the queue drains.
        for tx in self
            .inner
            .dlu_tx
            .write()
            .expect("dlu senders lock poisoned")
            .iter_mut()
        {
            *tx = None;
        }
        // Drop the link rows: they hold the only long-lived senders into
        // the link shippers, which exit when their queue disconnects.
        self.inner
            .links
            .write()
            .expect("links lock poisoned")
            .clear();
    }
}

impl Drop for ClusterRuntime {
    fn drop(&mut self) {
        // Non-blocking teardown: signal and detach (C-DTOR-BLOCK).
        self.signal_shutdown();
    }
}

impl fmt::Debug for ClusterRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterRuntime")
            .field("workflow", &self.inner.workflow.name())
            .field("nodes", &self.nodes.len())
            .field("links", &self.fabric_threads.len())
            .finish()
    }
}

/// Queues one invocation of `name` on its hosting node's scheduler.
/// The task captures a `Weak<Inner>`: if the runtime was
/// dropped before a worker gets to it, the invocation is discarded —
/// consistent with detached teardown. A node whose DLU sender is gone
/// (shutdown, or a remote node in wire mode) drops the invocation the
/// same way the old per-function queues did on disconnect.
pub(crate) fn submit_invoke(
    inner: &Inner,
    name: &str,
    req: ReqId,
    inputs: BTreeMap<String, Bytes>,
) {
    let node = inner.node_of(name);
    let Some(dlu) = inner.dlu_sender(node) else {
        return;
    };
    let me = inner.me.clone();
    let body = Arc::clone(&inner.bodies[name]);
    let scale = Arc::clone(&inner.scale[name]);
    let fn_name = name.to_string();
    inner.scheds[node].submit(Box::new(move || {
        let Some(inner) = me.upgrade() else {
            return;
        };
        run_invocation(inner, &fn_name, req, inputs, &body, dlu, &scale);
    }));
}

/// Runs one function invocation on the calling scheduler worker. The
/// context keeps the runtime handle: a hand-off `put` routes from this
/// thread ([`PutPlan::is_handoff`]).
fn run_invocation(
    inner: Arc<Inner>,
    fn_name: &str,
    req: ReqId,
    inputs: BTreeMap<String, Bytes>,
    body: &Body,
    dlu: Sender<DluMsg>,
    scale: &Arc<FnScale>,
) {
    // The in-flight gauge: migration drains wait on this hitting 0.
    scale.live.fetch_add(1, Ordering::SeqCst);
    inner.counters.invocations.fetch_add(1, Ordering::Relaxed);
    inner.trace_with(|| TraceEventKind::Invoke {
        req: req.0,
        func: inner
            .workflow
            .function_by_name(fn_name)
            .map_or(u32::MAX, |f| f.index() as u32),
    });
    let mut ctx = FluContext::new(
        inner,
        req,
        fn_name.to_string(),
        inputs,
        dlu,
        Arc::clone(scale),
    );
    let t0 = Instant::now();
    body(&mut ctx);
    // Eq. 1's T_FLU is compute time: discount what the body spent
    // blocked in `put` behind a saturated DLU or link queue, or
    // backpressure would masquerade as useful work and suppress the very
    // pressure it signals.
    let t_flu = t0.elapsed().saturating_sub(ctx.blocked);
    scale
        .t_flu
        .lock()
        .expect("t_flu lock poisoned")
        .push(t_flu.as_secs_f64());
    scale.live.fetch_sub(1, Ordering::SeqCst);
}

/// One node's merged DLU daemon: drains the node-wide put queue — the
/// puts with a remote-pipe edge, which take time to stream, and the ones
/// that matched nothing ([`PutPlan::is_handoff`] sent the rest around
/// it) — and routes each payload, charging the drained bytes back to the
/// source function's Eq. 1 backlog gauge. Exits when the queue disconnects
/// (shutdown cleared the long-lived sender and in-flight invocations
/// dropped their clones) or the shutdown flag is up.
pub(crate) fn dlu_daemon(inner: Arc<Inner>, rx: Receiver<DluMsg>) {
    while let Ok(msg) = rx.recv() {
        if inner.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let len = msg.payload.len() as u64;
        let scale = inner.scale.get(&msg.src_fn).cloned();
        // Resolved again, not carried over from `put`: the queue wait can
        // span a migration, and routing follows the *live* placement.
        let plan = resolve_put(&inner, &msg);
        route(&inner, msg, plan);
        // The payload left the DLU (routing finished, including any time
        // blocked on a saturated inter-node link): drop it from the
        // Eq. 1 backlog gauge.
        if let Some(scale) = scale {
            scale.backlog_bytes.fetch_sub(len, Ordering::Relaxed);
        }
    }
}

/// Re-derives `node`'s active worker-slot window from the live placement
/// and replica gauges: the sum of the replicas of every function the
/// placement currently puts there. Called after every scale event,
/// relocation and migration.
pub(crate) fn refresh_scheduler_active(inner: &Inner, node: usize) {
    let placement = inner.placement.read().expect("placement lock poisoned");
    let slots: usize = inner
        .scale
        .iter()
        .filter(|(name, _)| placement.node_of(name) == node)
        .map(|(_, s)| s.replicas.load(Ordering::Relaxed))
        .sum();
    drop(placement);
    inner.scheds[node].set_active(slots);
}

/// The runtime-wide elastic scaling loop: every `sample_interval`,
/// convert each function's DLU backlog into Eq. 1 pressure-seconds and
/// let its [`ScalePolicy`] move the replica gauge between the bounds.
/// A scale event does not spawn or retire threads — it resizes the
/// hosting node's *active worker-slot window*
/// ([`NodeScheduler::set_active`]), i.e. how many of the scheduler's
/// workers may run at once. Scaling happens under the shutdown
/// mutex so teardown always sees a consistent replica count.
fn autoscaler(inner: Arc<Inner>) {
    let auto = inner.cfg.autoscale.clone();
    let local = inner.wire.as_ref().map(|w| w.local);
    let mut fns: Vec<(String, ScalePolicy)> = inner
        .workflow
        .function_ids()
        .map(|f| {
            (
                inner.workflow.function(f).name.clone(),
                ScalePolicy::new(&auto),
            )
        })
        .collect();
    loop {
        let mut guard = inner.shutdown_mx.lock().expect("shutdown lock poisoned");
        if inner.shutdown.load(Ordering::Relaxed) {
            break;
        }
        guard = inner
            .shutdown_cv
            .wait_timeout(guard, auto.sample_interval)
            .expect("shutdown lock poisoned")
            .0;
        if inner.shutdown.load(Ordering::Relaxed) {
            break;
        }
        let now = inner.started.elapsed();
        for (name, policy) in fns.iter_mut() {
            let node = inner.node_of(name);
            // Wire mode: each worker process scales only the functions
            // it currently hosts.
            if local.is_some_and(|l| l != node) {
                continue;
            }
            let scale = &inner.scale[name];
            let backlog = scale.backlog_bytes.load(Ordering::Relaxed) as f64;
            let t_flu = scale.t_flu.lock().expect("t_flu lock poisoned").get_or(0.0);
            let pressure = pressure_secs(auto.alpha, backlog, auto.drain_bw_bytes_per_sec, t_flu);
            let replicas = scale.replicas.load(Ordering::Relaxed);
            let Some(direction) = policy.decide(now.as_secs_f64(), pressure, replicas) else {
                continue;
            };
            let to_replicas = match direction {
                ScaleDirection::Out => {
                    inner
                        .counters
                        .scale_out_events
                        .fetch_add(1, Ordering::Relaxed);
                    scale.replicas.fetch_add(1, Ordering::SeqCst) + 1
                }
                ScaleDirection::In => {
                    inner
                        .counters
                        .scale_in_events
                        .fetch_add(1, Ordering::Relaxed);
                    scale.replicas.fetch_sub(1, Ordering::SeqCst) - 1
                }
            };
            refresh_scheduler_active(&inner, node);
            inner.trace_with(|| TraceEventKind::Scale {
                func: inner
                    .workflow
                    .function_by_name(name)
                    .map_or(u32::MAX, |f| f.index() as u32),
                node: node as u32,
                out: direction == ScaleDirection::Out,
                from_replicas: replicas as u32,
                to_replicas: to_replicas as u32,
            });
            inner
                .scale_events
                .lock()
                .expect("scale events lock poisoned")
                .push(ScaleEvent {
                    at: now,
                    function: name.clone(),
                    node,
                    direction,
                    from_replicas: replicas,
                    to_replicas,
                    pressure_secs: pressure,
                });
        }
        drop(guard);
    }
}

/// What one `put` resolves to against the live placement: the output
/// edges it matched, and for each active one where it goes and over which
/// §7 pipe. Resolved once per routing — the kind picked here is the kind
/// [`ship`] uses and traces.
pub(crate) struct PutPlan {
    src_node: usize,
    /// Whether any output edge carries the data name toward the target
    /// at all (switched-off branches included).
    matched: bool,
    /// Active matched edges with `(destination endpoint, pipe kind)`;
    /// `None` is the in-process client output, recorded rather than
    /// shipped.
    hops: Vec<(EdgeId, Option<(usize, PipeKind)>)>,
}

impl PutPlan {
    /// The routing rule (stated in README § Performance, "Thread
    /// hand-offs per hop"): with no remote pipe among its edges a put is
    /// an O(1) ownership hand-off, and the FLU thread that made it routes
    /// it. A remote pipe is the transfer §5.1 overlaps with compute and
    /// goes through the DLU queue to the daemon; so does a put that
    /// matched nothing, whose error the daemon's route reports.
    pub(crate) fn is_handoff(&self) -> bool {
        let remote_pipes = self
            .hops
            .iter()
            .any(|(_, via)| matches!(via, Some((_, PipeKind::RemotePipe))));
        self.matched && !remote_pipes
    }
}

/// Resolves one put's matching data edges, classifying each
/// inter-function transfer through the paper's three-way pipe choice.
/// The source node — and with it the link row and retention window —
/// comes from the *live* placement, so a DLU daemon keeps routing
/// correctly after its function migrated to another node. `None`: the
/// request was already collected.
pub(crate) fn resolve_put(inner: &Inner, msg: &DluMsg) -> Option<PutPlan> {
    let wf = &inner.workflow;
    let src = wf.function_by_name(&msg.src_fn)?;
    let src_node = inner.node_of(&msg.src_fn);
    let active = inner.nodes[src_node]
        .sink
        .with(msg.req.0, |rs| rs.map(|r| Arc::clone(&r.active)))?;
    let mut plan = PutPlan {
        src_node,
        matched: false,
        hops: Vec::new(),
    };
    for &eid in wf.outputs(src) {
        let e = wf.edge(eid);
        if e.data_name != msg.data_name {
            continue;
        }
        let target_ok = match (&msg.target, e.target) {
            (PutTarget::All, _) => true,
            (PutTarget::Function(name), Endpoint::Function(t)) => wf.function(t).name == *name,
            (PutTarget::Function(_), Endpoint::Client) => false,
        };
        if !target_ok {
            continue;
        }
        plan.matched = true;
        if !active.edge_active(eid) {
            continue; // switched-off branch: data dropped by design
        }
        let dst_node = match e.target {
            Endpoint::Function(t) => Some(inner.node_of(&wf.function(t).name)),
            // Worker process: the client is the cluster's trailing
            // endpoint — its output ships over the wire, retained and
            // acked like any transfer.
            Endpoint::Client => inner.wire.as_ref().map(|w| w.client),
        };
        let via = dst_node.map(|dst| {
            let kind = choose_pipe(
                msg.payload.len() as f64,
                inner.cfg.direct_threshold_bytes as f64,
                src_node == dst,
            );
            (dst, kind)
        });
        plan.hops.push((eid, via));
    }
    Some(plan)
}

/// Routes one put along its resolved edges — on the putting FLU thread
/// for a hand-off, on the node's DLU daemon otherwise
/// ([`PutPlan::is_handoff`]).
pub(crate) fn route(inner: &Inner, msg: DluMsg, plan: Option<PutPlan>) {
    inner.counters.puts.fetch_add(1, Ordering::Relaxed);
    let Some(plan) = plan else {
        return;
    };
    let Some(links) = inner.link_row(plan.src_node) else {
        return; // rows cleared: shutdown in progress
    };
    for &(eid, via) in &plan.hops {
        match via {
            None => complete_output(inner, msg.req.0, eid, msg.payload.clone()),
            Some((dst_node, kind)) => {
                let key = format!("{}@{}", msg.data_name, msg.src_fn);
                ship(
                    inner,
                    &links,
                    plan.src_node,
                    dst_node,
                    kind,
                    msg.req,
                    eid,
                    key,
                    &msg.payload,
                );
            }
        }
    }
    if !plan.matched {
        let mut reqs = inner.reqs.lock().expect("runtime lock poisoned");
        if let Some(rs) = reqs.get_mut(&msg.req.0) {
            rs.errors.push(format!(
                "function `{}` put unknown data `{}`",
                msg.src_fn, msg.data_name
            ));
            inner.done.notify_all();
        }
    }
}

/// Ships one inter-function payload over the pipe `kind` §7 prescribed
/// ([`resolve_put`]): direct socket under the threshold, local pipe when
/// co-located, chunked streaming remote pipe with checkpoint marks
/// otherwise.
#[allow(clippy::too_many_arguments)]
fn ship(
    inner: &Inner,
    links: &[Option<Sender<NetMsg>>],
    src_node: usize,
    dst_node: usize,
    kind: PipeKind,
    req: ReqId,
    edge: EdgeId,
    key: String,
    payload: &Bytes,
) {
    let len = payload.len();
    // §7 decisions are only sim-comparable for inter-function edges;
    // wire-mode client outputs ride ship() too but have no simulated
    // pipe-choice counterpart.
    let traced = inner.recorder.is_some()
        && matches!(inner.workflow.edge(edge).target, Endpoint::Function(_));
    if traced {
        inner.trace_with(|| TraceEventKind::PipeChoice {
            req: req.0,
            edge: edge.index() as u32,
            kind,
            bytes: len as u64,
        });
    }
    match kind {
        PipeKind::DirectSocket => {
            inner
                .counters
                .direct_socket_transfers
                .fetch_add(1, Ordering::Relaxed);
            if src_node == dst_node {
                deliver(inner, dst_node, req, edge, key, payload.clone());
            } else {
                inner
                    .counters
                    .remote_bytes
                    .fetch_add(len as u64, Ordering::Relaxed);
                ship_whole(inner, links, src_node, dst_node, req, edge, key, payload);
            }
        }
        PipeKind::LocalPipe => {
            inner
                .counters
                .local_pipe_transfers
                .fetch_add(1, Ordering::Relaxed);
            deliver(inner, dst_node, req, edge, key, payload.clone());
        }
        PipeKind::RemotePipe => {
            inner
                .counters
                .remote_pipe_transfers
                .fetch_add(1, Ordering::Relaxed);
            inner
                .counters
                .remote_bytes
                .fetch_add(len as u64, Ordering::Relaxed);
            if len == 0 {
                // Nothing to stream: chunk_spans yields no spans for an
                // empty payload, so ship one direct frame instead of a
                // useless empty chunk.
                ship_whole(inner, links, src_node, dst_node, req, edge, key, payload);
                return;
            }
            let link = links[dst_node].as_ref().expect("cross-node link exists");
            let depth = depth_of(inner, src_node, dst_node);
            let transfer = inner.next_transfer.fetch_add(1, Ordering::Relaxed);
            let cp = CheckpointSchedule::new(inner.cfg.checkpoint_interval_bytes as f64);
            let spans = chunk_spans(len, inner.cfg.chunk_bytes);
            // Record the prescribed chunk/mark counts *before* streaming:
            // the instant the last chunk lands the consumer can run and
            // complete the request, so a record after the loop can race
            // the end-of-run trace snapshot and go missing. The counts
            // are pure functions of (len, chunk_bytes, interval) — the
            // same numbers the §7 replay derives.
            if traced {
                let chunks = spans.len() as u32;
                let marks: u64 = spans
                    .iter()
                    .map(|&(lo, hi)| cp.marks_crossed(lo as f64, hi as f64))
                    .sum();
                inner.trace_with(|| TraceEventKind::RemoteMarks {
                    req: req.0,
                    edge: edge.index() as u32,
                    chunks,
                    marks: marks as u32,
                });
            }
            for (lo, hi) in spans {
                inner.counters.remote_chunks.fetch_add(1, Ordering::Relaxed);
                let crossed = cp.marks_crossed(lo as f64, hi as f64);
                inner
                    .counters
                    .remote_checkpoints
                    .fetch_add(crossed, Ordering::Relaxed);
                // Zero-copy: each chunk frame is an O(1) view into the
                // payload's shared allocation, not a copied sub-buffer —
                // and so is the retained replay copy (a refcount bump).
                let bytes = payload.slice(lo..hi);
                if inner.cfg.recovery.is_some() {
                    retention_of(inner, src_node, dst_node)
                        .lock()
                        .expect("retention lock poisoned")
                        .retain(transfer, req.0, edge, &key, len, true, lo, bytes.clone());
                }
                depth.fetch_add(1, Ordering::Relaxed);
                let sent = link.send(NetMsg::Chunk {
                    req: req.0,
                    edge,
                    key: key.clone(),
                    transfer,
                    offset: lo,
                    total: len,
                    bytes,
                });
                if sent.is_err() {
                    depth.fetch_sub(1, Ordering::Relaxed);
                    break; // link torn down mid-transfer (shutdown)
                }
            }
        }
    }
}

/// Ships one unchunked cross-node frame, registering it in the §6.2
/// retention window first (when recovery is on) so a frame lost at a
/// crashed node stays replayable.
#[allow(clippy::too_many_arguments)]
fn ship_whole(
    inner: &Inner,
    links: &[Option<Sender<NetMsg>>],
    src_node: usize,
    dst_node: usize,
    req: ReqId,
    edge: EdgeId,
    key: String,
    payload: &Bytes,
) {
    let link = links[dst_node].as_ref().expect("cross-node link exists");
    let depth = depth_of(inner, src_node, dst_node);
    let transfer = inner.next_transfer.fetch_add(1, Ordering::Relaxed);
    if inner.cfg.recovery.is_some() {
        retention_of(inner, src_node, dst_node)
            .lock()
            .expect("retention lock poisoned")
            .retain(
                transfer,
                req.0,
                edge,
                &key,
                payload.len(),
                false,
                0,
                payload.clone(),
            );
    }
    depth.fetch_add(1, Ordering::Relaxed);
    let sent = link.send(NetMsg::Whole {
        req: req.0,
        edge,
        key,
        transfer,
        payload: payload.clone(),
    });
    if sent.is_err() {
        depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The retention window of the directed link `src → dst`. Only called
/// with recovery enabled (the vector is empty otherwise).
pub(crate) fn retention_of(inner: &Inner, src: usize, dst: usize) -> &Mutex<LinkRetention> {
    &inner.retention[src * inner.nodes.len() + dst]
}

/// Fault-injection wrapper around the destination-side fabric handler.
/// Runs on the shipper thread of link `src → dst`: it ticks the global
/// logical event counter, executes due fault-plan kills, and applies the
/// frame's fate (drop / duplicate / delayed wakeup) before handing the
/// frame to [`handle_net_msg`]. With no fault plan, the whole wrapper is
/// one `Option` check.
pub(crate) fn chaos_ingress(inner: &Inner, src: usize, dst: usize, msg: NetMsg) {
    if let Some(fs) = &inner.faults {
        let frame = fs.next_frame();
        for kill in fs.take_due_kills(frame) {
            let report = crash_node_inner(inner, kill.node);
            if report.was_up {
                fs.schedule_restart(kill.node, Instant::now() + kill.outage);
            }
        }
        match fs.plan().frame_fate(frame, src, dst) {
            FrameFate::Deliver => {}
            FrameFate::Drop => {
                // Lost in flight. The frame stays in the sender's
                // retention window (recovery retransmits it once its ack
                // times out); without recovery it is simply gone.
                inner
                    .counters
                    .chaos_dropped_frames
                    .fetch_add(1, Ordering::Relaxed);
                inner.trace_with(|| TraceEventKind::FaultFate {
                    src: src as u32,
                    dst: dst as u32,
                    fate: FateKind::Drop,
                });
                return;
            }
            FrameFate::Duplicate => {
                inner
                    .counters
                    .chaos_duplicated_frames
                    .fetch_add(1, Ordering::Relaxed);
                inner.trace_with(|| TraceEventKind::FaultFate {
                    src: src as u32,
                    dst: dst as u32,
                    fate: FateKind::Duplicate,
                });
                handle_net_msg(inner, src, dst, msg.clone());
            }
            FrameFate::Delay(d) => {
                inner
                    .counters
                    .chaos_delayed_frames
                    .fetch_add(1, Ordering::Relaxed);
                inner.trace_with(|| TraceEventKind::FaultFate {
                    src: src as u32,
                    dst: dst as u32,
                    fate: FateKind::Delay,
                });
                if !inner.shutdown.load(Ordering::Relaxed) {
                    std::thread::sleep(d);
                }
            }
        }
    }
    handle_net_msg(inner, src, dst, msg);
}

/// What one chunk frame advanced a transfer to — decided under the sink
/// stripe lock, acted on (delivery, acks) after it is released.
enum ChunkProgress {
    /// The request is no longer tracked on this node (collected or
    /// forgotten): ack the transfer away so retention cannot leak.
    Orphan,
    /// The chunk completed the transfer.
    Complete(Bytes),
    /// Still incomplete; the contiguous prefix so far.
    Prefix(usize),
}

/// Destination-side handler of fabric messages arriving at `dst_node`
/// from `src` — the real ingress, shared by the live link path and the
/// recovery replay path. A frame inbound to a crashed node is lost; a
/// delivered frame is acknowledged back to the sender's retention window
/// (whole frames on delivery, chunked streams per checkpoint mark their
/// contiguous prefix crosses). In wire mode, ack frames arriving *back*
/// from a receiver are applied to the local (sender-side) retention
/// window here too.
pub(crate) fn handle_net_msg(inner: &Inner, src: usize, dst_node: usize, msg: NetMsg) {
    // Relocation forwarding: a data frame addressed to a node that no
    // longer hosts its target function chases the live placement
    // instead of dying with the old address. Checked *before* the
    // down-check so frames already in flight when a node was declared
    // lost still reach the function's new home.
    if let Some(cur) = frame_target_node(inner, &msg) {
        if cur != dst_node {
            inner
                .counters
                .forwarded_frames
                .fetch_add(1, Ordering::Relaxed);
            match &inner.wire {
                // Another process hosts the function now: relay the
                // frame over the wire. The sender's retention entry is
                // re-homed by the coordinator's relocate broadcast, so
                // the new host's acks find it there.
                Some(w) if cur != w.local => return wire_send(inner, w, cur, msg),
                // The new host is this process: fall through and ingest
                // under the new node id below.
                Some(_) => {}
                // In-process: drag the sender's retention entry along to
                // the new destination link, or the acks coming back from
                // the new host would miss it and the old-link entry
                // would retransmit forever.
                None if inner.cfg.recovery.is_some() => {
                    if let NetMsg::Whole { transfer, .. } | NetMsg::Chunk { transfer, .. } = &msg {
                        let moved = retention_of(inner, src, dst_node)
                            .lock()
                            .expect("retention lock poisoned")
                            .take(*transfer);
                        if let Some(t) = moved {
                            retention_of(inner, src, cur)
                                .lock()
                                .expect("retention lock poisoned")
                                .adopt(*transfer, t, false);
                        }
                    }
                }
                None => {}
            }
            handle_net_msg(inner, src, cur, msg);
            return;
        }
    }
    if inner.nodes[dst_node].down.load(Ordering::SeqCst) {
        inner
            .counters
            .frames_lost_to_crashes
            .fetch_add(1, Ordering::Relaxed);
        return;
    }
    match msg {
        // `src` acknowledged (a mark of) a transfer *we* sent on the
        // directed link `dst_node → src`.
        ack @ (NetMsg::AckMark { .. } | NetMsg::AckComplete { .. }) => {
            apply_ack(inner, dst_node, src, ack);
        }
        // The client collected or abandoned the request.
        NetMsg::Release { req } => purge_request(inner, req),
        NetMsg::Whole {
            req,
            edge,
            key,
            transfer,
            payload,
        } => {
            deliver(inner, dst_node, ReqId(req), edge, key, payload);
            ack(inner, src, dst_node, NetMsg::AckComplete { transfer });
        }
        NetMsg::Chunk {
            req,
            edge,
            key,
            transfer,
            offset,
            total,
            bytes,
        } => {
            ensure_seeded(inner, dst_node, req);
            let progress = inner.nodes[dst_node].sink.with(req, |rs| {
                let Some(rs) = rs else {
                    return ChunkProgress::Orphan;
                };
                if rs.done.contains(&(edge, transfer)) {
                    // Late duplicate/retransmission of a finished
                    // transfer: ack it away instead of re-creating a
                    // ghost reassembler that could never complete.
                    return ChunkProgress::Orphan;
                }
                let r = rs
                    .partial
                    .entry((edge, transfer))
                    .or_insert_with(|| crate::fabric::Reassembler::new(total));
                // Zero-copy fast path: in-order views of one
                // allocation are rejoined without a memcpy.
                r.write_bytes(offset, bytes);
                if r.complete() {
                    rs.done.insert((edge, transfer));
                    match rs.partial.remove(&(edge, transfer)) {
                        Some(r) => ChunkProgress::Complete(r.into_bytes()),
                        None => ChunkProgress::Orphan,
                    }
                } else {
                    ChunkProgress::Prefix(r.contiguous_prefix())
                }
            });
            match progress {
                ChunkProgress::Orphan => {
                    ack(inner, src, dst_node, NetMsg::AckComplete { transfer })
                }
                ChunkProgress::Complete(payload) => {
                    deliver(inner, dst_node, ReqId(req), edge, key, payload);
                    ack(inner, src, dst_node, NetMsg::AckComplete { transfer });
                }
                ChunkProgress::Prefix(prefix) => {
                    // Ack the last checkpoint mark the contiguous prefix
                    // crossed: everything below it is §6.2-durable and
                    // leaves the sender's retention window.
                    let interval = inner.cfg.checkpoint_interval_bytes;
                    let mark = (prefix / interval) * interval;
                    if mark > 0 {
                        ack(inner, src, dst_node, NetMsg::AckMark { transfer, mark });
                    }
                }
            }
        }
    }
}

/// Enqueues `msg` on this wire endpoint's outbound link toward the remote
/// endpoint `dst`, where the transport's link agent picks it up. Dropped
/// once shutdown cleared the link rows.
fn wire_send(inner: &Inner, w: &WireState, dst: usize, msg: NetMsg) {
    let Some(links) = inner.link_row(w.local) else {
        return;
    };
    let Some(tx) = links.get(dst).and_then(|t| t.as_ref()) else {
        return;
    };
    // The agent takes every data frame it dequeues off the gauge.
    let data = matches!(msg, NetMsg::Whole { .. } | NetMsg::Chunk { .. });
    if data {
        depth_of(inner, w.local, dst).fetch_add(1, Ordering::Relaxed);
    }
    if tx.send(msg).is_err() && data {
        depth_of(inner, w.local, dst).fetch_sub(1, Ordering::Relaxed);
    }
}

/// Re-delivers one recovery frame (a restart replay, a retransmission or
/// a relocation re-send) on the link `src → dst`. When this process
/// serves `dst` the frame goes straight into the ingress — it skipped
/// the shipper, so it pays the link's serialization delay here, which is
/// why recovery latency scales with the re-sent volume the checkpoint
/// interval bounds. A remote endpoint gets it through the outbound wire
/// queue like any other frame.
pub(crate) fn emit(inner: &Inner, src: usize, dst: usize, msg: NetMsg) {
    match &inner.wire {
        Some(w) if dst != w.local => wire_send(inner, w, dst, msg),
        _ => {
            if let Some(bw) = inner.cfg.link.bandwidth_bytes_per_sec {
                if bw > 0.0 && src != dst && !inner.shutdown.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_secs_f64(msg.wire_bytes() as f64 / bw));
                }
            }
            handle_net_msg(inner, src, dst, msg);
        }
    }
}

/// Acknowledges a transfer on the link `src → dst` back to its sender —
/// the return path of the §6.2 checkpoint protocol: a completion ack
/// releases the sender's retention entry for a fully delivered (or
/// orphaned) transfer, a mark ack trims it to the durable mark. When
/// the sender's retention window lives in this process the ack is a
/// direct call into it; when the sender is another OS process the ack
/// becomes a frame enqueued back over the wire.
fn ack(inner: &Inner, src: usize, dst: usize, ack: NetMsg) {
    if inner.cfg.recovery.is_none() {
        return;
    }
    match &inner.wire {
        Some(w) if src != w.local => wire_send(inner, w, src, ack),
        _ => apply_ack(inner, src, dst, ack),
    }
}

/// Applies an ack to the local retention window of the directed link
/// `src → dst` (`src` is the sender — in wire mode, this process),
/// counting the checkpoint marks a mark ack crossed.
fn apply_ack(inner: &Inner, src: usize, dst: usize, ack: NetMsg) {
    if inner.cfg.recovery.is_none() {
        return;
    }
    let mut window = retention_of(inner, src, dst)
        .lock()
        .expect("retention lock poisoned");
    match ack {
        NetMsg::AckComplete { transfer } => {
            window.ack_complete(transfer);
        }
        NetMsg::AckMark { transfer, mark } => {
            if let Some(prev) = window.ack_mark(transfer, mark) {
                let cp = CheckpointSchedule::new(inner.cfg.checkpoint_interval_bytes as f64);
                inner.counters.acked_marks.fetch_add(
                    cp.marks_crossed(prev as f64, mark as f64),
                    Ordering::Relaxed,
                );
            }
        }
        NetMsg::Whole { .. } | NetMsg::Chunk { .. } | NetMsg::Release { .. } => {}
    }
}

/// Deterministic per-request switch resolution, identical in every
/// process of a cluster: the active graph is a pure function of the
/// workflow and the request id.
pub(crate) fn resolve_active(wf: &Workflow, req: u64) -> Arc<ActiveGraph> {
    Arc::new(wf.resolve_switches(|group, n| ((req ^ group as u64) % n as u64) as usize))
}

/// The node currently hosting the target function of a data frame, per
/// the live placement — `None` for ack frames and client-output frames
/// (whose destination is an endpoint, not a function).
fn frame_target_node(inner: &Inner, msg: &NetMsg) -> Option<usize> {
    let edge = match msg {
        NetMsg::Whole { edge, .. } | NetMsg::Chunk { edge, .. } => *edge,
        _ => return None,
    };
    match inner.workflow.edge(edge).target {
        Endpoint::Function(t) => Some(inner.node_of(&inner.workflow.function(t).name)),
        Endpoint::Client => None,
    }
}

/// Bytes queued in (or draining from) the DLU queues of the functions
/// the live placement currently puts on `node` — the orchestrator's
/// pressure gauge for relocation targets.
pub(crate) fn node_pressure_of(inner: &Inner, node: usize) -> u64 {
    let placement = inner.placement.read().expect("placement lock poisoned");
    inner
        .scale
        .iter()
        .filter(|(name, _)| placement.node_of(name) == node)
        .map(|(_, s)| s.backlog_bytes.load(Ordering::Relaxed))
        .sum()
}

/// The missing-input counts `node_id` tracks for one request: one entry
/// per hosted active function, counting its active input edges.
fn missing_for(inner: &Inner, node_id: usize, active: &ActiveGraph) -> HashMap<FnId, usize> {
    let wf = &inner.workflow;
    let mut missing = HashMap::new();
    for f in wf.function_ids() {
        let name = &wf.function(f).name;
        if inner.node_of(name) != node_id || !active.function_active(f) {
            continue;
        }
        let count = wf
            .inputs(f)
            .iter()
            .filter(|e| active.edge_active(**e))
            .count();
        missing.insert(f, count);
    }
    missing
}

/// A fresh per-node sink record for one request — what
/// [`ClusterRuntime::invoke`] seeds eagerly and the wire-mode ingress
/// seeds lazily on first frame arrival.
pub(crate) fn seed_req_state(
    inner: &Inner,
    node_id: usize,
    active: &Arc<ActiveGraph>,
) -> NodeReqState {
    NodeReqState {
        active: Arc::clone(active),
        missing: missing_for(inner, node_id, active),
        entries: HashMap::new(),
        partial: HashMap::new(),
        done: HashSet::new(),
    }
}

/// Wire-mode lazy request seeding: only the client endpoint sees
/// `invoke`, so the first data frame of a request must create the local
/// sink state the in-process runtime seeds eagerly. Runs under one
/// stripe-lock acquisition ([`crate::ShardedSink::with_or_insert`]) so a
/// concurrent purge cannot race the insert; a request the client already
/// collected is left unseeded — its late frames fall through the
/// existing orphan handling and get acked away. In-process (`wire ==
/// None`) this is a no-op.
fn ensure_seeded(inner: &Inner, node_id: usize, req: u64) {
    let Some(w) = &inner.wire else {
        return;
    };
    if w.purged.lock().expect("purged lock poisoned").contains(req) {
        return;
    }
    inner.nodes[node_id].sink.with_or_insert(
        req,
        || {
            let active = resolve_active(&inner.workflow, req);
            seed_req_state(inner, node_id, &active)
        },
        |_| (),
    );
}

/// Drops everything this process tracks for a collected or abandoned
/// request: its sink state on every local endpoint (leftover entries of
/// switched-off branches, reassembly buffers) and — in retain-acked mode,
/// which parks completed transfers for relocation replay instead of
/// freeing them on ack — its retained transfers. A wire endpoint also
/// remembers the id so late frames cannot re-seed it, and the client
/// endpoint of a TCP cluster passes the release on: one `Release` frame
/// per worker on the outbound link queue, which leaves in the link
/// agent's next staged burst — `wait`/`forget` never round-trip to a
/// worker. A worker the coordinator knows is dead (`down`: killed and not
/// yet restarted) has nothing to release and is skipped, so releases
/// cannot fill its link queue and block the client (the agent toward a
/// `lost` worker drains its queue without shipping).
pub(crate) fn purge_request(inner: &Inner, req: u64) {
    if let Some(w) = &inner.wire {
        w.purged.lock().expect("purged lock poisoned").insert(req);
    }
    for node in &inner.nodes {
        node.sink.remove(req);
    }
    if inner.cfg.orchestrator && inner.cfg.recovery.is_some() {
        for r in inner.retention.iter() {
            r.lock().expect("retention lock poisoned").purge_req(req);
        }
    }
    if let Some(w) = inner.wire.as_ref().filter(|w| w.local == w.client) {
        for (worker, node) in inner.nodes[..w.client].iter().enumerate() {
            if !node.down.load(Ordering::SeqCst) {
                wire_send(inner, w, worker, NetMsg::Release { req });
            }
        }
    }
}

/// Takes `node` down (§6.2 data-plane crash) and rolls its in-flight
/// reassembly state back to the last checkpoint mark of each stream.
/// See [`ClusterRuntime::crash_node`].
fn crash_node_inner(inner: &Inner, node: usize) -> CrashReport {
    let mut report = CrashReport {
        node,
        was_up: false,
        inflight_transfers: 0,
        durable_bytes: 0,
    };
    if inner.nodes[node].down.swap(true, Ordering::SeqCst) {
        return report; // already down
    }
    report.was_up = true;
    inner.counters.node_crashes.fetch_add(1, Ordering::Relaxed);
    inner.trace_with(|| TraceEventKind::Crash { node: node as u32 });
    let interval = inner.cfg.checkpoint_interval_bytes;
    inner.nodes[node].sink.for_each_mut(|_, rs| {
        for r in rs.partial.values_mut() {
            report.inflight_transfers += 1;
            let mark = (r.contiguous_prefix() / interval) * interval;
            r.rollback_to(mark);
            report.durable_bytes += mark as u64;
        }
    });
    report
}

/// Brings a crashed node back and (with recovery enabled) replays every
/// incomplete inbound transfer from the senders' retention windows.
/// See [`ClusterRuntime::restart_node`].
fn restart_node_inner(inner: &Inner, node: usize) {
    if inner.nodes[node].lost.load(Ordering::SeqCst) {
        return; // declared permanently lost: its functions moved away
    }
    if !inner.nodes[node].down.swap(false, Ordering::SeqCst) {
        return; // not down
    }
    inner.counters.node_restarts.fetch_add(1, Ordering::Relaxed);
    inner.trace_with(|| TraceEventKind::Restart { node: node as u32 });
    if inner.cfg.recovery.is_some() {
        replay_links_into(inner, node, None);
    }
}

/// The source endpoints whose outbound retention windows live in this
/// process: every node in-process, only the local endpoint over the wire.
pub(crate) fn retention_sources(inner: &Inner) -> std::ops::Range<usize> {
    match &inner.wire {
        Some(w) => w.local..w.local + 1,
        None => 0..inner.nodes.len(),
    }
}

/// Books one replay sweep into the recovery counters — as a retransmit
/// when it swept ack-stale transfers only, as a recovery otherwise — and
/// hands back the frames to re-send.
pub(crate) fn account_replay(inner: &Inner, summary: ReplaySummary, stale: bool) -> Vec<NetMsg> {
    let c = &inner.counters;
    if stale {
        c.retransmitted_transfers
            .fetch_add(summary.transfers, Ordering::Relaxed);
    } else {
        c.recovered_transfers
            .fetch_add(summary.transfers, Ordering::Relaxed);
        c.resumed_from_mark_bytes
            .fetch_add(summary.resumed_from_mark_bytes, Ordering::Relaxed);
    }
    let bytes: usize = summary.frames.iter().map(NetMsg::wire_bytes).sum();
    c.replayed_frames
        .fetch_add(summary.frames.len() as u64, Ordering::Relaxed);
    c.replayed_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    summary.frames
}

/// The frames the link `src → dst` must re-send: those of every
/// incomplete transfer (`older_than == None`: the destination restarted
/// or reconnected) or of the ack-stale ones only (the retransmit sweep),
/// each resuming from its last acknowledged checkpoint mark. Frames stay
/// retained until acked, so a replay lost to another fault is replayed
/// again.
pub(crate) fn take_replay(
    inner: &Inner,
    src: usize,
    dst: usize,
    older_than: Option<Duration>,
) -> Vec<NetMsg> {
    let summary = retention_of(inner, src, dst)
        .lock()
        .expect("retention lock poisoned")
        .replay(Instant::now(), older_than);
    account_replay(inner, summary, older_than.is_some())
}

/// Replays retained frames into `dst` from every local retention window
/// toward it (see [`take_replay`]). Self-links included: local sends
/// never retain, but relocation drags a retention entry onto `src → src`
/// when the function moved to the sender's own node, and those entries
/// starve without a retransmit scan.
fn replay_links_into(inner: &Inner, dst: usize, older_than: Option<Duration>) {
    for src in retention_sources(inner) {
        for msg in take_replay(inner, src, dst, older_than) {
            emit(inner, src, dst, msg);
        }
    }
}

/// The recovery daemon: a per-process background thread that executes
/// fault-plan restarts once their outage elapsed, and retransmits
/// transfers whose acks never arrived — frames lost to chaos drops, to a
/// killed peer's kernel buffers or to a torn connection. Sleeps on
/// the shutdown condvar like the janitors, so teardown never waits out a
/// tick.
fn recovery_daemon(inner: Arc<Inner>) {
    let max_tick = Duration::from_millis(25);
    let tick = inner.cfg.recovery.map_or(max_tick, |timeout| {
        (timeout / 2).clamp(Duration::from_millis(1), max_tick)
    });
    while !inner.wait_shutdown(tick) {
        if let Some(fs) = &inner.faults {
            for node in fs.take_due_restarts(Instant::now()) {
                restart_node_inner(&inner, node);
            }
        }
        if let Some(timeout) = inner.cfg.recovery {
            for (dst, node) in inner.nodes.iter().enumerate() {
                if node.lost.load(Ordering::SeqCst) {
                    // Straggler healing: retention that still points at a
                    // permanently lost node (a send raced the relocation)
                    // is re-homed toward the live placement and replayed.
                    orchestrator::rehome_retention(&inner, dst);
                } else if !node.down.load(Ordering::SeqCst) {
                    replay_links_into(&inner, dst, Some(timeout));
                }
            }
        }
    }
}

/// Records one client output of `req` — what `wait` collects. The one
/// completion point of the in-process DLU route and of the client
/// endpoint's wire ingress alike; a second arrival on the same edge is
/// dropped.
fn complete_output(inner: &Inner, req: u64, edge: EdgeId, payload: Bytes) {
    let mut reqs = inner.reqs.lock().expect("runtime lock poisoned");
    let Some(rs) = reqs.get_mut(&req) else {
        return; // collected, abandoned or never invoked
    };
    if !rs.delivered.insert(edge) {
        return;
    }
    let name = inner.workflow.edge(edge).data_name.clone();
    rs.outputs.push((name, payload));
    rs.outputs_missing = rs.outputs_missing.saturating_sub(1);
    if rs.outputs_missing == 0 {
        inner.done.notify_all();
    }
}

/// Inserts data for `edge` into the destination node's sink; triggers the
/// destination FLU when its inputs are complete (proactive release: the
/// inputs leave the sink as the invocation message).
fn deliver(inner: &Inner, dst_node: usize, req: ReqId, edge: EdgeId, key: String, payload: Bytes) {
    /// What one delivery did under the sink stripe lock.
    enum Delivered {
        /// Dropped (untracked request / inactive branch) or parked.
        Done,
        /// Completed the consumer's inputs: trigger its FLU.
        Ready(BTreeMap<String, Bytes>),
        /// The consumer moved off this node after the migration sweep
        /// copied this stripe: un-parked, re-deliver at the new host.
        Moved(SinkEntry),
    }
    let wf = &inner.workflow;
    let e = wf.edge(edge);
    let Endpoint::Function(dst) = e.target else {
        // A client output that came back over the wire.
        return complete_output(inner, req.0, edge, payload);
    };
    let name = &wf.function(dst).name;
    inner.counters.deliveries.fetch_add(1, Ordering::Relaxed);
    ensure_seeded(inner, dst_node, req.0);
    let outcome = inner.nodes[dst_node].sink.with(req.0, |rs| {
        let Some(rs) = rs else {
            return Delivered::Done;
        };
        if !rs.active.edge_active(edge) || !rs.active.function_active(dst) {
            return Delivered::Done;
        }
        // Seed count for a consumer this node's request seeding did not
        // cover — a function relocated here mid-request. (The common
        // path finds the count `seed_req_state` already put there, or
        // the `usize::MAX` sentinel of an already-triggered consumer.)
        let active = &rs.active;
        let late_seed = || {
            wf.inputs(dst)
                .iter()
                .filter(|e| active.edge_active(**e))
                .count()
        };
        let entry = SinkEntry {
            key,
            payload,
            arrived: Instant::now(),
            spilled: false,
        };
        let fresh = rs
            .entries
            .entry(dst)
            .or_default()
            .insert(edge, entry)
            .is_none();
        let missing = rs.missing.entry(dst).or_insert_with(late_seed);
        if fresh && *missing != usize::MAX {
            debug_assert!(*missing > 0, "over-delivery on {edge}");
            *missing -= 1;
        }
        if *missing == 0 {
            // Proactive release: hand all inputs to the FLU and drop them
            // from the sink. The sentinel guards against double-trigger
            // on duplicate final delivery.
            let entries = rs.entries.remove(&dst).unwrap_or_default();
            let mut inputs = BTreeMap::new();
            for (_, entry) in entries {
                inputs.insert(entry.key, entry.payload);
            }
            *missing = usize::MAX;
            return Delivered::Ready(inputs);
        }
        let sentinel = *missing == usize::MAX;
        // Relocation self-heal (in-process): re-check the live placement
        // *after* parking. If the consumer moved off this node, the
        // migration sweep either already copied this stripe (then this
        // entry slipped in behind it) or will copy it later (then it
        // sees the entry) — un-parking here makes both interleavings
        // safe. Wire mode relies on the relocate re-send instead, since
        // a parked entry cannot be handed across processes.
        if inner.wire.is_none() && inner.node_of(name) != dst_node {
            if let Some(entry) = rs.entries.get_mut(&dst).and_then(|m| m.remove(&edge)) {
                if fresh && !sentinel {
                    *rs.missing.get_mut(&dst).expect("seeded above") += 1;
                }
                return Delivered::Moved(entry);
            }
        }
        // The payload parks until its consumer's other inputs land:
        // compact it so a small zero-copy view cannot pin a large
        // parent allocation for the wait (in-flight slices stay
        // zero-copy; only parked ones may pay a copy).
        if let Some(e) = rs.entries.get_mut(&dst).and_then(|m| m.get_mut(&edge)) {
            let parked = std::mem::take(&mut e.payload);
            e.payload = parked.compact();
        }
        Delivered::Done
    });
    match outcome {
        Delivered::Done => {}
        Delivered::Ready(inputs) => {
            submit_invoke(inner, name, req, inputs);
        }
        Delivered::Moved(entry) => {
            inner
                .counters
                .forwarded_frames
                .fetch_add(1, Ordering::Relaxed);
            deliver(
                inner,
                inner.node_of(name),
                req,
                edge,
                entry.key,
                entry.payload,
            );
        }
    }
}

/// The runtime-wide passive-expire sweep: one thread walks every node's
/// sink each tick (stripe at a time, so it never blocks a whole node's
/// data plane the way a single-lock scan would).
fn janitor(inner: Arc<Inner>, ttl: Duration) {
    let tick = ttl.min(Duration::from_millis(50));
    while !inner.wait_shutdown(tick) {
        let now = Instant::now();
        for node in &inner.nodes {
            node.sink.for_each_mut(|_, rs| {
                for entries in rs.entries.values_mut() {
                    for entry in entries.values_mut() {
                        if !entry.spilled && now.duration_since(entry.arrived) >= ttl {
                            // Passive expire: the payload moves to the
                            // function-exclusive disk tier. In-process we
                            // keep the bytes (the "disk") and count the
                            // eviction.
                            entry.spilled = true;
                            inner.counters.spills.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflower_sim::SimRng;
    use dataflower_workflow::{SizeModel, WorkModel, WorkflowBuilder};

    const SMALL: usize = 1024;
    /// Over the 16 KiB direct threshold: a pipe, local or remote.
    const BIG: usize = 64 * 1024;

    /// `src` and `near` on node 0, `far` on node 1: `n` reaches the
    /// co-located consumer, `f` the one across the link, `both` fans out
    /// to the two of them, `out` goes to the client. No body puts; the
    /// tests put through hand-built `src` contexts.
    fn handoff_cluster() -> ClusterRuntimeBuilder {
        let mut b = WorkflowBuilder::new("handoff");
        let src = b.function("src", WorkModel::fixed(0.0));
        let near = b.function("near", WorkModel::fixed(0.0));
        let far = b.function("far", WorkModel::fixed(0.0));
        b.client_input(src, "in", SizeModel::Fixed(8.0));
        b.edge(src, near, "n", SizeModel::Fixed(8.0));
        b.edge(src, far, "f", SizeModel::Fixed(8.0));
        b.edge(src, near, "both", SizeModel::Fixed(8.0));
        b.edge(src, far, "both", SizeModel::Fixed(8.0));
        b.client_output(src, "out", SizeModel::Fixed(8.0));
        b.client_output(near, "near_out", SizeModel::Fixed(8.0));
        b.client_output(far, "far_out", SizeModel::Fixed(8.0));
        ClusterRuntimeBuilder::new(Arc::new(b.build().expect("valid workflow")))
            .placement(Placement::with_nodes(2).assign("far", 1))
            .register("src", |_| {})
            .register("near", |_| {})
            .register("far", |_| {})
    }

    /// A context of `src` for `req` whose DLU queue is `dlu`, not the
    /// node's: what a put queues for the daemon stays where the test can
    /// count it.
    fn src_ctx(inner: &Arc<Inner>, req: ReqId, dlu: &Sender<DluMsg>) -> FluContext {
        FluContext::new(
            Arc::clone(inner),
            req,
            "src".into(),
            BTreeMap::new(),
            dlu.clone(),
            Arc::clone(&inner.scale["src"]),
        )
    }

    /// One put per case — `(data name, put_to target, bytes, hand-off?)`
    /// — each for a request of its own from `seed`. The caller routed iff
    /// `route` counted the put before `put` returned, nothing was queued
    /// and the bytes are off the backlog gauge again; a queued put is
    /// counted by nobody yet and still owes its bytes. Returns the
    /// queued messages with their requests.
    fn assert_who_routes(
        inner: &Arc<Inner>,
        seed: impl Fn() -> ReqId,
        cases: &[(&str, Option<&str>, usize, bool)],
    ) -> Vec<DluMsg> {
        let (dlu, queue) = bounded::<DluMsg>(cases.len());
        let backlog = &inner.scale["src"].backlog_bytes;
        let mut queued = Vec::new();
        for &(data, target, len, handoff) in cases {
            let puts = inner.counters.puts.load(Ordering::Relaxed);
            let owed = backlog.load(Ordering::Relaxed);
            let mut ctx = src_ctx(inner, seed(), &dlu);
            match target {
                None => ctx.put(data, vec![7u8; len]),
                Some(t) => ctx.put_to(data, t, vec![7u8; len]),
            }
            let case = format!("{data} -> {target:?}, {len} B");
            let routed = inner.counters.puts.load(Ordering::Relaxed) - puts;
            let newly = queue.try_drain(&mut queued, 8).expect("sender alive");
            let owes = backlog.load(Ordering::Relaxed) - owed;
            if handoff {
                assert_eq!((routed, newly, owes), (1, 0, 0), "{case}: caller routes");
            } else {
                assert_eq!((routed, newly, owes), (0, 1, len as u64), "{case}: queued");
            }
        }
        queued
    }

    /// The routing rule over payload size x co-location x `PutTarget`
    /// on the in-process fabric: the caller routes iff the put matched
    /// an edge and none of them is a remote pipe. What was queued then
    /// goes through the real daemon loop: it settles the gauge, and the
    /// unmatched name still faults its request.
    #[test]
    fn caller_routes_iff_no_matched_edge_is_a_remote_pipe() {
        let rt = handoff_cluster().start().expect("start");
        let inner = Arc::clone(&rt.inner);
        let queued = assert_who_routes(
            &inner,
            || rt.invoke(vec![("in".into(), Bytes::from_static(b"x"))]),
            &[
                ("n", None, SMALL, true),          // direct socket, same node
                ("n", None, BIG, true),            // local pipe
                ("f", None, SMALL, true),          // direct socket across the link
                ("f", None, BIG, false),           // remote pipe
                ("both", None, SMALL, true),       // two direct sockets
                ("both", None, BIG, false),        // local pipe + remote pipe
                ("both", Some("near"), BIG, true), // the local-pipe branch only
                ("both", Some("far"), BIG, false), // the remote-pipe branch only
                ("out", None, BIG, true),          // in-process client output
                ("nope", None, SMALL, false),      // matches nothing
                ("both", Some("ghost"), SMALL, false),
            ],
        );
        let unmatched = queued
            .iter()
            .find(|m| m.data_name == "nope")
            .map(|m| m.req)
            .expect("queued above");
        let (dlu, queue) = bounded::<DluMsg>(queued.len());
        for msg in queued {
            assert!(dlu.send(msg).is_ok(), "receiver alive");
        }
        drop(dlu);
        dlu_daemon(Arc::clone(&inner), queue);
        assert_eq!(inner.scale["src"].backlog_bytes.load(Ordering::Relaxed), 0);
        let err = rt.wait(unmatched, Duration::from_secs(5)).unwrap_err();
        assert!(
            matches!(&err, RtError::Faulted(m) if m.contains("put unknown data `nope`")),
            "{err:?}"
        );

        // At shutdown a hand-off finds the link rows cleared and a queued
        // put finds the DLU receiver gone: neither may leak its bytes
        // into the gauge.
        let req = rt.invoke(vec![("in".into(), Bytes::from_static(b"x"))]);
        rt.signal_shutdown();
        let (dlu, queue) = bounded::<DluMsg>(1);
        drop(queue);
        let mut ctx = src_ctx(&inner, req, &dlu);
        ctx.put("n", vec![7u8; BIG]);
        ctx.put("f", vec![7u8; BIG]);
        assert_eq!(inner.scale["src"].backlog_bytes.load(Ordering::Relaxed), 0);
        rt.shutdown();
    }

    /// The same rule at a worker endpoint of a TCP cluster: the client
    /// is one more endpoint across a link, so its output is a hand-off
    /// under the threshold and a remote pipe over it; hand-offs land on
    /// the outbound link queues as whole frames.
    #[test]
    fn caller_routes_hand_offs_onto_the_wire() {
        let (rt, out_rx) = handoff_cluster()
            .start_wire(WireSpec { local: 0, epoch: 0 })
            .expect("start worker endpoint");
        let inner = Arc::clone(&rt.inner);
        let next = AtomicU64::new(0);
        let queued = assert_who_routes(
            &inner,
            || {
                let req = next.fetch_add(1, Ordering::Relaxed);
                ensure_seeded(&inner, 0, req);
                ReqId(req)
            },
            &[
                ("n", None, BIG, true),     // local pipe
                ("f", None, SMALL, true),   // direct socket over TCP
                ("f", None, BIG, false),    // remote pipe
                ("out", None, SMALL, true), // direct socket to the client endpoint
                ("out", None, BIG, false),  // remote pipe to the client endpoint
            ],
        );
        assert_eq!(queued.len(), 2);
        for (endpoint, rx) in out_rx.iter().enumerate().skip(1) {
            let mut frames = Vec::new();
            let rx = rx.as_ref().expect("outbound link");
            assert_eq!(rx.try_drain(&mut frames, 8), Ok(1), "endpoint {endpoint}");
            assert!(
                matches!(&frames[0], NetMsg::Whole { payload, .. } if payload.len() == SMALL),
                "endpoint {endpoint}"
            );
        }
        rt.shutdown();
    }

    /// `RtStats` names its fields by hand in `to_vec`, `from_vec` and
    /// `merge` (the worker `stats` RPC payload and its aggregation); a
    /// distinct value per field pins the three orderings to each other.
    #[test]
    fn stats_vector_ordering_roundtrips_every_field() {
        fn distinct(scale: u64) -> RtStats {
            RtStats {
                puts: scale,
                deliveries: 2 * scale,
                invocations: 3 * scale,
                spills: 4 * scale,
                direct_socket_transfers: 5 * scale,
                local_pipe_transfers: 6 * scale,
                remote_pipe_transfers: 7 * scale,
                remote_chunks: 8 * scale,
                remote_checkpoints: 9 * scale,
                remote_bytes: 10 * scale,
                scale_out_events: 11 * scale,
                scale_in_events: 12 * scale,
                acked_marks: 13 * scale,
                node_crashes: 14 * scale,
                node_restarts: 15 * scale,
                frames_lost_to_crashes: 16 * scale,
                chaos_dropped_frames: 17 * scale,
                chaos_duplicated_frames: 18 * scale,
                chaos_delayed_frames: 19 * scale,
                recovered_transfers: 20 * scale,
                replayed_frames: 21 * scale,
                replayed_bytes: 22 * scale,
                resumed_from_mark_bytes: 23 * scale,
                retransmitted_transfers: 24 * scale,
                heartbeats: 25 * scale,
                heartbeat_misses: 26 * scale,
                node_losses: 27 * scale,
                relocated_functions: 28 * scale,
                live_migrations: 29 * scale,
                forwarded_frames: 30 * scale,
                admitted_requests: 31 * scale,
                rejected_requests: 32 * scale,
            }
        }
        let x = distinct(1);
        let v = x.to_vec();
        // Every field exactly once: as many entries as the literal above
        // has fields, no value repeated, none dropped.
        let mut seen = v.clone();
        seen.sort_unstable();
        assert_eq!(seen, (1..=32).collect::<Vec<u64>>());
        assert_eq!(RtStats::from_vec(&v), x);

        let y = distinct(1000);
        let mut sum = x.clone();
        sum.merge(&y);
        assert_eq!(sum, distinct(1001), "merge is the field-wise sum");
        // A shorter vector (an older worker) reads its tail as zero.
        assert_eq!(RtStats::from_vec(&v[..2]).invocations, 0);
    }

    /// The purged-request set against a plain `HashSet` model: ids purged
    /// in an order shuffled within a bounded window must read identically
    /// through `contains`, while the resident entries stay bounded by that
    /// out-of-order window instead of growing with the request count.
    #[test]
    fn purged_set_matches_hashset_model_with_bounded_residency() {
        const WINDOW: u64 = 64;
        const REQUESTS: u64 = 20_000;
        let mut rng = SimRng::seed_from(0x9e37_79b9);
        let mut set = PurgedSet::default();
        let mut model: HashSet<u64> = HashSet::new();
        let mut peak = 0usize;
        for lo in (0..REQUESTS).step_by(WINDOW as usize) {
            // No id is purged more than a window ahead of an unpurged one.
            let mut block: Vec<u64> = (lo..(lo + WINDOW).min(REQUESTS)).collect();
            while !block.is_empty() {
                let id = block.swap_remove(rng.index(block.len()));
                set.insert(id);
                model.insert(id);
                peak = peak.max(set.ahead.len());
                let anywhere = rng.index((lo + 2 * WINDOW) as usize) as u64;
                for probe in [id, id + 1, id.saturating_sub(1), anywhere] {
                    assert_eq!(set.contains(probe), model.contains(&probe), "id {probe}");
                }
            }
        }
        assert_eq!(model.len() as u64, REQUESTS);
        assert_eq!(set.below, REQUESTS);
        assert!(set.ahead.is_empty());
        assert!(
            (1..WINDOW as usize).contains(&peak),
            "{peak} resident entries for a {WINDOW}-wide window"
        );
        // Re-purging below the watermark stays a no-op.
        set.insert(3);
        assert!(set.ahead.is_empty());
    }
}
