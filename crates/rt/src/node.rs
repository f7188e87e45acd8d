//! Per-node state of the multi-node live runtime: the placement map, one
//! [`NodeRuntime`] per simulated worker node, and the node-local data
//! sink the DLU routes into.
//!
//! Each node owns an FLU scheduler
//! ([`NodeScheduler`](crate::NodeScheduler)) executing the functions
//! placed on it, one merged DLU daemon thread streaming their
//! remote-pipe `put`s (hand-off puts are routed by the FLU thread that
//! made them — `runtime::PutPlan::is_handoff` states the rule), its own
//! Wait-Match data sink (inbound payloads keyed by `(request,
//! function, edge)`), and the reassembly buffers of in-flight
//! remote-pipe transfers; a runtime-wide janitor passively expires
//! unconsumed sink entries — the same anatomy the paper gives a worker
//! node in Fig. 4, shrunk to threads inside one process.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use dataflower_workflow::{ActiveGraph, EdgeId, FnId, Workflow};

use crate::bytes::Bytes;
use crate::fabric::Reassembler;
use crate::sink::ShardedSink;

/// Maps every workflow function to the node that hosts it.
///
/// Functions without an explicit assignment default to node 0, so a
/// freshly created placement is the paper's co-located baseline; spread
/// placements are built with [`Placement::assign`], or generated by a
/// [`PlacementPolicy`] ([`RoundRobin`], [`ByLevel`], [`LoadAware`]).
///
/// # Examples
///
/// ```
/// use dataflower_rt::Placement;
///
/// let p = Placement::with_nodes(3)
///     .assign("split", 0)
///     .assign("work", 1)
///     .assign("merge", 2);
/// assert_eq!(p.node_count(), 3);
/// assert_eq!(p.node_of("work"), 1);
/// assert_eq!(p.node_of("unassigned"), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    nodes: usize,
    map: HashMap<String, usize>,
}

impl Placement {
    /// A placement over `nodes` worker nodes; functions default to
    /// node 0 until assigned.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn with_nodes(nodes: usize) -> Placement {
        assert!(nodes > 0, "a cluster needs at least one node");
        Placement {
            nodes,
            map: HashMap::new(),
        }
    }

    /// Pins function `name` to `node` (builder style).
    pub fn assign(mut self, name: impl Into<String>, node: usize) -> Placement {
        self.map.insert(name.into(), node);
        self
    }

    /// Re-pins function `name` to `node` in place — the mutation the
    /// orchestrator applies to the live placement when it relocates or
    /// migrates a function.
    pub fn reassign(&mut self, name: impl Into<String>, node: usize) {
        self.map.insert(name.into(), node);
    }

    /// The node hosting function `name` (node 0 when unassigned).
    pub fn node_of(&self, name: &str) -> usize {
        self.map.get(name).copied().unwrap_or(0)
    }

    /// Number of worker nodes in the topology.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Validates the placement against `wf`: every assignment must name a
    /// workflow function and a node inside the topology.
    pub(crate) fn validate(&self, wf: &Workflow) -> Result<(), String> {
        for (name, node) in &self.map {
            if wf.function_by_name(name).is_none() {
                return Err(format!("placement names unknown function `{name}`"));
            }
            if *node >= self.nodes {
                return Err(format!(
                    "function `{name}` placed on node {node}, but the topology has {} node(s)",
                    self.nodes
                ));
            }
        }
        Ok(())
    }
}

/// The least-pressured of the `live` node ids, reading one gauge per
/// node id out of `pressure` (missing gauges read as 0) — the ε-CON
/// relocation choice, shared by [`PlacementPolicy::relocate`]'s default
/// and the orchestrator paths that run without a policy.
///
/// # Panics
///
/// Panics if `live` is empty: with no survivors there is nowhere to go.
pub(crate) fn least_pressured(live: &[usize], pressure: &[f64]) -> usize {
    let gauge = |n: &usize| pressure.get(*n).copied().unwrap_or(0.0);
    *live
        .iter()
        .min_by(|a, b| gauge(a).total_cmp(&gauge(b)))
        .expect("relocate needs at least one surviving node")
}

/// A live placement strategy: how functions are laid out at `start()`
/// **and** where they go when their node dies or a migration is asked
/// for — the routing-authority half of the orchestrator control plane.
///
/// The stock layouts are the policy structs [`SingleNode`],
/// [`RoundRobin`], [`ByLevel`] and [`LoadAware`]; a policy given to
/// [`ClusterRuntimeBuilder::policy`](crate::ClusterRuntimeBuilder::policy)
/// additionally steers node-loss relocation at runtime.
///
/// # Examples
///
/// ```
/// use dataflower_rt::{ByLevel, PlacementPolicy};
/// use dataflower_workflow::{SizeModel, WorkModel, WorkflowBuilder};
///
/// let mut b = WorkflowBuilder::new("chain");
/// let a = b.function("a", WorkModel::fixed(0.001));
/// let c = b.function("c", WorkModel::fixed(0.001));
/// b.client_input(a, "in", SizeModel::Fixed(1.0));
/// b.edge(a, c, "mid", SizeModel::Fixed(1.0));
/// b.client_output(c, "out", SizeModel::Fixed(1.0));
/// let wf = b.build().unwrap();
///
/// let p = ByLevel.initial(&wf, 2);
/// assert_eq!(p.node_of("a"), 0);
/// assert_eq!(p.node_of("c"), 1);
/// // Node 0 died; node 2 is idle, node 1 is loaded.
/// assert_eq!(ByLevel.relocate(0, &[1, 2], &[0.0, 9.0, 1.0]), 2);
/// ```
pub trait PlacementPolicy: Send + Sync {
    /// The placement this policy lays `wf` out with on a fresh cluster
    /// of `nodes` worker nodes.
    fn initial(&self, wf: &Workflow, nodes: usize) -> Placement;

    /// Picks the node that inherits one function of the `dead` node.
    /// `live` holds the surviving node ids and `pressure` one gauge per
    /// node of the *full* topology (indexable by node id; dead nodes
    /// included so ids line up). The default routes to the
    /// least-pressured survivor — the ε-CON choice.
    ///
    /// # Panics
    ///
    /// The default implementation panics if `live` is empty: with no
    /// survivors there is nowhere to relocate to.
    fn relocate(&self, dead: usize, live: &[usize], pressure: &[f64]) -> usize {
        let _ = dead;
        least_pressured(live, pressure)
    }
}

/// Everything co-located on one node (the paper's single-worker
/// baseline). `initial` ignores the offered node count and returns a
/// one-node topology.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SingleNode;

impl PlacementPolicy for SingleNode {
    fn initial(&self, _wf: &Workflow, _nodes: usize) -> Placement {
        Placement::with_nodes(1)
    }
}

/// Functions scattered across nodes one by one in topological order —
/// maximally spread, almost every data edge crosses nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin;

impl PlacementPolicy for RoundRobin {
    fn initial(&self, wf: &Workflow, nodes: usize) -> Placement {
        let mut p = Placement::with_nodes(nodes);
        for (i, f) in wf.topo_order().iter().enumerate() {
            p.map.insert(wf.function(*f).name.clone(), i % nodes);
        }
        p
    }
}

/// One dependency level per node (level *l* on node *l* mod `nodes`):
/// stages stay co-located, level boundaries cross nodes. The spread the
/// committed bench baselines use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByLevel;

impl PlacementPolicy for ByLevel {
    fn initial(&self, wf: &Workflow, nodes: usize) -> Placement {
        let mut p = Placement::with_nodes(nodes);
        for (level, fns) in wf.levels().iter().enumerate() {
            for f in fns {
                p.map.insert(wf.function(*f).name.clone(), level % nodes);
            }
        }
        p
    }
}

/// Greedy bin-packing over the workflow's modeled per-function cost,
/// optionally seeded with live per-node load figures — one gauge per
/// node, e.g. fabric queue depths or DLU backlogs from
/// [`ClusterRuntime::node_pressure`](crate::ClusterRuntime::node_pressure)
/// — so new function instances land on the least-pressured node.
///
/// Functions are visited in topological order; each is assigned to the
/// node with the smallest accumulated load, which then grows by the
/// function's modeled core-seconds at a 1 MiB reference input. With no
/// seed load this is a pure balance placement; with live figures it
/// biases new work away from busy nodes.
///
/// # Examples
///
/// ```
/// use dataflower_rt::{LoadAware, PlacementPolicy};
/// use dataflower_workflow::{SizeModel, WorkModel, WorkflowBuilder};
///
/// let mut b = WorkflowBuilder::new("pair");
/// let heavy = b.function("heavy", WorkModel::fixed(1.0));
/// let light = b.function("light", WorkModel::fixed(0.1));
/// b.client_input(heavy, "a", SizeModel::Fixed(1.0));
/// b.client_input(light, "b", SizeModel::Fixed(1.0));
/// b.client_output(heavy, "oa", SizeModel::Fixed(1.0));
/// b.client_output(light, "ob", SizeModel::Fixed(1.0));
/// let wf = b.build().unwrap();
///
/// // Node 0 reports pre-existing pressure: the heavy function lands
/// // on node 1, after which node 0 is the lighter bin again.
/// let p = LoadAware::with_base_load(vec![0.5, 0.0]).initial(&wf, 2);
/// assert_eq!(p.node_of("heavy"), 1);
/// assert_eq!(p.node_of("light"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadAware {
    base_load: Vec<f64>,
}

impl LoadAware {
    /// Pure balance placement: every node starts from zero load.
    pub fn idle() -> LoadAware {
        LoadAware::default()
    }

    /// Seeds the bin-packing with one pre-existing load figure per node
    /// (e.g. live DLU backlogs), biasing new work away from busy nodes.
    pub fn with_base_load(base_load: Vec<f64>) -> LoadAware {
        LoadAware { base_load }
    }
}

impl PlacementPolicy for LoadAware {
    /// # Panics
    ///
    /// Panics if a non-empty seed load was given whose length differs
    /// from `nodes`.
    fn initial(&self, wf: &Workflow, nodes: usize) -> Placement {
        const REFERENCE_INPUT_BYTES: f64 = 1024.0 * 1024.0;
        let mut load = if self.base_load.is_empty() {
            vec![0.0; nodes]
        } else {
            self.base_load.clone()
        };
        assert_eq!(
            load.len(),
            nodes,
            "load_aware needs one base-load figure per node"
        );
        let mut p = Placement::with_nodes(nodes);
        for f in wf.topo_order() {
            let def = wf.function(*f);
            let cost = def.work.core_secs(REFERENCE_INPUT_BYTES).max(1e-9);
            let target = (0..nodes)
                .min_by(|a, b| load[*a].total_cmp(&load[*b]))
                .expect("nodes > 0");
            load[target] += cost;
            p.map.insert(def.name.clone(), target);
        }
        p
    }
}

/// One payload parked in a node's data sink.
pub(crate) struct SinkEntry {
    pub payload: Bytes,
    pub arrived: Instant,
    pub spilled: bool,
}

/// A node's view of one in-flight request.
pub(crate) struct NodeReqState {
    /// The request's resolved switch choices (shared across nodes).
    pub active: Arc<ActiveGraph>,
    /// Remaining input edges per *locally hosted* function before it
    /// triggers; `usize::MAX` marks an already-triggered function.
    pub missing: HashMap<FnId, usize>,
    /// Inbound data awaiting its local consumer.
    pub entries: HashMap<FnId, BTreeMap<EdgeId, SinkEntry>>,
    /// Reassembly buffers of in-flight remote-pipe transfers, keyed by
    /// `(edge, transfer id)`.
    pub partial: HashMap<(EdgeId, u64), Reassembler>,
    /// Transfers already reassembled and delivered. A late duplicate or
    /// retransmitted chunk of a finished transfer must not re-create a
    /// ghost reassembler in `partial` (it could never complete, and its
    /// first write would allocate a full transfer-sized buffer); this
    /// set lets the ingress recognize and ack such frames away. Bounded
    /// by the request's transfer count and dropped with the request.
    pub done: std::collections::HashSet<(EdgeId, u64)>,
}

/// Lock stripes of every node's Wait-Match sink. Striping was kept
/// because `Frame::Chunk` ingress runs `Reassembler::write_bytes` inside
/// `sink.with` and that was a chunk memcpy, so a single lock serialised
/// every inbound chunk copy on a node: on `stream_large_3n` it lost
/// `peak_rps` in 7 of 7 pairs (−8 %) and `lat_p99_heavy_ms` in 6 of 7
/// (+5 %) — `reports/pr12-parent-vs-change.md`. The memcpy now only
/// happens on the fallback path (TCP chunks, an in-process stream after
/// a lost or reordered frame); in order and in process `write_bytes` is
/// an O(1) view join. The single-lock re-test is ROADMAP item 8(a).
const SINK_STRIPES: usize = 16;

/// The shared (thread-accessible) state of one node: its lock-striped
/// Wait-Match data sink, keyed by request id, plus the crash flag of the
/// §6.2 fault model. DLU routing lookups, FLU trigger checks, janitor
/// sweeps and depth gauges each lock only the stripe(s) they touch, so
/// concurrent requests do not contend on one node-wide mutex.
pub(crate) struct NodeState {
    pub sink: ShardedSink<NodeReqState>,
    /// True while the node is crashed (data-plane crash: inbound fabric
    /// frames are lost, reassembly past the last checkpoint mark was
    /// discarded). Set by `ClusterRuntime::crash_node` / fault-plan
    /// kills, cleared by `ClusterRuntime::restart_node`.
    pub down: AtomicBool,
    /// Milliseconds since runtime start of the node's last keep-alive
    /// heartbeat (stamped by its in-process responder thread, read by
    /// the orchestrator controller). A crashed node stops stamping.
    pub last_beat: AtomicU64,
    /// True once the orchestrator declared the node permanently lost and
    /// relocated its functions. A lost node is never restarted, and the
    /// recovery daemon re-homes any retention still pointing at it.
    pub lost: AtomicBool,
}

impl NodeState {
    pub fn new() -> NodeState {
        NodeState {
            sink: ShardedSink::new(SINK_STRIPES),
            down: AtomicBool::new(false),
            last_beat: AtomicU64::new(0),
            lost: AtomicBool::new(false),
        }
    }
}

/// One worker node of a [`ClusterRuntime`](crate::ClusterRuntime): the
/// FLU scheduler, merged DLU daemon and data sink of the
/// functions placed on it.
///
/// Nodes are created by
/// [`ClusterRuntimeBuilder::start`](crate::ClusterRuntimeBuilder::start);
/// inspect them through [`ClusterRuntime::node`](crate::ClusterRuntime::node).
pub struct NodeRuntime {
    pub(crate) id: usize,
    pub(crate) functions: Vec<String>,
    pub(crate) state: Arc<NodeState>,
    pub(crate) threads: Vec<JoinHandle<()>>,
}

impl NodeRuntime {
    /// This node's index in the topology.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Names of the workflow functions hosted on this node, in workflow
    /// declaration order.
    pub fn hosted_functions(&self) -> &[String] {
        &self.functions
    }

    /// Number of non-scheduler threads this node owns (its merged DLU
    /// daemon, plus the heartbeat responder under an orchestrator).
    /// Scheduler workers spawn lazily and are owned by the runtime's
    /// [`NodeScheduler`](crate::NodeScheduler)s, not counted here.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// True while this node is crashed (see
    /// [`ClusterRuntime::crash_node`](crate::ClusterRuntime::crash_node)):
    /// inbound fabric frames are being lost and will be replayed from the
    /// senders' retention windows on restart.
    pub fn is_down(&self) -> bool {
        self.state.down.load(Ordering::SeqCst)
    }

    /// Remote-pipe transfers currently mid-reassembly in this node's
    /// sink, across all in-flight requests — the in-flight set a crash
    /// would damage. Sums stripe by stripe, one stripe lock at a time.
    pub fn inflight_transfers(&self) -> usize {
        self.state
            .sink
            .fold(0usize, |acc, _, rs| acc + rs.partial.len())
    }

    /// Payloads currently parked in this node's data sink, waiting for
    /// their consumer's remaining inputs (across all in-flight requests).
    /// Sums stripe by stripe, never holding more than one stripe lock.
    pub fn parked_entries(&self) -> usize {
        self.state.sink.fold(0usize, |acc, _, rs| {
            acc + rs.entries.values().map(BTreeMap::len).sum::<usize>()
        })
    }
}

impl std::fmt::Debug for NodeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRuntime")
            .field("id", &self.id)
            .field("functions", &self.functions)
            .field("threads", &self.threads.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflower_workflow::{SizeModel, WorkModel, WorkflowBuilder};

    fn chain() -> Workflow {
        let mut b = WorkflowBuilder::new("chain");
        let a = b.function("a", WorkModel::fixed(0.001));
        let c = b.function("c", WorkModel::fixed(0.001));
        b.client_input(a, "in", SizeModel::Fixed(1.0));
        b.edge(a, c, "mid", SizeModel::Fixed(1.0));
        b.client_output(c, "out", SizeModel::Fixed(1.0));
        b.build().unwrap()
    }

    #[test]
    fn by_level_spreads_levels() {
        let wf = chain();
        let p = ByLevel.initial(&wf, 2);
        assert_eq!(p.node_of("a"), 0);
        assert_eq!(p.node_of("c"), 1);
    }

    #[test]
    fn round_robin_cycles() {
        let wf = chain();
        let p = RoundRobin.initial(&wf, 2);
        assert_ne!(p.node_of("a"), p.node_of("c"));
    }

    #[test]
    fn single_node_policy_colocates_on_any_topology() {
        let wf = chain();
        let p = SingleNode.initial(&wf, 3);
        assert_eq!(p, Placement::with_nodes(1));
        assert_eq!(p.node_of("a"), p.node_of("c"));
    }

    #[test]
    fn idle_load_aware_is_a_pure_balance_placement() {
        let wf = chain();
        assert_eq!(
            LoadAware::idle().initial(&wf, 2),
            LoadAware::with_base_load(vec![0.0, 0.0]).initial(&wf, 2)
        );
    }

    #[test]
    fn default_relocate_picks_least_pressured_survivor() {
        assert_eq!(ByLevel.relocate(0, &[1, 2, 3], &[9.0, 4.0, 1.0, 2.0]), 2);
        // Ids index the full-topology pressure vector, dead node included.
        assert_eq!(SingleNode.relocate(2, &[0, 1], &[3.0, 0.5, 0.0]), 1);
    }

    #[test]
    #[should_panic(expected = "at least one surviving node")]
    fn relocate_with_no_survivors_panics() {
        ByLevel.relocate(0, &[], &[1.0]);
    }

    #[test]
    fn validate_catches_bad_assignments() {
        let wf = chain();
        assert!(Placement::with_nodes(2)
            .assign("ghost", 0)
            .validate(&wf)
            .is_err());
        assert!(Placement::with_nodes(2)
            .assign("a", 2)
            .validate(&wf)
            .is_err());
        assert!(Placement::with_nodes(2)
            .assign("a", 1)
            .validate(&wf)
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        Placement::with_nodes(0);
    }

    #[test]
    fn load_aware_balances_equal_costs() {
        // Four equal-cost independent functions over two idle nodes:
        // greedy bin-packing alternates, two per node.
        let mut b = WorkflowBuilder::new("flat");
        for k in 0..4 {
            let f = b.function(format!("f{k}"), WorkModel::fixed(0.5));
            b.client_input(f, format!("in{k}"), SizeModel::Fixed(1.0));
            b.client_output(f, format!("out{k}"), SizeModel::Fixed(1.0));
        }
        let wf = b.build().unwrap();
        let p = LoadAware::idle().initial(&wf, 2);
        let on_node0 = (0..4).filter(|k| p.node_of(&format!("f{k}")) == 0).count();
        assert_eq!(on_node0, 2, "equal costs must spread evenly");
        assert!(p.validate(&wf).is_ok());
    }

    #[test]
    fn load_aware_avoids_pressured_nodes() {
        let wf = chain();
        // Node 0 carries heavy live pressure: both functions go to node 1.
        let p = LoadAware::with_base_load(vec![1000.0, 0.0]).initial(&wf, 2);
        assert_eq!(p.node_of("a"), 1);
        assert_eq!(p.node_of("c"), 1);
    }

    #[test]
    #[should_panic(expected = "one base-load figure per node")]
    fn load_aware_rejects_mismatched_base_load() {
        LoadAware::with_base_load(vec![0.0]).initial(&chain(), 2);
    }
}
