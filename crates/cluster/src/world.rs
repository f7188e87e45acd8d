//! The simulated cluster state every orchestration engine operates on.
//!
//! [`World`] owns the event queue, the flow network, the nodes, containers
//! and requests, plus all cost accounting. Engines (the DataFlower engine
//! and the control-flow baselines) mutate the world exclusively through
//! its public methods; the [`Driver`](crate::Driver) pumps events and
//! dispatches them to the engine's [`Orchestrator`](crate::Orchestrator)
//! callbacks.

use std::sync::Arc;

use dataflower_metrics::StepIntegral;
use dataflower_sim::{
    CapacityPool, EventId, EventQueue, ExhaustedError, FlowNet, LinkId, SimDuration, SimRng,
    SimTime, Trace,
};
use dataflower_workflow::{ActiveGraph, FnId, Workflow};

use crate::config::{ContainerSpec, TestbedConfig};
use crate::ids::{ContainerId, NodeId, RequestId, WfId};

/// Lifecycle state of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Cold start in progress; not yet usable.
    Starting,
    /// Warm and free to accept an invocation.
    Idle,
    /// Executing a function (its FLU is busy).
    Busy,
    /// Recycled; kept only for bookkeeping.
    Retired,
}

/// A function container instance placed on a node.
#[derive(Debug, Clone)]
pub struct Container {
    /// This container's id.
    pub id: ContainerId,
    /// Hosting worker node.
    pub node: NodeId,
    /// Workflow the function belongs to.
    pub wf: WfId,
    /// Function this container runs.
    pub func: FnId,
    /// Resource specification.
    pub spec: ContainerSpec,
    state: ContainerState,
    egress: LinkId,
    ingress: LinkId,
    started_at: SimTime,
}

impl Container {
    /// Current lifecycle state.
    pub fn state(&self) -> ContainerState {
        self.state
    }

    /// The container's egress bandwidth-cap link.
    pub fn egress_link(&self) -> LinkId {
        self.egress
    }

    /// The container's ingress bandwidth-cap link.
    pub fn ingress_link(&self) -> LinkId {
        self.ingress
    }

    /// When the container's cold start began.
    pub fn started_at(&self) -> SimTime {
        self.started_at
    }
}

/// One workflow invocation.
#[derive(Debug, Clone)]
pub struct Request {
    /// This request's id (the paper's `RequestID`).
    pub id: RequestId,
    /// Which workflow was invoked.
    pub wf: WfId,
    /// Size of the client payload in bytes.
    pub payload_bytes: f64,
    /// Per-request switch resolution.
    pub active: ActiveGraph,
    /// Arrival time.
    pub arrived: SimTime,
    /// Completion time, when finished.
    pub completed: Option<SimTime>,
    /// Closed-loop client that issued this request, if any.
    pub client: Option<u32>,
    /// Total input bytes accumulated per function (drives work models).
    pub input_bytes: Vec<f64>,
}

impl Request {
    /// End-to-end latency, if the request completed.
    pub fn latency(&self) -> Option<SimDuration> {
        self.completed.map(|c| c.duration_since(self.arrived))
    }
}

/// How a transfer is routed through the cluster (resolved to flow-network
/// links by [`World::transfer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Intra-node move over the local pipe / shared memory path.
    /// `via_container` applies the source container's egress cap (set it
    /// when the data leaves a running container; leave `None` for
    /// host-side moves such as cache loads).
    Local {
        /// The node the move happens on.
        node: NodeId,
        /// Source container whose egress cap throttles the move, if any.
        via_container: Option<ContainerId>,
    },
    /// Cross-node transfer from a container to the destination node's
    /// host-side data sink (DataFlower's remote pipe connector).
    Remote {
        /// Sending container.
        src: ContainerId,
        /// Receiving node.
        dst_node: NodeId,
    },
    /// Cross-node transfer from a host (e.g. SONIC's source-local storage)
    /// into a specific destination container.
    RemoteIntoContainer {
        /// Sending node.
        src_node: NodeId,
        /// Receiving container (its ingress cap applies).
        dst: ContainerId,
    },
    /// Upload from a container to the backend storage node (`Put()`).
    ToStorage {
        /// Sending container.
        src: ContainerId,
    },
    /// Download from the backend storage node into a container (`Get()`).
    FromStorage {
        /// Receiving container.
        dst: ContainerId,
    },
    /// Read from a node's local VM storage into a container — memory
    /// speed when co-located (page cache), or a peer-to-peer fetch that
    /// pays the source disk plus the network when remote (SONIC's
    /// fetch-on-trigger).
    DiskRead {
        /// Node whose disk holds the data.
        src_node: NodeId,
        /// Fetching container.
        dst: ContainerId,
    },
    /// Small-data direct socket (§7: payloads under 16 KiB skip the pipe
    /// connector): fixed latency, no bandwidth modeling.
    Direct,
}

/// Completion notification for a [`World::transfer`], delivered to
/// [`Orchestrator::on_flow_done`](crate::Orchestrator::on_flow_done).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferDone {
    /// The engine-supplied correlation tag.
    pub tag: u64,
    /// Bytes carried.
    pub bytes: f64,
    /// When the transfer was initiated.
    pub started: SimTime,
    /// When the last byte arrived.
    pub at: SimTime,
}

/// What a trigger-trace entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// All inputs of the function became available.
    Ready,
    /// The engine dispatched the function to a container (FLU start).
    Started,
    /// The function's computation finished (FLU end).
    Finished,
}

/// One entry of the trigger trace (Fig. 2c / Fig. 13 instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerRecord {
    /// Request the event belongs to.
    pub req: RequestId,
    /// Workflow of the request.
    pub wf: WfId,
    /// Function concerned.
    pub func: FnId,
    /// What happened.
    pub kind: TriggerKind,
}

/// A usage sample for Fig. 2b style timelines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageSample {
    /// Total cores busy across the cluster.
    pub busy_cores: f64,
    /// Total network rate in bytes per second.
    pub net_rate: f64,
}

#[derive(Debug)]
pub(crate) enum Event {
    Arrival(RequestId),
    ColdStartDone(ContainerId),
    ComputeDone {
        container: ContainerId,
        token: u64,
    },
    EngineTimer {
        token: u64,
    },
    StartFlow {
        path: Vec<LinkId>,
        bytes: f64,
        tag: u64,
    },
    DirectDone {
        tag: u64,
        bytes: f64,
        started: SimTime,
    },
}

#[derive(Debug)]
struct Node {
    cpu: CapacityPool,
    mem: CapacityPool,
    nic_in: LinkId,
    nic_out: LinkId,
    loopback: LinkId,
    disk: LinkId,
}

#[derive(Debug, Clone)]
struct ClientLoop {
    wf: WfId,
    payload: f64,
}

/// The simulated cluster: event queue, network, nodes, containers,
/// requests and accounting.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dataflower_cluster::{TestbedConfig, ContainerSpec, NodeId, World};
/// use dataflower_sim::SimTime;
/// use dataflower_workflow::{SizeModel, WorkModel, WorkflowBuilder};
///
/// let mut b = WorkflowBuilder::new("noop");
/// let f = b.function("f", WorkModel::fixed(0.1));
/// b.client_input(f, "in", SizeModel::Fixed(1024.0));
/// b.client_output(f, "out", SizeModel::Fixed(16.0));
/// let wf = Arc::new(b.build().unwrap());
///
/// let mut world = World::new(TestbedConfig::default());
/// let wf_id = world.add_workflow(wf);
/// let req = world.submit_request(wf_id, 1024.0, SimTime::ZERO);
/// assert_eq!(world.request(req).payload_bytes, 1024.0);
/// ```
#[derive(Debug)]
pub struct World {
    cfg: TestbedConfig,
    now: SimTime,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) net: FlowNet,
    rng: SimRng,
    nodes: Vec<Node>,
    storage_in: LinkId,
    storage_out: LinkId,
    broker_in: LinkId,
    broker_out: LinkId,
    containers: Vec<Container>,
    requests: Vec<Request>,
    workflows: Vec<Arc<Workflow>>,
    clients: Vec<ClientLoop>,
    mem_gb: StepIntegral,
    cache_mb: StepIntegral,
    cpu_busy: StepIntegral,
    triggers: Trace<TriggerRecord>,
    usage: Trace<UsageSample>,
    cold_starts: u64,
}

impl World {
    /// Creates a world from a configuration.
    pub fn new(cfg: TestbedConfig) -> Self {
        let mut net = FlowNet::new();
        let mut nodes = Vec::with_capacity(cfg.workers.len());
        for spec in &cfg.workers {
            nodes.push(Node {
                cpu: CapacityPool::new(spec.cores),
                mem: CapacityPool::new(spec.memory_mb),
                nic_in: net.add_link(spec.nic_bytes_per_sec),
                nic_out: net.add_link(spec.nic_bytes_per_sec),
                loopback: net.add_link(spec.loopback_bytes_per_sec),
                disk: net.add_link(spec.disk_bytes_per_sec),
            });
        }
        let storage_in = net.add_link(cfg.storage.nic_bytes_per_sec);
        let storage_out = net.add_link(cfg.storage.nic_bytes_per_sec);
        let broker_in = net.add_link(cfg.storage.broker_bytes_per_sec);
        let broker_out = net.add_link(cfg.storage.broker_bytes_per_sec);
        let rng = SimRng::seed_from(cfg.seed);
        World {
            cfg,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            net,
            rng,
            nodes,
            storage_in,
            storage_out,
            broker_in,
            broker_out,
            containers: Vec::new(),
            requests: Vec::new(),
            workflows: Vec::new(),
            clients: Vec::new(),
            mem_gb: StepIntegral::new(),
            cache_mb: StepIntegral::new(),
            cpu_busy: StepIntegral::new(),
            triggers: Trace::new(),
            usage: Trace::new(),
            cold_starts: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn set_now(&mut self, t: SimTime) {
        debug_assert!(t >= self.now);
        self.now = t;
    }

    /// The configuration this world was built with.
    pub fn config(&self) -> &TestbedConfig {
        &self.cfg
    }

    /// The seeded random source (engines may draw from it).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Number of worker nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Unreserved cores on `node`.
    pub fn node_cpu_available(&self, node: NodeId) -> f64 {
        self.nodes[node.index()].cpu.available()
    }

    /// Unreserved memory (MB) on `node`.
    pub fn node_mem_available(&self, node: NodeId) -> f64 {
        self.nodes[node.index()].mem.available()
    }

    // ---- workflows & requests -------------------------------------------

    /// Registers a workflow; several may co-run (Fig. 18).
    pub fn add_workflow(&mut self, wf: Arc<Workflow>) -> WfId {
        self.workflows.push(wf);
        WfId::from_index(self.workflows.len() - 1)
    }

    /// The workflow registered as `w`.
    pub fn workflow(&self, w: WfId) -> &Arc<Workflow> {
        &self.workflows[w.index()]
    }

    /// Number of registered workflows.
    pub fn workflow_count(&self) -> usize {
        self.workflows.len()
    }

    /// Submits one invocation of `w` carrying `payload_bytes`, arriving at
    /// `at`. Switch groups are resolved immediately with the world RNG.
    pub fn submit_request(&mut self, w: WfId, payload_bytes: f64, at: SimTime) -> RequestId {
        self.submit_request_inner(w, payload_bytes, at, None)
    }

    fn submit_request_inner(
        &mut self,
        w: WfId,
        payload_bytes: f64,
        at: SimTime,
        client: Option<u32>,
    ) -> RequestId {
        let id = RequestId::from_index(self.requests.len());
        let wf = Arc::clone(&self.workflows[w.index()]);
        let rng = &mut self.rng;
        let active = wf.resolve_switches(|_, n| rng.index(n));
        self.requests.push(Request {
            id,
            wf: w,
            payload_bytes,
            active,
            arrived: at,
            completed: None,
            client,
            input_bytes: vec![0.0; wf.function_count()],
        });
        self.queue.schedule(at, Event::Arrival(id));
        id
    }

    /// Pre-schedules an open-loop (asynchronous) Poisson arrival process:
    /// `rpm` requests per minute for `duration`.
    pub fn schedule_open_loop(
        &mut self,
        w: WfId,
        payload_bytes: f64,
        rpm: f64,
        duration: SimDuration,
    ) {
        assert!(rpm > 0.0, "open-loop rate must be positive");
        let mean_gap = 60.0 / rpm;
        let mut t = 0.0;
        loop {
            t += self.rng.exp(mean_gap);
            if t >= duration.as_secs_f64() {
                break;
            }
            self.submit_request(w, payload_bytes, SimTime::from_micros((t * 1e6) as u64));
        }
    }

    /// Spawns `n` closed-loop (synchronous) clients: each immediately
    /// re-submits when its previous request completes.
    pub fn spawn_clients(&mut self, w: WfId, payload_bytes: f64, n: usize) {
        for i in 0..n {
            let ci = self.clients.len() as u32;
            self.clients.push(ClientLoop {
                wf: w,
                payload: payload_bytes,
            });
            // Stagger starts by a few ms so clients do not arrive as one
            // synchronized burst.
            let jitter = SimDuration::from_micros(i as u64 * 1_733 % 10_000);
            self.submit_request_inner(w, payload_bytes, SimTime::ZERO + jitter, Some(ci));
        }
    }

    /// The request with id `r`.
    pub fn request(&self, r: RequestId) -> &Request {
        &self.requests[r.index()]
    }

    /// Mutable access to a request (engines accumulate `input_bytes`).
    pub fn request_mut(&mut self, r: RequestId) -> &mut Request {
        &mut self.requests[r.index()]
    }

    /// All requests submitted so far.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Marks a request complete, recording latency and waking its
    /// closed-loop client, if any.
    ///
    /// # Panics
    ///
    /// Panics if called twice for the same request.
    pub fn complete_request(&mut self, r: RequestId) {
        let now = self.now;
        let req = &mut self.requests[r.index()];
        assert!(req.completed.is_none(), "request {r} completed twice");
        req.completed = Some(now);
        if let Some(ci) = req.client {
            let ClientLoop { wf, payload } = self.clients[ci as usize].clone();
            self.submit_request_inner(wf, payload, now, Some(ci));
        }
    }

    // ---- containers ------------------------------------------------------

    /// Cold-starts a container for `(wf, func)` on `node`.
    ///
    /// Reserves the node's CPU and memory, creates its bandwidth-cap
    /// links, begins the GB·s accounting and schedules the cold-start
    /// completion (jittered), delivered via
    /// [`Orchestrator::on_cold_start_done`](crate::Orchestrator::on_cold_start_done).
    ///
    /// # Errors
    ///
    /// Returns [`ExhaustedError`] when the node lacks CPU or memory; the
    /// node is left unchanged.
    pub fn start_container(
        &mut self,
        node: NodeId,
        wf: WfId,
        func: FnId,
        spec: ContainerSpec,
    ) -> Result<ContainerId, ExhaustedError> {
        let n = &mut self.nodes[node.index()];
        n.cpu.reserve(spec.cores())?;
        if let Err(e) = n.mem.reserve(spec.memory_mb as f64) {
            n.cpu.release(spec.cores());
            return Err(e);
        }
        let bw = spec.bandwidth_bytes_per_sec();
        let egress = self.net.add_link(bw);
        let ingress = self.net.add_link(bw);
        let id = ContainerId::from_index(self.containers.len());
        self.containers.push(Container {
            id,
            node,
            wf,
            func,
            spec,
            state: ContainerState::Starting,
            egress,
            ingress,
            started_at: self.now,
        });
        self.mem_gb.add(self.now.as_secs_f64(), spec.memory_gb());
        self.cold_starts += 1;
        let jit = self.rng.jitter(self.cfg.cold_start_jitter);
        let delay = SimDuration::from_secs_f64(self.cfg.cold_start.as_secs_f64() * jit);
        self.queue
            .schedule(self.now + delay, Event::ColdStartDone(id));
        Ok(id)
    }

    /// The container with id `c`.
    pub fn container(&self, c: ContainerId) -> &Container {
        &self.containers[c.index()]
    }

    /// All containers ever started.
    pub fn containers(&self) -> &[Container] {
        &self.containers
    }

    /// Recycles an idle container, releasing its resources.
    ///
    /// # Panics
    ///
    /// Panics if the container is busy or still starting — engines must
    /// only recycle idle containers (DataFlower additionally requires the
    /// DLU drained; that check lives in the engine).
    pub fn retire_container(&mut self, c: ContainerId) {
        let now = self.now.as_secs_f64();
        let ctr = &mut self.containers[c.index()];
        assert_eq!(
            ctr.state,
            ContainerState::Idle,
            "retiring container {c} in state {:?}",
            ctr.state
        );
        ctr.state = ContainerState::Retired;
        let (node, spec) = (ctr.node, ctr.spec);
        self.nodes[node.index()].cpu.release(spec.cores());
        self.nodes[node.index()].mem.release(spec.memory_mb as f64);
        self.mem_gb.add(now, -spec.memory_gb());
    }

    /// Starts executing `core_secs` of work on container `c`'s FLU. The
    /// completion (jittered) arrives via
    /// [`Orchestrator::on_compute_done`](crate::Orchestrator::on_compute_done)
    /// with the same `token`.
    ///
    /// # Panics
    ///
    /// Panics unless the container is idle.
    pub fn begin_compute(&mut self, c: ContainerId, core_secs: f64, token: u64) {
        let jit = self.rng.jitter(self.cfg.compute_jitter);
        let ctr = &mut self.containers[c.index()];
        assert_eq!(
            ctr.state,
            ContainerState::Idle,
            "begin_compute on container {c} in state {:?}",
            ctr.state
        );
        ctr.state = ContainerState::Busy;
        let secs = core_secs / ctr.spec.cores() * jit;
        let cores = ctr.spec.cores();
        self.cpu_busy.add(self.now.as_secs_f64(), cores);
        self.queue.schedule(
            self.now + SimDuration::from_secs_f64(secs),
            Event::ComputeDone {
                container: c,
                token,
            },
        );
    }

    pub(crate) fn finish_compute(&mut self, c: ContainerId) {
        let now = self.now.as_secs_f64();
        let ctr = &mut self.containers[c.index()];
        debug_assert_eq!(ctr.state, ContainerState::Busy);
        ctr.state = ContainerState::Idle;
        let cores = ctr.spec.cores();
        self.cpu_busy.add(now, -cores);
    }

    pub(crate) fn finish_cold_start(&mut self, c: ContainerId) {
        let ctr = &mut self.containers[c.index()];
        debug_assert_eq!(ctr.state, ContainerState::Starting);
        ctr.state = ContainerState::Idle;
    }

    // ---- timers & transfers ---------------------------------------------

    /// Schedules an engine timer delivered via
    /// [`Orchestrator::on_timer`](crate::Orchestrator::on_timer) with
    /// `token` after `delay`.
    pub fn timer(&mut self, delay: SimDuration, token: u64) -> EventId {
        self.queue
            .schedule(self.now + delay, Event::EngineTimer { token })
    }

    /// Cancels a pending timer; returns whether it was still pending.
    pub fn cancel_timer(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Starts a data transfer along `route`; completion arrives via
    /// [`Orchestrator::on_flow_done`](crate::Orchestrator::on_flow_done)
    /// with the same `tag`.
    ///
    /// Route-kind default setup delays apply (storage op latency, pipe
    /// establishment, direct-socket latency).
    pub fn transfer(&mut self, route: Route, bytes: f64, tag: u64) {
        let (path, delay) = match route {
            Route::Direct => {
                self.queue.schedule(
                    self.now + self.cfg.direct_latency,
                    Event::DirectDone {
                        tag,
                        bytes,
                        started: self.now,
                    },
                );
                return;
            }
            Route::Local {
                node,
                via_container,
            } => {
                let mut path = Vec::with_capacity(2);
                if let Some(c) = via_container {
                    path.push(self.containers[c.index()].egress);
                }
                path.push(self.nodes[node.index()].loopback);
                (path, SimDuration::ZERO)
            }
            Route::Remote { src, dst_node } => {
                // Cross-node pipe connectors stream through the Kafka
                // broker node (§8: the storage node is replaced with one
                // Kafka node for DataFlower).
                let ctr = &self.containers[src.index()];
                (
                    vec![
                        ctr.egress,
                        self.nodes[ctr.node.index()].nic_out,
                        self.broker_in,
                        self.broker_out,
                        self.nodes[dst_node.index()].nic_in,
                    ],
                    self.cfg.pipe_setup_latency,
                )
            }
            Route::RemoteIntoContainer { src_node, dst } => {
                let ctr = &self.containers[dst.index()];
                (
                    vec![
                        self.nodes[src_node.index()].nic_out,
                        self.nodes[ctr.node.index()].nic_in,
                        ctr.ingress,
                    ],
                    self.cfg.pipe_setup_latency,
                )
            }
            Route::ToStorage { src } => {
                let ctr = &self.containers[src.index()];
                (
                    vec![
                        ctr.egress,
                        self.nodes[ctr.node.index()].nic_out,
                        self.storage_in,
                    ],
                    self.cfg.storage.op_latency,
                )
            }
            Route::FromStorage { dst } => {
                let ctr = &self.containers[dst.index()];
                (
                    vec![
                        self.storage_out,
                        self.nodes[ctr.node.index()].nic_in,
                        ctr.ingress,
                    ],
                    self.cfg.storage.op_latency,
                )
            }
            Route::DiskRead { src_node, dst } => {
                let ctr = &self.containers[dst.index()];
                let path = if src_node == ctr.node {
                    // Page-cache hit: memory-speed local read (container
                    // TC shapes network traffic only).
                    vec![self.nodes[src_node.index()].loopback]
                } else {
                    // Cold peer-to-peer fetch: source disk + both NICs.
                    vec![
                        self.nodes[src_node.index()].disk,
                        self.nodes[src_node.index()].nic_out,
                        self.nodes[ctr.node.index()].nic_in,
                        ctr.ingress,
                    ]
                };
                (path, self.cfg.pipe_setup_latency)
            }
        };
        if delay.is_zero() {
            self.net.start_flow(self.now, &path, bytes, tag);
        } else {
            self.queue
                .schedule(self.now + delay, Event::StartFlow { path, bytes, tag });
        }
    }

    // ---- accounting ------------------------------------------------------

    /// Adds `bytes` to the host-side intermediate-data cache accounting
    /// (the Wait-Match memory / FaaSFlow cache of Fig. 14).
    pub fn cache_add(&mut self, bytes: f64) {
        self.cache_mb.add(self.now.as_secs_f64(), bytes / 1e6);
    }

    /// Removes `bytes` from the host cache accounting.
    pub fn cache_remove(&mut self, bytes: f64) {
        self.cache_mb.add(self.now.as_secs_f64(), -(bytes / 1e6));
    }

    /// Current bytes resident in host caches (MB).
    pub fn cache_resident_mb(&self) -> f64 {
        self.cache_mb.current()
    }

    /// Records a trigger-trace entry (no-op unless
    /// [`TestbedConfig::trace_triggers`] is set).
    pub fn note_trigger(&mut self, rec: TriggerRecord) {
        if self.cfg.trace_triggers {
            self.triggers.record(self.now, rec);
        }
    }

    /// The recorded trigger trace.
    pub fn trigger_trace(&self) -> &Trace<TriggerRecord> {
        &self.triggers
    }

    /// The recorded usage trace (Fig. 2b).
    pub fn usage_trace(&self) -> &Trace<UsageSample> {
        &self.usage
    }

    pub(crate) fn sample_usage(&mut self) {
        if self.cfg.trace_usage {
            let sample = UsageSample {
                busy_cores: self.cpu_busy.current(),
                net_rate: self.net.total_rate(),
            };
            self.usage.record(self.now, sample);
        }
    }

    /// Container-memory integral so far, GB·s, evaluated at `end`.
    pub fn memory_gb_s(&self, end: SimTime) -> f64 {
        self.mem_gb.finish(end.as_secs_f64())
    }

    /// Host-cache integral so far, MB·s, evaluated at `end`.
    pub fn cache_mb_s(&self, end: SimTime) -> f64 {
        self.cache_mb.finish(end.as_secs_f64())
    }

    /// Busy-CPU integral so far, core·s, evaluated at `end`.
    pub fn cpu_core_s(&self, end: SimTime) -> f64 {
        self.cpu_busy.finish(end.as_secs_f64())
    }

    /// Total cold starts performed.
    pub fn cold_start_count(&self) -> u64 {
        self.cold_starts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflower_workflow::{SizeModel, WorkModel, WorkflowBuilder};

    fn tiny_workflow() -> Arc<Workflow> {
        let mut b = WorkflowBuilder::new("tiny");
        let f = b.function("f", WorkModel::fixed(0.1));
        b.client_input(f, "in", SizeModel::Fixed(1024.0));
        b.client_output(f, "out", SizeModel::Fixed(16.0));
        Arc::new(b.build().unwrap())
    }

    fn world() -> (World, WfId) {
        let mut w = World::new(TestbedConfig::default());
        let wf = w.add_workflow(tiny_workflow());
        (w, wf)
    }

    #[test]
    fn container_lifecycle_accounting() {
        let (mut w, wf) = world();
        let f = w.workflow(wf).function_by_name("f").unwrap();
        let node = NodeId::from_index(0);
        let cpu0 = w.node_cpu_available(node);
        let c = w
            .start_container(node, wf, f, ContainerSpec::default())
            .unwrap();
        assert_eq!(w.container(c).state(), ContainerState::Starting);
        assert!(w.node_cpu_available(node) < cpu0);
        w.finish_cold_start(c);
        assert_eq!(w.container(c).state(), ContainerState::Idle);
        w.retire_container(c);
        assert_eq!(w.container(c).state(), ContainerState::Retired);
        assert_eq!(w.node_cpu_available(node), cpu0);
        assert_eq!(w.cold_start_count(), 1);
    }

    #[test]
    fn placement_failure_leaves_node_clean() {
        let (mut w, wf) = world();
        let f = w.workflow(wf).function_by_name("f").unwrap();
        let node = NodeId::from_index(0);
        let huge = ContainerSpec::with_memory_mb(128 * 1024); // 12.8 cores, 128 GB
        let err = w.start_container(node, wf, f, huge).unwrap_err();
        assert!(err.requested > err.available);
        assert_eq!(w.node_mem_available(node), 64.0 * 1024.0);
        assert_eq!(w.node_cpu_available(node), 16.0);
    }

    #[test]
    #[should_panic(expected = "begin_compute")]
    fn compute_requires_idle() {
        let (mut w, wf) = world();
        let f = w.workflow(wf).function_by_name("f").unwrap();
        let c = w
            .start_container(NodeId::from_index(0), wf, f, ContainerSpec::default())
            .unwrap();
        w.begin_compute(c, 0.1, 0); // still Starting → panic
    }

    #[test]
    fn request_bookkeeping() {
        let (mut w, wf) = world();
        let r = w.submit_request(wf, 2048.0, SimTime::from_secs(1));
        assert_eq!(w.request(r).arrived, SimTime::from_secs(1));
        assert!(w.request(r).latency().is_none());
        w.set_now(SimTime::from_secs(3));
        w.complete_request(r);
        assert_eq!(w.request(r).latency().unwrap(), SimDuration::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let (mut w, wf) = world();
        let r = w.submit_request(wf, 1.0, SimTime::ZERO);
        w.complete_request(r);
        w.complete_request(r);
    }

    #[test]
    fn closed_loop_resubmits() {
        let (mut w, wf) = world();
        w.spawn_clients(wf, 100.0, 2);
        assert_eq!(w.requests().len(), 2);
        let first = w.requests()[0].id;
        w.set_now(SimTime::from_secs(1));
        w.complete_request(first);
        assert_eq!(w.requests().len(), 3, "client resubmitted");
        assert_eq!(w.requests()[2].client, Some(0));
    }

    #[test]
    fn open_loop_schedules_poisson_arrivals() {
        let (mut w, wf) = world();
        w.schedule_open_loop(wf, 100.0, 600.0, SimDuration::from_secs(60));
        // 600 rpm for 60 s ≈ 600 arrivals; allow generous tolerance.
        let n = w.requests().len();
        assert!((450..=750).contains(&n), "n={n}");
        assert!(w
            .requests()
            .iter()
            .all(|r| r.arrived < SimTime::from_secs(60)));
    }

    #[test]
    fn cache_accounting_integrates() {
        let (mut w, _) = world();
        w.cache_add(2e6); // 2 MB at t=0
        w.set_now(SimTime::from_secs(5));
        w.cache_remove(2e6);
        assert!((w.cache_mb_s(SimTime::from_secs(10)) - 10.0).abs() < 1e-9);
        assert_eq!(w.cache_resident_mb(), 0.0);
    }

    #[test]
    fn memory_integral_counts_containers() {
        let (mut w, wf) = world();
        let f = w.workflow(wf).function_by_name("f").unwrap();
        let c = w
            .start_container(NodeId::from_index(0), wf, f, ContainerSpec::default())
            .unwrap();
        w.finish_cold_start(c);
        // 0.125 GB for 8 s = 1 GB·s.
        w.set_now(SimTime::from_secs(8));
        w.retire_container(c);
        assert!((w.memory_gb_s(SimTime::from_secs(8)) - 1.0).abs() < 1e-9);
    }
}
