//! The control-flow baseline engine.
//!
//! One parameterized engine implements all three comparators (plus the
//! Fig. 19 state machine): a function triggers only when **all its
//! predecessors complete** (optionally in strict topological order with a
//! state-management delay), then runs the sequential
//! `Get() → compute → Put()` cycle of Fig. 1 inside its container. The
//! container is occupied for the whole cycle — CPU idles during I/O and
//! the network idles during compute, the "sequential resource usage" the
//! paper measures in Fig. 2b.

use std::collections::{BTreeMap, VecDeque};

use dataflower_cluster::{
    ContainerId, NodeId, Orchestrator, Placement, RequestId, Route, TransferDone, TriggerKind,
    TriggerRecord, WfId, World,
};
use dataflower_metrics::Samples;
use dataflower_sim::SimTime;
use dataflower_workflow::{EdgeId, Endpoint, FnId};

use crate::config::{ControlFlowConfig, DataPassing};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Token {
    /// The post-predecessor state-management delay elapsed → ready.
    TriggerReady { req: RequestId, func: FnId },
    /// One input `Get()` finished.
    GetDone { req: RequestId, func: FnId },
    /// Compute finished.
    Compute { req: RequestId, func: FnId },
    /// One output `Put()` finished. `edge` identifies the data; client
    /// puts additionally resolve the request's result.
    PutDone {
        req: RequestId,
        func: FnId,
        edge: EdgeId,
        client: bool,
    },
    /// Autoscaler cooldown elapsed: retry dispatch/scale-out for a pool.
    Pump { wf: WfId, func: FnId },
}

#[derive(Debug, Default)]
struct Tokens {
    slab: Vec<Token>,
}

impl Tokens {
    fn mint(&mut self, t: Token) -> u64 {
        self.slab.push(t);
        (self.slab.len() - 1) as u64
    }
    fn get(&self, id: u64) -> Token {
        self.slab[id as usize]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    WaitingPreds,
    Queued,
    Getting,
    Computing,
    Putting,
    Complete,
}

#[derive(Debug)]
struct Invocation {
    preds_missing: usize,
    phase: Phase,
    gets_missing: usize,
    puts_missing: usize,
    /// `(edge, bytes, source node)` for every active input edge.
    pending_inputs: Vec<(EdgeId, f64, Option<NodeId>)>,
    container: Option<ContainerId>,
    get_started: SimTime,
    compute_started: SimTime,
}

#[derive(Debug)]
struct ReqState {
    outputs_missing: usize,
    /// Strict topological trigger pointer (centralized platforms).
    topo_next: usize,
    ready: Vec<bool>,
    triggered: Vec<bool>,
    /// Node-local cache bytes to free when the request completes
    /// (FaaSFlow's per-request cache lifetime).
    cached_bytes: f64,
}

#[derive(Debug)]
struct Pool {
    home: NodeId,
    members: usize,
    idle: VecDeque<ContainerId>,
    starting: usize,
    queue: VecDeque<RequestId>,
    /// Autoscaler ramp: earliest instant the next scale-out may happen.
    next_scale_ok: SimTime,
    /// A cooldown-retry timer is already armed.
    pump_armed: bool,
}

/// Per-function communication/computation breakdown accumulator (Fig. 2a).
#[derive(Debug, Default, Clone)]
pub struct FnBreakdown {
    /// Seconds spent in `Get()`/`Put()` per invocation.
    pub comm: Samples,
    /// Seconds spent computing per invocation.
    pub comp: Samples,
}

/// The control-flow baseline engine (centralized platform, FaaSFlow or
/// SONIC depending on its [`ControlFlowConfig`]).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dataflower_baselines::{ControlFlowConfig, ControlFlowEngine};
/// use dataflower_cluster::{run_to_idle, TestbedConfig, SpreadPlacement, World};
/// use dataflower_sim::SimTime;
/// use dataflower_workflow::{SizeModel, WorkModel, WorkflowBuilder, MB};
///
/// let mut b = WorkflowBuilder::new("two-stage");
/// let a = b.function("a", WorkModel::new(0.02, 0.01));
/// let z = b.function("z", WorkModel::new(0.02, 0.01));
/// b.client_input(a, "in", SizeModel::Fixed(MB));
/// b.edge(a, z, "mid", SizeModel::ScaleOfInput(0.5));
/// b.client_output(z, "out", SizeModel::Fixed(1024.0));
/// let wf = Arc::new(b.build()?);
///
/// let mut world = World::new(TestbedConfig::default());
/// let id = world.add_workflow(wf);
/// world.submit_request(id, MB, SimTime::ZERO);
/// let mut engine = ControlFlowEngine::new(ControlFlowConfig::faasflow(), SpreadPlacement);
/// let report = run_to_idle(&mut world, &mut engine);
/// assert_eq!(report.primary().completed, 1);
/// # Ok::<(), dataflower_workflow::WorkflowError>(())
/// ```
#[derive(Debug)]
pub struct ControlFlowEngine<P> {
    cfg: ControlFlowConfig,
    placement: P,
    tokens: Tokens,
    pools: BTreeMap<(WfId, FnId), Pool>,
    container_pool_key: BTreeMap<ContainerId, (WfId, FnId)>,
    invocations: BTreeMap<(RequestId, FnId), Invocation>,
    requests: BTreeMap<RequestId, ReqState>,
    breakdown: BTreeMap<(WfId, FnId), FnBreakdown>,
    comm_secs_total: f64,
    comm_ops: u64,
}

impl<P: Placement> ControlFlowEngine<P> {
    /// Creates an engine with the given configuration and placement.
    pub fn new(cfg: ControlFlowConfig, placement: P) -> Self {
        ControlFlowEngine {
            cfg,
            placement,
            tokens: Tokens::default(),
            pools: BTreeMap::new(),
            container_pool_key: BTreeMap::new(),
            invocations: BTreeMap::new(),
            requests: BTreeMap::new(),
            breakdown: BTreeMap::new(),
            comm_secs_total: 0.0,
            comm_ops: 0,
        }
    }

    /// Per-function comm/comp breakdown collected so far (Fig. 2a).
    pub fn breakdown(&self) -> impl Iterator<Item = (&(WfId, FnId), &FnBreakdown)> {
        self.breakdown.iter()
    }

    /// Mean seconds per storage/pipe operation (Fig. 19's communication
    /// time), and the operation count.
    pub fn comm_time(&self) -> (f64, u64) {
        if self.comm_ops == 0 {
            (0.0, 0)
        } else {
            (self.comm_secs_total / self.comm_ops as f64, self.comm_ops)
        }
    }

    fn home_node(&mut self, world: &World, wf: WfId, func: FnId) -> NodeId {
        if let Some(pool) = self.pools.get(&(wf, func)) {
            return pool.home;
        }
        let home = self.placement.node_for(world, wf, func);
        self.pools.insert(
            (wf, func),
            Pool {
                home,
                members: 0,
                idle: VecDeque::new(),
                starting: 0,
                queue: VecDeque::new(),
                next_scale_ok: SimTime::ZERO,
                pump_armed: false,
            },
        );
        home
    }

    /// Predecessor `func` of `req` completed: propagate to successors,
    /// applying the state-management trigger overhead.
    fn notify_successors(&mut self, world: &mut World, req: RequestId, func: FnId) {
        let wf = world.request(req).wf;
        let graph = std::sync::Arc::clone(world.workflow(wf));
        let active = world.request(req).active.clone();
        for succ in graph.successors(func) {
            if !active.function_active(succ) {
                continue;
            }
            let inv = self
                .invocations
                .get_mut(&(req, succ))
                .expect("invocation exists");
            debug_assert!(inv.preds_missing > 0);
            inv.preds_missing -= 1;
            if inv.preds_missing == 0 {
                let t = self.tokens.mint(Token::TriggerReady { req, func: succ });
                world.timer(self.cfg.trigger_overhead, t);
            }
        }
    }

    /// A function became ready (all predecessors complete, overhead paid);
    /// apply the in-order gate, then enqueue whatever may trigger.
    fn on_ready(&mut self, world: &mut World, req: RequestId, func: FnId) {
        let wf = world.request(req).wf;
        world.note_trigger(TriggerRecord {
            req,
            wf,
            func,
            kind: TriggerKind::Ready,
        });
        let graph = std::sync::Arc::clone(world.workflow(wf));
        let active = world.request(req).active.clone();
        let state = self.requests.get_mut(&req).expect("request state");
        state.ready[func.index()] = true;
        let mut to_trigger = Vec::new();
        if self.cfg.in_order_triggering {
            // Trigger strictly in topological order: stall until every
            // earlier (active) function has been triggered.
            while state.topo_next < graph.topo_order().len() {
                let f = graph.topo_order()[state.topo_next];
                if !active.function_active(f) {
                    state.topo_next += 1;
                    continue;
                }
                if state.ready[f.index()] && !state.triggered[f.index()] {
                    state.triggered[f.index()] = true;
                    state.topo_next += 1;
                    to_trigger.push(f);
                } else {
                    break;
                }
            }
        } else if !state.triggered[func.index()] {
            state.triggered[func.index()] = true;
            to_trigger.push(func);
        }
        for f in to_trigger {
            self.enqueue(world, req, f);
        }
    }

    fn enqueue(&mut self, world: &mut World, req: RequestId, func: FnId) {
        let wf = world.request(req).wf;
        self.home_node(world, wf, func);
        let inv = self
            .invocations
            .get_mut(&(req, func))
            .expect("invocation exists");
        inv.phase = Phase::Queued;
        let pool = self.pools.get_mut(&(wf, func)).expect("pool ensured");
        pool.queue.push_back(req);
        self.pump(world, wf, func);
    }

    fn pump(&mut self, world: &mut World, wf: WfId, func: FnId) {
        loop {
            let pool = self.pools.get_mut(&(wf, func)).expect("pool exists");
            if pool.queue.is_empty() {
                return;
            }
            let Some(c) = pool.idle.pop_front() else {
                break;
            };
            let req = pool.queue.pop_front().expect("queue non-empty");
            self.start_invocation(world, c, req, func);
        }
        // Scale out for the remaining queue — reactive and rate-limited:
        // at most one cold start per cooldown window per function. A
        // suppressed attempt arms a retry timer.
        let spec = self.cfg.container_spec;
        let max = self.cfg.max_containers_per_function;
        let now = world.now();
        let (want, home, gated) = {
            let pool = self.pools.get_mut(&(wf, func)).expect("pool exists");
            let want = pool.queue.len();
            if want <= pool.starting || pool.members + pool.starting >= max {
                return;
            }
            (want, pool.home, now < pool.next_scale_ok)
        };
        if gated {
            self.arm_pump(world, wf, func);
            return;
        }
        // On Err the node is exhausted; invocations wait for idles.
        if let Ok(c) = world.start_container(home, wf, func, spec) {
            let cooldown = self.cfg.scale_cooldown;
            let pool = self.pools.get_mut(&(wf, func)).expect("pool exists");
            pool.starting += 1;
            pool.next_scale_ok = now + cooldown;
            self.container_pool_key.insert(c, (wf, func));
            if want > pool.starting {
                self.arm_pump(world, wf, func);
            }
        }
    }

    fn arm_pump(&mut self, world: &mut World, wf: WfId, func: FnId) {
        let delay = {
            let pool = self.pools.get_mut(&(wf, func)).expect("pool exists");
            if pool.pump_armed {
                return;
            }
            pool.pump_armed = true;
            pool.next_scale_ok
                .saturating_duration_since(world.now())
                .max(dataflower_sim::SimDuration::from_millis(1))
        };
        let t = self.tokens.mint(Token::Pump { wf, func });
        world.timer(delay, t);
    }

    /// The `Get()` phase: load every input, per the system's data path.
    fn start_invocation(&mut self, world: &mut World, c: ContainerId, req: RequestId, func: FnId) {
        let wf = world.request(req).wf;
        world.note_trigger(TriggerRecord {
            req,
            wf,
            func,
            kind: TriggerKind::Started,
        });
        let dst_node = world.container(c).node;
        let inputs = {
            let inv = self
                .invocations
                .get_mut(&(req, func))
                .expect("invocation exists");
            inv.container = Some(c);
            inv.phase = Phase::Getting;
            inv.get_started = world.now();
            inv.pending_inputs.clone()
        };
        let mut gets = 0usize;
        for (edge, bytes, src_node) in inputs {
            let route = match self.cfg.data_passing {
                DataPassing::BackendStorage => Route::FromStorage { dst: c },
                DataPassing::FaaSFlowHybrid => match src_node {
                    Some(n) if n == dst_node => Route::Local {
                        node: dst_node,
                        via_container: None,
                    },
                    // Cross-node (and user input): backend storage.
                    _ => Route::FromStorage { dst: c },
                },
                DataPassing::SonicLocal => match src_node {
                    // Fetch-on-trigger from the producer host's VM
                    // storage, same-node or peer-to-peer.
                    Some(n) => Route::DiskRead {
                        src_node: n,
                        dst: c,
                    },
                    // User input still comes from backend storage.
                    None => Route::FromStorage { dst: c },
                },
            };
            let tag = self.tokens.mint(Token::GetDone { req, func });
            world.transfer(route, bytes, tag);
            let _ = edge;
            gets += 1;
        }
        let inv = self
            .invocations
            .get_mut(&(req, func))
            .expect("invocation exists");
        inv.gets_missing = gets;
        if gets == 0 {
            self.begin_compute(world, req, func);
        }
    }

    fn begin_compute(&mut self, world: &mut World, req: RequestId, func: FnId) {
        let wf = world.request(req).wf;
        let graph = std::sync::Arc::clone(world.workflow(wf));
        let (c, get_started) = {
            let inv = self
                .invocations
                .get_mut(&(req, func))
                .expect("invocation exists");
            inv.phase = Phase::Computing;
            inv.compute_started = world.now();
            (inv.container.expect("dispatched"), inv.get_started)
        };
        // Record the Get() portion of the communication time.
        let get_secs = world.now().duration_since(get_started).as_secs_f64();
        self.record_comm(wf, func, get_secs);
        let input_bytes = world.request(req).input_bytes[func.index()];
        let work = graph.function(func).work.core_secs(input_bytes);
        let t = self.tokens.mint(Token::Compute { req, func });
        world.begin_compute(c, work, t);
    }

    /// The `Put()` phase after compute.
    fn begin_puts(&mut self, world: &mut World, req: RequestId, func: FnId) {
        let wf = world.request(req).wf;
        let graph = std::sync::Arc::clone(world.workflow(wf));
        let active = world.request(req).active.clone();
        let input_bytes = world.request(req).input_bytes[func.index()];
        let (c, comp_started) = {
            let inv = self
                .invocations
                .get_mut(&(req, func))
                .expect("invocation exists");
            inv.phase = Phase::Putting;
            (inv.container.expect("dispatched"), inv.compute_started)
        };
        let comp_secs = world.now().duration_since(comp_started).as_secs_f64();
        self.breakdown
            .entry((wf, func))
            .or_default()
            .comp
            .push(comp_secs);
        let src_node = world.container(c).node;

        let mut puts = 0usize;
        for eid in graph.outputs(func).to_vec() {
            if !active.edge_active(eid) {
                continue;
            }
            let e = graph.edge(eid);
            let bytes = e.size.bytes(input_bytes);
            let is_client = e.target == Endpoint::Client;
            // Register the data with the destination before the transfer
            // resolves so the successor knows its input sizes.
            if let Endpoint::Function(dst) = e.target {
                world.request_mut(req).input_bytes[dst.index()] += bytes;
                let dst_home = self.home_node(world, wf, dst);
                let src_for_get = match self.cfg.data_passing {
                    DataPassing::BackendStorage => None,
                    // FaaSFlow/SONIC gets read from where the producer ran.
                    _ => Some(src_node),
                };
                let _ = dst_home;
                let dst_inv = self
                    .invocations
                    .get_mut(&(req, dst))
                    .expect("invocation exists");
                dst_inv.pending_inputs.push((eid, bytes, src_for_get));
            }
            let route = match self.cfg.data_passing {
                DataPassing::BackendStorage => Route::ToStorage { src: c },
                DataPassing::FaaSFlowHybrid => {
                    if is_client {
                        Route::ToStorage { src: c }
                    } else {
                        let dst = match e.target {
                            Endpoint::Function(d) => d,
                            Endpoint::Client => unreachable!(),
                        };
                        let dst_home = self.home_node(world, wf, dst);
                        if dst_home == src_node {
                            // Local memory cache; lives until the request
                            // completes. A memory copy — container TC does
                            // not apply.
                            world.cache_add(bytes);
                            self.requests
                                .get_mut(&req)
                                .expect("request state")
                                .cached_bytes += bytes;
                            Route::Local {
                                node: src_node,
                                via_container: None,
                            }
                        } else {
                            Route::ToStorage { src: c }
                        }
                    }
                }
                // SONIC persists to the source host's VM storage; the
                // write lands in the page cache at memory speed, so it
                // costs the container's egress only.
                DataPassing::SonicLocal => {
                    if is_client {
                        Route::ToStorage { src: c }
                    } else {
                        Route::Local {
                            node: src_node,
                            via_container: None,
                        }
                    }
                }
            };
            let tag = self.tokens.mint(Token::PutDone {
                req,
                func,
                edge: eid,
                client: is_client,
            });
            world.transfer(route, bytes, tag);
            puts += 1;
        }
        let inv = self
            .invocations
            .get_mut(&(req, func))
            .expect("invocation exists");
        inv.puts_missing = puts;
        inv.compute_started = world.now(); // reuse as put phase start
        if puts == 0 {
            self.finish_invocation(world, req, func);
        }
    }

    fn finish_invocation(&mut self, world: &mut World, req: RequestId, func: FnId) {
        let wf = world.request(req).wf;
        let (c, put_started) = {
            let inv = self
                .invocations
                .get_mut(&(req, func))
                .expect("invocation exists");
            inv.phase = Phase::Complete;
            (inv.container.expect("dispatched"), inv.compute_started)
        };
        let put_secs = world.now().duration_since(put_started).as_secs_f64();
        self.record_comm(wf, func, put_secs);
        world.note_trigger(TriggerRecord {
            req,
            wf,
            func,
            kind: TriggerKind::Finished,
        });
        // Only now — after Get, compute AND Put — is the container free.
        let key = self.container_pool_key[&c];
        let pool = self.pools.get_mut(&key).expect("pool exists");
        pool.idle.push_back(c);
        self.notify_successors(world, req, func);
        self.pump(world, key.0, key.1);
    }

    fn record_comm(&mut self, wf: WfId, func: FnId, secs: f64) {
        self.breakdown
            .entry((wf, func))
            .or_default()
            .comm
            .push(secs);
        self.comm_secs_total += secs;
        self.comm_ops += 1;
    }

    fn finish_request_output(&mut self, world: &mut World, req: RequestId) {
        let state = self.requests.get_mut(&req).expect("request state");
        debug_assert!(state.outputs_missing > 0);
        state.outputs_missing -= 1;
        if state.outputs_missing == 0 {
            // Free FaaSFlow's per-request local cache.
            let cached = state.cached_bytes;
            if cached > 0.0 {
                world.cache_remove(cached);
            }
            world.complete_request(req);
        }
    }
}

impl<P: Placement> Orchestrator for ControlFlowEngine<P> {
    fn name(&self) -> &str {
        self.cfg.label.as_str()
    }

    fn on_request(&mut self, world: &mut World, req: RequestId) {
        let wf = world.request(req).wf;
        let graph = std::sync::Arc::clone(world.workflow(wf));
        let active = world.request(req).active.clone();
        let payload = world.request(req).payload_bytes;
        let n = graph.function_count();

        for f in graph.function_ids() {
            if !active.function_active(f) {
                continue;
            }
            let preds = graph
                .predecessors(f)
                .into_iter()
                .filter(|p| active.function_active(*p))
                .count();
            self.invocations.insert(
                (req, f),
                Invocation {
                    preds_missing: preds,
                    phase: Phase::WaitingPreds,
                    gets_missing: 0,
                    puts_missing: 0,
                    pending_inputs: Vec::new(),
                    container: None,
                    get_started: SimTime::ZERO,
                    compute_started: SimTime::ZERO,
                },
            );
        }
        let outputs_missing = graph
            .client_outputs()
            .filter(|e| active.edge_active(*e))
            .count();
        self.requests.insert(
            req,
            ReqState {
                outputs_missing,
                topo_next: 0,
                ready: vec![false; n],
                triggered: vec![false; n],
                cached_bytes: 0.0,
            },
        );
        if outputs_missing == 0 {
            world.complete_request(req);
            return;
        }

        // Client inputs are staged in backend storage (Fig. 1: user-data
        // flows through the data plane); entry functions Get them on
        // trigger.
        for eid in graph.client_inputs().collect::<Vec<_>>() {
            if !active.edge_active(eid) {
                continue;
            }
            let e = graph.edge(eid);
            let bytes = e.size.bytes(payload);
            if let Endpoint::Function(dst) = e.target {
                world.request_mut(req).input_bytes[dst.index()] += bytes;
                self.invocations
                    .get_mut(&(req, dst))
                    .expect("invocation exists")
                    .pending_inputs
                    .push((eid, bytes, None));
            }
        }
        // Entry functions have zero predecessors → ready after the
        // orchestrator's initial state transition.
        for f in graph.function_ids() {
            if !active.function_active(f) {
                continue;
            }
            if self.invocations[&(req, f)].preds_missing == 0 {
                let t = self.tokens.mint(Token::TriggerReady { req, func: f });
                world.timer(self.cfg.trigger_overhead, t);
            }
        }
    }

    fn on_cold_start_done(&mut self, world: &mut World, container: ContainerId) {
        let key = self.container_pool_key[&container];
        let pool = self.pools.get_mut(&key).expect("pool exists");
        pool.starting -= 1;
        pool.members += 1;
        pool.idle.push_back(container);
        self.pump(world, key.0, key.1);
    }

    fn on_compute_done(&mut self, world: &mut World, _container: ContainerId, token: u64) {
        let Token::Compute { req, func } = self.tokens.get(token) else {
            panic!("compute token mismatch");
        };
        self.begin_puts(world, req, func);
    }

    fn on_flow_done(&mut self, world: &mut World, done: TransferDone) {
        match self.tokens.get(done.tag) {
            Token::GetDone { req, func } => {
                let inv = self
                    .invocations
                    .get_mut(&(req, func))
                    .expect("invocation exists");
                debug_assert!(inv.gets_missing > 0);
                inv.gets_missing -= 1;
                if inv.gets_missing == 0 {
                    self.begin_compute(world, req, func);
                }
            }
            Token::PutDone {
                req,
                func,
                edge: _,
                client,
            } => {
                if client {
                    self.finish_request_output(world, req);
                }
                let inv = self
                    .invocations
                    .get_mut(&(req, func))
                    .expect("invocation exists");
                debug_assert!(inv.puts_missing > 0);
                inv.puts_missing -= 1;
                if inv.puts_missing == 0 {
                    self.finish_invocation(world, req, func);
                }
            }
            other => panic!("unexpected flow token {other:?}"),
        }
    }

    fn on_timer(&mut self, world: &mut World, token: u64) {
        match self.tokens.get(token) {
            Token::TriggerReady { req, func } => self.on_ready(world, req, func),
            Token::Pump { wf, func } => {
                self.pools
                    .get_mut(&(wf, func))
                    .expect("pool exists")
                    .pump_armed = false;
                self.pump(world, wf, func);
            }
            other => panic!("unexpected timer token {other:?}"),
        }
    }
}
