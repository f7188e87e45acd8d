//! The decentralized data-flow workflow engine (§4–§7).
//!
//! One [`DataFlowerEngine`] plays the role of the per-node engines of
//! Fig. 4: it parses the data-flow graph, watches data availability in the
//! per-node sinks, triggers FLUs the moment their inputs are complete,
//! ships DLU outputs through pipe connectors, applies pressure-aware
//! scaling, and enforces the consistency-aware keep-alive rule.
//!
//! The engine is event-driven: the [`dataflower_cluster::run`] driver
//! feeds it request arrivals, cold-start completions, compute
//! completions, transfer completions and timers.

use std::collections::{BTreeMap, VecDeque};

use dataflower_cluster::{
    ContainerId, NodeId, Orchestrator, Placement, RequestId, Route, TransferDone, TriggerKind,
    TriggerRecord, WfId, World,
};
use dataflower_sim::{EventId, SimDuration, SimTime, Trace};
use dataflower_workflow::{EdgeId, Endpoint, FnId};

use crate::config::DataFlowerConfig;
use crate::pipe::{choose_pipe, PipeKind};
use crate::pressure::{pressure_secs, RunningAvg};
use crate::sink::{Tier, WaitMatchMemory};

/// Engine-private correlation tokens carried through the world's opaque
/// `u64` token/tag channel.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token {
    /// FLU computation of `(req, func)` finished.
    Compute { req: RequestId, func: FnId },
    /// Mid-function `DLU.Put`: ship the outputs of `(req, func)` from
    /// `container`.
    DluPut {
        req: RequestId,
        func: FnId,
        container: ContainerId,
    },
    /// Pressure block on `container` elapsed.
    Unblock { container: ContainerId },
    /// Keep-alive window of `container` elapsed.
    KeepAlive { container: ContainerId },
    /// Sink entry TTL elapsed (passive expire).
    TtlExpire {
        req: RequestId,
        func: FnId,
        edge: EdgeId,
    },
    /// An intermediate-data transfer arrived at its destination node.
    EdgeFlow {
        req: RequestId,
        edge: EdgeId,
        src: Option<ContainerId>,
        raw_bytes: f64,
    },
    /// A workflow result reached the client.
    ClientOut { req: RequestId },
    /// ReDo a faulted invocation (§6.2).
    Retrigger { req: RequestId, func: FnId },
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
    /// Waiting for input data.
    Waiting,
    /// All inputs ready; queued for a container.
    Queued,
    /// FLU running.
    Running,
    /// FLU finished (DLU may still be pumping).
    Finished,
}

#[derive(Debug)]
struct Invocation {
    missing_inputs: usize,
    phase: Phase,
    compute_started: SimTime,
    /// Set after a data-plane fault: the retry resumes its pipe transfers
    /// from the last checkpoint instead of resending everything.
    resume_from_checkpoint: bool,
    /// The current run is doomed to a data-plane fault (test injection).
    faulted_run: bool,
}

#[derive(Debug)]
struct Pool {
    home: NodeId,
    members: Vec<ContainerId>,
    idle: VecDeque<ContainerId>,
    starting: usize,
    queue: VecDeque<RequestId>,
    /// Autoscaler ramp: earliest instant the next scale-out may happen.
    next_scale_ok: SimTime,
    /// A cooldown-retry timer is already armed.
    pump_armed: bool,
}

#[derive(Debug)]
struct ReqState {
    outputs_missing: usize,
}

/// The DataFlower orchestration engine.
///
/// # Examples
///
/// Run one request of a two-stage workflow end to end:
///
/// ```
/// use std::sync::Arc;
/// use dataflower::{DataFlowerConfig, DataFlowerEngine};
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
/// let wf_id = world.add_workflow(wf);
/// world.submit_request(wf_id, MB, SimTime::ZERO);
///
/// let mut engine =
///     DataFlowerEngine::new(DataFlowerConfig::default(), SpreadPlacement);
/// let report = run_to_idle(&mut world, &mut engine);
/// assert_eq!(report.primary().completed, 1);
/// # Ok::<(), dataflower_workflow::WorkflowError>(())
/// ```
#[derive(Debug)]
pub struct DataFlowerEngine<P> {
    cfg: DataFlowerConfig,
    placement: P,
    tokens: Tokens,
    sinks: Vec<WaitMatchMemory>,
    pools: BTreeMap<(WfId, FnId), Pool>,
    container_pool_key: BTreeMap<ContainerId, (WfId, FnId)>,
    invocations: BTreeMap<(RequestId, FnId), Invocation>,
    requests: BTreeMap<RequestId, ReqState>,
    t_flu: BTreeMap<(WfId, FnId), RunningAvg>,
    /// Pressure accumulated while the container's FLU was still busy.
    pending_block: BTreeMap<ContainerId, SimDuration>,
    blocked: BTreeMap<ContainerId, ()>,
    keep_alive: BTreeMap<ContainerId, EventId>,
    dlu_outstanding: BTreeMap<ContainerId, usize>,
    fault_plan: BTreeMap<(RequestId, FnId), ()>,
    redo_count: u64,
    /// Timestamped §6.2 fault/ReDo events — the simulator-side mirror of
    /// the live runtime's crash/recovery counters.
    fault_timeline: Trace<FaultEvent>,
    /// Timestamped scheduling decisions (invocations, §7 pipe choices),
    /// recorded only when [`DataFlowerConfig::record_decisions`] is set —
    /// what trace replay diffs against a live recording.
    decision_timeline: Trace<DecisionEvent>,
    pressure_blocks: u64,
    comm_secs_total: f64,
    comm_ops: u64,
}

/// One scheduling decision of the simulated engine, timestamped in
/// simulated time on [`DataFlowerEngine::decision_timeline`] when
/// [`DataFlowerConfig::record_decisions`] is set.
///
/// These are exactly the deterministic decisions a live
/// (`dataflower-rt`) run records in its event trace, so a recorded trace
/// can be replayed through the simulator and the two timelines compared
/// event for event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionEvent {
    /// The engine dispatched `(req, func)` to a container (FLU start).
    Invoke {
        /// The invoking request.
        req: RequestId,
        /// The function dispatched.
        func: FnId,
    },
    /// The DLU classified one inter-function transfer through the §7
    /// three-way pipe choice.
    PipeChoice {
        /// The request the transfer belongs to.
        req: RequestId,
        /// The workflow edge shipped.
        edge: EdgeId,
        /// The chosen pipe kind.
        kind: PipeKind,
        /// The transfer's raw size in bytes.
        bytes: f64,
    },
}

/// One §6.2 fault-recovery event observed by the simulated engine,
/// timestamped in simulated time on [`DataFlowerEngine::fault_timeline`]
/// — the simulator-side mirror of the live runtime's crash/recovery
/// counters (`node_crashes`, `recovered_transfers`, ...), so the two
/// execution paths expose one fault-observability model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A planned data-plane fault hit as the invocation's run ended: its
    /// un-checkpointed outputs are lost.
    Fault {
        /// The faulted request.
        req: RequestId,
        /// The function whose data plane was interrupted.
        func: FnId,
    },
    /// The engine re-queued the faulted invocation (ReDo); its pipe
    /// transfers resume from the last checkpoint mark.
    Redo {
        /// The recovering request.
        req: RequestId,
        /// The function being ReDone.
        func: FnId,
    },
}

impl<P: Placement> DataFlowerEngine<P> {
    /// Creates an engine with the given configuration and placement
    /// policy.
    pub fn new(cfg: DataFlowerConfig, placement: P) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.stream_fraction),
            "stream_fraction must be in [0, 1]"
        );
        assert!(cfg.alpha >= 1.0, "α is a loss factor; must be ≥ 1");
        DataFlowerEngine {
            cfg,
            placement,
            tokens: Tokens::default(),
            sinks: Vec::new(),
            pools: BTreeMap::new(),
            container_pool_key: BTreeMap::new(),
            invocations: BTreeMap::new(),
            requests: BTreeMap::new(),
            t_flu: BTreeMap::new(),
            pending_block: BTreeMap::new(),
            blocked: BTreeMap::new(),
            keep_alive: BTreeMap::new(),
            dlu_outstanding: BTreeMap::new(),
            fault_plan: BTreeMap::new(),
            redo_count: 0,
            fault_timeline: Trace::new(),
            decision_timeline: Trace::new(),
            pressure_blocks: 0,
            comm_secs_total: 0.0,
            comm_ops: 0,
        }
    }

    /// Plans a one-shot data-plane fault: the named invocation's DLU
    /// output is interrupted, forcing a checkpointed ReDo (§6.2). Used by
    /// fault-tolerance tests.
    pub fn inject_fault(&mut self, req: RequestId, func: FnId) {
        self.fault_plan.insert((req, func), ());
    }

    /// Number of ReDo recoveries performed.
    pub fn redo_count(&self) -> u64 {
        self.redo_count
    }

    /// Timestamped fault and ReDo events (§6.2), in simulated-time order
    /// — one [`FaultEvent::Fault`] when an injected fault hits, one
    /// [`FaultEvent::Redo`] when the engine re-queues the invocation.
    pub fn fault_timeline(&self) -> &Trace<FaultEvent> {
        &self.fault_timeline
    }

    /// Timestamped scheduling decisions (FLU dispatches and §7 pipe
    /// choices), in simulated-time order. Empty unless
    /// [`DataFlowerConfig::record_decisions`] was set.
    pub fn decision_timeline(&self) -> &Trace<DecisionEvent> {
        &self.decision_timeline
    }

    /// Number of pressure-induced FLU blocks (§5.2 telemetry).
    pub fn pressure_block_count(&self) -> u64 {
        self.pressure_blocks
    }

    /// Mean seconds per pipe-connector transfer and the transfer count
    /// (the Fig. 19 function-to-function communication time).
    pub fn comm_time(&self) -> (f64, u64) {
        if self.comm_ops == 0 {
            (0.0, 0)
        } else {
            (self.comm_secs_total / self.comm_ops as f64, self.comm_ops)
        }
    }

    /// Bytes currently resident across all node sinks' memory tier.
    pub fn sink_resident_bytes(&self) -> f64 {
        self.sinks.iter().map(|s| s.resident_memory_bytes()).sum()
    }

    fn ensure_sinks(&mut self, world: &World) {
        while self.sinks.len() < world.node_count() {
            self.sinks.push(WaitMatchMemory::new());
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
                members: Vec::new(),
                idle: VecDeque::new(),
                starting: 0,
                queue: VecDeque::new(),
                next_scale_ok: SimTime::ZERO,
                pump_armed: false,
            },
        );
        home
    }

    /// Delivers `raw_bytes` for `edge` into the destination node's sink
    /// and triggers the destination if its inputs are now complete.
    fn deliver_edge(&mut self, world: &mut World, req: RequestId, edge: EdgeId, raw_bytes: f64) {
        let wf = world.request(req).wf;
        let graph = std::sync::Arc::clone(world.workflow(wf));
        let e = graph.edge(edge);
        let dst = match e.target {
            Endpoint::Function(f) => f,
            Endpoint::Client => unreachable!("client edges use ClientOut tokens"),
        };
        let node = self.home_node(world, wf, dst);
        self.ensure_sinks(world);
        let prev = self.sinks[node.index()].insert(req, dst, edge, raw_bytes, world.now());
        if let Some(p) = prev {
            // Duplicate delivery (e.g. a retry): replace the accounting.
            if p.tier == Tier::Memory {
                world.cache_remove(p.bytes);
            }
        }
        world.cache_add(raw_bytes);
        // Passive-expire timer; a no-op if consumed first.
        let token = self.tokens.mint(Token::TtlExpire {
            req,
            func: dst,
            edge,
        });
        world.timer(self.cfg.sink_ttl, token);

        world.request_mut(req).input_bytes[dst.index()] += raw_bytes;
        let inv = self
            .invocations
            .get_mut(&(req, dst))
            .expect("invocation exists for active function");
        debug_assert!(inv.missing_inputs > 0, "over-delivery on {req} {dst}");
        inv.missing_inputs -= 1;
        if inv.missing_inputs == 0 && inv.phase == Phase::Waiting {
            inv.phase = Phase::Queued;
            world.note_trigger(TriggerRecord {
                req,
                wf,
                func: dst,
                kind: TriggerKind::Ready,
            });
            self.enqueue(world, req, dst);
        }
    }

    fn enqueue(&mut self, world: &mut World, req: RequestId, func: FnId) {
        let wf = world.request(req).wf;
        self.home_node(world, wf, func); // ensure pool
        let pool = self.pools.get_mut(&(wf, func)).expect("pool ensured");
        pool.queue.push_back(req);
        self.pump(world, wf, func);
    }

    /// Dispatches queued invocations to idle containers and scales out
    /// when the pool is dry.
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
        self.scale_out(world, wf, func);
    }

    /// Reactive, rate-limited autoscaling: at most one cold start per
    /// cooldown window per function. A suppressed attempt arms a retry
    /// timer so queued invocations are never stranded.
    fn scale_out(&mut self, world: &mut World, wf: WfId, func: FnId) {
        let spec = self.cfg.container_spec;
        let max = self.cfg.max_containers_per_function;
        let now = world.now();
        let (want, home, gated) = {
            let pool = self.pools.get_mut(&(wf, func)).expect("pool exists");
            let want = pool.queue.len();
            if want <= pool.starting || pool.members.len() + pool.starting >= max {
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
                .max(SimDuration::from_millis(1))
        };
        let t = self.tokens.mint(Token::Pump { wf, func });
        world.timer(delay, t);
    }

    fn start_invocation(&mut self, world: &mut World, c: ContainerId, req: RequestId, func: FnId) {
        let wf = world.request(req).wf;
        let graph = std::sync::Arc::clone(world.workflow(wf));
        // Cancel the keep-alive while the container works.
        if let Some(ev) = self.keep_alive.remove(&c) {
            world.cancel_timer(ev);
        }
        // Load (and proactively release) the inputs from the local sink.
        let node = world.container(c).node;
        self.ensure_sinks(world);
        let taken = self.sinks[node.index()].take_inputs(req, func);
        let mut spilled = 0usize;
        for (_, entry) in &taken {
            match entry.tier {
                Tier::Memory => world.cache_remove(entry.bytes),
                Tier::Disk => spilled += 1,
            }
        }
        let input_bytes = world.request(req).input_bytes[func.index()];
        let work = graph.function(func).work.core_secs(input_bytes);
        let cores = world.container(c).spec.cores();
        let disk_penalty_core_secs =
            spilled as f64 * self.cfg.disk_reload_latency.as_secs_f64() * cores;
        let total_work = work + disk_penalty_core_secs;

        // A planned data-plane fault dooms this run: its outputs are lost
        // and the invocation will be ReDone from the last checkpoint.
        let doomed = self.fault_plan.remove(&(req, func)).is_some();
        let inv = self
            .invocations
            .get_mut(&(req, func))
            .expect("invocation exists");
        inv.phase = Phase::Running;
        inv.compute_started = world.now();
        if doomed {
            inv.faulted_run = true;
            inv.resume_from_checkpoint = true;
        }
        world.note_trigger(TriggerRecord {
            req,
            wf,
            func,
            kind: TriggerKind::Started,
        });
        if self.cfg.record_decisions {
            self.decision_timeline
                .record(world.now(), DecisionEvent::Invoke { req, func });
        }
        let token = self.tokens.mint(Token::Compute { req, func });
        world.begin_compute(c, total_work, token);

        // Data-availability prewarming (§10): this function's outputs are
        // now known to be coming; overlap the successors' cold starts
        // with the producer's compute and transfer.
        if self.cfg.prewarm {
            self.prewarm_successors(world, wf, func);
        }

        // Mid-function DLU.Put (§5.1): outputs start flowing at
        // stream_fraction of the expected compute time. A doomed run ships
        // nothing — its data plane is interrupted.
        if !doomed {
            let expected_secs = total_work / cores;
            let put_delay = SimDuration::from_secs_f64(expected_secs * self.cfg.stream_fraction);
            let put = self.tokens.mint(Token::DluPut {
                req,
                func,
                container: c,
            });
            world.timer(put_delay, put);
        }
    }

    /// Cold-starts one container for every active successor of `func`
    /// that currently has none (and none starting) — the §10 prewarming
    /// policy driven by data dependencies instead of prediction.
    fn prewarm_successors(&mut self, world: &mut World, wf: WfId, func: FnId) {
        let graph = std::sync::Arc::clone(world.workflow(wf));
        let spec = self.cfg.container_spec;
        for succ in graph.successors(func) {
            let home = self.home_node(world, wf, succ);
            let pool = self.pools.get_mut(&(wf, succ)).expect("pool ensured");
            if !pool.members.is_empty() || pool.starting > 0 {
                continue;
            }
            if let Ok(c) = world.start_container(home, wf, succ, spec) {
                let pool = self.pools.get_mut(&(wf, succ)).expect("pool ensured");
                pool.starting += 1;
                self.container_pool_key.insert(c, (wf, succ));
            }
        }
    }

    /// Executes the DLU output phase of `(req, func)` from `container`,
    /// shipping every active function-to-function edge. Client results
    /// ship separately at compute end (a terminal's `end` signal cannot
    /// precede its completion).
    fn dlu_put(&mut self, world: &mut World, req: RequestId, func: FnId, container: ContainerId) {
        let wf = world.request(req).wf;
        let graph = std::sync::Arc::clone(world.workflow(wf));
        let input_bytes = world.request(req).input_bytes[func.index()];
        let src_node = world.container(container).node;
        let bw = world.container(container).spec.bandwidth_bytes_per_sec();
        let resume = self
            .invocations
            .get(&(req, func))
            .map(|i| i.resume_from_checkpoint)
            .unwrap_or(false);

        let mut pipe_bytes_total = 0.0;
        let active = world.request(req).active.clone();
        for eid in graph.outputs(func).to_vec() {
            if !active.edge_active(eid) {
                continue;
            }
            let e = graph.edge(eid);
            let raw = e.size.bytes(input_bytes);
            // After a fault, the pipe connector resumes from its last
            // checkpoint: only the tail is re-sent (§6.2).
            let send = if resume {
                self.cfg.checkpoint.resume_bytes(raw, raw * 0.5)
            } else {
                raw
            };
            match e.target {
                Endpoint::Client => {
                    // Shipped at compute end by `ship_client_outputs`.
                }
                Endpoint::Function(dst) => {
                    let dst_node = self.home_node(world, wf, dst);
                    let kind = choose_pipe(
                        raw,
                        world.config().direct_threshold_bytes,
                        dst_node == src_node,
                    );
                    if self.cfg.record_decisions {
                        self.decision_timeline.record(
                            world.now(),
                            DecisionEvent::PipeChoice {
                                req,
                                edge: eid,
                                kind,
                                bytes: raw,
                            },
                        );
                    }
                    let tag = self.tokens.mint(Token::EdgeFlow {
                        req,
                        edge: eid,
                        src: (kind != PipeKind::DirectSocket).then_some(container),
                        raw_bytes: raw,
                    });
                    match kind {
                        PipeKind::DirectSocket => {
                            world.transfer(Route::Direct, send, tag);
                        }
                        PipeKind::LocalPipe => {
                            // The local pipe is a memory path into the
                            // node's data sink; container TC shapes
                            // network traffic only, so no egress cap.
                            *self.dlu_outstanding.entry(container).or_insert(0) += 1;
                            world.transfer(
                                Route::Local {
                                    node: src_node,
                                    via_container: None,
                                },
                                send,
                                tag,
                            );
                        }
                        PipeKind::RemotePipe => {
                            pipe_bytes_total += raw;
                            *self.dlu_outstanding.entry(container).or_insert(0) += 1;
                            world.transfer(
                                Route::Remote {
                                    src: container,
                                    dst_node,
                                },
                                send * self.cfg.alpha,
                                tag,
                            );
                        }
                    }
                }
            }
        }

        // Pressure-aware scaling (§5.2, Eq. 1).
        if self.cfg.pressure_aware && pipe_bytes_total > 0.0 {
            let t_flu = self.t_flu.entry((wf, func)).or_default().get_or(
                graph.function(func).work.core_secs(input_bytes)
                    / world.container(container).spec.cores(),
            );
            let p = pressure_secs(self.cfg.alpha, pipe_bytes_total, bw, t_flu);
            if p > 0.0 {
                self.pressure_blocks += 1;
                let dur = SimDuration::from_secs_f64(p);
                self.apply_block(world, container, dur);
                // The engine scales out to absorb the invocations the
                // blocked FLU cannot serve.
                self.scale_out(world, wf, func);
            }
        }
    }

    fn apply_block(&mut self, world: &mut World, c: ContainerId, dur: SimDuration) {
        let key = self.container_pool_key[&c];
        let pool = self.pools.get_mut(&key).expect("pool exists");
        if let Some(pos) = pool.idle.iter().position(|x| *x == c) {
            // Idle right now: block immediately.
            pool.idle.remove(pos);
            self.blocked.insert(c, ());
            let token = self.tokens.mint(Token::Unblock { container: c });
            world.timer(dur, token);
        } else {
            // Still busy (or already blocked): apply when it frees up.
            let pending = self.pending_block.entry(c).or_insert(SimDuration::ZERO);
            *pending = (*pending).max(dur);
        }
    }

    fn make_available(&mut self, world: &mut World, c: ContainerId) {
        let key = self.container_pool_key[&c];
        if let Some(dur) = self.pending_block.remove(&c) {
            self.blocked.insert(c, ());
            let token = self.tokens.mint(Token::Unblock { container: c });
            world.timer(dur, token);
            return;
        }
        let pool = self.pools.get_mut(&key).expect("pool exists");
        pool.idle.push_back(c);
        // Arm the consistency-aware keep-alive (§6.2).
        let token = self.tokens.mint(Token::KeepAlive { container: c });
        let ev = world.timer(world.config().keep_alive, token);
        self.keep_alive.insert(c, ev);
        self.pump(world, key.0, key.1);
    }

    /// Ships the active client-result edges of `(req, func)` once its FLU
    /// completes.
    fn ship_client_outputs(&mut self, world: &mut World, req: RequestId, func: FnId) {
        let wf = world.request(req).wf;
        let graph = std::sync::Arc::clone(world.workflow(wf));
        let active = world.request(req).active.clone();
        let input_bytes = world.request(req).input_bytes[func.index()];
        for eid in graph.outputs(func).to_vec() {
            if !active.edge_active(eid) {
                continue;
            }
            let e = graph.edge(eid);
            if e.target != Endpoint::Client {
                continue;
            }
            let bytes = e.size.bytes(input_bytes);
            let tag = self.tokens.mint(Token::ClientOut { req });
            world.transfer(Route::Direct, bytes, tag);
        }
    }

    fn finish_request_output(&mut self, world: &mut World, req: RequestId) {
        let state = self.requests.get_mut(&req).expect("request state exists");
        debug_assert!(state.outputs_missing > 0);
        state.outputs_missing -= 1;
        if state.outputs_missing == 0 {
            world.complete_request(req);
        }
    }
}

impl<P: Placement> Orchestrator for DataFlowerEngine<P> {
    fn name(&self) -> &str {
        if self.cfg.pressure_aware {
            "DataFlower"
        } else {
            "DataFlower-Non-aware"
        }
    }

    fn on_request(&mut self, world: &mut World, req: RequestId) {
        self.ensure_sinks(world);
        let wf = world.request(req).wf;
        let graph = std::sync::Arc::clone(world.workflow(wf));
        let active = world.request(req).active.clone();

        // Materialize invocation state for every active function.
        for f in graph.function_ids() {
            if !active.function_active(f) {
                continue;
            }
            let missing = graph
                .inputs(f)
                .iter()
                .filter(|e| active.edge_active(**e))
                .count();
            self.invocations.insert(
                (req, f),
                Invocation {
                    missing_inputs: missing,
                    phase: Phase::Waiting,
                    compute_started: SimTime::ZERO,
                    resume_from_checkpoint: false,
                    faulted_run: false,
                },
            );
        }
        let outputs_missing = graph
            .client_outputs()
            .filter(|e| active.edge_active(*e))
            .count();
        self.requests.insert(req, ReqState { outputs_missing });
        if outputs_missing == 0 {
            // Degenerate (all results switched off): nothing to wait for.
            world.complete_request(req);
            return;
        }

        // The client payload is available instantly with the request.
        let payload = world.request(req).payload_bytes;
        for eid in graph.client_inputs().collect::<Vec<_>>() {
            if !active.edge_active(eid) {
                continue;
            }
            let bytes = graph.edge(eid).size.bytes(payload);
            self.deliver_edge(world, req, eid, bytes);
        }
    }

    fn on_cold_start_done(&mut self, world: &mut World, container: ContainerId) {
        let key = self.container_pool_key[&container];
        let pool = self.pools.get_mut(&key).expect("pool exists");
        pool.starting -= 1;
        pool.members.push(container);
        pool.idle.push_back(container);
        let token = self.tokens.mint(Token::KeepAlive { container });
        let ev = world.timer(world.config().keep_alive, token);
        self.keep_alive.insert(container, ev);
        self.pump(world, key.0, key.1);
    }

    fn on_compute_done(&mut self, world: &mut World, container: ContainerId, token: u64) {
        let Token::Compute { req, func } = self.tokens.get(token) else {
            panic!("compute token mismatch");
        };
        let wf = world.request(req).wf;
        let (started, doomed) = {
            let inv = self
                .invocations
                .get_mut(&(req, func))
                .expect("invocation exists");
            if inv.faulted_run {
                // The injected data-plane fault hits as the run ends: its
                // outputs are lost; ReDo from the last checkpoint (§6.2).
                inv.faulted_run = false;
                inv.phase = Phase::Queued;
                (inv.compute_started, true)
            } else {
                inv.phase = Phase::Finished;
                (inv.compute_started, false)
            }
        };
        if doomed {
            self.redo_count += 1;
            self.fault_timeline
                .record(world.now(), FaultEvent::Fault { req, func });
            let t = self.tokens.mint(Token::Retrigger { req, func });
            world.timer(self.cfg.redo_latency, t);
            self.make_available(world, container);
            return;
        }
        let dur = world.now().duration_since(started).as_secs_f64();
        self.t_flu.entry((wf, func)).or_default().push(dur);
        world.note_trigger(TriggerRecord {
            req,
            wf,
            func,
            kind: TriggerKind::Finished,
        });
        // Terminal results ship only once the FLU has finished.
        self.ship_client_outputs(world, req, func);
        // The FLU is free again (compute/communication overlap): it can
        // serve the next invocation while its DLU still pumps — unless a
        // pressure block is pending.
        self.make_available(world, container);
    }

    fn on_flow_done(&mut self, world: &mut World, done: TransferDone) {
        match self.tokens.get(done.tag) {
            Token::EdgeFlow {
                req,
                edge,
                src,
                raw_bytes,
            } => {
                if let Some(c) = src {
                    let n = self
                        .dlu_outstanding
                        .get_mut(&c)
                        .expect("outstanding tracked");
                    *n -= 1;
                }
                self.comm_secs_total += done.at.duration_since(done.started).as_secs_f64();
                self.comm_ops += 1;
                self.deliver_edge(world, req, edge, raw_bytes);
            }
            Token::ClientOut { req } => self.finish_request_output(world, req),
            other => panic!("unexpected flow token {other:?}"),
        }
    }

    fn on_timer(&mut self, world: &mut World, token: u64) {
        match self.tokens.get(token) {
            Token::DluPut {
                req,
                func,
                container,
            } => self.dlu_put(world, req, func, container),
            Token::Unblock { container } => {
                self.blocked.remove(&container);
                self.make_available(world, container);
            }
            Token::KeepAlive { container } => {
                // Consistency-aware recycling (§6.2): only when the FLU is
                // idle AND the DLU has no data left to pump.
                let outstanding = self.dlu_outstanding.get(&container).copied().unwrap_or(0);
                let key = self.container_pool_key[&container];
                let pool = self.pools.get_mut(&key).expect("pool exists");
                let idle_pos = pool.idle.iter().position(|c| *c == container);
                if let (Some(pos), 0) = (idle_pos, outstanding) {
                    pool.idle.remove(pos);
                    pool.members.retain(|c| *c != container);
                    self.keep_alive.remove(&container);
                    world.retire_container(container);
                } else {
                    // Still draining (or busy): re-arm the keep-alive.
                    let t = self.tokens.mint(Token::KeepAlive { container });
                    let ev = world.timer(world.config().keep_alive, t);
                    self.keep_alive.insert(container, ev);
                }
            }
            Token::TtlExpire { req, func, edge } => {
                let wf = world.request(req).wf;
                let node = self.home_node(world, wf, func);
                if let Some(bytes) = self.sinks[node.index()].spill(req, func, edge) {
                    world.cache_remove(bytes);
                }
            }
            Token::Retrigger { req, func } => {
                self.fault_timeline
                    .record(world.now(), FaultEvent::Redo { req, func });
                world.note_trigger(TriggerRecord {
                    req,
                    wf: world.request(req).wf,
                    func,
                    kind: TriggerKind::Ready,
                });
                self.enqueue(world, req, func);
            }
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
