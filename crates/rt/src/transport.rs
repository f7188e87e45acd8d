//! Real TCP transport and worker-process cluster mode.
//!
//! The in-process fabric ships `NetMsg` frames between threads of one
//! process; this module promotes every directed link to a real
//! `std::net::TcpStream` speaking the versioned [`wire`](crate::wire)
//! frame format, and runs **one OS process per node**:
//!
//! * [`TcpCluster::launch`] (the *coordinator*) re-executes the current
//!   binary once per node with `DATAFLOWER_WORKER_*` environment
//!   variables set. Each worker binds a data listener on
//!   `127.0.0.1:0`, reports its port over a line-framed JSON control
//!   channel, and receives the full port map back — so no port is ever
//!   chosen statically.
//! * A worker embeds exactly one node of the cluster via
//!   `ClusterRuntimeBuilder::start_worker`; its DLU daemons enqueue
//!   outbound frames into per-directed-link queues drained by one
//!   *link agent* thread each (`link_agent`), which lazily dials the
//!   destination, writes a `Hello` preamble, and ships frames
//!   zero-copy (header buffer + [`Bytes`] payload view, no
//!   re-serialization of the payload).
//! * The §6.2 retention/ack protocol of the in-process runtime carries
//!   over unchanged, except acks become explicit `AckMark` /
//!   `AckComplete` wire frames flowing back over the reverse link.
//! * Every inbound data frame is appended to a per-worker checkpoint
//!   log **before** it is dispatched, so a `kill -9`'d worker restarted
//!   by [`TcpCluster::restart_worker`] replays its durable ingress,
//!   re-fires its functions idempotently, and the senders replay every
//!   un-acked transfer from the last acknowledged checkpoint mark when
//!   their reconnect succeeds — byte-identical outputs across a hard
//!   worker kill.
//!
//! The in-process fabric remains the default and the fast path; this
//! module is opt-in for callers that want real process isolation (see
//! `examples/socket_cluster.rs`).

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use dataflower::CheckpointSchedule;
use dataflower_workflow::{json, EdgeId, Endpoint, Workflow};

use crate::bytes::Bytes;
use crate::channel::{bounded, Receiver, Sender};
use crate::error::RtError;
use crate::fabric::{LinkConfig, LinkRetention, NetMsg, Reassembler, SHIPPER_BATCH};
use crate::node::Placement;
use crate::orchestrator::{activate_pool, fallback_relocate};
use crate::runtime::{
    chaos_ingress, handle_net_msg, node_pressure_of, resolve_active, retention_of, stride,
    worker_transfer_base, ClusterRtConfig, ClusterRuntimeBuilder, Counters, CrashReport, Inner,
    ReqId, RtStats, WireSpec,
};
use crate::wire::{encode_into, encode_parts, frame_of, net_of, Decoder, Frame};

const ENV_NODE: &str = "DATAFLOWER_WORKER_NODE";
const ENV_EPOCH: &str = "DATAFLOWER_WORKER_EPOCH";
const ENV_CONTROL: &str = "DATAFLOWER_WORKER_CONTROL";
const ENV_DIR: &str = "DATAFLOWER_WORKER_DIR";
const ENV_TAG: &str = "DATAFLOWER_WORKER_TAG";

/// How long the coordinator waits for a freshly spawned worker to
/// connect and introduce itself on the control channel.
const HELLO_TIMEOUT: Duration = Duration::from_secs(30);

fn loopback(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

fn jnum(v: &json::Value, key: &str) -> u64 {
    v.get(key).and_then(|x| x.as_f64()).unwrap_or(0.0) as u64
}

/// Detects whether this process was spawned as a cluster worker.
///
/// [`TcpCluster::launch`] re-executes the current binary with the
/// `DATAFLOWER_WORKER_*` environment variables set; any binary that
/// wants to support worker-process mode calls this **first thing in
/// `main`** and, when it returns `Some`, rebuilds the identical
/// workflow/placement/config (selecting on [`WorkerEnv::tag`]) and
/// hands them to [`WorkerEnv::serve`], which never returns.
pub fn worker_env() -> Option<WorkerEnv> {
    let node = std::env::var(ENV_NODE).ok()?.parse().ok()?;
    let epoch = std::env::var(ENV_EPOCH).ok()?.parse().ok()?;
    let control_port = std::env::var(ENV_CONTROL).ok()?.parse().ok()?;
    let dir = PathBuf::from(std::env::var(ENV_DIR).ok()?);
    let tag = std::env::var(ENV_TAG).unwrap_or_default();
    Some(WorkerEnv {
        node,
        epoch,
        control_port,
        dir,
        tag,
    })
}

/// The identity a worker process was spawned with (see [`worker_env`]).
#[derive(Debug)]
pub struct WorkerEnv {
    node: usize,
    epoch: u32,
    control_port: u16,
    dir: PathBuf,
    tag: String,
}

impl WorkerEnv {
    /// The node index this process embodies.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The incarnation counter: 0 for the first launch, bumped by every
    /// [`TcpCluster::restart_worker`]. Namespaces transfer ids so a
    /// restarted worker can never collide with its previous life.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The opaque tag passed to [`TcpCluster::launch`] — typically a
    /// serialized description of *which* workflow to rebuild, since the
    /// worker must reconstruct the exact same topology as the
    /// coordinator from scratch.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// Runs this process as one cluster node until the coordinator
    /// shuts it down (never returns). `builder` must describe the
    /// *identical* workflow, placement and config the coordinator used
    /// — both sides derive routing from them independently.
    ///
    /// Startup handshake: start the local node's threads, bind the data
    /// listener on an ephemeral port, report `{node, epoch, port}` over
    /// the control channel, receive the full `{ports: [...]}` peer
    /// table back (workers in node order, the coordinator's data port
    /// last), then replay the checkpoint log of any previous
    /// incarnation and start accepting peer connections.
    ///
    /// # Panics
    ///
    /// Panics if the runtime cannot start or the control channel fails
    /// mid-handshake — a worker without a coordinator has nothing
    /// sensible to do but die (the coordinator observes the EOF).
    pub fn serve(self, builder: ClusterRuntimeBuilder) -> ! {
        let spec = WireSpec {
            local: self.node,
            epoch: self.epoch,
        };
        let (rt, mut out_rx) = builder.start_worker(spec).expect("start worker runtime");
        let inner = Arc::clone(&rt.inner);
        let endpoints = stride(&inner);

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker data listener");
        let data_port = listener.local_addr().expect("listener addr").port();

        let control =
            TcpStream::connect(loopback(self.control_port)).expect("connect control channel");
        // The control channel is a request/response RPC line: without
        // nodelay, Nagle + delayed acks cost ~40 ms per round trip,
        // which is slower than the data plane it probes.
        let _ = control.set_nodelay(true);
        let mut control_w = control.try_clone().expect("clone control stream");
        let mut control_r = BufReader::new(control);
        writeln!(
            control_w,
            "{{\"node\":{},\"epoch\":{},\"port\":{}}}",
            self.node, self.epoch, data_port
        )
        .expect("send hello");
        let mut line = String::new();
        control_r.read_line(&mut line).expect("read peer table");
        let peers = json::parse(&line).expect("parse peer table");
        let ports: Vec<u16> = peers
            .get("ports")
            .and_then(|p| p.as_arr())
            .expect("peer table ports")
            .iter()
            .filter_map(|x| x.as_f64())
            .map(|f| f as u16)
            .collect();
        assert_eq!(ports.len(), endpoints, "peer table covers every endpoint");
        let addrs: Vec<Arc<AddrCell>> = ports
            .iter()
            .map(|&p| Arc::new(AddrCell::new(Some(loopback(p)))))
            .collect();

        // One shipping agent per outbound directed link.
        let side = Side::Worker(Arc::clone(&inner));
        for (dst, rx) in out_rx.iter_mut().enumerate() {
            if let Some(rx) = rx.take() {
                let side = side.clone();
                let addr = Arc::clone(&addrs[dst]);
                let (local, epoch) = (self.node, self.epoch);
                thread::spawn(move || link_agent(side, local, dst, epoch, rx, addr));
            }
        }

        // Replay the durable ingress of any previous incarnation before
        // accepting new frames: re-fired functions are idempotent (the
        // consumed-entry sentinel blocks double triggers downstream) and
        // the re-emitted acks drain through the agents just spawned.
        let log_path = self.dir.join(format!("node{}.log", self.node));
        let (log, restored) = CkptLog::open(&log_path).expect("open checkpoint log");
        let log = Arc::new(log);
        for (src, frame) in restored {
            if let Some(msg) = net_of(frame) {
                handle_net_msg(&inner, src as usize, self.node, msg);
            }
        }

        if inner.cfg.recovery.enabled {
            let side = side.clone();
            let out = inner
                .wire
                .as_ref()
                .expect("worker runtime is wire mode")
                .out
                .clone();
            let local = self.node;
            thread::spawn(move || retransmit_pump(side, local, out));
        }

        {
            let inner = Arc::clone(&inner);
            let log = Arc::clone(&log);
            let local = self.node;
            thread::spawn(move || {
                for conn in listener.incoming() {
                    let Ok(stream) = conn else { continue };
                    let inner = Arc::clone(&inner);
                    let log = Arc::clone(&log);
                    thread::spawn(move || worker_reader(inner, log, stream, local));
                }
            });
        }

        // Control request/reply loop — the coordinator serializes
        // requests per worker, so one reply per line read suffices.
        let _rt = rt; // keep the node's threads alive for process life
        let interval = inner.cfg.checkpoint_interval_bytes;
        loop {
            line.clear();
            if control_r.read_line(&mut line).unwrap_or(0) == 0 {
                // Coordinator went away: nothing left to serve.
                std::process::exit(0);
            }
            let Ok(v) = json::parse(&line) else { continue };
            let reply = match v.get("op").and_then(|o| o.as_str()).unwrap_or("") {
                "peer_update" => {
                    let peer = jnum(&v, "node") as usize;
                    let port = jnum(&v, "port") as u16;
                    if let Some(cell) = addrs.get(peer) {
                        cell.set(loopback(port));
                    }
                    "{\"ok\":true}".to_string()
                }
                "ping" => "{\"ok\":true}".to_string(),
                "pressure" => {
                    format!("{{\"pressure\":{}}}", node_pressure_of(&inner, self.node))
                }
                "relocate" => {
                    let dead = jnum(&v, "dead") as usize;
                    let assign = parse_assign(&v);
                    {
                        let mut p = inner.placement.write().expect("placement lock poisoned");
                        for (name, to) in &assign {
                            p.reassign(name.clone(), *to);
                        }
                    }
                    if let Some(state) = inner.nodes.get(dead) {
                        state.lost.store(true, Ordering::SeqCst);
                        state.down.store(true, Ordering::SeqCst);
                    }
                    let mut activated = 0usize;
                    for (name, to) in &assign {
                        if *to == self.node {
                            activate_pool(&inner, name, *to);
                            activated += 1;
                        }
                    }
                    inner
                        .counters
                        .relocated_fns
                        .fetch_add(activated as u64, Ordering::Relaxed);
                    format!("{{\"ok\":true,\"activated\":{activated}}}")
                }
                "resend" => {
                    let dead = jnum(&v, "dead") as usize;
                    let n = resend_toward(&inner, self.node, dead);
                    format!("{{\"ok\":true,\"transfers\":{n}}}")
                }
                "probe" => {
                    let (inflight, durable) =
                        inner.nodes[self.node]
                            .sink
                            .fold((0usize, 0u64), |(i, mut d), _req, rs| {
                                for r in rs.partial.values() {
                                    d += ((r.contiguous_prefix() / interval) * interval) as u64;
                                }
                                (i + rs.partial.len(), d)
                            });
                    format!("{{\"inflight\":{inflight},\"durable\":{durable}}}")
                }
                "retained" => {
                    let dst = jnum(&v, "dst") as usize;
                    let margin = jnum(&v, "margin") as usize;
                    let ok = inner.cfg.recovery.enabled
                        && retention_of(&inner, self.node, dst)
                            .lock()
                            .expect("retention lock poisoned")
                            .has_acked_partial(margin);
                    format!("{{\"ok\":{ok}}}")
                }
                "stats" => {
                    let vals = inner
                        .counters
                        .snapshot()
                        .to_vec()
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(",");
                    format!("{{\"stats\":[{vals}]}}")
                }
                "purge" => {
                    let req = jnum(&v, "req");
                    if let Some(w) = &inner.wire {
                        w.purged.lock().expect("purge set poisoned").insert(req);
                    }
                    inner.nodes[self.node].sink.remove(req);
                    // Retain-acked mode (orchestrator) parks completed
                    // transfers in retention until their request is
                    // collected — this is the collection point.
                    if inner.cfg.recovery.enabled {
                        for dst in 0..endpoints {
                            if dst == self.node {
                                continue;
                            }
                            retention_of(&inner, self.node, dst)
                                .lock()
                                .expect("retention lock poisoned")
                                .purge_req(req);
                        }
                    }
                    "{\"ok\":true}".to_string()
                }
                "shutdown" => {
                    let _ = writeln!(control_w, "{{\"ok\":true}}");
                    let _ = control_w.flush();
                    std::process::exit(0);
                }
                _ => "{\"ok\":false}".to_string(),
            };
            if writeln!(control_w, "{reply}").is_err() {
                std::process::exit(0);
            }
        }
    }
}

/// Decodes a `relocate` op's `assign` object (`{"fn_name": node, ...}`)
/// into `(function, node)` pairs.
fn parse_assign(v: &json::Value) -> Vec<(String, usize)> {
    match v.get("assign") {
        Some(json::Value::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(name, node)| node.as_f64().map(|n| (name.clone(), n as usize)))
            .collect(),
        _ => Vec::new(),
    }
}

/// Worker half of a relocation's data recovery: every transfer this
/// process still retains **toward** the `dead` node is re-homed onto the
/// link toward its target function's *current* node (per the already
/// repatched live placement) and re-sent **from byte 0** — the new host
/// holds none of the dead node's bytes (its sink and checkpoint log died
/// with the process), so the acked-mark resume of same-node restarts
/// does not apply; receivers dedup re-fired duplicates by edge.
/// Returns the number of transfers re-homed.
fn resend_toward(inner: &Arc<Inner>, local: usize, dead: usize) -> usize {
    if !inner.cfg.recovery.enabled || local == dead {
        return 0;
    }
    let wf = &inner.workflow;
    let moved = retention_of(inner, local, dead)
        .lock()
        .expect("retention lock poisoned")
        .extract(|_| true);
    if moved.is_empty() {
        return 0;
    }
    let wire = inner.wire.as_ref().expect("worker runtime is wire mode");
    let mut by_dst: HashMap<usize, Vec<u64>> = HashMap::new();
    let mut count = 0usize;
    for (id, t) in moved {
        let dst = match wf.edge(t.edge).target {
            Endpoint::Function(tf) => inner.node_of(&wf.function(tf).name),
            Endpoint::Client => wire.endpoints - 1,
        };
        if dst == dead {
            // Nobody inherited the target yet; park the entry back for a
            // later sweep.
            retention_of(inner, local, dead)
                .lock()
                .expect("retention lock poisoned")
                .adopt(id, t, false);
            continue;
        }
        retention_of(inner, local, dst)
            .lock()
            .expect("retention lock poisoned")
            .adopt(id, t, true);
        by_dst.entry(dst).or_default().push(id);
        count += 1;
    }
    for (dst, ids) in by_dst {
        let summary = retention_of(inner, local, dst)
            .lock()
            .expect("retention lock poisoned")
            .replay_ids(Instant::now(), &ids);
        inner
            .counters
            .recovered_transfers
            .fetch_add(summary.transfers, Ordering::Relaxed);
        for msg in summary.frames {
            inner
                .counters
                .replayed_frames
                .fetch_add(1, Ordering::Relaxed);
            inner
                .counters
                .replayed_bytes
                .fetch_add(msg.wire_bytes() as u64, Ordering::Relaxed);
            if dst == local {
                // The function's new home is this very process: there is
                // no wire link to self, so ingest the replayed frame
                // directly (acks apply to the local self-link window).
                handle_net_msg(inner, local, local, msg);
                continue;
            }
            let Some(tx) = &wire.out[dst] else { continue };
            if matches!(msg, NetMsg::Whole { .. } | NetMsg::Chunk { .. }) {
                inner.link_depth[local * stride(inner) + dst].fetch_add(1, Ordering::Relaxed);
            }
            let _ = tx.send(msg);
        }
    }
    count
}

/// Where a peer endpoint currently listens; rewritten by `peer_update`
/// when a worker restarts on a fresh ephemeral port. Agents re-read it
/// on every dial attempt.
struct AddrCell(Mutex<Option<SocketAddr>>);

impl AddrCell {
    fn new(addr: Option<SocketAddr>) -> AddrCell {
        AddrCell(Mutex::new(addr))
    }

    fn get(&self) -> Option<SocketAddr> {
        *self.0.lock().expect("addr cell poisoned")
    }

    fn set(&self, addr: SocketAddr) {
        *self.0.lock().expect("addr cell poisoned") = Some(addr);
    }
}

/// Which process a link agent / retransmit pump runs in: a worker
/// (retention and counters live in the runtime's [`Inner`]) or the
/// coordinator (which has no runtime — its client-side retention and
/// counters live in [`CoordShared`]).
#[derive(Clone)]
enum Side {
    Worker(Arc<Inner>),
    Coord(Arc<CoordShared>),
}

impl Side {
    fn recovery_enabled(&self) -> bool {
        match self {
            Side::Worker(i) => i.cfg.recovery.enabled,
            Side::Coord(c) => c.recovery_enabled,
        }
    }

    fn retransmit_timeout(&self) -> Duration {
        match self {
            Side::Worker(i) => i.cfg.recovery.retransmit_timeout,
            Side::Coord(c) => c.retransmit_timeout,
        }
    }

    fn link(&self) -> &LinkConfig {
        match self {
            Side::Worker(i) => &i.cfg.link,
            Side::Coord(c) => &c.link,
        }
    }

    fn shutting_down(&self) -> bool {
        match self {
            Side::Worker(i) => i.shutdown.load(Ordering::Relaxed),
            Side::Coord(c) => c.shutdown.load(Ordering::Relaxed),
        }
    }

    fn counters(&self) -> &Counters {
        match self {
            Side::Worker(i) => &i.counters,
            Side::Coord(c) => &c.counters,
        }
    }

    /// Runs `f` on the retention window of the directed link
    /// `src → dst`. Callers must gate on [`Side::recovery_enabled`].
    fn with_retention<R>(
        &self,
        src: usize,
        dst: usize,
        f: impl FnOnce(&mut LinkRetention) -> R,
    ) -> R {
        match self {
            Side::Worker(i) => f(&mut retention_of(i, src, dst)
                .lock()
                .expect("retention lock poisoned")),
            Side::Coord(c) => f(&mut c.retention[dst].lock().expect("retention lock poisoned")),
        }
    }

    /// Adjusts the backpressure gauge of link `src → dst` (workers
    /// only; the coordinator has no gauge).
    fn depth_add(&self, src: usize, dst: usize, delta: isize) {
        if let Side::Worker(i) = self {
            let gauge = &i.link_depth[src * stride(i) + dst];
            if delta >= 0 {
                gauge.fetch_add(delta as usize, Ordering::Relaxed);
            } else {
                gauge.fetch_sub((-delta) as usize, Ordering::Relaxed);
            }
        }
    }
}

/// Writes one frame to the stream: the fixed-size header buffer, then
/// the payload as a second `write_all` straight from the zero-copy
/// [`Bytes`] view — the payload bytes are never re-serialized.
fn write_frame(stream: &mut TcpStream, frame: &Frame) -> io::Result<()> {
    let (head, payload) = encode_parts(frame);
    stream.write_all(&head)?;
    if let Some(p) = payload {
        stream.write_all(&p)?;
    }
    Ok(())
}

/// Frames up to this size (the sub-16 KiB direct-socket class of the
/// paper's §7 pipe taxonomy, and ack frames) are copied into the link
/// agent's staging buffer and leave as one write per burst; larger ones
/// go out as their own zero-copy write.
const STAGED_FRAME_BYTES: usize = 16 * 1024;

/// The shipping thread of one outbound directed link `local → dst`:
/// drains the link's bounded queue, lazily dials the destination's
/// current address (re-read on every attempt, so a restarted peer's new
/// port is picked up), writes a `Hello` preamble per connection, and
/// applies the same latency/bandwidth shaping as the in-process
/// shipper. A write failure marks the connection dead and retries the
/// same frame after redialing; on every *re*connection with recovery
/// enabled, the link replays all retained (un-acked) transfers from
/// their last acknowledged checkpoint mark before resuming — the §6.2
/// restart-and-replay path over real sockets.
fn link_agent(
    side: Side,
    local: usize,
    dst: usize,
    epoch: u32,
    rx: Receiver<NetMsg>,
    addr: Arc<AddrCell>,
) {
    let mut conn: Option<TcpStream> = None;
    let mut had_session = false;
    let mut backlog: VecDeque<NetMsg> = VecDeque::new();
    // Staging buffer for small-frame runs, reused across bursts.
    let mut stage: Vec<u8> = Vec::new();
    'frames: loop {
        let msg = match backlog.pop_front() {
            Some(m) => m,
            None => match rx.recv() {
                Ok(m) => {
                    if matches!(m, NetMsg::Whole { .. } | NetMsg::Chunk { .. }) {
                        side.depth_add(local, dst, -1);
                    }
                    m
                }
                Err(_) => break,
            },
        };
        loop {
            if side.shutting_down() {
                // Teardown: keep draining so senders never block, but
                // stop shipping.
                continue 'frames;
            }
            if conn.is_none() {
                let Some(peer) = addr.get() else {
                    thread::sleep(Duration::from_millis(2));
                    continue;
                };
                let Ok(mut s) = TcpStream::connect(peer) else {
                    thread::sleep(Duration::from_millis(5));
                    continue;
                };
                let _ = s.set_nodelay(true);
                if write_frame(
                    &mut s,
                    &Frame::Hello {
                        node: local as u32,
                        epoch,
                    },
                )
                .is_err()
                {
                    thread::sleep(Duration::from_millis(5));
                    continue;
                }
                let reconnect = had_session;
                had_session = true;
                conn = Some(s);
                if reconnect && side.recovery_enabled() {
                    // The peer may have restarted from scratch: replay
                    // every incomplete transfer ahead of the frame in
                    // hand (duplicates are idempotent at the receiver).
                    let summary =
                        side.with_retention(local, dst, |r| r.replay(Instant::now(), None));
                    if summary.transfers > 0 {
                        side.counters()
                            .recovered_transfers
                            .fetch_add(summary.transfers, Ordering::Relaxed);
                        side.counters()
                            .resumed_from_mark
                            .fetch_add(summary.resumed_from_mark_bytes, Ordering::Relaxed);
                        for f in summary.frames {
                            backlog.push_back(f);
                        }
                        backlog.push_back(msg);
                        continue 'frames;
                    }
                }
            }
            // Shaped transfer time, mirroring the in-process shipper:
            // latency once per transfer plus serialization delay.
            let link = side.link();
            if msg.starts_transfer() && link.latency > Duration::ZERO {
                thread::sleep(link.latency);
            }
            if let Some(bw) = link.bandwidth_bytes_per_sec {
                if bw > 0.0 {
                    thread::sleep(Duration::from_secs_f64(msg.wire_bytes() as f64 / bw));
                }
            }
            let stream = conn.as_mut().expect("connected above");
            let shaped = link.latency > Duration::ZERO || link.bandwidth_bytes_per_sec.is_some();
            if shaped {
                // Shaping is per frame, so ship per frame.
                match write_frame(stream, &frame_of(&msg)) {
                    Ok(()) => continue 'frames,
                    Err(_) => conn = None, // redial, retry the same frame
                }
                continue;
            }
            // Unshaped link: gather the burst already queued behind this
            // frame and ship it as one write. Small frames (the sub-16
            // KiB direct-socket class) and ack frames encode into the
            // staging buffer; a big payload flushes the staging run and
            // goes out as its own zero-copy write.
            let mut batch: Vec<NetMsg> = Vec::with_capacity(SHIPPER_BATCH);
            batch.push(msg);
            batch.extend(backlog.drain(..backlog.len().min(SHIPPER_BATCH - 1)));
            let queued_from = batch.len();
            let _ = rx.try_drain(&mut batch, SHIPPER_BATCH - queued_from);
            for m in &batch[queued_from..] {
                if matches!(m, NetMsg::Whole { .. } | NetMsg::Chunk { .. }) {
                    side.depth_add(local, dst, -1);
                }
            }
            stage.clear();
            let mut failed = false;
            for m in &batch {
                if m.wire_bytes() <= STAGED_FRAME_BYTES {
                    encode_into(&frame_of(m), &mut stage);
                    continue;
                }
                if !stage.is_empty() {
                    if stream.write_all(&stage).is_err() {
                        failed = true;
                        break;
                    }
                    stage.clear();
                }
                if write_frame(stream, &frame_of(m)).is_err() {
                    failed = true;
                    break;
                }
            }
            if !failed && !stage.is_empty() && stream.write_all(&stage).is_err() {
                failed = true;
            }
            if failed {
                // Redial and retry the whole burst; receivers dedup
                // any prefix that did land (same idempotence that
                // absorbs recovery replays).
                conn = None;
                for m in batch.into_iter().rev() {
                    backlog.push_front(m);
                }
            }
            continue 'frames;
        }
    }
}

/// The per-process retransmit sweep (the wire-mode replacement of the
/// in-process recovery daemon): periodically replays transfers whose
/// acks have gone stale for longer than the recovery timeout, feeding
/// the frames back through the link agents. Heals frames lost to
/// chaos drops, kernel buffers of a killed peer, or torn connections.
fn retransmit_pump(side: Side, local: usize, out: Vec<Option<Sender<NetMsg>>>) {
    let timeout = side.retransmit_timeout();
    let tick = (timeout / 2)
        .max(Duration::from_millis(1))
        .min(Duration::from_millis(25));
    while !side.shutting_down() {
        thread::sleep(tick);
        for (dst, tx) in out.iter().enumerate() {
            let Some(tx) = tx else { continue };
            let summary =
                side.with_retention(local, dst, |r| r.replay(Instant::now(), Some(timeout)));
            if summary.transfers == 0 {
                continue;
            }
            side.counters()
                .retransmitted
                .fetch_add(summary.transfers, Ordering::Relaxed);
            for msg in summary.frames {
                side.counters()
                    .replayed_frames
                    .fetch_add(1, Ordering::Relaxed);
                side.counters()
                    .replayed_bytes
                    .fetch_add(msg.wire_bytes() as u64, Ordering::Relaxed);
                side.depth_add(local, dst, 1);
                if tx.send(msg).is_err() {
                    return;
                }
            }
        }
    }
}

/// The durable ingress log of one worker: every inbound data frame is
/// appended (`[src u32][len u32][encoded frame]`, little-endian)
/// *before* it is dispatched, so anything the worker ever acked is
/// replayable by the next incarnation. Append-only, never fsynced —
/// the page cache survives a `kill -9` of the process, which is the
/// fault model here (machine loss is out of scope).
struct CkptLog {
    /// The log file and the record-staging buffer its appends reuse
    /// (one append per inbound data frame), both under the one lock a
    /// write needs anyway.
    file: Mutex<(std::fs::File, Vec<u8>)>,
}

impl CkptLog {
    /// Opens (creating if absent) the log at `path`, first decoding any
    /// records a previous incarnation wrote. A torn trailing record
    /// (crash mid-append) is ignored.
    fn open(path: &Path) -> io::Result<(CkptLog, Vec<(u32, Frame)>)> {
        let mut restored = Vec::new();
        if let Ok(bytes) = std::fs::read(path) {
            let mut pos = 0usize;
            while bytes.len() - pos >= 8 {
                let src = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
                let len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"))
                    as usize;
                pos += 8;
                if bytes.len() - pos < len {
                    break;
                }
                let mut dec = Decoder::new();
                dec.feed(&bytes[pos..pos + len]);
                match dec.next_frame() {
                    Ok(Some(frame)) => restored.push((src, frame)),
                    _ => break,
                }
                pos += len;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok((
            CkptLog {
                file: Mutex::new((file, Vec::new())),
            },
            restored,
        ))
    }

    fn append(&self, src: u32, frame: &Frame) {
        let (head, payload) = encode_parts(frame);
        let len = head.len() + payload.as_ref().map_or(0, |p| p.len());
        let mut guard = self.file.lock().expect("checkpoint log poisoned");
        let (file, rec) = &mut *guard;
        rec.clear();
        rec.reserve(8 + len);
        rec.extend_from_slice(&src.to_le_bytes());
        rec.extend_from_slice(&(len as u32).to_le_bytes());
        rec.extend_from_slice(&head);
        if let Some(p) = &payload {
            rec.extend_from_slice(p);
        }
        let _ = file.write_all(rec);
    }
}

/// One inbound connection at a worker: the first frame must be the
/// peer's `Hello` (identifying the source endpoint); data frames are
/// logged, then run through fault injection into the normal ingress;
/// ack frames apply directly to local retention (acks bypass chaos —
/// a lost ack is healed by the retransmit pump anyway). A decode error
/// drops the connection; retention replays whatever was in flight.
fn worker_reader(inner: Arc<Inner>, log: Arc<CkptLog>, mut stream: TcpStream, local: usize) {
    let _ = stream.set_nodelay(true);
    let mut dec = Decoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut src: Option<usize> = None;
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        dec.feed(&buf[..n]);
        loop {
            match dec.next_frame() {
                Ok(Some(Frame::Hello { node, .. })) => src = Some(node as usize),
                Ok(Some(frame)) => {
                    let Some(src) = src else { return };
                    let data = matches!(frame, Frame::Whole { .. } | Frame::Chunk { .. });
                    if data {
                        log.append(src as u32, &frame);
                    }
                    let Some(msg) = net_of(frame) else { continue };
                    if data {
                        chaos_ingress(&inner, src, local, msg);
                    } else {
                        handle_net_msg(&inner, src, local, msg);
                    }
                }
                Ok(None) => break,
                Err(_) => return,
            }
        }
    }
}

/// Client-side state of one in-flight request at the coordinator.
struct CoordReq {
    outputs_missing: usize,
    outputs: Vec<(String, Bytes)>,
    errors: Vec<String>,
    /// Client-output edges already collected — a restarted worker's log
    /// replay re-fires its functions and re-ships outputs, so arrival
    /// must be deduplicated per edge for byte-identical results.
    delivered: HashSet<EdgeId>,
    partial: HashMap<(EdgeId, u64), Reassembler>,
    finished: HashSet<(EdgeId, u64)>,
}

/// State shared between the coordinator's agents, readers and API —
/// the coordinator runs no `ClusterRuntime`, so its client-side §6.2
/// retention and counters live here.
struct CoordShared {
    workflow: Arc<Workflow>,
    link: LinkConfig,
    recovery_enabled: bool,
    retransmit_timeout: Duration,
    interval: usize,
    counters: Counters,
    shutdown: AtomicBool,
    /// Retention of the directed link `coordinator → worker k`.
    retention: Vec<Mutex<LinkRetention>>,
    reqs: Mutex<HashMap<u64, CoordReq>>,
    done: Condvar,
}

/// What one chunk advanced a client-output transfer to (the
/// coordinator-side mirror of the runtime's ingress progress).
enum OutputProgress {
    Orphan,
    Complete(Bytes),
    Prefix(usize),
}

fn coord_ingress(shared: &CoordShared, out: &[Sender<NetMsg>], src: usize, msg: NetMsg) {
    match msg {
        NetMsg::AckMark { transfer, mark } => {
            if shared.recovery_enabled {
                let advanced = shared.retention[src]
                    .lock()
                    .expect("retention lock poisoned")
                    .ack_mark(transfer, mark);
                if let Some(prev) = advanced {
                    let cp = CheckpointSchedule::new(shared.interval as f64);
                    shared.counters.acked_marks.fetch_add(
                        cp.marks_crossed(prev as f64, mark as f64),
                        Ordering::Relaxed,
                    );
                }
            }
        }
        NetMsg::AckComplete { transfer } => {
            if shared.recovery_enabled {
                shared.retention[src]
                    .lock()
                    .expect("retention lock poisoned")
                    .ack_complete(transfer);
            }
        }
        NetMsg::Whole {
            req,
            edge,
            transfer,
            payload,
            ..
        } => {
            finish_output(shared, req, edge, payload);
            ack_to(shared, out, src, NetMsg::AckComplete { transfer });
        }
        NetMsg::Chunk {
            req,
            edge,
            transfer,
            offset,
            total,
            bytes,
            ..
        } => {
            let progress = {
                let mut reqs = shared.reqs.lock().expect("coordinator lock poisoned");
                match reqs.get_mut(&req) {
                    // Collected or never invoked: ack it away so the
                    // sender's retention cannot leak.
                    None => OutputProgress::Orphan,
                    Some(rs) => {
                        if rs.finished.contains(&(edge, transfer)) {
                            OutputProgress::Orphan
                        } else {
                            let r = rs
                                .partial
                                .entry((edge, transfer))
                                .or_insert_with(|| Reassembler::new(total));
                            r.write_bytes(offset, bytes);
                            if r.complete() {
                                rs.finished.insert((edge, transfer));
                                match rs.partial.remove(&(edge, transfer)) {
                                    Some(r) => OutputProgress::Complete(r.into_bytes()),
                                    None => OutputProgress::Orphan,
                                }
                            } else {
                                OutputProgress::Prefix(r.contiguous_prefix())
                            }
                        }
                    }
                }
            };
            match progress {
                OutputProgress::Orphan => {
                    ack_to(shared, out, src, NetMsg::AckComplete { transfer })
                }
                OutputProgress::Complete(payload) => {
                    finish_output(shared, req, edge, payload);
                    ack_to(shared, out, src, NetMsg::AckComplete { transfer });
                }
                OutputProgress::Prefix(prefix) => {
                    let mark = (prefix / shared.interval) * shared.interval;
                    if mark > 0 {
                        ack_to(shared, out, src, NetMsg::AckMark { transfer, mark });
                    }
                }
            }
        }
    }
}

fn ack_to(shared: &CoordShared, out: &[Sender<NetMsg>], src: usize, ack: NetMsg) {
    if shared.recovery_enabled {
        if let Some(tx) = out.get(src) {
            let _ = tx.send(ack);
        }
    }
}

fn finish_output(shared: &CoordShared, req: u64, edge: EdgeId, payload: Bytes) {
    let mut reqs = shared.reqs.lock().expect("coordinator lock poisoned");
    let Some(rs) = reqs.get_mut(&req) else { return };
    if !rs.delivered.insert(edge) {
        return; // duplicate after a worker's log replay
    }
    let name = shared.workflow.edge(edge).data_name.clone();
    rs.outputs.push((name, payload));
    rs.outputs_missing = rs.outputs_missing.saturating_sub(1);
    if rs.outputs_missing == 0 {
        shared.done.notify_all();
    }
}

fn coord_reader(shared: Arc<CoordShared>, out: Vec<Sender<NetMsg>>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut dec = Decoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut src: Option<usize> = None;
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        dec.feed(&buf[..n]);
        loop {
            match dec.next_frame() {
                Ok(Some(Frame::Hello { node, .. })) => src = Some(node as usize),
                Ok(Some(frame)) => {
                    let Some(src) = src else { return };
                    if let Some(msg) = net_of(frame) {
                        coord_ingress(&shared, &out, src, msg);
                    }
                }
                Ok(None) => break,
                Err(_) => return,
            }
        }
    }
}

/// A worker process as the coordinator tracks it.
struct WorkerSlot {
    child: Option<Child>,
    ctrl_w: TcpStream,
    ctrl_r: BufReader<TcpStream>,
    port: u16,
    epoch: u32,
    alive: bool,
}

/// The coordinator's control-plane state, shared with the heartbeat
/// thread (wire-mode ε-CON): the worker control channels, the **live**
/// placement (repatched by relocation — the coordinator-side routing
/// authority for client inputs), per-node loss flags and the outbound
/// data queues.
struct CoordCtl {
    workflow: Arc<Workflow>,
    placement: RwLock<Placement>,
    shared: Arc<CoordShared>,
    workers: Vec<Mutex<WorkerSlot>>,
    /// Nodes declared permanently lost (relocated away, never pinged or
    /// restarted again). Swap-guarded so relocation runs exactly once.
    lost: Vec<AtomicBool>,
    /// Senders into the per-worker link-agent queues. Behind a mutex so
    /// shutdown can drop them (agent `recv` disconnect is the exit
    /// signal).
    out: Mutex<Vec<Sender<NetMsg>>>,
    heartbeat_interval: Duration,
    miss_threshold: u32,
}

impl CoordCtl {
    /// One serialized request/reply on a worker's control channel.
    /// Returns `None` (and marks the worker dead) on any I/O failure.
    fn rpc(&self, node: usize, line: &str) -> Option<json::Value> {
        let mut slot = self.workers[node].lock().expect("worker slot poisoned");
        if !slot.alive {
            return None;
        }
        if writeln!(slot.ctrl_w, "{line}").is_err() {
            slot.alive = false;
            return None;
        }
        let mut resp = String::new();
        match slot.ctrl_r.read_line(&mut resp) {
            Ok(n) if n > 0 => json::parse(&resp).ok(),
            _ => {
                slot.alive = false;
                None
            }
        }
    }
}

/// The coordinator's heartbeat loop (wire mode): pings every non-lost
/// worker over its control channel once per interval; after the
/// configured number of consecutive failures the worker is declared
/// permanently lost and its functions are relocated to the survivors.
/// A slow worker is never a false positive — the control channel is
/// served by a dedicated loop that answers pings regardless of
/// data-plane load, so only a dead process (or torn socket) misses.
fn coord_heartbeat(ctl: Arc<CoordCtl>) {
    let mut misses = vec![0u32; ctl.workers.len()];
    loop {
        thread::sleep(ctl.heartbeat_interval);
        if ctl.shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        for (k, miss) in misses.iter_mut().enumerate() {
            if ctl.lost[k].load(Ordering::SeqCst) {
                continue;
            }
            match ctl.rpc(k, "{\"op\":\"ping\"}") {
                Some(_) => {
                    *miss = 0;
                    ctl.shared
                        .counters
                        .heartbeats
                        .fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    *miss += 1;
                    ctl.shared
                        .counters
                        .heartbeat_misses
                        .fetch_add(1, Ordering::Relaxed);
                    if *miss >= ctl.miss_threshold {
                        *miss = 0;
                        coord_relocate(&ctl, k);
                    }
                }
            }
        }
    }
}

/// Wire-mode node-loss relocation, coordinated in three phases so no
/// survivor ever routes a relocated frame toward the dead link:
///
/// 1. gather survivor pressure, compute the new assignment
///    (least-pressured survivor per function), repatch the
///    coordinator's placement and broadcast `relocate` — every survivor
///    repatches its own placement and the new hosts activate fresh
///    FLU/DLU pools;
/// 2. broadcast `resend` — every survivor re-homes its retained
///    transfers that pointed at the dead node and re-sends them from
///    byte 0 (the dead node's reassembly state died with it);
/// 3. the coordinator re-sends its own retained client inputs the same
///    way.
///
/// Exactly-once via the `lost` swap-guard; a second kill of the same
/// node (or a kill with no survivors) is a no-op.
fn coord_relocate(ctl: &Arc<CoordCtl>, dead: usize) {
    let live: Vec<usize> = (0..ctl.workers.len())
        .filter(|k| *k != dead && !ctl.lost[*k].load(Ordering::SeqCst))
        .collect();
    if live.is_empty() {
        return;
    }
    if ctl.lost[dead].swap(true, Ordering::SeqCst) {
        return;
    }
    ctl.shared
        .counters
        .node_losses
        .fetch_add(1, Ordering::Relaxed);
    let mut pressure = vec![0.0f64; ctl.workers.len()];
    for &k in &live {
        if let Some(v) = ctl.rpc(k, "{\"op\":\"pressure\"}") {
            pressure[k] = v.get("pressure").and_then(|x| x.as_f64()).unwrap_or(0.0);
        }
    }
    let moves: Vec<(String, usize)> = {
        let p = ctl.placement.read().expect("placement lock poisoned");
        ctl.workflow
            .function_ids()
            .filter_map(|f| {
                let name = &ctl.workflow.function(f).name;
                (p.node_of(name) == dead)
                    .then(|| (name.clone(), fallback_relocate(&live, &pressure)))
            })
            .collect()
    };
    {
        let mut p = ctl.placement.write().expect("placement lock poisoned");
        for (name, to) in &moves {
            p.reassign(name.clone(), *to);
        }
    }
    let assign = moves
        .iter()
        .map(|(n, t)| format!("\"{n}\":{t}"))
        .collect::<Vec<_>>()
        .join(",");
    let relocate = format!("{{\"op\":\"relocate\",\"dead\":{dead},\"assign\":{{{assign}}}}}");
    for &k in &live {
        let _ = ctl.rpc(k, &relocate);
    }
    let resend = format!("{{\"op\":\"resend\",\"dead\":{dead}}}");
    for &k in &live {
        let _ = ctl.rpc(k, &resend);
    }
    coord_resend(ctl, dead);
}

/// Phase 3 of [`coord_relocate`]: the coordinator's retained client
/// inputs toward the dead node are re-homed per the repatched placement
/// and re-sent whole (the workers' counterpart is `resend_toward`).
fn coord_resend(ctl: &Arc<CoordCtl>, dead: usize) {
    let shared = &ctl.shared;
    if !shared.recovery_enabled {
        return;
    }
    let moved = shared.retention[dead]
        .lock()
        .expect("retention lock poisoned")
        .extract(|_| true);
    if moved.is_empty() {
        return;
    }
    let mut by_dst: HashMap<usize, Vec<u64>> = HashMap::new();
    {
        let p = ctl.placement.read().expect("placement lock poisoned");
        for (id, t) in moved {
            let dst = match ctl.workflow.edge(t.edge).target {
                Endpoint::Function(tf) => p.node_of(&ctl.workflow.function(tf).name),
                Endpoint::Client => continue,
            };
            if dst == dead {
                shared.retention[dead]
                    .lock()
                    .expect("retention lock poisoned")
                    .adopt(id, t, false);
                continue;
            }
            shared.retention[dst]
                .lock()
                .expect("retention lock poisoned")
                .adopt(id, t, true);
            by_dst.entry(dst).or_default().push(id);
        }
    }
    let out = ctl.out.lock().expect("out lock poisoned");
    for (dst, ids) in by_dst {
        let summary = shared.retention[dst]
            .lock()
            .expect("retention lock poisoned")
            .replay_ids(Instant::now(), &ids);
        shared
            .counters
            .recovered_transfers
            .fetch_add(summary.transfers, Ordering::Relaxed);
        let Some(tx) = out.get(dst) else { continue };
        for msg in summary.frames {
            shared
                .counters
                .replayed_frames
                .fetch_add(1, Ordering::Relaxed);
            shared
                .counters
                .replayed_bytes
                .fetch_add(msg.wire_bytes() as u64, Ordering::Relaxed);
            let _ = tx.send(msg);
        }
    }
}

/// A multi-process cluster over real TCP sockets: the coordinator side.
///
/// [`TcpCluster::launch`] spawns one OS process per node (re-executing
/// the current binary — see [`worker_env`]), exchanges the port map
/// over a control channel, and then plays the client role of the
/// in-process [`ClusterRuntime`](crate::ClusterRuntime): it ships
/// request inputs in as retained wire frames and collects the outputs
/// the workers ship back. [`TcpCluster::kill_worker`] delivers a real
/// `SIGKILL` — the ultimate `crash_node` — and
/// [`TcpCluster::restart_worker`] brings the node back as a fresh
/// process that replays its checkpoint log, with every sender resuming
/// its un-acked transfers from the last acknowledged §6.2 mark.
///
/// With [`ClusterRtConfig::orchestrator`] set (see
/// [`ClusterConfig::heartbeat`](crate::ClusterConfig::heartbeat)), the
/// coordinator additionally runs the wire-mode control plane: control-
/// channel pings every heartbeat interval, node-loss declaration after
/// the miss threshold, and relocation of the dead worker's functions
/// onto the least-pressured survivors — a worker lost to `kill -9`
/// mid-run is healed without ever restarting its process.
pub struct TcpCluster {
    ctl: Arc<CoordCtl>,
    control: TcpListener,
    control_port: u16,
    data_addr: SocketAddr,
    dir: PathBuf,
    tag: String,
    addrs: Vec<Arc<AddrCell>>,
    agents: Vec<thread::JoinHandle<()>>,
    pump: Option<thread::JoinHandle<()>>,
    heartbeat: Option<thread::JoinHandle<()>>,
    next_req: AtomicU64,
    next_transfer: AtomicU64,
}

fn spawn_worker(
    exe: &Path,
    node: usize,
    epoch: u32,
    control_port: u16,
    dir: &Path,
    tag: &str,
) -> io::Result<Child> {
    Command::new(exe)
        .env(ENV_NODE, node.to_string())
        .env(ENV_EPOCH, epoch.to_string())
        .env(ENV_CONTROL, control_port.to_string())
        .env(ENV_DIR, dir)
        .env(ENV_TAG, tag)
        .spawn()
}

/// Accepts one worker's control connection and reads its hello line.
/// Returns `(writer, reader, node, epoch, data_port)`.
fn accept_hello(
    listener: &TcpListener,
    deadline: Instant,
) -> io::Result<(TcpStream, BufReader<TcpStream>, usize, u32, u16)> {
    listener.set_nonblocking(true)?;
    let stream = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    let _ = listener.set_nonblocking(false);
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "worker never connected to the control channel",
                    ));
                }
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                let _ = listener.set_nonblocking(false);
                return Err(e);
            }
        }
    };
    listener.set_nonblocking(false)?;
    let _ = stream.set_nodelay(true); // RPC round trips must not hit Nagle
    let w = stream.try_clone()?;
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    r.read_line(&mut line)?;
    let v = json::parse(&line)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad hello: {e}")))?;
    Ok((
        w,
        r,
        jnum(&v, "node") as usize,
        jnum(&v, "epoch") as u32,
        jnum(&v, "port") as u16,
    ))
}

impl TcpCluster {
    /// Launches one worker process per node of `placement` and wires
    /// the full mesh up. `cfg` must be the same configuration the
    /// workers rebuild from `tag` (shaping, chunking, recovery — both
    /// sides derive behavior from it independently).
    ///
    /// `tag` is passed to every worker verbatim in
    /// `DATAFLOWER_WORKER_TAG`; the worker's `main` uses it to rebuild
    /// the identical workflow before calling [`WorkerEnv::serve`].
    ///
    /// # Errors
    ///
    /// Any socket or process-spawn failure, or a worker failing to
    /// introduce itself within the startup timeout.
    pub fn launch(
        workflow: Arc<Workflow>,
        placement: Placement,
        cfg: ClusterRtConfig,
        tag: &str,
    ) -> io::Result<TcpCluster> {
        let nodes = placement.node_count();
        assert!(nodes >= 1, "cluster needs at least one node");
        assert!(nodes < 255, "endpoint ids must fit transfer namespacing");
        let coord = nodes;

        let control = TcpListener::bind("127.0.0.1:0")?;
        let control_port = control.local_addr()?.port();
        let dir = std::env::temp_dir().join(format!(
            "dataflower-wire-{}-{}",
            std::process::id(),
            control_port
        ));
        std::fs::create_dir_all(&dir)?;

        let exe = std::env::current_exe()?;
        let mut children: Vec<Option<Child>> = Vec::new();
        for k in 0..nodes {
            children.push(Some(spawn_worker(&exe, k, 0, control_port, &dir, tag)?));
        }

        // Collect hellos in whatever order the workers come up.
        let mut slots: Vec<Option<WorkerSlot>> = (0..nodes).map(|_| None).collect();
        let deadline = Instant::now() + HELLO_TIMEOUT;
        for _ in 0..nodes {
            let (w, r, node, epoch, port) = accept_hello(&control, deadline)?;
            if node >= nodes || slots[node].is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected hello from node {node}"),
                ));
            }
            slots[node] = Some(WorkerSlot {
                child: children[node].take(),
                ctrl_w: w,
                ctrl_r: r,
                port,
                epoch,
                alive: true,
            });
        }
        let mut slots: Vec<WorkerSlot> =
            slots.into_iter().map(|s| s.expect("all filled")).collect();

        // The coordinator's own data listener is the last endpoint.
        let data = TcpListener::bind("127.0.0.1:0")?;
        let data_addr = data.local_addr()?;
        let peer_table = {
            let mut ports: Vec<String> = slots.iter().map(|s| s.port.to_string()).collect();
            ports.push(data_addr.port().to_string());
            format!("{{\"ports\":[{}]}}", ports.join(","))
        };
        for slot in &mut slots {
            writeln!(slot.ctrl_w, "{peer_table}")?;
        }

        let shared = Arc::new(CoordShared {
            workflow: Arc::clone(&workflow),
            link: cfg.link.clone(),
            recovery_enabled: cfg.recovery.enabled,
            retransmit_timeout: cfg.recovery.retransmit_timeout,
            interval: cfg.checkpoint_interval_bytes,
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            retention: (0..nodes)
                .map(|_| {
                    let mut r = LinkRetention::default();
                    // Orchestrator mode: a relocated function's new host
                    // needs the client inputs from byte 0, so completed
                    // transfers stay replayable until their request is
                    // collected.
                    r.set_retain_acked(cfg.orchestrator);
                    Mutex::new(r)
                })
                .collect(),
            reqs: Mutex::new(HashMap::new()),
            done: Condvar::new(),
        });

        let mut out = Vec::with_capacity(nodes);
        let mut pump_out: Vec<Option<Sender<NetMsg>>> = Vec::with_capacity(nodes);
        let mut addrs = Vec::with_capacity(nodes);
        let mut agents = Vec::with_capacity(nodes);
        for (k, slot) in slots.iter().enumerate() {
            let (tx, rx) = bounded::<NetMsg>(cfg.link.queue_capacity);
            pump_out.push(Some(tx.clone()));
            out.push(tx);
            let addr = Arc::new(AddrCell::new(Some(loopback(slot.port))));
            addrs.push(Arc::clone(&addr));
            let side = Side::Coord(Arc::clone(&shared));
            agents.push(thread::spawn(move || {
                link_agent(side, coord, k, 0, rx, addr)
            }));
        }

        {
            let shared = Arc::clone(&shared);
            let out = out.clone();
            thread::spawn(move || {
                for conn in data.incoming() {
                    if shared.shutdown.load(Ordering::Relaxed) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    let shared = Arc::clone(&shared);
                    let out = out.clone();
                    thread::spawn(move || coord_reader(shared, out, stream));
                }
            });
        }

        let pump = if cfg.recovery.enabled {
            let side = Side::Coord(Arc::clone(&shared));
            Some(thread::spawn(move || {
                retransmit_pump(side, coord, pump_out)
            }))
        } else {
            None
        };

        let ctl = Arc::new(CoordCtl {
            workflow,
            placement: RwLock::new(placement),
            shared,
            workers: slots.into_iter().map(Mutex::new).collect(),
            lost: (0..nodes).map(|_| AtomicBool::new(false)).collect(),
            out: Mutex::new(out),
            heartbeat_interval: cfg.heartbeat_interval,
            miss_threshold: cfg.heartbeat_miss_threshold.max(1),
        });
        let heartbeat = if cfg.orchestrator {
            let ctl = Arc::clone(&ctl);
            Some(thread::spawn(move || coord_heartbeat(ctl)))
        } else {
            None
        };

        Ok(TcpCluster {
            ctl,
            control,
            control_port,
            data_addr,
            dir,
            tag: tag.to_string(),
            addrs,
            agents,
            pump,
            heartbeat,
            next_req: AtomicU64::new(0),
            next_transfer: AtomicU64::new(worker_transfer_base(coord, 0)),
        })
    }

    /// Number of worker nodes (excluding the coordinator endpoint).
    pub fn node_count(&self) -> usize {
        self.ctl.workers.len()
    }

    /// The node currently hosting function `name`, per the live
    /// placement (repatched by relocation).
    ///
    /// # Panics
    ///
    /// Panics if the workflow has no function `name`.
    pub fn node_of(&self, name: &str) -> usize {
        self.ctl
            .placement
            .read()
            .expect("placement lock poisoned")
            .node_of(name)
    }

    /// True once `node` was declared permanently lost (its functions
    /// relocated to the survivors).
    pub fn worker_lost(&self, node: usize) -> bool {
        self.ctl.lost[node].load(Ordering::SeqCst)
    }

    /// Declares `node` permanently lost right now — the manual override
    /// of the heartbeat detector (which calls the same path after the
    /// miss threshold). Relocates its functions to the least-pressured
    /// survivors and re-sends every retained transfer that pointed at
    /// it. Idempotent; losing the last node is a no-op.
    pub fn declare_worker_lost(&self, node: usize) {
        if node < self.ctl.workers.len() {
            coord_relocate(&self.ctl, node);
        }
    }

    /// Invokes the workflow with client inputs `(data_name, payload)`:
    /// ships each input to its destination node as a retained wire
    /// frame. Returns immediately; collect with [`TcpCluster::wait`].
    pub fn invoke(&self, inputs: Vec<(String, Bytes)>) -> ReqId {
        let req = ReqId(self.next_req.fetch_add(1, Ordering::Relaxed));
        let wf = &self.ctl.workflow;
        let shared = &self.ctl.shared;
        let active = resolve_active(wf, req.0);
        let outputs_missing = wf
            .client_outputs()
            .filter(|e| active.edge_active(*e))
            .count();
        shared
            .reqs
            .lock()
            .expect("coordinator lock poisoned")
            .insert(
                req.0,
                CoordReq {
                    outputs_missing,
                    outputs: Vec::new(),
                    errors: Vec::new(),
                    delivered: HashSet::new(),
                    partial: HashMap::new(),
                    finished: HashSet::new(),
                },
            );
        for (name, payload) in inputs {
            let mut matched = false;
            for eid in wf.client_inputs().collect::<Vec<_>>() {
                let e = wf.edge(eid);
                if e.data_name != name {
                    continue;
                }
                matched = true;
                if !active.edge_active(eid) {
                    continue;
                }
                if let Endpoint::Function(dst) = e.target {
                    let dst_node = self
                        .ctl
                        .placement
                        .read()
                        .expect("placement lock poisoned")
                        .node_of(&wf.function(dst).name);
                    let transfer = self.next_transfer.fetch_add(1, Ordering::Relaxed);
                    let key = format!("{name}@$USER");
                    if shared.recovery_enabled {
                        shared.retention[dst_node]
                            .lock()
                            .expect("retention lock poisoned")
                            .retain(
                                transfer,
                                req.0,
                                eid,
                                &key,
                                payload.len(),
                                false,
                                0,
                                payload.clone(),
                            );
                    }
                    let out = self.ctl.out.lock().expect("out lock poisoned");
                    if let Some(tx) = out.get(dst_node) {
                        let _ = tx.send(NetMsg::Whole {
                            req: req.0,
                            edge: eid,
                            key,
                            transfer,
                            payload: payload.clone(),
                        });
                    }
                }
            }
            if !matched {
                let mut reqs = shared.reqs.lock().expect("coordinator lock poisoned");
                if let Some(rs) = reqs.get_mut(&req.0) {
                    rs.errors
                        .push(format!("no client input edge named `{name}`"));
                }
                shared.done.notify_all();
            }
        }
        req
    }

    /// Blocks until every client output of `req` arrived over the wire,
    /// or `timeout`. On success the request's state is released on the
    /// coordinator and purged from every live worker.
    ///
    /// # Errors
    ///
    /// Same contract as the in-process `ClusterRuntime::wait`:
    /// [`RtError::Timeout`], [`RtError::Faulted`],
    /// [`RtError::UnknownRequest`].
    pub fn wait(&self, req: ReqId, timeout: Duration) -> Result<Vec<(String, Bytes)>, RtError> {
        let deadline = Instant::now() + timeout;
        let shared = &self.ctl.shared;
        let mut reqs = shared.reqs.lock().expect("coordinator lock poisoned");
        loop {
            let rs = reqs.get(&req.0).ok_or(RtError::UnknownRequest)?;
            if !rs.errors.is_empty() {
                return Err(RtError::Faulted(rs.errors.join("; ")));
            }
            if rs.outputs_missing == 0 {
                let rs = reqs.remove(&req.0).expect("checked above");
                drop(reqs);
                // Collection point: retain-acked retention (orchestrator
                // mode) may only release a request's transfers now.
                if shared.recovery_enabled {
                    for r in &shared.retention {
                        r.lock().expect("retention lock poisoned").purge_req(req.0);
                    }
                }
                for k in 0..self.ctl.workers.len() {
                    let _ = self
                        .ctl
                        .rpc(k, &format!("{{\"op\":\"purge\",\"req\":{}}}", req.0));
                }
                return Ok(rs.outputs);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RtError::Timeout);
            }
            reqs = shared
                .done
                .wait_timeout(reqs, deadline.saturating_duration_since(now))
                .expect("coordinator lock poisoned")
                .0;
        }
    }

    /// Asks a live worker for its reassembly state: `(in-flight
    /// transfers, bytes durable at checkpoint marks)`. `None` when the
    /// worker is dead or unreachable.
    pub fn probe_worker(&self, node: usize) -> Option<(usize, u64)> {
        let v = self.ctl.rpc(node, "{\"op\":\"probe\"}")?;
        Some((jnum(&v, "inflight") as usize, jnum(&v, "durable")))
    }

    /// True when some endpoint (the coordinator or any live worker)
    /// currently retains a chunked transfer **toward** `victim` that
    /// has crossed an acked checkpoint mark but still has at least
    /// `margin` un-acked bytes — the crash-window probe: killing
    /// `victim` now guarantees its restart resumes mid-stream from a
    /// mark rather than byte 0.
    pub fn sender_mid_stream(&self, victim: usize, margin: usize) -> bool {
        if self.ctl.shared.recovery_enabled
            && self.ctl.shared.retention[victim]
                .lock()
                .expect("retention lock poisoned")
                .has_acked_partial(margin)
        {
            return true;
        }
        for k in 0..self.ctl.workers.len() {
            if k == victim {
                continue;
            }
            let line = format!("{{\"op\":\"retained\",\"dst\":{victim},\"margin\":{margin}}}");
            if let Some(v) = self.ctl.rpc(k, &line) {
                if matches!(v.get("ok"), Some(json::Value::Bool(true))) {
                    return true;
                }
            }
        }
        false
    }

    /// `SIGKILL`s a worker process — the ultimate `crash_node`: no
    /// destructor runs, the kernel reclaims its sockets mid-stream.
    /// The returned report carries the victim's last probed reassembly
    /// state (what a restart must recover).
    pub fn kill_worker(&self, node: usize) -> CrashReport {
        let probed = self.probe_worker(node);
        let mut slot = self.ctl.workers[node].lock().expect("worker slot poisoned");
        let was_up = slot.alive || probed.is_some();
        if let Some(child) = slot.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        slot.child = None;
        slot.alive = false;
        drop(slot);
        if was_up {
            self.ctl
                .shared
                .counters
                .node_crashes
                .fetch_add(1, Ordering::Relaxed);
        }
        let (inflight, durable) = probed.unwrap_or((0, 0));
        CrashReport {
            node,
            was_up,
            inflight_transfers: inflight,
            durable_bytes: durable,
        }
    }

    /// Brings a killed worker back as a **fresh process** with a bumped
    /// epoch: the newcomer replays its checkpoint log, every peer is
    /// told the new port, and the senders' reconnects replay their
    /// un-acked transfers from the last acked mark (§6.2
    /// restart-and-replay over real sockets).
    ///
    /// # Errors
    ///
    /// Process-spawn or handshake failures.
    pub fn restart_worker(&self, node: usize) -> io::Result<()> {
        if self.ctl.lost[node].load(Ordering::SeqCst) {
            // The node's functions were relocated away; a fresh process
            // would rebuild the *original* placement from the tag and
            // fight the survivors for its old functions.
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("node {node} was declared permanently lost"),
            ));
        }
        let epoch = {
            let slot = self.ctl.workers[node].lock().expect("worker slot poisoned");
            slot.epoch + 1
        };
        let exe = std::env::current_exe()?;
        let child = spawn_worker(&exe, node, epoch, self.control_port, &self.dir, &self.tag)?;
        let (w, r, hello_node, hello_epoch, port) =
            accept_hello(&self.control, Instant::now() + HELLO_TIMEOUT)?;
        if hello_node != node || hello_epoch != epoch {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected hello from node {node} epoch {epoch}, got node {hello_node} epoch {hello_epoch}"),
            ));
        }
        let peer_table = {
            let mut ports: Vec<String> = (0..self.ctl.workers.len())
                .map(|k| {
                    if k == node {
                        port.to_string()
                    } else {
                        self.ctl.workers[k]
                            .lock()
                            .expect("worker slot poisoned")
                            .port
                            .to_string()
                    }
                })
                .collect();
            ports.push(self.data_addr.port().to_string());
            format!("{{\"ports\":[{}]}}", ports.join(","))
        };
        {
            let mut slot = self.ctl.workers[node].lock().expect("worker slot poisoned");
            let mut ctrl_w = w;
            writeln!(ctrl_w, "{peer_table}")?;
            *slot = WorkerSlot {
                child: Some(child),
                ctrl_w,
                ctrl_r: r,
                port,
                epoch,
                alive: true,
            };
        }
        self.addrs[node].set(loopback(port));
        self.ctl
            .shared
            .counters
            .node_restarts
            .fetch_add(1, Ordering::Relaxed);
        for k in 0..self.ctl.workers.len() {
            if k != node {
                let _ = self.ctl.rpc(
                    k,
                    &format!("{{\"op\":\"peer_update\",\"node\":{node},\"port\":{port}}}"),
                );
            }
        }
        Ok(())
    }

    /// Cluster-wide counters: the coordinator's own (client-side link
    /// recovery, crashes, restarts) merged with a live snapshot pulled
    /// from every reachable worker. A killed worker's counters are
    /// lost with it — wire-mode totals cover the surviving processes.
    pub fn stats(&self) -> RtStats {
        let mut total = self.ctl.shared.counters.snapshot();
        for k in 0..self.ctl.workers.len() {
            if let Some(v) = self.ctl.rpc(k, "{\"op\":\"stats\"}") {
                if let Some(arr) = v.get("stats").and_then(|a| a.as_arr()) {
                    let vals: Vec<u64> = arr
                        .iter()
                        .filter_map(|x| x.as_f64())
                        .map(|f| f as u64)
                        .collect();
                    total.merge(&RtStats::from_vec(&vals));
                }
            }
        }
        total
    }

    /// Stops every worker (graceful control-channel shutdown, then a
    /// kill for stragglers), tears the coordinator's threads down and
    /// removes the checkpoint-log directory.
    pub fn shutdown(mut self) {
        // Flag first, then join the heartbeat: workers exiting on the
        // shutdown op must not read as missed beats and trigger a
        // relocation storm mid-teardown.
        self.ctl.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(hb) = self.heartbeat.take() {
            let _ = hb.join();
        }
        for k in 0..self.ctl.workers.len() {
            let _ = self.ctl.rpc(k, "{\"op\":\"shutdown\"}");
        }
        for slot in &self.ctl.workers {
            let mut slot = slot.lock().expect("worker slot poisoned");
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        // Nudge the acceptor awake so it observes the flag and drops
        // its queue senders; then the agents' queues disconnect.
        let _ = TcpStream::connect(self.data_addr);
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
        self.ctl.out.lock().expect("out lock poisoned").clear();
        for agent in self.agents.drain(..) {
            let _ = agent.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl std::fmt::Debug for TcpCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpCluster")
            .field("workflow", &self.ctl.workflow.name())
            .field("nodes", &self.ctl.workers.len())
            .field("control_port", &self.control_port)
            .finish()
    }
}
