//! Real TCP transport and worker-process cluster mode.
//!
//! The in-process fabric ships `NetMsg` frames between threads of one
//! process; this module promotes every directed link to a real
//! `std::net::TcpStream` speaking the versioned [`wire`](crate::wire)
//! frame format, and runs **one OS process per endpoint** of the same
//! runtime:
//!
//! * [`TcpCluster::launch`] (the *coordinator*) re-executes the current
//!   binary once per node with `DATAFLOWER_WORKER_*` environment
//!   variables set. Each worker binds a data listener on
//!   `127.0.0.1:0`, reports its port over a line-framed JSON control
//!   channel, and receives the full port map back — so no port is ever
//!   chosen statically.
//! * A worker embeds exactly one node of the cluster and the coordinator
//!   embeds its **client endpoint** — both through
//!   `ClusterRuntimeBuilder::start_wire`, so request state, chunk
//!   reassembly, the §6.2 retention/ack protocol, the retransmit sweep
//!   and relocation re-homing are the runtime's own code on either side
//!   of every socket. Acks, which the in-process fabric applies as
//!   direct calls, travel as explicit `AckMark` / `AckComplete` frames
//!   over the reverse link.
//! * What lives here is what is actually TCP: process spawn and the
//!   hello handshake, the control RPC (set-up, liveness, relocation,
//!   probes and stats — nothing a request waits for), one *link agent*
//!   thread per outbound directed link (`link_agent`: lazily dials the
//!   destination, writes a `Hello` preamble, encodes each burst of small
//!   frames straight into one staging buffer and ships it as one write,
//!   large payloads zero-copy from their [`Bytes`] view, and replays
//!   un-acked transfers when a reconnect succeeds), the inbound decode
//!   loop (`reader`) and the checkpoint log.
//! * A request's release is a frame, not a round trip: when the client
//!   endpoint collects or abandons a request it queues one `Release` per
//!   live worker on the same outbound links, where it leaves with the
//!   agent's next burst.
//! * The checkpoint log belongs to §6.2 recovery and exists only with it.
//!   With [`ClusterConfig::recovery()`](crate::ClusterConfig::recovery()) on, the data and
//!   `Release` frames of every socket read inbound to a worker are
//!   appended to its log in one write **before** any of them is
//!   dispatched, so a `kill -9`'d worker restarted by
//!   [`TcpCluster::restart_worker`] replays its durable ingress (minus
//!   the requests already released), re-fires its functions idempotently,
//!   and the senders replay every un-acked transfer from the last
//!   acknowledged checkpoint mark — byte-identical outputs across a hard
//!   worker kill. Without recovery nothing is ever acked or retained, no
//!   log is kept, and a restarted worker starts empty.
//!
//! The in-process fabric remains the default and the fast path; this
//! module is opt-in for callers that want real process isolation (see
//! `examples/socket_cluster.rs`).

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::OwnedFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use dataflower_workflow::{json, Workflow};

use crate::admission::{Rejected, TenantStats};
use crate::bytes::Bytes;
use crate::channel::Receiver;
use crate::config::ClusterConfig;
use crate::error::RtError;
use crate::fabric::{NetMsg, SHIPPER_BATCH};
use crate::node::{least_pressured, Placement};
use crate::orchestrator::{activate_pool, rehome_retention};
use crate::runtime::{
    chaos_ingress, depth_of, handle_net_msg, node_pressure_of, retention_of, take_replay,
    ClusterRuntime, ClusterRuntimeBuilder, CrashReport, Inner, ReqId, RtStats, WireSpec,
};
use crate::wire::{encode_msg, encode_parts, net_of, Decoder, Frame};

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
    /// last), then — with recovery on — replay the checkpoint log of any
    /// previous incarnation, and start accepting peer connections.
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
        let (rt, out_rx) = builder.start_wire(spec).expect("start worker runtime");
        let inner = Arc::clone(&rt.inner);
        let endpoints = inner.nodes.len();

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
        let addrs: Vec<Arc<AddrCell>> = peers
            .get("ports")
            .and_then(|p| p.as_arr())
            .expect("peer table ports")
            .iter()
            .filter_map(|x| x.as_f64())
            .map(|f| Arc::new(AddrCell::new(loopback(f as u16))))
            .collect();
        assert_eq!(addrs.len(), endpoints, "peer table covers every endpoint");
        spawn_agents(&inner, spec, out_rx, &addrs);

        // The checkpoint log is half of §6.2 recovery, so it exists only
        // with it: without retention nothing is ever acked, so nothing is
        // owed to a next incarnation. With it, replay the durable ingress
        // of any previous incarnation before accepting new frames:
        // re-fired functions are idempotent (the consumed-entry sentinel
        // blocks double triggers downstream) and the re-emitted acks
        // drain through the agents just spawned.
        let log = inner.cfg.recovery.is_some().then(|| {
            let path = self.dir.join(format!("node{}.log", self.node));
            let (log, restored) = CkptLog::open(&path).expect("open checkpoint log");
            for (src, frame) in restored {
                if let Some(msg) = net_of(frame) {
                    handle_net_msg(&inner, src as usize, self.node, msg);
                }
            }
            Arc::new(log)
        });
        {
            let inner = Arc::clone(&inner);
            thread::spawn(move || accept_loop(listener, inner, log));
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
                    let assign = parse_assign(&v);
                    {
                        let mut p = inner.placement.write().expect("placement lock poisoned");
                        for (name, to) in &assign {
                            p.reassign(name.clone(), *to);
                        }
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
                        .relocated_functions
                        .fetch_add(activated as u64, Ordering::Relaxed);
                    format!("{{\"ok\":true,\"activated\":{activated}}}")
                }
                "resend" => {
                    // Every survivor repatched its placement by now, so
                    // the node may be fenced: from here on this worker's
                    // recovery sweep re-homes stragglers toward it too.
                    let dead = jnum(&v, "dead") as usize;
                    if let Some(state) = inner.nodes.get(dead) {
                        state.lost.store(true, Ordering::SeqCst);
                        state.down.store(true, Ordering::SeqCst);
                    }
                    let n = rehome_retention(&inner, dead);
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
                    let ok = inner.cfg.recovery.is_some()
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

/// Where a peer endpoint currently listens; rewritten by `peer_update`
/// when a worker restarts on a fresh ephemeral port. Agents re-read it
/// on every dial attempt.
struct AddrCell(Mutex<SocketAddr>);

impl AddrCell {
    fn new(addr: SocketAddr) -> AddrCell {
        AddrCell(Mutex::new(addr))
    }

    fn get(&self) -> SocketAddr {
        *self.0.lock().expect("addr cell poisoned")
    }

    fn set(&self, addr: SocketAddr) {
        *self.0.lock().expect("addr cell poisoned") = addr;
    }
}

/// Spawns one [`link_agent`] per outbound directed link of the endpoint
/// `spec.local` (every `Some` receiver of `out_rx`, dialing `addrs[dst]`).
fn spawn_agents(
    inner: &Arc<Inner>,
    spec: WireSpec,
    out_rx: Vec<Option<Receiver<NetMsg>>>,
    addrs: &[Arc<AddrCell>],
) -> Vec<thread::JoinHandle<()>> {
    out_rx
        .into_iter()
        .enumerate()
        .filter_map(|(dst, rx)| {
            let rx = rx?;
            let (inner, addr) = (Arc::clone(inner), Arc::clone(&addrs[dst]));
            Some(thread::spawn(move || {
                link_agent(inner, spec, dst, rx, addr)
            }))
        })
        .collect()
}

/// Ships `msg` with its payload uncopied: the header and fields join
/// whatever run `stage` already holds and leave as one write, then the
/// payload goes out as a second `write_all` straight from its zero-copy
/// [`Bytes`] view. Leaves `stage` empty.
fn write_split(stream: &mut TcpStream, stage: &mut Vec<u8>, msg: &NetMsg) -> io::Result<()> {
    let payload = encode_msg(msg, stage);
    let sent = stream
        .write_all(stage)
        .and_then(|()| payload.map_or(Ok(()), |p| stream.write_all(p)));
    stage.clear();
    sent
}

/// Frames up to this size (the sub-16 KiB direct-socket class of the
/// paper's §7 pipe taxonomy, and ack frames) are copied into the link
/// agent's staging buffer and leave as one write per burst; larger ones
/// go out as their own zero-copy write.
const STAGED_FRAME_BYTES: usize = 16 * 1024;

/// The shipping thread of one outbound directed link `spec.local → dst`:
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
    inner: Arc<Inner>,
    spec: WireSpec,
    dst: usize,
    rx: Receiver<NetMsg>,
    addr: Arc<AddrCell>,
) {
    let local = spec.local;
    // Every data frame leaves the link's backpressure gauge as it leaves
    // the queue.
    let dequeued = |m: &NetMsg| {
        if matches!(m, NetMsg::Whole { .. } | NetMsg::Chunk { .. }) {
            depth_of(&inner, local, dst).fetch_sub(1, Ordering::Relaxed);
        }
    };
    let link = &inner.cfg.link;
    let shaped = link.latency > Duration::ZERO || link.bandwidth_bytes_per_sec.is_some();
    let mut conn: Option<TcpStream> = None;
    let mut had_session = false;
    let mut backlog: VecDeque<NetMsg> = VecDeque::new();
    // The burst in hand and the staging buffer its small-frame runs are
    // encoded into, both reused across bursts (`stage` is empty between
    // writes).
    let mut batch: Vec<NetMsg> = Vec::with_capacity(SHIPPER_BATCH);
    let mut stage: Vec<u8> = Vec::new();
    // The preamble of every connection this agent dials.
    let (hello, _) = encode_parts(&Frame::Hello {
        node: local as u32,
        epoch: spec.epoch,
    });
    'frames: loop {
        let msg = match backlog.pop_front() {
            Some(m) => m,
            None => match rx.recv() {
                Ok(m) => {
                    dequeued(&m);
                    m
                }
                Err(_) => break,
            },
        };
        loop {
            if inner.shutdown.load(Ordering::Relaxed)
                || inner.nodes[dst].lost.load(Ordering::SeqCst)
            {
                // Teardown, or a destination declared permanently lost
                // (its retention is re-homed elsewhere): keep draining so
                // senders never block, but stop shipping.
                continue 'frames;
            }
            if conn.is_none() {
                let Ok(mut s) = TcpStream::connect(addr.get()) else {
                    thread::sleep(Duration::from_millis(5));
                    continue;
                };
                let _ = s.set_nodelay(true);
                if s.write_all(&hello).is_err() {
                    thread::sleep(Duration::from_millis(5));
                    continue;
                }
                let reconnect = had_session;
                had_session = true;
                conn = Some(s);
                if reconnect && inner.cfg.recovery.is_some() {
                    // The peer may have restarted from scratch: replay
                    // every incomplete transfer ahead of the frame in
                    // hand (duplicates are idempotent at the receiver).
                    let replay = take_replay(&inner, local, dst, None);
                    if !replay.is_empty() {
                        backlog.extend(replay);
                        backlog.push_back(msg);
                        continue 'frames;
                    }
                }
            }
            let stream = conn.as_mut().expect("connected above");
            if shaped {
                // Shaped transfer time, mirroring the in-process shipper:
                // latency once per transfer plus serialization delay —
                // per frame, so ship per frame.
                if msg.starts_transfer() {
                    thread::sleep(link.latency);
                }
                if let Some(bw) = link.bandwidth_bytes_per_sec.filter(|bw| *bw > 0.0) {
                    thread::sleep(Duration::from_secs_f64(msg.wire_bytes() as f64 / bw));
                }
                match write_split(stream, &mut stage, &msg) {
                    Ok(()) => continue 'frames,
                    Err(_) => conn = None, // redial, retry the same frame
                }
                continue;
            }
            // Unshaped link: gather the burst already queued behind this
            // frame and ship it as one write. Small frames (the sub-16
            // KiB direct-socket class), acks and releases encode into the
            // staging buffer, payload and all; a big payload flushes the
            // staged run with its own header and goes out as its own
            // zero-copy write.
            batch.push(msg);
            batch.extend(backlog.drain(..backlog.len().min(SHIPPER_BATCH - 1)));
            let queued_from = batch.len();
            let _ = rx.try_drain(&mut batch, SHIPPER_BATCH - queued_from);
            batch[queued_from..].iter().for_each(dequeued);
            let staged = batch.iter().try_for_each(|m| {
                if m.wire_bytes() > STAGED_FRAME_BYTES {
                    return write_split(stream, &mut stage, m);
                }
                if let Some(payload) = encode_msg(m, &mut stage) {
                    stage.extend_from_slice(payload);
                }
                Ok(())
            });
            let sent = staged.and_then(|()| stream.write_all(&stage));
            stage.clear();
            if sent.is_err() {
                // Redial and retry the whole burst; receivers dedup
                // any prefix that did land (same idempotence that
                // absorbs recovery replays).
                conn = None;
                batch.drain(..).rev().for_each(|m| backlog.push_front(m));
            }
            batch.clear();
            continue 'frames;
        }
    }
}

/// The durable ingress log of one worker with §6.2 recovery on: every
/// inbound data frame and every `Release` is appended as one record
/// (`[src u32][len u32][the frame's wire bytes]`, little-endian)
/// *before* it is dispatched, so anything the worker ever acked is
/// replayable by the next incarnation — and anything the client already
/// released is not replayed. Append-only, never fsynced — the page cache
/// survives a `kill -9` of the process, which is the fault model here
/// (machine loss is out of scope).
struct CkptLog {
    file: Mutex<std::fs::File>,
}

impl CkptLog {
    /// Opens (creating if absent) the log at `path`, first decoding the
    /// records a previous incarnation wrote: the data frames of every
    /// request the log holds no `Release` for, plus the `Release`s
    /// themselves (they rebuild the purged set, so a late retransmission
    /// cannot re-seed a finished request). A torn trailing record (crash
    /// mid-append) is ignored.
    fn open(path: &Path) -> io::Result<(CkptLog, Vec<(u32, Frame)>)> {
        let mut restored = Vec::new();
        let mut released = std::collections::HashSet::new();
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
                    Ok(Some(frame)) => {
                        if let Frame::Release { req } = frame {
                            released.insert(req);
                        }
                        restored.push((src, frame));
                    }
                    _ => break,
                }
                pos += len;
            }
        }
        restored.retain(|(_, frame)| match frame {
            Frame::Whole { req, .. } | Frame::Chunk { req, .. } => !released.contains(req),
            _ => true,
        });
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok((
            CkptLog {
                file: Mutex::new(file),
            },
            restored,
        ))
    }

    /// Appends one record to `burst`, the group commit a [`reader`]
    /// builds per socket read.
    fn stage(burst: &mut Vec<u8>, src: u32, frame: &[u8]) {
        burst.extend_from_slice(&src.to_le_bytes());
        burst.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        burst.extend_from_slice(frame);
    }

    /// Commits a burst of staged records: one `write_all` under one lock
    /// acquisition, however many frames the read carried.
    fn append(&self, burst: &[u8]) -> io::Result<()> {
        let mut file = self.file.lock().expect("checkpoint log poisoned");
        file.write_all(burst)
    }
}

/// Accepts inbound data connections for the life of the process, one
/// [`reader`] thread each. `log` is the checkpoint log of a worker with
/// recovery on; the client endpoint keeps none (it is never restarted).
fn accept_loop(listener: TcpListener, inner: Arc<Inner>, log: Option<Arc<CkptLog>>) {
    for conn in listener.incoming() {
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let (inner, log) = (Arc::clone(&inner), log.clone());
        thread::spawn(move || reader(inner, log, stream));
    }
}

/// One inbound connection: the first frame must be the peer's `Hello`
/// (identifying the source endpoint). Every complete frame of one socket
/// read is decoded, then — where a checkpoint log is kept — the records
/// of its data and `Release` frames are committed in one append, and only
/// then is the burst dispatched: data frames through fault injection into
/// the runtime's ingress, acks and releases straight to it (they bypass
/// chaos — a lost ack is healed by the retransmit sweep anyway). So no
/// frame is dispatched, let alone acked, before its record is in the log.
/// A decode error, or a burst that cannot be logged, drops the
/// connection with that burst undispatched; retention replays whatever
/// was in flight.
fn reader(inner: Arc<Inner>, log: Option<Arc<CkptLog>>, mut stream: TcpStream) {
    let local = inner.wire.as_ref().expect("wire endpoint").local;
    let _ = stream.set_nodelay(true);
    let mut dec = Decoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut src: Option<usize> = None;
    let mut burst: Vec<NetMsg> = Vec::new();
    let mut records: Vec<u8> = Vec::new();
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        dec.feed(&buf[..n]);
        loop {
            match dec.next_raw() {
                Ok(Some((Frame::Hello { node, .. }, _))) => src = Some(node as usize),
                Ok(Some((frame, raw))) => {
                    let Some(src) = src.filter(|s| *s < inner.nodes.len()) else {
                        return;
                    };
                    let Some(msg) = net_of(frame) else { continue };
                    let acks = matches!(msg, NetMsg::AckMark { .. } | NetMsg::AckComplete { .. });
                    if log.is_some() && !acks {
                        CkptLog::stage(&mut records, src as u32, raw);
                    }
                    burst.push(msg);
                }
                Ok(None) => break,
                Err(_) => return,
            }
        }
        if let Some(log) = &log {
            if log.append(&records).is_err() {
                return;
            }
            records.clear();
        }
        for msg in burst.drain(..) {
            let src = src.expect("frames follow the hello");
            if matches!(msg, NetMsg::Whole { .. } | NetMsg::Chunk { .. }) {
                chaos_ingress(&inner, src, local, msg);
            } else {
                handle_net_msg(&inner, src, local, msg);
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
/// thread (wire-mode ε-CON): the worker control channels plus the client
/// endpoint's runtime, whose **live** placement (repatched by
/// relocation) is the routing authority for client inputs and whose
/// per-node `lost` flags fence relocated workers.
struct CoordCtl {
    inner: Arc<Inner>,
    workers: Vec<Mutex<WorkerSlot>>,
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
/// Sleeps on the shutdown condvar so teardown never waits out a beat.
fn coord_heartbeat(ctl: Arc<CoordCtl>) {
    let inner = &ctl.inner;
    let threshold = inner.cfg.heartbeat_miss_threshold.max(1);
    let mut misses = vec![0u32; ctl.workers.len()];
    while !inner.wait_shutdown(inner.cfg.heartbeat_interval) {
        for (k, miss) in misses.iter_mut().enumerate() {
            if inner.nodes[k].lost.load(Ordering::SeqCst) {
                continue;
            }
            match ctl.rpc(k, "{\"op\":\"ping\"}") {
                Some(_) => {
                    *miss = 0;
                    inner.counters.heartbeats.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    *miss += 1;
                    inner
                        .counters
                        .heartbeat_misses
                        .fetch_add(1, Ordering::Relaxed);
                    if *miss >= threshold {
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
/// 3. the coordinator re-homes its own retained client inputs through
///    the same `rehome_retention`.
///
/// Exactly-once via the `lost` swap-guard; a second kill of the same
/// node (or a kill with no survivors) is a no-op.
fn coord_relocate(ctl: &CoordCtl, dead: usize) {
    let inner = &ctl.inner;
    let live: Vec<usize> = (0..ctl.workers.len())
        .filter(|k| *k != dead && !inner.nodes[*k].lost.load(Ordering::SeqCst))
        .collect();
    if live.is_empty() {
        return;
    }
    if inner.nodes[dead].lost.swap(true, Ordering::SeqCst) {
        return;
    }
    inner.counters.node_losses.fetch_add(1, Ordering::Relaxed);
    let mut pressure = vec![0.0f64; ctl.workers.len()];
    for &k in &live {
        if let Some(v) = ctl.rpc(k, "{\"op\":\"pressure\"}") {
            pressure[k] = v.get("pressure").and_then(|x| x.as_f64()).unwrap_or(0.0);
        }
    }
    let wf = &inner.workflow;
    let mut assign = Vec::new();
    {
        let mut p = inner.placement.write().expect("placement lock poisoned");
        for f in wf.function_ids() {
            let name = &wf.function(f).name;
            if p.node_of(name) == dead {
                let to = least_pressured(&live, &pressure);
                p.reassign(name.clone(), to);
                assign.push(format!("\"{name}\":{to}"));
            }
        }
    }
    let assign = assign.join(",");
    let relocate = format!("{{\"op\":\"relocate\",\"dead\":{dead},\"assign\":{{{assign}}}}}");
    for &k in &live {
        let _ = ctl.rpc(k, &relocate);
    }
    let resend = format!("{{\"op\":\"resend\",\"dead\":{dead}}}");
    for &k in &live {
        let _ = ctl.rpc(k, &resend);
    }
    rehome_retention(inner, dead);
}

/// A multi-process cluster over real TCP sockets: the coordinator side.
///
/// [`TcpCluster::launch`] spawns one OS process per node (re-executing
/// the current binary — see [`worker_env`]), exchanges the port map
/// over a control channel, and then **is the client endpoint** of the
/// same runtime the workers run: requests are invoked, awaited and
/// abandoned by the client code of the in-process
/// [`ClusterRuntime`], whose inputs leave as retained wire frames, whose
/// outputs the workers ship back, and whose release of a finished request
/// follows the inputs as one `Release` frame per worker.
/// [`TcpCluster::kill_worker`] delivers a real `SIGKILL` — the ultimate
/// `crash_node` — and [`TcpCluster::restart_worker`] brings the node back
/// as a fresh process that (with recovery on) replays its checkpoint log,
/// with every sender resuming its un-acked transfers from the last
/// acknowledged §6.2 mark.
///
/// With [`ClusterConfig::orchestrator`] set (see
/// [`ClusterConfig::heartbeat`]), the
/// coordinator additionally runs the wire-mode control plane: control-
/// channel pings every heartbeat interval, node-loss declaration after
/// the miss threshold, and relocation of the dead worker's functions
/// onto the least-pressured survivors — a worker lost to `kill -9`
/// mid-run is healed without ever restarting its process.
pub struct TcpCluster {
    /// The client endpoint of the cluster's runtime.
    rt: ClusterRuntime,
    ctl: Arc<CoordCtl>,
    control: TcpListener,
    control_port: u16,
    data_addr: SocketAddr,
    dir: PathBuf,
    tag: String,
    addrs: Vec<Arc<AddrCell>>,
    agents: Vec<thread::JoinHandle<()>>,
    heartbeat: Option<thread::JoinHandle<()>>,
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

/// Accepts one worker's control connection and reads its hello line,
/// both inside `deadline` — a peer that never connects, or connects and
/// never speaks, must not hang the launch.
///
/// Event-driven: a blocking `accept` returns the moment a worker
/// connects, and the kernel enforces the deadline. The listener's
/// receive timeout (`SO_RCVTIMEO`) is set to the time left, which Linux
/// applies to `accept` as well as to reads; an expired wait surfaces as
/// `WouldBlock`. The kernel counts that timeout in ticks and may end the
/// wait up to one tick early, so the wait is re-armed with what is left
/// until the deadline has passed; then the call fails with `TimedOut`
/// without touching the socket, since a zero timeout would block forever.
/// Returns `(writer, reader, node, epoch, data_port)`.
fn accept_hello(
    listener: &TcpListener,
    deadline: Instant,
) -> io::Result<(TcpStream, BufReader<TcpStream>, usize, u32, u16)> {
    let timed_out = || {
        io::Error::new(
            io::ErrorKind::TimedOut,
            "worker never introduced itself on the control channel",
        )
    };
    let left = || {
        Some(deadline.saturating_duration_since(Instant::now()))
            .filter(|left| !left.is_zero())
            .ok_or_else(timed_out)
    };
    // std sets `SO_RCVTIMEO` on streams only; a duplicate descriptor of
    // the listener reaches the same socket.
    let listener_timeout = TcpStream::from(OwnedFd::from(listener.try_clone()?));
    let stream = loop {
        listener_timeout.set_read_timeout(Some(left()?))?;
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
            Err(e) => return Err(e),
        }
    };
    let _ = stream.set_nodelay(true); // RPC round trips must not hit Nagle
    stream.set_read_timeout(Some(left()?))?;
    let w = stream.try_clone()?;
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    r.read_line(&mut line).map_err(|e| match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => timed_out(),
        _ => e,
    })?;
    // RPC replies may take as long as the worker needs.
    r.get_ref().set_read_timeout(None)?;
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
        cfg: ClusterConfig,
        tag: &str,
    ) -> io::Result<TcpCluster> {
        let nodes = placement.node_count();
        assert!(nodes < 255, "endpoint ids must fit transfer namespacing");
        let spec = WireSpec {
            local: nodes,
            epoch: 0,
        };
        let (rt, out_rx) = ClusterRuntimeBuilder::new(workflow)
            .placement(placement)
            .config(cfg)
            .start_wire(spec)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let inner = Arc::clone(&rt.inner);

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

        let addrs: Vec<Arc<AddrCell>> = slots
            .iter()
            .map(|slot| Arc::new(AddrCell::new(loopback(slot.port))))
            .collect();
        let agents = spawn_agents(&inner, spec, out_rx, &addrs);
        {
            let inner = Arc::clone(&inner);
            thread::spawn(move || accept_loop(data, inner, None));
        }

        let ctl = Arc::new(CoordCtl {
            inner,
            workers: slots.into_iter().map(Mutex::new).collect(),
        });
        let heartbeat = ctl.inner.cfg.orchestrator.then(|| {
            let ctl = Arc::clone(&ctl);
            thread::spawn(move || coord_heartbeat(ctl))
        });

        Ok(TcpCluster {
            rt,
            ctl,
            control,
            control_port,
            data_addr,
            dir,
            tag: tag.to_string(),
            addrs,
            agents,
            heartbeat,
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
        self.rt.node_of(name)
    }

    /// True once `node` was declared permanently lost (its functions
    /// relocated to the survivors).
    pub fn worker_lost(&self, node: usize) -> bool {
        self.ctl.inner.nodes[node].lost.load(Ordering::SeqCst)
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
        self.rt.invoke(inputs)
    }

    /// [`TcpCluster::invoke`] on behalf of `tenant`, subject to the
    /// admission caps of [`ClusterConfig::admission`]; see
    /// [`ClusterRuntime::try_invoke`].
    ///
    /// # Errors
    ///
    /// [`Rejected`] when the tenant (or the whole gate) is at its
    /// in-flight cap; nothing is shipped in that case.
    pub fn try_invoke(
        &self,
        tenant: &str,
        inputs: Vec<(String, Bytes)>,
    ) -> Result<ReqId, Rejected> {
        self.rt.try_invoke(tenant, inputs)
    }

    /// Per-tenant admission counters; see
    /// [`ClusterRuntime::tenant_stats`].
    pub fn tenant_stats(&self) -> Vec<(String, TenantStats)> {
        self.rt.tenant_stats()
    }

    /// Blocks until every client output of `req` arrived over the wire,
    /// or `timeout`. On success the request's state is released on the
    /// coordinator at once and on every live worker eventually: the
    /// release travels as a `Release` frame in the link agents' next
    /// burst, so collecting a request costs no round trip.
    ///
    /// # Errors
    ///
    /// The contract of [`ClusterRuntime::wait`]: [`RtError::Timeout`],
    /// [`RtError::Faulted`], [`RtError::UnknownRequest`]. A timed-out or
    /// faulted request stays tracked; abandon it with
    /// [`TcpCluster::forget`].
    pub fn wait(&self, req: ReqId, timeout: Duration) -> Result<Vec<(String, Bytes)>, RtError> {
        self.rt.wait(req, timeout)
    }

    /// Abandons a request: drops its state on the coordinator and (by
    /// `Release` frame, like [`TcpCluster::wait`]) every live worker's
    /// parked inputs and reassembly buffers for it; see
    /// [`ClusterRuntime::forget`]. Never blocks on a dead worker.
    pub fn forget(&self, req: ReqId) {
        self.rt.forget(req);
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
        let inner = &self.ctl.inner;
        if inner.cfg.recovery.is_some()
            && retention_of(inner, self.node_count(), victim)
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
        // Dead until restarted: the client stops queueing releases toward
        // it and the retransmit sweep stops feeding its link.
        let inner = &self.ctl.inner;
        inner.nodes[node].down.store(true, Ordering::SeqCst);
        if was_up {
            inner.counters.node_crashes.fetch_add(1, Ordering::Relaxed);
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
    /// epoch: every peer is told the new port and, with recovery on, the
    /// newcomer replays its checkpoint log and the senders' reconnects
    /// replay their un-acked transfers from the last acked mark (§6.2
    /// restart-and-replay over real sockets). Without recovery it starts
    /// empty: a cluster that retains nothing has nothing to resume.
    ///
    /// # Errors
    ///
    /// Process-spawn or handshake failures.
    pub fn restart_worker(&self, node: usize) -> io::Result<()> {
        if self.worker_lost(node) {
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
        let inner = &self.ctl.inner;
        inner.nodes[node].down.store(false, Ordering::SeqCst);
        inner.counters.node_restarts.fetch_add(1, Ordering::Relaxed);
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
        let mut total = self.rt.stats();
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
        // relocation storm mid-teardown. The raise wakes the heartbeat
        // now, not a beat later.
        drop(self.ctl.inner.raise_shutdown());
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
        // Nudge the acceptor awake so it observes the flag and exits.
        let _ = TcpStream::connect(self.data_addr);
        // The runtime's teardown drops the link rows; the agents' queues
        // disconnect and they exit.
        self.rt.shutdown();
        for agent in self.agents.drain(..) {
            let _ = agent.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl std::fmt::Debug for TcpCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpCluster")
            .field("workflow", &self.ctl.inner.workflow.name())
            .field("nodes", &self.ctl.workers.len())
            .field("control_port", &self.control_port)
            .field("retained", &self.rt.retained_transfers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use dataflower_workflow::{SizeModel, WorkModel, WorkflowBuilder};

    use crate::wire::encode_into;

    fn data_frame(req: u64, transfer: u64) -> Frame {
        Frame::Whole {
            req,
            edge: 0,
            key: "in@$USER".into(),
            transfer,
            payload: Bytes::from(vec![req as u8; 40]),
        }
    }

    fn raw(frame: &Frame) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_into(frame, &mut bytes);
        bytes
    }

    fn temp_log(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("dataflower-ckpt-{}-{name}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// A restarted worker must re-run only what the client has not
    /// released yet: `open` drops the data frames of every request the
    /// log holds a `Release` for (and keeps the releases, which rebuild
    /// the purged set), and still ignores a torn trailing record.
    #[test]
    fn reopening_the_log_restores_only_unreleased_requests() {
        let path = temp_log("released");
        let (log, restored) = CkptLog::open(&path).expect("create log");
        assert!(restored.is_empty());
        let history = [
            data_frame(1, 10),
            data_frame(2, 20),
            data_frame(3, 30),
            data_frame(2, 21),
            Frame::Release { req: 1 },
            Frame::Release { req: 3 },
        ];
        let mut burst = Vec::new();
        for frame in &history {
            CkptLog::stage(&mut burst, 2, &raw(frame));
        }
        log.append(&burst).expect("append history");
        // The previous incarnation died halfway through its next record.
        let mut torn = Vec::new();
        CkptLog::stage(&mut torn, 2, &raw(&data_frame(4, 40)));
        log.append(&torn[..torn.len() - 7]).expect("append torn");
        drop(log);

        let (_, restored) = CkptLog::open(&path).expect("reopen log");
        let expected: Vec<(u32, Frame)> = [
            data_frame(2, 20),
            data_frame(2, 21),
            Frame::Release { req: 1 },
            Frame::Release { req: 3 },
        ]
        .into_iter()
        .map(|f| (2, f))
        .collect();
        assert_eq!(restored, expected);
        let _ = std::fs::remove_file(&path);
    }

    /// Group commit changes how often the log is written, not what is in
    /// it: one burst of three frames leaves the record sequence of three
    /// single appends.
    #[test]
    fn a_burst_logs_the_records_of_its_single_appends() {
        let frames = [
            data_frame(1, 10),
            Frame::Release { req: 1 },
            data_frame(2, 20),
        ];
        let (grouped, single) = (temp_log("grouped"), temp_log("single"));
        let (log, _) = CkptLog::open(&grouped).expect("create log");
        let mut burst = Vec::new();
        for frame in &frames {
            CkptLog::stage(&mut burst, 1, &raw(frame));
        }
        log.append(&burst).expect("one append");
        let (log, _) = CkptLog::open(&single).expect("create log");
        for frame in &frames {
            let mut record = Vec::new();
            CkptLog::stage(&mut record, 1, &raw(frame));
            log.append(&record).expect("single append");
        }
        let bytes = std::fs::read(&grouped).expect("read grouped log");
        assert!(!bytes.is_empty());
        assert_eq!(bytes, std::fs::read(&single).expect("read single log"));
        let _ = std::fs::remove_file(&grouped);
        let _ = std::fs::remove_file(&single);
    }

    /// Feeds a fresh one-node worker endpoint three client inputs in one
    /// write through a [`reader`] logging to `log`; returns how many of
    /// them the reader delivered (counted on its own thread, so exact
    /// once it is joined).
    fn delivered_behind(log: CkptLog) -> u64 {
        let mut b = WorkflowBuilder::new("logged");
        let f = b.function("f", WorkModel::fixed(0.0));
        b.client_input(f, "in", SizeModel::Fixed(40.0));
        b.client_output(f, "out", SizeModel::Fixed(40.0));
        let wf = Arc::new(b.build().expect("valid workflow"));
        let (rt, _out_rx) = ClusterRuntimeBuilder::new(wf)
            .placement(Placement::with_nodes(1))
            .register("f", |ctx| {
                let input = ctx.input("in").expect("input").clone();
                ctx.put("out", input);
            })
            .start_wire(WireSpec { local: 0, epoch: 0 })
            .expect("start worker endpoint");

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (conn, _) = listener.accept().expect("accept");
        let inner = Arc::clone(&rt.inner);
        let reading = thread::spawn(move || reader(inner, Some(Arc::new(log)), conn));
        let mut session = raw(&Frame::Hello { node: 1, epoch: 0 });
        for req in 0..3 {
            session.extend_from_slice(&raw(&data_frame(req, 100 + req)));
        }
        peer.write_all(&session).expect("send burst");
        // A reader that refuses the burst hangs up; one that serves it
        // leaves on our EOF.
        let _ = peer.shutdown(std::net::Shutdown::Write);
        reading.join().expect("reader thread");
        let delivered = rt.stats().deliveries;
        rt.shutdown();
        delivered
    }

    /// A frame is dispatched only once its record is in the log: a
    /// reader whose log cannot be written drops the connection and
    /// dispatches nothing of the burst, where the same burst behind a
    /// healthy log runs all three requests and leaves their records.
    #[test]
    fn a_burst_that_cannot_be_logged_is_not_dispatched() {
        let path = temp_log("reader");
        let (log, _) = CkptLog::open(&path).expect("create log");
        assert_eq!(delivered_behind(log), 3);
        let (_, restored) = CkptLog::open(&path).expect("reopen log");
        let expected: Vec<(u32, Frame)> = (0..3).map(|r| (1, data_frame(r, 100 + r))).collect();
        assert_eq!(restored, expected);

        // The same file opened read-only: every append fails.
        let unwritable = CkptLog {
            file: Mutex::new(std::fs::File::open(&path).expect("open read-only")),
        };
        assert_eq!(delivered_behind(unwritable), 0);
        let _ = std::fs::remove_file(&path);
    }

    /// A peer that connects to the control channel and never sends its
    /// hello line must fail the handshake inside the deadline instead of
    /// hanging `launch` / `restart_worker` on a blocking read; so must a
    /// peer that never connects, and a spent deadline fails at once.
    #[test]
    fn silent_peer_fails_the_hello_inside_its_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let deadline = Duration::from_millis(150);

        // Nobody connects: the accept ends at the deadline, not before.
        let t0 = Instant::now();
        let err = accept_hello(&listener, t0 + deadline).expect_err("nobody connected");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let waited = t0.elapsed();
        assert!(
            waited >= deadline && waited < Duration::from_secs(5),
            "the accept ended {waited:?} after a {deadline:?} deadline"
        );

        let silent = TcpStream::connect(addr).expect("connect");
        let t0 = Instant::now();
        let err = accept_hello(&listener, t0 + deadline)
            .expect_err("a silent peer has no hello to accept");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the read outlived its deadline: {:?}",
            t0.elapsed()
        );

        // A spent deadline fails at once and leaves a waiting peer queued...
        let mut talker = TcpStream::connect(addr).expect("connect");
        writeln!(talker, "{{\"node\":1,\"epoch\":2,\"port\":3}}").expect("send hello");
        let t0 = Instant::now();
        let err = accept_hello(&listener, t0).expect_err("the deadline is spent");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "a spent deadline still waited {:?}",
            t0.elapsed()
        );
        // ... so a peer that does speak is still accepted afterwards.
        let (_, _, node, epoch, port) =
            accept_hello(&listener, Instant::now() + Duration::from_secs(5)).expect("hello");
        assert_eq!((node, epoch, port), (1, 2, 3));
        drop(silent);
    }

    /// The handshake is driven by the peer's arrival, not by a polling
    /// quantum: in twenty rounds a peer connects and says hello about
    /// 1 ms after `accept_hello` starts, and the median round returns
    /// within 1 ms of the hello being sent — a 5 ms poll leaves ≈ 4 ms.
    /// The median, not the total, so a host whose other load delays a
    /// few wake-ups by a scheduler slice does not fail the test.
    #[test]
    fn a_hello_is_accepted_as_soon_as_it_arrives() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut lags: Vec<Duration> = (0..20u16)
            .map(|round| {
                let peer = thread::spawn(move || {
                    thread::sleep(Duration::from_millis(1));
                    let mut peer = TcpStream::connect(addr).expect("connect");
                    writeln!(peer, "{{\"node\":0,\"epoch\":0,\"port\":{round}}}")
                        .expect("send hello");
                    (peer, Instant::now())
                });
                let (_, _, _, _, port) =
                    accept_hello(&listener, Instant::now() + Duration::from_secs(5))
                        .expect("hello");
                let accepted = Instant::now();
                assert_eq!(port, round);
                let (_, sent) = peer.join().expect("peer thread");
                accepted.saturating_duration_since(sent)
            })
            .collect();
        lags.sort();
        assert!(
            lags[lags.len() / 2] < Duration::from_millis(1),
            "hello-to-accept lags: {lags:?}"
        );
    }
}
