//! One client contract, two media: the same two-function workflow and
//! the same bodies run behind an in-process [`ClusterRuntime`] and behind
//! a worker-process [`TcpCluster`], and one test body checks the
//! tenant-facing contract against both — the coordinator is the client
//! endpoint of the same runtime, so `invoke` / `wait` / `forget` must not
//! be able to tell the media apart:
//!
//! * a client output of more than 64 KiB with recovery on (over TCP that
//!   is the chunked client-output path: reassembly and checkpoint-mark
//!   acks on the coordinator) is byte-identical on both media, and so is
//!   a two-chunk one over TCP (the reassembler's copy fallback);
//! * an unknown input name faults the request, a foreign id is unknown,
//!   an expired deadline times out and a later `wait` on the same id
//!   still succeeds;
//! * a collected request, and one forgotten after a timeout, is released
//!   everywhere — eventually: over TCP the release is a frame behind the
//!   data, not a round trip — so nothing stays parked for the janitor to
//!   expire and no retention is left to go stale;
//! * releasing never blocks on a dead node: with one killed and never
//!   restarted, twice a link queue's worth of fault → `forget` cycles
//!   return at once.
//!
//! A second, orchestrated TCP cluster (its workers pick the config from
//! their tag) checks that teardown does not wait out a heartbeat: with a
//! 2 s interval, `shutdown` still returns well inside one.
//!
//! `harness = false` because this binary re-executes itself as the
//! cluster's worker processes: the worker check must run before anything
//! else in `main`.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dataflower_rt::{
    worker_env, Bytes, ClusterConfig, ClusterRuntime, ClusterRuntimeBuilder, LinkConfig, Placement,
    ReqId, RtError, RtStats, TcpCluster,
};
use dataflower_workflow::{SizeModel, WorkModel, Workflow, WorkflowBuilder};

const TAG: &str = "two_media";
/// The tag of the orchestrated cluster whose shutdown is timed.
const HEARTBEAT_TAG: &str = "two_media_heartbeat";
const HEARTBEAT: Duration = Duration::from_secs(2);
const NODES: usize = 2;
const RETRANSMIT: Duration = Duration::from_millis(50);
/// Short enough to observe within the test, long enough that no healthy
/// request parks an input this long.
const SINK_TTL: Duration = Duration::from_secs(2);
/// Crosses two 256 KiB checkpoint marks and ten 64 KiB chunks.
const BIG: usize = 640 * 1024 + 37;
/// How long `head` stalls on an input that starts with this byte.
const SLOW_MARK: u8 = b'S';
const SLOW: Duration = Duration::from_millis(300);

/// `in → head → mid → tail → out`, with a second client input `side`
/// feeding `tail` directly — so a request sent without `side` parks
/// `mid` at `tail` forever.
fn workflow() -> Arc<Workflow> {
    let size = SizeModel::ScaleOfInput(1.0);
    let mut b = WorkflowBuilder::new(TAG);
    let head = b.function("head", WorkModel::fixed(0.0));
    let tail = b.function("tail", WorkModel::fixed(0.0));
    b.client_input(head, "in", size);
    b.client_input(tail, "side", size);
    b.edge(head, tail, "mid", size);
    b.client_output(tail, "out", size);
    Arc::new(b.build().expect("two_media workflow is valid"))
}

fn placement() -> Placement {
    Placement::with_nodes(NODES)
        .assign("head", 0)
        .assign("tail", 1)
}

/// Recovery on (so every cross-endpoint transfer is retained and acked)
/// and a janitor TTL the test can wait out; `HEARTBEAT_TAG` adds the
/// orchestrator with a slow heartbeat.
fn config(tag: &str) -> ClusterConfig {
    let cfg = ClusterConfig {
        sink_ttl: Some(SINK_TTL),
        recovery: Some(RETRANSMIT),
        ..ClusterConfig::default()
    };
    match tag {
        TAG => cfg,
        HEARTBEAT_TAG => cfg.heartbeat(HEARTBEAT, 3),
        other => panic!("unknown cluster tag {other:?}"),
    }
}

fn builder(tag: &str) -> ClusterRuntimeBuilder {
    ClusterRuntimeBuilder::new(workflow())
        .placement(placement())
        .config(config(tag))
        .register("head", |ctx| {
            let input = ctx.input("in").expect("head input").clone();
            if input.first() == Some(&SLOW_MARK) {
                std::thread::sleep(SLOW);
            }
            let reversed: Vec<u8> = input.iter().rev().copied().collect();
            ctx.put("mid", reversed);
        })
        .register("tail", |ctx| {
            let mut out = ctx.input("side").expect("tail side input").to_vec();
            out.extend_from_slice(ctx.input("mid").expect("tail mid input"));
            ctx.put("out", out);
        })
}

/// What the bodies compute, straight-line.
fn expected(input: &[u8], side: &[u8]) -> Vec<u8> {
    side.iter().chain(input.iter().rev()).copied().collect()
}

fn payload(first: u8, len: usize) -> Vec<u8> {
    let mut p: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
    p[0] = first;
    p
}

/// The tenant-facing surface both media offer, plus the two gauges the
/// contract reads through whatever each medium exposes.
trait Client {
    fn invoke(&self, inputs: Vec<(String, Bytes)>) -> ReqId;
    fn wait(&self, req: ReqId, timeout: Duration) -> Result<Vec<(String, Bytes)>, RtError>;
    fn forget(&self, req: ReqId);
    fn stats(&self) -> RtStats;
    /// Payloads parked and transfers mid-reassembly on the nodes, as far
    /// as the medium can see them.
    fn parked(&self) -> usize;
    /// Transfers the client side still retains un-acked.
    fn retained(&self) -> usize;
    /// Takes `node` down for good (nothing restarts it).
    fn kill(&self, node: usize);
}

impl Client for ClusterRuntime {
    fn invoke(&self, inputs: Vec<(String, Bytes)>) -> ReqId {
        ClusterRuntime::invoke(self, inputs)
    }
    fn wait(&self, req: ReqId, timeout: Duration) -> Result<Vec<(String, Bytes)>, RtError> {
        ClusterRuntime::wait(self, req, timeout)
    }
    fn forget(&self, req: ReqId) {
        ClusterRuntime::forget(self, req)
    }
    fn stats(&self) -> RtStats {
        ClusterRuntime::stats(self)
    }
    fn parked(&self) -> usize {
        (0..NODES)
            .map(|n| self.node(n).parked_entries() + self.node(n).inflight_transfers())
            .sum()
    }
    fn retained(&self) -> usize {
        self.retained_transfers()
    }
    fn kill(&self, node: usize) {
        self.crash_node(node);
    }
}

impl Client for TcpCluster {
    fn invoke(&self, inputs: Vec<(String, Bytes)>) -> ReqId {
        TcpCluster::invoke(self, inputs)
    }
    fn wait(&self, req: ReqId, timeout: Duration) -> Result<Vec<(String, Bytes)>, RtError> {
        TcpCluster::wait(self, req, timeout)
    }
    fn forget(&self, req: ReqId) {
        TcpCluster::forget(self, req)
    }
    fn stats(&self) -> RtStats {
        TcpCluster::stats(self)
    }
    fn parked(&self) -> usize {
        (0..NODES)
            .map(|n| self.probe_worker(n).expect("worker answers the probe").0)
            .sum()
    }
    fn retained(&self) -> usize {
        // The coordinator's retention gauge is part of its `Debug` view.
        let view = format!("{self:?}");
        let tail = view
            .split("retained: ")
            .nth(1)
            .expect("Debug names retained");
        tail.chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("retained is a count")
    }
    fn kill(&self, node: usize) {
        self.kill_worker(node);
    }
}

fn both(input: &[u8], side: &[u8]) -> Vec<(String, Bytes)> {
    vec![
        ("in".to_string(), Bytes::from(input.to_vec())),
        ("side".to_string(), Bytes::from(side.to_vec())),
    ]
}

/// Release is eventual: over TCP it rides the data links while the probe
/// that reads the nodes' state is a control RPC that can overtake it, so
/// poll — within a bound a release that was never sent cannot meet.
fn assert_released(medium: &str, c: &dyn Client, after: &str) {
    let give_up = Instant::now() + Duration::from_secs(1);
    while c.parked() > 0 {
        assert!(
            Instant::now() < give_up,
            "{medium}: {after} left state on a node"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The contract. Returns the big output so the caller can compare the two
/// media byte for byte.
fn contract(medium: &str, c: &dyn Client, foreign: ReqId) -> Bytes {
    let long = Duration::from_secs(60);
    let side = b"side-channel-16b";

    // A chunked client output, byte-identical to the reference.
    let big = payload(b'F', BIG);
    let req = c.invoke(both(&big, side));
    let mut outputs = c.wait(req, long).expect("big request completes");
    assert_eq!(outputs.len(), 1, "{medium}: one client output");
    let (name, big_out) = outputs.remove(0);
    assert_eq!(name, "out");
    assert!(big_out.len() >= 64 * 1024);
    assert!(
        *big_out == expected(&big, side)[..],
        "{medium}: big output diverged"
    );
    // Collected: the id is no longer tracked.
    assert_eq!(
        c.wait(req, Duration::ZERO).unwrap_err(),
        RtError::UnknownRequest
    );
    assert_released(medium, c, "wait");

    // Unknown input name → Faulted; foreign id → UnknownRequest.
    let bad = c.invoke(vec![("nope".to_string(), Bytes::from_static(b"x"))]);
    match c.wait(bad, long) {
        Err(RtError::Faulted(why)) => assert!(why.contains("nope"), "{medium}: {why}"),
        other => panic!("{medium}: unknown input must fault, got {other:?}"),
    }
    c.forget(bad);
    assert_eq!(
        c.wait(foreign, Duration::ZERO).unwrap_err(),
        RtError::UnknownRequest,
        "{medium}: a foreign id is unknown"
    );

    // Expired deadline → Timeout; a later wait on the same id succeeds.
    let slow = payload(SLOW_MARK, 4 * 1024);
    let req = c.invoke(both(&slow, side));
    assert_eq!(c.wait(req, SLOW / 10).unwrap_err(), RtError::Timeout);
    let outputs = c.wait(req, long).expect("slow request completes");
    assert!(
        *outputs[0].1 == expected(&slow, side)[..],
        "{medium}: slow output diverged"
    );

    // A request that can never complete (no `side`): `mid` parks at
    // `tail`. Forgetting it after the timeout must release it everywhere.
    let stuck = c.invoke(vec![("in".to_string(), Bytes::from(payload(b'F', 1024)))]);
    assert_eq!(c.wait(stuck, SLOW).unwrap_err(), RtError::Timeout);
    c.forget(stuck);
    assert_eq!(
        c.wait(stuck, Duration::ZERO).unwrap_err(),
        RtError::UnknownRequest
    );
    assert_released(medium, c, "forget");
    // Had any node kept the parked `mid`, its janitor would expire it
    // (count a spill) once the TTL passed.
    std::thread::sleep(SINK_TTL + SINK_TTL / 4);
    assert_eq!(c.stats().spills, 0, "{medium}: a forgotten input expired");

    // Every retention window drained: the client side holds nothing, and
    // no endpoint has anything going stale for the retransmit sweep.
    let give_up = Instant::now() + Duration::from_secs(10);
    while c.retained() > 0 {
        assert!(
            Instant::now() < give_up,
            "{medium}: client-side retention never drained"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let before = c.stats();
    std::thread::sleep(RETRANSMIT * 4);
    let after = c.stats();
    assert_eq!(
        (before.retransmitted_transfers, before.replayed_frames),
        (after.retransmitted_transfers, after.replayed_frames),
        "{medium}: a quiesced cluster still retransmits"
    );
    big_out
}

/// With node 0 dead and nothing restarting it, releasing must not wait
/// for it: over TCP a release toward it would sit in a link queue whose
/// agent redials forever, and the cycle that finds the queue full would
/// block the client. Twice the queue's capacity of cycles, two seconds
/// for all of them; a watchdog turns a wedge into a failure, not a hang.
fn dead_node_never_blocks_release(medium: &'static str, c: &dyn Client) {
    c.kill(0);
    let (finished, wedged) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if wedged.recv_timeout(Duration::from_secs(2)) == Err(RecvTimeoutError::Timeout) {
            eprintln!("{medium}: releasing toward a dead node wedged the client");
            std::process::exit(1);
        }
    });
    for _ in 0..2 * LinkConfig::default().queue_capacity {
        let bad = c.invoke(vec![("nope".to_string(), Bytes::from_static(b"x"))]);
        match c.wait(bad, Duration::from_secs(60)) {
            Err(RtError::Faulted(_)) => {}
            other => panic!("{medium}: unknown input must fault, got {other:?}"),
        }
        c.forget(bad);
    }
    finished.send(()).expect("watchdog is listening");
    watchdog.join().expect("watchdog thread");
}

/// The coordinator's heartbeat sleeps on the shutdown condvar: an
/// orchestrated cluster with a 2 s interval, torn down right after one
/// request, is gone in well under an interval.
fn shutdown_does_not_wait_out_a_heartbeat() {
    let tcp = TcpCluster::launch(
        workflow(),
        placement(),
        config(HEARTBEAT_TAG),
        HEARTBEAT_TAG,
    )
    .expect("launch orchestrated TCP cluster");
    let input = payload(b'F', 1024);
    let req = tcp.invoke(both(&input, b"s"));
    let outputs = tcp
        .wait(req, Duration::from_secs(60))
        .expect("orchestrated request completes");
    assert!(*outputs[0].1 == expected(&input, b"s")[..]);
    let t0 = Instant::now();
    tcp.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "shutdown took {:?} with a {HEARTBEAT:?} heartbeat",
        t0.elapsed()
    );
}

fn main() {
    // Worker processes enter here, rebuild the runtime and never return.
    if let Some(env) = worker_env() {
        let builder = builder(env.tag());
        env.serve(builder);
    }

    // An id neither cluster under test ever mints (they stay far below
    // 64 requests).
    let other = builder(TAG).start().expect("start id donor");
    let foreign = (0..64)
        .map(|_| other.invoke(Vec::new()))
        .last()
        .expect("64 ids");
    other.shutdown();

    let inproc = builder(TAG).start().expect("start in-process cluster");
    let a = contract("inproc", &inproc, foreign);
    dead_node_never_blocks_release("inproc", &inproc);
    inproc.shutdown();

    let tcp =
        TcpCluster::launch(workflow(), placement(), config(TAG), TAG).expect("launch TCP cluster");
    let b = contract("tcp", &tcp, foreign);
    // The reassembler's fallback at its smallest: every TCP chunk is an
    // allocation of its own, so a two-chunk transfer adopts chunk 0,
    // cannot join chunk 1 and demotes to copy assembly — on each of the
    // three hops. Byte identity is all there is to assert.
    let chunks_before = tcp.stats().remote_chunks;
    let two_chunks = payload(b'F', 64 * 1024 + 5);
    let req = tcp.invoke(both(&two_chunks, b"s"));
    let outputs = tcp
        .wait(req, Duration::from_secs(60))
        .expect("two-chunk request completes");
    assert!(
        *outputs[0].1 == expected(&two_chunks, b"s")[..],
        "tcp: two-chunk output diverged"
    );
    let stats = tcp.stats();
    assert!(
        stats.remote_chunks >= chunks_before + 2,
        "tcp: the two-chunk payload was not chunked"
    );
    dead_node_never_blocks_release("tcp", &tcp);
    tcp.shutdown();

    shutdown_does_not_wait_out_a_heartbeat();

    assert!(*a == *b, "the two media disagree on the big output");
    assert!(
        stats.remote_chunks >= 10 && stats.acked_marks >= 2,
        "the TCP run must have streamed the client output in chunks \
         ({} chunks, {} acked marks)",
        stats.remote_chunks,
        stats.acked_marks
    );
    println!(
        "two_media ok: {} output bytes identical on both media, {} chunks and {} acked marks over TCP",
        a.len(),
        stats.remote_chunks,
        stats.acked_marks
    );
}
