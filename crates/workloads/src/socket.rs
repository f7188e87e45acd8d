//! Worker-process TCP mode for the live benchmarks: the same chaos
//! scenario as the in-process chaos runner, but with every node a real
//! OS process and every fabric link a real `TcpStream` speaking the
//! versioned wire format — including a `kill -9` of a worker as the
//! ultimate crash, healed by restart-and-replay from the checkpoint
//! log and the senders' §6.2 retention windows.
//!
//! Any binary that launches a [`TcpCluster`] re-executes **itself** as
//! the workers, so its `main` must call [`serve_worker_if_spawned`]
//! first thing; the worker rebuilds the identical workflow from the
//! tag the coordinator passed and never returns.

use std::time::{Duration, Instant};

use dataflower_rt::{
    AdmissionConfig, ByLevel, ClusterConfig, CrashReport, PlacementPolicy, TcpCluster,
};
use dataflower_workflow::json;

use crate::benchmarks::Benchmark;
use crate::chaos::{chaos_rt_config, ChaosClusterReport};
use crate::common::{live_input, run_verified};
use crate::live::{live_builder, LiveClusterReport};
use crate::node_loss::orchestrated_rt_config;
use crate::spec::WorkloadSpec;

/// Which runtime tuning a TCP cluster (coordinator and workers alike)
/// derives from the worker tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpProfile {
    /// Default knobs with §6.2 recovery enabled and no fault
    /// injection — the smoke-test / example / benchmark path.
    Plain,
    /// The in-process chaos runner's knobs: small chunks and
    /// checkpoint intervals, 4 MiB/s links, seeded frame chaos.
    Chaos,
    /// The orchestrator control plane enabled on top of the streaming
    /// knobs (small chunks, shaped links, §6.2 recovery, no frame
    /// chaos): coordinator heartbeats over the control channel, node
    /// loss declared after missed beats, relocation of the dead
    /// worker's functions to the least-pressured survivors — the
    /// [`FaultMode::NodeLoss`](crate::FaultMode::NodeLoss)
    /// profile.
    Orchestrated,
}

impl TcpProfile {
    fn name(self) -> &'static str {
        match self {
            TcpProfile::Plain => "plain",
            TcpProfile::Chaos => "chaos",
            TcpProfile::Orchestrated => "orchestrated",
        }
    }

    /// The [`ClusterConfig`] this profile stands for — the one way a
    /// TCP cluster is configured. The coordinator and every worker call
    /// this with the tag's `(profile, seed)`, so the records they run
    /// with are equal field for field (chunking, thresholds, recovery,
    /// fault plan); only `admission`, a client-side matter, is set on the
    /// coordinator's copy alone.
    pub fn rt_config(self, seed: u64) -> ClusterConfig {
        match self {
            TcpProfile::Plain => ClusterConfig {
                recovery: Some(Duration::from_millis(50)),
                ..ClusterConfig::default()
            },
            TcpProfile::Chaos => chaos_rt_config(seed),
            TcpProfile::Orchestrated => orchestrated_rt_config(),
        }
    }
}

/// Composes the worker tag: everything a worker process needs to
/// rebuild the coordinator's exact workflow, placement and config.
fn worker_tag(bench: Benchmark, nodes: usize, seed: u64, profile: TcpProfile) -> String {
    format!(
        "{{\"bench\":\"{}\",\"nodes\":{},\"seed\":{},\"profile\":\"{}\"}}",
        bench.name(),
        nodes,
        seed,
        profile.name()
    )
}

/// If this process was spawned as a TCP cluster worker (see
/// [`dataflower_rt::worker_env`]), rebuilds the benchmark cluster
/// described by the worker tag and serves it forever — **never
/// returning**. Otherwise returns immediately. Call this first thing in
/// the `main` of any binary that launches a benchmark [`TcpCluster`].
pub fn serve_worker_if_spawned() {
    let Some(env) = dataflower_rt::worker_env() else {
        return;
    };
    let tag = json::parse(env.tag()).expect("worker tag is JSON");
    let bench = match tag.get("bench").and_then(|b| b.as_str()).unwrap_or("") {
        "wc" => Benchmark::Wc,
        "vid" => Benchmark::Vid,
        "svd" => Benchmark::Svd,
        "img" => Benchmark::Img,
        other => panic!("worker tag names unknown benchmark `{other}`"),
    };
    let nodes = tag.get("nodes").and_then(|n| n.as_f64()).expect("nodes") as usize;
    let seed = tag.get("seed").and_then(|s| s.as_f64()).unwrap_or(0.0) as u64;
    let profile = match tag
        .get("profile")
        .and_then(|p| p.as_str())
        .unwrap_or("plain")
    {
        "chaos" => TcpProfile::Chaos,
        "orchestrated" => TcpProfile::Orchestrated,
        _ => TcpProfile::Plain,
    };
    let wf = bench.workflow();
    let placement = ByLevel.initial(&wf, nodes);
    let builder = live_builder(bench, wf, placement, profile.rt_config(seed));
    env.serve(builder)
}

/// The canonical client input of `bench` at the given payload size:
/// the client-edge name the workflow expects and the deterministic
/// payload the live benchmark bodies are calibrated for. Useful for
/// driving a [`launch_bench_cluster`] cluster by hand.
pub fn bench_input(bench: Benchmark, payload_bytes: usize) -> (&'static str, Vec<u8>) {
    live_input(bench, payload_bytes)
}

/// Launches `bench` as a worker-process TCP cluster under `profile`.
/// The calling binary must have invoked [`serve_worker_if_spawned`] at
/// the top of `main`.
pub fn launch_bench_cluster(
    bench: Benchmark,
    nodes: usize,
    seed: u64,
    profile: TcpProfile,
) -> std::io::Result<TcpCluster> {
    launch_gated_cluster(bench, nodes, seed, profile, AdmissionConfig::default())
}

/// [`launch_bench_cluster`] with per-tenant admission caps on the
/// coordinator's ingress ([`TcpCluster::try_invoke`]). Admission is a
/// client-side matter, so the workers' tag-derived config needs no part
/// of it.
pub(crate) fn launch_gated_cluster(
    bench: Benchmark,
    nodes: usize,
    seed: u64,
    profile: TcpProfile,
    admission: AdmissionConfig,
) -> std::io::Result<TcpCluster> {
    let wf = bench.workflow();
    let placement = ByLevel.initial(&wf, nodes);
    let tag = worker_tag(bench, nodes, seed, profile);
    let cfg = ClusterConfig {
        admission,
        ..profile.rt_config(seed)
    };
    TcpCluster::launch(wf, placement, cfg, &tag)
}

/// The plain closed-loop TCP runner: `bench` as one OS process per node
/// under [`TcpProfile::Plain`], every request verified byte-for-byte —
/// the TCP twin of the in-process live runner. Placement is the by-level
/// spread and the config the profile's, as the worker tag encodes them
/// ([`WorkloadSpec::run`] rejects a spec that asks for anything else).
pub(crate) fn run_live_tcp(bench: Benchmark, spec: &WorkloadSpec) -> LiveClusterReport {
    let cluster = launch_bench_cluster(bench, spec.nodes, spec.seed, TcpProfile::Plain)
        .expect("launch plain TCP cluster");
    let run = run_verified(
        "tcp live",
        bench,
        spec.closed_loop_requests("tcp live"),
        spec.payload_bytes,
        spec.timeout,
        |name, payload| cluster.invoke(vec![(name, payload)]),
        || {},
        |req, timeout| cluster.wait(req, timeout),
    );
    let stats = cluster.stats();
    let nodes = cluster.node_count();
    cluster.shutdown();
    LiveClusterReport {
        benchmark: bench.name(),
        nodes,
        requests: run.requests,
        elapsed: run.elapsed,
        output_bytes: run.output_bytes,
        stats,
    }
}

/// The TCP chaos runner — the body of a [`WorkloadSpec`] with
/// [`FaultMode::ChaosCrashRestart`](crate::FaultMode::ChaosCrashRestart)
/// over [`Transport::Tcp`](crate::Transport::Tcp).
pub(crate) fn run_chaos_cluster_tcp(bench: Benchmark, spec: &WorkloadSpec) -> ChaosClusterReport {
    assert!(spec.nodes >= 2, "chaos_cluster_tcp needs a node to crash");
    let cluster = launch_bench_cluster(bench, spec.nodes, spec.seed, TcpProfile::Chaos)
        .expect("launch TCP cluster");

    // Same victim rationale as the in-process scenario: node 1
    // receives the large fan-out intermediates over the streaming
    // remote pipe under the by-level spread.
    let victim = 1;

    let mut crash = None;
    let run = run_verified(
        "tcp chaos",
        bench,
        spec.closed_loop_requests("tcp chaos"),
        spec.payload_bytes,
        spec.timeout,
        |name, payload| cluster.invoke(vec![(name, payload)]),
        || {
            crash = Some(hunt_kill(&cluster, victim, spec.fault_deadline));
            std::thread::sleep(spec.outage); // frames toward the dead process die here
            cluster
                .restart_worker(victim)
                .expect("restart killed worker");
        },
        |req, timeout| cluster.wait(req, timeout),
    );
    let crash = crash.expect("the kill hunt ran");
    let stats = cluster.stats();
    assert!(
        stats.recovered_transfers > 0,
        "tcp chaos {bench}: the reconnects replayed no transfers"
    );
    assert!(
        stats.resumed_from_mark_bytes > 0,
        "tcp chaos {bench}: recovery resumed from byte 0 instead of a checkpoint mark"
    );
    let nodes = cluster.node_count();
    cluster.shutdown();
    ChaosClusterReport {
        benchmark: bench.name(),
        nodes,
        requests: run.requests,
        elapsed: run.elapsed,
        output_bytes: run.output_bytes,
        victim,
        crash,
        stats,
    }
}

/// `kill -9`s `victim` once it is mid-reassembly past at least one
/// checkpoint mark — the TCP twin of the in-process `hunt_crash`, with
/// the probe an RPC over the control channel instead of a shared-memory
/// read.
///
/// The receiver-side probe alone is racy over real sockets: the victim
/// may have crossed a mark whose `AckMark` died in its out-queue or a
/// kernel buffer, in which case the senders would replay from byte 0.
/// So after the SIGKILL lands the hunt re-checks the *sender* side
/// ([`TcpCluster::sender_mid_stream`]) — once the victim is dead and
/// its last in-flight acks have drained, retention state is frozen
/// until the restart, making the check stable. A kill that misses
/// either condition restarts the worker and retries.
fn hunt_kill(cluster: &TcpCluster, victim: usize, deadline: Duration) -> CrashReport {
    let give_up = Instant::now() + deadline;
    loop {
        assert!(
            Instant::now() < give_up,
            "chaos_cluster_tcp: no crash window with a checkpoint-marked in-flight \
             transfer opened on worker {victim} — slow the links or grow the payload"
        );
        if let Some((inflight, durable)) = cluster.probe_worker(victim) {
            if inflight > 0 && durable > 0 {
                let report = cluster.kill_worker(victim);
                if report.was_up && report.inflight_transfers > 0 && report.durable_bytes > 0 {
                    // Let acks already on the wire from the now-dead
                    // victim drain, then confirm some sender still
                    // retains a mark-acked partial transfer toward it.
                    std::thread::sleep(Duration::from_millis(5));
                    if cluster.sender_mid_stream(victim, 1) {
                        return report;
                    }
                }
                // Killed at a bad moment: bring the worker back and
                // hunt again.
                cluster
                    .restart_worker(victim)
                    .expect("restart killed worker");
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}
