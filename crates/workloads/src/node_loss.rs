//! Permanent node loss and voluntary live migration on the live
//! cluster runtime, driven by the orchestrator control plane.
//!
//! [`FaultMode::NodeLoss`](crate::FaultMode::NodeLoss) kills one node **permanently**
//! mid-run — no restart, ever — and relies entirely on the two-level
//! orchestrator to heal the cluster: heartbeats stop, the controller
//! (in-process) or the coordinator (TCP) counts the missed beats,
//! declares the node lost, relocates its functions to the
//! least-pressured survivors, re-patches the routing tables and replays
//! the in-flight transfers. The run is validated byte-for-byte against
//! a straight-line reference computation, over both the in-process
//! fabric and the worker-process TCP transport.
//!
//! [`FaultMode::LiveMigration`](crate::FaultMode::LiveMigration) exercises the same rehome machinery
//! voluntarily: a hot function is migrated to the least-pressured node
//! while its payloads are in flight, and the outputs must not diverge
//! by a byte.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dataflower_rt::{ByLevel, ClusterConfig, LinkConfig, PlacementPolicy, RtStats, TcpCluster};
use dataflower_workflow::Workflow;

use crate::benchmarks::Benchmark;
use crate::common::run_verified;
use crate::live::live_runtime;
use crate::socket::{launch_bench_cluster, TcpProfile};
use crate::spec::{Transport, WorkloadSpec};

/// Runtime tuning of the node-loss scenarios: the chaos streaming knobs
/// (4 KiB direct threshold and chunks, 8 KiB checkpoint intervals,
/// 4 MiB/s links) so a kill reliably lands mid-stream, §6.2 recovery with a
/// 50 ms retransmit timeout, and the orchestrator control plane with
/// 10 ms heartbeats and a 3-miss loss threshold. No frame chaos — the
/// scenario isolates the relocation story.
pub(crate) fn orchestrated_rt_config() -> ClusterConfig {
    ClusterConfig::new()
        .direct_threshold_bytes(4 * 1024)
        .chunk_bytes(4 * 1024)
        .checkpoint_interval_bytes(8 * 1024)
        .link(LinkConfig {
            bandwidth_bytes_per_sec: Some(4.0 * 1024.0 * 1024.0),
            ..LinkConfig::default()
        })
        .recovery(Duration::from_millis(50))
        .heartbeat(Duration::from_millis(10), 3)
}

/// Outcome of one node-loss (or live-migration) run. Produced by
/// the node-loss and live-migration runners.
#[derive(Debug, Clone)]
pub struct NodeLossReport {
    /// Short benchmark name (`wc`, `vid`, `svd`, `img`).
    pub benchmark: &'static str,
    /// Transport the run executed over (`inproc`, `tcp`).
    pub transport: &'static str,
    /// Worker nodes in the topology.
    pub nodes: usize,
    /// Requests completed (all of them — a failed request panics).
    pub requests: usize,
    /// Wall-clock time from first invoke to last verified result,
    /// loss detection and relocation included.
    pub elapsed: Duration,
    /// Total client-output bytes received, all validated byte-for-byte.
    pub output_bytes: usize,
    /// The node that was killed (or the migration source).
    pub victim: usize,
    /// Functions the control plane moved off the victim.
    pub relocated: u64,
    /// Aggregated runtime counters, including the control-plane story
    /// (`heartbeats`, `heartbeat_misses`, `node_losses`,
    /// `relocated_functions`, `live_migrations`).
    pub stats: RtStats,
}

/// The functions the by-level spread hosts on `victim` — the set whose
/// relocation the scenario asserts.
fn hosted_on(wf: &Workflow, nodes: usize, victim: usize) -> Vec<String> {
    let placement = ByLevel.initial(wf, nodes);
    wf.function_ids()
        .map(|f| wf.function(f).name.clone())
        .filter(|name| placement.node_of(name) == victim)
        .collect()
}

/// The permanent-node-loss runner — dispatches on the transport; the
/// body of a [`WorkloadSpec`] with
/// [`FaultMode::NodeLoss`](crate::FaultMode::NodeLoss). By-level spread
/// and [`orchestrated_rt_config`] on both transports; the spec's seed
/// goes into the worker tag over TCP.
pub(crate) fn run_node_loss(bench: Benchmark, spec: &WorkloadSpec) -> NodeLossReport {
    assert!(
        spec.nodes >= 2,
        "node_loss_relocation needs a surviving node"
    );
    match spec.transport {
        Transport::Inproc => node_loss_inproc(bench, spec),
        Transport::Tcp => node_loss_tcp(bench, spec),
    }
}

/// The voluntary live-migration runner (in-process only) — the body of
/// a [`WorkloadSpec`] with
/// [`FaultMode::LiveMigration`](crate::FaultMode::LiveMigration).
pub(crate) fn run_live_migration(bench: Benchmark, spec: &WorkloadSpec) -> NodeLossReport {
    assert!(spec.nodes >= 2, "live_migration needs a second node");
    let wf = bench.workflow();
    let placement = ByLevel.initial(&wf, spec.nodes);
    let rt = live_runtime(bench, Arc::clone(&wf), placement, orchestrated_rt_config());
    let from = 1;
    let moved = hosted_on(&wf, spec.nodes, from);
    let subject = moved.first().expect("level 1 hosts a function").clone();

    let run = run_verified(
        "migration",
        bench,
        spec.closed_loop_requests("live_migration"),
        spec.payload_bytes,
        spec.timeout,
        |name, payload| rt.invoke(vec![(name, payload)]),
        || {
            // Wait for payloads to be in flight toward the subject's
            // node so the move really happens mid-stream.
            let give_up = Instant::now() + spec.fault_deadline;
            while rt.node(from).inflight_transfers() == 0 && Instant::now() < give_up {
                std::thread::sleep(Duration::from_micros(200));
            }
            let mut to = rt.least_pressured_node();
            if to == from {
                to = (from + 1) % spec.nodes;
            }
            rt.migrate_function(&subject, to)
                .expect("migrate a known function to a live node");
        },
        |req, timeout| rt.wait(req, timeout),
    );
    let stats = rt.stats();
    assert!(
        stats.live_migrations >= 1,
        "migration {bench}: no live migration was recorded"
    );
    assert_ne!(
        rt.node_of(&subject),
        from,
        "migration {bench}: `{subject}` still routes to its old node"
    );
    let nodes = rt.node_count();
    rt.shutdown();
    NodeLossReport {
        benchmark: bench.name(),
        transport: Transport::Inproc.name(),
        nodes,
        requests: run.requests,
        elapsed: run.elapsed,
        output_bytes: run.output_bytes,
        victim: from,
        relocated: stats.live_migrations,
        stats,
    }
}

/// In-process node loss: crash the victim permanently and let the
/// controller thread detect the heartbeat silence and relocate.
fn node_loss_inproc(bench: Benchmark, spec: &WorkloadSpec) -> NodeLossReport {
    let wf = bench.workflow();
    let placement = ByLevel.initial(&wf, spec.nodes);
    let rt = live_runtime(bench, Arc::clone(&wf), placement, orchestrated_rt_config());
    // Node 1 hosts the first post-entry level under the by-level
    // spread — the node receiving the large fan-out intermediates, so
    // the kill always lands on checkpoint-marked streams.
    let victim = 1;
    let moved = hosted_on(&wf, spec.nodes, victim);

    let run = run_verified(
        "node-loss",
        bench,
        spec.closed_loop_requests("node_loss"),
        spec.payload_bytes,
        spec.timeout,
        |name, payload| rt.invoke(vec![(name, payload)]),
        || {
            let give_up = Instant::now() + spec.fault_deadline;
            loop {
                assert!(
                    Instant::now() < give_up,
                    "node_loss_relocation: no kill window with an in-flight transfer \
                     opened on node {victim} — slow the links or grow the payload"
                );
                if rt.node(victim).inflight_transfers() > 0 {
                    // Permanent: the node is never restarted. Its
                    // heartbeat responder falls silent here, and the
                    // controller does the rest.
                    rt.crash_node(victim);
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        },
        |req, timeout| rt.wait(req, timeout),
    );
    let stats = rt.stats();
    assert!(
        stats.heartbeats > 0,
        "node-loss {bench}: no heartbeats were recorded"
    );
    assert!(
        stats.node_losses >= 1,
        "node-loss {bench}: the controller never declared the loss"
    );
    assert!(
        stats.relocated_functions > 0,
        "node-loss {bench}: nothing was relocated"
    );
    for name in &moved {
        assert_ne!(
            rt.node_of(name),
            victim,
            "node-loss {bench}: `{name}` still routes to the dead node"
        );
    }
    let nodes = rt.node_count();
    rt.shutdown();
    NodeLossReport {
        benchmark: bench.name(),
        transport: Transport::Inproc.name(),
        nodes,
        requests: run.requests,
        elapsed: run.elapsed,
        output_bytes: run.output_bytes,
        victim,
        relocated: stats.relocated_functions,
        stats,
    }
}

/// Worker-process node loss: `kill -9` the victim's OS process and let
/// the coordinator's control-channel pings detect the death and
/// broadcast the relocation.
fn node_loss_tcp(bench: Benchmark, spec: &WorkloadSpec) -> NodeLossReport {
    let wf = bench.workflow();
    let cluster = launch_bench_cluster(bench, spec.nodes, spec.seed, TcpProfile::Orchestrated)
        .expect("launch orchestrated TCP cluster");
    let victim = 1;
    let moved = hosted_on(&wf, spec.nodes, victim);

    let run = run_verified(
        "tcp node-loss",
        bench,
        spec.closed_loop_requests("node_loss"),
        spec.payload_bytes,
        spec.timeout,
        |name, payload| cluster.invoke(vec![(name, payload)]),
        || {
            hunt_kill_permanent(&cluster, victim, spec.fault_deadline);
        },
        |req, timeout| cluster.wait(req, timeout),
    );
    let stats = cluster.stats();
    assert!(
        stats.node_losses >= 1,
        "tcp node-loss {bench}: the coordinator never declared the loss"
    );
    assert!(
        stats.relocated_functions > 0,
        "tcp node-loss {bench}: no survivor activated a relocated function"
    );
    assert!(
        cluster.worker_lost(victim),
        "tcp node-loss {bench}: the victim is not marked lost"
    );
    for name in &moved {
        assert_ne!(
            cluster.node_of(name),
            victim,
            "tcp node-loss {bench}: `{name}` still routes to the dead worker"
        );
    }
    let nodes = cluster.node_count();
    cluster.shutdown();
    NodeLossReport {
        benchmark: bench.name(),
        transport: Transport::Tcp.name(),
        nodes,
        requests: run.requests,
        elapsed: run.elapsed,
        output_bytes: run.output_bytes,
        victim,
        relocated: stats.relocated_functions,
        stats,
    }
}

/// `kill -9`s `victim` once an inbound transfer is in flight toward it,
/// and **never restarts it** — the permanent twin of the chaos hunt.
fn hunt_kill_permanent(cluster: &TcpCluster, victim: usize, deadline: Duration) {
    let give_up = Instant::now() + deadline;
    loop {
        assert!(
            Instant::now() < give_up,
            "node_loss_relocation: no kill window with an in-flight transfer \
             opened on worker {victim} — slow the links or grow the payload"
        );
        if let Some((inflight, _)) = cluster.probe_worker(victim) {
            if inflight > 0 {
                cluster.kill_worker(victim);
                return;
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_survive_permanent_node_loss_inproc() {
        for bench in Benchmark::ALL {
            let spec = WorkloadSpec::new().payload_bytes(128 * 1024);
            let report = run_node_loss(bench, &spec);
            assert_eq!(report.requests, 1);
            assert!(report.output_bytes > 0, "{bench}: empty output");
            assert!(report.relocated > 0);
            assert!(report.stats.heartbeat_misses > 0);
        }
    }

    /// A slow-but-alive cluster must never trip the loss detector: under
    /// real load with tight heartbeats, individual beats may read stale
    /// (misses below the threshold are fine) but no node is ever
    /// declared lost and nothing relocates.
    #[test]
    fn heartbeat_misses_below_threshold_never_relocate() {
        let bench = Benchmark::Wc;
        let wf = bench.workflow();
        let nodes = 3;
        let placement = ByLevel.initial(&wf, nodes);
        // 2 ms beats with a generous threshold: scheduling hiccups under
        // load can stale a read or two, never five in a row.
        let mut cfg = orchestrated_rt_config();
        cfg.heartbeat_interval = Duration::from_millis(2);
        cfg.heartbeat_miss_threshold = 5;
        let rt = live_runtime(bench, Arc::clone(&wf), placement, cfg);
        let (input_name, input) = crate::common::live_input(bench, 128 * 1024);
        let reqs: Vec<_> = (0..3)
            .map(|_| {
                rt.invoke(vec![(
                    input_name.to_owned(),
                    dataflower_rt::Bytes::from(input.clone()),
                )])
            })
            .collect();
        for req in reqs {
            rt.wait(req, Duration::from_secs(60))
                .expect("healthy cluster completes");
        }
        let stats = rt.stats();
        assert!(stats.heartbeats > 0, "the control plane never beat");
        assert_eq!(
            stats.node_losses, 0,
            "a live node was declared lost (false positive)"
        );
        assert_eq!(
            stats.relocated_functions, 0,
            "functions relocated off a live node"
        );
        rt.shutdown();
    }

    /// Killing the same node twice (and re-declaring it lost by hand)
    /// relocates its functions exactly once — the `lost` fence makes the
    /// relocation idempotent.
    #[test]
    fn double_kill_does_not_double_relocate() {
        let bench = Benchmark::Wc;
        let wf = bench.workflow();
        let nodes = 3;
        let placement = ByLevel.initial(&wf, nodes);
        let rt = live_runtime(bench, Arc::clone(&wf), placement, orchestrated_rt_config());
        let victim = 1;
        let moved = hosted_on(&wf, nodes, victim);
        rt.crash_node(victim);
        let give_up = Instant::now() + Duration::from_secs(10);
        while rt.stats().relocated_functions < moved.len() as u64 && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        let first = rt.stats();
        assert_eq!(first.node_losses, 1);
        assert_eq!(first.relocated_functions, moved.len() as u64);
        // Second kill + manual re-declarations: all no-ops.
        rt.crash_node(victim);
        rt.declare_node_lost(victim);
        rt.declare_node_lost(victim);
        std::thread::sleep(Duration::from_millis(50));
        let second = rt.stats();
        assert_eq!(second.node_losses, 1, "the loss was declared twice");
        assert_eq!(
            second.relocated_functions,
            moved.len() as u64,
            "a second kill relocated again"
        );
        rt.shutdown();
    }

    #[test]
    fn live_migration_is_invisible_in_the_outputs() {
        let spec = WorkloadSpec::new().payload_bytes(128 * 1024).requests(2);
        let report = run_live_migration(Benchmark::Svd, &spec);
        assert_eq!(report.requests, 2);
        assert!(report.output_bytes > 0);
        assert!(report.stats.live_migrations >= 1);
    }
}
