//! Chaos scenarios on the live cluster runtime: the four paper
//! benchmarks executed under a seeded [`FaultPlan`] — dropped, duplicated
//! and delayed fabric frames — plus a mid-flight single-node crash and
//! restart, with §6.2 checkpoint recovery healing all of it.
//!
//! The runner asserts the whole fault-tolerance contract, not just
//! completion: every output must be **byte-identical** to a straight-line
//! reference computation, the restart must actually have replayed
//! incomplete transfers (`recovered_transfers > 0`), and the replay must
//! have resumed from the last acknowledged checkpoint mark rather than
//! byte 0 (`resumed_from_mark_bytes > 0`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use dataflower_rt::{
    ByLevel, ClusterConfig, ClusterRuntime, CrashReport, FaultPlan, LinkConfig, PlacementPolicy,
    RtStats,
};

use crate::benchmarks::Benchmark;
use crate::common::run_verified;
use crate::live::live_runtime;
use crate::spec::WorkloadSpec;

/// Runtime tuning of the chaos scenario: a lowered 4 KiB direct-socket
/// threshold plus small chunks (4 KiB) and checkpoint intervals (8 KiB)
/// so every benchmark's intermediates stream through the remote pipe and
/// cross several marks, links shaped to 4 MiB/s so a crash reliably
/// lands mid-stream, §6.2 recovery enabled with a 50 ms retransmit
/// timeout, and a seeded plan dropping 2 %, duplicating 2 % and delaying
/// 1 % of fabric frames.
pub(crate) fn chaos_rt_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        direct_threshold_bytes: 4 * 1024,
        chunk_bytes: 4 * 1024,
        checkpoint_interval_bytes: 8 * 1024,
        link: LinkConfig {
            bandwidth_bytes_per_sec: Some(4.0 * 1024.0 * 1024.0),
            ..LinkConfig::default()
        },
        recovery: Some(Duration::from_millis(50)),
        faults: FaultPlan::seeded(seed)
            .frame_chaos(0.02, 0.02)
            .delay_frames(0.01, Duration::from_millis(1)),
        ..ClusterConfig::default()
    }
}

/// Outcome of one chaos run: the usual live counters plus the crash
/// story. Produced by the chaos runners.
#[derive(Debug, Clone)]
pub struct ChaosClusterReport {
    /// Short benchmark name (`wc`, `vid`, `svd`, `img`).
    pub benchmark: &'static str,
    /// Worker nodes in the topology.
    pub nodes: usize,
    /// Requests completed (all of them — a failed request panics).
    pub requests: usize,
    /// Wall-clock time from first invoke to last result, crash included.
    pub elapsed: Duration,
    /// Total client-output bytes received (all validated byte-for-byte).
    pub output_bytes: usize,
    /// The node that was crashed and restarted.
    pub victim: usize,
    /// What the crash found: in-flight transfers rolled back to their
    /// last checkpoint mark, and the bytes those marks preserved.
    pub crash: CrashReport,
    /// Aggregated runtime counters, including the recovery story
    /// (`recovered_transfers`, `replayed_bytes`,
    /// `resumed_from_mark_bytes`, chaos frame counts).
    pub stats: RtStats,
}

/// The crash-and-restart chaos runner — the body of a [`WorkloadSpec`]
/// with
/// [`FaultMode::ChaosCrashRestart`](crate::FaultMode::ChaosCrashRestart):
/// by-level spread, the spec's `config()` or [`chaos_rt_config`], the
/// fault plan re-seeded with the spec's seed (so the seed alone draws a
/// different chaos sequence), node 1 down for the spec's outage.
pub(crate) fn run_chaos_cluster(bench: Benchmark, spec: &WorkloadSpec) -> ChaosClusterReport {
    assert!(spec.nodes >= 2, "chaos_cluster needs a node to crash");
    let wf = bench.workflow();
    let placement = ByLevel.initial(&wf, spec.nodes);
    let mut rt_cfg = spec
        .rt
        .clone()
        .unwrap_or_else(|| chaos_rt_config(spec.seed));
    rt_cfg.faults.seed = spec.seed;
    let rt = live_runtime(bench, Arc::clone(&wf), placement, rt_cfg);

    // Node 1 hosts the first post-entry level under the by-level
    // spread: in all four benchmarks that is the node receiving the
    // large fan-out intermediates over the streaming remote pipe, so
    // a crash there always damages checkpoint-marked streams. (Other
    // nodes may only receive sub-threshold direct-socket frames —
    // e.g. wordcount's merge node — where there is no mark to resume
    // from and nothing for this scenario to prove.)
    let victim = 1;

    let mut crash = None;
    let run = run_verified(
        "chaos",
        bench,
        spec.closed_loop_requests("chaos"),
        spec.payload_bytes,
        spec.timeout,
        |name, payload| rt.invoke(vec![(name, payload)]),
        || {
            crash = Some(hunt_crash(&rt, victim, spec.fault_deadline));
            std::thread::sleep(spec.outage); // frames inbound to the victim die here
            rt.restart_node(victim);
        },
        |req, timeout| rt.wait(req, timeout),
    );
    let crash = crash.expect("the crash hunt ran");
    let stats = rt.stats();
    assert!(
        stats.recovered_transfers > 0,
        "chaos {bench}: the restart replayed no transfers"
    );
    assert!(
        stats.resumed_from_mark_bytes > 0,
        "chaos {bench}: recovery resumed from byte 0 instead of a checkpoint mark"
    );
    assert!(
        stats.frames_lost_to_crashes > 0,
        "chaos {bench}: the outage lost no frames"
    );
    let nodes = rt.node_count();
    rt.shutdown();
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

/// Crashes `victim` once it is mid-reassembly past at least one acked
/// checkpoint mark, so the subsequent restart demonstrably resumes from
/// the mark. Probes that land between transfers (or before any mark was
/// crossed) restart the node and try again.
fn hunt_crash(rt: &ClusterRuntime, victim: usize, deadline: Duration) -> CrashReport {
    let give_up = Instant::now() + deadline;
    loop {
        assert!(
            Instant::now() < give_up,
            "chaos_cluster: no crash window with a checkpoint-marked in-flight \
             transfer opened on node {victim} — slow the links or grow the payload"
        );
        if rt.node(victim).inflight_transfers() > 0 && rt.stats().acked_marks > 0 {
            let report = rt.crash_node(victim);
            if report.was_up && report.inflight_transfers > 0 && report.durable_bytes > 0 {
                return report;
            }
            rt.restart_node(victim);
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_recover_byte_identically_under_chaos() {
        for bench in Benchmark::ALL {
            let spec = WorkloadSpec::new().payload_bytes(128 * 1024).requests(1);
            let report = run_chaos_cluster(bench, &spec);
            assert_eq!(report.requests, 1);
            assert!(report.output_bytes > 0, "{bench}: empty output");
            assert!(report.crash.inflight_transfers > 0);
            assert!(report.crash.durable_bytes > 0);
            assert!(report.stats.node_crashes >= 1);
            assert!(report.stats.replayed_bytes > 0);
        }
    }

    #[test]
    fn distinct_seeds_draw_distinct_chaos_and_still_recover() {
        for seed in [1, 2] {
            let spec = WorkloadSpec::new()
                .fault_seed(seed)
                .payload_bytes(96 * 1024)
                .requests(1);
            let report = run_chaos_cluster(Benchmark::Svd, &spec);
            assert_eq!(report.victim, 1);
            assert!(report.stats.recovered_transfers > 0);
        }
    }
}
