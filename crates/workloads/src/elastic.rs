//! Elastic-scaling scenarios on the live cluster runtime: open-loop
//! bursts and Zipf-skewed fan-outs that exercise the pressure-aware
//! autoscaler end to end.
//!
//! Both scenarios run **live** — real threads, real bytes, shaped
//! inter-node links — with the runtime's [`AutoscaleConfig`] enabled, and
//! validate every output byte-for-byte against a straight-line reference
//! computation: scaling that loses, duplicates or reorders data makes the
//! runner panic, not a data point. The per-function scaling history comes
//! back as a [`dataflower_metrics::Timeline`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use dataflower_metrics::Timeline;
use dataflower_rt::{
    AutoscaleConfig, ByLevel, Bytes, ClusterConfig, ClusterRuntime, ClusterRuntimeBuilder,
    LinkConfig, LoadAware, PlacementPolicy, RtStats, ScaleEvent,
};
use dataflower_workflow::{SizeModel, WorkModel, Workflow, WorkflowBuilder};

use crate::benchmarks::Benchmark;
use crate::common::{branch_ordered, live_input, noise, reference_output};
use crate::live::live_runtime;
use crate::spec::WorkloadSpec;

/// Runtime tuning shared by the elastic scenarios: short DLU and fabric
/// queues behind an 8 MiB/s shaped fabric (so a burst visibly backs the
/// DLUs up instead of hiding in channel buffers), and an aggressive
/// autoscaler (1–3 replicas, 2 ms pressure threshold, a conservative
/// 2 MiB/s drain-bandwidth estimate, 30 ms cool-down, 1 ms sampling).
pub(crate) fn elastic_rt_config() -> ClusterConfig {
    ClusterConfig {
        dlu_queue_capacity: 8,
        link: LinkConfig {
            bandwidth_bytes_per_sec: Some(8.0 * 1024.0 * 1024.0),
            queue_capacity: 4,
            ..LinkConfig::default()
        },
        autoscale: AutoscaleConfig {
            enabled: true,
            min_replicas: 1,
            max_replicas: 3,
            pressure_threshold_secs: 0.002,
            drain_bw_bytes_per_sec: 2.0 * 1024.0 * 1024.0,
            cooldown: Duration::from_millis(30),
            sample_interval: Duration::from_millis(1),
            ..AutoscaleConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// Outcome of an elastic scenario: the usual live counters plus the
/// scaling story.
#[derive(Debug, Clone)]
pub struct ElasticReport {
    /// Scenario identifier, e.g. `bursty_cluster/wc`.
    pub scenario: String,
    /// Worker nodes in the topology.
    pub nodes: usize,
    /// Requests completed (all of them — a failed request panics).
    pub requests: usize,
    /// Wall-clock time from first invoke to last validated result.
    pub elapsed: Duration,
    /// Total client-output bytes received.
    pub output_bytes: usize,
    /// Aggregated runtime counters, including scale-event counts.
    pub stats: RtStats,
    /// Every scale event, in time order.
    pub events: Vec<ScaleEvent>,
    /// Per-function replica counts over time.
    pub timeline: Timeline,
}

impl ElasticReport {
    /// Scale-outs the autoscaler performed.
    pub fn scale_outs(&self) -> u64 {
        self.stats.scale_out_events
    }

    /// Scale-ins the autoscaler performed.
    pub fn scale_ins(&self) -> u64 {
        self.stats.scale_in_events
    }

    /// Largest replica count any function reached.
    pub fn peak_replicas(&self) -> usize {
        self.timeline
            .keys()
            .map(|k| self.timeline.max_value(k) as usize)
            .max()
            .unwrap_or(0)
    }
}

/// The warmed-up burst runner — the body of a [`WorkloadSpec`] with a
/// non-zero warm-up: by-level spread, the spec's `config()` or
/// [`elastic_rt_config`], `warmup` sequential requests (the paper's base
/// rate, Fig. 15's first minute shrunk to a trickle), then the
/// closed-loop burst, then up to `settle` for the scale-in.
pub(crate) fn run_bursty_cluster(bench: Benchmark, spec: &WorkloadSpec) -> ElasticReport {
    let wf = bench.workflow();
    let placement = ByLevel.initial(&wf, spec.nodes);
    let rt_cfg = spec.rt.clone().unwrap_or_else(elastic_rt_config);
    let rt = live_runtime(bench, Arc::clone(&wf), placement, rt_cfg);
    let burst_requests = spec.closed_loop_requests("bursty_cluster");
    let (input_name, input) = live_input(bench, spec.payload_bytes);
    let expected = reference_output(bench, &input);
    let input = Bytes::from(input);

    let t0 = Instant::now();
    let mut output_bytes = 0;
    // Warm-up trickle: sequential, so the pools stay at minimum.
    for _ in 0..spec.warmup_requests {
        output_bytes += validate_one(
            &rt,
            rt.invoke(vec![(input_name.to_owned(), input.clone())]),
            spec.timeout,
            &expected,
            "bursty_cluster warm-up",
        );
    }
    // The burst: everything at once.
    let reqs: Vec<_> = (0..burst_requests.max(1))
        .map(|_| rt.invoke(vec![(input_name.to_owned(), input.clone())]))
        .collect();
    let requests = spec.warmup_requests + reqs.len();
    for req in reqs {
        output_bytes += validate_one(&rt, req, spec.timeout, &expected, "bursty_cluster burst");
    }
    let elapsed = t0.elapsed();

    // Drained: hold the runtime open until the cool-down-guarded
    // scale-in fires (or the settle window closes).
    let settle_deadline = Instant::now() + spec.settle;
    while rt.stats().scale_in_events == 0 && Instant::now() < settle_deadline {
        std::thread::sleep(Duration::from_millis(2));
    }

    finish_report(
        rt,
        format!("bursty_cluster/{}", bench.name()),
        spec.nodes,
        requests,
        elapsed,
        output_bytes,
    )
}

/// The Zipf-skewed fan-out runner — the body of a
/// [`WorkloadSpec::skewed_fanout`] spec (whose
/// [`Workload::SkewedFanout`](crate::Workload::SkewedFanout) fields are
/// the last two arguments): branch *i* receives a share proportional to
/// `(i+1)^-zipf_exponent` (zero means even shards), functions are placed
/// with the [`LoadAware`] policy over the modeled branch costs, the
/// config is the spec's `config()` or [`elastic_rt_config`].
pub(crate) fn run_skewed_fanout(
    spec: &WorkloadSpec,
    branches: usize,
    zipf_exponent: f64,
) -> ElasticReport {
    assert!(branches > 0, "skewed fan-out needs at least one branch");
    let shares = zipf_shares(branches, zipf_exponent);
    let wf = skewed_workflow(&shares);
    let placement = LoadAware::idle().initial(&wf, spec.nodes);

    let mut builder = ClusterRuntimeBuilder::new(Arc::clone(&wf))
        .placement(placement)
        .config(spec.rt.clone().unwrap_or_else(elastic_rt_config));
    let split_shares = shares.clone();
    builder = builder.register("skew_split", move |ctx| {
        let blob = ctx.input("blob").expect("client blob").clone();
        for (i, (lo, hi)) in zipf_spans(blob.len(), &split_shares)
            .into_iter()
            .enumerate()
        {
            ctx.put_to(
                "shard",
                format!("skew_work_{i}"),
                Bytes::copy_from_slice(&blob[lo..hi]),
            );
        }
    });
    for i in 0..branches {
        builder = builder.register(format!("skew_work_{i}"), move |ctx| {
            let shard = ctx.input("shard").expect("shard");
            ctx.put("piece", Bytes::from(skew_transform(shard, i)));
        });
    }
    let rt = builder
        .register("skew_merge", |ctx| {
            let joined: Vec<u8> = branch_ordered(ctx, "piece")
                .into_iter()
                .flat_map(|b| b.iter().copied())
                .collect();
            ctx.put("joined", Bytes::from(joined));
        })
        .start()
        .expect("skewed fan-out bodies cover the DAG");

    let input = noise(spec.payload_bytes, 0x5ca1_ab1e);
    let expected: Vec<u8> = zipf_spans(input.len(), &shares)
        .into_iter()
        .enumerate()
        .flat_map(|(i, (lo, hi))| skew_transform(&input[lo..hi], i))
        .collect();
    let input = Bytes::from(input);

    let t0 = Instant::now();
    let reqs: Vec<_> = (0..spec.closed_loop_requests("skewed_fanout").max(1))
        .map(|_| rt.invoke(vec![("blob".to_owned(), input.clone())]))
        .collect();
    let requests = reqs.len();
    let mut output_bytes = 0;
    for req in reqs {
        output_bytes += validate_one(&rt, req, spec.timeout, &expected, "skewed_fanout");
    }
    let elapsed = t0.elapsed();

    finish_report(
        rt,
        format!("skewed_fanout/{branches}branches"),
        spec.nodes,
        requests,
        elapsed,
        output_bytes,
    )
}

/// Waits for one request and asserts its single output equals `expected`.
fn validate_one(
    rt: &ClusterRuntime,
    req: dataflower_rt::ReqId,
    timeout: Duration,
    expected: &[u8],
    what: &str,
) -> usize {
    let outputs = rt
        .wait(req, timeout)
        .unwrap_or_else(|e| panic!("{what} request failed: {e}"));
    assert_eq!(outputs.len(), 1, "{what}: expected one client output");
    assert_eq!(
        &*outputs[0].1, expected,
        "{what} output diverged from the reference computation"
    );
    outputs[0].1.len()
}

/// Collects the scaling story and tears the runtime down.
fn finish_report(
    rt: ClusterRuntime,
    scenario: String,
    nodes: usize,
    requests: usize,
    elapsed: Duration,
    output_bytes: usize,
) -> ElasticReport {
    let stats = rt.stats();
    let events = rt.scaling_timeline();
    let timeline = rt.replica_timeline();
    rt.shutdown();
    ElasticReport {
        scenario,
        nodes,
        requests,
        elapsed,
        output_bytes,
        stats,
        events,
        timeline,
    }
}

/// The skewed fan-out workflow: `skew_split` → `skew_work_i` →
/// `skew_merge`, with each worker's modeled cost proportional to its
/// Zipf share so the [`LoadAware`] policy sees the skew.
fn skewed_workflow(shares: &[f64]) -> Arc<Workflow> {
    let mut b = WorkflowBuilder::new("skewed_fanout");
    let split = b.function("skew_split", WorkModel::fixed(0.001));
    let merge = b.function("skew_merge", WorkModel::fixed(0.001));
    b.client_input(split, "blob", SizeModel::Fixed(256.0 * 1024.0));
    for (i, share) in shares.iter().enumerate() {
        let work = b.function(format!("skew_work_{i}"), WorkModel::new(0.0, *share));
        b.edge(split, work, "shard", SizeModel::ScaleOfInput(*share));
        b.edge(work, merge, "piece", SizeModel::ScaleOfInput(1.0));
    }
    b.client_output(merge, "joined", SizeModel::ScaleOfInput(1.0));
    Arc::new(b.build().expect("skewed fan-out DAG is valid"))
}

/// Normalized Zipf shares: branch `i` gets weight `(i+1)^-s`.
fn zipf_shares(branches: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..branches).map(|i| ((i + 1) as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    weights.into_iter().map(|w| w / total).collect()
}

/// Cuts `len` bytes into one contiguous span per share, boundaries at the
/// rounded cumulative shares — covering `0..len` exactly.
fn zipf_spans(len: usize, shares: &[f64]) -> Vec<(usize, usize)> {
    let mut spans = Vec::with_capacity(shares.len());
    let mut cum = 0.0;
    let mut lo = 0;
    for (i, share) in shares.iter().enumerate() {
        cum += share;
        let hi = if i + 1 == shares.len() {
            len // immune to cumulative rounding drift
        } else {
            ((cum * len as f64).round() as usize).clamp(lo, len)
        };
        spans.push((lo, hi));
        lo = hi;
    }
    spans
}

/// The deterministic per-branch shard transform both the workers and the
/// straight-line reference apply.
fn skew_transform(shard: &[u8], branch: usize) -> Vec<u8> {
    let salt = (branch as u8).wrapping_mul(29).wrapping_add(11);
    shard
        .iter()
        .map(|b| b.wrapping_mul(167).wrapping_add(salt))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_spans_cover_exactly_and_skew_downward() {
        for (len, n, s) in [(0usize, 3usize, 1.0f64), (10, 3, 1.2), (100_000, 8, 1.2)] {
            let shares = zipf_shares(n, s);
            assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            let spans = zipf_spans(len, &shares);
            assert_eq!(spans.len(), n);
            assert_eq!(spans.first().unwrap().0, 0);
            assert_eq!(spans.last().unwrap().1, len);
            for w in spans.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            // Head branch carries at least as much as the tail branch.
            let head = spans[0].1 - spans[0].0;
            let tail = spans[n - 1].1 - spans[n - 1].0;
            assert!(head >= tail, "zipf head {head} < tail {tail}");
        }
    }

    #[test]
    fn bursty_cluster_scales_out_and_back_in_with_identical_bytes() {
        let spec = WorkloadSpec::new()
            .warmup(2)
            .requests(12)
            .payload_bytes(192 * 1024);
        let report = run_bursty_cluster(Benchmark::Wc, &spec);
        assert_eq!(report.requests, 14);
        assert!(report.output_bytes > 0);
        assert!(
            report.scale_outs() >= 1,
            "the burst must trigger at least one scale-out"
        );
        assert!(
            report.scale_ins() >= 1,
            "the drained pools must trigger at least one scale-in"
        );
        assert!(report.peak_replicas() >= 2);
        // Events arrive in time order and stay inside the bounds.
        assert!(report.events.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(report
            .events
            .iter()
            .all(|e| (1..=3).contains(&e.to_replicas)));
    }

    #[test]
    fn skewed_fanout_reproduces_reference_bytes_across_nodes() {
        let report = run_skewed_fanout(&WorkloadSpec::new().requests(6), 8, 1.2);
        assert_eq!(report.requests, 6);
        assert!(report.output_bytes > 0);
        assert!(
            report.stats.remote_bytes > 0,
            "load-aware placement must spread the skewed branches"
        );
    }

    #[test]
    fn skewed_fanout_single_branch_degenerates_cleanly() {
        let spec = WorkloadSpec::new().requests(1).payload_bytes(32 * 1024);
        let report = run_skewed_fanout(&spec, 1, 1.2);
        assert_eq!(report.requests, 1);
        assert_eq!(report.output_bytes, 32 * 1024);
    }
}
