//! The open-loop drive loop: paces a precomputed arrival schedule
//! against the wall clock, pushes every admitted request through a live
//! cluster, and folds completions into latency histograms and p50/p99/
//! p999 timelines.
//!
//! One dispatcher thread owns all randomness (tenant draws come from a
//! seeded [`SimRng`], arrival instants from a precomputed
//! [`ArrivalProcess`](super::ArrivalProcess) schedule) so the offered
//! load is bit-reproducible; a small pool of waiter threads retrieves
//! results and records latency **from the scheduled arrival instant**,
//! not the invoke instant — the coordinated-omission-aware measurement:
//! if the runtime falls behind, the queueing delay shows up in the tail
//! instead of silently vanishing.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use dataflower_metrics::{Histogram, QuantileTimeline, Timeline};
use dataflower_rt::channel::{self, Receiver, Sender};
use dataflower_rt::{
    AdmissionConfig, Bytes, ClusterRuntime, PlacementPolicy, Rejected, ReqId, RtStats, TcpCluster,
    TenantStats,
};
use dataflower_sim::SimRng;

use crate::common::{live_input, reference_output};
use crate::live::live_runtime;
use crate::socket::{launch_gated_cluster, TcpProfile};
use crate::spec::Transport;

use super::{ArrivalProcess, LoadgenCell, ZipfSampler};

/// One backend cluster serving a single benchmark, behind its own
/// admission gate ([`ClusterRuntime::try_invoke`] /
/// [`TcpCluster::try_invoke`] — the same client code on both media).
#[allow(clippy::large_enum_variant)] // a handful per cell, never collected in bulk
enum Target {
    Inproc(ClusterRuntime),
    Tcp(TcpCluster),
}

impl Target {
    fn try_invoke(&self, tenant: &str, inputs: Vec<(String, Bytes)>) -> Result<ReqId, Rejected> {
        match self {
            Target::Inproc(rt) => rt.try_invoke(tenant, inputs),
            Target::Tcp(cluster) => cluster.try_invoke(tenant, inputs),
        }
    }

    /// Waits for `req` and releases everything held for it either way:
    /// a successful wait does so itself, a failed one is abandoned with
    /// `forget` (request state, parked inputs and the admission slot).
    fn wait(&self, req: ReqId, timeout: Duration) -> Result<Vec<(String, Bytes)>, String> {
        let out = match self {
            Target::Inproc(rt) => rt.wait(req, timeout),
            Target::Tcp(cluster) => cluster.wait(req, timeout),
        };
        if out.is_err() {
            match self {
                Target::Inproc(rt) => rt.forget(req),
                Target::Tcp(cluster) => cluster.forget(req),
            }
        }
        out.map_err(|e| e.to_string())
    }

    fn tenant_stats(&self) -> Vec<(String, TenantStats)> {
        match self {
            Target::Inproc(rt) => rt.tenant_stats(),
            Target::Tcp(cluster) => cluster.tenant_stats(),
        }
    }

    fn stats(&self) -> RtStats {
        match self {
            Target::Inproc(rt) => rt.stats(),
            Target::Tcp(cluster) => cluster.stats(),
        }
    }

    fn node_count(&self) -> usize {
        match self {
            Target::Inproc(rt) => rt.node_count(),
            Target::Tcp(cluster) => cluster.node_count(),
        }
    }

    fn shutdown(self) {
        match self {
            Target::Inproc(rt) => rt.shutdown(),
            Target::Tcp(cluster) => cluster.shutdown(),
        }
    }
}

/// Latency accounting of one benchmark's stream within a cell.
struct BenchTally {
    latency: Histogram,
    completed: u64,
    failed: u64,
    output_bytes: u64,
    /// Completions slower than the configured p99 SLO (0 without one).
    slo_violations: u64,
    /// First completion is verified byte-for-byte against the reference;
    /// the rest are length-checked (comparing 10⁶ payloads would turn
    /// the harness into a memcmp benchmark).
    verified: bool,
}

struct Shared {
    timeline: QuantileTimeline,
    tallies: Vec<BenchTally>,
    /// SLO violations per tenant index (empty without an SLO).
    tenant_violations: Vec<u64>,
}

/// A dispatched request travelling from the dispatcher to a waiter.
struct Job {
    bench: usize,
    /// Tenant index the arrival was drawn for (SLO attribution).
    tenant: usize,
    req: ReqId,
    /// Scheduled arrival offset (seconds since run start).
    scheduled: f64,
}

/// Aggregate of one benchmark's stream in a [`CellReport`].
#[derive(Debug, Clone)]
pub struct BenchLoad {
    /// Benchmark short name.
    pub benchmark: &'static str,
    /// Tenants whose home benchmark this is (with ≥ 1 arrival).
    pub tenants: usize,
    /// Arrivals offered to this stream.
    pub offered: u64,
    /// Arrivals admitted through the gate.
    pub admitted: u64,
    /// Arrivals rejected at the gate.
    pub rejected: u64,
    /// Admitted requests completing with verified output.
    pub completed: u64,
    /// Admitted requests that timed out or failed.
    pub failed: u64,
    /// Median latency in seconds (scheduled arrival → result in hand).
    pub p50: f64,
    /// 99th-percentile latency in seconds.
    pub p99: f64,
    /// 99.9th-percentile latency in seconds.
    pub p999: f64,
    /// Mean latency in seconds.
    pub mean: f64,
    /// Worst observed latency in seconds.
    pub max: f64,
    /// Completions slower than the traffic spec's p99 SLO (0 when no
    /// SLO is configured).
    pub slo_violations: u64,
}

/// Everything one load cell produced: per-benchmark latency tables, the
/// p50/p99/p999 timeline, admission totals and the fairness index.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Cell label from the config.
    pub label: String,
    /// Transport name (`inproc` / `tcp`).
    pub transport: &'static str,
    /// Worker nodes per benchmark cluster.
    pub nodes: usize,
    /// Tenants configured in the traffic spec.
    pub tenants: usize,
    /// Total arrivals offered (the configured request count).
    pub offered: u64,
    /// Arrivals admitted through the gates.
    pub admitted: u64,
    /// Arrivals rejected at the gates.
    pub rejected: u64,
    /// Admitted requests that completed with verified output.
    pub completed: u64,
    /// Admitted requests that timed out or failed.
    pub failed: u64,
    /// Wall-clock duration from first arrival to last retrieval.
    pub elapsed: Duration,
    /// The configured offered rate (requests/second).
    pub offered_rate: f64,
    /// Completions per second actually achieved.
    pub achieved_rps: f64,
    /// Jain's fairness index over per-tenant success ratios
    /// (`completed / offered`, tenants with ≥ 1 arrival). 1.0 = perfectly
    /// fair; `1/n` = one tenant got everything.
    pub fairness: f64,
    /// Total verified client-output bytes.
    pub output_bytes: u64,
    /// Per-benchmark latency and admission breakdown.
    pub per_bench: Vec<BenchLoad>,
    /// Windowed `p50`/`p99`/`p999`/`rate` series over the run.
    pub timeline: Timeline,
    /// Merged runtime counters across the benchmark clusters.
    pub stats: RtStats,
    /// Per-tenant admission counters (merged across clusters), sorted by
    /// tenant name.
    pub tenant_stats: Vec<(String, TenantStats)>,
    /// The configured p99 latency SLO in seconds, if any.
    pub slo_p99: Option<f64>,
    /// Per-tenant SLO violation counts, sorted by tenant name — only
    /// tenants with at least one violation appear. Empty without an SLO.
    pub slo_violations: Vec<(String, u64)>,
}

impl CellReport {
    /// Total SLO violations across tenants (0 without an SLO).
    pub fn slo_violation_total(&self) -> u64 {
        self.slo_violations.iter().map(|(_, n)| n).sum()
    }

    /// Rejected arrivals as a fraction of offered arrivals.
    pub fn reject_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.rejected as f64 / self.offered as f64
        }
    }

    /// Whole-cell latency quantile in seconds (merged across benchmarks)
    /// — `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        // Completions are weighted by count when merging, so recomputing
        // from per-bench quantiles would be wrong; the merged histogram
        // is rebuilt from the per-bench ones instead. BenchLoad keeps
        // only the digest, so approximate with a completion-weighted
        // mean of per-bench quantiles — exact when one benchmark runs.
        let total: u64 = self.per_bench.iter().map(|b| b.completed).sum();
        if total == 0 {
            return 0.0;
        }
        self.per_bench
            .iter()
            .map(|b| {
                let v = if q >= 0.999 {
                    b.p999
                } else if q >= 0.99 {
                    b.p99
                } else {
                    b.p50
                };
                v * b.completed as f64 / total as f64
            })
            .sum()
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over per-tenant success
/// ratios. An empty slice reports 1.0 (nothing to be unfair about).
fn jain_fairness(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    let sum: f64 = ratios.iter().sum();
    let sq: f64 = ratios.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (ratios.len() as f64 * sq)
}

/// Builds one gated backend per benchmark in the cell.
fn build_targets(cell: &LoadgenCell, bench_mix: &ZipfSampler) -> Vec<Target> {
    let spec = &cell.traffic;
    cell.benchmarks
        .iter()
        .enumerate()
        .map(|(i, &bench)| {
            // The total in-flight budget is split across the benchmark
            // clusters in proportion to their Zipf share of the traffic,
            // so the head benchmark is not starved by an even split.
            let total = if spec.max_inflight_total == 0 {
                0
            } else {
                ((spec.max_inflight_total as f64 * bench_mix.share(i)).round() as usize).max(1)
            };
            let admission = AdmissionConfig {
                max_inflight_per_tenant: spec.max_inflight_per_tenant,
                max_inflight_total: total,
            };
            match cell.transport {
                Transport::Inproc => {
                    let wf = bench.workflow();
                    let placement = dataflower_rt::ByLevel.initial(&wf, cell.nodes.max(1));
                    let rt_cfg = dataflower_rt::ClusterConfig {
                        admission,
                        ..Default::default()
                    };
                    Target::Inproc(live_runtime(bench, wf, placement, rt_cfg))
                }
                Transport::Tcp => Target::Tcp(
                    launch_gated_cluster(
                        bench,
                        cell.nodes.max(1),
                        spec.seed ^ i as u64,
                        TcpProfile::Plain,
                        admission,
                    )
                    .expect("loadgen TCP cluster failed to launch"),
                ),
            }
        })
        .collect()
}

/// Runs one load cell to completion and reports it. This is the entry
/// the [`WorkloadSpec`](crate::WorkloadSpec) open-loop path and the
/// bench binary's `loadgen` subcommand share.
///
/// # Panics
///
/// Panics when a completed request's output diverges from the reference
/// computation (first completion per benchmark is compared
/// byte-for-byte, the rest by length) — an open-loop run that corrupts
/// data is a bug, not a data point.
pub fn run_cell(cell: &LoadgenCell) -> CellReport {
    assert!(!cell.benchmarks.is_empty(), "load cell needs a benchmark");
    let spec = &cell.traffic;
    assert!(spec.requests > 0, "load cell needs arrivals");
    assert!(spec.tenants > 0, "load cell needs tenants");

    let bench_mix = ZipfSampler::new(cell.benchmarks.len(), spec.benchmark_zipf);
    let tenant_mix = ZipfSampler::new(spec.tenants, spec.tenant_zipf);
    let arrivals =
        ArrivalProcess::new(spec.arrival, spec.rate_per_sec).schedule(spec.seed, spec.requests);

    // Deterministic tenant → home-benchmark assignment: tenant t always
    // calls the same workflow, drawn from the benchmark mix.
    let mut assign_rng = SimRng::seed_from(spec.seed ^ 0x7e4a_4174_0000_0001);
    let homes: Vec<usize> = (0..spec.tenants)
        .map(|_| bench_mix.sample(&mut assign_rng))
        .collect();
    let tenant_names: Vec<String> = (0..spec.tenants).map(|t| format!("t{t:05}")).collect();

    // Canonical input and reference output per benchmark.
    let inputs: Vec<(&'static str, Bytes)> = cell
        .benchmarks
        .iter()
        .map(|&b| {
            let (name, payload) = live_input(b, cell.payload_bytes);
            (name, Bytes::from(payload))
        })
        .collect();
    let expected: Vec<Vec<u8>> = cell
        .benchmarks
        .iter()
        .zip(&inputs)
        .map(|(&b, (_, payload))| reference_output(b, payload))
        .collect();

    let targets = build_targets(cell, &bench_mix);

    let shared = Mutex::new(Shared {
        timeline: QuantileTimeline::new(spec.window_secs),
        tallies: cell
            .benchmarks
            .iter()
            .map(|_| BenchTally {
                latency: Histogram::new(),
                completed: 0,
                failed: 0,
                output_bytes: 0,
                slo_violations: 0,
                verified: false,
            })
            .collect(),
        tenant_violations: vec![0; spec.tenants],
    });

    let (tx, rx): (Sender<Job>, Receiver<Job>) = channel::unbounded();
    let t0 = Instant::now();

    std::thread::scope(|s| {
        for _ in 0..spec.waiters.max(1) {
            let rx = rx.clone();
            let targets = &targets;
            let shared = &shared;
            let expected = &expected;
            s.spawn(move || {
                while let Ok(job) = rx.recv() {
                    let outcome = targets[job.bench].wait(job.req, cell.timeout);
                    let done = t0.elapsed().as_secs_f64();
                    let mut sh = shared.lock().expect("loadgen metrics lock poisoned");
                    let tally = &mut sh.tallies[job.bench];
                    match outcome {
                        Ok(outputs) => {
                            let want = &expected[job.bench];
                            assert_eq!(outputs.len(), 1, "expected one client output");
                            if tally.verified {
                                assert_eq!(
                                    outputs[0].1.len(),
                                    want.len(),
                                    "loadgen output length diverged from the reference"
                                );
                            } else {
                                assert_eq!(
                                    &*outputs[0].1,
                                    &want[..],
                                    "loadgen output diverged from the reference computation"
                                );
                                tally.verified = true;
                            }
                            tally.completed += 1;
                            tally.output_bytes += outputs[0].1.len() as u64;
                            let latency = (done - job.scheduled).max(0.0);
                            tally.latency.record(latency);
                            if cell.traffic.slo_p99.is_some_and(|slo| latency > slo) {
                                tally.slo_violations += 1;
                                sh.tenant_violations[job.tenant] += 1;
                            }
                            sh.timeline.record(done, latency);
                        }
                        Err(_) => tally.failed += 1,
                    }
                }
            });
        }
        drop(rx);

        // The dispatcher: pace the schedule against the wall clock and
        // draw each arrival's tenant. Rejections are absorbed here —
        // open-loop means the schedule never slows down.
        let mut draw_rng = SimRng::seed_from(spec.seed ^ 0x7e4a_4174_0000_0002);
        for &at in &arrivals {
            loop {
                let now = t0.elapsed().as_secs_f64();
                if now >= at {
                    break;
                }
                let ahead = at - now;
                if ahead > 0.002 {
                    std::thread::sleep(Duration::from_secs_f64(ahead - 0.001));
                } else {
                    std::thread::yield_now();
                }
            }
            let tenant = tenant_mix.sample(&mut draw_rng);
            let bench = homes[tenant];
            let (input_name, payload) = &inputs[bench];
            if let Ok(req) = targets[bench].try_invoke(
                &tenant_names[tenant],
                vec![(input_name.to_string(), payload.clone())],
            ) {
                // Send can only fail if every waiter panicked; propagate.
                let job = Job {
                    bench,
                    tenant,
                    req,
                    scheduled: at,
                };
                if tx.send(job).is_err() {
                    panic!("loadgen waiter pool died");
                }
            }
        }
        drop(tx);
    });

    let elapsed = t0.elapsed();
    let shared = shared.into_inner().expect("loadgen metrics lock poisoned");
    let timeline = shared.timeline.finish(elapsed.as_secs_f64());

    // Merge per-tenant admission counters across the benchmark clusters
    // (each tenant lives on exactly one, so this is a concatenation).
    let mut tenant_stats: Vec<(String, TenantStats)> = Vec::new();
    let mut per_target_tenants: Vec<Vec<(String, TenantStats)>> = Vec::new();
    for target in &targets {
        let ts = target.tenant_stats();
        tenant_stats.extend(ts.iter().cloned());
        per_target_tenants.push(ts);
    }
    tenant_stats.sort_by(|a, b| a.0.cmp(&b.0));

    let ratios: Vec<f64> = tenant_stats
        .iter()
        .filter(|(_, s)| s.admitted + s.rejected > 0)
        .map(|(_, s)| s.completed as f64 / (s.admitted + s.rejected) as f64)
        .collect();
    let fairness = jain_fairness(&ratios);

    let mut per_bench = Vec::with_capacity(cell.benchmarks.len());
    for (i, &bench) in cell.benchmarks.iter().enumerate() {
        let tally = &shared.tallies[i];
        let ts = &per_target_tenants[i];
        let offered: u64 = ts.iter().map(|(_, s)| s.admitted + s.rejected).sum();
        let admitted: u64 = ts.iter().map(|(_, s)| s.admitted).sum();
        let rejected: u64 = ts.iter().map(|(_, s)| s.rejected).sum();
        per_bench.push(BenchLoad {
            benchmark: bench.name(),
            tenants: ts.len(),
            offered,
            admitted,
            rejected,
            completed: tally.completed,
            failed: tally.failed,
            p50: tally.latency.p50(),
            p99: tally.latency.p99(),
            p999: tally.latency.p999(),
            mean: tally.latency.mean(),
            max: tally.latency.max(),
            slo_violations: tally.slo_violations,
        });
    }

    let mut stats = RtStats::default();
    let nodes = targets.first().map(Target::node_count).unwrap_or(0);
    for target in targets {
        stats.merge(&target.stats());
        target.shutdown();
    }

    let offered = spec.requests as u64;
    let admitted: u64 = per_bench.iter().map(|b| b.admitted).sum();
    let rejected: u64 = per_bench.iter().map(|b| b.rejected).sum();
    let completed: u64 = per_bench.iter().map(|b| b.completed).sum();
    let failed: u64 = per_bench.iter().map(|b| b.failed).sum();
    let output_bytes: u64 = per_bench
        .iter()
        .enumerate()
        .map(|(i, _)| shared.tallies[i].output_bytes)
        .sum();

    let slo_violations: Vec<(String, u64)> = shared
        .tenant_violations
        .iter()
        .enumerate()
        .filter(|(_, n)| **n > 0)
        .map(|(t, n)| (tenant_names[t].clone(), *n))
        .collect();

    CellReport {
        label: cell.label.clone(),
        transport: cell.transport.name(),
        nodes,
        tenants: spec.tenants,
        offered,
        admitted,
        rejected,
        completed,
        failed,
        elapsed,
        offered_rate: spec.rate_per_sec,
        achieved_rps: if elapsed.as_secs_f64() > 0.0 {
            completed as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        fairness,
        output_bytes,
        per_bench,
        timeline,
        stats,
        tenant_stats,
        slo_p99: cell.traffic.slo_p99,
        slo_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::super::TrafficSpec;
    use super::*;

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert!((jain_fairness(&[0.5, 0.5, 0.5]) - 1.0).abs() < 1e-12);
        let skewed = jain_fairness(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }

    /// Per-tenant offered counts (admitted + rejected) of one run. The
    /// offered traffic is a pure function of the seed, so two runs of
    /// the same cell must agree on it exactly — only completion timing
    /// is allowed to differ.
    fn offered_by_tenant(report: &CellReport) -> Vec<(String, u64)> {
        report
            .tenant_stats
            .iter()
            .map(|(t, s)| (t.clone(), s.admitted + s.rejected))
            .collect()
    }

    #[test]
    fn slo_violations_are_tallied_per_tenant_and_per_benchmark() {
        // An impossible 0-second SLO makes every completion a violation,
        // so the per-tenant and per-benchmark tallies must both sum to
        // the completion count exactly.
        let cell = LoadgenCell {
            nodes: 1,
            traffic: TrafficSpec {
                requests: 200,
                rate_per_sec: 2_000.0,
                tenants: 4,
                waiters: 2,
                slo_p99: Some(0.0),
                ..TrafficSpec::default()
            },
            ..LoadgenCell::default()
        };
        let report = run_cell(&cell);
        assert!(report.completed > 0, "nothing completed");
        assert_eq!(report.slo_p99, Some(0.0));
        assert_eq!(report.slo_violation_total(), report.completed);
        let per_bench: u64 = report.per_bench.iter().map(|b| b.slo_violations).sum();
        assert_eq!(per_bench, report.completed);
        assert!(!report.slo_violations.is_empty());

        // Without an SLO nothing is tallied.
        let mut no_slo = cell;
        no_slo.traffic.slo_p99 = None;
        let report = run_cell(&no_slo);
        assert_eq!(report.slo_p99, None);
        assert!(report.slo_violations.is_empty());
        assert!(report.per_bench.iter().all(|b| b.slo_violations == 0));
    }

    #[test]
    fn small_cell_is_seed_deterministic_and_tracks_the_tenant_mix() {
        let cell = LoadgenCell {
            nodes: 1,
            traffic: TrafficSpec {
                requests: 2_000,
                rate_per_sec: 4_000.0,
                tenants: 5,
                tenant_zipf: 1.0,
                waiters: 2,
                ..TrafficSpec::default()
            },
            ..LoadgenCell::default()
        };
        let a = run_cell(&cell);
        let b = run_cell(&cell);

        assert_eq!(a.offered, 2_000);
        assert_eq!(a.completed + a.failed, a.admitted);
        assert!(a.completed > 0, "nothing completed");
        assert_eq!(offered_by_tenant(&a), offered_by_tenant(&b));

        // The head tenant's share of the offered load tracks its Zipf
        // weight (2 000 draws put the binomial σ at ~0.011, so ±0.05 is
        // a five-sigma envelope, not flakiness budget).
        let mix = ZipfSampler::new(5, 1.0);
        let head = a
            .tenant_stats
            .iter()
            .find(|(t, _)| t == "t00000")
            .map(|(_, s)| s.admitted + s.rejected)
            .unwrap_or(0);
        let got = head as f64 / a.offered as f64;
        assert!(
            (got - mix.share(0)).abs() < 0.05,
            "head tenant offered share {got:.3}, zipf share {:.3}",
            mix.share(0)
        );
    }
}
