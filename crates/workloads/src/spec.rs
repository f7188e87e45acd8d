//! A live scenario's configuration: one record, [`WorkloadSpec`].
//!
//! Benchmark, transport, fault and traffic shape are orthogonal aspects
//! of the spec; [`WorkloadSpec::run`] picks the runner (plain, chaos,
//! node loss, migration, bursty, skewed fan-out — each over the fabric
//! the spec names) and that runner reads the spec's fields directly.
//! Runtime tuning is a [`ClusterConfig`] handed over with
//! [`WorkloadSpec::config`]; without one, each runner uses the config its
//! scenario is built around.
//!
//! ```
//! use dataflower_workloads::{Benchmark, Transport, WorkloadSpec};
//!
//! let report = WorkloadSpec::new()
//!     .benchmark(Benchmark::Wc)
//!     .transport(Transport::Inproc)
//!     .payload_bytes(64 * 1024)
//!     .requests(1)
//!     .run();
//! assert_eq!(report.transport, "inproc");
//! assert!(report.requests >= 1);
//! ```
//!
use std::time::Duration;

use dataflower_metrics::Timeline;
use dataflower_rt::{ClusterConfig, CrashReport, RtStats, ScaleEvent};

use crate::benchmarks::Benchmark;
use crate::chaos::run_chaos_cluster;
use crate::elastic::{run_bursty_cluster, run_skewed_fanout};
use crate::live::{run_live_cluster_traced, LivePlacement};
use crate::loadgen::{self, CellReport, TrafficSpec};
use crate::node_loss::{run_live_migration, run_node_loss};
use crate::socket::{run_chaos_cluster_tcp, run_live_tcp};

/// What computation the cluster executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// One of the four paper benchmarks (§9.1).
    Bench(Benchmark),
    /// The synthetic Zipf-skewed fan-out (split → N workers → merge)
    /// under load-aware placement. In-process only.
    SkewedFanout {
        /// Fan-out branches of the split.
        branches: usize,
        /// Zipf exponent of the shard-size skew (0 = even shards).
        zipf_exponent: f64,
    },
}

/// Which fabric the cluster's links run over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The in-process fabric: one thread per node, channel links.
    Inproc,
    /// One OS process per node over real localhost TCP sockets. The
    /// launching binary must call
    /// [`serve_worker_if_spawned`](crate::serve_worker_if_spawned) at
    /// the top of `main`.
    Tcp,
}

impl Transport {
    /// Short name used in reports (`inproc` / `tcp`).
    pub fn name(self) -> &'static str {
        match self {
            Transport::Inproc => "inproc",
            Transport::Tcp => "tcp",
        }
    }
}

/// What, if anything, goes wrong mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Nothing — a clean run.
    None,
    /// Seeded frame chaos plus a mid-stream crash of node 1, restarted
    /// after the outage and healed by §6.2 checkpoint recovery.
    ChaosCrashRestart,
    /// Node 1 is killed **permanently** mid-stream; the orchestrator
    /// declares the loss from heartbeat silence and relocates its
    /// functions to the survivors.
    NodeLoss,
    /// A hot function is voluntarily migrated mid-stream to the
    /// least-pressured node. In-process only.
    LiveMigration,
}

/// How requests arrive.
#[derive(Debug, Clone)]
pub enum Traffic {
    /// `requests` concurrent requests fired at once, all awaited — the
    /// classic benchmark shape.
    ClosedLoop {
        /// Requests to drive through the workflow.
        requests: usize,
    },
    /// A seeded open-loop multi-tenant arrival process (see
    /// [`loadgen`](crate::loadgen)) — the schedule never slows down for
    /// the runtime; overload is shed at the admission gates.
    OpenLoop(TrafficSpec),
}

/// A composable live-scenario specification. Build one with
/// [`WorkloadSpec::new`], chain the aspects that differ from the
/// defaults, and [`run`](WorkloadSpec::run) it.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub(crate) workload: Workload,
    pub(crate) nodes: usize,
    pub(crate) placement: LivePlacement,
    pub(crate) transport: Transport,
    pub(crate) payload_bytes: usize,
    pub(crate) traffic: Traffic,
    pub(crate) warmup_requests: usize,
    pub(crate) settle: Duration,
    pub(crate) rt: Option<ClusterConfig>,
    pub(crate) faults: FaultMode,
    pub(crate) seed: u64,
    pub(crate) outage: Duration,
    pub(crate) fault_deadline: Duration,
    pub(crate) timeout: Duration,
    pub(crate) record_trace: Option<std::path::PathBuf>,
}

impl Default for WorkloadSpec {
    /// Wordcount on 3 in-process nodes (by-level spread), one 256 KiB
    /// closed-loop request, no faults, 60 s deadline.
    fn default() -> Self {
        WorkloadSpec {
            workload: Workload::Bench(Benchmark::Wc),
            nodes: 3,
            placement: LivePlacement::ByLevel,
            transport: Transport::Inproc,
            payload_bytes: 256 * 1024,
            traffic: Traffic::ClosedLoop { requests: 1 },
            warmup_requests: 0,
            settle: Duration::from_secs(5),
            rt: None,
            faults: FaultMode::None,
            seed: 7,
            outage: Duration::from_millis(20),
            fault_deadline: Duration::from_secs(20),
            timeout: Duration::from_secs(60),
            record_trace: None,
        }
    }
}

impl WorkloadSpec {
    /// The default spec (see [`WorkloadSpec::default`]).
    pub fn new() -> WorkloadSpec {
        WorkloadSpec::default()
    }

    /// Runs one of the four paper benchmarks.
    pub fn benchmark(mut self, bench: Benchmark) -> WorkloadSpec {
        self.workload = Workload::Bench(bench);
        self
    }

    /// Runs the synthetic Zipf-skewed fan-out instead of a benchmark
    /// (in-process only; uses load-aware placement and the elastic
    /// runtime knobs unless overridden).
    pub fn skewed_fanout(mut self, branches: usize, zipf_exponent: f64) -> WorkloadSpec {
        self.workload = Workload::SkewedFanout {
            branches,
            zipf_exponent,
        };
        self
    }

    /// Worker nodes in the topology.
    pub fn nodes(mut self, nodes: usize) -> WorkloadSpec {
        self.nodes = nodes;
        self
    }

    /// Placement strategy (closed-loop in-process runs only; the other
    /// runners pin the by-level spread their assertions rely on, and
    /// [`WorkloadSpec::run`] panics on anything else over TCP, where the
    /// worker tag encodes that spread).
    pub fn placement(mut self, placement: LivePlacement) -> WorkloadSpec {
        self.placement = placement;
        self
    }

    /// In-process fabric or worker-process TCP.
    pub fn transport(mut self, transport: Transport) -> WorkloadSpec {
        self.transport = transport;
        self
    }

    /// Client input payload size in bytes.
    pub fn payload_bytes(mut self, bytes: usize) -> WorkloadSpec {
        self.payload_bytes = bytes;
        self
    }

    /// Closed-loop traffic with this many concurrent requests —
    /// shorthand for [`WorkloadSpec::traffic`] with
    /// [`Traffic::ClosedLoop`].
    pub fn requests(mut self, requests: usize) -> WorkloadSpec {
        self.traffic = Traffic::ClosedLoop { requests };
        self
    }

    /// The traffic shape (closed-loop burst or open-loop arrivals).
    pub fn traffic(mut self, traffic: Traffic) -> WorkloadSpec {
        self.traffic = traffic;
        self
    }

    /// Tenant count of the open-loop traffic. Call after
    /// [`WorkloadSpec::traffic`] has set [`Traffic::OpenLoop`].
    ///
    /// # Panics
    ///
    /// Panics when the traffic is closed-loop — tenancy only exists at
    /// the admission gates of the open-loop driver.
    pub fn tenants(mut self, tenants: usize) -> WorkloadSpec {
        match &mut self.traffic {
            Traffic::OpenLoop(spec) => spec.tenants = tenants,
            Traffic::ClosedLoop { .. } => {
                panic!("tenants() requires open-loop traffic; call .traffic(Traffic::OpenLoop(..)) first")
            }
        }
        self
    }

    /// Sequential warm-up requests before the closed-loop burst; a
    /// non-zero warm-up selects the autoscaled bursty runner
    /// (in-process only).
    pub fn warmup(mut self, requests: usize) -> WorkloadSpec {
        self.warmup_requests = requests;
        self
    }

    /// How long the bursty runner keeps the drained runtime alive
    /// waiting for the cool-down-guarded scale-in.
    pub fn settle(mut self, settle: Duration) -> WorkloadSpec {
        self.settle = settle;
        self
    }

    /// Overrides the runtime tuning of an in-process run. Without this,
    /// each runner keeps its scenario's config (chaos knobs under
    /// [`FaultMode::ChaosCrashRestart`], elastic knobs for bursty/skewed
    /// runs, stock knobs otherwise).
    ///
    /// # Panics
    ///
    /// [`WorkloadSpec::run`] panics if this is combined with
    /// [`Transport::Tcp`] (worker processes derive their config from the
    /// tag's [`TcpProfile`](crate::TcpProfile)) or with
    /// [`FaultMode::NodeLoss`] / [`FaultMode::LiveMigration`] (their
    /// assertions are about the orchestrated config).
    pub fn config(mut self, rt: ClusterConfig) -> WorkloadSpec {
        self.rt = Some(rt);
        self
    }

    /// What goes wrong mid-run.
    pub fn faults(mut self, faults: FaultMode) -> WorkloadSpec {
        self.faults = faults;
        self
    }

    /// Seed of the fault plan / worker tags.
    pub fn fault_seed(mut self, seed: u64) -> WorkloadSpec {
        self.seed = seed;
        self
    }

    /// Outage length between crash and restart
    /// ([`FaultMode::ChaosCrashRestart`] only).
    pub fn outage(mut self, outage: Duration) -> WorkloadSpec {
        self.outage = outage;
        self
    }

    /// How long the fault runners hunt for a crash/kill/migration window
    /// before giving up.
    pub fn fault_deadline(mut self, deadline: Duration) -> WorkloadSpec {
        self.fault_deadline = deadline;
        self
    }

    /// Per-request completion deadline.
    pub fn timeout(mut self, timeout: Duration) -> WorkloadSpec {
        self.timeout = timeout;
        self
    }

    /// Records the run's deterministic trace (see
    /// [`dataflower_rt::trace`]) and writes it to `path` in the on-disk
    /// `DFTR` encoding. Plain in-process closed-loop runs only — the
    /// combination every other runner builds on.
    ///
    /// # Panics
    ///
    /// [`WorkloadSpec::run`] panics if tracing is combined with faults,
    /// warm-up, open-loop traffic or the TCP transport.
    pub fn record_trace(mut self, path: impl Into<std::path::PathBuf>) -> WorkloadSpec {
        self.record_trace = Some(path.into());
        self
    }

    /// Executes the spec and reports it.
    ///
    /// # Panics
    ///
    /// Panics on an unsupported combination (skewed fan-out or live
    /// migration over TCP, faults under open-loop traffic, a `config()`
    /// or `placement()` override the selected runner cannot honour) and on every
    /// verification failure the underlying runner asserts (missed
    /// deadlines, outputs diverging from the reference, a fault story
    /// that did not happen).
    pub fn run(&self) -> WorkloadReport {
        if self.record_trace.is_some() {
            assert!(
                matches!(self.workload, Workload::Bench(_))
                    && self.faults == FaultMode::None
                    && self.warmup_requests == 0
                    && matches!(self.traffic, Traffic::ClosedLoop { .. })
                    && self.transport == Transport::Inproc,
                "record_trace requires a plain in-process closed-loop benchmark run"
            );
        }
        if self.transport == Transport::Tcp {
            assert!(
                self.rt.is_none(),
                "config() cannot reach worker processes: TCP runs use the TcpProfile of the fault mode"
            );
            assert_eq!(
                self.placement,
                LivePlacement::ByLevel,
                "placement() cannot reach worker processes: TCP runs use the by-level spread the worker tag encodes"
            );
        }
        if matches!(self.faults, FaultMode::NodeLoss | FaultMode::LiveMigration) {
            assert!(
                self.rt.is_none(),
                "config() is not read by the orchestrated runners: node loss and live migration run the orchestrated config"
            );
        }
        let bench = match self.workload {
            Workload::SkewedFanout {
                branches,
                zipf_exponent,
            } => {
                assert_eq!(
                    self.transport,
                    Transport::Inproc,
                    "skewed_fanout runs in-process only"
                );
                assert_eq!(
                    self.faults,
                    FaultMode::None,
                    "skewed_fanout does not compose with faults"
                );
                return WorkloadReport::from_elastic(
                    run_skewed_fanout(self, branches, zipf_exponent),
                    self.transport,
                );
            }
            Workload::Bench(bench) => bench,
        };
        match self.faults {
            FaultMode::ChaosCrashRestart => {
                let report = match self.transport {
                    Transport::Inproc => run_chaos_cluster(bench, self),
                    Transport::Tcp => run_chaos_cluster_tcp(bench, self),
                };
                WorkloadReport {
                    scenario: format!("chaos_cluster/{}", report.benchmark),
                    transport: self.transport.name(),
                    nodes: report.nodes,
                    requests: report.requests,
                    elapsed: report.elapsed,
                    output_bytes: report.output_bytes as u64,
                    stats: report.stats.clone(),
                    detail: ReportDetail::Crash {
                        victim: report.victim,
                        crash: report.crash,
                    },
                }
            }
            FaultMode::NodeLoss => {
                WorkloadReport::from_node_loss("node_loss_relocation", run_node_loss(bench, self))
            }
            FaultMode::LiveMigration => {
                assert_eq!(
                    self.transport,
                    Transport::Inproc,
                    "live migration runs in-process only"
                );
                WorkloadReport::from_node_loss("live_migration", run_live_migration(bench, self))
            }
            FaultMode::None => match &self.traffic {
                Traffic::OpenLoop(spec) => {
                    let cell = loadgen::LoadgenCell {
                        label: format!("{}-{}", bench.name(), self.transport.name()),
                        benchmarks: vec![bench],
                        nodes: self.nodes,
                        transport: self.transport,
                        payload_bytes: self.payload_bytes,
                        traffic: spec.clone(),
                        timeout: self.timeout,
                    };
                    let report = loadgen::run_cell(&cell);
                    WorkloadReport {
                        scenario: format!("open_loop/{}", bench.name()),
                        transport: self.transport.name(),
                        nodes: report.nodes,
                        requests: report.completed as usize,
                        elapsed: report.elapsed,
                        output_bytes: report.output_bytes,
                        stats: report.stats.clone(),
                        detail: ReportDetail::OpenLoop(Box::new(report)),
                    }
                }
                Traffic::ClosedLoop { .. } => {
                    if self.warmup_requests > 0 {
                        assert_eq!(
                            self.transport,
                            Transport::Inproc,
                            "the bursty (warmed-up) runner is in-process only"
                        );
                        return WorkloadReport::from_elastic(
                            run_bursty_cluster(bench, self),
                            self.transport,
                        );
                    }
                    let report = match self.transport {
                        Transport::Inproc => {
                            run_live_cluster_traced(bench, self, self.placement.policy())
                        }
                        Transport::Tcp => run_live_tcp(bench, self),
                    };
                    WorkloadReport {
                        scenario: format!("live_cluster/{}", report.benchmark),
                        transport: self.transport.name(),
                        nodes: report.nodes,
                        requests: report.requests,
                        elapsed: report.elapsed,
                        output_bytes: report.output_bytes as u64,
                        stats: report.stats,
                        detail: ReportDetail::Plain,
                    }
                }
            },
        }
    }

    /// The closed-loop request count (`what` names the runner asking).
    pub(crate) fn closed_loop_requests(&self, what: &str) -> usize {
        match &self.traffic {
            Traffic::ClosedLoop { requests } => *requests,
            Traffic::OpenLoop(_) => {
                panic!("{what} drives closed-loop traffic; open-loop arrivals require FaultMode::None on a plain benchmark")
            }
        }
    }
}

/// Scenario-specific extras of a [`WorkloadReport`].
#[derive(Debug, Clone)]
pub enum ReportDetail {
    /// A clean closed-loop run — the common counters say it all.
    Plain,
    /// An autoscaled run (bursty or skewed fan-out).
    Elastic {
        /// Every scale event, in time order.
        events: Vec<ScaleEvent>,
        /// Per-function replica counts over time.
        timeline: Timeline,
    },
    /// A crash-and-restart run.
    Crash {
        /// The node that was crashed and restarted.
        victim: usize,
        /// What the crash interrupted.
        crash: CrashReport,
    },
    /// A permanent node loss or a voluntary live migration.
    NodeLoss {
        /// The node that was killed (or migrated away from).
        victim: usize,
        /// Functions the control plane moved off the victim.
        relocated: u64,
    },
    /// An open-loop load run (per-benchmark latency tables, timeline,
    /// fairness).
    OpenLoop(Box<CellReport>),
}

/// The uniform outcome of a [`WorkloadSpec::run`]: the counters every
/// scenario shares, plus a [`ReportDetail`] with the scenario-specific
/// story.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Scenario identifier, e.g. `live_cluster/wc`, `chaos_cluster/svd`.
    pub scenario: String,
    /// Transport name (`inproc` / `tcp`).
    pub transport: &'static str,
    /// Worker nodes in the topology.
    pub nodes: usize,
    /// Requests completed (closed loop: all of them; open loop: the
    /// admitted completions).
    pub requests: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Total verified client-output bytes.
    pub output_bytes: u64,
    /// Aggregated runtime counters.
    pub stats: RtStats,
    /// The scenario-specific story.
    pub detail: ReportDetail,
}

impl WorkloadReport {
    fn from_elastic(report: crate::elastic::ElasticReport, transport: Transport) -> WorkloadReport {
        WorkloadReport {
            scenario: report.scenario,
            transport: transport.name(),
            nodes: report.nodes,
            requests: report.requests,
            elapsed: report.elapsed,
            output_bytes: report.output_bytes as u64,
            stats: report.stats,
            detail: ReportDetail::Elastic {
                events: report.events,
                timeline: report.timeline,
            },
        }
    }

    fn from_node_loss(kind: &str, report: crate::node_loss::NodeLossReport) -> WorkloadReport {
        WorkloadReport {
            scenario: format!("{kind}/{}", report.benchmark),
            transport: report.transport,
            nodes: report.nodes,
            requests: report.requests,
            elapsed: report.elapsed,
            output_bytes: report.output_bytes as u64,
            stats: report.stats,
            detail: ReportDetail::NodeLoss {
                victim: report.victim,
                relocated: report.relocated,
            },
        }
    }

    /// The open-loop cell report, when this was an open-loop run.
    pub fn open_loop(&self) -> Option<&CellReport> {
        match &self.detail {
            ReportDetail::OpenLoop(cell) => Some(cell),
            _ => None,
        }
    }

    /// The crashed / killed / migrated-from node, when a fault ran.
    pub fn victim(&self) -> Option<usize> {
        match &self.detail {
            ReportDetail::Crash { victim, .. } | ReportDetail::NodeLoss { victim, .. } => {
                Some(*victim)
            }
            _ => None,
        }
    }

    /// Functions moved off the victim, when the orchestrator healed a
    /// loss (or performed a migration).
    pub fn relocated(&self) -> Option<u64> {
        match &self.detail {
            ReportDetail::NodeLoss { relocated, .. } => Some(*relocated),
            _ => None,
        }
    }

    /// The scale events, when the autoscaler ran.
    pub fn scale_events(&self) -> Option<&[ScaleEvent]> {
        match &self.detail {
            ReportDetail::Elastic { events, .. } => Some(events),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_inproc_is_the_default_path() {
        let report = WorkloadSpec::new()
            .benchmark(Benchmark::Wc)
            .payload_bytes(64 * 1024)
            .requests(2)
            .run();
        assert_eq!(report.scenario, "live_cluster/wc");
        assert_eq!(report.transport, "inproc");
        assert_eq!(report.requests, 2);
        assert!(matches!(report.detail, ReportDetail::Plain));
        assert!(report.victim().is_none() && report.open_loop().is_none());
    }

    #[test]
    fn open_loop_traffic_reaches_the_load_driver() {
        let report = WorkloadSpec::new()
            .benchmark(Benchmark::Wc)
            .nodes(2)
            .payload_bytes(4 * 1024)
            .traffic(Traffic::OpenLoop(TrafficSpec {
                requests: 200,
                rate_per_sec: 400.0,
                tenants: 10,
                ..TrafficSpec::default()
            }))
            .tenants(8)
            .run();
        let cell = report.open_loop().expect("open-loop detail");
        assert_eq!(cell.tenants, 8);
        assert_eq!(cell.offered, 200);
        assert_eq!(cell.offered, cell.admitted + cell.rejected);
        assert!(cell.completed > 0);
    }

    #[test]
    #[should_panic(expected = "tenants() requires open-loop traffic")]
    fn tenants_on_closed_loop_traffic_panics() {
        let _ = WorkloadSpec::new().requests(1).tenants(4);
    }

    #[test]
    #[should_panic(expected = "config() cannot reach worker processes")]
    fn config_override_over_tcp_panics() {
        let _ = WorkloadSpec::new()
            .transport(Transport::Tcp)
            .config(ClusterConfig::default())
            .run();
    }

    #[test]
    #[should_panic(expected = "placement() cannot reach worker processes")]
    fn placement_override_over_tcp_panics() {
        let _ = WorkloadSpec::new()
            .transport(Transport::Tcp)
            .placement(LivePlacement::RoundRobin)
            .run();
    }

    #[test]
    #[should_panic(expected = "config() is not read by the orchestrated runners")]
    fn config_override_on_node_loss_panics() {
        let _ = WorkloadSpec::new()
            .faults(FaultMode::NodeLoss)
            .config(ClusterConfig::default())
            .run();
    }

    #[test]
    fn record_trace_writes_a_decodable_file() {
        let path =
            std::env::temp_dir().join(format!("df-spec-trace-{}.dftrace", std::process::id()));
        let report = WorkloadSpec::new()
            .payload_bytes(64 * 1024)
            .record_trace(&path)
            .run();
        assert!(report.requests >= 1);
        let bytes = std::fs::read(&path).expect("trace file written");
        let events = dataflower_rt::trace::decode_trace(&bytes).expect("trace decodes");
        assert!(
            events.len() > 1,
            "trace must carry the Meta preamble plus run events"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "record_trace requires a plain in-process closed-loop")]
    fn record_trace_rejects_faulted_runs() {
        let _ = WorkloadSpec::new()
            .record_trace("/tmp/never-written.dftrace")
            .faults(FaultMode::ChaosCrashRestart)
            .run();
    }
}
