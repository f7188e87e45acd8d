//! # dataflower-workloads
//!
//! The evaluation workloads of the DataFlower paper (§9.1) and the
//! harness that drives them:
//!
//! * [`Benchmark`] — the four best-practice serverless workflows
//!   (Video-FFmpeg, ML image processing, SVD, WordCount) with
//!   calibrated DAGs, plus parametric builders ([`wordcount`],
//!   [`video_ffmpeg`], [`svd`], [`image_pipeline`]) for the fan-out and
//!   input-size sweeps of Fig. 16;
//! * [`SystemKind`] — a uniform factory over every system under test
//!   (DataFlower, its non-aware ablation, FaaSFlow, SONIC, the
//!   centralized platform and the Fig. 19 state machine);
//! * [`Scenario`] — the *simulated* open-loop, closed-loop, co-located
//!   and bursty experiment runners matching the paper's load patterns;
//! * [`WorkloadSpec`] — the one configuration record of every **live**
//!   scenario: pick a benchmark (or the Zipf-skewed fan-out), a
//!   [`Transport`] (in-process fabric or one OS process per node over
//!   TCP — see [`serve_worker_if_spawned`]), a [`FaultMode`] (seeded
//!   chaos with crash-and-restart, permanent node loss healed by the
//!   orchestrator, voluntary live migration), and a [`Traffic`] shape
//!   (closed-loop bursts, optionally warmed up for the autoscaler, or
//!   the seeded open-loop multi-tenant arrivals of [`loadgen`]) — every
//!   combination validated byte-for-byte against a straight-line
//!   reference computation;
//! * [`loadgen`] — the open-loop load harness behind
//!   [`Traffic::OpenLoop`] and the `bench loadgen` subcommand:
//!   million-request arrival schedules, Zipf tenant and workflow mixes,
//!   per-tenant admission control, p50/p99/p999 latency timelines and
//!   committed markdown run reports.

//!
//! # Examples
//!
//! ```
//! use dataflower_workloads::{Benchmark, Scenario, SystemKind};
//!
//! let scenario = Scenario::seeded(42);
//! let report = scenario.open_loop(
//!     SystemKind::DataFlower,
//!     Benchmark::Wc.workflow(),
//!     Benchmark::Wc.default_payload(),
//!     20.0, // rpm
//!     30,   // seconds of load
//! );
//! assert!(report.primary().completed > 0);
//! ```
//!
//! And live, through the composable spec:
//!
//! ```
//! use dataflower_workloads::{Benchmark, WorkloadSpec};
//!
//! let report = WorkloadSpec::new()
//!     .benchmark(Benchmark::Wc)
//!     .payload_bytes(64 * 1024)
//!     .run();
//! assert!(report.stats.remote_pipe_transfers > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod benchmarks;
mod chaos;
mod common;
mod elastic;
pub mod fuzz;
mod harness;
mod live;
pub mod loadgen;
mod node_loss;
mod socket;
mod spec;
mod system;

pub use benchmarks::{image_pipeline, svd, video_ffmpeg, wordcount, Benchmark, WcParams};
pub use chaos::ChaosClusterReport;
pub use elastic::ElasticReport;
pub use fuzz::{run_diff_fuzz, FuzzConfig, FuzzFailure, FuzzReport};
pub use harness::Scenario;
pub use live::{LiveClusterReport, LivePlacement};
pub use loadgen::{LoadgenCell, LoadgenConfig, LoadgenReport, TrafficSpec};
pub use node_loss::NodeLossReport;
pub use socket::{bench_input, launch_bench_cluster, serve_worker_if_spawned, TcpProfile};
pub use spec::{
    FaultMode, ReportDetail, Traffic, Transport, Workload, WorkloadReport, WorkloadSpec,
};
pub use system::SystemKind;
