//! # dataflower-cluster
//!
//! The simulated serverless cluster substrate shared by the DataFlower
//! engine and the control-flow baselines.
//!
//! * [`World`] — nodes, containers, requests, the flow network and all
//!   cost accounting, mutated through a narrow API;
//! * [`Orchestrator`] — the event-driven trait every engine implements;
//! * [`run`] / [`run_to_idle`] — the deterministic driver loop;
//! * [`Placement`] — the function→node mapping interface (§6.1's load
//!   balancer hook) with the static, single-node and least-loaded
//!   policies;
//! * [`RunReport`] — per-run measurements (latency samples, throughput,
//!   GB·s, MB·s).
//!
//! The resource model follows the paper's testbed (§9.1): containers get
//! 0.1 core and 40 Mbps per 128 MB of memory; worker nodes partition CPU
//! and memory exclusively (§9.8); every transfer shares bandwidth max–min
//! fairly on its path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod driver;
mod engine;
mod ids;
mod placement;
mod report;
mod world;

pub use config::{ContainerSpec, NodeSpec, StorageSpec, TestbedConfig};
pub use driver::{run, run_to_idle};
pub use engine::Orchestrator;
pub use ids::{ContainerId, NodeId, RequestId, WfId};
pub use placement::{LoadAwarePlacement, Placement, SingleNodePlacement, SpreadPlacement};
pub use report::{RunReport, WorkflowStats};
pub use world::{
    Container, ContainerState, Request, Route, TransferDone, TriggerKind, TriggerRecord,
    UsageSample, World,
};
