//! # dataflower
//!
//! A Rust implementation of **DataFlower** — the data-flow paradigm for
//! serverless workflow orchestration (Li, Xu et al., ASPLOS).
//!
//! The control-flow paradigm used by mainstream serverless platforms
//! triggers a function only when its predecessors *complete*, forces all
//! intermediate data through backend storage, and serializes compute and
//! communication inside each container. DataFlower removes all three
//! bottlenecks:
//!
//! * each container is split into a **Function Logic Unit** (FLU: the
//!   computation) and a **Data Logic Unit** (DLU: asynchronous output
//!   shipping) so compute and communication overlap — see
//!   [`DataFlowerEngine`];
//! * functions trigger on **data availability** the moment their inputs
//!   land in the host's [`WaitMatchMemory`] data sink — out-of-order,
//!   early, with no central state machine;
//! * data moves through **pipe connectors** ([`choose_pipe`]): a direct
//!   socket under 16 KiB, a local pipe when co-located, and a streaming
//!   remote pipe otherwise, checkpointed for fault recovery
//!   ([`CheckpointSchedule`]);
//! * **pressure-aware scaling** ([`pressure_secs`], Eq. 1) blocks an FLU
//!   whose DLU cannot drain and scales containers out instead of queuing.
//!
//! The engine runs over the simulated cluster substrate of
//! [`dataflower_cluster`]; the companion crate `dataflower-rt` executes
//! the same FLU/DLU programming model with real threads and bytes.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use dataflower::{DataFlowerConfig, DataFlowerEngine};
//! use dataflower_cluster::{run_to_idle, TestbedConfig, SpreadPlacement, World};
//! use dataflower_sim::SimTime;
//! use dataflower_workflow::{SizeModel, WorkModel, WorkflowBuilder, MB};
//!
//! // A fan-out/fan-in workflow: start → {count×2} → merge.
//! let mut b = WorkflowBuilder::new("wordcount");
//! let start = b.function("start", WorkModel::fixed(0.01));
//! let merge = b.function("merge", WorkModel::fixed(0.01));
//! b.client_input(start, "text", SizeModel::Fixed(2.0 * MB));
//! for i in 0..2 {
//!     let count = b.function(format!("count_{i}"), WorkModel::new(0.0, 0.02));
//!     b.edge(start, count, "file", SizeModel::ScaleOfInput(0.5));
//!     b.edge(count, merge, "counts", SizeModel::ScaleOfInput(0.1));
//! }
//! b.client_output(merge, "result", SizeModel::Fixed(1024.0));
//! let wf = Arc::new(b.build()?);
//!
//! let mut world = World::new(TestbedConfig::default());
//! let id = world.add_workflow(wf);
//! world.submit_request(id, 2.0 * MB, SimTime::ZERO);
//!
//! let mut engine = DataFlowerEngine::new(DataFlowerConfig::default(), SpreadPlacement);
//! let report = run_to_idle(&mut world, &mut engine);
//! assert_eq!(report.primary().completed, 1);
//! assert!(report.primary().latency.mean() > 0.0);
//! # Ok::<(), dataflower_workflow::WorkflowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod pipe;
mod pressure;
mod sink;

pub use config::DataFlowerConfig;
pub use engine::{DataFlowerEngine, DecisionEvent, FaultEvent};
pub use pipe::{choose_pipe, CheckpointSchedule, PipeKind};
pub use pressure::{pressure_secs, RunningAvg};
pub use sink::{SinkEntry, Tier, WaitMatchMemory};
