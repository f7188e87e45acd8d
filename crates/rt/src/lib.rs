//! # dataflower-rt
//!
//! A **live, multi-threaded, multi-node implementation of the FLU/DLU
//! programming model** — the same execution model the simulated engine
//! reproduces, but with real threads, real bytes and real channels. It
//! demonstrates that the paper's programming model (Fig. 5a) and worker
//! topology (Fig. 4) are directly expressible:
//!
//! * function bodies are plain Rust closures receiving a [`FluContext`];
//!   invocations run as tasks on a per-node **scheduler**
//!   ([`NodeScheduler`]: one shared queue, worker threads spawned
//!   lazily, one per active executor slot);
//! * `ctx.put(...)` hands data to the hosting node's **DLU daemon
//!   thread** mid-function; transfers overlap the rest of the
//!   computation;
//! * downstream functions trigger on **data availability** — when the
//!   last input lands in the hosting node's data sink (a lock-striped
//!   [`ShardedSink`], so concurrent requests never contend on one
//!   node-wide mutex), not when a controller says so;
//! * a [`ClusterRuntime`] runs one [`NodeRuntime`] per simulated worker
//!   node; a [`Placement`] maps functions to nodes, and every
//!   inter-function transfer is classified through the paper's §7
//!   three-way pipe choice — direct socket under 16 KiB, node-local pipe
//!   when co-located, chunked streaming remote pipe (with §6.2
//!   checkpoint marks) across nodes;
//! * cross-node traffic rides an in-process fabric of per-link bounded
//!   queues ([`channel::bounded`]) with optional bandwidth/latency
//!   shaping ([`LinkConfig`]);
//! * bounded DLU queues exert genuine backpressure on over-producing
//!   functions (Fig. 6a);
//! * unconsumed sink entries passively expire via a runtime-wide
//!   janitor;
//! * with [`AutoscaleConfig`] enabled, a runtime-wide autoscaler
//!   samples each function's DLU backlog, converts it into Eq. 1
//!   pressure-seconds, and elastically grows/shrinks each node's
//!   *active executor-slot window* between configurable bounds
//!   (scale-out past the threshold, cool-down-guarded scale-in once
//!   drained) — the paper's pressure-aware scaling, §5.2 — without
//!   spawning or killing threads;
//! * with [`ClusterConfig::recovery()`] on, the runtime is fault tolerant per
//!   §6.2: senders retain zero-copy views of un-acked frames, chunked
//!   streams acknowledge checkpoint marks, and a crashed node
//!   ([`ClusterRuntime::crash_node`], or a seeded [`FaultPlan`] kill)
//!   restarts with every incomplete transfer replayed from its last
//!   acknowledged mark — `wait` returns byte-identical outputs across a
//!   single-node crash.
//!
//! Everything above that can be tuned is a field of one plain record,
//! [`ClusterConfig`] — what [`ClusterRuntimeBuilder::config`] and
//! [`TcpCluster::launch`] take; a value the runtime cannot start with
//! comes back from `start` as [`RtError::InvalidConfig`].
//!
//! The workflow *definition* is shared with the simulator
//! ([`dataflower_workflow`]), so one definition drives both the
//! evaluation figures and real execution — single-node, co-located or
//! spread, by swapping the [`Placement`].
//!
//! When the in-process fabric is not enough — kill-9 fault tolerance,
//! real serialization costs — the [`transport`] module promotes every
//! directed link to a real TCP socket speaking the versioned [`wire`]
//! frame format, with one OS process per node ([`TcpCluster`]) and the
//! same §6.2 retention/ack protocol carried as explicit ack frames. The
//! in-process fabric remains the default and the fast path.
//!
//! See [`ClusterRuntimeBuilder`] for a complete runnable example (one
//! node unless a [`Placement`] says otherwise),
//! `examples/multinode_live.rs` for the paper benchmarks on a three-node
//! topology, and `examples/checkpoint_recovery.rs` for a crash mid-
//! transfer healed from the checkpoint marks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod autoscale;
mod bytes;
pub mod channel;
mod config;
mod context;
mod error;
pub mod fabric;
pub mod fault;
mod node;
mod orchestrator;
mod runtime;
pub mod sched;
pub mod sink;
pub mod trace;
pub mod transport;
pub mod wire;

pub use admission::{AdmissionConfig, AdmissionGate, Rejected, TenantStats};
pub use autoscale::{AutoscaleConfig, ScaleDirection, ScaleEvent, ScalePolicy};
pub use bytes::Bytes;
pub use config::ClusterConfig;
pub use context::{FluContext, PutTarget};
pub use error::RtError;
pub use fabric::{chunk_spans, LinkConfig, Reassembler};
pub use fault::{FaultPlan, FrameFate, NodeKill};
pub use node::{
    ByLevel, LoadAware, NodeRuntime, Placement, PlacementPolicy, RoundRobin, SingleNode,
};
pub use runtime::{ClusterRuntime, ClusterRuntimeBuilder, CrashReport, ReqId, RtStats};
pub use sched::NodeScheduler;
pub use sink::ShardedSink;
pub use trace::{
    diff, replay, Divergence, EventKind, TraceDecoder, TraceError, TraceEvent, TraceRecorder,
};
pub use transport::{worker_env, TcpCluster, WorkerEnv};
pub use wire::{Decoder, Frame, WireError};
