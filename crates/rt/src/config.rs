//! The runtime's configuration: one plain record.
//!
//! [`ClusterConfig`] is what [`ClusterRuntimeBuilder::config`] and
//! [`TcpCluster::launch`] take and what the runtime reads — there is no
//! second spelling. Every field is `pub` and has a default; the four
//! aspects with more than one number of their own stay records of their
//! own ([`LinkConfig`], [`AutoscaleConfig`], [`FaultPlan`],
//! [`AdmissionConfig`]). Set fields with struct-update syntax or with the
//! chaining setters below (one per field a non-test caller sets):
//!
//! ```
//! use std::time::Duration;
//! use dataflower_rt::{AutoscaleConfig, ClusterConfig};
//!
//! let cfg = ClusterConfig {
//!     autoscale: AutoscaleConfig { enabled: true, ..AutoscaleConfig::default() },
//!     ..ClusterConfig::new()
//!         .chunk_bytes(16 * 1024)
//!         .recovery(Duration::from_millis(50))
//!         .heartbeat(Duration::from_millis(10), 3)
//! };
//! assert!(cfg.orchestrator && cfg.recovery.is_some());
//! ```
//!
//! A worker process of a TCP cluster rebuilds its record from the launch
//! tag, so the coordinator's and the workers' configs are two values of
//! this one type and can be compared with `==`.
//!
//! [`ClusterRuntimeBuilder::config`]: crate::ClusterRuntimeBuilder::config
//! [`TcpCluster::launch`]: crate::TcpCluster::launch

use std::time::Duration;

use crate::admission::AdmissionConfig;
use crate::autoscale::AutoscaleConfig;
use crate::fabric::LinkConfig;
use crate::fault::FaultPlan;

/// Every knob of a [`ClusterRuntime`](crate::ClusterRuntime), in-process
/// or over TCP. See ARCHITECTURE.md § Configuration for which caller sets
/// which field.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Capacity of each node's DLU queue; a full queue blocks `put`
    /// (backpressure, Fig. 6a). A value of 0 is treated as 1 (single-slot
    /// buffer, the strictest backpressure the in-tree channel supports).
    pub dlu_queue_capacity: usize,
    /// Passive-expire TTL for unconsumed sink entries (`None` disables
    /// the janitor).
    pub sink_ttl: Option<Duration>,
    /// Payloads strictly under this many bytes bypass the pipe connector
    /// and use the direct socket (§7's 16 KiB rule).
    pub direct_threshold_bytes: usize,
    /// Chunk size of the streaming remote pipe connector (positive).
    pub chunk_bytes: usize,
    /// Checkpoint-mark interval of the remote pipe stream (§6.2;
    /// positive).
    pub checkpoint_interval_bytes: usize,
    /// Shaping applied to every inter-node link.
    pub link: LinkConfig,
    /// Elastic, pressure-driven scaling of the FLU executor pools
    /// (disabled by default — pools stay at their configured size).
    pub autoscale: AutoscaleConfig,
    /// Deterministic fault injection ([`FaultPlan`]); the default plan
    /// is a no-op and costs the data plane nothing.
    pub faults: FaultPlan,
    /// Checkpoint-based crash recovery (§6.2): `Some(retransmit timeout)`
    /// turns it on, `None` (the default) runs none of its bookkeeping —
    /// and a node crash or dropped frame loses data.
    ///
    /// When on, every cross-node frame is retained on the sender (as a
    /// refcounted [`Bytes`](crate::Bytes) view — zero-copy) until the
    /// destination acknowledges it: whole frames ack on delivery, chunked
    /// streams ack each checkpoint mark their contiguous prefix crosses,
    /// trimming the retention window to at most one checkpoint interval
    /// plus the link's in-flight frames. A crashed-and-restarted node
    /// gets every incomplete transfer replayed from its last acknowledged
    /// mark, and a recovery daemon retransmits the un-acked frames of a
    /// transfer that saw no send or ack for the timeout (lost frames).
    pub recovery: Option<Duration>,
    /// Runs the orchestrator control plane (the ε-CON analog): per-node
    /// keep-alive heartbeats, node-loss detection after
    /// `heartbeat_miss_threshold` missed beats, and automatic relocation
    /// of a lost node's functions to the least-pressured survivors.
    /// Disabled by default; relocating mid-stream transfers additionally
    /// needs `recovery`.
    pub orchestrator: bool,
    /// Interval between keep-alive heartbeats (and between the
    /// controller's liveness checks); positive when `orchestrator` is on.
    pub heartbeat_interval: Duration,
    /// Consecutive missed beats before the controller declares a node
    /// dead and relocates its functions.
    pub heartbeat_miss_threshold: u32,
    /// Per-tenant admission caps enforced by
    /// [`ClusterRuntime::try_invoke`](crate::ClusterRuntime::try_invoke)
    /// (the all-zero default admits everything; plain `invoke` always
    /// bypasses the gate).
    pub admission: AdmissionConfig,
}

impl Default for ClusterConfig {
    /// A 64-message DLU queue, 30 s sink TTL, 16 KiB direct threshold,
    /// 64 KiB chunks, 256 KiB checkpoint interval, unshaped links,
    /// autoscaling off, no faults, recovery off, orchestrator off (20 ms
    /// heartbeats, 3 missed beats when enabled), no admission caps.
    fn default() -> Self {
        ClusterConfig {
            dlu_queue_capacity: 64,
            sink_ttl: Some(Duration::from_secs(30)),
            direct_threshold_bytes: 16 * 1024,
            chunk_bytes: 64 * 1024,
            checkpoint_interval_bytes: 256 * 1024,
            link: LinkConfig::default(),
            autoscale: AutoscaleConfig::default(),
            faults: FaultPlan::default(),
            recovery: None,
            orchestrator: false,
            heartbeat_interval: Duration::from_millis(20),
            heartbeat_miss_threshold: 3,
            admission: AdmissionConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// The defaults ([`ClusterConfig::default`]).
    pub fn new() -> ClusterConfig {
        ClusterConfig::default()
    }

    /// Sets [`ClusterConfig::direct_threshold_bytes`].
    pub fn direct_threshold_bytes(mut self, bytes: usize) -> ClusterConfig {
        self.direct_threshold_bytes = bytes;
        self
    }

    /// Sets [`ClusterConfig::chunk_bytes`].
    pub fn chunk_bytes(mut self, bytes: usize) -> ClusterConfig {
        self.chunk_bytes = bytes;
        self
    }

    /// Sets [`ClusterConfig::checkpoint_interval_bytes`].
    pub fn checkpoint_interval_bytes(mut self, bytes: usize) -> ClusterConfig {
        self.checkpoint_interval_bytes = bytes;
        self
    }

    /// Sets [`ClusterConfig::link`].
    pub fn link(mut self, link: LinkConfig) -> ClusterConfig {
        self.link = link;
        self
    }

    /// Enables §6.2 checkpoint recovery with the given retransmit
    /// timeout ([`ClusterConfig::recovery`]).
    pub fn recovery(mut self, retransmit_timeout: Duration) -> ClusterConfig {
        self.recovery = Some(retransmit_timeout);
        self
    }

    /// Enables the orchestrator control plane: keep-alive heartbeats
    /// every `interval`, node-loss declaration after `miss_threshold`
    /// consecutive missed beats. Pair with [`ClusterConfig::recovery`]
    /// so mid-stream transfers survive the move.
    pub fn heartbeat(mut self, interval: Duration, miss_threshold: u32) -> ClusterConfig {
        self.orchestrator = true;
        self.heartbeat_interval = interval;
        self.heartbeat_miss_threshold = miss_threshold;
        self
    }

    /// Returns `self`. Kept only because `benchmark/src/sut.rs` calls it
    /// and `benchmark/**` is frozen outside `[benchmark]` PRs; the next
    /// one drops the call and this method (ROADMAP item 1(b)).
    pub fn build(self) -> ClusterConfig {
        self
    }

    /// Checks the record against a topology of `nodes` worker nodes;
    /// the error names the offending field.
    /// [`ClusterRuntimeBuilder::start`](crate::ClusterRuntimeBuilder::start)
    /// returns it as [`RtError::InvalidConfig`](crate::RtError::InvalidConfig).
    pub(crate) fn validate(&self, nodes: usize) -> Result<(), String> {
        if self.chunk_bytes == 0 {
            return Err("chunk_bytes must be positive".into());
        }
        if self.checkpoint_interval_bytes == 0 {
            return Err("checkpoint_interval_bytes must be positive".into());
        }
        self.autoscale.validate()?;
        self.faults.validate()?;
        if let Some(kill) = self.faults.kills.iter().find(|k| k.node >= nodes) {
            return Err(format!(
                "faults.kills names node {}, but the topology has {nodes} node(s)",
                kill.node
            ));
        }
        // The controller and the heartbeat responders sleep one interval
        // per round; a zero interval is a busy loop.
        if self.orchestrator && self.heartbeat_interval.is_zero() {
            return Err("heartbeat_interval must be positive with the orchestrator on".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each setter changes exactly the field(s) it names.
    #[test]
    fn setters_change_only_their_fields() {
        let d = ClusterConfig::default;
        let ms = Duration::from_millis;
        let link = LinkConfig {
            latency: ms(2),
            ..LinkConfig::default()
        };
        let cases: [(&str, ClusterConfig, ClusterConfig); 8] = [
            ("new", ClusterConfig::new(), d()),
            ("build", ClusterConfig::new().build(), d()),
            (
                "direct_threshold_bytes",
                d().direct_threshold_bytes(1),
                ClusterConfig {
                    direct_threshold_bytes: 1,
                    ..d()
                },
            ),
            (
                "chunk_bytes",
                d().chunk_bytes(4096),
                ClusterConfig {
                    chunk_bytes: 4096,
                    ..d()
                },
            ),
            (
                "checkpoint_interval_bytes",
                d().checkpoint_interval_bytes(8192),
                ClusterConfig {
                    checkpoint_interval_bytes: 8192,
                    ..d()
                },
            ),
            (
                "link",
                d().link(link.clone()),
                ClusterConfig { link, ..d() },
            ),
            (
                "recovery",
                d().recovery(ms(40)),
                ClusterConfig {
                    recovery: Some(ms(40)),
                    ..d()
                },
            ),
            (
                "heartbeat",
                d().heartbeat(ms(10), 2),
                ClusterConfig {
                    orchestrator: true,
                    heartbeat_interval: ms(10),
                    heartbeat_miss_threshold: 2,
                    ..d()
                },
            ),
        ];
        for (setter, got, want) in cases {
            assert_eq!(got, want, "{setter}");
        }
    }
}
