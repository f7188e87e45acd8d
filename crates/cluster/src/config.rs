//! Cluster, node, container and storage configuration.
//!
//! Defaults follow the paper's testbed (§9.1): three 16-core/64 GB worker
//! nodes, one backend storage node, and containers whose CPU share and
//! network bandwidth scale linearly with their memory size — 0.1 core and
//! 40 Mbps per 128 MB.

use dataflower_sim::SimDuration;

/// Resource specification of a function container.
///
/// # Examples
///
/// ```
/// use dataflower_cluster::ContainerSpec;
///
/// let c = ContainerSpec::with_memory_mb(256);
/// assert!((c.cores() - 0.2).abs() < 1e-12);
/// assert!((c.bandwidth_bytes_per_sec() - 2.0 * 40e6 / 8.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContainerSpec {
    /// Container memory, MB. CPU and bandwidth derive from this (§9.1).
    pub memory_mb: u32,
}

impl ContainerSpec {
    /// Creates a spec with the given memory size.
    ///
    /// # Panics
    ///
    /// Panics if `memory_mb` is zero.
    pub fn with_memory_mb(memory_mb: u32) -> Self {
        assert!(memory_mb > 0, "container memory must be positive");
        ContainerSpec { memory_mb }
    }

    /// CPU share: 0.1 core per 128 MB.
    pub fn cores(&self) -> f64 {
        self.memory_mb as f64 / 128.0 * 0.1
    }

    /// Network bandwidth: 40 Mbps per 128 MB, in bytes per second.
    pub fn bandwidth_bytes_per_sec(&self) -> f64 {
        self.memory_mb as f64 / 128.0 * 40e6 / 8.0
    }

    /// Container memory in GB (for GB·s cost accounting).
    pub fn memory_gb(&self) -> f64 {
        self.memory_mb as f64 / 1024.0
    }
}

impl Default for ContainerSpec {
    /// The paper's baseline 128 MB container.
    fn default() -> Self {
        ContainerSpec { memory_mb: 128 }
    }
}

/// Resource capacity of a worker node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Physical cores.
    pub cores: f64,
    /// Physical memory, MB.
    pub memory_mb: f64,
    /// NIC bandwidth in bytes per second (each direction).
    pub nic_bytes_per_sec: f64,
    /// Intra-node data path bandwidth (local pipe / shared memory).
    pub loopback_bytes_per_sec: f64,
    /// Local VM-storage (SSD) bandwidth, shared by all disk traffic on
    /// the node (the paper's 200 GB / 3000 IOPS SSD; SONIC's data path).
    pub disk_bytes_per_sec: f64,
}

impl Default for NodeSpec {
    /// A worker node per §9.1: 16 cores, 64 GB, 10 Gbps NIC, fast local
    /// path, SSD-class local storage.
    fn default() -> Self {
        NodeSpec {
            cores: 16.0,
            memory_mb: 64.0 * 1024.0,
            nic_bytes_per_sec: 10e9 / 8.0,
            loopback_bytes_per_sec: 2e9,
            disk_bytes_per_sec: 18e6,
        }
    }
}

/// Backend storage node model (CouchDB in the paper's control-flow
/// setups; the Kafka broker node for DataFlower's cross-node pipes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageSpec {
    /// Effective backend-storage service rate in bytes per second (each
    /// direction). Shared by all concurrent Get/Put traffic — the
    /// contention source of §3.2.1.
    pub nic_bytes_per_sec: f64,
    /// Fixed per-operation access latency (request handling, indexing).
    pub op_latency: SimDuration,
    /// Effective throughput of the Kafka broker that replaces the backend
    /// store for DataFlower's cross-node pipe connectors (§8). Kafka is a
    /// streaming log, an order of magnitude faster than the document
    /// store, but still finite.
    pub broker_bytes_per_sec: f64,
}

impl Default for StorageSpec {
    /// CouchDB-class effective service rate: the document store serves
    /// REST attachments far below NIC line rate, which is exactly the
    /// "limited I/O performance" contention source of §3.2.1.
    fn default() -> Self {
        StorageSpec {
            nic_bytes_per_sec: 40e6,
            op_latency: SimDuration::from_millis(4),
            broker_bytes_per_sec: 150e6,
        }
    }
}

/// The simulated §9.1 testbed: worker nodes, the storage node and the
/// cold-start model. (The live runtime's knobs are
/// `dataflower_rt::ClusterConfig`.)
#[derive(Debug, Clone, PartialEq)]
pub struct TestbedConfig {
    /// Worker nodes (3 in the paper).
    pub workers: Vec<NodeSpec>,
    /// Backend storage node.
    pub storage: StorageSpec,
    /// Container cold start time (image pull cached; namespace + runtime +
    /// user env setup).
    pub cold_start: SimDuration,
    /// Keep-alive window before an idle container is recycled (§8: 15 min).
    pub keep_alive: SimDuration,
    /// Pipe/connector establishment latency for direct data passing.
    pub pipe_setup_latency: SimDuration,
    /// Latency of the ≤16 KiB direct-socket path (§7).
    pub direct_latency: SimDuration,
    /// Threshold below which the DLU bypasses the pipe connector (§7).
    pub direct_threshold_bytes: f64,
    /// Multiplicative jitter spread applied to compute times.
    pub compute_jitter: f64,
    /// Multiplicative jitter spread applied to cold starts.
    pub cold_start_jitter: f64,
    /// Record per-event usage samples (Fig. 2b) — costs memory.
    pub trace_usage: bool,
    /// Record per-function trigger timestamps (Fig. 2c / Fig. 13).
    pub trace_triggers: bool,
    /// RNG seed for the whole run.
    pub seed: u64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            workers: vec![NodeSpec::default(); 3],
            storage: StorageSpec::default(),
            cold_start: SimDuration::from_millis(350),
            keep_alive: SimDuration::from_secs(15 * 60),
            pipe_setup_latency: SimDuration::from_millis(2),
            direct_latency: SimDuration::from_millis(1),
            direct_threshold_bytes: 16.0 * 1024.0,
            compute_jitter: 0.04,
            cold_start_jitter: 0.15,
            trace_usage: false,
            trace_triggers: false,
            seed: 0xDA7A_F10E,
        }
    }
}

impl TestbedConfig {
    /// A single-worker configuration (used by the Fig. 13 single-node
    /// experiment).
    pub fn single_node() -> Self {
        TestbedConfig {
            workers: vec![NodeSpec::default()],
            ..TestbedConfig::default()
        }
    }

    /// Sets the seed (builder-style convenience).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_spec_scales_linearly() {
        let base = ContainerSpec::default();
        let big = ContainerSpec::with_memory_mb(640);
        assert!((big.cores() / base.cores() - 5.0).abs() < 1e-12);
        assert!(
            (big.bandwidth_bytes_per_sec() / base.bandwidth_bytes_per_sec() - 5.0).abs() < 1e-12
        );
        assert!((base.memory_gb() - 0.125).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_memory_rejected() {
        ContainerSpec::with_memory_mb(0);
    }

    #[test]
    fn default_cluster_matches_paper_shape() {
        let c = TestbedConfig::default();
        assert_eq!(c.workers.len(), 3);
        assert_eq!(c.keep_alive, SimDuration::from_secs(900));
        assert_eq!(c.direct_threshold_bytes, 16384.0);
        assert_eq!(TestbedConfig::single_node().workers.len(), 1);
    }
}
