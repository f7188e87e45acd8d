//! Experiment runners shared by the figure harness, the examples and the
//! integration tests.

use std::sync::Arc;

use dataflower_cluster::{run, ContainerSpec, RunReport, TestbedConfig, World};
use dataflower_sim::{SimDuration, SimTime};
use dataflower_workflow::Workflow;

use crate::system::SystemKind;

/// A fully specified experiment: cluster, container spec, system, and the
/// workloads to apply.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Cluster layout and timing constants.
    pub cluster: TestbedConfig,
    /// Container spec handed to the engine (Fig. 17 varies this).
    pub container_spec: ContainerSpec,
    /// Margin after the load window before the run is cut off (lets
    /// in-flight requests drain; unfinished ones count as timeouts).
    pub drain: SimDuration,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            cluster: TestbedConfig::default(),
            container_spec: ContainerSpec::default(),
            drain: SimDuration::from_secs(120),
        }
    }
}

impl Scenario {
    /// Scenario with a specific RNG seed.
    pub fn seeded(seed: u64) -> Self {
        Scenario {
            cluster: TestbedConfig::default().with_seed(seed),
            ..Scenario::default()
        }
    }

    /// Runs `system` under an **open-loop** (asynchronous) Poisson load of
    /// `rpm` requests/minute for `duration_secs`, then lets the cluster
    /// drain (§9.1's asynchronous invocation pattern).
    pub fn open_loop(
        &self,
        system: SystemKind,
        wf: Arc<Workflow>,
        payload: f64,
        rpm: f64,
        duration_secs: u64,
    ) -> RunReport {
        let mut world = World::new(self.cluster.clone());
        let id = world.add_workflow(wf);
        world.schedule_open_loop(id, payload, rpm, SimDuration::from_secs(duration_secs));
        let mut engine = system.engine_with_spec(self.container_spec);
        let deadline = SimTime::from_secs(duration_secs) + self.drain;
        run(&mut world, &mut *engine, deadline)
    }

    /// Runs `system` under a **closed-loop** (synchronous) load of
    /// `clients` concurrent clients for `horizon_secs` (§9.1's
    /// synchronous invocation pattern; throughput comes from the report).
    pub fn closed_loop(
        &self,
        system: SystemKind,
        wf: Arc<Workflow>,
        payload: f64,
        clients: usize,
        horizon_secs: u64,
    ) -> RunReport {
        let mut world = World::new(self.cluster.clone());
        let id = world.add_workflow(wf);
        world.spawn_clients(id, payload, clients);
        let mut engine = system.engine_with_spec(self.container_spec);
        run(&mut world, &mut *engine, SimTime::from_secs(horizon_secs))
    }

    /// Runs several workflows side by side, each with its own open-loop
    /// rate (the Fig. 18 co-location setup). `loads` pairs each workflow
    /// with `(payload, rpm)`.
    pub fn colocated(
        &self,
        system: SystemKind,
        loads: &[(Arc<Workflow>, f64, f64)],
        duration_secs: u64,
    ) -> RunReport {
        let mut world = World::new(self.cluster.clone());
        for (wf, payload, rpm) in loads {
            let id = world.add_workflow(Arc::clone(wf));
            world.schedule_open_loop(id, *payload, *rpm, SimDuration::from_secs(duration_secs));
        }
        let mut engine = system.engine_with_spec(self.container_spec);
        let deadline = SimTime::from_secs(duration_secs) + self.drain;
        run(&mut world, &mut *engine, deadline)
    }

    /// The Fig. 15 bursty pattern: `base_rpm` for the first minute, then a
    /// sudden jump to `burst_rpm` for the second minute (110 requests at
    /// the paper's 10→100 rpm operating point).
    pub fn bursty(
        &self,
        system: SystemKind,
        wf: Arc<Workflow>,
        payload: f64,
        base_rpm: f64,
        burst_rpm: f64,
    ) -> RunReport {
        let mut world = World::new(self.cluster.clone());
        let id = world.add_workflow(wf);
        schedule_window(&mut world, id, payload, base_rpm, 0.0, 60.0);
        schedule_window(&mut world, id, payload, burst_rpm, 60.0, 60.0);
        let mut engine = system.engine_with_spec(self.container_spec);
        let deadline = SimTime::from_secs(120) + self.drain;
        run(&mut world, &mut *engine, deadline)
    }
}

/// Schedules a Poisson arrival window starting at `start_s` lasting
/// `dur_s` seconds.
fn schedule_window(
    world: &mut World,
    id: dataflower_cluster::WfId,
    payload: f64,
    rpm: f64,
    start_s: f64,
    dur_s: f64,
) {
    assert!(rpm > 0.0);
    let mut t = start_s;
    loop {
        t += world.rng().exp(60.0 / rpm);
        if t >= start_s + dur_s {
            break;
        }
        world.submit_request(id, payload, SimTime::from_micros((t * 1e6) as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;

    #[test]
    fn open_loop_all_systems_complete_wc() {
        let s = Scenario::seeded(11);
        for sys in SystemKind::HEADLINE {
            let r = s.open_loop(
                sys,
                Benchmark::Wc.workflow(),
                Benchmark::Wc.default_payload(),
                20.0,
                30,
            );
            assert!(r.primary().completed > 0, "{sys} completed none");
            assert_eq!(r.primary().unfinished, 0, "{sys} timed out");
        }
    }

    #[test]
    fn closed_loop_produces_throughput() {
        let s = Scenario::seeded(12);
        let r = s.closed_loop(
            SystemKind::DataFlower,
            Benchmark::Wc.workflow(),
            Benchmark::Wc.default_payload(),
            2,
            60,
        );
        assert!(r.primary().throughput_rpm > 0.0);
    }

    #[test]
    fn colocated_reports_all_workflows() {
        let s = Scenario::seeded(13);
        let loads: Vec<_> = [Benchmark::Img, Benchmark::Wc]
            .iter()
            .map(|b| (b.workflow(), b.default_payload(), 6.0))
            .collect();
        let r = s.colocated(SystemKind::DataFlower, &loads, 30);
        assert_eq!(r.per_workflow.len(), 2);
        assert!(r.workflow("img").is_some());
        assert!(r.workflow("wc").is_some());
    }

    #[test]
    fn bursty_issues_roughly_110_requests() {
        let s = Scenario::seeded(14);
        let r = s.bursty(
            SystemKind::DataFlower,
            Benchmark::Wc.workflow(),
            Benchmark::Wc.default_payload(),
            10.0,
            100.0,
        );
        let total = r.primary().completed + r.primary().unfinished;
        assert!((80..=150).contains(&total), "total={total}");
    }
}
