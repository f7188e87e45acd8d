//! Figure 12 (pressure-aware scaling ablation) and Figure 13 (function
//! triggering timeline on one node).

use dataflower::{DataFlowerConfig, DataFlowerEngine};
use dataflower_baselines::{ControlFlowConfig, ControlFlowEngine};
use dataflower_cluster::{
    run_to_idle, Orchestrator, RequestId, SingleNodePlacement, TestbedConfig, TriggerKind, World,
};
use dataflower_metrics::{fmt_f, Table};
use dataflower_sim::SimTime;
use dataflower_workloads::{Benchmark, Scenario, SystemKind};

use crate::common::header;

/// Fig. 12: closed-loop throughput of DataFlower vs the Non-aware
/// ablation. Paper: similar for img (small intermediate data); large
/// drops for vid/svd/wc without pressure awareness.
pub fn fig12() -> String {
    let mut out = header(
        "Fig 12",
        "pressure-aware scaling ablation: throughput (rpm) vs clients",
    );
    for b in Benchmark::ALL {
        out.push_str(&format!("{}:\n", b.name()));
        let mut t = Table::new(vec!["clients", "DataFlower", "DataFlower-Non-aware"]);
        for &clients in b.fig11_clients() {
            let mut cells = vec![clients.to_string()];
            for sys in [SystemKind::DataFlower, SystemKind::DataFlowerNonAware] {
                let scenario = Scenario::seeded(300 + clients as u64);
                let report =
                    scenario.closed_loop(sys, b.workflow(), b.default_payload(), clients, 180);
                cells.push(fmt_f(report.primary().throughput_rpm, 1));
            }
            t.row(cells);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Fig. 13: triggering timeline of the wc functions when everything runs
/// on a single node (communication via local memory). Paper: DataFlower
/// triggers `count` before `start` completes and `merge` 2 ms after
/// `count`; FaaSFlow lags by 15/6 ms; SONIC far more.
pub fn fig13() -> String {
    let mut out = header(
        "Fig 13",
        "wc triggering timeline on one node (seconds relative to warm request arrival)",
    );
    // The paper's timeline experiment runs in the tens of milliseconds,
    // i.e. with intermediate data small enough for the ≤16 KiB
    // direct-socket path; a 48 KB text (12 KB per count branch) puts the
    // reproduction in the same regime.
    let wc_input_mb = 48.0 / 1024.0;
    type EngineFactory = Box<dyn FnOnce(&mut World) -> Box<dyn Orchestrator>>;
    let systems: Vec<(&str, EngineFactory)> = vec![
        (
            "DataFlower",
            Box::new(|_w: &mut World| {
                Box::new(DataFlowerEngine::new(
                    DataFlowerConfig::default(),
                    SingleNodePlacement::default(),
                )) as Box<dyn Orchestrator>
            }),
        ),
        (
            "FaaSFlow",
            Box::new(|_w: &mut World| {
                Box::new(ControlFlowEngine::new(
                    ControlFlowConfig::faasflow(),
                    SingleNodePlacement::default(),
                )) as Box<dyn Orchestrator>
            }),
        ),
        (
            "SONIC",
            Box::new(|_w: &mut World| {
                Box::new(ControlFlowEngine::new(
                    ControlFlowConfig::sonic(),
                    SingleNodePlacement::default(),
                )) as Box<dyn Orchestrator>
            }),
        ),
    ];
    for (label, make) in systems {
        let mut cluster = TestbedConfig::single_node().with_seed(5);
        cluster.trace_triggers = true;
        let mut world = World::new(cluster);
        let wf = dataflower_workloads::wordcount(dataflower_workloads::WcParams {
            fan_out: 4,
            input_mb: wc_input_mb,
        });
        let id = world.add_workflow(std::sync::Arc::clone(&wf));
        let payload = wc_input_mb * 1024.0 * 1024.0;
        // First request warms the containers; the second is measured.
        world.submit_request(id, payload, SimTime::ZERO);
        world.submit_request(id, payload, SimTime::from_secs(30));
        let mut engine = make(&mut world);
        run_to_idle(&mut world, &mut *engine);

        let warm_req = RequestId::from_index(1);
        let arrival = world.request(warm_req).arrived;
        out.push_str(&format!("{label}:\n"));
        let mut t = Table::new(vec!["function", "started (s)", "finished (s)"]);
        let interesting = ["wc_start", "wc_count_0", "wc_merge"];
        for name in interesting {
            let f = wf.function_by_name(name).expect("wc function");
            let mut started = None;
            let mut finished = None;
            for (ts, rec) in world.trigger_trace().iter() {
                if rec.req == warm_req && rec.func == f {
                    match rec.kind {
                        TriggerKind::Started if started.is_none() => started = Some(*ts),
                        TriggerKind::Finished => finished = Some(*ts),
                        _ => {}
                    }
                }
            }
            t.row(vec![
                name.into(),
                started
                    .map(|s| fmt_f(s.duration_since(arrival).as_secs_f64(), 3))
                    .unwrap_or_else(|| "-".into()),
                finished
                    .map(|s| fmt_f(s.duration_since(arrival).as_secs_f64(), 3))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}
