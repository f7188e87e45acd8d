//! Figure 18 (co-locating all four benchmarks) and Figure 19 (stateful
//! state-machine communication vs DataFlower streaming).

use dataflower::{DataFlowerConfig, DataFlowerEngine};
use dataflower_baselines::{ControlFlowConfig, ControlFlowEngine};
use dataflower_cluster::{run_to_idle, SpreadPlacement, TestbedConfig, World};
use dataflower_metrics::{fmt_f, Table};
use dataflower_sim::SimTime;
use dataflower_workloads::{Benchmark, Scenario, SystemKind};

use crate::common::{header, latency_cell};

/// Per-benchmark base open-loop rates (rpm) for the co-location levels.
fn base_rates() -> [(Benchmark, f64); 4] {
    [
        (Benchmark::Img, 12.0),
        (Benchmark::Vid, 4.0),
        (Benchmark::Svd, 8.0),
        (Benchmark::Wc, 40.0),
    ]
}

/// Fig. 18: all four benchmarks co-run on the three worker nodes at
/// increasing load. Paper: DataFlower is the fastest in every case;
/// FaaSFlow and SONIC fail at "Ultra"; no benchmark degrades more than
/// 2× under DataFlower.
pub fn fig18() -> String {
    let mut out = header(
        "Fig 18",
        "co-located benchmarks: mean/p99 latency (s) per load level",
    );
    let levels: [(&str, f64); 4] = [("Low", 1.0), ("Mid", 2.0), ("High", 3.0), ("Ultra", 5.0)];
    for sys in SystemKind::HEADLINE {
        out.push_str(&format!("{}:\n", sys.label()));
        let mut t = Table::new(vec!["level", "img", "vid", "svd", "wc"]);
        // Solo: each benchmark alone at its base rate.
        let mut solo_cells = vec!["Solo".to_owned()];
        for (b, rpm) in base_rates() {
            let scenario = Scenario::seeded(800);
            let report = scenario.open_loop(sys, b.workflow(), b.default_payload(), rpm, 60);
            solo_cells.push(latency_cell(report.primary()));
        }
        t.row(solo_cells);
        for (label, mult) in levels {
            let scenario = Scenario::seeded(801);
            let loads: Vec<_> = base_rates()
                .iter()
                .map(|(b, rpm)| (b.workflow(), b.default_payload(), rpm * mult))
                .collect();
            let report = scenario.colocated(sys, &loads, 60);
            let mut cells = vec![label.to_owned()];
            for (b, _) in base_rates() {
                cells.push(latency_cell(
                    report.workflow(b.name()).expect("benchmark present"),
                ));
            }
            t.row(cells);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Fig. 19: function-to-function communication time with a traditional
/// state machine (stateful functions, unlimited context cache) vs
/// DataFlower's streaming pipe connectors. Paper: up to 47.6 % lower with
/// DataFlower.
pub fn fig19() -> String {
    let mut out = header(
        "Fig 19",
        "stateful data-plane time per request (ms): state machine vs DataFlower",
    );
    // Compared quantity: total data-plane time spent moving intermediate
    // data, per request. The state machine pays the double transfer
    // (function → state machine → function); DataFlower streams once
    // through a pipe connector.
    let mut t = Table::new(vec!["benchmark", "StateMachine", "DataFlower", "reduction"]);
    for b in Benchmark::ALL {
        // State machine deployment.
        let mut world = World::new(TestbedConfig::default().with_seed(6));
        let id = world.add_workflow(b.workflow());
        for i in 0..3 {
            world.submit_request(id, b.default_payload(), SimTime::from_secs(40 * i));
        }
        let mut sm = ControlFlowEngine::new(ControlFlowConfig::state_machine(), SpreadPlacement);
        let sm_report = run_to_idle(&mut world, &mut sm);
        let (sm_mean, sm_ops) = sm.comm_time();
        let sm_per_req = sm_mean * sm_ops as f64 / sm_report.primary().completed.max(1) as f64;

        // DataFlower streaming pipes.
        let mut world = World::new(TestbedConfig::default().with_seed(6));
        let id = world.add_workflow(b.workflow());
        for i in 0..3 {
            world.submit_request(id, b.default_payload(), SimTime::from_secs(40 * i));
        }
        let mut df = DataFlowerEngine::new(DataFlowerConfig::default(), SpreadPlacement);
        let df_report = run_to_idle(&mut world, &mut df);
        let (df_mean, df_ops) = df.comm_time();
        let df_per_req = df_mean * df_ops as f64 / df_report.primary().completed.max(1) as f64;

        t.row(vec![
            b.name().into(),
            fmt_f(sm_per_req * 1e3, 1),
            fmt_f(df_per_req * 1e3, 1),
            format!("{:.1}%", (1.0 - df_per_req / sm_per_req.max(1e-12)) * 100.0),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("(ms of data-plane transfer time per request)\n");
    out
}
