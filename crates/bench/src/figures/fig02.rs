//! Figure 2: characterization of the control-flow paradigm — (a) the
//! communication/computation breakdown and average end-to-end latency,
//! (b) the staggered CPU/network usage timeline, (c) the triggering
//! overhead of the production orchestrator's state machine.

use dataflower_baselines::{ControlFlowConfig, ControlFlowEngine};
use dataflower_cluster::{run_to_idle, SpreadPlacement, TestbedConfig, TriggerKind, World};
use dataflower_metrics::{fmt_f, Table};
use dataflower_sim::SimTime;
use dataflower_workloads::Benchmark;

use crate::common::{header, pct, secs};

/// Fig. 2(a): per-benchmark communication share and average E2E latency
/// under the centralized control-flow orchestrator.
pub fn fig2a() -> String {
    let mut out = header(
        "Fig 2a",
        "control-flow comm/comp breakdown (paper: img 26.0%, vid 49.5%, svd 35.3%, wc 89.2%)",
    );
    let mut t = Table::new(vec!["benchmark", "comm share", "comp share", "avg E2E (s)"]);
    for b in Benchmark::ALL {
        let (share, e2e) = characterize(b);
        t.row(vec![
            b.name().into(),
            pct(share),
            pct(1.0 - share),
            secs(e2e),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Runs solo requests of `b` under the centralized orchestrator and
/// returns `(comm share, mean E2E seconds)`.
pub fn characterize(b: Benchmark) -> (f64, f64) {
    let mut world = World::new(TestbedConfig::default().with_seed(2));
    let id = world.add_workflow(b.workflow());
    for i in 0..3 {
        world.submit_request(id, b.default_payload(), SimTime::from_secs(40 * i));
    }
    let mut engine = ControlFlowEngine::new(ControlFlowConfig::centralized(), SpreadPlacement);
    let report = run_to_idle(&mut world, &mut engine);
    let (mut comm, mut comp) = (0.0, 0.0);
    for (_, fb) in engine.breakdown() {
        comm += fb.comm.values().iter().sum::<f64>();
        comp += fb.comp.values().iter().sum::<f64>();
    }
    (comm / (comm + comp), report.primary().latency.mean())
}

/// Fig. 2(b): CPU vs network usage timeline of one request per benchmark
/// — with the control-flow paradigm the two peaks alternate (Get/Put use
/// the network while the CPU waits, compute leaves the network idle).
pub fn fig2b() -> String {
    let mut out = header(
        "Fig 2b",
        "CPU/network usage timeline under control flow (staggered peaks)",
    );
    for b in Benchmark::ALL {
        let mut cluster = TestbedConfig::default().with_seed(3);
        cluster.trace_usage = true;
        let mut world = World::new(cluster);
        let id = world.add_workflow(b.workflow());
        world.submit_request(id, b.default_payload(), SimTime::ZERO);
        let mut engine = ControlFlowEngine::new(ControlFlowConfig::centralized(), SpreadPlacement);
        run_to_idle(&mut world, &mut engine);

        let trace = world.usage_trace();
        let end = trace.last().map(|(t, _)| *t).unwrap_or(SimTime::ZERO);
        out.push_str(&format!("{}:\n", b.name()));
        let mut t = Table::new(vec!["t (s)", "busy cores", "net (MB/s)"]);
        // Sample ~16 evenly spaced points of the step signal.
        let samples = 16u64;
        let mut idx = 0usize;
        let entries = trace.entries();
        for k in 0..=samples {
            let at = SimTime::from_micros(end.as_micros() * k / samples);
            while idx + 1 < entries.len() && entries[idx + 1].0 <= at {
                idx += 1;
            }
            if entries.is_empty() {
                break;
            }
            let s = entries[idx].1;
            t.row(vec![
                fmt_f(at.as_secs_f64(), 2),
                fmt_f(s.busy_cores, 2),
                fmt_f((s.net_rate / 1e6).max(0.0), 2),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Fig. 2(c): state-management (triggering) overhead between adjacent
/// functions under the centralized orchestrator (paper: 63.3 ms average).
pub fn fig2c() -> String {
    let mut out = header("Fig 2c", "triggering overhead (paper avg ~63 ms)");
    let mut t = Table::new(vec!["benchmark", "avg trigger overhead (ms)", "samples"]);
    let mut grand_sum = 0.0;
    let mut grand_n = 0usize;
    for b in Benchmark::ALL {
        let mut cluster = TestbedConfig::default().with_seed(4);
        cluster.trace_triggers = true;
        let mut world = World::new(cluster);
        let wf = b.workflow();
        let id = world.add_workflow(std::sync::Arc::clone(&wf));
        world.submit_request(id, b.default_payload(), SimTime::ZERO);
        let mut engine = ControlFlowEngine::new(ControlFlowConfig::centralized(), SpreadPlacement);
        run_to_idle(&mut world, &mut engine);

        // Overhead = Ready(f) − max Finished(pred of f).
        let trace = world.trigger_trace();
        let mut finished = std::collections::HashMap::new();
        let mut overheads = Vec::new();
        for (t, rec) in trace.iter() {
            match rec.kind {
                TriggerKind::Finished => {
                    finished.insert(rec.func, *t);
                }
                TriggerKind::Ready => {
                    let preds = wf.predecessors(rec.func);
                    if preds.is_empty() {
                        continue;
                    }
                    if let Some(last) = preds.iter().filter_map(|p| finished.get(p)).max() {
                        overheads.push(t.duration_since(*last).as_millis_f64());
                    }
                }
                TriggerKind::Started => {}
            }
        }
        let avg = overheads.iter().sum::<f64>() / overheads.len().max(1) as f64;
        grand_sum += overheads.iter().sum::<f64>();
        grand_n += overheads.len();
        t.row(vec![
            b.name().into(),
            fmt_f(avg, 1),
            overheads.len().to_string(),
        ]);
    }
    t.row(vec![
        "average".into(),
        fmt_f(grand_sum / grand_n.max(1) as f64, 1),
        grand_n.to_string(),
    ]);
    out.push_str(&t.render());
    out
}
