//! Behavioural tests of the control-flow baselines and their contrast
//! with DataFlower.

use std::sync::Arc;

use dataflower::{DataFlowerConfig, DataFlowerEngine};
use dataflower_baselines::{ControlFlowConfig, ControlFlowEngine};
use dataflower_cluster::{
    run, run_to_idle, RunReport, SpreadPlacement, TestbedConfig, TriggerKind, World,
};
use dataflower_sim::{SimDuration, SimTime};
use dataflower_workflow::{SizeModel, WorkModel, Workflow, WorkflowBuilder, MB};

fn fanout_wf(fan_out: usize, input_mb: f64) -> Arc<Workflow> {
    let mut b = WorkflowBuilder::new("wc");
    let start = b.function("start", WorkModel::new(0.005, 0.002));
    let merge = b.function("merge", WorkModel::new(0.005, 0.01));
    b.client_input(start, "text", SizeModel::Fixed(input_mb * MB));
    for i in 0..fan_out {
        let count = b.function(format!("count_{i}"), WorkModel::new(0.002, 0.03));
        b.edge(
            start,
            count,
            "file",
            SizeModel::ScaleOfInput(1.0 / fan_out as f64),
        );
        b.edge(count, merge, "counts", SizeModel::ScaleOfInput(0.08));
    }
    b.client_output(merge, "result", SizeModel::Fixed(2048.0));
    Arc::new(b.build().unwrap())
}

fn run_one(cfg: ControlFlowConfig, wf: Arc<Workflow>, n: usize) -> RunReport {
    let mut world = World::new(TestbedConfig::default());
    let id = world.add_workflow(wf);
    for i in 0..n {
        world.submit_request(id, 4.0 * MB, SimTime::from_millis(500 * i as u64));
    }
    let mut engine = ControlFlowEngine::new(cfg, SpreadPlacement);
    run(&mut world, &mut engine, SimTime::from_secs(600))
}

#[test]
fn all_baselines_complete_requests() {
    let wf = fanout_wf(4, 4.0);
    for cfg in [
        ControlFlowConfig::centralized(),
        ControlFlowConfig::faasflow(),
        ControlFlowConfig::sonic(),
        ControlFlowConfig::state_machine(),
    ] {
        let label = cfg.label.as_str();
        let report = run_one(cfg, Arc::clone(&wf), 3);
        assert_eq!(report.primary().completed, 3, "{label} failed");
        assert_eq!(report.engine, label);
    }
}

#[test]
fn centralized_triggering_overhead_is_visible() {
    let cluster = TestbedConfig {
        trace_triggers: true,
        ..TestbedConfig::default()
    };
    let mut world = World::new(cluster);
    let wf_def = fanout_wf(2, 1.0);
    let wf = world.add_workflow(Arc::clone(&wf_def));
    world.submit_request(wf, MB, SimTime::ZERO);
    let mut engine = ControlFlowEngine::new(ControlFlowConfig::centralized(), SpreadPlacement);
    run_to_idle(&mut world, &mut engine);

    // Gap between a predecessor Finished and the successor Ready must be
    // at least the configured 63 ms state-management overhead.
    let trace = world.trigger_trace();
    let start = wf_def.function_by_name("start").unwrap();
    let count0 = wf_def.function_by_name("count_0").unwrap();
    let mut start_fin = None;
    let mut count_ready = None;
    for (t, rec) in trace.iter() {
        if rec.func == start && rec.kind == TriggerKind::Finished {
            start_fin = Some(*t);
        }
        if rec.func == count0 && rec.kind == TriggerKind::Ready && count_ready.is_none() {
            count_ready = Some(*t);
        }
    }
    let gap = count_ready.unwrap().duration_since(start_fin.unwrap());
    assert!(
        gap >= SimDuration::from_millis(63),
        "trigger gap {gap} below configured overhead"
    );
}

#[test]
fn dataflower_beats_control_flow_on_latency() {
    let wf = fanout_wf(4, 4.0);

    let mut df_world = World::new(TestbedConfig::default());
    let id = df_world.add_workflow(Arc::clone(&wf));
    for i in 0..5 {
        df_world.submit_request(id, 4.0 * MB, SimTime::from_secs(3 * i));
    }
    let mut df = DataFlowerEngine::new(DataFlowerConfig::default(), SpreadPlacement);
    let df_report = run(&mut df_world, &mut df, SimTime::from_secs(300));

    for cfg in [ControlFlowConfig::faasflow(), ControlFlowConfig::sonic()] {
        let label = cfg.label.as_str();
        let mut world = World::new(TestbedConfig::default());
        let id = world.add_workflow(Arc::clone(&wf));
        for i in 0..5 {
            world.submit_request(id, 4.0 * MB, SimTime::from_secs(3 * i));
        }
        let mut engine = ControlFlowEngine::new(cfg, SpreadPlacement);
        let report = run(&mut world, &mut engine, SimTime::from_secs(300));
        assert_eq!(report.primary().completed, 5);
        assert!(
            df_report.primary().latency.mean() < report.primary().latency.mean(),
            "DataFlower {:.3}s should beat {label} {:.3}s",
            df_report.primary().latency.mean(),
            report.primary().latency.mean()
        );
    }
}

#[test]
fn breakdown_records_comm_and_comp() {
    let wf = fanout_wf(2, 4.0);
    let mut world = World::new(TestbedConfig::default());
    let id = world.add_workflow(wf);
    world.submit_request(id, 4.0 * MB, SimTime::ZERO);
    let mut engine = ControlFlowEngine::new(ControlFlowConfig::centralized(), SpreadPlacement);
    let report = run_to_idle(&mut world, &mut engine);
    assert_eq!(report.primary().completed, 1);

    let mut comm = 0.0;
    let mut comp = 0.0;
    for (_, b) in engine.breakdown() {
        comm += b.comm.values().iter().sum::<f64>();
        comp += b.comp.values().iter().sum::<f64>();
    }
    assert!(comm > 0.0, "no communication time recorded");
    assert!(comp > 0.0, "no computation time recorded");
    let (mean_op, ops) = engine.comm_time();
    assert!(ops > 0 && mean_op > 0.0);
}

#[test]
fn faasflow_cache_freed_at_request_completion() {
    // Single-node placement → all edges cached in local memory.
    let mut cluster = TestbedConfig::single_node();
    cluster.trace_triggers = false;
    let mut world = World::new(cluster);
    let wf = world.add_workflow(fanout_wf(2, 2.0));
    world.submit_request(wf, 2.0 * MB, SimTime::ZERO);
    let mut engine = ControlFlowEngine::new(
        ControlFlowConfig::faasflow(),
        dataflower_cluster::SingleNodePlacement::default(),
    );
    let report = run_to_idle(&mut world, &mut engine);
    assert_eq!(report.primary().completed, 1);
    assert!(report.cache_mb_s > 0.0, "local cache never populated");
    assert_eq!(
        world.cache_resident_mb(),
        0.0,
        "cache not freed at completion"
    );
}
