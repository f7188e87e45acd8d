//! Fault tolerance (§6.2): interrupt a function's data plane mid-request
//! and watch the engine ReDo it from the pipe connector's last
//! checkpoint.
//!
//! ```text
//! cargo run --example fault_tolerance
//! ```

use std::sync::Arc;

use dataflower::{CheckpointSchedule, DataFlowerConfig, DataFlowerEngine};
use dataflower_cluster::{run_to_idle, SpreadPlacement, TestbedConfig, World};
use dataflower_sim::SimTime;
use dataflower_workflow::{SizeModel, WorkModel, WorkflowBuilder, MB};

fn main() {
    // A three-stage pipeline moving a few MB per hop.
    let mut b = WorkflowBuilder::new("etl");
    let extract = b.function("extract", WorkModel::fixed(0.02));
    let transform = b.function("transform", WorkModel::fixed(0.05));
    let load = b.function("load", WorkModel::fixed(0.02));
    b.client_input(extract, "rows", SizeModel::Fixed(4.0 * MB));
    b.edge(extract, transform, "parsed", SizeModel::ScaleOfInput(1.0));
    b.edge(transform, load, "clean", SizeModel::ScaleOfInput(0.8));
    b.client_output(load, "ack", SizeModel::Fixed(256.0));
    let wf = Arc::new(b.build().expect("valid workflow"));

    // Checkpoint math: a 3.2 MB transfer interrupted halfway re-sends
    // only the tail past the last 256 KiB checkpoint.
    let cp = CheckpointSchedule::default();
    let total = 0.8 * 4.0 * MB;
    let interrupted_at = total * 0.5;
    println!(
        "checkpointing: {:.1} KiB interval; a {:.2} MB transfer failing at 50% re-sends {:.2} MB",
        cp.interval_bytes() / 1024.0,
        total / MB,
        cp.resume_bytes(total, interrupted_at) / MB,
    );

    // Clean run for reference.
    let clean = {
        let mut world = World::new(TestbedConfig::default());
        let id = world.add_workflow(Arc::clone(&wf));
        world.submit_request(id, 4.0 * MB, SimTime::ZERO);
        let mut engine = DataFlowerEngine::new(DataFlowerConfig::default(), SpreadPlacement);
        run_to_idle(&mut world, &mut engine)
            .primary()
            .latency
            .mean()
    };

    // Faulted run: transform's data plane is interrupted once.
    let mut world = World::new(TestbedConfig::default());
    let id = world.add_workflow(Arc::clone(&wf));
    let req = world.submit_request(id, 4.0 * MB, SimTime::ZERO);
    let mut engine = DataFlowerEngine::new(DataFlowerConfig::default(), SpreadPlacement);
    engine.inject_fault(
        req,
        wf.function_by_name("transform").expect("transform exists"),
    );
    let report = run_to_idle(&mut world, &mut engine);

    println!("clean   latency: {clean:.3} s");
    println!(
        "faulted latency: {:.3} s (ReDo count: {})",
        report.primary().latency.mean(),
        engine.redo_count()
    );
    // The engine's fault timeline mirrors the live runtime's recovery
    // counters: one Fault event when the injected fault hit, one Redo
    // when the invocation was re-queued, in simulated-time order.
    for (at, ev) in engine.fault_timeline() {
        println!("  t={:.3}s  {ev:?}", at.as_secs_f64());
    }
    assert_eq!(report.primary().completed, 1, "request must still complete");
    assert_eq!(engine.redo_count(), 1);
    assert_eq!(engine.fault_timeline().len(), 2, "one fault, one redo");
    assert!(report.primary().latency.mean() > clean);
    println!("request completed despite the fault — at-least-once semantics hold");
}
