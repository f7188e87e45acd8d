//! Quickstart: define a workflow by its data flows, run it on the
//! DataFlower engine over the simulated cluster, and inspect the report.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use dataflower::{DataFlowerConfig, DataFlowerEngine};
use dataflower_cluster::{run_to_idle, SpreadPlacement, TestbedConfig, World};
use dataflower_sim::SimTime;
use dataflower_workflow::{SizeModel, WorkModel, WorkflowBuilder, WorkflowSpec, MB};

fn main() {
    // 1. Declare the workflow: a thumbnailing pipeline with a fan-out.
    //    Every edge is a *data* dependency — the data-flow graph is the
    //    program (paper Fig. 7).
    let mut b = WorkflowBuilder::new("thumbnails");
    let decode = b.function("decode", WorkModel::new(0.02, 0.01));
    let small = b.function("resize_small", WorkModel::new(0.01, 0.02));
    let large = b.function("resize_large", WorkModel::new(0.01, 0.03));
    let pack = b.function("pack", WorkModel::new(0.01, 0.005));
    b.client_input(decode, "image", SizeModel::Fixed(2.0 * MB));
    b.edge(decode, small, "bitmap", SizeModel::ScaleOfInput(0.8));
    b.edge(decode, large, "bitmap", SizeModel::ScaleOfInput(0.8));
    b.edge(small, pack, "thumb_s", SizeModel::ScaleOfInput(0.05));
    b.edge(large, pack, "thumb_l", SizeModel::ScaleOfInput(0.2));
    b.client_output(pack, "bundle", SizeModel::ScaleOfInput(0.3));
    let wf = Arc::new(b.build().expect("valid workflow"));

    // The definition round-trips through the on-disk spec language.
    let spec = WorkflowSpec::from_workflow(&wf);
    println!("--- workflow spec (JSON) ---\n{}\n", spec.to_json());

    // 2. Build a world (3 workers + storage/broker node, paper §9.1
    //    defaults) and submit a few requests.
    let mut world = World::new(TestbedConfig::default());
    let id = world.add_workflow(Arc::clone(&wf));
    for i in 0..5 {
        world.submit_request(id, 2.0 * MB, SimTime::from_secs(2 * i));
    }

    // 3. Run the DataFlower engine to completion.
    let mut engine = DataFlowerEngine::new(DataFlowerConfig::default(), SpreadPlacement);
    let report = run_to_idle(&mut world, &mut engine);

    let stats = report.primary();
    println!("--- run report ---");
    println!("engine:            {}", report.engine);
    println!(
        "completed:         {}/{}",
        stats.completed,
        stats.completed + stats.unfinished
    );
    println!("mean latency:      {:.3} s", stats.latency.mean());
    println!("p99 latency:       {:.3} s", stats.latency.p99());
    println!("memory cost:       {:.2} GB*s", report.memory_gb_s);
    println!("cold starts:       {}", report.cold_starts);
    println!("pressure blocks:   {}", engine.pressure_block_count());
    assert_eq!(stats.completed, 5);
}
