//! Behavioural tests of the DataFlower engine: early triggering,
//! compute/communication overlap, pressure-aware scaling, consistency-aware
//! keep-alive, passive expire and checkpointed ReDo.

use std::sync::Arc;

use dataflower::{DataFlowerConfig, DataFlowerEngine};
use dataflower_cluster::{
    run, run_to_idle, RequestId, SingleNodePlacement, SpreadPlacement, TestbedConfig, TriggerKind,
    World,
};
use dataflower_sim::{SimDuration, SimTime};
use dataflower_workflow::{SizeModel, WorkModel, Workflow, WorkflowBuilder, MB};

fn wordcount(fan_out: usize, input_mb: f64) -> Arc<Workflow> {
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

fn pipeline(stages: usize, per_stage_secs: f64, edge_mb: f64) -> Arc<Workflow> {
    let mut b = WorkflowBuilder::new("pipe");
    let mut prev = None;
    let mut first = None;
    for i in 0..stages {
        let f = b.function(format!("s{i}"), WorkModel::fixed(per_stage_secs));
        if let Some(p) = prev {
            b.edge(p, f, format!("d{i}"), SizeModel::Fixed(edge_mb * MB));
        } else {
            first = Some(f);
        }
        prev = Some(f);
    }
    b.client_input(first.unwrap(), "in", SizeModel::Fixed(edge_mb * MB));
    b.client_output(prev.unwrap(), "out", SizeModel::Fixed(512.0));
    Arc::new(b.build().unwrap())
}

#[test]
fn single_request_completes() {
    let mut world = World::new(TestbedConfig::default());
    let wf = world.add_workflow(wordcount(4, 4.0));
    world.submit_request(wf, 4.0 * MB, SimTime::ZERO);
    let mut engine = DataFlowerEngine::new(DataFlowerConfig::default(), SpreadPlacement);
    let report = run_to_idle(&mut world, &mut engine);
    assert_eq!(report.primary().completed, 1);
    assert_eq!(report.primary().unfinished, 0);
    // Latency must at least cover a cold start plus some compute.
    assert!(report.primary().latency.mean() > 0.3);
}

#[test]
fn runs_are_deterministic() {
    let latency = |seed: u64| {
        let mut world = World::new(TestbedConfig::default().with_seed(seed));
        let wf = world.add_workflow(wordcount(4, 4.0));
        world.schedule_open_loop(wf, 4.0 * MB, 60.0, SimDuration::from_secs(30));
        let mut engine = DataFlowerEngine::new(DataFlowerConfig::default(), SpreadPlacement);
        let report = run(&mut world, &mut engine, SimTime::from_secs(90));
        (
            report.primary().completed,
            report.primary().latency.mean(),
            report.memory_gb_s,
        )
    };
    assert_eq!(latency(7), latency(7));
    let a = latency(7);
    let b = latency(8);
    assert!(a != b, "different seeds should differ: {a:?} vs {b:?}");
}

#[test]
fn early_triggering_starts_children_before_parent_finishes() {
    // With mid-function DLU.Put, a count function must *start* before the
    // start function *finishes* is too strong (transfer takes time), but a
    // child must become Ready before the parent's Finished + one full
    // transfer; we check the stronger paper property on a second request
    // where containers are warm: the child's Started precedes the
    // parent's Finished + trigger gap seen in control flow (~tens of ms).
    let mut cfg = TestbedConfig::single_node();
    cfg.trace_triggers = true;
    let mut world = World::new(cfg);
    let wf_def = pipeline(3, 0.5, 2.0);
    let wf = world.add_workflow(Arc::clone(&wf_def));
    world.submit_request(wf, 2.0 * MB, SimTime::ZERO);
    world.submit_request(wf, 2.0 * MB, SimTime::from_secs(20));
    let mut engine =
        DataFlowerEngine::new(DataFlowerConfig::default(), SingleNodePlacement::default());
    run_to_idle(&mut world, &mut engine);

    let s0 = wf_def.function_by_name("s0").unwrap();
    let s1 = wf_def.function_by_name("s1").unwrap();
    let req2 = RequestId::from_index(1);
    let mut s0_finished = None;
    let mut s1_started = None;
    for (t, rec) in world.trigger_trace().iter() {
        if rec.req == req2 && rec.func == s0 && rec.kind == TriggerKind::Finished {
            s0_finished = Some(*t);
        }
        if rec.req == req2 && rec.func == s1 && rec.kind == TriggerKind::Started {
            s1_started = Some(*t);
        }
    }
    let (s0f, s1s) = (s0_finished.unwrap(), s1_started.unwrap());
    // Early triggering: with streaming the successor starts before the
    // predecessor finished (paper Fig. 13).
    assert!(
        s1s < s0f,
        "expected early trigger: s1 started {s1s} vs s0 finished {s0f}"
    );
}

#[test]
fn pressure_blocks_fire_for_data_heavy_functions() {
    // A function whose output dwarfs its compute must trip Eq. 1.
    let mut b = WorkflowBuilder::new("heavy");
    let producer = b.function("producer", WorkModel::fixed(0.01));
    let consumer = b.function("consumer", WorkModel::fixed(0.01));
    b.client_input(producer, "in", SizeModel::Fixed(MB));
    // 8 MB through a 5 MB/s 128 MB container ≫ 10 ms of compute.
    b.edge(producer, consumer, "bulk", SizeModel::Fixed(8.0 * MB));
    b.client_output(consumer, "out", SizeModel::Fixed(128.0));
    let wf_def = Arc::new(b.build().unwrap());

    let mut world = World::new(TestbedConfig::default());
    let wf = world.add_workflow(wf_def);
    for i in 0..6 {
        world.submit_request(wf, MB, SimTime::from_millis(100 * i));
    }
    let mut engine = DataFlowerEngine::new(DataFlowerConfig::default(), SpreadPlacement);
    let report = run(&mut world, &mut engine, SimTime::from_secs(120));
    assert_eq!(report.primary().completed, 6);
    assert!(
        engine.pressure_block_count() > 0,
        "expected pressure blocks, got none"
    );
}

#[test]
fn non_aware_is_slower_under_data_heavy_load() {
    let run_with = |pressure_aware: bool| {
        let mut world = World::new(TestbedConfig::default());
        let wf = world.add_workflow(wordcount(4, 8.0));
        world.spawn_clients(wf, 8.0 * MB, 12);
        let cfg = if pressure_aware {
            DataFlowerConfig::default()
        } else {
            DataFlowerConfig::non_aware()
        };
        let mut engine = DataFlowerEngine::new(cfg, SpreadPlacement);
        let report = run(&mut world, &mut engine, SimTime::from_secs(300));
        report.primary().throughput_rpm
    };
    let aware = run_with(true);
    let non_aware = run_with(false);
    assert!(
        aware >= non_aware,
        "pressure-aware should not lose: aware={aware} non_aware={non_aware}"
    );
}

#[test]
fn fault_injection_triggers_redo_and_still_completes() {
    let wf_def = pipeline(3, 0.1, 1.0);
    let mut world = World::new(TestbedConfig::default());
    let wf = world.add_workflow(Arc::clone(&wf_def));
    let req = world.submit_request(wf, MB, SimTime::ZERO);
    let mut engine = DataFlowerEngine::new(DataFlowerConfig::default(), SpreadPlacement);
    engine.inject_fault(req, wf_def.function_by_name("s1").unwrap());
    let report = run_to_idle(&mut world, &mut engine);
    assert_eq!(report.primary().completed, 1);
    assert_eq!(engine.redo_count(), 1);

    // A fault adds latency relative to a clean run.
    let mut clean_world = World::new(TestbedConfig::default());
    let wf2 = clean_world.add_workflow(wf_def);
    clean_world.submit_request(wf2, MB, SimTime::ZERO);
    let mut clean_engine = DataFlowerEngine::new(DataFlowerConfig::default(), SpreadPlacement);
    let clean = run_to_idle(&mut clean_world, &mut clean_engine);
    assert!(report.primary().latency.mean() > clean.primary().latency.mean());
}

#[test]
fn sink_ttl_spills_unconsumed_data() {
    // One stage produces data for a consumer that cannot start (no CPU
    // left? simpler: consumer work enormous and only one container): make
    // consumer's *other* input arrive very late so the first input sits in
    // the sink past its TTL.
    let mut b = WorkflowBuilder::new("late-merge");
    let fast = b.function("fast", WorkModel::fixed(0.01));
    let slow = b.function("slow", WorkModel::fixed(45.0 * 0.1)); // 45 s on 0.1 core
    let merge = b.function("merge", WorkModel::fixed(0.01));
    b.client_input(fast, "a", SizeModel::Fixed(MB));
    b.client_input(slow, "b", SizeModel::Fixed(1024.0));
    b.edge(fast, merge, "fast-out", SizeModel::Fixed(MB));
    b.edge(slow, merge, "slow-out", SizeModel::Fixed(1024.0));
    b.client_output(merge, "out", SizeModel::Fixed(128.0));
    let wf_def = Arc::new(b.build().unwrap());

    let cfg = DataFlowerConfig {
        sink_ttl: SimDuration::from_secs(5),
        ..DataFlowerConfig::default()
    };
    let mut world = World::new(TestbedConfig::default());
    let wf = world.add_workflow(wf_def);
    world.submit_request(wf, MB, SimTime::ZERO);
    let mut engine = DataFlowerEngine::new(cfg, SpreadPlacement);
    let report = run_to_idle(&mut world, &mut engine);
    assert_eq!(report.primary().completed, 1);
    // After the spill, the fast output no longer occupies memory: the
    // cache integral is far below "1 MB × 45 s".
    assert!(
        report.cache_mb_s < 0.5 * 45.0,
        "cache_mb_s={} suggests no spill happened",
        report.cache_mb_s
    );
}

#[test]
fn keep_alive_retires_idle_containers_but_not_draining_ones() {
    let cluster = TestbedConfig {
        keep_alive: SimDuration::from_secs(5),
        ..TestbedConfig::default()
    };
    let mut world = World::new(cluster);
    let wf = world.add_workflow(wordcount(2, 2.0));
    world.submit_request(wf, 2.0 * MB, SimTime::ZERO);
    let mut engine = DataFlowerEngine::new(DataFlowerConfig::default(), SpreadPlacement);
    let report = run_to_idle(&mut world, &mut engine);
    assert_eq!(report.primary().completed, 1);
    // Every container must eventually be retired by the keep-alive.
    assert!(world
        .containers()
        .iter()
        .all(|c| c.state() == dataflower_cluster::ContainerState::Retired));
}

#[test]
fn switch_workflows_run_exactly_one_branch() {
    let mut b = WorkflowBuilder::new("switchy");
    let gate = b.function("gate", WorkModel::fixed(0.01));
    let hot = b.function("hot", WorkModel::fixed(0.01));
    let cold = b.function("cold", WorkModel::fixed(0.01));
    b.client_input(gate, "in", SizeModel::Fixed(1024.0));
    b.switch_edge(gate, hot, "h", SizeModel::Fixed(64.0 * 1024.0), 0, 0);
    b.switch_edge(gate, cold, "c", SizeModel::Fixed(64.0 * 1024.0), 0, 1);
    b.client_output(hot, "out-h", SizeModel::Fixed(128.0));
    b.client_output(cold, "out-c", SizeModel::Fixed(128.0));
    let wf_def = Arc::new(b.build().unwrap());

    let mut world = World::new(TestbedConfig::default());
    let wf = world.add_workflow(wf_def);
    for i in 0..8 {
        world.submit_request(wf, 1024.0, SimTime::from_millis(200 * i));
    }
    let mut engine = DataFlowerEngine::new(DataFlowerConfig::default(), SpreadPlacement);
    let report = run_to_idle(&mut world, &mut engine);
    assert_eq!(report.primary().completed, 8);
}

#[test]
fn overlap_lets_one_container_pipeline_requests() {
    // Back-to-back requests into one pipeline stage: with FLU/DLU overlap
    // the second compute runs while the first transfer is still in
    // flight, so the total makespan is below the serialized sum.
    let wf_def = pipeline(2, 0.3, 4.0);
    let mut world = World::new(TestbedConfig::default());
    let wf = world.add_workflow(wf_def);
    for i in 0..4 {
        world.submit_request(wf, 4.0 * MB, SimTime::from_millis(10 * i));
    }
    let mut engine = DataFlowerEngine::new(DataFlowerConfig::default(), SpreadPlacement);
    let report = run_to_idle(&mut world, &mut engine);
    assert_eq!(report.primary().completed, 4);
}

#[test]
fn prewarming_cuts_cold_request_latency() {
    // §10 future work: with data-availability prewarming, successor
    // containers cold-start while the producer computes and transfers,
    // so the first (cold) request finishes sooner.
    let latency = |prewarm: bool| {
        let wf_def = pipeline(4, 0.2, 2.0);
        let mut world = World::new(TestbedConfig::default());
        let wf = world.add_workflow(wf_def);
        world.submit_request(wf, 2.0 * MB, SimTime::ZERO);
        let cfg = if prewarm {
            DataFlowerConfig::default().with_prewarm()
        } else {
            DataFlowerConfig::default()
        };
        let mut engine = DataFlowerEngine::new(cfg, SpreadPlacement);
        let report = run_to_idle(&mut world, &mut engine);
        assert_eq!(report.primary().completed, 1);
        report.primary().latency.mean()
    };
    let cold = latency(false);
    let prewarmed = latency(true);
    assert!(
        prewarmed < cold,
        "prewarming should cut the cold path: {prewarmed:.3} !< {cold:.3}"
    );
}
