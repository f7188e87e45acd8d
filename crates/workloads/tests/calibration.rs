//! Calibration tests: under the centralized control-flow orchestrator the
//! benchmarks' communication share of end-to-end time must match the
//! paper's Fig. 2a characterization (img 26.0 %, vid 49.5 %, svd 35.3 %,
//! wc 89.2 %), and the average end-to-end latencies must fall in the
//! right ballpark (img ≈ 4 s, vid ≈ 8 s, svd ≈ 6 s, wc ≲ 1 s band).

use dataflower_baselines::{ControlFlowConfig, ControlFlowEngine};
use dataflower_cluster::{run_to_idle, SpreadPlacement, TestbedConfig, World};
use dataflower_sim::SimTime;
use dataflower_workloads::Benchmark;

/// Runs one solo request under the centralized orchestrator; returns
/// (comm share of comm+comp, mean end-to-end seconds).
fn characterize(b: Benchmark) -> (f64, f64) {
    let mut world = World::new(TestbedConfig::default().with_seed(1));
    let id = world.add_workflow(b.workflow());
    // A few sequential solo requests (warm after the first).
    for i in 0..3 {
        world.submit_request(id, b.default_payload(), SimTime::from_secs(40 * i));
    }
    let mut engine = ControlFlowEngine::new(ControlFlowConfig::centralized(), SpreadPlacement);
    let report = run_to_idle(&mut world, &mut engine);
    assert_eq!(report.primary().completed, 3, "{b} did not finish");
    let mut comm = 0.0;
    let mut comp = 0.0;
    for (_, fb) in engine.breakdown() {
        comm += fb.comm.values().iter().sum::<f64>();
        comp += fb.comp.values().iter().sum::<f64>();
    }
    (comm / (comm + comp), report.primary().latency.mean())
}

#[test]
fn comm_shares_match_fig2a() {
    let targets = [
        (Benchmark::Img, 0.260),
        (Benchmark::Vid, 0.495),
        (Benchmark::Svd, 0.353),
        (Benchmark::Wc, 0.892),
    ];
    for (b, target) in targets {
        let (share, e2e) = characterize(b);
        println!(
            "{b}: comm share {:.1}% (target {:.1}%), e2e {e2e:.2}s",
            share * 100.0,
            target * 100.0
        );
        assert!(
            (share - target).abs() < 0.03,
            "{b}: comm share {:.3} vs target {target:.3}",
            share
        );
    }
}

#[test]
fn e2e_latency_in_paper_band() {
    // Paper Fig. 2a / Fig. 10 ballparks (generous bands — the substrate
    // is a simulator, not the authors' testbed).
    let bands = [
        (Benchmark::Img, 2.0, 7.0),
        (Benchmark::Vid, 5.0, 13.0),
        (Benchmark::Svd, 4.0, 11.0),
        (Benchmark::Wc, 0.2, 1.6),
    ];
    for (b, lo, hi) in bands {
        let (_, e2e) = characterize(b);
        assert!(
            (lo..=hi).contains(&e2e),
            "{b}: e2e {e2e:.2}s outside [{lo}, {hi}]"
        );
    }
}
