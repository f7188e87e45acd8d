//! Checkpoint-based crash recovery on the **live** runtime (§6.2): crash
//! a node while a multi-megabyte transfer streams into it, restart it,
//! and watch the stream resume from the last acknowledged checkpoint
//! mark — not from byte 0 — with the output byte-identical.
//!
//! ```text
//! cargo run --release --example checkpoint_recovery
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use dataflower_repro::rt::{Bytes, ClusterConfig, ClusterRuntimeBuilder, LinkConfig, Placement};
use dataflower_repro::workflow::{SizeModel, WorkModel, WorkflowBuilder, MB};

fn main() {
    // A two-stage pipeline: `pack` on node 0 streams ~2 MiB to `digest`
    // on node 1 through the chunked remote pipe.
    let mut b = WorkflowBuilder::new("etl-live");
    let pack = b.function("pack", WorkModel::fixed(0.001));
    let digest = b.function("digest", WorkModel::fixed(0.001));
    b.client_input(pack, "rows", SizeModel::Fixed(2.0 * MB));
    b.edge(pack, digest, "packed", SizeModel::ScaleOfInput(1.0));
    b.client_output(digest, "sum", SizeModel::Fixed(64.0));
    let wf = Arc::new(b.build().expect("valid workflow"));

    let cfg = ClusterConfig::new()
        .chunk_bytes(16 * 1024)
        .checkpoint_interval_bytes(64 * 1024)
        .link(LinkConfig {
            // Slow the link so the crash reliably lands mid-stream.
            bandwidth_bytes_per_sec: Some(8.0 * 1024.0 * 1024.0),
            ..LinkConfig::default()
        })
        .recovery(Duration::from_millis(200));
    let rt = ClusterRuntimeBuilder::new(Arc::clone(&wf))
        .placement(
            Placement::with_nodes(2)
                .assign("pack", 0)
                .assign("digest", 1),
        )
        .config(cfg)
        .register("pack", |ctx| {
            let rows = ctx.input("rows").expect("client rows").clone();
            ctx.put("packed", rows); // zero-copy hand-off to the DLU
        })
        .register("digest", |ctx| {
            let packed = ctx.input("packed").expect("packed stream");
            let mut h = 0xcbf29ce484222325u64;
            for b in packed.iter() {
                h = (h ^ *b as u64).wrapping_mul(0x100000001b3);
            }
            ctx.put("sum", Bytes::from(format!("{h:016x}")));
        })
        .start()
        .expect("bodies cover the DAG");

    let rows: Vec<u8> = (0..2 * 1024 * 1024u32)
        .map(|i| (i * 31 % 251) as u8)
        .collect();
    let req = rt.invoke(vec![("rows".into(), Bytes::from(rows))]);

    // Crash node 1 once the stream is past at least one checkpoint mark.
    let deadline = Instant::now() + Duration::from_secs(10);
    let crash = loop {
        assert!(Instant::now() < deadline, "stream never got going");
        if rt.node(1).inflight_transfers() > 0 && rt.stats().acked_marks > 0 {
            let report = rt.crash_node(1);
            if report.was_up && report.inflight_transfers > 0 && report.durable_bytes > 0 {
                break report;
            }
            rt.restart_node(1);
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    println!(
        "crashed node 1 mid-stream: {} in-flight transfer(s), {} KiB durable below the marks",
        crash.inflight_transfers,
        crash.durable_bytes / 1024,
    );
    std::thread::sleep(Duration::from_millis(20)); // the outage: frames die here
    rt.restart_node(1);

    let outputs = rt.wait(req, Duration::from_secs(30)).expect("recovered");
    let stats = rt.stats();
    println!("digest arrived: {}", String::from_utf8_lossy(&outputs[0].1));
    println!(
        "recovery: {} transfer(s) replayed, {} KiB re-sent, {} KiB skipped (below acked marks), \
         {} frame(s) lost in the outage, {} checkpoint marks acked",
        stats.recovered_transfers,
        stats.replayed_bytes / 1024,
        stats.resumed_from_mark_bytes / 1024,
        stats.frames_lost_to_crashes,
        stats.acked_marks,
    );
    assert!(stats.recovered_transfers > 0);
    assert!(
        stats.resumed_from_mark_bytes > 0,
        "recovery must resume from the mark, not byte 0"
    );
    rt.shutdown();
    println!("single-node crash survived; output byte-identical — §6.2 holds in the live runtime");
}
