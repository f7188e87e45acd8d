//! The orchestrator control plane on the **live** runtime: keep-alive
//! heartbeats, permanent node loss healed by relocation, and a
//! voluntary live migration — all invisible in the outputs.
//!
//! A three-stage fan-out pipeline runs across three nodes. First a hot
//! function is live-migrated to the least-pressured node mid-stream;
//! then node 1 is crashed **permanently** and the controller thread
//! detects the heartbeat silence, relocates its functions to the
//! survivors, re-patches the links and replays the in-flight transfers
//! from the last acked checkpoint marks.
//!
//! ```text
//! cargo run --release --example orchestrator
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use dataflower_repro::rt::{ByLevel, Bytes, ClusterConfig, ClusterRuntimeBuilder, LinkConfig};
use dataflower_repro::workflow::{SizeModel, WorkModel, WorkflowBuilder, MB};

/// The fan-out width of the demo pipeline.
const FAN: usize = 4;

fn main() {
    // split --shard--> relay_i --echo--> join --out--> client
    let mut b = WorkflowBuilder::new("orchestrated-echo");
    let split = b.function("split", WorkModel::fixed(0.001));
    let join = b.function("join", WorkModel::fixed(0.001));
    b.client_input(split, "in", SizeModel::Fixed(1.0 * MB));
    for i in 0..FAN {
        let relay = b.function(format!("relay_{i}"), WorkModel::fixed(0.001));
        b.edge(
            split,
            relay,
            "shard",
            SizeModel::ScaleOfInput(1.0 / FAN as f64),
        );
        b.edge(relay, join, "echo", SizeModel::ScaleOfInput(1.0));
    }
    b.client_output(join, "out", SizeModel::ScaleOfInput(1.0));
    let wf = Arc::new(b.build().expect("valid workflow"));

    // The orchestrator knobs live in the same fluent builder as the
    // data-plane tuning: 10 ms heartbeats, loss declared after 3 missed
    // beats, §6.2 recovery so mid-stream transfers survive the moves.
    let cfg = ClusterConfig::new()
        .chunk_bytes(16 * 1024)
        .checkpoint_interval_bytes(64 * 1024)
        .link(LinkConfig {
            // Slow links so the kill reliably lands mid-stream.
            bandwidth_bytes_per_sec: Some(16.0 * 1024.0 * 1024.0),
            ..LinkConfig::default()
        })
        .recovery(Duration::from_millis(50))
        .heartbeat(Duration::from_millis(10), 3);

    let mut builder = ClusterRuntimeBuilder::new(Arc::clone(&wf))
        .policy(ByLevel, 3)
        .config(cfg)
        .register("split", |ctx| {
            let data = ctx.input("in").expect("client payload").clone();
            let shard = data.len() / FAN;
            for i in 0..FAN {
                let lo = i * shard;
                let hi = if i + 1 == FAN { data.len() } else { lo + shard };
                ctx.put_to("shard", format!("relay_{i}"), data.slice(lo..hi));
            }
        });
    for i in 0..FAN {
        builder = builder.register(format!("relay_{i}"), |ctx| {
            let shard = ctx.input("shard").expect("shard").clone();
            ctx.put("echo", shard);
        });
    }
    let rt = builder
        .register("join", |ctx| {
            let out: Vec<u8> = ctx
                .inputs_named("echo")
                .into_iter()
                .flat_map(|b| b.iter().copied())
                .collect();
            ctx.put("out", Bytes::from(out));
        })
        .start()
        .expect("bodies cover the DAG");

    let payload: Vec<u8> = (0..1024 * 1024u32).map(|i| (i * 31 % 251) as u8).collect();

    // Act 1 — voluntary live migration: move `relay_0` to the node the
    // pressure gauges call least loaded, while its shard is in flight.
    let req = rt.invoke(vec![("in".into(), Bytes::from(payload.clone()))]);
    let to = rt.least_pressured_node();
    rt.migrate_function("relay_0", to)
        .expect("migrate a known function to a live node");
    let outputs = rt.wait(req, Duration::from_secs(30)).expect("migrated run");
    assert_eq!(&*outputs[0].1, &payload[..], "migration must be invisible");
    println!(
        "live migration: relay_0 -> node {to} mid-stream, output byte-identical ({} KiB)",
        outputs[0].1.len() / 1024,
    );

    // Act 2 — permanent node loss: kill node 1 mid-stream and never
    // bring it back. The controller declares the loss after the missed
    // beats and relocates; the request still completes byte-identically.
    let req = rt.invoke(vec![("in".into(), Bytes::from(payload.clone()))]);
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.node(1).inflight_transfers() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    rt.crash_node(1);
    println!("node 1 crashed permanently; waiting for the heartbeat detector...");
    let outputs = rt
        .wait(req, Duration::from_secs(30))
        .expect("relocated run");
    assert_eq!(&*outputs[0].1, &payload[..], "relocation must be invisible");

    let stats = rt.stats();
    println!(
        "node loss healed: {} heartbeat(s), {} miss(es), {} loss declared, \
         {} function(s) relocated, {} transfer(s) replayed",
        stats.heartbeats,
        stats.heartbeat_misses,
        stats.node_losses,
        stats.relocated_functions,
        stats.recovered_transfers,
    );
    assert!(stats.node_losses >= 1);
    assert!(stats.relocated_functions > 0);
    rt.shutdown();
    println!("orchestrator control plane: both moves invisible in the outputs");
}
