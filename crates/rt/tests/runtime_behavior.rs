//! Behavioural tests of the live FLU/DLU runtime on real data.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use dataflower_rt::{
    Bytes, ClusterConfig, ClusterRuntime, ClusterRuntimeBuilder, LinkConfig, Placement, RtError,
};
use dataflower_workflow::{SizeModel, WorkModel, Workflow, WorkflowBuilder};

fn wc_workflow(fan_out: usize) -> Arc<Workflow> {
    let mut b = WorkflowBuilder::new("wc");
    let start = b.function("start", WorkModel::fixed(0.001));
    let merge = b.function("merge", WorkModel::fixed(0.001));
    b.client_input(start, "text", SizeModel::Fixed(1024.0));
    for i in 0..fan_out {
        let count = b.function(format!("count_{i}"), WorkModel::fixed(0.001));
        b.edge(start, count, "file", SizeModel::Fixed(256.0));
        b.edge(count, merge, "counts", SizeModel::Fixed(64.0));
    }
    b.client_output(merge, "result", SizeModel::Fixed(64.0));
    Arc::new(b.build().unwrap())
}

/// A complete, *real* word count: split text into N shards, count words
/// per shard, merge the count tables. Single-node special case of
/// `build_wc_cluster` (same bodies, same public API surface).
fn build_wc(fan_out: usize) -> ClusterRuntime {
    build_wc_cluster(fan_out, Placement::with_nodes(1), ClusterConfig::default())
}

#[test]
fn real_wordcount_counts_correctly() {
    let rt = build_wc(4);
    let text = "the quick brown fox jumps over the lazy dog the fox";
    let req = rt.invoke(vec![("text".into(), Bytes::from_static(text.as_bytes()))]);
    let outputs = rt.wait(req, Duration::from_secs(10)).unwrap();
    assert_eq!(outputs.len(), 1);
    let table = String::from_utf8_lossy(&outputs[0].1).into_owned();
    let get = |w: &str| -> u64 {
        table
            .lines()
            .find(|l| l.starts_with(&format!("{w} ")))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|c| c.parse().ok())
            .unwrap_or(0)
    };
    assert_eq!(get("the"), 3);
    assert_eq!(get("fox"), 2);
    assert_eq!(get("dog"), 1);
    let stats = rt.stats();
    assert_eq!(stats.invocations, 6); // start + 4 counts + merge
    rt.shutdown();
}

#[test]
fn concurrent_requests_are_isolated() {
    let rt = build_wc(2);
    let reqs: Vec<_> = (0..8)
        .map(|i| {
            let text = format!("alpha {} beta", "gamma ".repeat(i + 1));
            rt.invoke(vec![("text".into(), Bytes::from(text.into_bytes()))])
        })
        .collect();
    for (i, req) in reqs.into_iter().enumerate() {
        let outputs = rt.wait(req, Duration::from_secs(10)).unwrap();
        let table = String::from_utf8_lossy(&outputs[0].1).into_owned();
        let gamma_line = table
            .lines()
            .find(|l| l.starts_with("gamma "))
            .expect("gamma counted");
        assert_eq!(gamma_line, format!("gamma {}", i + 1));
    }
    rt.shutdown();
}

#[test]
fn unregistered_function_rejected_at_start() {
    let wf = wc_workflow(1);
    let err = ClusterRuntimeBuilder::new(wf).start().unwrap_err();
    assert!(matches!(err, RtError::UnregisteredFunction(_)));
}

#[test]
fn unknown_registration_rejected() {
    let wf = wc_workflow(1);
    let err = ClusterRuntimeBuilder::new(Arc::clone(&wf))
        .register("start", |_| {})
        .register("count_0", |_| {})
        .register("merge", |_| {})
        .register("ghost", |_| {})
        .start()
        .unwrap_err();
    assert!(matches!(err, RtError::UnknownFunction(n) if n == "ghost"));
}

#[test]
fn unknown_put_faults_the_request() {
    let wf = wc_workflow(1);
    let rt = ClusterRuntimeBuilder::new(wf)
        .register("start", |ctx| {
            ctx.put("file", Bytes::from_static(b"x"));
        })
        .register("count_0", |ctx| {
            ctx.put("no-such-edge", Bytes::from_static(b"y"));
        })
        .register("merge", |ctx| {
            ctx.put("result", Bytes::from_static(b"z"));
        })
        .start()
        .unwrap();
    let req = rt.invoke(vec![("text".into(), Bytes::from_static(b"hi"))]);
    let err = rt.wait(req, Duration::from_secs(5)).unwrap_err();
    assert!(matches!(err, RtError::Faulted(msg) if msg.contains("no-such-edge")));
    rt.shutdown();
}

#[test]
fn wait_times_out_when_a_function_stalls() {
    let wf = wc_workflow(1);
    let rt = ClusterRuntimeBuilder::new(wf)
        .register("start", |ctx| {
            ctx.put("file", Bytes::from_static(b"x"));
        })
        .register("count_0", |_ctx| {
            // Never puts: downstream never triggers.
        })
        .register("merge", |ctx| {
            ctx.put("result", Bytes::from_static(b"z"));
        })
        .start()
        .unwrap();
    let req = rt.invoke(vec![("text".into(), Bytes::from_static(b"hi"))]);
    assert_eq!(
        rt.wait(req, Duration::from_millis(200)).unwrap_err(),
        RtError::Timeout
    );
    rt.shutdown();
}

#[test]
fn wait_with_expired_deadline_times_out_instead_of_panicking() {
    // Regression test for the deadline arithmetic in `wait`: a wakeup
    // (or the first loop iteration) landing *after* the deadline used to
    // compute `deadline - now` with a panicking `Instant` subtraction.
    // The fix re-checks the deadline on every wakeup and saturates the
    // remaining-time computation, so an already-expired deadline — even
    // one raced past while the request lock was being acquired — must
    // yield a clean `Timeout`.
    let wf = wc_workflow(1);
    let rt = ClusterRuntimeBuilder::new(wf)
        .register("start", |ctx| {
            ctx.put("file", Bytes::from_static(b"x"));
        })
        .register("count_0", |_ctx| {
            // Never puts: the request can only ever time out.
        })
        .register("merge", |ctx| {
            ctx.put("result", Bytes::from_static(b"z"));
        })
        .start()
        .unwrap();
    let req = rt.invoke(vec![("text".into(), Bytes::from_static(b"hi"))]);
    // A zero timeout: the deadline is already (or about to be) in the
    // past when the wait loop first checks it.
    assert_eq!(rt.wait(req, Duration::ZERO).unwrap_err(), RtError::Timeout);
    // Repeated sub-millisecond waits keep racing the deadline across the
    // lock acquisition; none of them may panic.
    for _ in 0..50 {
        assert_eq!(
            rt.wait(req, Duration::from_nanos(1)).unwrap_err(),
            RtError::Timeout
        );
    }
    rt.shutdown();
}

#[test]
fn replicas_scale_out_executors() {
    let rt_builder_wf = wc_workflow(2);
    let rt = ClusterRuntimeBuilder::new(rt_builder_wf)
        .register("start", |ctx| {
            for i in 0..2 {
                ctx.put_to("file", format!("count_{i}"), Bytes::from_static(b"a b"));
            }
        })
        .register("count_0", |ctx| {
            std::thread::sleep(Duration::from_millis(20));
            ctx.put("counts", Bytes::from_static(b"a 1"));
        })
        .register("count_1", |ctx| {
            ctx.put("counts", Bytes::from_static(b"b 1"));
        })
        .register("merge", |ctx| {
            ctx.put("result", Bytes::from_static(b"ok"));
        })
        .replicas("count_0", 4)
        .start()
        .unwrap();
    assert_eq!(rt.replicas_of("count_0"), Some(4));
    assert_eq!(rt.replicas_of("merge"), Some(1));
    let reqs: Vec<_> = (0..8)
        .map(|_| rt.invoke(vec![("text".into(), Bytes::from_static(b"t"))]))
        .collect();
    for req in reqs {
        rt.wait(req, Duration::from_secs(10)).unwrap();
    }
    rt.shutdown();
}

#[test]
fn janitor_spills_unconsumed_inputs() {
    // count_1 never receives its shard (start only feeds count_0's edge),
    // so merge never fires and count_0's output sits in the sink past the
    // TTL.
    let wf = wc_workflow(2);
    let rt = ClusterRuntimeBuilder::new(wf)
        .config(ClusterConfig {
            sink_ttl: Some(Duration::from_millis(50)),
            ..ClusterConfig::default()
        })
        .register("start", |ctx| {
            ctx.put_to("file", "count_0", Bytes::from_static(b"solo"));
        })
        .register("count_0", |ctx| {
            ctx.put("counts", Bytes::from_static(b"solo 1"));
        })
        .register("count_1", |ctx| {
            ctx.put("counts", Bytes::from_static(b"never 0"));
        })
        .register("merge", |ctx| {
            ctx.put("result", Bytes::from_static(b"r"));
        })
        .start()
        .unwrap();
    let req = rt.invoke(vec![("text".into(), Bytes::from_static(b"x"))]);
    assert_eq!(
        rt.wait(req, Duration::from_millis(400)).unwrap_err(),
        RtError::Timeout
    );
    assert!(rt.stats().spills > 0, "janitor never spilled");
    rt.shutdown();
}

#[test]
fn mid_function_put_triggers_downstream_before_producer_returns() {
    // `start` puts its shard, then keeps "computing". The count function
    // signals through a side channel that it began while start was still
    // inside its body — the early-triggering property, live.
    use std::sync::atomic::{AtomicBool, Ordering};
    let started_early = Arc::new(AtomicBool::new(false));
    let start_running = Arc::new(AtomicBool::new(false));

    let wf = wc_workflow(1);
    let flag_c = Arc::clone(&started_early);
    let run_c = Arc::clone(&start_running);
    let run_s = Arc::clone(&start_running);
    let rt = ClusterRuntimeBuilder::new(wf)
        .register("start", move |ctx| {
            run_s.store(true, Ordering::SeqCst);
            ctx.put("file", Bytes::from_static(b"payload"));
            // Simulated tail of the computation.
            std::thread::sleep(Duration::from_millis(150));
            run_s.store(false, Ordering::SeqCst);
        })
        .register("count_0", move |ctx| {
            if run_c.load(Ordering::SeqCst) {
                flag_c.store(true, Ordering::SeqCst);
            }
            ctx.put("counts", Bytes::from_static(b"p 1"));
        })
        .register("merge", |ctx| {
            ctx.put("result", Bytes::from_static(b"done"));
        })
        .start()
        .unwrap();
    let req = rt.invoke(vec![("text".into(), Bytes::from_static(b"x"))]);
    rt.wait(req, Duration::from_secs(5)).unwrap();
    assert!(
        started_early.load(std::sync::atomic::Ordering::SeqCst),
        "count did not start while start was still running"
    );
    rt.shutdown();
}

// ---------------------------------------------------------------------
// Multi-node topology tests
// ---------------------------------------------------------------------

/// Builds the wordcount of `build_wc` on a ClusterRuntime with the given
/// placement and cluster config.
fn build_wc_cluster(fan_out: usize, placement: Placement, cfg: ClusterConfig) -> ClusterRuntime {
    let wf = wc_workflow(fan_out);
    let mut builder = ClusterRuntimeBuilder::new(Arc::clone(&wf))
        .placement(placement)
        .config(cfg)
        .register("start", move |ctx| {
            let text = String::from_utf8_lossy(ctx.input("text").expect("text input")).into_owned();
            let words: Vec<&str> = text.split_whitespace().collect();
            let shard = words.len().div_ceil(fan_out);
            for i in 0..fan_out {
                let lo = (i * shard).min(words.len());
                let hi = ((i + 1) * shard).min(words.len());
                ctx.put_to(
                    "file",
                    format!("count_{i}"),
                    Bytes::from(words[lo..hi].join(" ").into_bytes()),
                );
            }
        });
    for i in 0..fan_out {
        builder = builder.register(format!("count_{i}"), |ctx| {
            let text = String::from_utf8_lossy(ctx.input("file").expect("file input")).into_owned();
            let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
            for w in text.split_whitespace() {
                *counts.entry(w).or_default() += 1;
            }
            let serialized = counts
                .iter()
                .map(|(w, c)| format!("{w} {c}"))
                .collect::<Vec<_>>()
                .join("\n");
            ctx.put("counts", Bytes::from(serialized.into_bytes()));
        });
    }
    builder
        .register("merge", |ctx| {
            let mut total: BTreeMap<String, u64> = BTreeMap::new();
            for (name, payload) in ctx.inputs() {
                assert!(name.starts_with("counts@"), "unexpected input {name}");
                for line in String::from_utf8_lossy(payload).lines() {
                    let mut it = line.rsplitn(2, ' ');
                    let c: u64 = it.next().unwrap().parse().unwrap();
                    let w = it.next().unwrap().to_owned();
                    *total.entry(w).or_default() += c;
                }
            }
            let out = total
                .iter()
                .map(|(w, c)| format!("{w} {c}"))
                .collect::<Vec<_>>()
                .join("\n");
            ctx.put("result", Bytes::from(out.into_bytes()));
        })
        .start()
        .unwrap()
}

/// A corpus big enough that every shard crosses the 16 KiB direct-socket
/// threshold (so spread placements must stream through the remote pipe).
fn big_corpus() -> String {
    // ~360 KiB: each of 4 shards (~90 KiB) spans several 64 KiB chunks.
    "alpha beta gamma delta epsilon zeta ".repeat(10_000)
}

#[test]
fn spread_placement_counts_identically_to_single_node() {
    let fan_out = 4;
    let corpus = big_corpus();

    let single = build_wc_cluster(fan_out, Placement::with_nodes(1), ClusterConfig::default());
    let req = single.invoke(vec![("text".into(), Bytes::from(corpus.clone()))]);
    let reference = single.wait(req, Duration::from_secs(20)).unwrap();
    assert_eq!(single.stats().remote_pipe_transfers, 0);
    assert_eq!(single.stats().remote_bytes, 0);
    single.shutdown();

    // Three nodes, one per stage: every fan-out edge crosses 0 -> 1 and
    // every fan-in edge crosses 1 -> 2.
    let mut placement = Placement::with_nodes(3)
        .assign("start", 0)
        .assign("merge", 2);
    for i in 0..fan_out {
        placement = placement.assign(format!("count_{i}"), 1);
    }
    let spread = build_wc_cluster(fan_out, placement, ClusterConfig::default());
    assert_eq!(spread.node_count(), 3);
    assert_eq!(spread.node_of("start"), 0);
    assert_eq!(spread.node_of("count_1"), 1);
    assert_eq!(spread.node(1).hosted_functions().len(), fan_out);
    let req = spread.invoke(vec![("text".into(), Bytes::from(corpus))]);
    let outputs = spread.wait(req, Duration::from_secs(20)).unwrap();
    assert_eq!(outputs, reference, "spread result differs from single-node");

    let stats = spread.stats();
    // The big shards streamed through the remote pipe in chunks...
    assert_eq!(stats.remote_pipe_transfers, fan_out as u64);
    assert!(stats.remote_chunks > stats.remote_pipe_transfers);
    // ...while the small count tables crossed over the direct socket.
    assert_eq!(stats.direct_socket_transfers, fan_out as u64);
    assert_eq!(stats.local_pipe_transfers, 0);
    assert!(stats.remote_bytes > 0);
    spread.shutdown();
}

#[test]
fn tiny_chunks_and_shaped_links_still_reassemble() {
    let fan_out = 2;
    let cfg = ClusterConfig {
        chunk_bytes: 512,
        checkpoint_interval_bytes: 2048,
        link: LinkConfig {
            latency: Duration::from_micros(200),
            bandwidth_bytes_per_sec: Some(400.0 * 1024.0 * 1024.0),
            queue_capacity: 4, // deliberately tight: exercises link backpressure
        },
        ..ClusterConfig::default()
    };
    let wf_placement = Placement::with_nodes(2)
        .assign("start", 0)
        .assign("count_0", 1)
        .assign("count_1", 1)
        .assign("merge", 0);
    let rt = build_wc_cluster(fan_out, wf_placement, cfg);
    let corpus = big_corpus();
    let expected_words = corpus.split_whitespace().count() as u64;
    let req = rt.invoke(vec![("text".into(), Bytes::from(corpus))]);
    let outputs = rt.wait(req, Duration::from_secs(30)).unwrap();
    let table = String::from_utf8_lossy(&outputs[0].1).into_owned();
    let total: u64 = table
        .lines()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(total, expected_words, "words lost or duplicated in transit");
    let stats = rt.stats();
    assert!(stats.remote_chunks >= 100, "chunking barely exercised");
    assert!(stats.remote_checkpoints > 0, "no checkpoint marks recorded");
    rt.shutdown();
}

#[test]
fn invalid_placement_rejected_at_start() {
    let wf = wc_workflow(1);
    let err = ClusterRuntimeBuilder::new(Arc::clone(&wf))
        .placement(Placement::with_nodes(2).assign("ghost", 0))
        .register("start", |_| {})
        .register("count_0", |_| {})
        .register("merge", |_| {})
        .start()
        .unwrap_err();
    assert!(matches!(err, RtError::InvalidPlacement(msg) if msg.contains("ghost")));

    let err = ClusterRuntimeBuilder::new(wf)
        .placement(Placement::with_nodes(2).assign("start", 5))
        .register("start", |_| {})
        .register("count_0", |_| {})
        .register("merge", |_| {})
        .start()
        .unwrap_err();
    assert!(matches!(err, RtError::InvalidPlacement(msg) if msg.contains("node 5")));
}

/// A config the runtime cannot start with is an error naming the field,
/// like its neighbours above — not a panic.
#[test]
fn invalid_config_rejected_at_start() {
    use dataflower_rt::AutoscaleConfig;

    let d = ClusterConfig::default;
    let cases = [
        (
            "chunk_bytes",
            ClusterConfig {
                chunk_bytes: 0,
                ..d()
            },
        ),
        (
            "checkpoint_interval_bytes",
            ClusterConfig {
                checkpoint_interval_bytes: 0,
                ..d()
            },
        ),
        (
            "max_replicas",
            ClusterConfig {
                autoscale: AutoscaleConfig {
                    min_replicas: 3,
                    max_replicas: 2,
                    ..AutoscaleConfig::default()
                },
                ..d()
            },
        ),
        (
            "sample_interval",
            ClusterConfig {
                autoscale: AutoscaleConfig {
                    enabled: true,
                    sample_interval: Duration::ZERO,
                    ..AutoscaleConfig::default()
                },
                ..d()
            },
        ),
        (
            "node 7",
            ClusterConfig {
                faults: FaultPlan::seeded(1).kill_node(7, 10, Duration::from_millis(5)),
                ..d()
            },
        ),
        ("heartbeat_interval", d().heartbeat(Duration::ZERO, 3)),
    ];
    for (field, cfg) in cases {
        let err = ClusterRuntimeBuilder::new(wc_workflow(1))
            .placement(Placement::with_nodes(2))
            .config(cfg)
            .register("start", |_| {})
            .register("count_0", |_| {})
            .register("merge", |_| {})
            .start()
            .err()
            .unwrap_or_else(|| panic!("a config with a bad {field} started"));
        assert!(
            matches!(&err, RtError::InvalidConfig(msg) if msg.contains(field)),
            "{field}: {err:?}"
        );
    }
}

#[test]
fn forget_releases_abandoned_request_state() {
    // start feeds only count_0, so merge never fires: the count table
    // parks in merge's sink and the request times out.
    let wf = wc_workflow(2);
    let rt = ClusterRuntimeBuilder::new(wf)
        .register("start", |ctx| {
            ctx.put_to("file", "count_0", Bytes::from_static(b"solo"));
        })
        .register("count_0", |ctx| {
            ctx.put("counts", Bytes::from_static(b"solo 1"));
        })
        .register("count_1", |ctx| {
            ctx.put("counts", Bytes::from_static(b"never 0"));
        })
        .register("merge", |ctx| {
            ctx.put("result", Bytes::from_static(b"r"));
        })
        .start()
        .unwrap();
    let req = rt.invoke(vec![("text".into(), Bytes::from_static(b"x"))]);
    assert_eq!(
        rt.wait(req, Duration::from_millis(300)).unwrap_err(),
        RtError::Timeout
    );
    assert!(
        rt.node(0).parked_entries() > 0,
        "count table should be parked"
    );
    rt.forget(req);
    assert_eq!(
        rt.node(0).parked_entries(),
        0,
        "forget must drop sink state"
    );
    assert_eq!(
        rt.wait(req, Duration::from_millis(10)).unwrap_err(),
        RtError::UnknownRequest
    );
    rt.shutdown();
}

#[test]
fn pressure_scales_executors_out_and_back_in() {
    use dataflower_rt::{AutoscaleConfig, ScaleDirection};

    // producer → sink across a deliberately slow link: the producer's
    // DLU backs up behind the shaped fabric, Eq. 1 pressure rises, the
    // autoscaler grows the pool; once drained it shrinks it again.
    let mut b = WorkflowBuilder::new("pipe");
    let producer = b.function("producer", WorkModel::fixed(0.001));
    let sink = b.function("sink", WorkModel::fixed(0.001));
    b.client_input(producer, "in", SizeModel::Fixed(1024.0));
    b.edge(producer, sink, "blob", SizeModel::Fixed(1024.0));
    b.client_output(sink, "out", SizeModel::Fixed(8.0));
    let wf = Arc::new(b.build().unwrap());

    let cfg = ClusterConfig {
        dlu_queue_capacity: 4,
        link: LinkConfig {
            bandwidth_bytes_per_sec: Some(8.0 * 1024.0 * 1024.0),
            queue_capacity: 4,
            ..LinkConfig::default()
        },
        autoscale: AutoscaleConfig {
            enabled: true,
            min_replicas: 1,
            max_replicas: 3,
            pressure_threshold_secs: 0.001,
            drain_bw_bytes_per_sec: 4.0 * 1024.0 * 1024.0,
            cooldown: Duration::from_millis(20),
            sample_interval: Duration::from_millis(1),
            ..AutoscaleConfig::default()
        },
        ..ClusterConfig::default()
    };
    let rt = ClusterRuntimeBuilder::new(wf)
        .placement(
            Placement::with_nodes(2)
                .assign("producer", 0)
                .assign("sink", 1),
        )
        .config(cfg)
        .register("producer", |ctx| {
            let blob = vec![0x5au8; 192 * 1024];
            ctx.put("blob", Bytes::from(blob));
        })
        .register("sink", |ctx| {
            let blob = ctx.input("blob").expect("blob");
            ctx.put("out", Bytes::from(vec![blob[0]]));
        })
        .start()
        .unwrap();

    // A burst of requests: ~3 MiB over an 8 MiB/s link keeps the
    // producer's DLU visibly backed up for hundreds of milliseconds.
    let reqs: Vec<_> = (0..16)
        .map(|_| rt.invoke(vec![("in".into(), Bytes::from_static(b"go"))]))
        .collect();
    for req in reqs {
        let outputs = rt.wait(req, Duration::from_secs(30)).unwrap();
        assert_eq!(outputs[0].1.as_ref(), &[0x5a]);
    }

    // Drained: wait (bounded) for the cool-down-guarded scale-in.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rt.stats().scale_in_events == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }

    let stats = rt.stats();
    assert!(
        stats.scale_out_events >= 1,
        "burst must trigger a scale-out"
    );
    assert!(stats.scale_in_events >= 1, "drain must trigger a scale-in");
    let replicas = rt.replicas_of("producer").unwrap();
    assert!(
        (1..=3).contains(&replicas),
        "pool outside bounds: {replicas}"
    );

    // The timeline tells the same story: at least one Out then one In
    // for the producer, in time order, all within [min, max].
    let timeline = rt.scaling_timeline();
    assert!(timeline.windows(2).all(|w| w[0].at <= w[1].at));
    assert!(timeline
        .iter()
        .any(|e| e.function == "producer" && e.direction == ScaleDirection::Out));
    assert!(timeline.iter().any(|e| e.direction == ScaleDirection::In));
    assert!(timeline
        .iter()
        .all(|e| e.to_replicas >= 1 && e.to_replicas <= 3));
    let replica_series = rt.replica_timeline();
    assert!(replica_series.max_value("producer") >= 2.0);
    rt.shutdown();
}

#[test]
fn disabled_autoscaler_keeps_pools_fixed() {
    let rt = build_wc(2);
    let req = rt.invoke(vec![("text".into(), Bytes::from_static(b"a b a"))]);
    rt.wait(req, Duration::from_secs(10)).unwrap();
    let stats = rt.stats();
    assert_eq!(stats.scale_out_events, 0);
    assert_eq!(stats.scale_in_events, 0);
    assert!(rt.scaling_timeline().is_empty());
    assert_eq!(rt.replicas_of("start"), Some(1));
    rt.shutdown();
}

// ---------------------------------------------------------------------
// Checkpoint-based fault recovery (§6.2)
// ---------------------------------------------------------------------

use dataflower_rt::FaultPlan;

/// Cluster config for the recovery tests: start and merge on node 0,
/// the counters on node 1, tiny chunks and checkpoint intervals so even
/// modest shards cross several marks, and a link slow enough that a
/// crash can reliably land mid-transfer.
fn recovery_cfg() -> ClusterConfig {
    ClusterConfig {
        chunk_bytes: 4 * 1024,
        checkpoint_interval_bytes: 8 * 1024,
        link: LinkConfig {
            bandwidth_bytes_per_sec: Some(4.0 * 1024.0 * 1024.0),
            ..LinkConfig::default()
        },
        recovery: Some(Duration::from_millis(50)),
        ..ClusterConfig::default()
    }
}

fn counts_on_node1(fan_out: usize) -> Placement {
    let mut p = Placement::with_nodes(2)
        .assign("start", 0)
        .assign("merge", 0);
    for i in 0..fan_out {
        p = p.assign(format!("count_{i}"), 1);
    }
    p
}

/// Reference output of the wordcount used by the recovery tests,
/// computed on a fault-free single-node runtime.
fn wc_reference(fan_out: usize, corpus: &str) -> Bytes {
    let rt = build_wc(fan_out);
    let req = rt.invoke(vec![("text".into(), Bytes::from(corpus.to_owned()))]);
    let out = rt.wait(req, Duration::from_secs(30)).unwrap();
    rt.shutdown();
    out[0].1.clone()
}

#[test]
fn crash_mid_transfer_recovers_byte_identically_from_the_last_mark() {
    let fan_out = 4;
    let corpus = big_corpus();
    let expected = wc_reference(fan_out, &corpus);

    let rt = build_wc_cluster(fan_out, counts_on_node1(fan_out), recovery_cfg());
    let req = rt.invoke(vec![("text".into(), Bytes::from(corpus.clone()))]);

    // Wait until node 1 is mid-reassembly past at least one checkpoint
    // mark, then crash it. The loop tolerates unlucky timing (a probe
    // that lands between transfers restarts the node and tries again).
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let crash = loop {
        assert!(
            std::time::Instant::now() < deadline,
            "never caught an in-flight checkpointed transfer"
        );
        if rt.node(1).inflight_transfers() > 0 && rt.stats().acked_marks > 0 {
            let report = rt.crash_node(1);
            if report.was_up && report.inflight_transfers > 0 && report.durable_bytes > 0 {
                break report;
            }
            rt.restart_node(1);
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    assert!(rt.node(1).is_down());
    std::thread::sleep(Duration::from_millis(10)); // outage: frames are lost
    rt.restart_node(1);
    assert!(!rt.node(1).is_down());

    let outputs = rt.wait(req, Duration::from_secs(30)).expect("recovered");
    assert_eq!(outputs[0].1, expected, "recovery must be byte-identical");

    assert_eq!(crash.node, 1);
    let stats = rt.stats();
    assert!(stats.node_crashes >= 1);
    assert!(stats.node_restarts >= stats.node_crashes);
    assert!(stats.recovered_transfers > 0, "restart replayed nothing");
    assert!(
        stats.resumed_from_mark_bytes > 0,
        "recovery restarted from byte 0 instead of the last checkpoint mark"
    );
    assert!(stats.replayed_bytes > 0);
    assert!(
        stats.frames_lost_to_crashes > 0,
        "the outage lost no frames"
    );
    assert_retention_drains(&rt);
    rt.shutdown();
}

/// Asserts the runtime's §6.2 retention windows drain to empty once the
/// workload quiesces. Acks run on the shipper threads, so drain briefly
/// lags `wait` returning; anything retained past a couple of retransmit
/// rounds is a real leak.
fn assert_retention_drains(rt: &ClusterRuntime) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rt.retained_transfers() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "retention leaked: {} transfer(s) never acked",
            rt.retained_transfers()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn crash_without_recovery_wedges_the_request() {
    let fan_out = 2;
    let cfg = ClusterConfig {
        link: LinkConfig {
            bandwidth_bytes_per_sec: Some(1024.0 * 1024.0),
            ..LinkConfig::default()
        },
        ..ClusterConfig::default() // recovery disabled
    };
    let rt = build_wc_cluster(fan_out, counts_on_node1(fan_out), cfg);
    rt.crash_node(1);
    let req = rt.invoke(vec![("text".into(), Bytes::from(big_corpus()))]);
    // The shards die at the dead node's ingress and nothing brings them
    // back: this is exactly the pre-recovery failure mode.
    assert!(matches!(
        rt.wait(req, Duration::from_millis(400)),
        Err(RtError::Timeout)
    ));
    rt.restart_node(1);
    rt.forget(req);
    rt.shutdown();
}

#[test]
fn seeded_fault_plan_chaos_stays_lossless_with_recovery() {
    let fan_out = 4;
    let corpus = big_corpus();
    let expected = wc_reference(fan_out, &corpus);

    let mut cfg = recovery_cfg();
    cfg.faults = FaultPlan::seeded(2026)
        .frame_chaos(0.08, 0.05)
        .delay_frames(0.02, Duration::from_millis(1))
        .kill_node(1, 30, Duration::from_millis(15));
    let rt = build_wc_cluster(fan_out, counts_on_node1(fan_out), cfg);
    let req = rt.invoke(vec![("text".into(), Bytes::from(corpus.clone()))]);
    let outputs = rt
        .wait(req, Duration::from_secs(60))
        .expect("survived chaos");
    assert_eq!(outputs[0].1, expected);

    let stats = rt.stats();
    assert!(stats.chaos_dropped_frames > 0, "the plan dropped nothing");
    assert!(stats.node_crashes >= 1, "the plan's kill never fired");
    assert_eq!(stats.node_crashes, stats.node_restarts);
    assert_retention_drains(&rt);
    rt.shutdown();
}

#[test]
fn duplicated_final_chunk_leaves_no_ghost_reassembler() {
    // `merge` needs a big chunked transfer plus a gate input that
    // arrives late, so the request is still parked when the duplicate
    // of the transfer's final chunk lands. A regression here re-creates
    // a never-completing reassembler for the already-finished transfer
    // (pinning a transfer-sized buffer and inflating the in-flight
    // gauge); the `done` set must recognize and ack the duplicate away.
    let mut b = dataflower_workflow::WorkflowBuilder::new("gated");
    let src = b.function("src", dataflower_workflow::WorkModel::fixed(0.001));
    let gate = b.function("gate", dataflower_workflow::WorkModel::fixed(0.001));
    let merge = b.function("merge", dataflower_workflow::WorkModel::fixed(0.001));
    b.client_input(src, "in", dataflower_workflow::SizeModel::Fixed(1024.0));
    b.client_input(gate, "go", dataflower_workflow::SizeModel::Fixed(8.0));
    b.edge(
        src,
        merge,
        "big",
        dataflower_workflow::SizeModel::Fixed(65536.0),
    );
    b.edge(
        gate,
        merge,
        "late",
        dataflower_workflow::SizeModel::Fixed(8.0),
    );
    b.client_output(merge, "out", dataflower_workflow::SizeModel::Fixed(8.0));
    let wf = Arc::new(b.build().unwrap());

    let mut cfg = recovery_cfg();
    cfg.link.bandwidth_bytes_per_sec = None; // unshaped: transfer finishes fast
    cfg.faults = FaultPlan::seeded(3).frame_chaos(0.0, 1.0); // duplicate EVERY frame
    let rt = ClusterRuntimeBuilder::new(Arc::clone(&wf))
        .placement(
            Placement::with_nodes(2)
                .assign("src", 0)
                .assign("gate", 0)
                .assign("merge", 1),
        )
        .config(cfg)
        .register("src", |ctx| {
            ctx.put("big", Bytes::from(vec![0xab; 64 * 1024]));
        })
        .register("gate", |ctx| {
            // Keep the request parked while the transfer (and its
            // duplicated final chunk) lands.
            std::thread::sleep(Duration::from_millis(150));
            ctx.put("late", Bytes::from_static(b"go"));
        })
        .register("merge", |ctx| {
            assert_eq!(ctx.input("big").unwrap().len(), 64 * 1024);
            ctx.put("out", Bytes::from_static(b"done"));
        })
        .start()
        .unwrap();

    let req = rt.invoke(vec![
        ("in".into(), Bytes::from_static(b"x")),
        ("go".into(), Bytes::from_static(b"y")),
    ]);
    // The big transfer parks in node 1's sink while `gate` sleeps; once
    // it is parked, every chunk — including the duplicated final one —
    // has been through ingress, and no ghost may remain in-flight.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while rt.node(1).parked_entries() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "transfer never parked"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        rt.node(1).inflight_transfers(),
        0,
        "a duplicated final chunk resurrected a completed transfer"
    );
    let outputs = rt.wait(req, Duration::from_secs(10)).unwrap();
    assert_eq!(&*outputs[0].1, b"done");
    assert_retention_drains(&rt);
    rt.shutdown();
}

#[test]
fn remote_pipe_hands_over_the_producers_allocation_in_process() {
    // 512 KiB over the streaming remote pipe at the default 64 KiB chunks
    // and 256 KiB checkpoint interval (8 chunks, 2 marks), recovery on so
    // the sender retains its views: the consumer on the other node must
    // see the very bytes the producer put — rejoined, never copied.
    use std::sync::atomic::{AtomicUsize, Ordering};
    const LEN: usize = 512 * 1024;
    let mut b = WorkflowBuilder::new("handoff");
    let src = b.function("src", WorkModel::fixed(0.001));
    let dst = b.function("dst", WorkModel::fixed(0.001));
    b.client_input(src, "in", SizeModel::Fixed(8.0));
    b.edge(src, dst, "big", SizeModel::Fixed(LEN as f64));
    b.client_output(dst, "out", SizeModel::Fixed(8.0));
    let wf = Arc::new(b.build().unwrap());

    let produced = Arc::new(AtomicUsize::new(0));
    let consumed = Arc::new(AtomicUsize::new(0));
    let (produced_by_src, consumed_by_dst) = (Arc::clone(&produced), Arc::clone(&consumed));
    let rt = ClusterRuntimeBuilder::new(wf)
        .placement(Placement::with_nodes(2).assign("src", 0).assign("dst", 1))
        .config(ClusterConfig::default().recovery(Duration::from_millis(50)))
        .register("src", move |ctx| {
            let payload: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
            produced_by_src.store(payload.as_ptr() as usize, Ordering::SeqCst);
            ctx.put("big", payload);
        })
        .register("dst", move |ctx| {
            let big = ctx.input("big").unwrap();
            assert_eq!(big.len(), LEN);
            assert!(big.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
            consumed_by_dst.store(big.as_ptr() as usize, Ordering::SeqCst);
            ctx.put("out", Bytes::from_static(b"done"));
        })
        .start()
        .unwrap();
    let req = rt.invoke(vec![("in".into(), Bytes::from_static(b"x"))]);
    rt.wait(req, Duration::from_secs(30)).unwrap();
    let stats = rt.stats();
    rt.shutdown();
    assert_eq!(stats.remote_pipe_transfers, 1);
    assert_eq!(stats.remote_chunks, 8);
    assert_eq!(stats.remote_checkpoints, 2);
    assert_ne!(produced.load(Ordering::SeqCst), 0);
    assert_eq!(
        consumed.load(Ordering::SeqCst),
        produced.load(Ordering::SeqCst),
        "the consumer's input is not the producer's allocation"
    );
}

// ---------------------------------------------------------------------
// Who routes a put (README § Performance, "Thread hand-offs per hop")
// ---------------------------------------------------------------------

/// `src` feeds `near` (data `small`) and `far` (data `big`); each of the
/// three has a client output so the request completes when all ran.
fn near_far_workflow() -> Arc<Workflow> {
    let mut b = WorkflowBuilder::new("near_far");
    let src = b.function("src", WorkModel::fixed(0.001));
    let near = b.function("near", WorkModel::fixed(0.001));
    let far = b.function("far", WorkModel::fixed(0.001));
    b.client_input(src, "in", SizeModel::Fixed(8.0));
    b.edge(src, near, "small", SizeModel::Fixed(1024.0));
    b.edge(src, far, "big", SizeModel::Fixed(1024.0));
    b.client_output(near, "near_out", SizeModel::Fixed(8.0));
    b.client_output(far, "far_out", SizeModel::Fixed(8.0));
    Arc::new(b.build().unwrap())
}

#[test]
fn local_hand_off_does_not_queue_behind_a_remote_stream() {
    // 2 MiB toward node 1 over a 16 MiB/s link whose queue holds two
    // 64 KiB chunks: the node's DLU daemon spends ≥ 100 ms feeding that
    // queue. The 1 KiB put that follows is a hand-off to a co-located
    // consumer — routed by the putting thread, it must not wait for the
    // daemon to get through the stream first.
    use std::sync::Mutex;
    use std::time::Instant;
    const BIG: usize = 2 * 1024 * 1024;
    let started: Arc<Mutex<BTreeMap<&'static str, Instant>>> = Arc::default();
    let stamp = |who: &'static str| {
        let started = Arc::clone(&started);
        move || {
            started.lock().unwrap().insert(who, Instant::now());
        }
    };
    let (src_at, near_at, far_at) = (stamp("src"), stamp("near"), stamp("far"));
    let rt = ClusterRuntimeBuilder::new(near_far_workflow())
        .placement(Placement::with_nodes(2).assign("far", 1))
        .config(ClusterConfig {
            link: LinkConfig {
                latency: Duration::ZERO,
                bandwidth_bytes_per_sec: Some(16.0 * 1024.0 * 1024.0),
                queue_capacity: 2,
            },
            ..ClusterConfig::default()
        })
        .register("src", move |ctx| {
            src_at();
            ctx.put("big", vec![1u8; BIG]);
            ctx.put("small", vec![2u8; 1024]);
        })
        .register("near", move |ctx| {
            near_at();
            ctx.put("near_out", Bytes::from_static(b"near"));
        })
        .register("far", move |ctx| {
            far_at();
            assert_eq!(ctx.input("big").unwrap().len(), BIG);
            ctx.put("far_out", Bytes::from_static(b"far"));
        })
        .start()
        .unwrap();
    let req = rt.invoke(vec![("in".into(), Bytes::from_static(b"x"))]);
    rt.wait(req, Duration::from_secs(30)).unwrap();
    let stats = rt.stats();
    rt.shutdown();
    assert_eq!(stats.remote_pipe_transfers, 1);
    assert_eq!(stats.remote_chunks, 32);
    let started = started.lock().unwrap();
    let near = started["near"].duration_since(started["src"]);
    let stream = started["far"].duration_since(started["src"]);
    assert!(
        near * 4 < stream,
        "the co-located consumer started {near:?} after its producer; \
         the stream beside it took {stream:?}"
    );
}

#[test]
fn consumer_starts_while_its_producer_is_still_inside_the_body() {
    // The data-flow property, without a clock: `src` puts, then refuses
    // to return until its consumer has *started*, and the consumer
    // refuses to finish until `src` is past its `put`. A runtime that
    // deferred the trigger to the body's return would sit out the first
    // gate's timeout, one that ran the consumer on the producer's thread
    // inside `put` the second's. Once over a local pipe on one node
    // (active slots: one per function), once over a direct socket across
    // a link.
    use std::sync::mpsc;
    use std::sync::Mutex;
    const GATE: Duration = Duration::from_secs(10);
    for (nodes, len, far_node) in [(1, 64 * 1024, 0), (2, 1024, 1)] {
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (past_put_tx, past_put_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = (Mutex::new(started_tx), Mutex::new(started_rx));
        let (past_put_tx, past_put_rx) = (Mutex::new(past_put_tx), Mutex::new(past_put_rx));
        let gates_passed = Arc::new(Mutex::new(Vec::new()));
        let (src_gate, far_gate) = (Arc::clone(&gates_passed), Arc::clone(&gates_passed));
        let rt = ClusterRuntimeBuilder::new(near_far_workflow())
            .placement(Placement::with_nodes(nodes).assign("far", far_node))
            .register("src", move |ctx| {
                ctx.put("big", vec![1u8; len]);
                past_put_tx.lock().unwrap().send(()).unwrap();
                let started = started_rx.lock().unwrap().recv_timeout(GATE).is_ok();
                src_gate.lock().unwrap().push(("consumer started", started));
                ctx.put("small", Bytes::from_static(b"s"));
            })
            .register("near", |ctx| {
                ctx.put("near_out", Bytes::from_static(b"near"))
            })
            .register("far", move |ctx| {
                started_tx.lock().unwrap().send(()).unwrap();
                let past_put = past_put_rx.lock().unwrap().recv_timeout(GATE).is_ok();
                far_gate
                    .lock()
                    .unwrap()
                    .push(("producer past its put", past_put));
                ctx.put("far_out", Bytes::from_static(b"far"));
            })
            .start()
            .unwrap();
        let req = rt.invoke(vec![("in".into(), Bytes::from_static(b"x"))]);
        rt.wait(req, Duration::from_secs(30)).unwrap();
        let stats = rt.stats();
        rt.shutdown();
        let mut gates = gates_passed.lock().unwrap().clone();
        gates.sort_unstable();
        assert_eq!(
            gates,
            [("consumer started", true), ("producer past its put", true)],
            "{nodes} node(s)"
        );
        assert_eq!(
            (stats.local_pipe_transfers, stats.remote_pipe_transfers),
            (u64::from(nodes == 1), 0),
            "{nodes} node(s): the gated put was meant to be a hand-off"
        );
    }
}
