//! Property-based tests of the core data structures and invariants.
//!
//! Uses an in-tree property harness instead of an external framework:
//! [`Gen`] draws structured random inputs from the workspace's own
//! deterministic [`SimRng`], [`check`] runs [`cases`] seeded cases per
//! property, and a failing case prints its seed so the exact input can be
//! replayed with `Gen::new(seed)`.

use std::panic::AssertUnwindSafe;

use dataflower::{CheckpointSchedule, WaitMatchMemory};
use dataflower_cluster::RequestId;
use dataflower_metrics::{Samples, StepIntegral};
use dataflower_sim::{EventQueue, FlowNet, SimRng, SimTime};
use dataflower_workflow::{EdgeId, FnId, SizeModel, WorkModel, WorkflowBuilder, WorkflowSpec};

/// Seeded cases run per property; overridable via the `PROP_CASES`
/// environment variable (the weekly CI drift job runs 256).
fn cases() -> u64 {
    std::env::var("PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(64)
}

/// A deterministic generator of structured random test inputs.
struct Gen {
    rng: SimRng,
}

impl Gen {
    /// Creates the generator for one case; re-create with a printed seed
    /// to replay a failure exactly.
    fn new(seed: u64) -> Gen {
        Gen {
            rng: SimRng::seed_from(seed),
        }
    }

    /// Uniform `f64` in `[lo, hi)`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.uniform(lo, hi)
    }

    /// Uniform `usize` in `[lo, hi)`.
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.rng.index(hi - lo)
    }

    /// Uniform `u64` in `[lo, hi)`.
    fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.rng.index((hi - lo) as usize) as u64
    }

    /// Shuffles `items` in place (Fisher-Yates on the generator).
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.usize_in(0, i + 1));
        }
    }

    /// A vector of `[min_len, max_len)` elements drawn by `item`.
    fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| item(self)).collect()
    }
}

/// Runs `body` for [`cases`] deterministic seeds; on a panic, prints the
/// property name and the seed that reproduces it, then re-raises.
fn check(property: &str, body: impl Fn(&mut Gen)) {
    let cases = cases();
    for case in 0..cases {
        // Distinct stream per (property, case): FNV-1a over the name,
        // mixed with the case index.
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in property.bytes() {
            seed = (seed ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let seed = seed.wrapping_add(case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut g = Gen::new(seed);
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(|| body(&mut g))) {
            eprintln!(
                "property `{property}` failed on case {case}/{cases} with seed {seed}; \
                 replay with Gen::new({seed})"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// FlowNet conserves bytes: every started flow eventually completes
/// carrying exactly the bytes it was given, and completion times are
/// non-decreasing.
#[test]
fn flownet_conserves_bytes() {
    check("flownet_conserves_bytes", |g| {
        let caps = g.vec(1, 4, |g| g.f64_in(1.0, 1e6));
        let flows = g.vec(1, 20, |g| {
            (g.usize_in(0, 4), g.f64_in(1.0, 1e6), g.u64_in(0, 5_000_000))
        });
        let mut net = FlowNet::new();
        let links: Vec<_> = caps.iter().map(|c| net.add_link(*c)).collect();
        let mut expected = Vec::new();
        for (tag, (li, bytes, start_us)) in flows.iter().enumerate() {
            let path = [links[li % links.len()]];
            net.start_flow(SimTime::from_micros(*start_us), &path, *bytes, tag as u64);
            expected.push(*bytes);
        }
        let done = net.advance(SimTime::from_secs(1_000_000));
        assert_eq!(done.len(), expected.len());
        for c in &done {
            let exp = expected[c.tag as usize];
            assert!((c.bytes - exp).abs() < 1e-6);
            assert!(c.at >= c.started);
        }
        // Completions are reported in time order.
        assert!(done.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(net.active_flows(), 0);
    });
}

/// Flow rates never exceed any traversed link's capacity.
#[test]
fn flownet_respects_capacities() {
    check("flownet_respects_capacities", |g| {
        let cap = g.f64_in(1.0, 1e5);
        let n = g.usize_in(1, 10);
        let mut net = FlowNet::new();
        let l = net.add_link(cap);
        let flows: Vec<_> = (0..n)
            .map(|i| net.start_flow(SimTime::ZERO, &[l], 1e6, i as u64))
            .collect();
        let total: f64 = flows.iter().filter_map(|f| net.flow_rate(*f)).sum();
        assert!(total <= cap * (1.0 + 1e-9), "total {total} > cap {cap}");
        // Fair share: all equal.
        for f in &flows {
            assert!((net.flow_rate(*f).unwrap() - cap / n as f64).abs() < 1e-6);
        }
    });
}

/// Percentiles are monotone in q, bounded by min/max, and the CDF ends
/// at 1.
#[test]
fn samples_percentiles_are_sound() {
    check("samples_percentiles_are_sound", |g| {
        let values = g.vec(1, 200, |g| g.f64_in(0.0, 1e9));
        let q1 = g.f64_in(0.0, 1.0);
        let q2 = g.f64_in(0.0, 1.0);
        let s: Samples = values.iter().copied().collect();
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        assert!(s.percentile(lo) <= s.percentile(hi) + 1e-9);
        assert!(s.percentile(0.0) >= s.min() - 1e-9);
        assert!(s.percentile(1.0) <= s.max() + 1e-9);
        assert!(s.mean() >= s.min() - 1e-9 && s.mean() <= s.max() + 1e-9);
        let cdf = s.cdf();
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    });
}

/// A step integral equals the sum of per-interval areas.
#[test]
fn step_integral_matches_manual_sum() {
    check("step_integral_matches_manual_sum", |g| {
        let steps = g.vec(1, 30, |g| (g.f64_in(0.0, 100.0), g.f64_in(0.0, 50.0)));
        let mut times: Vec<f64> = steps.iter().map(|(dt, _)| *dt).collect();
        // Build a monotone timeline from the deltas.
        let mut t = 0.0;
        for dt in &mut times {
            t += *dt;
            *dt = t;
        }
        let end = t + 1.0;
        let mut m = StepIntegral::new();
        let mut manual = 0.0;
        let mut last_t = 0.0;
        let mut last_v = 0.0;
        for (i, (_, v)) in steps.iter().enumerate() {
            let at = times[i];
            manual += last_v * (at - last_t);
            m.set(at, *v);
            last_t = at;
            last_v = *v;
        }
        manual += last_v * (end - last_t);
        assert!((m.finish(end) - manual).abs() < 1e-6);
    });
}

/// Checkpoint resume never loses data and never re-sends more than one
/// interval past the untransferred remainder.
#[test]
fn checkpoint_resume_is_bounded() {
    check("checkpoint_resume_is_bounded", |g| {
        let interval = g.f64_in(1.0, 1e6);
        let total = g.f64_in(0.0, 1e8);
        let progress = g.f64_in(0.0, 1.2);
        let cp = CheckpointSchedule::new(interval);
        let transferred = total * progress;
        let resume = cp.resume_bytes(total, transferred);
        let remainder = (total - transferred).max(0.0);
        assert!(
            resume + 1e-9 >= remainder,
            "resume {resume} < remainder {remainder}"
        );
        assert!(resume <= remainder + interval + 1e-9);
        assert!(resume <= total + 1e-9);
    });
}

/// The Wait-Match memory's accounting equals the sum of its entries under
/// arbitrary insert/spill/take interleavings.
#[test]
fn wait_match_accounting_is_exact() {
    check("wait_match_accounting_is_exact", |g| {
        let ops = g.vec(1, 60, |g| {
            (
                g.usize_in(0, 3) as u8,
                g.usize_in(0, 4),
                g.usize_in(0, 4),
                g.usize_in(0, 4),
                g.f64_in(1.0, 1e6),
            )
        });
        let mut sink = WaitMatchMemory::new();
        let mut model: std::collections::HashMap<(usize, usize, usize), (f64, bool)> =
            std::collections::HashMap::new();
        for (op, r, f, e, bytes) in ops {
            let (req, func, edge) = (
                RequestId::from_index(r),
                FnId::from_index(f),
                EdgeId::from_index(e),
            );
            match op {
                0 => {
                    sink.insert(req, func, edge, bytes, SimTime::ZERO);
                    model.insert((r, f, e), (bytes, false));
                }
                1 => {
                    sink.spill(req, func, edge);
                    if let Some(entry) = model.get_mut(&(r, f, e)) {
                        entry.1 = true;
                    }
                }
                _ => {
                    sink.take_inputs(req, func);
                    model.retain(|(mr, mf, _), _| !(*mr == r && *mf == f));
                }
            }
            let mem: f64 = model.values().filter(|(_, d)| !d).map(|(b, _)| b).sum();
            let disk: f64 = model.values().filter(|(_, d)| *d).map(|(b, _)| b).sum();
            assert!((sink.resident_memory_bytes() - mem).abs() < 1e-6);
            assert!((sink.resident_disk_bytes() - disk).abs() < 1e-6);
            assert_eq!(sink.len(), model.len());
        }
    });
}

/// Random fan-out/fan-in workflows always validate, their topological
/// order respects every edge, and their spec round-trips through JSON.
#[test]
fn random_workflows_validate_and_roundtrip() {
    check("random_workflows_validate_and_roundtrip", |g| {
        let layers = g.vec(1, 5, |g| g.usize_in(1, 5));
        let seed = g.u64_in(0, 1000);
        let mut b = WorkflowBuilder::new("random");
        let mut prev_layer: Vec<_> = Vec::new();
        let mut rng = seed;
        let mut next = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        for (li, width) in layers.iter().enumerate() {
            let layer: Vec<_> = (0..*width)
                .map(|k| b.function(format!("f{li}_{k}"), WorkModel::fixed(0.01)))
                .collect();
            for (k, f) in layer.iter().enumerate() {
                if prev_layer.is_empty() {
                    b.client_input(*f, format!("in{k}"), SizeModel::Fixed(1024.0));
                } else {
                    // At least one upstream edge, possibly more.
                    let p = prev_layer[next() as usize % prev_layer.len()];
                    b.edge(p, *f, format!("d{li}_{k}"), SizeModel::ScaleOfInput(0.5));
                    if next() % 2 == 0 {
                        let p2 = prev_layer[next() as usize % prev_layer.len()];
                        if p2 != p {
                            b.edge(p2, *f, format!("e{li}_{k}"), SizeModel::Fixed(64.0));
                        }
                    }
                }
            }
            // Every layer's functions need an output; give stragglers a
            // client output (also makes terminals legal).
            for f in &layer {
                b.client_output(*f, "out", SizeModel::Fixed(8.0));
            }
            prev_layer = layer;
        }
        let wf = b.build().expect("layered DAGs are always valid");
        // Topo order respects edges.
        let pos: std::collections::HashMap<_, _> = wf
            .topo_order()
            .iter()
            .enumerate()
            .map(|(i, f)| (*f, i))
            .collect();
        for e in wf.edges() {
            if let (
                dataflower_workflow::Endpoint::Function(s),
                dataflower_workflow::Endpoint::Function(t),
            ) = (e.source, e.target)
            {
                assert!(pos[&s] < pos[&t]);
            }
        }
        // Spec JSON round-trip is semantically lossless: compiling the
        // spec and re-extracting it reaches a canonical fixed point
        // (edge declaration order is grouped per producer, so raw
        // workflow equality is not preserved — spec equality is).
        let spec = WorkflowSpec::from_workflow(&wf);
        let back = WorkflowSpec::from_json(&spec.to_json())
            .unwrap()
            .compile()
            .unwrap();
        assert_eq!(&spec, &WorkflowSpec::from_workflow(&back));
        assert_eq!(wf.function_count(), back.function_count());
        assert_eq!(wf.edges().len(), back.edges().len());
    });
}

/// Event queue pops in non-decreasing time order with FIFO ties, for
/// arbitrary schedules.
#[test]
fn event_queue_total_order() {
    check("event_queue_total_order", |g| {
        let times = g.vec(1, 100, |g| g.u64_in(0, 1_000));
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(*t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t >= lt);
                if t == lt {
                    assert!(i > li, "FIFO violated for equal timestamps");
                }
            }
            last = Some((t, i));
        }
    });
}

/// Remote-pipe chunking reassembles byte-identical payloads for
/// arbitrary payload/chunk sizes, even when chunks land out of order.
#[test]
fn remote_chunking_reassembles_byte_identical() {
    use dataflower_rt::{chunk_spans, Reassembler};
    check("remote_chunking_reassembles_byte_identical", |g| {
        let len = g.usize_in(0, 120_000);
        let chunk = g.usize_in(1, 70_000);
        let mut seed = g.u64_in(1, u64::MAX - 1);
        let payload: Vec<u8> = (0..len)
            .map(|_| {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (seed >> 33) as u8
            })
            .collect();
        let mut spans = chunk_spans(len, chunk);
        // Spans are contiguous, ordered and cover the payload exactly;
        // an empty payload yields no spans at all (it ships as a single
        // direct frame, never an empty chunk).
        if len == 0 {
            assert!(spans.is_empty());
            let r = Reassembler::new(0);
            assert!(r.complete());
            assert!(r.into_bytes().is_empty());
            return;
        }
        assert_eq!(spans.first().unwrap().0, 0);
        assert_eq!(spans.last().unwrap().1, len);
        for w in spans.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        g.shuffle(&mut spans); // arrival order
        let mut r = Reassembler::new(len);
        for (i, (lo, hi)) in spans.iter().enumerate() {
            if i + 1 < spans.len() && len > 0 {
                assert!(!r.complete() || *lo == *hi || spans.len() == 1);
            }
            assert!(r.write(*lo, &payload[*lo..*hi]), "in-bounds write refused");
        }
        assert!(r.complete());
        assert_eq!(&*r.into_bytes(), &payload[..]);
    });
}

/// The `Reassembler` against a plain `Vec<Option<u8>>` model, driven the
/// way both media drive it: `write_bytes` with views of the payload's
/// own allocation (the in-process fabric) and with independent copies
/// (TCP-shaped), plain `write`, arbitrary spans — so shuffled order,
/// duplicates, gaps and partial overlaps all occur — overruns, and
/// `rollback_to` at random marks. After every step the coverage answers
/// match the model's; at the end the payload is byte-identical.
#[test]
fn reassembler_matches_a_byte_coverage_model() {
    use dataflower_rt::{chunk_spans, Bytes, Reassembler};
    fn model_prefix(model: &[Option<u8>]) -> usize {
        model
            .iter()
            .position(Option::is_none)
            .unwrap_or(model.len())
    }
    check("reassembler_matches_a_byte_coverage_model", |g| {
        let len = g.usize_in(1, 4096);
        let payload = Bytes::from((0..len).map(|i| (i * 31 + 7) as u8).collect::<Vec<_>>());
        let mut model: Vec<Option<u8>> = vec![None; len];
        let mut r = Reassembler::new(len);
        // Random steps first — half of them starting at byte 0 or at the
        // frontier, where adoption and joining happen — then every span
        // once so the transfer ends.
        let random_steps = g.usize_in(0, 24);
        let mut tail = chunk_spans(len, g.usize_in(1, len + 1));
        if g.usize_in(0, 2) == 0 {
            g.shuffle(&mut tail);
        }
        for step in 0..random_steps + tail.len() {
            let (lo, hi) = if step < random_steps {
                let lo = match g.usize_in(0, 4) {
                    0 => 0,
                    1 => (r.contiguous_prefix().saturating_sub(g.usize_in(0, 3))).min(len - 1),
                    _ => g.usize_in(0, len),
                };
                let longest = if g.usize_in(0, 2) == 0 { 4 } else { len };
                (lo, g.usize_in(lo, (lo + longest).min(len) + 1))
            } else {
                tail[step - random_steps]
            };
            match g.usize_in(0, 8) {
                0 if step < random_steps => {
                    let mark = g.usize_in(0, len + 1);
                    r.rollback_to(mark);
                    model[mark..].fill(None);
                    assert_eq!(r.contiguous_prefix(), model_prefix(&model));
                }
                1 => {
                    // Overruns are refused and change nothing.
                    assert!(!r.write_bytes(lo + 1, payload.slice(lo..)));
                    assert!(!r.write(len, &payload[..1]));
                }
                _ => {}
            }
            let accepted = match g.usize_in(0, 3) {
                0 => r.write_bytes(lo, payload.slice(lo..hi)),
                1 => r.write_bytes(lo, Bytes::copy_from_slice(&payload[lo..hi])),
                _ => r.write(lo, &payload[lo..hi]),
            };
            assert!(accepted, "in-bounds chunk {lo}..{hi} refused");
            for i in lo..hi {
                model[i] = Some(payload[i]);
            }
            let prefix = model_prefix(&model);
            assert_eq!(r.contiguous_prefix(), prefix);
            assert_eq!(r.complete(), prefix == len);
        }
        assert!(r.complete());
        assert_eq!(r.into_bytes(), payload);
    });
}

/// What the in-process fabric delivers — the payload's own chunk views,
/// in order — is reassembled with **zero copies**: the result is the
/// sender's allocation, also when a duplicate arrives, and also after a
/// crash rolled the stream back to a mark and the sender replayed its
/// retained views from there.
#[test]
fn in_order_views_reassemble_without_a_copy() {
    use dataflower_rt::{chunk_spans, Bytes, Reassembler};
    check("in_order_views_reassemble_without_a_copy", |g| {
        let len = g.usize_in(1, 120_000);
        let payload = Bytes::from(vec![0xA5u8; len]);
        let spans = chunk_spans(len, g.usize_in(1, 70_000));
        let crash_after = g.usize_in(0, spans.len() + 1);
        let mut r = Reassembler::new(len);
        for &(lo, hi) in &spans[..crash_after] {
            assert!(r.write_bytes(lo, payload.slice(lo..hi)));
            if g.usize_in(0, 4) == 0 {
                assert!(r.write_bytes(lo, payload.slice(lo..hi)), "duplicate");
            }
        }
        // The mark is a chunk boundary at or below what arrived.
        let resume = g.usize_in(0, crash_after + 1);
        let mark = spans.get(resume).map_or(len, |&(lo, _)| lo);
        r.rollback_to(mark);
        assert_eq!(r.contiguous_prefix(), mark);
        for &(lo, hi) in &spans[resume..] {
            assert!(!r.complete());
            assert!(r.write_bytes(lo, payload.slice(lo..hi)));
        }
        assert!(r.complete());
        let out = r.into_bytes();
        assert!(std::ptr::eq(out.as_ptr(), &payload[0]), "a copy was made");
        assert_eq!(out.len(), len);
    });
}

/// The multi-node fabric neither loses nor duplicates payloads under
/// random placements: a fan-out/echo/fan-in workflow returns the client
/// payload byte-identical for any assignment of functions to nodes, any
/// chunk size, and any direct-socket threshold, and the transfer
/// counters account for every inter-function edge exactly once.
#[test]
fn multinode_fabric_loses_nothing_under_random_placements() {
    use dataflower_rt::{Bytes, ClusterConfig, ClusterRuntimeBuilder, Placement};
    check(
        "multinode_fabric_loses_nothing_under_random_placements",
        |g| {
            let fan = g.usize_in(1, 5);
            let nodes = g.usize_in(1, 4);
            let len = g.usize_in(0, 60_000);
            let chunk_bytes = g.usize_in(256, 4096);
            // Sometimes force even tiny payloads through the remote pipe.
            let threshold = if g.usize_in(0, 2) == 0 { 1 } else { 16 * 1024 };
            let mut seed = g.u64_in(1, u64::MAX - 1);
            let payload: Vec<u8> = (0..len)
                .map(|_| {
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (seed >> 33) as u8
                })
                .collect();

            // start --shard--> relay_i --echo--> merge --out--> client
            let mut b = WorkflowBuilder::new("echo");
            let start = b.function("start", WorkModel::fixed(0.001));
            let merge = b.function("merge", WorkModel::fixed(0.001));
            b.client_input(start, "in", SizeModel::Fixed(1024.0));
            for i in 0..fan {
                let relay = b.function(format!("relay_{i}"), WorkModel::fixed(0.001));
                b.edge(start, relay, "shard", SizeModel::Fixed(256.0));
                b.edge(relay, merge, "echo", SizeModel::Fixed(256.0));
            }
            b.client_output(merge, "out", SizeModel::Fixed(256.0));
            let wf = std::sync::Arc::new(b.build().unwrap());

            let mut placement = Placement::with_nodes(nodes);
            for f in wf.function_ids() {
                placement = placement.assign(wf.function(f).name.clone(), g.usize_in(0, nodes));
            }

            let fan_c = fan;
            let mut builder = ClusterRuntimeBuilder::new(std::sync::Arc::clone(&wf))
                .placement(placement)
                .config(ClusterConfig {
                    dlu_queue_capacity: g.usize_in(1, 8),
                    direct_threshold_bytes: threshold,
                    chunk_bytes,
                    ..ClusterConfig::default()
                })
                .register("start", move |ctx| {
                    let data = ctx.input("in").expect("client payload").clone();
                    let base = data.len() / fan_c;
                    let extra = data.len() % fan_c;
                    let mut lo = 0;
                    for i in 0..fan_c {
                        let hi = lo + base + usize::from(i < extra);
                        ctx.put_to(
                            "shard",
                            format!("relay_{i}"),
                            Bytes::copy_from_slice(&data[lo..hi]),
                        );
                        lo = hi;
                    }
                });
            for i in 0..fan {
                builder = builder.register(format!("relay_{i}"), |ctx| {
                    let shard = ctx.input("shard").expect("shard").clone();
                    ctx.put("echo", shard);
                });
            }
            let rt = builder
                .register("merge", |ctx| {
                    // Producer-ordered fan-in: relay_0..relay_N concatenate
                    // back into the original payload.
                    let out: Vec<u8> = ctx
                        .inputs_named("echo")
                        .into_iter()
                        .flat_map(|b| b.iter().copied())
                        .collect();
                    ctx.put("out", Bytes::from(out));
                })
                .start()
                .unwrap();

            let req = rt.invoke(vec![("in".into(), Bytes::from(payload.clone()))]);
            let outputs = rt
                .wait(req, std::time::Duration::from_secs(30))
                .expect("echo workflow completes");
            assert_eq!(outputs.len(), 1);
            assert_eq!(
                &*outputs[0].1,
                &payload[..],
                "payload lost, duplicated or reordered in transit"
            );

            let stats = rt.stats();
            assert_eq!(stats.invocations, fan as u64 + 2);
            assert_eq!(stats.deliveries, 2 * fan as u64 + 1);
            assert_eq!(
                stats.inter_function_transfers(),
                2 * fan as u64,
                "each inter-function edge must be shipped exactly once"
            );
            rt.shutdown();
        },
    );
}

/// The autoscaler's decision kernel keeps every pool inside
/// `[min, max]`: starting anywhere (even out of bounds), applying its
/// decisions converges into the range and never leaves it again, for
/// arbitrary pressure trajectories, thresholds and cool-downs.
#[test]
fn autoscaler_replicas_stay_within_bounds() {
    use dataflower_rt::{AutoscaleConfig, ScaleDirection, ScalePolicy};
    check("autoscaler_replicas_stay_within_bounds", |g| {
        let min = g.usize_in(1, 4);
        let max = min + g.usize_in(0, 4);
        let cfg = AutoscaleConfig {
            enabled: true,
            min_replicas: min,
            max_replicas: max,
            pressure_threshold_secs: g.f64_in(0.0, 0.1),
            cooldown: std::time::Duration::from_secs_f64(g.f64_in(0.0, 0.05)),
            ..AutoscaleConfig::default()
        };
        let mut policy = ScalePolicy::new(&cfg);
        let mut replicas = g.usize_in(0, 10); // possibly out of bounds
        let mut in_bounds = (min..=max).contains(&replicas);
        let mut now = 0.0;
        for _ in 0..300 {
            now += g.f64_in(0.0, 0.02);
            let pressure = g.f64_in(-0.05, 0.2);
            match policy.decide(now, pressure, replicas) {
                Some(ScaleDirection::Out) => replicas += 1,
                Some(ScaleDirection::In) => {
                    assert!(replicas > 0, "scale-in from an empty pool");
                    replicas -= 1;
                }
                None => {}
            }
            if in_bounds {
                assert!(
                    (min..=max).contains(&replicas),
                    "pool left [{min}, {max}]: {replicas}"
                );
            }
            in_bounds = in_bounds || (min..=max).contains(&replicas);
        }
        assert!(
            (min..=max).contains(&replicas),
            "bounds repair never converged: {replicas} not in [{min}, {max}]"
        );
    });
}

/// A monotone pressure ramp eventually crosses the threshold and the
/// policy scales out, whatever the threshold and cool-down.
#[test]
fn autoscaler_monotone_pressure_ramp_triggers_scale_out() {
    use dataflower_rt::{AutoscaleConfig, ScaleDirection, ScalePolicy};
    check(
        "autoscaler_monotone_pressure_ramp_triggers_scale_out",
        |g| {
            let threshold = g.f64_in(0.001, 0.1);
            let cfg = AutoscaleConfig {
                enabled: true,
                min_replicas: 1,
                max_replicas: 1 + g.usize_in(1, 5),
                pressure_threshold_secs: threshold,
                cooldown: std::time::Duration::from_secs_f64(g.f64_in(0.0, 0.01)),
                ..AutoscaleConfig::default()
            };
            let mut policy = ScalePolicy::new(&cfg);
            let mut pressure = -threshold;
            let mut now = 0.0;
            let mut scaled_out = false;
            for _ in 0..500 {
                now += 0.02; // every step clears the (≤ 10 ms) cool-down
                pressure += g.f64_in(threshold / 10.0, threshold / 2.0); // monotone ramp
                if policy.decide(now, pressure, 1) == Some(ScaleDirection::Out) {
                    scaled_out = true;
                    break;
                }
            }
            assert!(scaled_out, "ramp past the threshold must trigger scale-out");
        },
    );
}

/// Elastic scaling never corrupts data: the fan-out/echo/fan-in workflow
/// returns the client payload byte-identical — and invokes each function
/// exactly once per request — under random autoscale knobs, placements
/// and payloads, however many scale events fire mid-run.
#[test]
fn live_outputs_byte_identical_under_random_scaling() {
    use dataflower_rt::{
        AutoscaleConfig, Bytes, ClusterConfig, ClusterRuntimeBuilder, LoadAware, PlacementPolicy,
    };
    check("live_outputs_byte_identical_under_random_scaling", |g| {
        let fan = g.usize_in(1, 4);
        let nodes = g.usize_in(1, 4);
        let len = g.usize_in(0, 40_000);
        let requests = g.usize_in(1, 4);
        let mut seed = g.u64_in(1, u64::MAX - 1);
        let payload: Vec<u8> = (0..len)
            .map(|_| {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (seed >> 33) as u8
            })
            .collect();

        let mut b = WorkflowBuilder::new("echo");
        let start = b.function("start", WorkModel::fixed(0.001));
        let merge = b.function("merge", WorkModel::fixed(0.001));
        b.client_input(start, "in", SizeModel::Fixed(1024.0));
        for i in 0..fan {
            let relay = b.function(format!("relay_{i}"), WorkModel::fixed(0.001));
            b.edge(start, relay, "shard", SizeModel::Fixed(256.0));
            b.edge(relay, merge, "echo", SizeModel::Fixed(256.0));
        }
        b.client_output(merge, "out", SizeModel::Fixed(256.0));
        let wf = std::sync::Arc::new(b.build().unwrap());

        let max_replicas = 1 + g.usize_in(0, 3);
        let autoscale = AutoscaleConfig {
            enabled: true,
            min_replicas: 1,
            max_replicas,
            // Sometimes a zero threshold: any queued byte triggers.
            pressure_threshold_secs: g.f64_in(0.0, 0.005),
            drain_bw_bytes_per_sec: g.f64_in(1e5, 1e7),
            cooldown: std::time::Duration::from_secs_f64(g.f64_in(0.0, 0.01)),
            sample_interval: std::time::Duration::from_micros(g.u64_in(200, 2_000)),
            ..AutoscaleConfig::default()
        };

        let fan_c = fan;
        let mut builder = ClusterRuntimeBuilder::new(std::sync::Arc::clone(&wf))
            .placement(LoadAware::idle().initial(&wf, nodes))
            .config(ClusterConfig {
                dlu_queue_capacity: g.usize_in(1, 8),
                chunk_bytes: g.usize_in(256, 4096),
                autoscale,
                ..ClusterConfig::default()
            })
            .register("start", move |ctx| {
                let data = ctx.input("in").expect("client payload").clone();
                let base = data.len() / fan_c;
                let extra = data.len() % fan_c;
                let mut lo = 0;
                for i in 0..fan_c {
                    let hi = lo + base + usize::from(i < extra);
                    ctx.put_to(
                        "shard",
                        format!("relay_{i}"),
                        Bytes::copy_from_slice(&data[lo..hi]),
                    );
                    lo = hi;
                }
            });
        for i in 0..fan {
            builder = builder.register(format!("relay_{i}"), |ctx| {
                let shard = ctx.input("shard").expect("shard").clone();
                ctx.put("echo", shard);
            });
        }
        let rt = builder
            .register("merge", |ctx| {
                let out: Vec<u8> = ctx
                    .inputs_named("echo")
                    .into_iter()
                    .flat_map(|b| b.iter().copied())
                    .collect();
                ctx.put("out", Bytes::from(out));
            })
            .start()
            .unwrap();

        let reqs: Vec<_> = (0..requests)
            .map(|_| rt.invoke(vec![("in".into(), Bytes::from(payload.clone()))]))
            .collect();
        for req in reqs {
            let outputs = rt
                .wait(req, std::time::Duration::from_secs(30))
                .expect("echo workflow completes under scaling");
            assert_eq!(outputs.len(), 1);
            assert_eq!(
                &*outputs[0].1,
                &payload[..],
                "payload corrupted while the pool was scaling"
            );
        }

        let stats = rt.stats();
        assert_eq!(
            stats.invocations,
            (requests * (fan + 2)) as u64,
            "scaling must not duplicate or drop invocations"
        );
        for f in wf.function_ids() {
            let name = &wf.function(f).name;
            let replicas = rt.replicas_of(name).unwrap();
            assert!(
                (1..=max_replicas).contains(&replicas),
                "{name} pool outside [1, {max_replicas}]: {replicas}"
            );
        }
        rt.shutdown();
    });
}

/// `Bytes::slice` views are byte-identical to the ranges they name:
/// cutting a payload at random points and rejoining the slices
/// reproduces the original, views keep the parent allocation alive after
/// the parent drops, and out-of-range slices panic predictably instead
/// of reading garbage.
#[test]
fn bytes_slice_rejoins_byte_identical() {
    use dataflower_rt::Bytes;
    check("bytes_slice_rejoins_byte_identical", |g| {
        let len = g.usize_in(0, 8_192);
        let payload: Vec<u8> = (0..len).map(|_| g.u64_in(0, 256) as u8).collect();
        let b = Bytes::from(payload.clone());

        // Random ascending cut points over [0, len].
        let mut cuts: Vec<usize> = g.vec(0, 8, |g| g.usize_in(0, len + 1));
        cuts.push(0);
        cuts.push(len);
        cuts.sort_unstable();
        let slices: Vec<Bytes> = cuts.windows(2).map(|w| b.slice(w[0]..w[1])).collect();

        // Slicing is zero-copy: every non-empty view aliases the parent.
        for (w, s) in cuts.windows(2).zip(&slices) {
            if !s.is_empty() {
                assert!(std::ptr::eq(s.as_ref(), &b.as_ref()[w[0]..w[1]]));
            }
        }

        // Rejoining the slices is byte-identical to the original, and
        // the views keep the allocation alive once the parent is gone.
        drop(b);
        let rejoined: Vec<u8> = slices.iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(rejoined, payload, "slice+rejoin must be byte-identical");

        // Out-of-range slices panic predictably.
        if len > 0 {
            let b = Bytes::from(payload);
            let start = g.usize_in(0, len);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                b.slice(start..len + 1 + g.usize_in(0, 64))
            }));
            assert!(result.is_err(), "over-long slice must panic");
        }
    });
}

/// The sink is a map before it is a concurrent one: any sequential mix
/// of `insert`/`remove`/`with`/`with_or_insert` over a small key space
/// (so keys cluster inside a stripe's table) leaves it indistinguishable
/// from `std::collections::HashMap` — same return values, same `len`,
/// same contents under `fold` — for the single-lock and the 16-stripe
/// shape alike.
#[test]
fn sharded_sink_matches_hashmap_model_sequentially() {
    use dataflower_rt::ShardedSink;
    use std::collections::HashMap;

    check("sharded_sink_matches_hashmap_model_sequentially", |g| {
        let stripes = if g.usize_in(0, 2) == 0 { 1 } else { 16 };
        let sink: ShardedSink<u64> = ShardedSink::new(stripes);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for step in 0..g.u64_in(200, 2_000) {
            let key = g.u64_in(0, 64);
            match g.usize_in(0, 4) {
                0 => assert_eq!(sink.insert(key, step), model.insert(key, step), "insert"),
                1 => assert_eq!(sink.remove(key), model.remove(&key), "remove"),
                2 => {
                    let bump = |v: Option<&mut u64>| {
                        v.map(|v| {
                            *v += 1;
                            *v
                        })
                    };
                    assert_eq!(sink.with(key, bump), bump(model.get_mut(&key)), "with");
                }
                _ => {
                    let got = sink.with_or_insert(key, || step, |v| std::mem::replace(v, step));
                    let want = std::mem::replace(model.entry(key).or_insert(step), step);
                    assert_eq!(got, want, "with_or_insert");
                }
            }
            assert_eq!(sink.len(), model.len(), "len after step {step}");
            assert_eq!(sink.is_empty(), model.is_empty());
        }
        let mut seen = sink.fold(Vec::new(), |mut acc, k, v| {
            acc.push((k, *v));
            acc
        });
        seen.sort_unstable();
        let mut want: Vec<(u64, u64)> = model.into_iter().collect();
        want.sort_unstable();
        assert_eq!(seen, want, "fold diverged from the model");
    });
}

/// The lock-striped sink neither loses nor duplicates entries: random
/// (often stripe-colliding) request ids inserted and taken by concurrent
/// producers all come back exactly once, and janitor-style sweeps
/// running concurrently with takes expire each surviving entry at most
/// once.
#[test]
fn sharded_sink_insert_take_is_exact_under_collisions() {
    use dataflower_rt::ShardedSink;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    check("sharded_sink_insert_take_is_exact_under_collisions", |g| {
        let stripes = 1 << g.usize_in(0, 6); // 1..=32: includes single-lock
        let threads = g.usize_in(2, 5);
        let per_thread = g.usize_in(50, 300);
        // A coarse id stride forces stripe collisions across threads.
        let stride = g.u64_in(1, 64);
        let sink: Arc<ShardedSink<u64>> = Arc::new(ShardedSink::new(stripes));
        let taken = Arc::new(AtomicU64::new(0));
        let expired = Arc::new(AtomicU64::new(0));

        let workers: Vec<_> = (0..threads as u64)
            .map(|t| {
                let sink = Arc::clone(&sink);
                let taken = Arc::clone(&taken);
                std::thread::spawn(move || {
                    for i in 0..per_thread as u64 {
                        // Distinct per thread, but striding over the same
                        // stripe set as every other thread.
                        let key = (i * stride) * threads as u64 + t;
                        assert!(sink.insert(key, key ^ 0xabcd).is_none(), "dup insert");
                        if i % 3 != 0 {
                            // Take it right back: must be present, once,
                            // intact modulo the sweeper's expiry bit.
                            let got = sink.remove(key).expect("entry lost");
                            assert_eq!(got & !(1 << 63), key ^ 0xabcd);
                            taken.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        // Concurrent janitor-style sweeper: marks entries expired by
        // flipping a bit; flips each entry at most once.
        let sweeper = {
            let sink = Arc::clone(&sink);
            let expired = Arc::clone(&expired);
            std::thread::spawn(move || {
                for _ in 0..4 {
                    sink.for_each_mut(|_, v| {
                        if *v & (1 << 63) == 0 {
                            *v |= 1 << 63;
                            expired.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                    std::thread::yield_now();
                }
            })
        };
        for w in workers {
            w.join().expect("sink worker");
        }
        sweeper.join().expect("sweeper");

        // Every entry not taken by its producer is still parked, exactly
        // once, with its value intact modulo the expiry bit.
        let total = (threads * per_thread) as u64;
        let left = sink.fold(0u64, |acc, k, v| {
            assert_eq!(*v & !(1 << 63), k ^ 0xabcd, "entry corrupted");
            acc + 1
        });
        assert_eq!(
            taken.load(Ordering::Relaxed) + left,
            total,
            "entries lost or duplicated across stripes"
        );
        assert_eq!(sink.len() as u64, left);
        // The sweeper expired only surviving entries, each at most once.
        assert!(expired.load(Ordering::Relaxed) <= total);
    });
}

/// Checkpoint recovery keeps the live runtime lossless and exactly-once
/// under a random seeded `FaultPlan` — dropped, duplicated and delayed
/// fabric frames plus a mid-flight single-node kill and restart — for
/// **every** placement policy: the client payload comes back
/// byte-identical and every function still runs exactly once per
/// request (recovery replays transfers, never invocations).
#[test]
fn chaos_recovery_is_byte_identical_and_exactly_once_for_every_placement() {
    use std::time::Duration;

    use dataflower_rt::{
        ByLevel, Bytes, ClusterConfig, ClusterRuntimeBuilder, FaultPlan, LinkConfig, LoadAware,
        PlacementPolicy, RoundRobin, SingleNode,
    };

    check(
        "chaos_recovery_is_byte_identical_and_exactly_once_for_every_placement",
        |g| {
            let fan = g.usize_in(2, 5);
            let nodes = g.usize_in(2, 4);
            let len = g.usize_in(4_000, 40_000);
            let mut seed = g.u64_in(1, u64::MAX - 1);
            let payload: Vec<u8> = (0..len)
                .map(|_| {
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (seed >> 33) as u8
                })
                .collect();

            // start --shard--> relay_i --echo--> merge --out--> client
            let mut b = WorkflowBuilder::new("chaos-echo");
            let start = b.function("start", WorkModel::fixed(0.001));
            let merge = b.function("merge", WorkModel::fixed(0.001));
            b.client_input(start, "in", SizeModel::Fixed(1024.0));
            for i in 0..fan {
                let relay = b.function(format!("relay_{i}"), WorkModel::fixed(0.001));
                b.edge(start, relay, "shard", SizeModel::Fixed(256.0));
                b.edge(relay, merge, "echo", SizeModel::Fixed(256.0));
            }
            b.client_output(merge, "out", SizeModel::Fixed(256.0));
            let wf = std::sync::Arc::new(b.build().unwrap());

            // A seeded chaos plan: frame drops/dups/delays plus one node
            // killed at a random logical event and restarted by the
            // recovery daemon after a short outage. (On the single-node
            // placement no fabric frames flow, so the plan is inert —
            // byte-identity must hold regardless.)
            let victim = g.usize_in(0, nodes);
            let faults = FaultPlan::seeded(g.u64_in(0, u64::MAX))
                .frame_chaos(g.f64_in(0.0, 0.06), g.f64_in(0.0, 0.06))
                .delay_frames(g.f64_in(0.0, 0.03), Duration::from_micros(300))
                .kill_node(
                    victim,
                    g.u64_in(1, 50),
                    Duration::from_millis(g.u64_in(1, 6)),
                );
            let cfg = ClusterConfig {
                dlu_queue_capacity: g.usize_in(1, 8),
                // Force even tiny shards through the chunked remote pipe
                // with marks every few chunks.
                direct_threshold_bytes: 1,
                chunk_bytes: g.usize_in(256, 2048),
                checkpoint_interval_bytes: g.usize_in(1024, 4096),
                link: LinkConfig {
                    queue_capacity: g.usize_in(2, 64),
                    ..LinkConfig::default()
                },
                recovery: Some(Duration::from_millis(20)),
                faults,
                ..ClusterConfig::default()
            };

            // Every placement policy, same workflow, same chaos plan.
            let policies: [&dyn PlacementPolicy; 4] =
                [&SingleNode, &RoundRobin, &ByLevel, &LoadAware::idle()];
            let placements = policies.map(|p| p.initial(&wf, nodes));
            for placement in placements {
                // single_node() has one node; clamp the victim kill so
                // the plan stays valid for it.
                let mut cfg = cfg.clone();
                if placement.node_count() <= victim {
                    for kill in &mut cfg.faults.kills {
                        kill.node = 0;
                    }
                }
                let fan_c = fan;
                let mut builder = ClusterRuntimeBuilder::new(std::sync::Arc::clone(&wf))
                    .placement(placement)
                    .config(cfg)
                    .register("start", move |ctx| {
                        let data = ctx.input("in").expect("client payload").clone();
                        let base = data.len() / fan_c;
                        let extra = data.len() % fan_c;
                        let mut lo = 0;
                        for i in 0..fan_c {
                            let hi = lo + base + usize::from(i < extra);
                            ctx.put_to("shard", format!("relay_{i}"), data.slice(lo..hi));
                            lo = hi;
                        }
                    });
                for i in 0..fan {
                    builder = builder.register(format!("relay_{i}"), |ctx| {
                        let shard = ctx.input("shard").expect("shard").clone();
                        ctx.put("echo", shard);
                    });
                }
                let rt = builder
                    .register("merge", |ctx| {
                        let out: Vec<u8> = ctx
                            .inputs_named("echo")
                            .into_iter()
                            .flat_map(|b| b.iter().copied())
                            .collect();
                        ctx.put("out", Bytes::from(out));
                    })
                    .start()
                    .unwrap();

                let req = rt.invoke(vec![("in".into(), Bytes::from(payload.clone()))]);
                let outputs = rt
                    .wait(req, std::time::Duration::from_secs(30))
                    .expect("chaos echo completes");
                assert_eq!(outputs.len(), 1);
                assert_eq!(
                    &*outputs[0].1,
                    &payload[..],
                    "payload lost, duplicated or reordered under faults"
                );

                let stats = rt.stats();
                // No duplicate delivery into the FLUs: recovery replays
                // frames, but every function still ran exactly once.
                assert_eq!(
                    stats.invocations,
                    fan as u64 + 2,
                    "duplicate or lost invocation under faults"
                );
                // The kill may fire after the request already completed,
                // in which case its restart is still pending here.
                assert!(stats.node_restarts <= stats.node_crashes);
                rt.shutdown();
            }
        },
    );
}

/// Permanent node loss under the orchestrator control plane is invisible
/// in the outputs: whatever random placement laid the functions out and
/// whenever the crash lands, the heartbeat detector relocates the dead
/// node's functions and the client bytes match the no-fault reference.
#[test]
fn node_loss_relocation_is_byte_identical_under_random_placements() {
    use std::time::Duration;

    use dataflower_rt::{Bytes, ClusterConfig, ClusterRuntimeBuilder, LinkConfig, Placement};

    check(
        "node_loss_relocation_is_byte_identical_under_random_placements",
        |g| {
            let fan = g.usize_in(2, 5);
            let nodes = g.usize_in(2, 4);
            let len = g.usize_in(4_000, 40_000);
            let mut seed = g.u64_in(1, u64::MAX - 1);
            let payload: Vec<u8> = (0..len)
                .map(|_| {
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (seed >> 33) as u8
                })
                .collect();

            // start --shard--> relay_i --echo--> merge --out--> client
            let mut b = WorkflowBuilder::new("loss-echo");
            let start = b.function("start", WorkModel::fixed(0.001));
            let merge = b.function("merge", WorkModel::fixed(0.001));
            b.client_input(start, "in", SizeModel::Fixed(1024.0));
            for i in 0..fan {
                let relay = b.function(format!("relay_{i}"), WorkModel::fixed(0.001));
                b.edge(start, relay, "shard", SizeModel::Fixed(256.0));
                b.edge(relay, merge, "echo", SizeModel::Fixed(256.0));
            }
            b.client_output(merge, "out", SizeModel::Fixed(256.0));
            let wf = std::sync::Arc::new(b.build().unwrap());

            // Fully random placement — every function lands on a random
            // node, including layouts the stock policies never produce.
            let mut placement = Placement::with_nodes(nodes);
            for f in wf.function_ids() {
                placement = placement.assign(wf.function(f).name.clone(), g.usize_in(0, nodes));
            }

            // Tight heartbeats so the loss is declared well inside the
            // wait deadline; small chunks and marks so the crash lands
            // mid-stream often.
            let cfg = ClusterConfig::new()
                .direct_threshold_bytes(1)
                .chunk_bytes(g.usize_in(256, 2048))
                .checkpoint_interval_bytes(g.usize_in(1024, 4096))
                .link(LinkConfig {
                    queue_capacity: g.usize_in(2, 64),
                    ..LinkConfig::default()
                })
                .recovery(Duration::from_millis(20))
                .heartbeat(Duration::from_millis(4), 2);

            let victim = g.usize_in(0, nodes);
            let crash_after = Duration::from_micros(g.u64_in(0, 4_000));

            let fan_c = fan;
            let mut builder = ClusterRuntimeBuilder::new(std::sync::Arc::clone(&wf))
                .placement(placement)
                .config(cfg)
                .register("start", move |ctx| {
                    let data = ctx.input("in").expect("client payload").clone();
                    let base = data.len() / fan_c;
                    let extra = data.len() % fan_c;
                    let mut lo = 0;
                    for i in 0..fan_c {
                        let hi = lo + base + usize::from(i < extra);
                        ctx.put_to("shard", format!("relay_{i}"), data.slice(lo..hi));
                        lo = hi;
                    }
                });
            for i in 0..fan {
                builder = builder.register(format!("relay_{i}"), |ctx| {
                    let shard = ctx.input("shard").expect("shard").clone();
                    ctx.put("echo", shard);
                });
            }
            let rt = builder
                .register("merge", |ctx| {
                    let out: Vec<u8> = ctx
                        .inputs_named("echo")
                        .into_iter()
                        .flat_map(|b| b.iter().copied())
                        .collect();
                    ctx.put("out", Bytes::from(out));
                })
                .start()
                .unwrap();

            let req = rt.invoke(vec![("in".into(), Bytes::from(payload.clone()))]);
            // Permanent: the victim is never restarted — only the
            // controller's relocation can finish the request.
            std::thread::sleep(crash_after);
            rt.crash_node(victim);

            let outputs = rt
                .wait(req, Duration::from_secs(30))
                .expect("relocation heals the lost node");
            assert_eq!(outputs.len(), 1);
            assert_eq!(
                &*outputs[0].1,
                &payload[..],
                "payload lost, duplicated or reordered across the relocation"
            );
            let stats = rt.stats();
            assert!(stats.heartbeats > 0, "the control plane never beat");
            rt.shutdown();
        },
    );
}

#[test]
fn fault_fate_streams_differ_across_links_and_directions() {
    use dataflower_rt::FaultPlan;

    check(
        "fault_fate_streams_differ_across_links_and_directions",
        |g| {
            // Individual rates capped so their sum stays below 1.0,
            // which `validate` requires.
            let plan = FaultPlan::seeded(g.u64_in(0, 1 << 48))
                .frame_chaos(g.f64_in(0.1, 0.3), g.f64_in(0.1, 0.3))
                .delay_frames(g.f64_in(0.1, 0.3), std::time::Duration::from_millis(1));
            assert!(plan.validate().is_ok());

            let src = g.usize_in(0, 8);
            let dst = (src + g.usize_in(1, 8)) % 8; // distinct from src
                                                    // A third directed link sharing neither endpoint order.
            let other = (src + 8, dst + 8);

            let stream = |s: usize, d: usize| -> Vec<_> {
                (0..512).map(|f| plan.frame_fate(f, s, d)).collect()
            };
            let forward = stream(src, dst);

            // Deterministic: the same link replays the same fates.
            assert_eq!(forward, stream(src, dst));
            // A directed link and its reverse never share a fate stream:
            // the chaos hitting `a → b` says nothing about `b → a`.
            assert_ne!(
                forward,
                stream(dst, src),
                "reversed link {dst}->{src} shares {src}->{dst}'s fate stream"
            );
            // Nor do two entirely distinct links.
            assert_ne!(
                forward,
                stream(other.0, other.1),
                "distinct links share a fate stream"
            );
        },
    );
}

#[test]
fn wire_frames_roundtrip_over_loopback_tcp_in_random_splits() {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    use dataflower_rt::wire::encode_parts;
    use dataflower_rt::{Bytes, Frame};

    /// One random frame covering every wire kind, with keys and payloads
    /// of arbitrary (including zero) length.
    fn frame(g: &mut Gen) -> Frame {
        let key = |g: &mut Gen| -> String {
            g.vec(0, 24, |g| {
                b"abcdefgh@_0123456789"[g.usize_in(0, 20)] as char
            })
            .into_iter()
            .collect()
        };
        let bytes =
            |g: &mut Gen| -> Bytes { Bytes::from(g.vec(0, 4096, |g| g.usize_in(0, 256) as u8)) };
        match g.usize_in(0, 6) {
            0 => Frame::Hello {
                node: g.u64_in(0, 256) as u32,
                epoch: g.u64_in(0, 1 << 20) as u32,
            },
            1 => Frame::Whole {
                req: g.u64_in(0, 1 << 40),
                edge: g.u64_in(0, 1 << 16) as u32,
                key: key(g),
                transfer: g.u64_in(0, 1 << 40),
                payload: bytes(g),
            },
            2 => Frame::Chunk {
                req: g.u64_in(0, 1 << 40),
                edge: g.u64_in(0, 1 << 16) as u32,
                key: key(g),
                transfer: g.u64_in(0, 1 << 40),
                offset: g.u64_in(0, 1 << 30),
                total: g.u64_in(0, 1 << 30),
                bytes: bytes(g),
            },
            3 => Frame::AckMark {
                transfer: g.u64_in(0, 1 << 40),
                mark: g.u64_in(0, 1 << 30),
            },
            4 => Frame::AckComplete {
                transfer: g.u64_in(0, 1 << 40),
            },
            _ => Frame::Release {
                req: g.u64_in(0, 1 << 40),
            },
        }
    }

    check(
        "wire_frames_roundtrip_over_loopback_tcp_in_random_splits",
        |g| {
            let frames = g.vec(1, 9, frame);

            // The whole session as one byte stream, exactly as the link
            // agents produce it: header buffer + zero-copy payload view.
            let mut session = Vec::new();
            for f in &frames {
                let (head, payload) = encode_parts(f);
                session.extend_from_slice(&head);
                if let Some(p) = payload {
                    session.extend_from_slice(&p);
                }
            }

            // Pre-draw random write splits — torn headers, split length
            // fields, payloads sliced across writes.
            let mut splits = Vec::new();
            let mut at = 0;
            while at < session.len() {
                let n = g.usize_in(1, 17.min(session.len() - at + 1));
                splits.push((at, at + n));
                at += n;
            }

            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("listener addr");
            let writer = std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).expect("connect loopback");
                s.set_nodelay(true).expect("nodelay");
                for (lo, hi) in splits {
                    s.write_all(&session[lo..hi]).expect("split write");
                    s.flush().expect("flush");
                }
            });

            let (mut conn, _) = listener.accept().expect("accept loopback");
            let mut dec = dataflower_rt::Decoder::new();
            let mut got = Vec::new();
            // A deliberately tiny, non-power-of-two read buffer so frames
            // arrive shredded across reads no matter how the writer split.
            let mut buf = [0u8; 11];
            while got.len() < frames.len() {
                let n = conn.read(&mut buf).expect("read loopback");
                assert!(n > 0, "EOF before every frame decoded");
                dec.feed(&buf[..n]);
                while let Some(f) = dec.next_frame().expect("wire stream decodes cleanly") {
                    got.push(f);
                }
            }
            writer.join().expect("writer thread");
            assert_eq!(got, frames, "frames diverged across the socket");
        },
    );
}

/// The fabric's link queue (`channel::bounded`) is FIFO with neither
/// loss nor duplication for every capacity while a producer and a
/// `try_drain`ing consumer race with randomized burst sizes: the
/// consumer observes exactly the sequence `0..total`, in order.
#[test]
fn link_queue_is_fifo_lossless_and_dup_free_under_interleavings() {
    use dataflower_rt::channel;

    check(
        "link_queue_is_fifo_lossless_and_dup_free_under_interleavings",
        |g| {
            let capacity = g.usize_in(1, 33);
            let total = g.u64_in(1, 2_000);
            let producer_burst = g.u64_in(1, 9);
            let consumer_burst = g.usize_in(1, 17);
            let (tx, rx) = channel::bounded::<u64>(capacity);
            let producer = std::thread::spawn(move || {
                let mut sent = 0u64;
                while sent < total {
                    let burst = producer_burst.min(total - sent);
                    for _ in 0..burst {
                        tx.send(sent).expect("receiver alive");
                        sent += 1;
                    }
                    std::thread::yield_now();
                }
            });
            let mut got: Vec<u64> = Vec::with_capacity(total as usize);
            loop {
                match rx.try_drain(&mut got, consumer_burst) {
                    Ok(0) => std::thread::yield_now(),
                    Ok(_) => {}
                    Err(_) => break, // empty + producer gone: complete
                }
            }
            producer.join().expect("producer thread");
            assert_eq!(got.len() as u64, total, "lost or duplicated messages");
            assert!(got.iter().copied().eq(0..total), "order diverged");
        },
    );
}

/// Link-queue boundary semantics: a fresh queue reports
/// empty-but-connected as `Ok(0)`, `send` never blocks below the exact
/// requested capacity and parks at exactly full until a pop frees a
/// slot, and the disconnect error fires only once the tail is fully
/// drained.
#[test]
fn link_queue_full_empty_boundaries_hold_for_every_capacity() {
    use dataflower_rt::channel;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    check(
        "link_queue_full_empty_boundaries_hold_for_every_capacity",
        |g| {
            let cap = g.usize_in(1, 20);
            let (tx, rx) = channel::bounded::<usize>(cap);
            let mut buf = Vec::new();
            assert_eq!(rx.try_drain(&mut buf, 8).expect("connected"), 0);
            for i in 0..cap {
                tx.send(i).expect("below capacity"); // must not block
            }
            // The next send must park until the consumer frees a slot.
            let sent = Arc::new(AtomicBool::new(false));
            let parked = {
                let sent = Arc::clone(&sent);
                std::thread::spawn(move || {
                    tx.send(cap).expect("receiver alive");
                    sent.store(true, Ordering::SeqCst);
                })
            };
            std::thread::sleep(std::time::Duration::from_millis(2));
            assert!(!sent.load(Ordering::SeqCst), "send overran a full queue");
            assert_eq!(rx.try_drain(&mut buf, 1).expect("pop one"), 1);
            parked.join().expect("parked sender");
            // Sender gone but the tail remains: drains cleanly, then errors.
            while let Ok(n) = rx.try_drain(&mut buf, 64) {
                assert!(n > 0, "empty+disconnected must be Err");
            }
            assert!(buf.iter().copied().eq(0..=cap), "tail drain diverged");
        },
    );
}

/// Every task submitted to the node scheduler runs exactly once under
/// concurrent `set_active` churn: lazily-spawned workers racing for the
/// shared queue and window resizes mid-flight never lose or double-run
/// an invocation.
#[test]
fn scheduler_runs_each_task_exactly_once_under_set_active_churn() {
    use dataflower_rt::NodeScheduler;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    check(
        "scheduler_runs_each_task_exactly_once_under_set_active_churn",
        |g| {
            let max_slots = g.usize_in(2, 7);
            let sched = NodeScheduler::new("prop", max_slots, g.usize_in(1, max_slots + 1));
            let total = g.usize_in(1, 400);
            let runs: Arc<Vec<AtomicUsize>> =
                Arc::new((0..total).map(|_| AtomicUsize::new(0)).collect());
            for i in 0..total {
                let runs = Arc::clone(&runs);
                sched.submit(Box::new(move || {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    if i % 5 == 0 {
                        std::thread::yield_now(); // vary how the workers overlap
                    }
                }));
                if g.usize_in(0, 8) == 0 {
                    sched.set_active(g.usize_in(1, max_slots + 1));
                }
            }
            sched.stop();
            for (i, r) in runs.iter().enumerate() {
                assert_eq!(r.load(Ordering::SeqCst), 1, "task {i} ran wrong count");
            }
        },
    );
}

/// Stress: scaling in mid-burst loses no queued task. A burst is
/// submitted at full width, the window collapses to one slot while the
/// queue is still loaded, then widens again — what the retired slots no
/// longer claim must stay claimable, so the whole burst still runs
/// exactly once.
#[test]
fn scheduler_scale_in_mid_burst_loses_no_tasks() {
    use dataflower_rt::NodeScheduler;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    check("scheduler_scale_in_mid_burst_loses_no_tasks", |g| {
        let max_slots = g.usize_in(3, 7);
        let sched = NodeScheduler::new("prop-stress", max_slots, max_slots);
        let total = g.usize_in(100, 600);
        let collapse_after = g.usize_in(1, total);
        let runs: Arc<Vec<AtomicUsize>> =
            Arc::new((0..total).map(|_| AtomicUsize::new(0)).collect());
        for i in 0..total {
            let runs = Arc::clone(&runs);
            sched.submit(Box::new(move || {
                runs[i].fetch_add(1, Ordering::SeqCst);
                std::thread::yield_now(); // keep the queue loaded mid-collapse
            }));
            if i == collapse_after {
                sched.set_active(1); // retire all but one slot mid-burst
            }
        }
        sched.set_active(max_slots); // widen again before the drain
        sched.stop();
        let ran: usize = runs.iter().map(|r| r.load(Ordering::SeqCst)).sum();
        assert_eq!(ran, total, "scale-in stranded or double-ran tasks");
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
    });
}
