//! In-tree wall-clock benchmarks of the reproduction itself: how fast the
//! simulated engines and the substrate data structures run on this host.
//! One JSON line per benchmark on stdout.
//!
//! ```text
//! cargo run --release -p dataflower-bench --bin bench -- run            # everything
//! cargo run --release -p dataflower-bench --bin bench -- run flownet    # filter
//! cargo run --release -p dataflower-bench --bin bench -- run --runs 9
//! ```
//!
//! These measure the *reproduction's* performance (simulator events per
//! second, live-runtime end-to-end latency), complementing the `figures`
//! binary which reproduces the paper's results.
//!
//! **Regression gate** (the CI bench step): `run --compare <baseline>`
//! diffs this run against a committed baseline file and prints
//! per-benchmark deltas; the process exits non-zero when a benchmark
//! slowed past `--tolerance <pct>` (default 100, i.e. more than 2×
//! slower) or when a whole baseline group vanished from the run (a
//! stale baseline). `--json-out <file>` additionally writes the result
//! JSON lines to a file (the CI artifact), and `--summary <file>`
//! writes a per-group markdown delta table (appended to
//! `$GITHUB_STEP_SUMMARY` in CI):
//!
//! ```text
//! bench run --runs 3 --compare BENCH_BASELINE.json --tolerance 100 \
//!           --json-out bench-results.jsonl --summary bench-summary.md
//! ```
//!
//! **Open-loop load harness**: `bench loadgen --config <name>` runs a
//! named multi-tenant load configuration (see
//! `dataflower_workloads::loadgen`), writes its markdown report to
//! `reports/loadgen-<name>.md`, and gates p50 **and p99** latency per
//! cell × benchmark against `LOADGEN_BASELINE.json`:
//!
//! ```text
//! bench loadgen --config smoke --compare LOADGEN_BASELINE.json
//! bench loadgen --config full --write-baseline LOADGEN_BASELINE.json
//! ```
//!
//! The pre-subcommand flag spelling still works (`bench --runs 3
//! --compare …` means `bench run …`); see `dataflower_bench::cli`.

use std::cell::RefCell;
use std::sync::Arc;

use dataflower::WaitMatchMemory;
use dataflower_bench::cli::{
    self, Command, CompareOptions, FuzzOptions, LoadgenOptions, RunOptions,
};
use dataflower_bench::compare::{compare, parse_baseline, parse_results, render, render_markdown};
use dataflower_bench::timing::{time, TimingResult};
use dataflower_cluster::RequestId;
use dataflower_metrics::Samples;
use dataflower_rt::channel as rt_channel;
use dataflower_rt::{chunk_spans, Bytes, NodeScheduler, Reassembler, ShardedSink};
use dataflower_sim::{EventQueue, FlowNet, SimTime};
use dataflower_workflow::{EdgeId, FnId};
use dataflower_workloads::{
    bench_input, launch_bench_cluster, loadgen, run_diff_fuzz, serve_worker_if_spawned, Benchmark,
    FaultMode, FuzzConfig, LivePlacement, LoadgenConfig, Scenario, SystemKind, TcpProfile,
    WorkloadSpec,
};

/// Exit code when a regression exceeds the tolerance.
const EXIT_REGRESSION: i32 = 3;

/// Exit code when the baseline names a group the run no longer
/// produces — a stale baseline that must be updated, not warned about.
const EXIT_STALE_BASELINE: i32 = 4;

/// Exit code when `bench fuzz` finds a sim↔live divergence (or a
/// byte-identity or replay failure) on any seed.
const EXIT_DIVERGENCE: i32 = 5;

/// Exit code when any `bench fuzz` seed hung past its watchdog deadline
/// — the campaign still completes and names the seed, but a wedge is a
/// distinct (worse) verdict than a divergence.
const EXIT_HUNG: i32 = 6;

fn main() {
    // The socket_fabric group and the loadgen TCP cells launch
    // worker-process TCP clusters that re-execute this binary
    // (argv-free, env-tagged) as the workers; those re-executions enter
    // here and never return.
    serve_worker_if_spawned();

    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Ok(Command::Help) => println!("{}", cli::USAGE),
        Ok(Command::Run(opts)) => run_command(&opts),
        Ok(Command::Compare(opts)) => {
            let text = read_or_die(&opts.results);
            let results = parse_results(&text).unwrap_or_else(|e| {
                eprintln!("cannot parse results `{}`: {e}", opts.results);
                std::process::exit(2);
            });
            // A saved results file is complete by construction, so stale
            // baseline groups are enforced.
            gate(&results, &opts.compare, true);
        }
        Ok(Command::Loadgen(opts)) => loadgen_command(&opts),
        Ok(Command::Fuzz(opts)) => fuzz_command(&opts),
        Err(e) => {
            eprintln!("bench: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    }
}

fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read `{path}`: {e}");
        std::process::exit(2);
    })
}

fn write_or_die(path: &str, contents: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write `{path}`: {e}");
        std::process::exit(2);
    }
}

/// Diffs `results` against the baseline in `opts` (no-op without one),
/// prints the delta report, writes the markdown summary, and exits
/// non-zero on regressions — or, when `enforce_stale_groups` is set (an
/// unfiltered run), on baseline groups the run no longer produces.
fn gate(results: &[TimingResult], opts: &CompareOptions, enforce_stale_groups: bool) {
    let Some(path) = &opts.baseline else {
        if opts.summary_out.is_some() {
            eprintln!("bench: --summary needs --compare to have something to summarize");
            std::process::exit(2);
        }
        return;
    };
    let tolerance_pct = opts.tolerance_pct;
    let baseline = parse_baseline(&read_or_die(path)).unwrap_or_else(|e| {
        eprintln!("cannot parse baseline `{path}`: {e}");
        std::process::exit(2);
    });
    let cmp = compare(&baseline, results);
    print!("{}", render(&cmp, tolerance_pct));
    for w in cmp.warnings() {
        eprintln!("bench: {w}");
    }
    if let Some(out) = &opts.summary_out {
        write_or_die(out, &render_markdown(&cmp, tolerance_pct));
    }
    if enforce_stale_groups {
        let stale = cmp.stale_groups();
        if !stale.is_empty() {
            eprintln!(
                "bench: baseline `{path}` names group(s) this run no longer produces: {} — \
                 update the baseline",
                stale.join(", ")
            );
            std::process::exit(EXIT_STALE_BASELINE);
        }
    }
    let regressions = cmp.regressions(tolerance_pct);
    if !regressions.is_empty() {
        eprintln!(
            "bench: {} benchmark(s) regressed more than {tolerance_pct:.0}% vs `{path}`",
            regressions.len()
        );
        std::process::exit(EXIT_REGRESSION);
    }
}

fn run_command(opts: &RunOptions) {
    let harness = Harness {
        filters: opts.filters.clone(),
        group_filters: opts.group_filters.clone(),
        runs: opts.runs,
        results: RefCell::new(Vec::new()),
    };
    engine_benchmarks(&harness);
    live_cluster_benchmarks(&harness);
    elastic_benchmarks(&harness);
    recovery_benchmarks(&harness);
    control_plane_benchmarks(&harness);
    data_plane_benchmarks(&harness);
    scheduler_benchmarks(&harness);
    socket_fabric_benchmarks(&harness);
    trace_codec_benchmarks(&harness);
    substrate_benchmarks(&harness);

    if let Some(path) = &opts.json_out {
        let lines: String = harness
            .results
            .borrow()
            .iter()
            .map(|r| format!("{}\n", r.to_json_line()))
            .collect();
        write_or_die(path, &lines);
    }

    // Stale baseline groups only fail unfiltered runs — `bench run
    // --group engines` legitimately skips every other group.
    let unfiltered = opts.filters.is_empty() && opts.group_filters.is_empty();
    gate(&harness.results.borrow(), &opts.compare, unfiltered);
}

/// `bench loadgen`: run the named config, write the committed markdown
/// report, and gate the p50/p99 rows against the loadgen baseline.
fn loadgen_command(opts: &LoadgenOptions) {
    let cfg = LoadgenConfig::by_name(&opts.config).unwrap_or_else(|| {
        eprintln!(
            "bench loadgen: unknown config `{}` (expected smoke, soak or full)",
            opts.config
        );
        std::process::exit(2);
    });
    eprintln!(
        "bench loadgen: running config `{}` ({} cell(s))",
        cfg.name,
        cfg.cells.len()
    );
    let report = loadgen::run(&cfg);

    let report_path = opts
        .report_out
        .clone()
        .unwrap_or_else(|| format!("reports/loadgen-{}.md", cfg.name));
    write_or_die(&report_path, &report.to_markdown());
    eprintln!("bench loadgen: report written to `{report_path}`");

    let gate_rows = report.gate_rows();
    for row in &gate_rows {
        if let Some(v) = row.slo_violations {
            eprintln!("bench loadgen: {}: {v} p99-SLO violation(s)", row.name);
        }
    }
    let rows: Vec<TimingResult> = gate_rows
        .into_iter()
        .map(|row| TimingResult {
            group: "loadgen".to_string(),
            name: row.name,
            runs: 1,
            median_ns: row.p50_ns,
            min_ns: row.p50_ns,
            max_ns: row.p99_ns,
            p99_ns: Some(row.p99_ns),
        })
        .collect();
    for r in &rows {
        println!("{}", r.to_json_line());
    }
    if let Some(path) = &opts.write_baseline {
        let lines: String = rows
            .iter()
            .map(|r| format!("{}\n", r.to_json_line()))
            .collect();
        write_or_die(path, &lines);
        eprintln!("bench loadgen: baseline written to `{path}`");
    }
    gate(&rows, &opts.compare, true);
}

/// `bench fuzz`: sim↔live differential fuzzing. Runs the seed batch
/// (live run → recorded trace → deterministic simulator replay → diff),
/// prints a one-line summary with the recorder's bytes-per-event
/// figure, and exits non-zero on any divergence. Each failing seed's
/// trace is dumped under `--dump-dir` and reproduces with
/// `bench fuzz --seed N`.
fn fuzz_command(opts: &FuzzOptions) {
    let (seeds, start_seed) = match opts.seed {
        Some(seed) => (1, seed),
        None => (opts.seeds, opts.start_seed),
    };
    let cfg = FuzzConfig {
        seeds,
        start_seed,
        dump_dir: Some(opts.dump_dir.clone().into()),
        timeout: std::time::Duration::from_secs(opts.timeout_secs),
        seed_deadline: None,
    };
    eprintln!(
        "bench fuzz: {seeds} seed(s) starting at {start_seed} (timeout {}s/seed)",
        opts.timeout_secs
    );
    let report = run_diff_fuzz(&cfg);
    println!(
        "bench fuzz: {} seed(s), {} request(s), {} trace event(s), \
         {:.2} bytes/event, {} failure(s)",
        report.seeds_run,
        report.requests,
        report.events,
        report.bytes_per_event,
        report.failures.len()
    );
    for f in &report.failures {
        let trace = f
            .trace_path
            .as_deref()
            .map(|p| format!(" (trace: {})", p.display()))
            .unwrap_or_default();
        let verdict = if f.hung { "HUNG" } else { "FAILED" };
        eprintln!("bench fuzz: seed {} {verdict}: {}{trace}", f.seed, f.what);
        eprintln!("bench fuzz: reproduce with `bench fuzz --seed {}`", f.seed);
    }
    if report.failures.iter().any(|f| f.hung) {
        std::process::exit(EXIT_HUNG);
    }
    if !report.passed() {
        std::process::exit(EXIT_DIVERGENCE);
    }
}

/// Elastic-scaling benchmarks: the pressure-aware autoscaler driven by a
/// live burst and a Zipf-skewed fan-out. Each run asserts the scenario's
/// byte-identity internally; the burst additionally asserts that scaling
/// actually happened, so the bench doubles as a smoke gate.
fn elastic_benchmarks(h: &Harness) {
    h.run("elastic", "bursty_cluster/wc", || {
        let report = WorkloadSpec::new()
            .benchmark(Benchmark::Wc)
            .warmup(2)
            .requests(8)
            .payload_bytes(128 * 1024)
            .settle(std::time::Duration::from_secs(2))
            .run();
        assert!(report.stats.scale_out_events >= 1);
        report.requests
    });
    h.run("elastic", "skewed_fanout/8branches", || {
        let report = WorkloadSpec::new()
            .skewed_fanout(8, 1.2)
            .requests(4)
            .payload_bytes(128 * 1024)
            .run();
        assert!(report.output_bytes > 0);
        report.requests
    });
}

/// Fault-recovery benchmarks (§6.2): the chaos scenario end to end —
/// invoke, crash the fan-out node mid-transfer, restart, recover — at
/// two checkpoint intervals, so the baseline pins how recovery latency
/// moves with the interval (a larger interval re-sends more bytes after
/// the crash but acks less often before it). Each run asserts
/// byte-identity and resume-from-mark internally, so the bench doubles
/// as a smoke gate. A `Reassembler` rollback/resume micro-benchmark
/// isolates the receive-side cost of the same cycle.
fn recovery_benchmarks(h: &Harness) {
    for (label, interval) in [("8k", 8 * 1024usize), ("32k", 32 * 1024usize)] {
        h.run(
            "recovery",
            &format!("chaos_wc_crash_replay/interval_{label}"),
            || {
                // Start from the chaos scenario's runtime knobs (the
                // runner re-seeds the fault plan from the spec) and pin
                // only the checkpoint interval under test.
                let rt = TcpProfile::Chaos
                    .rt_config(0)
                    .checkpoint_interval_bytes(interval);
                let report = WorkloadSpec::new()
                    .benchmark(Benchmark::Wc)
                    .faults(FaultMode::ChaosCrashRestart)
                    .requests(1)
                    .payload_bytes(192 * 1024)
                    .config(rt)
                    .run();
                assert!(report.stats.recovered_transfers > 0);
                assert!(report.stats.resumed_from_mark_bytes > 0);
                report.requests
            },
        );
    }
    // Receive side in isolation: reassemble 2 MiB to 75%, crash (roll
    // back to the last 256 KiB mark), then replay from the mark.
    const ROLLBACK_BYTES: usize = 2 * 1024 * 1024;
    const ROLLBACK_CHUNK: usize = 64 * 1024;
    const ROLLBACK_MARK: usize = 256 * 1024;
    let payload = Bytes::from((0..ROLLBACK_BYTES).map(|i| i as u8).collect::<Vec<_>>());
    h.run("recovery", "reassembler_rollback_resume_2mib", move || {
        let mut r = Reassembler::new(payload.len());
        let spans = chunk_spans(payload.len(), ROLLBACK_CHUNK);
        let crash_at = spans.len() * 3 / 4;
        for (lo, hi) in &spans[..crash_at] {
            assert!(r.write_bytes(*lo, payload.slice(*lo..*hi)));
        }
        let mark = (r.contiguous_prefix() / ROLLBACK_MARK) * ROLLBACK_MARK;
        r.rollback_to(mark);
        for (lo, hi) in &spans {
            if *hi > mark {
                assert!(r.write_bytes(*lo, payload.slice(*lo..*hi)));
            }
        }
        assert!(r.complete());
        let out = r.into_bytes();
        assert_eq!(out.len(), payload.len());
        out
    });
}

/// Orchestrator control-plane benchmarks: what the heartbeat machinery
/// costs when nothing goes wrong (the same live run with and without the
/// control plane), how long a permanent node loss takes to heal end to
/// end (detection + relocation + replay, inside one request deadline),
/// and the drain latency of a voluntary live migration. The loss and
/// migration cases assert their byte-identity contracts internally, so
/// the bench doubles as a smoke gate.
fn control_plane_benchmarks(h: &Harness) {
    use std::time::Duration;

    use dataflower_rt::ClusterConfig;

    for (label, heartbeats) in [("on_10ms", true), ("off", false)] {
        h.run(
            "control_plane",
            &format!("heartbeat_overhead/wc_{label}"),
            move || {
                let mut cfg = ClusterConfig::new().recovery(Duration::from_millis(50));
                if heartbeats {
                    cfg = cfg.heartbeat(Duration::from_millis(10), 3);
                }
                let report = WorkloadSpec::new()
                    .benchmark(Benchmark::Wc)
                    .nodes(3)
                    .requests(2)
                    .payload_bytes(128 * 1024)
                    .config(cfg)
                    .run();
                assert_eq!(report.stats.node_losses, 0);
                assert_eq!(report.stats.heartbeats > 0, heartbeats);
                report.requests
            },
        );
    }
    h.run("control_plane", "relocation_recover/wc_128k", || {
        let report = WorkloadSpec::new()
            .benchmark(Benchmark::Wc)
            .faults(FaultMode::NodeLoss)
            .payload_bytes(128 * 1024)
            .run();
        assert!(report.relocated().expect("node-loss detail") > 0);
        assert!(report.stats.node_losses >= 1);
        report.requests
    });
    h.run("control_plane", "migration_drain/svd_128k", || {
        let report = WorkloadSpec::new()
            .benchmark(Benchmark::Svd)
            .faults(FaultMode::LiveMigration)
            .payload_bytes(128 * 1024)
            .requests(2)
            .run();
        assert!(report.stats.live_migrations >= 1);
        report.requests
    });
}

/// TCP fabric benchmarks: the versioned wire format and the
/// worker-process socket transport. The codec case isolates
/// encode+decode CPU cost; the loopback case streams the same frames
/// through a real kernel socket; the cluster case is the full
/// worker-process runtime end to end — spawn, Hello, stream, ack,
/// shutdown — pinning the process-mode overhead the in-process fabric
/// avoids (nearly all of it process spawn and teardown: see the README's
/// bench table); the warm case times the request path alone, against a
/// cluster launched once.
fn socket_fabric_benchmarks(h: &Harness) {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    use dataflower_rt::wire::encode_parts;
    use dataflower_rt::{Decoder, Frame};

    /// 1 MiB of payload as 16 KiB chunk frames, encoded once.
    fn session_bytes() -> (Vec<u8>, usize) {
        let payload = Bytes::from((0..1024 * 1024).map(|i| i as u8).collect::<Vec<_>>());
        let mut session = Vec::new();
        let mut frames = 0;
        for (lo, hi) in chunk_spans(payload.len(), 16 * 1024) {
            let frame = Frame::Chunk {
                req: 1,
                edge: EdgeId::from_index(2),
                transfer: 3,
                offset: lo,
                total: payload.len(),
                bytes: payload.slice(lo..hi),
            };
            let (head, body) = encode_parts(&frame);
            session.extend_from_slice(&head);
            if let Some(b) = body {
                session.extend_from_slice(&b);
            }
            frames += 1;
        }
        (session, frames)
    }

    h.run("socket_fabric", "wire_codec_roundtrip_1mib", || {
        let (session, frames) = session_bytes();
        let mut dec = Decoder::new();
        let mut got = 0usize;
        for piece in session.chunks(61) {
            dec.feed(piece);
            while let Some(f) = dec.next_frame().expect("codec stream decodes") {
                assert!(matches!(f, Frame::Chunk { .. }));
                got += 1;
            }
        }
        assert_eq!(got, frames);
        got
    });

    h.run("socket_fabric", "tcp_loopback_stream_1mib", || {
        let (session, frames) = session_bytes();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener addr");
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect loopback");
            s.set_nodelay(true).expect("nodelay");
            s.write_all(&session).expect("stream session");
        });
        let (mut conn, _) = listener.accept().expect("accept loopback");
        let mut dec = Decoder::new();
        let mut buf = vec![0u8; 64 * 1024];
        let mut got = 0usize;
        while got < frames {
            let n = conn.read(&mut buf).expect("read loopback");
            assert!(n > 0, "EOF mid-stream");
            dec.feed(&buf[..n]);
            while let Some(_f) = dec.next_frame().expect("wire stream decodes") {
                got += 1;
            }
        }
        writer.join().expect("writer thread");
        got
    });

    h.run("socket_fabric", "tcp_cluster_wc_64k", || {
        let cluster = launch_bench_cluster(Benchmark::Wc, 3, 0, TcpProfile::Plain)
            .expect("launch TCP cluster");
        let (name, input) = bench_input(Benchmark::Wc, 64 * 1024);
        let req = cluster.invoke(vec![(name.to_owned(), Bytes::from(input))]);
        let outputs = cluster
            .wait(req, std::time::Duration::from_secs(60))
            .expect("TCP cluster request");
        assert!(!outputs.is_empty() && !outputs[0].1.is_empty());
        let len = outputs[0].1.len();
        cluster.shutdown();
        len
    });

    // Launched by the untimed warm-up call, so the timed iterations are
    // requests only (and a filtered-out row spawns nothing).
    let mut warm = None;
    let (name, input) = bench_input(Benchmark::Wc, 4 * 1024);
    let input = Bytes::from(input);
    h.run("socket_fabric", "tcp_request_warm_4k", || {
        let cluster = warm.get_or_insert_with(|| {
            launch_bench_cluster(Benchmark::Wc, 3, 0, TcpProfile::Plain)
                .expect("launch TCP cluster")
        });
        let mut len = 0;
        for _ in 0..64 {
            let req = cluster.invoke(vec![(name.to_owned(), input.clone())]);
            let outputs = cluster
                .wait(req, std::time::Duration::from_secs(60))
                .expect("TCP cluster request");
            len += outputs[0].1.len();
        }
        assert!(len > 0);
        len
    });
    if let Some(cluster) = warm {
        cluster.shutdown();
    }
}

/// Trace-codec benchmarks: the record/replay event stream of
/// `dataflower_rt::trace` (the differential-fuzz substrate). The encode
/// case isolates the varint writer; the decode case streams the same
/// bytes through `TraceDecoder` in torn 61-byte reads, the same
/// worst-case framing the wire-codec bench uses.
fn trace_codec_benchmarks(h: &Harness) {
    use dataflower::PipeKind;
    use dataflower_rt::trace::{encode_trace, EventKind, TraceDecoder, TraceEvent};

    /// A 10 001-event synthetic stream: the Meta preamble plus a cycle
    /// of the three compared kinds (Invoke, PipeChoice, RemoteMarks)
    /// and a Request, shaped like a long fuzz run.
    fn synthetic_events() -> Vec<TraceEvent> {
        let mut events = vec![TraceEvent {
            at_us: 0,
            kind: EventKind::Meta {
                nodes: 4,
                direct_threshold_bytes: 16 * 1024,
                chunk_bytes: 64 * 1024,
                checkpoint_interval_bytes: 256 * 1024,
                workflow_json: "{\"functions\":[]}".to_string(),
            },
        }];
        for i in 0..10_000u64 {
            let kind = match i % 4 {
                0 => EventKind::Request {
                    req: i / 4,
                    payload_bytes: 128 * 1024,
                },
                1 => EventKind::Invoke {
                    req: i / 4,
                    func: (i % 7) as u32,
                },
                2 => EventKind::PipeChoice {
                    req: i / 4,
                    edge: (i % 11) as u32,
                    kind: match i % 3 {
                        0 => PipeKind::DirectSocket,
                        1 => PipeKind::LocalPipe,
                        _ => PipeKind::RemotePipe,
                    },
                    bytes: 1 + i * 37,
                },
                _ => EventKind::RemoteMarks {
                    req: i / 4,
                    edge: (i % 11) as u32,
                    chunks: 2 + (i % 5) as u32,
                    marks: (i % 3) as u32,
                },
            };
            events.push(TraceEvent {
                at_us: i * 13,
                kind,
            });
        }
        events
    }

    h.run("trace_codec", "encode_10k_events", || {
        let events = synthetic_events();
        let bytes = encode_trace(&events);
        assert!(bytes.len() > events.len());
        bytes.len()
    });

    let encoded = encode_trace(&synthetic_events());
    let expected = synthetic_events().len();
    h.run("trace_codec", "decode_10k_events_torn", move || {
        let mut dec = TraceDecoder::new();
        let mut got = 0usize;
        for piece in encoded.chunks(61) {
            dec.feed(piece);
            while let Some(_ev) = dec.next_event().expect("trace stream decodes") {
                got += 1;
            }
        }
        assert_eq!(got, expected);
        got
    });
}

/// CLI-configured runner: skips filtered-out benchmarks *before* timing
/// them, so a filtered invocation costs only the selected cases.
/// Positional arguments are substring filters; `--group` arguments are
/// `group/`-prefix filters (a benchmark runs if it matches either kind,
/// or no filters were given at all). Results are collected for the
/// `--compare` regression report.
struct Harness {
    filters: Vec<String>,
    group_filters: Vec<String>,
    runs: usize,
    results: RefCell<Vec<TimingResult>>,
}

impl Harness {
    fn run<T>(&self, group: &str, name: &str, f: impl FnMut() -> T) {
        let id = format!("{group}/{name}");
        let selected = (self.filters.is_empty() && self.group_filters.is_empty())
            || self.filters.iter().any(|flt| id.contains(flt.as_str()))
            || self
                .group_filters
                .iter()
                .any(|g| id.starts_with(g.as_str()));
        if selected {
            let result = time(group, name, self.runs, f);
            println!("{}", result.to_json_line());
            self.results.borrow_mut().push(result);
        }
    }
}

/// End-to-end **live** benchmarks: the four paper workflows executed
/// with real threads and real bytes on a multi-node `ClusterRuntime`
/// topology (spread placement: the streaming remote pipe carries the
/// large intermediates), plus a co-located single-node reference.
fn live_cluster_benchmarks(h: &Harness) {
    for bench in Benchmark::ALL {
        h.run(
            "live_cluster",
            &format!("{}/3nodes_spread", bench.name()),
            || {
                let report = WorkloadSpec::new()
                    .benchmark(bench)
                    .nodes(3)
                    .requests(2)
                    .payload_bytes(128 * 1024)
                    .run();
                assert!(report.stats.remote_bytes > 0);
                report
            },
        );
    }
    h.run("live_cluster", "wc/1node_colocated", || {
        let report = WorkloadSpec::new()
            .benchmark(Benchmark::Wc)
            .nodes(1)
            .placement(LivePlacement::SingleNode)
            .requests(2)
            .payload_bytes(128 * 1024)
            .run();
        assert_eq!(report.stats.remote_bytes, 0);
        report
    });
}

/// End-to-end engine benchmarks: cost of simulating workflow requests,
/// per system, plus a closed-loop burst.
fn engine_benchmarks(h: &Harness) {
    for sys in [
        SystemKind::DataFlower,
        SystemKind::FaaSFlow,
        SystemKind::Sonic,
        SystemKind::Centralized,
    ] {
        h.run(
            "engines",
            &format!("single_request/wc/{}", sys.label()),
            || {
                let scenario = Scenario::seeded(5);
                let report = scenario.open_loop(
                    sys,
                    Benchmark::Wc.workflow(),
                    Benchmark::Wc.default_payload(),
                    30.0,
                    20,
                );
                assert!(report.primary().completed > 0);
                report
            },
        );
    }
    for bench in [Benchmark::Wc, Benchmark::Img] {
        h.run(
            "engines",
            &format!("closed_loop_16_clients_60s/DataFlower/{}", bench.name()),
            || {
                let scenario = Scenario::seeded(6);
                scenario.closed_loop(
                    SystemKind::DataFlower,
                    bench.workflow(),
                    bench.default_payload(),
                    16,
                    60,
                )
            },
        );
    }
}

/// Data-plane micro-benchmarks, each measured against its pre-change
/// counterpart in the same run: the lock-striped sink vs. a single-lock
/// sink under 4 concurrent producers, zero-copy `Bytes::slice` chunking
/// vs. per-chunk copies for an 8 MiB remote-pipe transfer, and batched
/// (`send_many`/`drain_into`) vs. single-frame channel shipping.
fn data_plane_benchmarks(h: &Harness) {
    // 4 producer threads hammer one sink with stripe-spread request ids
    // (insert, read-modify, remove) while a gauge thread sweeps the whole
    // map the way `parked_entries` and the janitor do. With one lock
    // every sweep stalls every producer for the whole scan; striped,
    // producers only collide with the sweep on 1-in-16 stripes. The
    // single-lock variant is the same structure with one stripe — the
    // pre-change sink.
    const SINK_THREADS: u64 = 4;
    const SINK_OPS: u64 = 2_000;
    // Entries parked up-front so the sweeps scan a realistically full map.
    const SINK_PARKED: u64 = 4_096;
    let sink_bench = |stripes: usize| {
        use std::sync::atomic::{AtomicBool, Ordering};
        let sink: Arc<ShardedSink<u64>> = Arc::new(ShardedSink::new(stripes));
        for k in 0..SINK_PARKED {
            sink.insert(u64::MAX - k, k);
        }
        let done = Arc::new(AtomicBool::new(false));
        let sweeper = {
            let sink = Arc::clone(&sink);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut sweeps = 0u64;
                while !done.load(Ordering::Relaxed) {
                    std::hint::black_box(sink.fold(0u64, |a, _, v| a + v));
                    sweeps += 1;
                }
                sweeps
            })
        };
        let workers: Vec<_> = (0..SINK_THREADS)
            .map(|t| {
                let sink = Arc::clone(&sink);
                std::thread::spawn(move || {
                    for i in 0..SINK_OPS {
                        let key = t * 1_000_000 + i;
                        sink.insert(key, i);
                        sink.with(key, |v| {
                            *v.expect("inserted above") += 1;
                        });
                        assert_eq!(sink.remove(key), Some(i + 1));
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("sink worker");
        }
        done.store(true, Ordering::Relaxed);
        let sweeps = sweeper.join().expect("sweeper");
        assert!(sweeps > 0);
        assert_eq!(sink.len() as u64, SINK_PARKED);
    };
    h.run("data_plane", "sink_insert_take_4x2000/sharded16", || {
        sink_bench(16)
    });
    h.run("data_plane", "sink_insert_take_4x2000/single_lock", || {
        sink_bench(1)
    });

    // An 8 MiB remote-pipe transfer in 64 KiB chunks (128 frames — one
    // full default link queue), send side + receive side: frames are
    // staged like the link queue holds them, then reassembled.
    // `zero_copy` is the in-process fabric: refcounted `Bytes::slice`
    // views, rejoined by the reassembler — the payload is never touched.
    // `copy` is the comparator and the TCP-shaped fallback: every staged
    // frame is an allocation of its own (as the wire decoder makes them),
    // memcpy'd once more into the reassembly buffer.
    const XFER_BYTES: usize = 8 * 1024 * 1024;
    const XFER_CHUNK: usize = 64 * 1024;
    let payload = Bytes::from((0..XFER_BYTES).map(|i| i as u8).collect::<Vec<_>>());
    {
        let payload = payload.clone();
        h.run("data_plane", "remote_pipe_8mib/zero_copy", move || {
            let frames: Vec<(usize, Bytes)> = chunk_spans(payload.len(), XFER_CHUNK)
                .into_iter()
                .map(|(lo, hi)| (lo, payload.slice(lo..hi))) // O(1) views
                .collect();
            let mut r = Reassembler::new(payload.len());
            for (lo, frame) in frames {
                assert!(r.write_bytes(lo, frame));
            }
            assert!(r.complete());
            let out = r.into_bytes();
            assert_eq!(out.len(), payload.len());
            out
        });
    }
    {
        let payload = payload.clone();
        h.run("data_plane", "remote_pipe_8mib/copy", move || {
            let frames: Vec<(usize, Vec<u8>)> = chunk_spans(payload.len(), XFER_CHUNK)
                .into_iter()
                .map(|(lo, hi)| (lo, payload[lo..hi].to_vec())) // one allocation per frame
                .collect();
            let mut r = Reassembler::new(payload.len());
            for (lo, frame) in frames {
                assert!(r.write(lo, &frame));
            }
            assert!(r.complete());
            let out = r.into_bytes();
            assert_eq!(out.len(), payload.len());
            out
        });
    }
    // Whole-payload adoption: the single-chunk fast path the receive
    // side takes when one frame covers the transfer — zero memcpy.
    h.run(
        "data_plane",
        "remote_pipe_8mib/single_chunk_adopt",
        move || {
            let mut r = Reassembler::new(payload.len());
            assert!(r.write_bytes(0, payload.clone()));
            assert!(r.complete());
            r.into_bytes()
        },
    );

    // Channel shipping: 8192 frames through the in-tree MPMC channel,
    // batched (send_many / drain_into, 32 frames per lock) vs. the
    // pre-change one-lock-per-frame send/recv.
    const FRAMES: u64 = 8192;
    const BATCH: usize = 32;
    h.run("data_plane", "channel_ship_8k/batched", || {
        let (tx, rx) = rt_channel::unbounded::<u64>();
        let mut sent = 0u64;
        let mut got = 0u64;
        let mut buf = Vec::with_capacity(BATCH);
        while sent < FRAMES {
            let hi = (sent + BATCH as u64).min(FRAMES);
            tx.send_many(sent..hi).expect("receiver alive");
            sent = hi;
            while got < sent {
                got += rx.drain_into(&mut buf, BATCH).expect("sender alive") as u64;
                buf.clear();
            }
        }
        assert_eq!(got, FRAMES);
        got
    });
    h.run("data_plane", "channel_ship_8k/single_frame", || {
        let (tx, rx) = rt_channel::unbounded::<u64>();
        let mut got = 0u64;
        for chunk in 0..(FRAMES / BATCH as u64) {
            let base = chunk * BATCH as u64;
            for v in base..base + BATCH as u64 {
                tx.send(v).expect("receiver alive");
            }
            for _ in 0..BATCH {
                rx.recv().expect("sender alive");
                got += 1;
            }
        }
        assert_eq!(got, FRAMES);
        got
    });
}

/// Execution-core micro-benchmarks: the node scheduler's
/// submit→drain throughput (2000 no-op tasks through 4 slots, timed to
/// the joined `stop`) and the fabric link queue's
/// (`channel::bounded`) push/pop cost, same-thread and across a real
/// producer/consumer pair.
fn scheduler_benchmarks(h: &Harness) {
    use std::sync::atomic::{AtomicU64, Ordering};

    h.run("scheduler", "submit_drain_4x2000", || {
        let sched = NodeScheduler::new("bench", 4, 4);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..2000 {
            let hits = Arc::clone(&hits);
            sched.submit(Box::new(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        sched.stop();
        assert_eq!(hits.load(Ordering::Relaxed), 2000);
        hits.load(Ordering::Relaxed)
    });
    h.run("scheduler", "link_queue_8k/same_thread", || {
        let (tx, rx) = rt_channel::bounded::<u64>(1024);
        let mut buf = Vec::with_capacity(256);
        let mut popped = 0u64;
        for chunk in 0..32u64 {
            for i in 0..256u64 {
                tx.send(chunk * 256 + i).expect("receiver alive");
            }
            buf.clear();
            popped += rx.try_drain(&mut buf, 256).expect("connected") as u64;
        }
        assert_eq!(popped, 8192);
        popped
    });
    h.run("scheduler", "link_queue_8k/cross_thread", || {
        let (tx, rx) = rt_channel::bounded::<u64>(1024);
        let consumer = std::thread::spawn(move || {
            let mut got = 0u64;
            let mut buf = Vec::with_capacity(256);
            loop {
                buf.clear();
                match rx.drain_into(&mut buf, 256) {
                    Ok(n) => got += n as u64,
                    Err(_) => return got,
                }
            }
        });
        for i in 0..8192u64 {
            tx.send(i).expect("consumer alive");
        }
        drop(tx);
        let got = consumer.join().expect("consumer thread");
        assert_eq!(got, 8192);
        got
    });
}

/// Substrate micro-benchmarks: flow network rate recomputation, the
/// Wait-Match memory, the event queue and the percentile math.
fn substrate_benchmarks(h: &Harness) {
    for n in [8usize, 64, 256] {
        h.run(
            "substrates",
            &format!("flownet/start_and_drain/{n}"),
            || {
                let mut net = FlowNet::new();
                let shared = net.add_link(1e8);
                let links: Vec<_> = (0..8).map(|_| net.add_link(5e6)).collect();
                for i in 0..n {
                    net.start_flow(
                        SimTime::ZERO,
                        &[links[i % links.len()], shared],
                        1e6,
                        i as u64,
                    );
                }
                let done = net.advance(SimTime::from_secs(10_000));
                assert_eq!(done.len(), n);
                done
            },
        );
    }

    h.run("substrates", "wait_match_insert_take_1k", || {
        let mut sink = WaitMatchMemory::new();
        for r in 0..100 {
            for e in 0..10 {
                sink.insert(
                    RequestId::from_index(r),
                    FnId::from_index(e % 4),
                    EdgeId::from_index(e),
                    1024.0,
                    SimTime::ZERO,
                );
            }
        }
        for r in 0..100 {
            for f in 0..4 {
                sink.take_inputs(RequestId::from_index(r), FnId::from_index(f));
            }
        }
        assert!(sink.is_empty());
        sink
    });

    h.run("substrates", "event_queue_10k_schedule_pop", || {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_micros(i * 7919 % 65_536), i);
        }
        let mut count = 0;
        while q.pop().is_some() {
            count += 1;
        }
        assert_eq!(count, 10_000);
        count
    });

    let samples: Samples = (0..10_000).map(|i| ((i * 31) % 997) as f64).collect();
    h.run("substrates", "samples_p99_10k", || samples.p99());
}
