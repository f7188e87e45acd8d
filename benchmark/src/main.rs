//! `dataflower-benchmark`: drives the live runtime through its tenant-facing
//! API and prints the metrics BENCHMARK.json declares. See README.md.
//!
//! ```text
//! dataflower-benchmark --workload <name> [--seed 42] [--seconds 24]
//!                      [--trace 0|1] [--quick]
//! ```

mod loadgen;
mod procfs;
mod report;
mod spans;
mod stats;
mod sut;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use loadgen::{closed_loop, open_loop, Counts, OpenCfg, OpenPhase, Polled, SatPhase, Target};
use report::{metric, Check, Host, Report};
use sut::{Inputs, ProgramStats, StartOpts, Sut};
use workload::{input_pool, probe_input, schedule, Medium, Pipe, Workload, REQUEST_TIMEOUT};

/// `run_seconds` of BENCHMARK.json: what `--seconds` defaults to.
const DEFAULT_SECONDS: f64 = 24.0;
/// Fresh-cluster episodes per end-to-end run; every figure is their median.
const EPISODES: usize = 12;
/// Samples an episode's tail percentile must leave beyond itself. Fewer than
/// [`stats::TAIL_SAMPLES`] because the reported tail is the median of
/// [`EPISODES`] such percentiles: the run leaves 60 samples beyond it.
const EPISODE_TAIL_SAMPLES: usize = 5;
/// Start of each closed-loop phase that `peak_rps` leaves out, s.
const SAT_RAMP_S: f64 = 0.125;
/// `client.gen_lag_us_p99` above this at the heavy rate means the arrivals
/// were not the scheduled ones (README.md, "Honesty checks").
const GEN_LAG_LIMIT_US: f64 = 1000.0;
/// The benchmark's bodies are the control: they may take at most this share
/// of the median latency.
const BODY_SHARE_LIMIT: f64 = 0.2;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: dataflower-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]",
        names.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut quick = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = workload::by_name(&value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" => quick = true,
            _ => usage(),
        }
    }
    if !(seconds.is_finite() && (1.0..=600.0).contains(&seconds)) {
        usage();
    }
    Args {
        workload: workload.unwrap_or_else(|| usage()),
        seed,
        seconds: if quick { seconds / 5.0 } else { seconds },
        trace,
    }
}

fn main() {
    // A process spawned as a TCP-cluster worker never gets past this line.
    sut::serve_if_worker();
    let args = parse_args();

    let out_dir = std::env::var_os("DFBENCH_OUT")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from);
    let out_dir = std::path::absolute(&out_dir).unwrap_or(out_dir);
    // The worker-process cluster keeps its checkpoint logs under the
    // system temp dir; point that inside the checkout.
    let tmp = out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        std::process::exit(1);
    }
    std::env::set_var("TMPDIR", &tmp);

    let w = args.workload;
    let run = if args.trace {
        run_traced
    } else {
        run_end_to_end
    };
    let report = match run(w, &args, &out_dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    let mode = if args.trace { "trace" } else { "e2e" };
    let file = out_dir.join(format!("{}.{mode}.json", w.name));
    if let Err(e) = report::write_file(
        &file,
        &report,
        &Host::detect(),
        w.name,
        args.seed,
        args.seconds,
        args.trace,
    ) {
        eprintln!("cannot write {}: {e}", file.display());
        std::process::exit(1);
    }
    let _ = std::fs::remove_dir_all(&tmp);

    print!("{}", report::text(&report));
    if !report.correct() {
        eprintln!(
            "outputs differed from the reference: {} response(s)",
            report.totals().wrong
        );
        std::process::exit(1);
    }
    println!("{}", report::result_line(&report));
}

type RunResult = Result<Report, String>;

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn start_opts(out_dir: &Path) -> StartOpts {
    StartOpts {
        traced_workers: false,
        dftr: false,
        force_inproc: false,
        out_dir: out_dir.to_path_buf(),
    }
}

/// What a run makes from `--seed` before it starts any cluster: the input
/// pool, the set-up probe, and the straight-line reference output of each.
struct Prepared {
    inputs: Inputs,
    refs: Vec<Vec<u8>>,
    probe_ref: Vec<u8>,
}

impl Prepared {
    fn new(w: &Workload, seed: u64) -> Prepared {
        let pool = input_pool(w, seed);
        let probe = probe_input(w, seed);
        let refs = pool.iter().map(|i| w.reference(i)).collect();
        let probe_ref = w.reference(&probe);
        Prepared {
            inputs: Inputs::load(pool, probe),
            refs,
            probe_ref,
        }
    }
}

/// One set-up, and the seconds it took: cluster start (and worker spawn)
/// plus one verified probe request — so lazily spawned threads and lazily
/// dialled links are part of it. The harness's own preparation
/// ([`Prepared`]) is not.
fn set_up(w: &Workload, prepared: &Prepared, opts: &StartOpts) -> Result<(Sut, f64), String> {
    let t0 = Instant::now();
    let sut = Sut::start(w, &prepared.inputs, opts).map_err(|e| format!("cluster start: {e}"))?;
    let req = sut.invoke_probe().ok_or("probe request rejected")?;
    match sut.wait(req, REQUEST_TIMEOUT) {
        Polled::Done(out) if out.as_ref() == prepared.probe_ref.as_slice() => {
            Ok((sut, t0.elapsed().as_secs_f64()))
        }
        Polled::Done(_) => Err("probe request returned wrong bytes".into()),
        _ => Err("probe request did not complete".into()),
    }
}

/// A started cluster with what every phase on it needs.
struct Live<'a> {
    sut: &'a Sut,
    w: &'a Workload,
    seed: u64,
    refs: &'a [Vec<u8>],
}

impl Live<'_> {
    /// One open-loop phase at `rps`; `name` selects the arrival stream.
    fn open(&self, name: &str, rps: f64, duration: Duration, traced: bool) -> OpenPhase {
        let schedule = schedule(self.w, self.seed, name, rps, duration);
        open_loop(
            self.sut,
            &OpenCfg {
                schedule: &schedule,
                refs: self.refs,
                limit: self.w.limit,
                traced,
                gauges: traced,
            },
        )
    }
}

/// The `q`-quantile of a phase's latencies, ms.
fn lat_quantile(phase: &OpenPhase, q: f64) -> Option<f64> {
    let mut lat: Vec<f64> = phase.lat.iter().map(|l| l.1).collect();
    stats::quantile(&mut lat, q)
}

fn p50(phase: &OpenPhase) -> Option<f64> {
    lat_quantile(phase, 0.5)
}

fn lag_check(lag_p99_us: f64) -> Check {
    Check {
        name: "gen_lag_us_p99_heavy",
        ok: lag_p99_us < GEN_LAG_LIMIT_US,
        detail: format!("{lag_p99_us:.1} µs, limit {GEN_LAG_LIMIT_US} µs"),
    }
}

fn lag_p99(phase: &OpenPhase) -> f64 {
    let mut lag = phase.lag_us.clone();
    stats::quantile(&mut lag, 0.99).unwrap_or(0.0)
}

// ------------------------------------------------------------ end to end

/// One episode: a fresh cluster taken through set-up, warm-up and the three
/// measured phases, then stopped.
struct Episode {
    setup_s: f64,
    warm: OpenPhase,
    light: OpenPhase,
    heavy: OpenPhase,
    sat: SatPhase,
    /// CPU the process tree used during `heavy`.
    heavy_cpu_ms: f64,
    rss_peak_mib: f64,
}

/// How an episode's seconds are split over its phases.
struct Split {
    warm: f64,
    light: f64,
    heavy: f64,
    sat: f64,
}

impl Split {
    fn of(episode_s: f64) -> Split {
        Split {
            warm: episode_s / 16.0,
            light: episode_s * 4.0 / 16.0,
            heavy: episode_s * 6.0 / 16.0,
            sat: episode_s * 5.0 / 16.0,
        }
    }
}

fn episode(
    w: &'static Workload,
    args: &Args,
    prepared: &Prepared,
    opts: &StartOpts,
    index: usize,
    split: &Split,
) -> Result<Episode, String> {
    let (sut, setup_s) = set_up(w, prepared, opts)?;
    let refs = &prepared.refs;
    let pids = procfs::process_tree();
    // Each episode draws its own arrivals.
    let phase = |name: &str| format!("{name}{index}");
    let live = Live {
        sut: &sut,
        w,
        seed: args.seed,
        refs,
    };
    let warm = live.open(&phase("warm"), w.heavy_rps, secs(split.warm), false);
    let light = live.open(&phase("light"), w.light_rps, secs(split.light), false);
    let cpu0 = procfs::usage(&pids);
    let heavy = live.open(&phase("heavy"), w.heavy_rps, secs(split.heavy), false);
    let heavy_cpu_ms = procfs::usage(&pids).since(&cpu0).cpu_ms();
    let sat = closed_loop(
        &sut,
        &mut workload::sat_stream(w, args.seed, index),
        refs,
        secs(split.sat),
    );
    let rss_peak_mib = procfs::rss_peak_mib(&pids);
    sut.shutdown();
    Ok(Episode {
        setup_s,
        warm,
        light,
        heavy,
        sat,
        heavy_cpu_ms,
        rss_peak_mib,
    })
}

/// The tail percentile a phase of `rps` × `duration` supports, and its value.
fn tail(phase: &OpenPhase, rps: f64, duration: f64) -> Option<f64> {
    lat_quantile(phase, tail_quantile(rps, duration))
}

fn tail_quantile(rps: f64, duration: f64) -> f64 {
    stats::supported_quantile(0.99, (rps * duration) as usize, EPISODE_TAIL_SAMPLES)
}

/// Completions per second of one closed-loop phase after its first
/// [`SAT_RAMP_S`] (the ramp from an empty pipeline).
fn sat_rate(sat: &SatPhase, duration: f64) -> Option<f64> {
    // A phase too short to have a ramp to drop (`--quick`) is counted whole.
    let from = if duration > 2.0 * SAT_RAMP_S {
        SAT_RAMP_S
    } else {
        0.0
    };
    let n = sat
        .done_s
        .iter()
        .filter(|&&t| t >= from && t < duration)
        .count();
    (n > 0).then(|| n as f64 / (duration - from))
}

fn run_end_to_end(w: &'static Workload, args: &Args, out_dir: &Path) -> RunResult {
    let opts = start_opts(out_dir);
    let prepared = Prepared::new(w, args.seed);
    let len = args.seconds / EPISODES as f64;
    let split = Split::of(len);
    let episodes: Vec<Episode> = (0..EPISODES)
        .map(|i| episode(w, args, &prepared, &opts, i, &split))
        .collect::<Result<_, _>>()?;

    let mut r = Report::default();
    let sum = |counts: &dyn Fn(&Episode) -> Counts| {
        let mut total = Counts::default();
        episodes.iter().for_each(|e| total.add(&counts(e)));
        total
    };
    r.phases = vec![
        ("warm".into(), sum(&|e| e.warm.counts)),
        ("light".into(), sum(&|e| e.light.counts)),
        ("heavy".into(), sum(&|e| e.heavy.counts)),
        ("sat".into(), sum(&|e| e.sat.counts)),
    ];
    let all = r.totals();
    let hc = r.phases[2].1;
    // Every reported figure is the median over episodes of the episode's
    // own figure: a mode one cluster (or one stretch of seconds) got stuck
    // in moves one sample, not the result.
    let over = |f: &dyn Fn(&Episode) -> Option<f64>| -> Result<f64, String> {
        let mut v: Vec<f64> = episodes
            .iter()
            .map(f)
            .collect::<Option<_>>()
            .ok_or("a phase completed no request")?;
        Ok(stats::median(&mut v).expect("EPISODES >= 1"))
    };
    r.metrics = vec![
        metric("setup_s", over(&|e| Some(e.setup_s))?, "s"),
        metric("lat_p50_light_ms", over(&|e| p50(&e.light))?, "ms"),
        metric("lat_p50_heavy_ms", over(&|e| p50(&e.heavy))?, "ms"),
        metric(
            "lat_p99_light_ms",
            over(&|e| tail(&e.light, w.light_rps, split.light))?,
            "ms",
        ),
        metric(
            "lat_p99_heavy_ms",
            over(&|e| tail(&e.heavy, w.heavy_rps, split.heavy))?,
            "ms",
        ),
        metric(
            "slo_met_share",
            1.0 - (hc.late + hc.failed + hc.rejected) as f64 / hc.sent.max(1) as f64,
            "share",
        ),
        metric("peak_rps", over(&|e| sat_rate(&e.sat, split.sat))?, "1/s"),
        metric(
            "ok_share",
            1.0 - (all.failed + all.rejected) as f64 / all.sent.max(1) as f64,
            "share",
        ),
        metric(
            "cpu_ms_per_req",
            over(&|e| {
                (e.heavy.counts.completed > 0)
                    .then(|| e.heavy_cpu_ms / e.heavy.counts.completed as f64)
            })?,
            "ms",
        ),
        // `VmHWM` never falls, so only the first episode's is the peak of
        // one cluster in a fresh process; the later ones add what the
        // allocator kept from clusters already shut down.
        metric("rss_peak_mb", episodes[0].rss_peak_mib, "MiB"),
    ];
    r.checks = vec![lag_check(over(&|e| Some(lag_p99(&e.heavy)))?)];
    r.notes.push(format!(
        "{EPISODES} episodes of {len:.2} s on fresh clusters; figures are medians over episodes; tail percentile: light p{:.1}, heavy p{:.1}",
        100.0 * tail_quantile(w.light_rps, split.light),
        100.0 * tail_quantile(w.heavy_rps, split.heavy)
    ));
    Ok(r)
}

// ----------------------------------------------------------------- traced

/// What one traced (or comparator) open-loop phase on a fresh cluster gave.
struct TracedPhase {
    phase: OpenPhase,
    stats: ProgramStats,
    usage: procfs::Usage,
    threads_peak: u64,
    runtime_threads: Option<usize>,
    stamps: Vec<spans::Stamp>,
}

/// One measured open-loop phase of a traced run.
struct Measure<'a> {
    /// Selects the arrival stream (same name, same schedule).
    name: &'a str,
    rps: f64,
    warm: Duration,
    measure: Duration,
    traced: bool,
}

/// Fresh cluster → warm-up → one measured phase → shutdown.
fn fresh_cluster_phase(
    w: &'static Workload,
    args: &Args,
    prepared: &Prepared,
    opts: &StartOpts,
    m: &Measure,
) -> Result<TracedPhase, String> {
    let &Measure {
        name,
        rps,
        warm,
        measure,
        traced,
    } = m;
    let (sut, _) = set_up(w, prepared, opts)?;
    let pids = procfs::process_tree();
    let live = Live {
        sut: &sut,
        w,
        seed: args.seed,
        refs: &prepared.refs,
    };
    live.open("warm", rps, warm, false);
    spans::set_enabled(traced);
    spans::drain();
    let stats0 = sut.stats();
    let usage0 = procfs::usage(&pids);
    let phase = live.open(name, rps, measure, traced);
    let usage = procfs::usage(&pids).since(&usage0);
    let s1 = sut.stats();
    let threads_peak = procfs::threads(&pids);
    let runtime_threads = sut.runtime_threads();
    spans::set_enabled(false);
    let mut stamps = spans::drain();
    if traced && opts.traced_workers {
        // Let the workers' 20 ms flushers write their last stamps.
        std::thread::sleep(Duration::from_millis(100));
    }
    sut.shutdown();
    if traced && opts.traced_workers {
        for node in 0..w.nodes {
            let path = spans::worker_file(&opts.out_dir, w.name, node);
            stamps.extend(spans::read_worker_file(&path));
            let _ = std::fs::remove_file(path);
        }
    }
    Ok(TracedPhase {
        phase,
        stats: s1.since(&stats0),
        usage,
        threads_peak,
        runtime_threads,
        stamps,
    })
}

fn run_traced(w: &'static Workload, args: &Args, out_dir: &Path) -> RunResult {
    let s = args.seconds;
    let tcp = w.medium == Medium::Tcp;
    let dftr = w.name == "fanout_small_2n";
    let extra = if tcp || dftr { s / 4.0 } else { 0.0 };
    let warm = secs(s / 16.0);
    let untraced = secs(s / 4.0);
    let traced = secs(s * 5.0 / 8.0 - extra);
    let plain = start_opts(out_dir);
    let prepared = Prepared::new(w, args.seed);
    let run = |opts: &StartOpts, m: &Measure| fresh_cluster_phase(w, args, &prepared, opts, m);
    let mut r = Report::default();

    // Tracing off, then on, at the same rate on the same schedule.
    let heavy = |measure: Duration, traced: bool| Measure {
        name: "heavy",
        rps: w.heavy_rps,
        warm,
        measure,
        traced,
    };
    let base = run(&plain, &heavy(untraced, false))?;
    let traced_opts = StartOpts {
        traced_workers: tcp,
        ..plain.clone()
    };
    let t = run(&traced_opts, &heavy(traced, true))?;
    r.phases.push(("untraced".into(), base.phase.counts));
    r.phases.push(("traced".into(), t.phase.counts));

    let mut sum = spans::summarize(w, &t.phase.recs, t.stamps);
    spans::write_jsonl(
        &out_dir.join(format!("{}.spans.jsonl", w.name)),
        &sum.sample,
    )
    .map_err(|e| format!("write spans: {e}"))?;
    let n = t.phase.counts.completed.max(1) as f64;
    if sum.requests == 0 {
        return Err(format!(
            "no traced request had all its stamps ({} incomplete)",
            sum.incomplete
        ));
    }
    let pp = |v: &mut Vec<f64>| spans::p50_p99(v).expect("summary has requests");
    let (invoke50, invoke99) = pp(&mut sum.invoke_us);
    let (egress50, egress99) = pp(&mut sum.egress_us);
    let (ingress50, ingress99) = pp(&mut sum.ingress_us);
    let (put50, put99) = pp(&mut sum.puts_us);
    let (hop50, hop99) = pp(&mut sum.hops_us);
    let (reconcile50, _) = pp(&mut sum.reconcile);
    let base_p50 = p50(&base.phase).ok_or("the untraced phase completed no request")?;
    let traced_p50 = p50(&t.phase).ok_or("the traced phase completed no request")?;
    let run_q = stats::supported_quantile(0.99, t.phase.lat.len(), stats::TAIL_SAMPLES);
    let lat_p99_run = lat_quantile(&t.phase, run_q).expect("completed > 0");
    let lat_max = lat_quantile(&t.phase, 1.0).expect("completed > 0");
    let tc = t.phase.counts;
    let st = &t.stats;
    let per = |v: u64| v as f64 / n;
    let per_k = |v: u64| v as f64 * 1000.0 / n;

    r.metrics = vec![
        metric("runtime.invoke_call_us_p50", invoke50, "us"),
        metric("runtime.invoke_call_us_p99", invoke99, "us"),
        metric("runtime.wait_egress_us_p50", egress50, "us"),
        metric("runtime.wait_egress_us_p99", egress99, "us"),
        metric("runtime.invocations_per_req", per(st.invocations), "count"),
        metric("runtime.puts_per_req", per(st.puts), "count"),
        metric("sched.ingress_wait_us_p50", ingress50, "us"),
        metric("sched.ingress_wait_us_p99", ingress99, "us"),
        metric("context.put_call_us_p50", put50, "us"),
        metric("context.put_call_us_p99", put99, "us"),
        metric("hop.us_p50", hop50, "us"),
        metric("hop.us_p99", hop99, "us"),
        metric("flu.body_us_per_req", sum.body_self_us_per_req, "us"),
        metric("fabric.direct_per_req", per(st.direct), "count"),
        metric("fabric.local_per_req", per(st.local), "count"),
        metric("fabric.remote_per_req", per(st.remote), "count"),
        metric("fabric.chunks_per_req", per(st.chunks), "count"),
        metric("fabric.remote_bytes_per_req", per(st.remote_bytes), "B"),
        metric("fabric.acked_marks_per_req", per(st.acked_marks), "count"),
        metric(
            "fabric.retransmitted_per_kreq",
            per_k(st.retransmitted),
            "count",
        ),
        metric("fabric.replayed_bytes_per_req", per(st.replayed_bytes), "B"),
        metric("sink.spills_per_kreq", per_k(st.spills), "count"),
        metric("admission.rejected_per_kreq", per_k(st.rejected), "count"),
        metric("trace.reconcile_ratio_p50", reconcile50, "ratio"),
        metric("trace.overhead_ratio", traced_p50 / base_p50, "ratio"),
        metric("proc.user_ms_per_req", t.usage.user_ms / n, "ms"),
        metric("proc.sys_ms_per_req", t.usage.sys_ms / n, "ms"),
        metric("proc.vol_ctxsw_per_req", per(t.usage.vol_ctxsw), "count"),
        metric(
            "proc.invol_ctxsw_per_req",
            per(t.usage.invol_ctxsw),
            "count",
        ),
        metric(
            "proc.minor_faults_per_req",
            per(t.usage.minor_faults),
            "count",
        ),
        metric("proc.threads_peak", t.threads_peak as f64, "count"),
        metric("client.gen_lag_us_p99", lag_p99(&t.phase), "us"),
        metric(
            "client.inflight_peak",
            t.phase.inflight_peak as f64,
            "count",
        ),
        metric("client.lat_p99_run_ms", lat_p99_run, "ms"),
        metric("client.lat_max_ms", lat_max, "ms"),
        metric(
            "client.slo_miss_share",
            (tc.late + tc.failed + tc.rejected) as f64 / tc.sent.max(1) as f64,
            "share",
        ),
        metric(
            "client.failed_share",
            (tc.failed + tc.rejected) as f64 / tc.sent.max(1) as f64,
            "share",
        ),
    ];

    // Only what this workload has: gauges need the in-process medium.
    if let Some(threads) = t.runtime_threads {
        let g = t.phase.gauge_peak;
        r.extra
            .push(metric("runtime.threads", threads as f64, "count"));
        r.extra.push(metric(
            "fabric.inbound_depth_peak",
            g.inbound_depth as f64,
            "count",
        ));
        r.extra
            .push(metric("fabric.retained_peak", g.retained as f64, "count"));
        r.extra
            .push(metric("sink.parked_entries_peak", g.parked as f64, "count"));
    }
    if w.pipe == Pipe::Remote {
        // Every hop carries one branch's part: 1/FANOUT of the input.
        let hop_mib = w.payload_bytes as f64 / workload::FANOUT as f64 / (1024.0 * 1024.0);
        r.extra
            .push(metric("hop.remote_us_per_mib", hop50 / hop_mib, "us/MiB"));
    }
    if tcp {
        // Same schedule, same bodies, same tracing — other medium.
        let inproc = StartOpts {
            force_inproc: true,
            ..plain.clone()
        };
        let m = Measure {
            warm: secs(extra / 8.0),
            ..heavy(secs(extra * 7.0 / 8.0), true)
        };
        let c = run(&inproc, &m)?;
        r.phases.push(("inproc".into(), c.phase.counts));
        r.extra.push(metric(
            "transport.medium_delta_us_p50",
            (traced_p50 - p50(&c.phase).ok_or("the in-process comparator completed no request")?)
                * 1000.0,
            "us",
        ));
    }
    if dftr {
        // The program's own DFTR recorder, off then on, at the light rate.
        let m = Measure {
            name: "light",
            rps: w.light_rps,
            warm: secs(extra / 8.0),
            measure: secs(extra * 3.0 / 8.0),
            traced: false,
        };
        let on = StartOpts {
            dftr: true,
            ..plain.clone()
        };
        let off_p = run(&plain, &m)?;
        let on_p = run(&on, &m)?;
        r.phases.push(("dftr_off".into(), off_p.phase.counts));
        r.phases.push(("dftr_on".into(), on_p.phase.counts));
        r.extra.push(metric(
            "trace.dftr_overhead_ratio",
            p50(&on_p.phase).ok_or("no request with DFTR on")?
                / p50(&off_p.phase).ok_or("no request with DFTR off")?,
            "ratio",
        ));
    }

    let body_share = sum.body_self_us_per_req / (base_p50 * 1000.0);
    r.checks = vec![
        lag_check(lag_p99(&t.phase)),
        Check {
            name: "body_share_of_p50",
            ok: body_share <= BODY_SHARE_LIMIT,
            detail: format!(
                "flu.body_us_per_req is {:.1} % of the untraced median, limit {:.0} %",
                body_share * 100.0,
                BODY_SHARE_LIMIT * 100.0
            ),
        },
    ];
    if !tcp {
        r.checks.push(Check {
            name: "reconcile_ratio_p50",
            ok: (0.9..=1.1).contains(&reconcile50),
            detail: format!("{reconcile50:.4}, allowed 0.9–1.1"),
        });
    }
    r.notes.push(format!(
        "hop.* is the {} pipe on this workload",
        w.pipe.name()
    ));
    r.notes.push(format!(
        "{} traced requests decomposed, {} dropped for missing stamps; spans of the first {} in {}.spans.jsonl",
        sum.requests,
        sum.incomplete,
        sum.sample.len(),
        w.name
    ));
    Ok(r)
}
