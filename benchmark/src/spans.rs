//! Span recording from outside the program, and the per-request
//! reconciliation that turns stamps into layer metrics.
//!
//! The program has no span clock yet (ROADMAP item 1a), so every stamp here
//! is taken by code the benchmark owns: the harness stamps around
//! `try_invoke` and at `wait`'s return, and every function body (they are
//! ours, see `sut.rs`) stamps at entry, around each `put`, and at exit. The
//! gaps between those stamps are the program's layers:
//!
//! ```text
//! due ─lag─ invoke() ─ingress─ body₀ … put ─hop─ body₁ … put ─hop─ … bodyₙ put ─egress─ wait() returns
//! ```
//!
//! Stamps are wall-clock nanoseconds so that worker processes of the TCP
//! workload share the coordinator's time base. They are kept in memory and
//! written out when the run ends (workers, which the coordinator stops with
//! `exit`, flush theirs from a background thread).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::stats;
use crate::workload::Workload;

/// Requests whose spans go to the `.spans.jsonl` file (all traced requests
/// feed the metrics; the cap keeps the file in the megabytes).
pub const JSONL_REQUESTS: usize = 2000;

static ENABLED: AtomicBool = AtomicBool::new(false);
const SHARDS: usize = 16;
static STAMPS: [Mutex<Vec<Stamp>>; SHARDS] = [const { Mutex::new(Vec::new()) }; SHARDS];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A function body, entry to exit.
    Body,
    /// One `put`/`put_to` call inside a body.
    Put,
}

/// One recorded interval inside the program's worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub req: u64,
    /// Index into `Workload::functions`.
    pub func: u8,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What the harness itself saw of one request.
#[derive(Debug, Clone, Copy)]
pub struct RequestRec {
    pub req: u64,
    pub due_ns: u64,
    pub invoke_start_ns: u64,
    pub invoke_end_ns: u64,
    pub done_ns: u64,
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub fn now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

fn record(s: Stamp) {
    STAMPS[s.req as usize % SHARDS]
        .lock()
        .expect("stamp shard poisoned")
        .push(s);
}

/// Takes every stamp recorded so far.
pub fn drain() -> Vec<Stamp> {
    let mut all = Vec::new();
    for shard in &STAMPS {
        all.append(&mut shard.lock().expect("stamp shard poisoned"));
    }
    all
}

/// The probe a function body carries. With tracing off it costs one relaxed
/// load at entry and nothing else.
pub struct BodyProbe {
    req: u64,
    func: u8,
    entry_ns: u64,
}

impl BodyProbe {
    pub fn enter(req: u64, func: u8) -> Option<BodyProbe> {
        enabled().then(|| BodyProbe {
            req,
            func,
            entry_ns: now_ns(),
        })
    }
}

/// Ends a body's span (a no-op with tracing off).
pub fn exit(probe: Option<BodyProbe>) {
    if let Some(p) = probe {
        record(Stamp {
            req: p.req,
            func: p.func,
            kind: Kind::Body,
            start_ns: p.entry_ns,
            end_ns: now_ns(),
        });
    }
}

/// Runs `put` (one `put`/`put_to` call), stamped when `probe` is on.
pub fn around_put(probe: &Option<BodyProbe>, put: impl FnOnce()) {
    match probe {
        None => put(),
        Some(p) => {
            let start_ns = now_ns();
            put();
            record(Stamp {
                req: p.req,
                func: p.func,
                kind: Kind::Put,
                start_ns,
                end_ns: now_ns(),
            });
        }
    }
}

// ---------------------------------------------------------------- workers

/// File a worker process of the TCP workload appends its stamps to.
pub fn worker_file(out_dir: &Path, workload: &str, node: usize) -> PathBuf {
    out_dir.join(format!("{workload}.worker{node}.stamps"))
}

/// Worker side: turn tracing on and flush stamps to `path` every 20 ms for
/// the life of the process (the coordinator ends it with `exit`).
pub fn spawn_worker_flusher(path: PathBuf) {
    set_enabled(true);
    std::thread::spawn(move || {
        let Ok(mut file) = std::fs::File::create(&path) else {
            return;
        };
        let mut text = String::new();
        loop {
            std::thread::sleep(Duration::from_millis(20));
            text.clear();
            for s in drain() {
                let kind = if s.kind == Kind::Body { 'b' } else { 'p' };
                let _ = writeln!(
                    text,
                    "{} {} {kind} {} {}",
                    s.req, s.func, s.start_ns, s.end_ns
                );
            }
            if !text.is_empty() && file.write_all(text.as_bytes()).is_err() {
                return;
            }
        }
    });
}

/// Coordinator side: read one worker's stamp file back (empty if absent).
pub fn read_worker_file(path: &Path) -> Vec<Stamp> {
    parse_stamps(&std::fs::read_to_string(path).unwrap_or_default())
}

fn parse_stamps(text: &str) -> Vec<Stamp> {
    text.lines()
        .filter_map(|line| {
            let mut f = line.split(' ');
            Some(Stamp {
                req: f.next()?.parse().ok()?,
                func: f.next()?.parse().ok()?,
                kind: match f.next()? {
                    "b" => Kind::Body,
                    "p" => Kind::Put,
                    _ => return None,
                },
                start_ns: f.next()?.parse().ok()?,
                end_ns: f.next()?.parse().ok()?,
            })
        })
        .collect()
}

// --------------------------------------------------------------- analysis

/// One named interval of a request, as written to the JSONL file.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<String>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The decomposition of one request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Decomposed {
    pub lag_us: f64,
    pub invoke_us: f64,
    pub ingress_us: f64,
    pub egress_us: f64,
    /// One per consumer function: producer's `put` return (last-arriving
    /// input) → consumer's body entry.
    pub hops_us: Vec<f64>,
    /// Every `put` call's duration.
    pub puts_us: Vec<f64>,
    /// Σ over bodies of (exit − entry − time inside `put`).
    pub body_self_us: f64,
    /// (lag + invoke + ingress + critical-path bodies and hops + egress) /
    /// (done − due); each term clamped at 0, so overlap or a wrongly
    /// attributed hop shows as a ratio off 1.
    pub reconcile: f64,
    pub spans: Vec<Span>,
}

/// The workload's DAG as the decomposition needs it, built once per run.
pub struct Shape {
    /// Function names in topological order; the last is the terminal.
    names: Vec<String>,
    /// Per function, the indices of the functions feeding it.
    producers: Vec<Vec<usize>>,
    pipe: &'static str,
}

impl Shape {
    pub fn of(w: &Workload) -> Shape {
        Shape {
            names: w.functions(),
            producers: w.producers(),
            pipe: w.pipe.name(),
        }
    }
}

/// Name of the span every other span of a request descends from.
const ROOT: &str = "request";

fn us(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e3
}

/// Decomposes one request from the harness record and the body stamps;
/// names its spans only when `want_spans` (the JSONL sample). `None` when a
/// body or put stamp is missing (e.g. a worker's last flush had not
/// happened yet).
pub fn decompose(
    shape: &Shape,
    rec: &RequestRec,
    stamps: &[Stamp],
    want_spans: bool,
) -> Option<Decomposed> {
    let Shape {
        names,
        producers,
        pipe,
    } = shape;
    let n = names.len();
    let mut body: Vec<Option<(u64, u64)>> = vec![None; n];
    let mut puts: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    for s in stamps {
        let f = s.func as usize;
        if f >= n {
            return None;
        }
        match s.kind {
            Kind::Body => body[f] = Some((s.start_ns, s.end_ns)),
            Kind::Put => puts[f].push((s.start_ns, s.end_ns)),
        }
    }
    let body: Vec<(u64, u64)> = body.into_iter().collect::<Option<_>>()?;
    for p in &mut puts {
        p.sort_unstable();
    }
    // A producer puts to its consumers in function order, so the put feeding
    // consumer `i` is the producer's k-th, k = i's rank among its consumers.
    let put_for = |j: usize, i: usize| -> Option<(u64, u64)> {
        let k = (0..i).filter(|&c| producers[c].contains(&j)).count();
        puts[j].get(k).copied()
    };
    let terminal = n - 1;
    let terminal_put = *puts[terminal].first()?;

    let mut d = Decomposed {
        lag_us: us(rec.due_ns, rec.invoke_start_ns),
        invoke_us: us(rec.invoke_start_ns, rec.invoke_end_ns),
        ingress_us: us(rec.invoke_end_ns, body[0].0),
        egress_us: us(terminal_put.1, rec.done_ns),
        ..Decomposed::default()
    };
    let mut spans = Vec::new();
    let mut span = |name: String, parent: &str, a: u64, b: u64| {
        spans.push(Span {
            name,
            parent: Some(parent.to_string()),
            start_ns: a,
            end_ns: b.max(a),
        });
    };

    // Last-arriving input of each consumer: the producer whose put returned
    // latest.
    let mut last_in: Vec<Option<(usize, u64)>> = vec![None; n];
    for i in 0..n {
        let mut in_put = 0u64;
        for &(a, b) in &puts[i] {
            d.puts_us.push(us(a, b));
            in_put += b.saturating_sub(a);
        }
        d.body_self_us += (body[i].1.saturating_sub(body[i].0).saturating_sub(in_put)) as f64 / 1e3;
        for &j in &producers[i] {
            let (_, put_end) = put_for(j, i)?;
            if last_in[i].map_or(true, |(_, t)| put_end > t) {
                last_in[i] = Some((j, put_end));
            }
        }
        if let Some((_, put_end)) = last_in[i] {
            d.hops_us.push(us(put_end, body[i].0));
        }
        if want_spans {
            let flu = format!("flu.{}", names[i]);
            for (k, &(a, b)) in puts[i].iter().enumerate() {
                span(format!("context.put.{}#{k}", names[i]), &flu, a, b);
            }
            if let Some((j, put_end)) = last_in[i] {
                let hop = format!("hop.{pipe}.{}->{}", names[j], names[i]);
                span(hop, ROOT, put_end, body[i].0);
            }
            span(flu, ROOT, body[i].0, body[i].1);
        }
    }
    if want_spans {
        span("client.lag".into(), ROOT, rec.due_ns, rec.invoke_start_ns);
        span(
            "runtime.invoke".into(),
            ROOT,
            rec.invoke_start_ns,
            rec.invoke_end_ns,
        );
        span("sched.ingress".into(), ROOT, rec.invoke_end_ns, body[0].0);
        span("runtime.egress".into(), ROOT, terminal_put.1, rec.done_ns);
        spans.push(Span {
            name: ROOT.to_string(),
            parent: None,
            start_ns: rec.due_ns,
            end_ns: rec.done_ns,
        });
        spans.sort_by_key(|s| (s.parent.is_some(), s.start_ns));
    }
    d.spans = spans;

    // Walk the critical path back from the terminal body.
    let mut path_us = d.lag_us + d.invoke_us + d.ingress_us + d.egress_us;
    let mut at = terminal;
    let mut until = terminal_put.1;
    loop {
        path_us += us(body[at].0, until);
        let Some((j, put_end)) = last_in[at] else {
            break;
        };
        path_us += us(put_end, body[at].0);
        at = j;
        until = put_end;
    }
    d.reconcile = path_us / us(rec.due_ns, rec.done_ns).max(1e-3);
    Some(d)
}

/// Percentiles of the decomposition over all traced requests.
#[derive(Debug, Default)]
pub struct TraceSummary {
    pub requests: usize,
    /// Requests dropped for missing stamps.
    pub incomplete: usize,
    pub invoke_us: Vec<f64>,
    pub ingress_us: Vec<f64>,
    pub egress_us: Vec<f64>,
    pub hops_us: Vec<f64>,
    pub puts_us: Vec<f64>,
    pub reconcile: Vec<f64>,
    pub body_self_us_per_req: f64,
    /// Spans of the first [`JSONL_REQUESTS`] requests, with request ids.
    pub sample: Vec<(u64, Vec<Span>)>,
}

pub fn summarize(w: &Workload, recs: &[RequestRec], stamps: Vec<Stamp>) -> TraceSummary {
    let shape = Shape::of(w);
    let mut by_req: HashMap<u64, Vec<Stamp>> = HashMap::with_capacity(recs.len());
    for s in stamps {
        by_req.entry(s.req).or_default().push(s);
    }
    let mut t = TraceSummary::default();
    let mut body_total = 0f64;
    for rec in recs {
        let want_spans = t.sample.len() < JSONL_REQUESTS;
        let Some(d) = by_req
            .get(&rec.req)
            .and_then(|s| decompose(&shape, rec, s, want_spans))
        else {
            t.incomplete += 1;
            continue;
        };
        t.requests += 1;
        t.invoke_us.push(d.invoke_us);
        t.ingress_us.push(d.ingress_us);
        t.egress_us.push(d.egress_us);
        t.hops_us.extend_from_slice(&d.hops_us);
        t.puts_us.extend_from_slice(&d.puts_us);
        t.reconcile.push(d.reconcile);
        body_total += d.body_self_us;
        if want_spans {
            t.sample.push((rec.req, d.spans));
        }
    }
    t.body_self_us_per_req = body_total / t.requests.max(1) as f64;
    t
}

/// `(p50, p99-or-highest-supported)` of `v`.
pub fn p50_p99(v: &mut [f64]) -> Option<(f64, f64)> {
    let q = stats::supported_quantile(0.99, v.len(), stats::TAIL_SAMPLES);
    v.sort_by(f64::total_cmp);
    Some((
        stats::quantile_sorted(v, 0.5)?,
        stats::quantile_sorted(v, q)?,
    ))
}

/// Writes the sampled spans, one JSON object per line.
pub fn write_jsonl(path: &Path, sample: &[(u64, Vec<Span>)]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (req, spans) in sample {
        for s in spans {
            let parent = match &s.parent {
                Some(p) => format!("\"{p}\""),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"req\":{req},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn stamp(func: u8, kind: Kind, start_us: u64, end_us: u64) -> Stamp {
        Stamp {
            req: 7,
            func,
            kind,
            start_ns: start_us * 1000,
            end_ns: end_us * 1000,
        }
    }

    /// A fan-out request laid out by hand: due 0, invoke 10–30, split
    /// 50–90 (puts return at 60, 65, 70, 75), workers enter 100, 101, 102,
    /// 103 and put at +10..+12, merge enters at 140, puts 150–155, wait
    /// returns at 180.
    fn synthetic() -> (RequestRec, Vec<Stamp>) {
        let rec = RequestRec {
            req: 7,
            due_ns: 0,
            invoke_start_ns: 10_000,
            invoke_end_ns: 30_000,
            done_ns: 180_000,
        };
        let mut s = vec![stamp(0, Kind::Body, 50, 90)];
        for k in 0..4u64 {
            s.push(stamp(0, Kind::Put, 58 + 5 * k, 60 + 5 * k));
            s.push(stamp(1 + k as u8, Kind::Body, 100 + k, 115 + k));
            s.push(stamp(1 + k as u8, Kind::Put, 110 + k, 112 + k));
        }
        s.push(stamp(5, Kind::Body, 140, 160));
        s.push(stamp(5, Kind::Put, 150, 155));
        (rec, s)
    }

    #[test]
    fn synthetic_fanout_reconciles_exactly() {
        let w = &WORKLOADS[0];
        let (rec, stamps) = synthetic();
        let d = decompose(&Shape::of(w), &rec, &stamps, true).unwrap();
        assert_eq!(d.lag_us, 10.0);
        assert_eq!(d.invoke_us, 20.0);
        assert_eq!(d.ingress_us, 20.0);
        assert_eq!(d.egress_us, 25.0);
        // split→work_k: 100+k − (60+5k); work→merge: 140 − 115 (work_3's put).
        assert_eq!(d.hops_us, vec![40.0, 36.0, 32.0, 28.0, 25.0]);
        assert_eq!(d.puts_us.len(), 9);
        // split 40−8, workers 4×(15−2), merge 20−5.
        assert_eq!(d.body_self_us, 32.0 + 52.0 + 15.0);
        // Path: lag 10 + invoke 20 + ingress 20 + split to put#3 (50→75) 25
        // + hop 28 + work_3 to put (103→115) 12 + hop 25 + merge to put
        // (140→155) 15 + egress 25 = 180 = latency.
        assert!((d.reconcile - 1.0).abs() < 1e-12, "{}", d.reconcile);
        let names: Vec<&str> = d.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"hop.direct.work_3->merge"));
        assert!(names.contains(&"context.put.split#3"));
        assert_eq!(d.spans[0].parent, None);
        assert!(d.spans[1..].iter().all(|s| s.parent.is_some()));
    }

    #[test]
    fn overlap_shows_as_ratio_above_one_and_gaps_are_clamped() {
        let w = &WORKLOADS[0];
        let (mut rec, stamps) = synthetic();
        // The first body started before `try_invoke` returned: ingress
        // clamps to 0 and the 20 µs of overlap is counted twice.
        rec.invoke_end_ns = 70_000;
        let d = decompose(&Shape::of(w), &rec, &stamps, true).unwrap();
        assert_eq!(d.ingress_us, 0.0);
        assert!((d.reconcile - 200.0 / 180.0).abs() < 1e-12);
    }

    #[test]
    fn missing_stamps_drop_the_request() {
        let w = &WORKLOADS[0];
        let (rec, mut stamps) = synthetic();
        stamps.retain(|s| !(s.func == 3 && s.kind == Kind::Body));
        assert!(decompose(&Shape::of(w), &rec, &stamps, false).is_none());
        let t = summarize(w, &[rec], stamps);
        assert_eq!((t.requests, t.incomplete), (0, 1));
    }

    #[test]
    fn chain_has_one_hop_per_stage_boundary() {
        let w = &WORKLOADS[1];
        let rec = RequestRec {
            req: 7,
            due_ns: 0,
            invoke_start_ns: 1_000,
            invoke_end_ns: 2_000,
            done_ns: 70_000,
        };
        let mut stamps = Vec::new();
        for k in 0..6u64 {
            stamps.push(stamp(k as u8, Kind::Body, 10 * k + 3, 10 * k + 8));
            stamps.push(stamp(k as u8, Kind::Put, 10 * k + 5, 10 * k + 7));
        }
        let t = summarize(w, &[rec], stamps);
        assert_eq!(t.requests, 1);
        assert_eq!(t.hops_us, vec![6.0; 5]);
        assert_eq!(t.body_self_us_per_req, 18.0);
        assert!((t.reconcile[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worker_stamp_lines_parse_and_garbage_is_skipped() {
        let got = parse_stamps("7 2 b 100 200\n7 2 p 120 130\ngarbage\n");
        assert_eq!(
            got,
            vec![
                Stamp {
                    req: 7,
                    func: 2,
                    kind: Kind::Body,
                    start_ns: 100,
                    end_ns: 200
                },
                Stamp {
                    req: 7,
                    func: 2,
                    kind: Kind::Put,
                    start_ns: 120,
                    end_ns: 130
                },
            ]
        );
    }
}
