//! The load generator: an open loop of two threads (a sleeping dispatcher
//! and a collector that cannot be head-of-line blocked) and a closed loop of
//! one. It talks to the system under test through [`Target`] only, so the
//! self-tests can put a stub with known behaviour behind it.

use std::collections::VecDeque;
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

use crate::spans::{self, RequestRec};
use crate::workload::{Arrival, Rng, POOL, REQUEST_TIMEOUT, SAT_WINDOW, VERIFY_EVERY};

/// Longest the collector blocks on one request before it looks at the rest.
const BLOCK: Duration = Duration::from_micros(200);
/// A request outstanding this long is no longer blocked on, only polled, so
/// a stalled request cannot delay the detection of the ones behind it.
const STRAGGLER: Duration = Duration::from_millis(10);
/// Stragglers are polled at least this often even while fresh requests keep
/// completing.
const SWEEP_EVERY: Duration = Duration::from_millis(1);
/// Gauge sampling period (20 Hz), when a phase asks for gauges.
const GAUGE_EVERY: Duration = Duration::from_millis(50);

pub enum Polled<O> {
    Done(O),
    Pending,
    /// The program reported an error for the request.
    Failed,
}

/// Instantaneous program-side gauges (in-process medium only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauges {
    pub inbound_depth: usize,
    pub retained: usize,
    pub parked: usize,
}

impl Gauges {
    fn max(self, o: Gauges) -> Gauges {
        Gauges {
            inbound_depth: self.inbound_depth.max(o.inbound_depth),
            retained: self.retained.max(o.retained),
            parked: self.parked.max(o.parked),
        }
    }
}

/// The tenant-facing surface the generator drives.
pub trait Target: Sync {
    type Req: Copy + Send;
    type Out: AsRef<[u8]>;
    /// Sends pool input `input` on behalf of tenant `tenant`; `None` when
    /// the program refused it.
    fn invoke(&self, tenant: u8, input: u8) -> Option<Self::Req>;
    /// Blocks at most `timeout` for the result.
    fn wait(&self, req: Self::Req, timeout: Duration) -> Polled<Self::Out>;
    /// Abandons a request that will not be waited for again.
    fn forget(&self, req: Self::Req);
    fn id(&self, req: Self::Req) -> u64;
    fn gauges(&self) -> Option<Gauges> {
        None
    }
}

/// Checks responses against the straight-line references: every response
/// by length, the first per input and every [`VERIFY_EVERY`]-th byte for byte.
pub struct Verifier<'a> {
    refs: &'a [Vec<u8>],
    seen: [bool; POOL],
    count: usize,
}

impl<'a> Verifier<'a> {
    pub fn new(refs: &'a [Vec<u8>]) -> Verifier<'a> {
        Verifier {
            refs,
            seen: [false; POOL],
            count: 0,
        }
    }

    pub fn ok(&mut self, input: u8, out: &[u8]) -> bool {
        let want = &self.refs[input as usize];
        self.count += 1;
        let first = !std::mem::replace(&mut self.seen[input as usize], true);
        if first || self.count % VERIFY_EVERY == 0 {
            out == want.as_slice()
        } else {
            out.len() == want.len()
        }
    }
}

/// Counts every phase prints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub sent: u64,
    pub completed: u64,
    /// Completed, verified, but later than the limit.
    pub late: u64,
    /// Timed out at [`REQUEST_TIMEOUT`], errored, or wrong output.
    pub failed: u64,
    /// Of `failed`: responses that did not match the reference.
    pub wrong: u64,
    pub rejected: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.sent += o.sent;
        self.completed += o.completed;
        self.late += o.late;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.rejected += o.rejected;
    }
}

pub struct OpenCfg<'a> {
    pub schedule: &'a [Arrival],
    pub refs: &'a [Vec<u8>],
    /// Latency limit; slower completions count as late.
    pub limit: Duration,
    /// Record a [`RequestRec`] per completion (traced phases).
    pub traced: bool,
    /// Sample [`Target::gauges`] at 20 Hz.
    pub gauges: bool,
}

#[derive(Debug, Default)]
pub struct OpenPhase {
    pub counts: Counts,
    /// `(due, s after phase start; latency, ms)` per verified completion.
    pub lat: Vec<(f64, f64)>,
    /// How late the dispatcher issued each request, µs.
    pub lag_us: Vec<f64>,
    pub inflight_peak: usize,
    pub gauge_peak: Gauges,
    pub recs: Vec<RequestRec>,
    pub elapsed: Duration,
}

struct Sent<R> {
    req: R,
    due: Instant,
    due_off_ns: u64,
    input: u8,
    invoke_start_ns: u64,
    invoke_end_ns: u64,
}

struct Collected {
    counts: Counts,
    lat: Vec<(f64, f64)>,
    inflight_peak: usize,
    gauge_peak: Gauges,
    recs: Vec<RequestRec>,
}

/// Runs one open-loop phase: the calling thread dispatches `cfg.schedule`
/// (sleeping to each arrival, sending all that are due on wake, timing each
/// from its due instant) while one spawned thread collects. Those two are
/// all the generator's threads: the one `spawn` below is the only one in
/// this file.
pub fn open_loop<T: Target>(target: &T, cfg: &OpenCfg) -> OpenPhase {
    let (tx, rx) = mpsc::channel::<Sent<T::Req>>();
    let mut phase = OpenPhase {
        lag_us: Vec::with_capacity(cfg.schedule.len()),
        ..OpenPhase::default()
    };
    let start = Instant::now();
    let wall0_ns = spans::now_ns();
    std::thread::scope(|s| {
        let collector = s.spawn(move || collect(target, rx, cfg, wall0_ns));
        for a in cfg.schedule {
            let due = start + Duration::from_nanos(a.at_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            phase
                .lag_us
                .push(Instant::now().saturating_duration_since(due).as_nanos() as f64 / 1e3);
            let invoke_start_ns = if cfg.traced { spans::now_ns() } else { 0 };
            let req = target.invoke(a.tenant, a.input);
            let invoke_end_ns = if cfg.traced { spans::now_ns() } else { 0 };
            phase.counts.sent += 1;
            match req {
                None => phase.counts.rejected += 1,
                Some(req) => {
                    let _ = tx.send(Sent {
                        req,
                        due,
                        due_off_ns: a.at_ns,
                        input: a.input,
                        invoke_start_ns,
                        invoke_end_ns,
                    });
                }
            }
        }
        drop(tx);
        let c = collector.join().expect("collector panicked");
        phase.counts.add(&c.counts);
        phase.lat = c.lat;
        phase.inflight_peak = c.inflight_peak;
        phase.gauge_peak = c.gauge_peak;
        phase.recs = c.recs;
    });
    phase.elapsed = start.elapsed();
    phase
}

fn collect<T: Target>(
    target: &T,
    rx: mpsc::Receiver<Sent<T::Req>>,
    cfg: &OpenCfg,
    wall0_ns: u64,
) -> Collected {
    let mut c = Collected {
        counts: Counts::default(),
        lat: Vec::with_capacity(cfg.schedule.len()),
        inflight_peak: 0,
        gauge_peak: Gauges::default(),
        recs: Vec::with_capacity(if cfg.traced { cfg.schedule.len() } else { 0 }),
    };
    let mut verifier = Verifier::new(cfg.refs);
    let mut fresh: VecDeque<Sent<T::Req>> = VecDeque::new();
    let mut stragglers: Vec<Sent<T::Req>> = Vec::new();
    let mut open = true;
    let mut last_sweep = Instant::now();
    let mut last_gauge = Instant::now();

    // Books one finished poll; returns false when the request is still out.
    let mut settle = |c: &mut Collected, s: &Sent<T::Req>, polled: Polled<T::Out>| -> bool {
        match polled {
            Polled::Pending => return false,
            Polled::Failed => c.counts.failed += 1,
            Polled::Done(out) => {
                let lat = s.due.elapsed();
                if verifier.ok(s.input, out.as_ref()) {
                    c.counts.completed += 1;
                    c.counts.late += u64::from(lat > cfg.limit);
                    c.lat
                        .push((s.due_off_ns as f64 / 1e9, lat.as_nanos() as f64 / 1e6));
                    if cfg.traced {
                        c.recs.push(RequestRec {
                            req: target.id(s.req),
                            due_ns: wall0_ns + s.due_off_ns,
                            invoke_start_ns: s.invoke_start_ns,
                            invoke_end_ns: s.invoke_end_ns,
                            done_ns: spans::now_ns(),
                        });
                    }
                } else {
                    c.counts.failed += 1;
                    c.counts.wrong += 1;
                }
            }
        }
        true
    };

    loop {
        loop {
            match rx.try_recv() {
                Ok(s) => fresh.push_back(s),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        c.inflight_peak = c.inflight_peak.max(fresh.len() + stragglers.len());
        if cfg.gauges && last_gauge.elapsed() >= GAUGE_EVERY {
            last_gauge = Instant::now();
            if let Some(g) = target.gauges() {
                c.gauge_peak = c.gauge_peak.max(g);
            }
        }
        if fresh.is_empty() && stragglers.is_empty() {
            if !open {
                return c;
            }
            match rx.recv_timeout(SWEEP_EVERY) {
                Ok(s) => fresh.push_back(s),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => open = false,
            }
            continue;
        }
        while fresh.front().is_some_and(|s| s.due.elapsed() > STRAGGLER) {
            stragglers.extend(fresh.pop_front());
        }
        let timed_out = match fresh.front() {
            Some(oldest) => {
                let polled = target.wait(oldest.req, BLOCK);
                if settle(&mut c, oldest, polled) {
                    fresh.pop_front();
                    false
                } else {
                    true
                }
            }
            None => {
                std::thread::sleep(BLOCK);
                true
            }
        };
        if !timed_out && last_sweep.elapsed() < SWEEP_EVERY {
            continue;
        }
        last_sweep = Instant::now();
        fresh.retain(|s| !settle(&mut c, s, target.wait(s.req, Duration::ZERO)));
        stragglers.retain(|s| {
            if settle(&mut c, s, target.wait(s.req, Duration::ZERO)) {
                return false;
            }
            if s.due.elapsed() < REQUEST_TIMEOUT {
                return true;
            }
            target.forget(s.req);
            c.counts.failed += 1;
            false
        });
    }
}

#[derive(Debug, Default)]
pub struct SatPhase {
    pub counts: Counts,
    /// Completion times, s after phase start.
    pub done_s: Vec<f64>,
    pub elapsed: Duration,
}

/// Runs the closed-loop phase on the calling thread alone: keeps
/// [`SAT_WINDOW`] requests in flight (fill, then block on the oldest) for
/// `duration`, then drains. A request that outlasts [`STRAGGLER`] gives its
/// window slot up and is only polled from then on, so one stalled request
/// costs the phase milliseconds, not [`REQUEST_TIMEOUT`].
pub fn closed_loop<T: Target>(
    target: &T,
    rng: &mut Rng,
    refs: &[Vec<u8>],
    duration: Duration,
) -> SatPhase {
    let mut phase = SatPhase::default();
    let mut verifier = Verifier::new(refs);
    let mut window: VecDeque<(T::Req, u8)> = VecDeque::with_capacity(SAT_WINDOW);
    let mut stragglers: Vec<(T::Req, u8, Instant)> = Vec::new();
    let start = Instant::now();
    // Books one poll; false when the request is still out.
    let mut settle = |phase: &mut SatPhase, input: u8, polled: Polled<T::Out>| -> bool {
        match polled {
            Polled::Pending => return false,
            Polled::Failed => phase.counts.failed += 1,
            Polled::Done(out) if verifier.ok(input, out.as_ref()) => {
                phase.counts.completed += 1;
                phase.done_s.push(start.elapsed().as_secs_f64());
            }
            Polled::Done(_) => {
                phase.counts.failed += 1;
                phase.counts.wrong += 1;
            }
        }
        true
    };
    loop {
        while window.len() < SAT_WINDOW && start.elapsed() < duration {
            let (tenant, input) = crate::workload::draw(rng);
            phase.counts.sent += 1;
            match target.invoke(tenant, input) {
                Some(req) => window.push_back((req, input)),
                None => phase.counts.rejected += 1,
            }
        }
        match window.pop_front() {
            Some((req, input)) => {
                if !settle(&mut phase, input, target.wait(req, STRAGGLER)) {
                    stragglers.push((req, input, Instant::now()));
                }
            }
            None if stragglers.is_empty() => break,
            None => std::thread::sleep(SWEEP_EVERY),
        }
        stragglers.retain(|&(req, input, since)| {
            if settle(&mut phase, input, target.wait(req, Duration::ZERO)) {
                return false;
            }
            if since.elapsed() < REQUEST_TIMEOUT {
                return true;
            }
            target.forget(req);
            phase.counts.failed += 1;
            false
        });
    }
    phase.elapsed = start.elapsed();
    phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// A target that answers `service` after the invoke, except that
    /// request `n` with `stall(n)` answers after `stall_for` (or never).
    struct Stub {
        service: Duration,
        stall_every: u64,
        stall_for: Option<Duration>,
        next: AtomicU64,
        ready_at: Mutex<Vec<Option<Instant>>>,
        forgotten: Mutex<Vec<u64>>,
        reply: Vec<u8>,
    }

    impl Stub {
        fn new(service: Duration, stall_every: u64, stall_for: Option<Duration>) -> Stub {
            Stub {
                service,
                stall_every,
                stall_for,
                next: AtomicU64::new(0),
                ready_at: Mutex::new(Vec::new()),
                forgotten: Mutex::new(Vec::new()),
                reply: vec![1, 2, 3],
            }
        }
    }

    impl Target for Stub {
        type Req = u64;
        type Out = Vec<u8>;

        fn invoke(&self, _tenant: u8, _input: u8) -> Option<u64> {
            let n = self.next.fetch_add(1, Ordering::Relaxed);
            let stalled = self.stall_every > 0 && n % self.stall_every == self.stall_every - 1;
            let ready = if stalled {
                self.stall_for.map(|d| Instant::now() + d)
            } else {
                Some(Instant::now() + self.service)
            };
            self.ready_at.lock().unwrap().push(ready);
            Some(n)
        }

        fn wait(&self, req: u64, timeout: Duration) -> Polled<Vec<u8>> {
            let ready = self.ready_at.lock().unwrap()[req as usize];
            let now = Instant::now();
            match ready {
                Some(t) if t <= now => Polled::Done(self.reply.clone()),
                Some(t) if t <= now + timeout => {
                    std::thread::sleep(t - now);
                    Polled::Done(self.reply.clone())
                }
                _ => {
                    std::thread::sleep(timeout);
                    Polled::Pending
                }
            }
        }

        fn forget(&self, req: u64) {
            self.forgotten.lock().unwrap().push(req);
        }

        fn id(&self, req: u64) -> u64 {
            req
        }
    }

    fn even_schedule(n: u64, gap: Duration) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival {
                at_ns: i * gap.as_nanos() as u64,
                tenant: 0,
                input: (i % POOL as u64) as u8,
            })
            .collect()
    }

    #[test]
    fn a_stalled_request_does_not_inflate_the_others() {
        // 2 000 req/s for 1 s; every 100th request stalls 50 ms — back to
        // back, so a collector that waits in order is blocked the whole
        // phase and reports a median in the tens of milliseconds.
        let stub = Stub::new(
            Duration::from_micros(300),
            100,
            Some(Duration::from_millis(50)),
        );
        let refs = vec![vec![1u8, 2, 3]; POOL];
        let schedule = even_schedule(2000, Duration::from_micros(500));
        let phase = open_loop(
            &stub,
            &OpenCfg {
                schedule: &schedule,
                refs: &refs,
                limit: Duration::from_millis(5),
                traced: false,
                gauges: false,
            },
        );
        assert_eq!(phase.counts.sent, 2000);
        assert_eq!(phase.counts.completed, 2000);
        assert_eq!(phase.counts.failed, 0);
        assert!(phase.counts.late >= 20);
        let mut lat: Vec<f64> = phase.lat.iter().map(|l| l.1).collect();
        let p50 = stats::quantile(&mut lat, 0.5).unwrap();
        assert!(
            p50 < 2.0,
            "median {p50} ms: the collector was head-of-line blocked"
        );
        assert!(*lat.last().unwrap() >= 50.0);
    }

    #[test]
    fn a_request_that_never_completes_is_forgotten_and_failed() {
        let stub = Stub::new(Duration::from_micros(200), 50, None);
        let refs = vec![vec![1u8, 2, 3]; POOL];
        let schedule = even_schedule(100, Duration::from_millis(1));
        let t0 = Instant::now();
        let phase = open_loop(
            &stub,
            &OpenCfg {
                schedule: &schedule,
                refs: &refs,
                limit: Duration::from_millis(5),
                traced: false,
                gauges: false,
            },
        );
        assert!(t0.elapsed() >= REQUEST_TIMEOUT);
        assert_eq!(phase.counts.sent, 100);
        assert_eq!(phase.counts.completed, 98);
        assert_eq!(phase.counts.failed, 2);
        assert_eq!(phase.counts.wrong, 0);
        assert_eq!(*stub.forgotten.lock().unwrap(), vec![49, 99]);
    }

    #[test]
    fn wrong_bytes_and_wrong_lengths_are_caught() {
        let refs = vec![vec![1u8, 2, 3]; POOL];
        let mut v = Verifier::new(&refs);
        assert!(v.ok(0, &[1, 2, 3])); // first for input 0: bytes
        assert!(!v.ok(1, &[1, 2, 4])); // first for input 1: bytes
        assert!(v.ok(0, &[9, 9, 9])); // 3rd response: length only
        assert!(!v.ok(0, &[9, 9])); // length always
        for _ in 4..VERIFY_EVERY - 1 {
            assert!(v.ok(0, &[1, 2, 3]));
        }
        assert!(!v.ok(0, &[9, 9, 9])); // every 16th: bytes again
    }

    #[test]
    fn closed_loop_keeps_the_window_full_on_one_thread() {
        let stub = Stub::new(Duration::from_millis(2), 0, None);
        let refs = vec![vec![1u8, 2, 3]; POOL];
        let mut rng = Rng::new(1);
        let phase = closed_loop(&stub, &mut rng, &refs, Duration::from_millis(300));
        assert_eq!(phase.counts.completed, phase.counts.sent);
        // 16 in flight over a 2 ms service time ≈ 8 000/s; allow for sleep
        // overshoot but require the window to have been kept full.
        let rate = phase.counts.completed as f64 / 0.3;
        assert!(rate > 3000.0 && rate < 8500.0, "rate {rate}");
    }
}
