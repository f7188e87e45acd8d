//! The four workloads as constants, and everything derived from `--seed`:
//! the arrival schedule, the tenant draw, the input pool and the
//! straight-line reference outputs the run is verified against.
//!
//! Nothing here calls the program. The reference outputs are computed from
//! the input bytes alone, so a program change cannot move them.

use std::time::Duration;

/// Inputs per workload; requests draw from this pool.
pub const POOL: usize = 16;
/// Tenants the requests are spread over (no admission caps configured).
pub const TENANTS: usize = 8;
/// Requests the closed-loop `sat` phase keeps in flight.
pub const SAT_WINDOW: usize = 16;
/// A request older than this is abandoned and counted failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);
/// Size of the set-up probe's input on every workload. Small on purpose: a
/// cold request of `stream_large_3n`'s size costs 1.5–4.7 ms depending on
/// what the allocator kept from the episode before, ten times the cluster
/// start it would be timed with.
pub const PROBE_BYTES: usize = 1024;
/// Every n-th response is compared byte for byte (plus the first per input;
/// every response is length-checked).
pub const VERIFY_EVERY: usize = 16;
/// Branches of the fan-out DAG.
pub const FANOUT: usize = 4;
/// Stages of the chain DAG.
pub const CHAIN_STAGES: usize = 6;

/// Shape of the workflow a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dag {
    /// `split` → [`FANOUT`] × `work_k` → `merge`.
    Fanout,
    /// `stage_0` → … → `stage_5`.
    Chain,
}

/// How nodes are connected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Medium {
    /// One process, in-process fabric.
    InProc,
    /// One worker process per node, TCP links.
    Tcp,
}

/// Which of the paper's three pipes carries a workload's function-to-function
/// transfers. Known from placement and payload size (§7: co-located → local
/// pipe; cross-node under 16 KiB → direct socket; otherwise chunked remote
/// pipe); each workload is built so that all its hops are of one kind. The
/// kind names the workload's hop spans and decides whether a per-MiB hop cost
/// is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipe {
    Local,
    Direct,
    Remote,
}

impl Pipe {
    pub fn name(self) -> &'static str {
        match self {
            Pipe::Local => "local",
            Pipe::Direct => "direct",
            Pipe::Remote => "remote",
        }
    }
}

/// One workload: fixed load, fixed sizes, fixed limit. Calibrated once on
/// the seed commit (see README.md "Calibration record") and frozen.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dag: Dag,
    pub medium: Medium,
    pub nodes: usize,
    pub pipe: Pipe,
    /// Nominal input size; pool entries jitter ±25 % around it.
    pub payload_bytes: usize,
    /// §6.2 recovery (sender retention + mark/complete acks) on.
    pub recovery: bool,
    /// Open-loop offered rates, requests per second.
    pub light_rps: f64,
    pub heavy_rps: f64,
    /// Latency limit on the reported tail percentile.
    pub limit: Duration,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fanout_small_2n",
        dag: Dag::Fanout,
        medium: Medium::InProc,
        nodes: 2,
        pipe: Pipe::Direct,
        payload_bytes: 4 * 1024,
        recovery: false,
        light_rps: 500.0,
        heavy_rps: 2000.0,
        limit: Duration::from_millis(5),
    },
    Workload {
        name: "chain_local_1n",
        dag: Dag::Chain,
        medium: Medium::InProc,
        nodes: 1,
        pipe: Pipe::Local,
        // Every pool entry stays above the 16 KiB direct-socket threshold,
        // so all five hops are local pipes.
        payload_bytes: 24 * 1024,
        recovery: false,
        light_rps: 1000.0,
        heavy_rps: 4000.0,
        limit: Duration::from_millis(5),
    },
    Workload {
        name: "stream_large_3n",
        dag: Dag::Fanout,
        medium: Medium::InProc,
        nodes: 3,
        pipe: Pipe::Remote,
        payload_bytes: 2 * 1024 * 1024,
        recovery: true,
        light_rps: 50.0,
        heavy_rps: 100.0,
        limit: Duration::from_millis(25),
    },
    Workload {
        name: "fanout_small_tcp",
        dag: Dag::Fanout,
        medium: Medium::Tcp,
        nodes: 2,
        pipe: Pipe::Direct,
        payload_bytes: 4 * 1024,
        recovery: false,
        light_rps: 500.0,
        heavy_rps: 2000.0,
        limit: Duration::from_millis(15),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Function names in topological order.
    pub fn functions(&self) -> Vec<String> {
        match self.dag {
            Dag::Fanout => std::iter::once("split".to_string())
                .chain((0..FANOUT).map(|k| format!("work_{k}")))
                .chain(std::iter::once("merge".to_string()))
                .collect(),
            Dag::Chain => (0..CHAIN_STAGES).map(|k| format!("stage_{k}")).collect(),
        }
    }

    /// For each function (by index into [`Workload::functions`]) the
    /// indices of the functions producing its inputs; empty for the entry.
    pub fn producers(&self) -> Vec<Vec<usize>> {
        match self.dag {
            Dag::Fanout => {
                let mut p = vec![vec![]];
                p.extend((0..FANOUT).map(|_| vec![0]));
                p.push((1..=FANOUT).collect());
                p
            }
            Dag::Chain => (0..CHAIN_STAGES)
                .map(|k| if k == 0 { vec![] } else { vec![k - 1] })
                .collect(),
        }
    }

    /// The straight-line reference: what the workflow must return for
    /// `input`, computed without the program.
    pub fn reference(&self, input: &[u8]) -> Vec<u8> {
        match self.dag {
            Dag::Fanout => {
                let parts: Vec<&[u8]> = (0..FANOUT)
                    .map(|k| {
                        let (a, b) = split_range(input.len(), k);
                        &input[a + work_skip(k)..b]
                    })
                    .collect();
                let total: usize = parts.iter().map(|p| p.len()).sum();
                let mut out = Vec::with_capacity(8 + total);
                out.extend_from_slice(&(total as u64).to_le_bytes());
                for p in parts {
                    out.extend_from_slice(p);
                }
                out
            }
            Dag::Chain => input[CHAIN_STAGES..].to_vec(),
        }
    }
}

/// Byte range of part `k` of a `len`-byte input (`split`'s rule).
pub fn split_range(len: usize, k: usize) -> (usize, usize) {
    (len * k / FANOUT, len * (k + 1) / FANOUT)
}

/// Leading bytes `work_k` drops from its part, so every branch leaves a
/// distinct, position-dependent mark on the result.
pub fn work_skip(k: usize) -> usize {
    k + 1
}

/// splitmix64: small, seedable, and good enough for schedules and payloads.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Distinct stream per (seed, workload, purpose) so phases do not share
/// arrival patterns and workloads do not share inputs.
fn stream(seed: u64, workload: &str, purpose: &str) -> Rng {
    let mut h = seed ^ 0xdf1e_0b5e_ed5e_ed00;
    for b in workload.bytes().chain([0]).chain(purpose.bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut r = Rng::new(h);
    r.next_u64();
    r
}

/// `len` pseudo-random bytes.
fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(len + 8);
    while buf.len() < len {
        buf.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    buf.truncate(len);
    buf
}

/// Stream of a workload's inputs; `fanout_small_tcp` runs the very inputs of
/// `fanout_small_2n`.
fn input_stream(w: &Workload, seed: u64, purpose: &str) -> Rng {
    let key = if w.name == "fanout_small_tcp" {
        "fanout_small_2n"
    } else {
        w.name
    };
    stream(seed, key, purpose)
}

/// The workload's [`POOL`] inputs for `seed`: contents pseudo-random, sizes
/// spread evenly over ±25 % of nominal and dealt to the pool's slots in a
/// seeded order. Every seed has the same sizes, so the bytes a run moves —
/// which set the latency of the large-payload workload — do not depend on it.
pub fn input_pool(w: &Workload, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = input_stream(w, seed, "inputs");
    let mut steps: Vec<usize> = (0..POOL).collect();
    for i in (1..POOL).rev() {
        steps.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    steps
        .into_iter()
        .map(|step| {
            let jitter = 0.75 + 0.5 * (step as f64 + 0.5) / POOL as f64;
            random_bytes(&mut rng, (w.payload_bytes as f64 * jitter) as usize)
        })
        .collect()
}

/// The input of the set-up probe: [`PROBE_BYTES`] pseudo-random bytes.
pub fn probe_input(w: &Workload, seed: u64) -> Vec<u8> {
    random_bytes(&mut input_stream(w, seed, "probe"), PROBE_BYTES)
}

/// One scheduled arrival of an open-loop phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, nanoseconds after the phase starts.
    pub at_ns: u64,
    pub tenant: u8,
    pub input: u8,
}

/// Poisson arrivals at `rps` for `duration`, with the tenant and input
/// drawn per request. Same `(seed, workload, phase, rps, duration)` → same
/// schedule, bit for bit.
pub fn schedule(
    w: &Workload,
    seed: u64,
    phase: &str,
    rps: f64,
    duration: Duration,
) -> Vec<Arrival> {
    let mut rng = stream(seed, w.name, phase);
    let end_ns = duration.as_nanos() as u64;
    let mut out = Vec::with_capacity((rps * duration.as_secs_f64() * 1.05) as usize + 16);
    let mut t = 0f64;
    loop {
        t += -rng.next_unit().ln() / rps * 1e9;
        if t as u64 >= end_ns {
            return out;
        }
        let (tenant, input) = draw(&mut rng);
        out.push(Arrival {
            at_ns: t as u64,
            tenant,
            input,
        });
    }
}

/// One request's (tenant, input) draw.
pub fn draw(rng: &mut Rng) -> (u8, u8) {
    let pick = rng.next_u64();
    (
        (pick % TENANTS as u64) as u8,
        ((pick >> 32) % POOL as u64) as u8,
    )
}

pub fn sat_stream(w: &Workload, seed: u64, episode: usize) -> Rng {
    stream(seed, w.name, &format!("sat{episode}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_pool_are_bit_identical_per_seed() {
        for w in &WORKLOADS {
            let d = Duration::from_millis(200);
            let a = schedule(w, 7, "heavy", w.heavy_rps, d);
            let b = schedule(w, 7, "heavy", w.heavy_rps, d);
            assert_eq!(a, b);
            assert_ne!(a, schedule(w, 8, "heavy", w.heavy_rps, d));
            assert_ne!(a, schedule(w, 7, "light", w.heavy_rps, d));
            if w.payload_bytes < 1 << 20 {
                assert_eq!(input_pool(w, 7), input_pool(w, 7));
                assert_ne!(input_pool(w, 7), input_pool(w, 8));
            }
        }
    }

    #[test]
    fn schedule_matches_rate_and_is_ordered() {
        let w = &WORKLOADS[0];
        let s = schedule(w, 42, "heavy", 8000.0, Duration::from_secs(2));
        assert!(s.windows(2).all(|p| p[0].at_ns <= p[1].at_ns));
        assert!(s.last().unwrap().at_ns < 2_000_000_000);
        let n = s.len() as f64;
        assert!((n - 16000.0).abs() < 4.0 * 16000f64.sqrt(), "n = {n}");
        assert!(s
            .iter()
            .all(|a| (a.tenant as usize) < TENANTS && (a.input as usize) < POOL));
        // Every tenant and every input is actually drawn.
        for t in 0..TENANTS as u8 {
            assert!(s.iter().any(|a| a.tenant == t));
        }
        for i in 0..POOL as u8 {
            assert!(s.iter().any(|a| a.input == i));
        }
    }

    #[test]
    fn pool_sizes_jitter_within_a_quarter() {
        let w = &WORKLOADS[0];
        let pool = input_pool(w, 42);
        assert_eq!(pool.len(), POOL);
        for p in &pool {
            assert!(p.len() >= w.payload_bytes * 3 / 4 && p.len() <= w.payload_bytes * 5 / 4);
        }
        // Same sizes on every seed, dealt in another order.
        let sizes = |seed| -> Vec<usize> { input_pool(w, seed).iter().map(Vec::len).collect() };
        let (mut a, mut b) = (sizes(42), sizes(43));
        assert_ne!(a, b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|p| p[0] < p[1]));
        assert_eq!(probe_input(w, 42).len(), PROBE_BYTES);
        assert_eq!(probe_input(w, 42), probe_input(&WORKLOADS[3], 42));
        // The TCP workload replays the in-process workload's inputs.
        assert_eq!(input_pool(&WORKLOADS[3], 42), pool);
    }

    #[test]
    fn references_are_the_documented_functions() {
        let fan = &WORKLOADS[0];
        let input: Vec<u8> = (0..40u8).collect();
        let r = fan.reference(&input);
        // parts 0..10, 10..20, 20..30, 30..40 with 1, 2, 3, 4 bytes dropped.
        assert_eq!(&r[..8], &30u64.to_le_bytes());
        let mut want: Vec<u8> = (1..10).collect();
        want.extend(12..20);
        want.extend(23..30);
        want.extend(34..40);
        assert_eq!(&r[8..], &want[..]);
        let chain = &WORKLOADS[1];
        assert_eq!(chain.reference(&input), (6..40).collect::<Vec<u8>>());
    }

    #[test]
    fn dag_tables_agree() {
        for w in &WORKLOADS {
            let f = w.functions();
            let p = w.producers();
            assert_eq!(f.len(), p.len());
            assert!(p[0].is_empty());
            for (i, ps) in p.iter().enumerate().skip(1) {
                assert!(!ps.is_empty() && ps.iter().all(|&j| j < i));
            }
        }
    }
}
