//! Flow-level network model with max–min fair bandwidth sharing.
//!
//! Every data transfer in the simulated cluster is a [`Flow`] routed over a
//! path of [`Link`]s (e.g. *container egress cap → node NIC → destination
//! NIC*). Between topology changes, each flow transfers at a constant rate
//! determined by progressive-filling max–min fairness; on every flow
//! arrival or departure the rates are recomputed and the projected
//! completion times shift accordingly.
//!
//! This is the standard fluid approximation used by cluster simulators: it
//! captures exactly the effects the DataFlower paper attributes to the
//! network — per-container bandwidth caps, contention on the storage node,
//! and transfer-time inflation under fan-out — without packet-level detail.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Residual bytes below which a flow counts as finished (guards float drift).
const COMPLETE_EPS_BYTES: f64 = 1e-3;

/// Handle to a link created by [`FlowNet::add_link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(u32);

/// Handle to an in-flight flow created by [`FlowNet::start_flow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u64);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link#{}", self.0)
    }
}
impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

#[derive(Debug)]
struct Link {
    /// Capacity in bytes per second.
    capacity: f64,
    /// Flows currently traversing this link (insertion order).
    flows: Vec<u64>,
}

#[derive(Debug)]
struct Flow {
    path: Vec<LinkId>,
    remaining: f64,
    total: f64,
    rate: f64,
    tag: u64,
    started: SimTime,
}

/// A completed transfer reported by [`FlowNet::advance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedFlow {
    /// The flow that finished.
    pub id: FlowId,
    /// Caller-supplied correlation tag from [`FlowNet::start_flow`].
    pub tag: u64,
    /// Instant the last byte arrived.
    pub at: SimTime,
    /// Total bytes carried.
    pub bytes: f64,
    /// Instant the flow was started.
    pub started: SimTime,
}

/// The fluid network: a set of capacity links and the flows over them.
///
/// # Examples
///
/// Two flows sharing a 100 B/s link each get 50 B/s until the shorter one
/// leaves, after which the survivor speeds up:
///
/// ```
/// use dataflower_sim::{FlowNet, SimTime};
///
/// let mut net = FlowNet::new();
/// let link = net.add_link(100.0);
/// net.start_flow(SimTime::ZERO, &[link], 100.0, 1);
/// net.start_flow(SimTime::ZERO, &[link], 50.0, 2);
///
/// // Short flow: 50 B at 50 B/s → t=1s. Long flow: 50 B left at t=1s,
/// // then alone at 100 B/s → finishes at t=1.5s.
/// let done = net.advance(SimTime::from_secs(2));
/// assert_eq!(done.len(), 2);
/// assert_eq!(done[0].tag, 2);
/// assert_eq!(done[0].at, SimTime::from_secs(1));
/// assert_eq!(done[1].tag, 1);
/// assert_eq!(done[1].at.as_micros(), 1_500_000);
/// ```
#[derive(Debug, Default)]
pub struct FlowNet {
    links: Vec<Link>,
    flows: BTreeMap<u64, Flow>,
    /// Links with at least one active flow (keeps rate recomputation
    /// proportional to the busy part of the topology, not all links ever
    /// created).
    active_links: std::collections::BTreeSet<u32>,
    next_flow: u64,
    settled_at: SimTime,
    scratch: RateScratch,
}

/// Reusable working memory of [`FlowNet::recompute_rates`]. Rates are
/// recomputed on every flow arrival and departure, so the progressive
/// filling loop must not allocate: these vectors are sized to the
/// topology once and reused, indexed by raw link id (no hashing).
#[derive(Debug, Default)]
struct RateScratch {
    /// Residual capacity per link id.
    residual: Vec<f64>,
    /// Unfrozen-flow count per link id.
    count: Vec<usize>,
    /// Flows not yet assigned a rate this pass, in id order.
    unfrozen: Vec<u64>,
    /// Next round's unfrozen set (swapped with `unfrozen` per round).
    still: Vec<u64>,
}

impl FlowNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a link with `capacity` in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not finite and positive.
    pub fn add_link(&mut self, capacity: f64) -> LinkId {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be positive and finite, got {capacity}"
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            capacity,
            flows: Vec::new(),
        });
        id
    }

    /// Changes a link's capacity (e.g. scaling a container up). Takes
    /// effect for all future rate computations; call at the current time.
    pub fn set_capacity(&mut self, now: SimTime, link: LinkId, capacity: f64) {
        assert!(capacity.is_finite() && capacity > 0.0);
        self.settle(now);
        self.links[link.0 as usize].capacity = capacity;
        self.recompute_rates();
    }

    /// Capacity of `link` in bytes per second.
    pub fn capacity(&self, link: LinkId) -> f64 {
        self.links[link.0 as usize].capacity
    }

    /// Fraction of `link`'s capacity currently in use (0.0–1.0).
    pub fn link_utilization(&self, link: LinkId) -> f64 {
        let l = &self.links[link.0 as usize];
        let used: f64 = l.flows.iter().map(|f| self.flows[f].rate).sum();
        (used / l.capacity).min(1.0)
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Starts a transfer of `bytes` along `path` and returns its handle.
    ///
    /// An empty `path` models an infinitely fast local move: the flow
    /// completes at the next [`FlowNet::advance`] with zero duration. The
    /// `tag` is an opaque correlation value echoed on completion.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative or not finite.
    pub fn start_flow(&mut self, now: SimTime, path: &[LinkId], bytes: f64, tag: u64) -> FlowId {
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "flow size must be non-negative"
        );
        self.settle(now);
        let id = self.next_flow;
        self.next_flow += 1;
        for l in path {
            self.links[l.0 as usize].flows.push(id);
            self.active_links.insert(l.0);
        }
        self.flows.insert(
            id,
            Flow {
                path: path.to_vec(),
                remaining: bytes,
                total: bytes,
                rate: 0.0,
                tag,
                started: now,
            },
        );
        self.recompute_rates();
        FlowId(id)
    }

    /// Cancels an in-flight flow, returning the bytes it still had to
    /// carry, or `None` if it already completed.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<f64> {
        self.settle(now);
        let flow = self.flows.remove(&id.0)?;
        for l in &flow.path {
            self.unlink(*l, id.0);
        }
        self.recompute_rates();
        Some(flow.remaining)
    }

    /// Current rate of `id` in bytes per second.
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id.0).map(|f| f.rate)
    }

    /// The earliest instant any in-flight flow can complete, if any.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.flows
            .values()
            .filter_map(|f| self.completion_time_of(f))
            .min()
    }

    fn completion_time_of(&self, f: &Flow) -> Option<SimTime> {
        if f.remaining <= COMPLETE_EPS_BYTES {
            return Some(self.settled_at);
        }
        if f.rate <= 0.0 {
            return None; // stalled (should not happen with positive caps)
        }
        Some(self.settled_at + SimDuration::from_secs_f64(f.remaining / f.rate))
    }

    /// Progresses all flows up to `now`, returning every flow that
    /// completed at or before `now` in completion order.
    ///
    /// Rates are recomputed after each departure so later completions see
    /// the freed bandwidth.
    pub fn advance(&mut self, now: SimTime) -> Vec<CompletedFlow> {
        let mut done = Vec::new();
        loop {
            let next = match self.next_completion() {
                Some(t) if t <= now => t,
                _ => break,
            };
            self.settle(next);
            // Collect every flow finished at this instant (BTreeMap order
            // keeps this deterministic).
            let finished: Vec<u64> = self
                .flows
                .iter()
                .filter(|(_, f)| f.remaining <= COMPLETE_EPS_BYTES)
                .map(|(id, _)| *id)
                .collect();
            debug_assert!(
                !finished.is_empty(),
                "completion time with no finished flow"
            );
            for id in finished {
                let flow = self.flows.remove(&id).expect("listed flow exists");
                for l in &flow.path {
                    self.unlink(*l, id);
                }
                done.push(CompletedFlow {
                    id: FlowId(id),
                    tag: flow.tag,
                    at: next,
                    bytes: flow.total,
                    started: flow.started,
                });
            }
            self.recompute_rates();
        }
        self.settle(now);
        done
    }

    /// Subtracts `rate * dt` progress from every flow up to `to`.
    fn settle(&mut self, to: SimTime) {
        if to <= self.settled_at {
            return;
        }
        let dt = (to - self.settled_at).as_secs_f64();
        for f in self.flows.values_mut() {
            if f.rate > 0.0 {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
        self.settled_at = to;
    }

    fn unlink(&mut self, l: LinkId, flow: u64) {
        let link = &mut self.links[l.0 as usize];
        link.flows.retain(|f| *f != flow);
        if link.flows.is_empty() {
            self.active_links.remove(&l.0);
        }
    }

    /// Sum of all flow rates, in bytes per second (network busyness for
    /// usage timelines).
    pub fn total_rate(&self) -> f64 {
        self.flows
            .values()
            .map(|f| if f.rate.is_finite() { f.rate } else { 0.0 })
            .sum()
    }

    /// Progressive-filling max–min fair allocation.
    ///
    /// Only links in `active_links` participate, so cost scales with the
    /// busy topology.
    fn recompute_rates(&mut self) {
        let FlowNet {
            links,
            flows,
            active_links,
            scratch,
            ..
        } = self;
        let RateScratch {
            residual,
            count,
            unfrozen,
            still,
        } = scratch;
        // Full-width scratch indexed by raw link id: only the active
        // links are (re)initialized, so the pass stays proportional to
        // the busy topology but never hashes or allocates.
        residual.resize(links.len(), 0.0);
        count.resize(links.len(), 0);
        for &l in active_links.iter() {
            let link = &links[l as usize];
            residual[l as usize] = link.capacity;
            count[l as usize] = link.flows.len();
        }
        unfrozen.clear();
        for (id, f) in flows.iter_mut() {
            if f.path.is_empty() {
                // Flows with an empty path are infinitely fast local moves.
                f.rate = f64::INFINITY;
                f.remaining = 0.0;
            } else {
                unfrozen.push(*id);
            }
        }

        while !unfrozen.is_empty() {
            // Fair share on the most constrained link.
            let mut min_share = f64::INFINITY;
            for &l in active_links.iter() {
                let c = count[l as usize];
                if c > 0 {
                    let share = residual[l as usize] / c as f64;
                    if share < min_share {
                        min_share = share;
                    }
                }
            }
            debug_assert!(min_share.is_finite(), "unfrozen flows but no loaded link");
            // Freeze every unfrozen flow that crosses a bottleneck link.
            let mut frozen_any = false;
            still.clear();
            for &id in unfrozen.iter() {
                let f = flows.get_mut(&id).expect("flow exists");
                let bottlenecked = f.path.iter().any(|l| {
                    let i = l.0 as usize;
                    count[i] > 0 && residual[i] / count[i] as f64 <= min_share * (1.0 + 1e-12)
                });
                if bottlenecked {
                    frozen_any = true;
                    for l in &f.path {
                        let i = l.0 as usize;
                        residual[i] = (residual[i] - min_share).max(0.0);
                        count[i] -= 1;
                    }
                    f.rate = min_share;
                } else {
                    still.push(id);
                }
            }
            debug_assert!(frozen_any, "progressive filling made no progress");
            std::mem::swap(unfrozen, still);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn single_flow_uses_full_capacity() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let f = net.start_flow(SimTime::ZERO, &[l], 100.0, 7);
        assert_eq!(net.flow_rate(f), Some(10.0));
        let done = net.advance(secs(20));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 7);
        assert_eq!(done[0].at, secs(10));
        assert_eq!(done[0].bytes, 100.0);
    }

    #[test]
    fn bottleneck_is_min_link_on_path() {
        let mut net = FlowNet::new();
        let fast = net.add_link(1000.0);
        let slow = net.add_link(10.0);
        let f = net.start_flow(SimTime::ZERO, &[fast, slow], 100.0, 0);
        assert_eq!(net.flow_rate(f), Some(10.0));
    }

    #[test]
    fn fair_share_splits_evenly() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let a = net.start_flow(SimTime::ZERO, &[l], 1000.0, 0);
        let b = net.start_flow(SimTime::ZERO, &[l], 1000.0, 1);
        assert_eq!(net.flow_rate(a), Some(50.0));
        assert_eq!(net.flow_rate(b), Some(50.0));
    }

    #[test]
    fn max_min_gives_leftover_to_unbottlenecked() {
        // Flow A is capped by its own 10 B/s access link; flow B shares the
        // 100 B/s core with A and should get the remaining 90 B/s.
        let mut net = FlowNet::new();
        let access_a = net.add_link(10.0);
        let core = net.add_link(100.0);
        let a = net.start_flow(SimTime::ZERO, &[access_a, core], 1e6, 0);
        let b = net.start_flow(SimTime::ZERO, &[core], 1e6, 1);
        assert!((net.flow_rate(a).unwrap() - 10.0).abs() < 1e-9);
        assert!((net.flow_rate(b).unwrap() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn departure_speeds_up_survivors() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        net.start_flow(SimTime::ZERO, &[l], 100.0, 1);
        net.start_flow(SimTime::ZERO, &[l], 50.0, 2);
        let done = net.advance(secs(10));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].at, secs(1));
        assert_eq!(done[1].at.as_micros(), 1_500_000);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        net.start_flow(secs(5), &[l], 0.0, 9);
        let done = net.advance(secs(5));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at, secs(5));
    }

    #[test]
    fn empty_path_is_instant() {
        let mut net = FlowNet::new();
        net.start_flow(secs(3), &[], 1e9, 4);
        let done = net.advance(secs(3));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at, secs(3));
        assert_eq!(done[0].bytes, 1e9);
    }

    #[test]
    fn cancel_returns_remaining() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let f = net.start_flow(SimTime::ZERO, &[l], 100.0, 0);
        let rem = net.cancel_flow(secs(4), f).unwrap();
        assert!((rem - 60.0).abs() < 1e-6, "rem={rem}");
        assert!(net.advance(secs(100)).is_empty());
    }

    #[test]
    fn capacity_change_reshapes_completion() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        net.start_flow(SimTime::ZERO, &[l], 100.0, 0);
        // After 5 s at 10 B/s, 50 B remain; doubling capacity finishes them
        // in 2.5 s.
        net.set_capacity(secs(5), l, 20.0);
        let done = net.advance(secs(100));
        assert_eq!(done[0].at.as_micros(), 7_500_000);
    }

    #[test]
    fn staggered_arrivals_share_fairly() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let a = net.start_flow(SimTime::ZERO, &[l], 100.0, 0);
        // A alone for 5 s → 50 B left. B arrives; both at 5 B/s.
        let b = net.start_flow(secs(5), &[l], 25.0, 1);
        assert_eq!(net.flow_rate(a), Some(5.0));
        assert_eq!(net.flow_rate(b), Some(5.0));
        let done = net.advance(secs(100));
        // B: 25 B at 5 B/s → t=10. A: at t=10 has 25 B left, alone → t=12.5.
        assert_eq!(done[0].tag, 1);
        assert_eq!(done[0].at, secs(10));
        assert_eq!(done[1].tag, 0);
        assert_eq!(done[1].at.as_micros(), 12_500_000);
    }

    #[test]
    fn utilization_reflects_rates() {
        let mut net = FlowNet::new();
        let cap = net.add_link(10.0);
        let core = net.add_link(100.0);
        net.start_flow(SimTime::ZERO, &[cap, core], 1e6, 0);
        assert!((net.link_utilization(cap) - 1.0).abs() < 1e-9);
        assert!((net.link_utilization(core) - 0.1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_link_rejected() {
        FlowNet::new().add_link(0.0);
    }
}
