//! Deterministic, seed-driven fault injection for the live cluster
//! runtime — the chaos half of the §6.2 fault-tolerance story.
//!
//! A [`FaultPlan`] describes everything that goes wrong in a run:
//!
//! * **frame chaos** — each fabric frame can be dropped, delivered
//!   twice, or have its shipper wakeup delayed, decided by a stateless
//!   hash of `(seed, frame number, link)`, so a plan is reproducible
//!   given the same frame sequence;
//! * **node kills** — [`NodeKill`] crashes a node when the global fabric
//!   frame counter reaches a chosen logical event, and the runtime's
//!   recovery daemon restarts it after the configured outage.
//!
//! The default plan is a no-op and costs the data plane nothing beyond
//! one `Option` check per frame. Plans with drops or kills need
//! [`ClusterConfig::recovery()`](crate::ClusterConfig::recovery()) to stay lossless:
//! recovery retains un-acked frames on the sender and replays them on
//! restart (resuming chunked streams from the last acknowledged
//! checkpoint mark) and retransmits frames whose acks never arrived.
//!
//! # Crash model
//!
//! A "crash" is a *data-plane* crash, the §6.2 pipe-connector view of a
//! node failure: every fabric frame inbound to the dead node is lost,
//! and reassembly progress past the last checkpoint mark is discarded
//! ([`Reassembler::rollback_to`](crate::Reassembler::rollback_to)).
//! Parked Wait-Match sink entries and FLU/DLU compute state are modeled
//! durable — the paper backs the data sink with function-exclusive disk
//! and ReDoes lost compute — so after
//! [`ClusterRuntime::restart_node`](crate::ClusterRuntime::restart_node)
//! the surviving entries are still parked and only the damaged stream
//! state is replayed.
//!
//! # Examples
//!
//! A plan that drops 2 % and duplicates 1 % of frames, and kills node 1
//! at the 40th fabric frame for a 20 ms outage:
//!
//! ```
//! use std::time::Duration;
//! use dataflower_rt::fault::{FaultPlan, FrameFate, NodeKill};
//!
//! let plan = FaultPlan::seeded(42)
//!     .frame_chaos(0.02, 0.01)
//!     .kill_node(1, 40, Duration::from_millis(20));
//! assert!(!plan.is_noop());
//! assert!(plan.validate().is_ok());
//!
//! // Frame fates are a pure function of (seed, frame, link): the same
//! // plan always makes the same decisions.
//! assert_eq!(plan.frame_fate(7, 0, 1), plan.frame_fate(7, 0, 1));
//! let dropped = (0..1000)
//!     .filter(|f| plan.frame_fate(*f, 0, 1) == FrameFate::Drop)
//!     .count();
//! assert!(dropped > 0 && dropped < 100, "~2% of 1000 frames");
//! assert_eq!(plan.kills, vec![NodeKill {
//!     node: 1,
//!     at_frame: 40,
//!     outage: Duration::from_millis(20),
//! }]);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Kill one node when the global fabric frame counter reaches a logical
/// event, then restart it after an outage (executed by the runtime's
/// recovery daemon).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeKill {
    /// The node to crash.
    pub node: usize,
    /// Crash when this many fabric frames have been shipped (a logical
    /// event index, not wall-clock — deterministic under load shifts).
    pub at_frame: u64,
    /// How long the node stays down before the recovery daemon restarts
    /// it and replays the retained streams.
    pub outage: Duration,
}

/// A deterministic, seed-driven fault-injection plan; see the
/// [module docs](self) for the model. The default plan injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-frame chaos decisions.
    pub seed: u64,
    /// Probability a fabric frame is dropped in flight.
    pub drop_frame_rate: f64,
    /// Probability a fabric frame is delivered twice.
    pub duplicate_frame_rate: f64,
    /// Probability a frame's shipper wakeup is delayed by
    /// [`FaultPlan::frame_delay`].
    pub delay_frame_rate: f64,
    /// Delay applied to frames selected by
    /// [`FaultPlan::delay_frame_rate`].
    pub frame_delay: Duration,
    /// Scheduled node crashes.
    pub kills: Vec<NodeKill>,
}

impl Default for FaultPlan {
    /// No faults: every frame delivers once, no node ever dies.
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_frame_rate: 0.0,
            duplicate_frame_rate: 0.0,
            delay_frame_rate: 0.0,
            frame_delay: Duration::from_millis(1),
            kills: Vec::new(),
        }
    }
}

/// What fault injection decided for one fabric frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// Deliver normally.
    Deliver,
    /// Lose the frame in flight (recovery retransmits it later).
    Drop,
    /// Deliver the frame twice (reassembly and the Wait-Match sink are
    /// idempotent, so duplicates must be harmless).
    Duplicate,
    /// Delay the shipper before delivering.
    Delay(Duration),
}

impl FaultPlan {
    /// An empty plan with the given chaos seed (builder entry point).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the frame drop and duplication rates (builder style).
    pub fn frame_chaos(mut self, drop_rate: f64, duplicate_rate: f64) -> FaultPlan {
        self.drop_frame_rate = drop_rate;
        self.duplicate_frame_rate = duplicate_rate;
        self
    }

    /// Delays `rate` of the shipper wakeups by `delay` (builder style).
    pub fn delay_frames(mut self, rate: f64, delay: Duration) -> FaultPlan {
        self.delay_frame_rate = rate;
        self.frame_delay = delay;
        self
    }

    /// Schedules a node kill (builder style); see [`NodeKill`].
    pub fn kill_node(mut self, node: usize, at_frame: u64, outage: Duration) -> FaultPlan {
        self.kills.push(NodeKill {
            node,
            at_frame,
            outage,
        });
        self
    }

    /// True when the plan injects nothing — the zero-cost default: the
    /// runtime skips all fault bookkeeping for no-op plans.
    pub fn is_noop(&self) -> bool {
        self.drop_frame_rate <= 0.0
            && self.duplicate_frame_rate <= 0.0
            && self.delay_frame_rate <= 0.0
            && self.kills.is_empty()
    }

    /// Validates the plan's rates (each in `[0, 1]`, summing to at most
    /// 1) — the runtime builder calls this in `start`.
    ///
    /// Node indices of [`FaultPlan::kills`] are validated against the
    /// placement's node count there too.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("drop_frame_rate", self.drop_frame_rate),
            ("duplicate_frame_rate", self.duplicate_frame_rate),
            ("delay_frame_rate", self.delay_frame_rate),
        ];
        for (name, r) in rates {
            if !r.is_finite() || !(0.0..=1.0).contains(&r) {
                return Err(format!("fault plan {name} must be within [0, 1], got {r}"));
            }
        }
        let sum = self.drop_frame_rate + self.duplicate_frame_rate + self.delay_frame_rate;
        if sum > 1.0 {
            return Err(format!(
                "fault plan frame rates sum to {sum}, which exceeds 1"
            ));
        }
        Ok(())
    }

    /// The fate of fabric frame number `frame` on link `src → dst`: a
    /// pure function of the plan's seed, so a plan replays identically
    /// for the same frame sequence.
    pub fn frame_fate(&self, frame: u64, src: usize, dst: usize) -> FrameFate {
        if self.drop_frame_rate <= 0.0
            && self.duplicate_frame_rate <= 0.0
            && self.delay_frame_rate <= 0.0
        {
            return FrameFate::Deliver;
        }
        let h = splitmix64(
            self.seed
                ^ frame.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ ((src as u64) << 32 | dst as u64).wrapping_mul(0xd1b5_4a32_d192_ed03),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // uniform [0, 1)
        if u < self.drop_frame_rate {
            FrameFate::Drop
        } else if u < self.drop_frame_rate + self.duplicate_frame_rate {
            FrameFate::Duplicate
        } else if u < self.drop_frame_rate + self.duplicate_frame_rate + self.delay_frame_rate {
            FrameFate::Delay(self.frame_delay)
        } else {
            FrameFate::Deliver
        }
    }
}

/// SplitMix64: the standard 64-bit finalizing mixer — enough entropy for
/// stateless per-frame decisions, no RNG state to share across shipper
/// threads.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Runtime counterpart of a [`FaultPlan`]: the global frame counter and
/// the not-yet-executed kill/restart schedule, shared by every shipper
/// thread and the recovery daemon.
pub(crate) struct FaultState {
    plan: FaultPlan,
    frames: AtomicU64,
    pending_kills: Mutex<Vec<NodeKill>>,
    due_restarts: Mutex<Vec<(Instant, usize)>>,
}

impl FaultState {
    pub fn new(plan: FaultPlan) -> FaultState {
        let pending_kills = Mutex::new(plan.kills.clone());
        FaultState {
            plan,
            frames: AtomicU64::new(0),
            pending_kills,
            due_restarts: Mutex::new(Vec::new()),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Ticks the global logical event counter; returns this frame's
    /// event number.
    pub fn next_frame(&self) -> u64 {
        self.frames.fetch_add(1, Ordering::Relaxed)
    }

    /// Kills whose `at_frame` has been reached, removed from the
    /// schedule (each fires once).
    pub fn take_due_kills(&self, frame: u64) -> Vec<NodeKill> {
        let mut pending = self.pending_kills.lock().expect("fault lock poisoned");
        if pending.iter().all(|k| k.at_frame > frame) {
            return Vec::new();
        }
        let mut due = Vec::new();
        pending.retain(|k| {
            if k.at_frame <= frame {
                due.push(k.clone());
                false
            } else {
                true
            }
        });
        due
    }

    /// Schedules a restart of `node` at `at` (executed by the recovery
    /// daemon's next tick past the deadline).
    pub fn schedule_restart(&self, node: usize, at: Instant) {
        self.due_restarts
            .lock()
            .expect("fault lock poisoned")
            .push((at, node));
    }

    /// Restarts whose outage deadline passed, removed from the schedule.
    pub fn take_due_restarts(&self, now: Instant) -> Vec<usize> {
        let mut pending = self.due_restarts.lock().expect("fault lock poisoned");
        let mut due = Vec::new();
        pending.retain(|(at, node)| {
            if *at <= now {
                due.push(*node);
                false
            } else {
                true
            }
        });
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop_and_always_delivers() {
        let plan = FaultPlan::default();
        assert!(plan.is_noop());
        assert!(plan.validate().is_ok());
        for f in 0..100 {
            assert_eq!(plan.frame_fate(f, 0, 1), FrameFate::Deliver);
        }
    }

    #[test]
    fn frame_fates_are_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::seeded(7)
            .frame_chaos(0.25, 0.25)
            .delay_frames(0.25, Duration::from_millis(2));
        assert!(plan.validate().is_ok());
        let (mut drops, mut dups, mut delays) = (0u32, 0u32, 0u32);
        for f in 0..4000 {
            let fate = plan.frame_fate(f, 1, 2);
            assert_eq!(fate, plan.frame_fate(f, 1, 2), "stateless determinism");
            match fate {
                FrameFate::Drop => drops += 1,
                FrameFate::Duplicate => dups += 1,
                FrameFate::Delay(d) => {
                    assert_eq!(d, Duration::from_millis(2));
                    delays += 1;
                }
                FrameFate::Deliver => {}
            }
        }
        for count in [drops, dups, delays] {
            assert!((700..1300).contains(&count), "≈25% of 4000, got {count}");
        }
        // Distinct links draw distinct streams.
        let differs = (0..100).any(|f| plan.frame_fate(f, 1, 2) != plan.frame_fate(f, 2, 1));
        assert!(differs);
    }

    #[test]
    fn invalid_rates_are_rejected() {
        assert!(FaultPlan::seeded(1)
            .frame_chaos(-0.1, 0.0)
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(1)
            .frame_chaos(1.1, 0.0)
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(1)
            .frame_chaos(0.6, 0.6)
            .validate()
            .is_err());
        assert!(FaultPlan::seeded(1)
            .frame_chaos(f64::NAN, 0.0)
            .validate()
            .is_err());
    }

    #[test]
    fn kills_fire_once_at_their_frame() {
        let plan = FaultPlan::seeded(1)
            .kill_node(2, 10, Duration::from_millis(5))
            .kill_node(1, 20, Duration::from_millis(5));
        let state = FaultState::new(plan);
        assert!(state.take_due_kills(9).is_empty());
        let due = state.take_due_kills(10);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].node, 2);
        assert!(state.take_due_kills(10).is_empty(), "each kill fires once");
        assert_eq!(state.take_due_kills(25).len(), 1);
    }

    #[test]
    fn restarts_become_due_after_their_deadline() {
        let state = FaultState::new(FaultPlan::default());
        let now = Instant::now();
        state.schedule_restart(3, now + Duration::from_millis(50));
        assert!(state.take_due_restarts(now).is_empty());
        let due = state.take_due_restarts(now + Duration::from_millis(51));
        assert_eq!(due, vec![3]);
        assert!(state
            .take_due_restarts(now + Duration::from_secs(1))
            .is_empty());
    }
}
