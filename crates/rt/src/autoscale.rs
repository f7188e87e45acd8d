//! Pressure-aware elastic scaling of FLU executor capacity (§5.2, Eq. 1).
//!
//! The simulator has always modeled DataFlower's third pillar — an FLU
//! whose DLU cannot drain is blocked, and the engine scales containers
//! out instead of queuing. This module brings the same loop to the live
//! runtime: a runtime-wide autoscaler samples each hosted function's DLU
//! backlog, turns it into seconds of backpressure via
//! [`dataflower::pressure_secs`], and grows or shrinks the function's
//! replica count between configurable bounds. Replica counts no longer
//! map to dedicated threads: they widen or narrow the *active slot
//! window* of the hosting node's
//! [`NodeScheduler`](crate::NodeScheduler), so a scale event is a pair
//! of atomic stores rather than a thread spawn or join.
//!
//! The decision kernel ([`ScalePolicy`]) is a pure function of
//! `(now, pressure, replicas)` so the seeded property tests in
//! `tests/properties.rs` can drive it through millions of synthetic
//! pressure trajectories without spawning a thread.
//!
//! # Examples
//!
//! Driving the pure decision kernel through one burst-and-drain cycle —
//! exactly what a node's autoscaler thread does with live gauges:
//!
//! ```
//! use std::time::Duration;
//! use dataflower_rt::autoscale::{AutoscaleConfig, ScaleDirection, ScalePolicy};
//! use dataflower::pressure_secs;
//!
//! let cfg = AutoscaleConfig {
//!     enabled: true,
//!     pressure_threshold_secs: 0.05,
//!     cooldown: Duration::from_millis(100),
//!     ..AutoscaleConfig::default()
//! };
//! let mut policy = ScalePolicy::new(&cfg);
//! let mut replicas = 1;
//!
//! // A burst backs the DLU up by 48 MiB: Eq. 1 pressure spikes…
//! let spike = pressure_secs(cfg.alpha, 48e6, cfg.drain_bw_bytes_per_sec, 0.002);
//! assert!(spike > cfg.pressure_threshold_secs);
//! assert_eq!(policy.decide(0.0, spike, replicas), Some(ScaleDirection::Out));
//! replicas += 1;
//!
//! // …the cool-down guards the very next tick…
//! assert_eq!(policy.decide(0.05, spike, replicas), None);
//!
//! // …and once the backlog drains, the pool shrinks back.
//! let drained = pressure_secs(cfg.alpha, 0.0, cfg.drain_bw_bytes_per_sec, 0.002);
//! assert_eq!(policy.decide(0.2, drained, replicas), Some(ScaleDirection::In));
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::Mutex;
use std::time::Duration;

use dataflower::RunningAvg;

/// Tuning knobs of the elastic scaler (per [`ClusterRuntime`]; the same
/// policy instance runs per function).
///
/// Disabled by default: a runtime without explicit opt-in behaves exactly
/// like the fixed-pool runtime of earlier revisions.
///
/// [`ClusterRuntime`]: crate::ClusterRuntime
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleConfig {
    /// Master switch; `false` keeps every pool at its configured size.
    pub enabled: bool,
    /// Lower replica bound per function (≥ 1).
    pub min_replicas: usize,
    /// Upper replica bound per function (≥ `min_replicas`).
    pub max_replicas: usize,
    /// Scale **out** when a function's pressure (Eq. 1) exceeds this many
    /// seconds; scale **in** once pressure drops to zero or below (the
    /// DLU drained).
    pub pressure_threshold_secs: f64,
    /// Connector loss factor `α` of Eq. 1.
    pub alpha: f64,
    /// Estimated DLU drain bandwidth `Bw` of Eq. 1, bytes/second.
    pub drain_bw_bytes_per_sec: f64,
    /// Minimum gap between two scale events of the same function — the
    /// cool-down guard that keeps a draining pool from flapping.
    pub cooldown: Duration,
    /// How often each node samples its hosted functions.
    pub sample_interval: Duration,
}

impl Default for AutoscaleConfig {
    /// Disabled; when enabled, pools of 1–4 replicas, a 10 ms pressure
    /// threshold, α = 1.2, a 64 MiB/s drain estimate, 250 ms cool-down,
    /// 5 ms sampling.
    fn default() -> Self {
        AutoscaleConfig {
            enabled: false,
            min_replicas: 1,
            max_replicas: 4,
            pressure_threshold_secs: 0.010,
            alpha: 1.2,
            drain_bw_bytes_per_sec: 64.0 * 1024.0 * 1024.0,
            cooldown: Duration::from_millis(250),
            sample_interval: Duration::from_millis(5),
        }
    }
}

impl AutoscaleConfig {
    /// Validates the knobs; the runtime builder calls this in `start`.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.min_replicas == 0 {
            return Err("autoscale min_replicas must be at least 1".into());
        }
        if self.max_replicas < self.min_replicas {
            return Err(format!(
                "autoscale max_replicas ({}) below min_replicas ({})",
                self.max_replicas, self.min_replicas
            ));
        }
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err("autoscale alpha must be positive and finite".into());
        }
        if !(self.drain_bw_bytes_per_sec.is_finite() && self.drain_bw_bytes_per_sec > 0.0) {
            return Err("autoscale drain bandwidth must be positive and finite".into());
        }
        if !self.pressure_threshold_secs.is_finite() {
            return Err("autoscale pressure threshold must be finite".into());
        }
        // The autoscaler sleeps one interval per round; zero is a busy
        // loop that holds the shutdown lock.
        if self.enabled && self.sample_interval.is_zero() {
            return Err("autoscale sample_interval must be positive when enabled".into());
        }
        Ok(())
    }
}

/// Which way a scale event moved a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDirection {
    /// Added one replica (pressure past the threshold).
    Out,
    /// Retired one replica (pressure drained, cool-down elapsed).
    In,
}

/// One entry of a runtime's scaling timeline
/// ([`ClusterRuntime::scaling_timeline`](crate::ClusterRuntime::scaling_timeline)).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleEvent {
    /// When the event fired, relative to runtime start.
    pub at: Duration,
    /// The function whose pool changed.
    pub function: String,
    /// The node hosting that pool.
    pub node: usize,
    /// Out (grow) or In (shrink).
    pub direction: ScaleDirection,
    /// Pool size before the event.
    pub from_replicas: usize,
    /// Pool size after the event.
    pub to_replicas: usize,
    /// The Eq. 1 pressure sample that triggered the event, seconds.
    pub pressure_secs: f64,
}

/// The pure per-function scaling decision kernel.
///
/// Feed it time-ordered `(now, pressure, replicas)` samples; it answers
/// with at most one [`ScaleDirection`] per call and self-enforces the
/// `[min, max]` bounds and the cool-down guard. Out-of-bounds pool sizes
/// (e.g. a configuration change at runtime start) are repaired one step
/// per call, ignoring the cool-down.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use dataflower_rt::{AutoscaleConfig, ScaleDirection, ScalePolicy};
///
/// let cfg = AutoscaleConfig {
///     enabled: true,
///     pressure_threshold_secs: 0.05,
///     cooldown: Duration::from_millis(100),
///     ..AutoscaleConfig::default()
/// };
/// let mut p = ScalePolicy::new(&cfg);
/// // Pressure past the threshold: grow.
/// assert_eq!(p.decide(0.0, 0.2, 1), Some(ScaleDirection::Out));
/// // Cool-down: no immediate second event.
/// assert_eq!(p.decide(0.05, 0.2, 2), None);
/// // Drained after the cool-down: shrink.
/// assert_eq!(p.decide(0.2, -0.01, 2), Some(ScaleDirection::In));
/// ```
#[derive(Debug, Clone)]
pub struct ScalePolicy {
    min: usize,
    max: usize,
    threshold_secs: f64,
    cooldown_secs: f64,
    last_event_secs: Option<f64>,
}

impl ScalePolicy {
    /// A policy with `cfg`'s bounds, threshold and cool-down.
    pub fn new(cfg: &AutoscaleConfig) -> ScalePolicy {
        ScalePolicy {
            min: cfg.min_replicas,
            max: cfg.max_replicas,
            threshold_secs: cfg.pressure_threshold_secs,
            cooldown_secs: cfg.cooldown.as_secs_f64(),
            last_event_secs: None,
        }
    }

    /// Decides on one sample. `now_secs` must be non-decreasing across
    /// calls; `pressure_secs` is the Eq. 1 sample; `replicas` the pool
    /// size the caller currently runs.
    pub fn decide(
        &mut self,
        now_secs: f64,
        pressure_secs: f64,
        replicas: usize,
    ) -> Option<ScaleDirection> {
        // Bounds repair first: a pool outside [min, max] moves one step
        // back toward the range regardless of pressure or cool-down.
        if replicas < self.min {
            self.last_event_secs = Some(now_secs);
            return Some(ScaleDirection::Out);
        }
        if replicas > self.max {
            self.last_event_secs = Some(now_secs);
            return Some(ScaleDirection::In);
        }
        if let Some(last) = self.last_event_secs {
            if now_secs - last < self.cooldown_secs {
                return None;
            }
        }
        if pressure_secs > self.threshold_secs && replicas < self.max {
            self.last_event_secs = Some(now_secs);
            return Some(ScaleDirection::Out);
        }
        if pressure_secs <= 0.0 && replicas > self.min {
            self.last_event_secs = Some(now_secs);
            return Some(ScaleDirection::In);
        }
        None
    }
}

/// Shared live gauges of one function: what the FLU invocations and
/// the DLU daemon report, and what the autoscaler samples.
pub(crate) struct FnScale {
    /// Replica count the runtime currently intends — the function's
    /// contribution to its hosting node's active scheduler-slot window.
    pub replicas: AtomicUsize,
    /// Bytes handed to the DLU that it has not finished routing — the
    /// `Size` term of Eq. 1. Includes the payload the daemon is currently
    /// shipping, so a daemon blocked on a saturated inter-node link keeps
    /// the pressure visible.
    pub backlog_bytes: AtomicU64,
    /// Observed FLU execution times — the `T_FLU` term of Eq. 1.
    pub t_flu: Mutex<RunningAvg>,
    /// Invocations of this function currently executing on a scheduler
    /// worker (incremented at task start, decremented when the body
    /// returns). Unlike `replicas` — the *intended* capacity — this is
    /// the observed in-flight count, which is what live migration polls
    /// to know the drain finished.
    pub live: AtomicUsize,
}

impl FnScale {
    pub fn new(initial_replicas: usize) -> FnScale {
        FnScale {
            replicas: AtomicUsize::new(initial_replicas),
            backlog_bytes: AtomicU64::new(0),
            t_flu: Mutex::new(RunningAvg::new()),
            live: AtomicUsize::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscaleConfig {
        AutoscaleConfig {
            enabled: true,
            min_replicas: 1,
            max_replicas: 3,
            pressure_threshold_secs: 0.05,
            cooldown: Duration::from_millis(100),
            ..AutoscaleConfig::default()
        }
    }

    #[test]
    fn scales_out_then_respects_max() {
        let mut p = ScalePolicy::new(&cfg());
        assert_eq!(p.decide(0.0, 1.0, 1), Some(ScaleDirection::Out));
        assert_eq!(p.decide(0.2, 1.0, 2), Some(ScaleDirection::Out));
        // At max: high pressure changes nothing.
        assert_eq!(p.decide(0.4, 1.0, 3), None);
    }

    #[test]
    fn cooldown_blocks_consecutive_events() {
        let mut p = ScalePolicy::new(&cfg());
        assert_eq!(p.decide(0.0, 1.0, 1), Some(ScaleDirection::Out));
        assert_eq!(p.decide(0.05, 1.0, 2), None);
        assert_eq!(p.decide(0.11, 1.0, 2), Some(ScaleDirection::Out));
    }

    #[test]
    fn scales_in_only_when_drained_and_above_min() {
        let mut p = ScalePolicy::new(&cfg());
        // Mild positive pressure under the threshold: hold.
        assert_eq!(p.decide(0.0, 0.01, 2), None);
        assert_eq!(p.decide(0.1, 0.0, 2), Some(ScaleDirection::In));
        assert_eq!(p.decide(0.3, -1.0, 1), None); // at min already
    }

    #[test]
    fn bounds_repair_ignores_cooldown() {
        let mut p = ScalePolicy::new(&cfg());
        assert_eq!(p.decide(0.0, 0.0, 0), Some(ScaleDirection::Out));
        assert_eq!(p.decide(0.001, 0.0, 5), Some(ScaleDirection::In));
    }

    #[test]
    fn config_validation_catches_bad_knobs() {
        assert!(AutoscaleConfig::default().validate().is_ok());
        let bad = AutoscaleConfig {
            min_replicas: 0,
            ..AutoscaleConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = AutoscaleConfig {
            min_replicas: 4,
            max_replicas: 2,
            ..AutoscaleConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = AutoscaleConfig {
            drain_bw_bytes_per_sec: 0.0,
            ..AutoscaleConfig::default()
        };
        assert!(bad.validate().is_err());
    }
}
