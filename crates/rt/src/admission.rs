//! Per-tenant admission control for the cluster ingress.
//!
//! Open-loop load does not slow down when the runtime saturates — the
//! arrival process keeps its schedule, so sustained overload must be
//! *shed*, not queued, or in-flight state (and tail latency) grows
//! without bound. The [`AdmissionGate`] is that shedding point: each
//! request arrives under a tenant label, the gate tracks per-tenant and
//! total in-flight counts, and an arrival that would exceed either cap
//! is rejected up front with [`Rejected`] instead of entering the data
//! plane. Per-tenant caps are also the fairness mechanism: one tenant's
//! burst exhausts *its own* in-flight budget and cannot starve the
//! others.
//!
//! [`ClusterRuntime::try_invoke`](crate::ClusterRuntime::try_invoke) is
//! the gated ingress of the in-process runtime and
//! [`TcpCluster::try_invoke`](crate::TcpCluster::try_invoke) the same
//! code at the coordinator of a worker-process cluster. The gate is also
//! usable standalone in front of any other client, which is why its
//! methods are public rather than runtime-internal.
//!
//! # Examples
//!
//! ```
//! use dataflower_rt::{AdmissionConfig, AdmissionGate};
//!
//! let gate = AdmissionGate::new(AdmissionConfig {
//!     max_inflight_per_tenant: 1,
//!     max_inflight_total: 0, // unlimited
//! });
//! assert!(gate.try_admit("alice").is_ok());
//! gate.bind(7, "alice");
//! // alice is at her cap until request 7 finishes:
//! assert!(gate.try_admit("alice").is_err());
//! gate.finish(7, true);
//! assert!(gate.try_admit("alice").is_ok());
//! ```

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// In-flight caps enforced by an [`AdmissionGate`]. A zero cap means
/// unlimited; the all-zero default admits everything (the gate still
/// keeps per-tenant stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum requests one tenant may have in flight (0 = unlimited).
    pub max_inflight_per_tenant: usize,
    /// Maximum requests in flight across all tenants (0 = unlimited).
    pub max_inflight_total: usize,
}

impl AdmissionConfig {
    /// True when at least one cap is set.
    pub fn is_limiting(&self) -> bool {
        self.max_inflight_per_tenant > 0 || self.max_inflight_total > 0
    }
}

/// Why an arrival was turned away at the gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The tenant is at its per-tenant in-flight cap.
    TenantLimit {
        /// The tenant that hit its cap.
        tenant: String,
        /// The cap it hit.
        limit: usize,
    },
    /// The whole gate is at the total in-flight cap.
    TotalLimit {
        /// The cap that was hit.
        limit: usize,
    },
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::TenantLimit { tenant, limit } => {
                write!(f, "tenant `{tenant}` at its in-flight cap ({limit})")
            }
            Rejected::TotalLimit { limit } => {
                write!(f, "gate at its total in-flight cap ({limit})")
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// Point-in-time admission counters of one tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests admitted through the gate.
    pub admitted: u64,
    /// Arrivals rejected at the gate.
    pub rejected: u64,
    /// Admitted requests that finished successfully.
    pub completed: u64,
    /// Admitted requests abandoned (timeout/fault → forget).
    pub failed: u64,
    /// Requests currently in flight.
    pub inflight: usize,
}

#[derive(Debug, Default)]
struct TenantState {
    stats: TenantStats,
}

#[derive(Debug, Default)]
struct GateState {
    tenants: BTreeMap<String, TenantState>,
    /// Which tenant each in-flight request was admitted under.
    req_tenant: HashMap<u64, String>,
    total_inflight: usize,
}

/// The admission-control gate: caps in-flight requests per tenant and in
/// total, and keeps per-tenant admit/reject/complete counters. All
/// methods are thread-safe (one internal mutex; the critical sections
/// are a couple of map operations).
#[derive(Debug)]
pub struct AdmissionGate {
    cfg: AdmissionConfig,
    state: Mutex<GateState>,
}

impl AdmissionGate {
    /// A gate enforcing `cfg`.
    pub fn new(cfg: AdmissionConfig) -> AdmissionGate {
        AdmissionGate {
            cfg,
            state: Mutex::new(GateState::default()),
        }
    }

    /// The caps this gate enforces.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// Tries to take an in-flight slot for `tenant`. On success the slot
    /// is held; pair it with [`AdmissionGate::bind`] once the request id
    /// is known, and release it via [`AdmissionGate::finish`]. On
    /// rejection the arrival is counted against the tenant and nothing
    /// is held.
    pub fn try_admit(&self, tenant: &str) -> Result<(), Rejected> {
        let mut s = self.state.lock().expect("admission lock poisoned");
        let total_cap = self.cfg.max_inflight_total;
        if total_cap > 0 && s.total_inflight >= total_cap {
            s.tenants
                .entry(tenant.to_string())
                .or_default()
                .stats
                .rejected += 1;
            return Err(Rejected::TotalLimit { limit: total_cap });
        }
        let per_cap = self.cfg.max_inflight_per_tenant;
        let t = s.tenants.entry(tenant.to_string()).or_default();
        if per_cap > 0 && t.stats.inflight >= per_cap {
            t.stats.rejected += 1;
            return Err(Rejected::TenantLimit {
                tenant: tenant.to_string(),
                limit: per_cap,
            });
        }
        t.stats.admitted += 1;
        t.stats.inflight += 1;
        s.total_inflight += 1;
        Ok(())
    }

    /// Associates an admitted slot with its request id so
    /// [`AdmissionGate::finish`] can release it by id. Call once per
    /// successful [`AdmissionGate::try_admit`].
    pub fn bind(&self, req: u64, tenant: &str) {
        let mut s = self.state.lock().expect("admission lock poisoned");
        s.req_tenant.insert(req, tenant.to_string());
    }

    /// Releases the slot held by request `req` (a no-op for ids the gate
    /// never saw, so ungated [`invoke`](crate::ClusterRuntime::invoke)
    /// traffic can share the runtime). `success` decides whether the
    /// request counts as completed or failed.
    pub fn finish(&self, req: u64, success: bool) {
        let mut s = self.state.lock().expect("admission lock poisoned");
        let Some(tenant) = s.req_tenant.remove(&req) else {
            return;
        };
        s.total_inflight = s.total_inflight.saturating_sub(1);
        if let Some(t) = s.tenants.get_mut(&tenant) {
            t.stats.inflight = t.stats.inflight.saturating_sub(1);
            if success {
                t.stats.completed += 1;
            } else {
                t.stats.failed += 1;
            }
        }
    }

    /// Requests currently in flight across all tenants.
    pub fn inflight(&self) -> usize {
        self.state
            .lock()
            .expect("admission lock poisoned")
            .total_inflight
    }

    /// Per-tenant counters, sorted by tenant name.
    pub fn tenant_stats(&self) -> Vec<(String, TenantStats)> {
        let s = self.state.lock().expect("admission lock poisoned");
        s.tenants
            .iter()
            .map(|(name, t)| (name.clone(), t.stats))
            .collect()
    }

    /// Total (admitted, rejected) arrivals across all tenants.
    pub fn totals(&self) -> (u64, u64) {
        let s = self.state.lock().expect("admission lock poisoned");
        s.tenants.values().fold((0, 0), |(a, r), t| {
            (a + t.stats.admitted, r + t.stats.rejected)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(per: usize, total: usize) -> AdmissionGate {
        AdmissionGate::new(AdmissionConfig {
            max_inflight_per_tenant: per,
            max_inflight_total: total,
        })
    }

    #[test]
    fn unlimited_gate_admits_everything() {
        let g = gate(0, 0);
        for i in 0..100 {
            g.try_admit("t").unwrap();
            g.bind(i, "t");
        }
        assert_eq!(g.inflight(), 100);
        let stats = g.tenant_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1.admitted, 100);
        assert_eq!(stats[0].1.rejected, 0);
    }

    #[test]
    fn per_tenant_cap_rejects_only_the_saturated_tenant() {
        let g = gate(2, 0);
        g.try_admit("a").unwrap();
        g.bind(0, "a");
        g.try_admit("a").unwrap();
        g.bind(1, "a");
        let err = g.try_admit("a").unwrap_err();
        assert_eq!(
            err,
            Rejected::TenantLimit {
                tenant: "a".into(),
                limit: 2
            }
        );
        // Another tenant is unaffected.
        g.try_admit("b").unwrap();
        g.bind(2, "b");
        assert_eq!(g.totals(), (3, 1));
    }

    #[test]
    fn total_cap_rejects_across_tenants() {
        let g = gate(0, 2);
        g.try_admit("a").unwrap();
        g.bind(0, "a");
        g.try_admit("b").unwrap();
        g.bind(1, "b");
        assert_eq!(
            g.try_admit("c").unwrap_err(),
            Rejected::TotalLimit { limit: 2 }
        );
    }

    #[test]
    fn finish_releases_the_slot_and_classifies_the_outcome() {
        let g = gate(1, 0);
        g.try_admit("a").unwrap();
        g.bind(0, "a");
        g.finish(0, true);
        g.try_admit("a").unwrap();
        g.bind(1, "a");
        g.finish(1, false);
        let (_, s) = &g.tenant_stats()[0];
        assert_eq!(s.completed, 1);
        assert_eq!(s.failed, 1);
        assert_eq!(s.inflight, 0);
        assert_eq!(g.inflight(), 0);
    }

    #[test]
    fn finish_ignores_foreign_request_ids() {
        let g = gate(1, 1);
        g.finish(42, true);
        assert_eq!(g.inflight(), 0);
        assert!(g.tenant_stats().is_empty());
    }

    #[test]
    fn rejection_messages_name_the_cap() {
        let e = Rejected::TenantLimit {
            tenant: "a".into(),
            limit: 3,
        };
        assert!(e.to_string().contains("`a`"));
        assert!(e.to_string().contains('3'));
        assert!(Rejected::TotalLimit { limit: 9 }.to_string().contains('9'));
    }
}
