//! The FLU programming interface: what a function body sees.
//!
//! Which thread routes a `put` — the calling FLU thread or the node's DLU
//! daemon — follows the §7 pipe kind: `PutPlan::is_handoff` in
//! `runtime.rs` is the code, README § Performance ("Thread hand-offs per
//! hop") the statement of the rule.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::autoscale::FnScale;
use crate::bytes::Bytes;
use crate::channel::Sender;
use crate::runtime::{resolve_put, route, DluMsg, Inner, ReqId};

/// Destination selector for [`FluContext::put_to`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PutTarget {
    /// Every output edge carrying the data name (broadcast, the plain
    /// `DataFlower.DLU.Put` of Fig. 5a).
    All,
    /// Only the edge(s) towards the named function (per-branch payloads
    /// for `foreach` fan-outs).
    Function(String),
}

/// Execution context handed to a function body (the FLU side of the
/// FLU/DLU programming model, Fig. 5a).
///
/// Inputs are the data items that triggered this invocation, keyed by
/// their declared data names. Outputs are handed to the DLU with
/// [`FluContext::put`] / [`FluContext::put_to`] and start flowing
/// **immediately and asynchronously** — the consumer is triggered from
/// inside the call and the function keeps computing while the DLU ships,
/// which is exactly the compute/communication overlap of §5.1. A full
/// DLU or link queue blocks the put: that is the backpressure of
/// Fig. 6a.
pub struct FluContext {
    /// The runtime this invocation runs in: hand-off puts route through
    /// it on the calling thread.
    pub(crate) rt: Arc<Inner>,
    pub(crate) req: ReqId,
    pub(crate) src_fn: String,
    pub(crate) inputs: BTreeMap<String, Bytes>,
    pub(crate) dlu: Sender<DluMsg>,
    /// Live gauges of this function's pool; `put` adds the payload to the
    /// DLU backlog so the autoscaler sees Eq. 1's `Size` term.
    pub(crate) scale: Arc<FnScale>,
    /// Wall-clock time this invocation spent inside `put` (a full DLU
    /// queue, or a hand-off routed against a full link queue). The
    /// executor subtracts it from the body's elapsed time so Eq. 1's
    /// `T_FLU` term measures compute, not backpressure.
    pub(crate) blocked: std::time::Duration,
}

impl FluContext {
    pub(crate) fn new(
        rt: Arc<Inner>,
        req: ReqId,
        src_fn: String,
        inputs: BTreeMap<String, Bytes>,
        dlu: Sender<DluMsg>,
        scale: Arc<FnScale>,
    ) -> Self {
        FluContext {
            rt,
            req,
            src_fn,
            inputs,
            dlu,
            scale,
            blocked: std::time::Duration::ZERO,
        }
    }

    /// The request this invocation belongs to.
    pub fn request(&self) -> ReqId {
        self.req
    }

    /// The input payload named `name`.
    ///
    /// Inputs are stored under `name@source` keys (the Wait-Match index
    /// includes the producer). This accessor accepts either the full key
    /// or the bare data name when it is unambiguous; for fan-in inputs
    /// that share a data name (e.g. a merge), use
    /// [`FluContext::inputs_named`].
    pub fn input(&self, name: &str) -> Option<&Bytes> {
        if let Some(b) = self.inputs.get(name) {
            return Some(b);
        }
        let prefix = format!("{name}@");
        let mut found = None;
        for (k, v) in &self.inputs {
            if k.starts_with(&prefix) {
                if found.is_some() {
                    return None; // ambiguous: multiple producers
                }
                found = Some(v);
            }
        }
        found
    }

    /// All input payloads whose data name is `name`, in **lexicographic
    /// producer-key order** (`name@fn_10` sorts before `name@fn_2`) —
    /// the fan-in (`merge`/`LIST`) accessor. Order-sensitive merges with
    /// 10+ numbered producers should sort by [`FluContext::inputs`] keys
    /// themselves.
    pub fn inputs_named(&self, name: &str) -> Vec<&Bytes> {
        let prefix = format!("{name}@");
        self.inputs
            .iter()
            .filter(|(k, _)| *k == name || k.starts_with(&prefix))
            .map(|(_, v)| v)
            .collect()
    }

    /// All inputs in data-name order.
    pub fn inputs(&self) -> impl Iterator<Item = (&str, &Bytes)> {
        self.inputs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of inputs this invocation received.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Hands `payload` to the DLU for every output edge named
    /// `data_name` (`DataFlower.DLU.Put`). The transfer begins — and a
    /// consumer whose inputs it completes is submitted to its scheduler —
    /// before the call returns, while the function keeps running; a
    /// saturated DLU or link queue blocks the caller (backpressure).
    ///
    /// A put that is a hand-off on every edge it matches (local pipe,
    /// direct socket, client output) is routed on the calling thread;
    /// one with a remote-pipe edge is queued to the node's DLU daemon,
    /// which streams it (README.md § Performance, "Thread hand-offs per
    /// hop").
    ///
    /// The payload is never copied on its way out: fan-out clones are
    /// refcount bumps, and remote-pipe chunking ships
    /// [`Bytes::slice`] views into this same allocation — so putting a
    /// [`Bytes`] (or a slice of an input via [`Bytes::slice`]) is O(1)
    /// regardless of payload size until the bytes hit a shaped link.
    pub fn put(&mut self, data_name: impl Into<String>, payload: impl Into<Bytes>) {
        self.send(data_name.into(), PutTarget::All, payload.into());
    }

    /// Hands `payload` to the DLU for the output edge(s) named
    /// `data_name` that lead to `target_fn` only — distinct per-branch
    /// payloads for `foreach` fan-outs.
    pub fn put_to(
        &mut self,
        data_name: impl Into<String>,
        target_fn: impl Into<String>,
        payload: impl Into<Bytes>,
    ) {
        self.send(
            data_name.into(),
            PutTarget::Function(target_fn.into()),
            payload.into(),
        );
    }

    fn send(&mut self, data_name: String, target: PutTarget, payload: Bytes) {
        // Count the payload into the DLU backlog *before* routing: a put
        // blocked on a full DLU or link queue is exactly the pressure
        // Eq. 1 is meant to see. Whoever finishes routing subtracts it.
        let len = payload.len() as u64;
        self.scale.backlog_bytes.fetch_add(len, Ordering::Relaxed);
        let msg = DluMsg {
            req: self.req,
            src_fn: self.src_fn.clone(),
            data_name,
            target,
            payload,
        };
        let t0 = std::time::Instant::now();
        let left_dlu = match resolve_put(&self.rt, &msg) {
            Some(plan) if plan.is_handoff() => {
                route(&self.rt, msg, Some(plan));
                true
            }
            // The runtime only drops the DLU receiver at shutdown; a send
            // failure then is harmless — but take the bytes back out so
            // the gauge cannot leak upward.
            _ => self.dlu.send(msg).is_err(),
        };
        self.blocked += t0.elapsed();
        if left_dlu {
            self.scale.backlog_bytes.fetch_sub(len, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for FluContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FluContext")
            .field("req", &self.req)
            .field("function", &self.src_fn)
            .field("inputs", &self.inputs.keys().collect::<Vec<_>>())
            .finish()
    }
}
