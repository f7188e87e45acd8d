//! The two-level orchestrator control plane (the paper's ε-CON analog):
//! per-node keep-alive heartbeats, node-loss relocation and voluntary
//! live migration.
//!
//! The in-process half lives here. Each node runs a **heartbeat
//! responder** thread that stamps the node's [`NodeState::last_beat`]
//! gauge every interval while the node is up; one **controller** thread
//! reads the stamps, counts consecutive misses, and after
//! [`ClusterConfig::heartbeat_miss_threshold`] of them declares the
//! node permanently lost and relocates every function it hosted to the
//! least-pressured survivors (or wherever the cluster's
//! [`PlacementPolicy::relocate`] points). Relocation re-pins the
//! function in the live placement (the routing authority every
//! route/deliver decision reads), drains and respawns its FLU pool,
//! moves its parked sink state, re-homes the senders' retention entries
//! onto the new link and replays them from the last acked checkpoint
//! mark — extending the same-node restart protocol of §6.2 into
//! placement-changing recovery.
//!
//! [`ClusterRuntime::migrate_function`] reuses the exact same rehome
//! machinery voluntarily: drain, move state, re-patch links, resume.
//!
//! Over TCP, *detecting* a loss and *deciding* the new placement still
//! live in `transport.rs` (coordinator pings over the control channel, a
//! `relocate` broadcast); the data recovery — `rehome_retention` — is
//! this module's code on both media.
//!
//! [`NodeState::last_beat`]: crate::node::NodeState
//! [`ClusterConfig::heartbeat_miss_threshold`]: crate::ClusterConfig::heartbeat_miss_threshold
//! [`PlacementPolicy::relocate`]: crate::PlacementPolicy::relocate
//! [`ClusterRuntime::migrate_function`]: crate::ClusterRuntime::migrate_function

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dataflower_workflow::{EdgeId, Endpoint, FnId};

use crate::error::RtError;
use crate::node::{least_pressured, NodeReqState, SinkEntry};
use crate::runtime::{
    account_replay, emit, node_pressure_of, refresh_scheduler_active, resolve_active, retention_of,
    retention_sources, seed_req_state, submit_invoke, ClusterRuntime, Inner,
};
use crate::trace::EventKind as TraceEventKind;

/// How long a live migration (or node-loss relocation) waits for the
/// drained FLU pool to finish in-flight work before respawning the pool
/// on the new node anyway.
const MIGRATION_DRAIN_TIMEOUT: Duration = Duration::from_secs(1);

/// Stamps `node`'s keep-alive beat every heartbeat interval while the
/// node is up (a crashed node stops stamping — that silence is what the
/// controller detects). Spawned per node in in-process orchestrator
/// mode; sleeps on the shutdown condvar so teardown never waits out a
/// tick.
pub(crate) fn heartbeat_responder(inner: Arc<Inner>, node: usize) {
    let tick = inner.cfg.heartbeat_interval;
    while !inner.shutdown.load(Ordering::Relaxed) {
        if !inner.nodes[node].down.load(Ordering::SeqCst) {
            let ms = inner.started.elapsed().as_millis() as u64;
            inner.nodes[node].last_beat.store(ms, Ordering::SeqCst);
            inner.counters.heartbeats.fetch_add(1, Ordering::Relaxed);
        }
        inner.wait_shutdown(tick);
    }
}

/// The controller thread (ε-CON analog): checks every node's last beat
/// once per heartbeat interval, counts consecutive stale reads, and
/// relocates a node's functions after the configured miss threshold.
/// A beat is stale once it is older than 1.5 intervals — the slack
/// absorbs scheduler jitter so a slow-but-alive node is never declared
/// dead (its responder thread stamps regardless of data-plane load).
pub(crate) fn controller(inner: Arc<Inner>) {
    let interval = inner.cfg.heartbeat_interval;
    let interval_ms = (interval.as_millis() as u64).max(1);
    let threshold = inner.cfg.heartbeat_miss_threshold.max(1);
    let mut misses = vec![0u32; inner.nodes.len()];
    while !inner.wait_shutdown(interval) {
        let now_ms = inner.started.elapsed().as_millis() as u64;
        for (n, miss) in misses.iter_mut().enumerate() {
            if inner.nodes[n].lost.load(Ordering::SeqCst) {
                continue;
            }
            let age = now_ms.saturating_sub(inner.nodes[n].last_beat.load(Ordering::SeqCst));
            if age > interval_ms + interval_ms / 2 {
                *miss += 1;
                inner
                    .counters
                    .heartbeat_misses
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                *miss = 0;
            }
            if *miss >= threshold {
                *miss = 0;
                relocate_node(&inner, n);
            }
        }
    }
}

/// Declares `dead` permanently lost and relocates every function it
/// hosts to the surviving nodes. Exactly-once: the `lost` flag is a
/// swap-guard, so a second kill (or a concurrent controller tick) during
/// relocation is a no-op. With no survivors the call does nothing —
/// there is nowhere to relocate to.
pub(crate) fn relocate_node(inner: &Arc<Inner>, dead: usize) {
    let live: Vec<usize> = (0..inner.nodes.len())
        .filter(|n| *n != dead && !inner.nodes[*n].lost.load(Ordering::SeqCst))
        .collect();
    if live.is_empty() {
        return;
    }
    if inner.nodes[dead].lost.swap(true, Ordering::SeqCst) {
        return; // already being relocated
    }
    // The dead node's data plane is fenced either way: relocation after
    // a real crash finds `down` already set, a voluntary loss sets it.
    inner.nodes[dead].down.store(true, Ordering::SeqCst);
    inner.counters.node_losses.fetch_add(1, Ordering::Relaxed);

    // Pressure gauges of the full topology (dead nodes included so the
    // ids line up), handed to the relocation policy per function.
    let pressure: Vec<f64> = (0..inner.nodes.len())
        .map(|n| node_pressure_of(inner, n) as f64)
        .collect();
    let placement = inner.placement_snapshot();
    let moves: Vec<(String, usize)> = inner
        .workflow
        .function_ids()
        .filter_map(|f| {
            let name = &inner.workflow.function(f).name;
            if placement.node_of(name) != dead {
                return None;
            }
            let to = match &inner.policy {
                Some(p) => p.relocate(dead, &live, &pressure),
                None => least_pressured(&live, &pressure),
            };
            Some((name.clone(), to))
        })
        .collect();
    rehome_functions(inner, dead, &moves);
    inner
        .counters
        .relocated_functions
        .fetch_add(moves.len() as u64, Ordering::Relaxed);
    inner.trace_with(|| TraceEventKind::Relocate {
        dead_node: dead as u32,
        moved: moves.len() as u32,
    });
}

/// Moves each `(function, to)` off node `from`: re-pins the live
/// placement, drains and respawns the FLU pool on the new node, moves
/// the function's parked sink state across, re-homes the senders'
/// retention entries onto the new link and replays them. Shared by
/// node-loss relocation and voluntary live migration — the only
/// difference between the two is who decided to call it.
pub(crate) fn rehome_functions(inner: &Arc<Inner>, from: usize, moves: &[(String, usize)]) {
    if moves.is_empty() {
        return;
    }
    // 1. Swap the routing authority first: every subsequent put, seed
    //    and forward targets the new nodes, so no new state accrues at
    //    `from` while the rest of the move runs.
    {
        let mut placement = inner.placement.write().expect("placement lock poisoned");
        for (name, to) in moves {
            placement.reassign(name.clone(), *to);
        }
    }
    let moved_fns: Vec<(FnId, String, usize)> = moves
        .iter()
        .filter_map(|(name, to)| {
            inner
                .workflow
                .function_by_name(name)
                .map(|f| (f, name.clone(), *to))
        })
        .collect();
    // 2. Drain each function's in-flight invocations, then shift its
    //    worker slots from the old node's scheduler to the new one's.
    for (_, name, to) in &moved_fns {
        rehome_pool(inner, name, from, *to);
    }
    // 3. Move parked sink state (missing counts, parked inputs, partial
    //    reassemblies, done-transfer dedup) to the new hosts, firing any
    //    function whose inputs the merge completed.
    move_sink_state(inner, from, &moved_fns);
    // 4. Re-home the retention windows still pointing at `from` and
    //    replay them toward the new hosts, resuming from each stream's
    //    last acked checkpoint mark (the moved sink state holds the
    //    bytes below it).
    rehome_retention(inner, from);
}

/// Drains `name`'s in-flight invocations (a bounded wait on the live
/// gauge), then re-derives both schedulers' active-slot windows from the
/// already-re-pinned placement: the old node sheds the function's worker
/// slots, the new node gains them. No threads move — the
/// schedulers exist on every node for the runtime's lifetime, and tasks
/// queued toward the old node stay correct because routing reads the
/// live placement per put. On drain timeout the re-derive proceeds
/// anyway; stragglers finish on the old node's workers harmlessly.
fn rehome_pool(inner: &Arc<Inner>, name: &str, from: usize, to: usize) {
    {
        // Serialize with the autoscaler (it scales under this mutex).
        let _guard = inner.shutdown_mx.lock().expect("shutdown lock poisoned");
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
    }
    let scale = Arc::clone(&inner.scale[name]);
    // Bounded drain: invocations started before the placement re-pin
    // finish on the old node's workers.
    let deadline = Instant::now() + MIGRATION_DRAIN_TIMEOUT;
    while scale.live.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    activate_pool(inner, name, to);
    refresh_scheduler_active(inner, from);
}

/// Points `name`'s worker slots at node `to` **without** draining first
/// — the wire-mode relocation path, where the previous host was a
/// process that no longer exists. Repairs a mid-move scale-to-zero so
/// the function keeps at least one slot, then re-derives the new host's
/// active window from the re-pinned placement.
pub(crate) fn activate_pool(inner: &Arc<Inner>, name: &str, to: usize) {
    let scale = &inner.scale[name];
    let _ = scale
        .replicas
        .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst);
    refresh_scheduler_active(inner, to);
}

/// What one request contributed to a function's move: the per-function
/// slices of its old node's sink record.
struct MovedReq {
    req: u64,
    missing: HashMap<FnId, usize>,
    entries: HashMap<FnId, std::collections::BTreeMap<EdgeId, SinkEntry>>,
    partial: HashMap<(EdgeId, u64), crate::fabric::Reassembler>,
    done: Vec<(EdgeId, u64)>,
}

/// Moves the moved functions' sink state from `from` to each function's
/// new node, merging with whatever already accrued there (frames
/// forwarded ahead of the sweep). Merge rules: entries union by edge;
/// `done` unions; a conflicting partial keeps the longer contiguous
/// prefix (provably ≥ the sender's acked mark, so replay always covers
/// the hole); missing-counts are recomputed from the merged entries —
/// and a function whose inputs the merge completes triggers right here.
fn move_sink_state(inner: &Arc<Inner>, from: usize, moved: &[(FnId, String, usize)]) {
    let wf = &inner.workflow;
    // Pass 1: extract the moved functions' slices out of the old node's
    // sink, one stripe lock at a time.
    let mut extracted: Vec<MovedReq> = Vec::new();
    inner.nodes[from].sink.for_each_mut(|req, rs| {
        let mut m = MovedReq {
            req,
            missing: HashMap::new(),
            entries: HashMap::new(),
            partial: HashMap::new(),
            done: Vec::new(),
        };
        for (f, _, _) in moved {
            if let Some(c) = rs.missing.remove(f) {
                m.missing.insert(*f, c);
            }
            if let Some(e) = rs.entries.remove(f) {
                m.entries.insert(*f, e);
            }
        }
        let targets_moved = |edge: EdgeId| {
            matches!(wf.edge(edge).target, Endpoint::Function(t) if moved.iter().any(|(f, _, _)| *f == t))
        };
        let keys: Vec<(EdgeId, u64)> = rs
            .partial
            .keys()
            .filter(|(e, _)| targets_moved(*e))
            .copied()
            .collect();
        for k in keys {
            if let Some(r) = rs.partial.remove(&k) {
                m.partial.insert(k, r);
            }
        }
        m.done
            .extend(rs.done.iter().filter(|(e, _)| targets_moved(*e)).copied());
        if !m.missing.is_empty()
            || !m.entries.is_empty()
            || !m.partial.is_empty()
            || !m.done.is_empty()
        {
            extracted.push(m);
        }
    });
    // Pass 2: merge into the new hosts and fire any now-complete pools.
    let mut triggers: Vec<(u64, FnId, std::collections::BTreeMap<String, crate::Bytes>)> =
        Vec::new();
    for mut m in extracted {
        for (f, _, to) in moved {
            let old_missing = m.missing.remove(f);
            let old_entries = m.entries.remove(f).unwrap_or_default();
            let partial_keys: Vec<(EdgeId, u64)> = m
                .partial
                .keys()
                .filter(|(e, _)| edge_targets(wf, *e, *f))
                .copied()
                .collect();
            let partial: Vec<((EdgeId, u64), crate::fabric::Reassembler)> = partial_keys
                .into_iter()
                .filter_map(|k| m.partial.remove(&k).map(|r| (k, r)))
                .collect();
            let done: Vec<(EdgeId, u64)> = m
                .done
                .iter()
                .filter(|(e, _)| edge_targets(wf, *e, *f))
                .copied()
                .collect();
            if old_missing.is_none()
                && old_entries.is_empty()
                && partial.is_empty()
                && done.is_empty()
            {
                continue;
            }
            let fired = inner.nodes[*to].sink.with_or_insert(
                m.req,
                || {
                    let active = resolve_active(wf, m.req);
                    seed_req_state(inner, *to, &active)
                },
                |rs| merge_fn_state(wf, rs, *f, old_missing, old_entries, partial, &done),
            );
            if let Some(inputs) = fired {
                triggers.push((m.req, *f, inputs));
            }
        }
    }
    for (req, f, inputs) in triggers {
        let name = &wf.function(f).name;
        submit_invoke(inner, name, crate::ReqId(req), inputs);
    }
}

/// True when `edge`'s target is function `f`.
fn edge_targets(wf: &dataflower_workflow::Workflow, edge: EdgeId, f: FnId) -> bool {
    matches!(wf.edge(edge).target, Endpoint::Function(t) if t == f)
}

/// Merges one function's extracted old-node state into its new node's
/// request record. Returns the completed input set if the merge
/// finished the function's inputs (the caller fires the FLU outside the
/// stripe lock).
fn merge_fn_state(
    wf: &dataflower_workflow::Workflow,
    rs: &mut NodeReqState,
    f: FnId,
    old_missing: Option<usize>,
    old_entries: std::collections::BTreeMap<EdgeId, SinkEntry>,
    partial: Vec<((EdgeId, u64), crate::fabric::Reassembler)>,
    done: &[(EdgeId, u64)],
) -> Option<std::collections::BTreeMap<String, crate::Bytes>> {
    if !rs.active.function_active(f) {
        return None;
    }
    rs.done.extend(done.iter().copied());
    for ((e, t), r) in partial {
        // Conflict rule: keep the reassembler with the longer contiguous
        // prefix. Whichever side is shorter is below the sender's acked
        // mark on at most one of them — and the longer prefix is always
        // ≥ that mark, so the replay from the mark fills every hole.
        let keep_old = match rs.partial.get(&(e, t)) {
            Some(cur) => r.contiguous_prefix() > cur.contiguous_prefix(),
            None => true,
        };
        if keep_old && !rs.done.contains(&(e, t)) {
            rs.partial.insert((e, t), r);
        }
    }
    // Union the parked entries (either side's copy of an edge is fine:
    // both came from the same deterministic sender).
    let merged = rs.entries.entry(f).or_default();
    for (e, entry) in old_entries {
        merged.entry(e).or_insert(entry);
    }
    let new_missing = rs.missing.get(&f).copied();
    // `usize::MAX` on either side means the function already triggered
    // for this request somewhere — never re-trigger.
    if old_missing == Some(usize::MAX) || new_missing == Some(usize::MAX) {
        rs.missing.insert(f, usize::MAX);
        rs.entries.remove(&f);
        return None;
    }
    // Recompute from first principles: active inputs minus distinct
    // merged arrivals (each side may have decremented for a different
    // subset of edges).
    let seed = wf
        .inputs(f)
        .iter()
        .filter(|e| rs.active.edge_active(**e))
        .count();
    let arrived = rs.entries.get(&f).map_or(0, |m| m.len());
    let missing = seed.saturating_sub(arrived);
    if missing == 0 && seed > 0 {
        let entries = rs.entries.remove(&f).unwrap_or_default();
        let mut inputs = std::collections::BTreeMap::new();
        for (_, entry) in entries {
            inputs.insert(entry.key, entry.payload);
        }
        rs.missing.insert(f, usize::MAX);
        return Some(inputs);
    }
    rs.missing.insert(f, missing);
    None
}

/// Re-homes every retained transfer this process still holds **toward**
/// `from` — a node whose functions moved away — onto the link toward its
/// target function's *current* node per the live placement, and replays
/// it there. Returns the number of transfers re-homed.
///
/// Where the replay starts depends on whether the receiver's sink state
/// could move with the function. In-process it did (`move_sink_state`
/// holds everything below each stream's acked mark), so the replay
/// resumes from the mark — the §6.2 protocol across a placement change.
/// Over the wire the old host was a process that no longer exists, its
/// sink and checkpoint log died with it, so every transfer is re-sent
/// from byte 0; receivers dedup re-fired duplicates by edge.
pub(crate) fn rehome_retention(inner: &Inner, from: usize) -> usize {
    if inner.cfg.recovery.is_none() {
        return 0;
    }
    let wf = &inner.workflow;
    let from_zero = inner.wire.is_some();
    let mut count = 0;
    for src in retention_sources(inner) {
        if src == from {
            continue;
        }
        let moved = retention_of(inner, src, from)
            .lock()
            .expect("retention lock poisoned")
            .extract(|_| true);
        // Group by current destination, adopt, then replay exactly the
        // adopted ids on each link.
        let mut by_dst: HashMap<usize, Vec<u64>> = HashMap::new();
        for (id, t) in moved {
            let dst = match wf.edge(t.edge).target {
                Endpoint::Function(tf) => inner.node_of(&wf.function(tf).name),
                // Client outputs are never retained toward a node.
                Endpoint::Client => continue,
            };
            // Still placed on the lost node (no survivor inherited it
            // yet): park the entry back untouched; a later sweep re-homes
            // it once the placement moved.
            let rehomed = dst != from;
            retention_of(inner, src, dst)
                .lock()
                .expect("retention lock poisoned")
                .adopt(id, t, rehomed && from_zero);
            if rehomed {
                by_dst.entry(dst).or_default().push(id);
                count += 1;
            }
        }
        for (dst, ids) in by_dst {
            let summary = retention_of(inner, src, dst)
                .lock()
                .expect("retention lock poisoned")
                .replay_ids(Instant::now(), &ids);
            for msg in account_replay(inner, summary, false) {
                emit(inner, src, dst, msg);
            }
        }
    }
    count
}

impl ClusterRuntime {
    /// Live-migrates function `name` to node `to`: drains its FLU pool,
    /// re-pins the live placement, moves its parked sink state and the
    /// senders' retention onto the new node's links, respawns the pool
    /// there, and replays in-flight transfers from their last acked
    /// checkpoint marks. In-flight and future requests keep flowing
    /// throughout — the move is invisible in the outputs.
    ///
    /// Pick `to` with [`ClusterRuntime::least_pressured_node`] for the
    /// paper's pressure-driven rebalancing.
    ///
    /// # Errors
    ///
    /// [`RtError::UnknownFunction`] if the workflow has no function
    /// `name`; [`RtError::InvalidPlacement`] if `to` is outside the
    /// topology or the current host was declared lost mid-call.
    pub fn migrate_function(&self, name: &str, to: usize) -> Result<(), RtError> {
        let inner = &self.inner;
        if inner.workflow.function_by_name(name).is_none() {
            return Err(RtError::UnknownFunction(name.to_string()));
        }
        if to >= inner.nodes.len() {
            return Err(RtError::InvalidPlacement(format!(
                "node {to} is outside the {}-node topology",
                inner.nodes.len()
            )));
        }
        if inner.nodes[to].lost.load(Ordering::SeqCst) {
            return Err(RtError::InvalidPlacement(format!(
                "node {to} was declared lost"
            )));
        }
        let from = inner.node_of(name);
        if from == to {
            return Ok(());
        }
        rehome_functions(inner, from, &[(name.to_string(), to)]);
        inner
            .counters
            .live_migrations
            .fetch_add(1, Ordering::Relaxed);
        inner.trace_with(|| TraceEventKind::Migrate {
            func: inner
                .workflow
                .function_by_name(name)
                .map_or(u32::MAX, |f| f.index() as u32),
            to_node: to as u32,
        });
        Ok(())
    }

    /// Declares `node` permanently lost right now — the manual override
    /// of the heartbeat detector (the controller calls the same path
    /// after the miss threshold). Relocates every hosted function to the
    /// surviving nodes, moves state, re-patches links and replays
    /// in-flight transfers. Idempotent: a second kill during or after
    /// relocation is a no-op, and so is losing the only node.
    pub fn declare_node_lost(&self, node: usize) {
        if node < self.inner.nodes.len() {
            relocate_node(&self.inner, node);
        }
    }
}
