//! The in-process inter-node fabric: per-link bounded queues, optional
//! bandwidth/latency shaping, and the chunked streaming protocol of the
//! remote pipe connector (§7).
//!
//! Every ordered pair of distinct nodes is connected by one directed
//! **link**: a [`channel::bounded`](crate::channel::bounded) queue
//! drained by a shipper thread — the same channel the DLU queues use.
//! Its steady-state producer is the source node's merged DLU daemon;
//! recovery replays and relocation forwarding are occasional second
//! producers. The bounded queue gives cross-node backpressure (a DLU
//! daemon that out-produces a link blocks, exactly like a saturated
//! local DLU queue), and the shipper drains up to [`SHIPPER_BATCH`]
//! frames per wakeup under one lock acquisition, applying the link's
//! [`LinkConfig`] shaping to each before handing it to the destination
//! node's ingress.
//!
//! Transfers routed through the **streaming remote pipe** are cut into
//! chunks by [`chunk_spans`]; each chunk frame carries a zero-copy
//! [`Bytes`] view into the payload (no per-chunk copy on send), and the
//! destination [`Reassembler`] rejoins views that arrive in order from
//! one allocation — every in-process transfer — without a memcpy; it
//! copy-assembles only what cannot be joined (TCP chunks, a gap after a
//! lost frame). Checkpoint marks along the stream follow the
//! [`CheckpointSchedule`](dataflower::CheckpointSchedule) of the engine
//! crate, so the live runtime and the simulator share one fault-recovery
//! model: with recovery enabled, the sender retains refcounted views of
//! every frame past the destination's last acknowledged mark, and a
//! restarted node resumes reassembly from that mark instead of byte 0
//! (see [`Reassembler::rollback_to`] and the
//! [`fault`](crate::fault) module).
//!
//! # Examples
//!
//! Streaming one payload through the chunking/reassembly protocol by
//! hand — exactly what the fabric does per remote-pipe transfer:
//!
//! ```
//! use dataflower_rt::fabric::{chunk_spans, Reassembler};
//! use dataflower_rt::Bytes;
//!
//! let payload = Bytes::from((0..100u8).collect::<Vec<_>>());
//! let mut r = Reassembler::new(payload.len());
//! for (lo, hi) in chunk_spans(payload.len(), 32) {
//!     // Each frame is an O(1) view into the payload, not a copy.
//!     r.write_bytes(lo, payload.slice(lo..hi));
//! }
//! assert!(r.complete());
//! // In-order views of one allocation are rejoined, not copied.
//! assert_eq!(r.into_bytes().as_ptr(), payload.as_ptr());
//! ```
//!
//! A crash mid-transfer rolls reassembly back to the last checkpoint
//! mark; replaying from the mark (what the sender's retention window
//! holds) completes the transfer byte-identically:
//!
//! ```
//! use dataflower_rt::fabric::{chunk_spans, Reassembler};
//!
//! let payload: Vec<u8> = (0..200u8).collect();
//! let mut r = Reassembler::new(payload.len());
//! r.write(0, &payload[0..150]); // crash hits at 150 bytes...
//! r.rollback_to(128);           // ...mark interval 64: resume at 128
//! assert_eq!(r.contiguous_prefix(), 128);
//! for (lo, hi) in chunk_spans(payload.len(), 32) {
//!     if hi > 128 {
//!         r.write(lo, &payload[lo..hi]); // replay past the mark only
//!     }
//! }
//! assert!(r.complete());
//! assert_eq!(&*r.into_bytes(), &payload[..]);
//! ```

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dataflower_workflow::EdgeId;

use crate::bytes::Bytes;

/// Frames a link shipper drains per wakeup: one wakeup moves up to this
/// many queued frames, instead of one `recv` per frame.
pub const SHIPPER_BATCH: usize = 32;

/// Shaping parameters of one directed inter-node link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Propagation delay applied once per transfer (on the whole message,
    /// or on the first chunk of a streamed one — later chunks are
    /// pipelined behind it).
    pub latency: Duration,
    /// Serialization rate; `None` leaves the link unshaped (messages are
    /// forwarded as fast as the shipper thread runs).
    pub bandwidth_bytes_per_sec: Option<f64>,
    /// Capacity of the link's bounded queue, in frames (0 is treated as
    /// 1); a full link blocks the sending DLU daemon (cross-node
    /// backpressure).
    pub queue_capacity: usize,
}

impl Default for LinkConfig {
    /// An unshaped link with a 128-message queue.
    fn default() -> Self {
        LinkConfig {
            latency: Duration::ZERO,
            bandwidth_bytes_per_sec: None,
            queue_capacity: 128,
        }
    }
}

/// A message travelling over an inter-node link. Cloning is O(1) in the
/// byte count — payloads are refcounted views — which is what lets fault
/// injection deliver a frame twice and retention replay re-send frames
/// without copying bytes.
#[derive(Clone)]
pub(crate) enum NetMsg {
    /// An unchunked transfer: a small payload over the direct socket.
    Whole {
        req: u64,
        edge: EdgeId,
        key: String,
        /// Transfer id, so the destination's delivery ack can release the
        /// sender's retention entry.
        transfer: u64,
        payload: Bytes,
    },
    /// One chunk of a streaming remote-pipe transfer. `bytes` is a
    /// zero-copy [`Bytes`] view into the sender's payload allocation.
    Chunk {
        req: u64,
        edge: EdgeId,
        key: String,
        /// Distinguishes interleaved transfers on the same edge.
        transfer: u64,
        offset: usize,
        total: usize,
        bytes: Bytes,
    },
    /// Destination-side acknowledgement of a durable checkpoint mark of
    /// a chunked transfer, flowing back to the sender so its retention
    /// window can be trimmed. The in-process fabric applies acks as
    /// direct function calls and never enqueues this variant; the TCP
    /// transport carries it as a real frame.
    AckMark {
        /// The acknowledged transfer.
        transfer: u64,
        /// The durable contiguous prefix (a checkpoint-mark multiple).
        mark: usize,
    },
    /// Destination-side acknowledgement that a transfer was fully
    /// delivered (or recognized as an orphan); releases the sender's
    /// retention entry. Like [`NetMsg::AckMark`], only the TCP transport
    /// puts this on the wire.
    AckComplete {
        /// The acknowledged transfer.
        transfer: u64,
    },
    /// The client collected or abandoned `req`: the receiving node drops
    /// everything it still tracks for it. Not a pipe transfer — never
    /// counted, retained, acked or subjected to fault injection. Only
    /// the client endpoint of a TCP cluster emits it (in-process the
    /// client purges every node's sink directly).
    Release {
        /// The released request.
        req: u64,
    },
}

impl NetMsg {
    pub(crate) fn wire_bytes(&self) -> usize {
        match self {
            NetMsg::Whole { payload, .. } => payload.len(),
            NetMsg::Chunk { bytes, .. } => bytes.len(),
            NetMsg::AckMark { .. } | NetMsg::AckComplete { .. } | NetMsg::Release { .. } => 0,
        }
    }

    pub(crate) fn starts_transfer(&self) -> bool {
        match self {
            NetMsg::Whole { .. } => true,
            NetMsg::Chunk { offset, .. } => *offset == 0,
            NetMsg::AckMark { .. } | NetMsg::AckComplete { .. } | NetMsg::Release { .. } => false,
        }
    }
}

/// The byte ranges a payload of `total` bytes is cut into when streamed
/// through the remote pipe connector in `chunk_bytes`-sized chunks.
///
/// Spans are contiguous, disjoint, in order, and cover `0..total`
/// exactly. An empty payload yields **no** spans — a zero-length transfer
/// has nothing to stream, so the fabric ships it as a single direct
/// frame instead of a useless empty chunk.
///
/// # Examples
///
/// ```
/// use dataflower_rt::chunk_spans;
///
/// assert_eq!(chunk_spans(10, 4), vec![(0, 4), (4, 8), (8, 10)]);
/// assert_eq!(chunk_spans(8, 4), vec![(0, 4), (4, 8)]);
/// // The empty-transfer contract: NO spans — not the placeholder
/// // `[(0, 0)]` span of earlier revisions.
/// assert_eq!(chunk_spans(0, 4), Vec::<(usize, usize)>::new());
/// assert!(chunk_spans(0, 1).is_empty());
/// ```
///
/// # Panics
///
/// Panics if `chunk_bytes` is zero.
pub fn chunk_spans(total: usize, chunk_bytes: usize) -> Vec<(usize, usize)> {
    assert!(chunk_bytes > 0, "chunk size must be positive");
    let mut spans = Vec::with_capacity(total.div_ceil(chunk_bytes));
    let mut lo = 0;
    while lo < total {
        let hi = (lo + chunk_bytes).min(total);
        spans.push((lo, hi));
        lo = hi;
    }
    spans
}

/// Reassembles the chunks of one streaming remote-pipe transfer back into
/// the original payload.
///
/// Chunks may arrive in any order (the fabric delivers them in order, but
/// the reassembler does not rely on it); each byte position must be
/// written exactly once. [`Reassembler::complete`] reports when every
/// byte of the announced total has arrived.
///
/// A transfer whose chunks are views of one allocation arriving in
/// order — one chunk or many — is **adopted without a copy**:
/// [`Reassembler::write_bytes`] keeps chunk 0's [`Bytes`] view, extends
/// it over each adjacent neighbour, and [`Reassembler::into_bytes`] hands
/// the rejoined view back. The assembly buffer is only allocated when a
/// chunk cannot be joined (another allocation, a gap, a partial overlap);
/// the adopted prefix is then copied into it once and assembly continues
/// by copy.
///
/// # Examples
///
/// ```
/// use dataflower_rt::{chunk_spans, Reassembler};
///
/// let payload: Vec<u8> = (0..100u8).collect();
/// let mut r = Reassembler::new(payload.len());
/// for (lo, hi) in chunk_spans(payload.len(), 7) {
///     r.write(lo, &payload[lo..hi]);
/// }
/// assert!(r.complete());
/// assert_eq!(&*r.into_bytes(), &payload[..]);
/// ```
#[derive(Debug)]
pub struct Reassembler {
    /// Announced transfer size.
    total: usize,
    /// The contiguous prefix `0..view.len()` adopted without copying:
    /// chunk 0's view, extended over each in-order neighbour from the
    /// same allocation. While it is `Some`, `buf` and `covered` are
    /// empty; a chunk that cannot be joined demotes it into `buf`.
    view: Option<Bytes>,
    /// Copy-assembly buffer, allocated lazily on the first chunk that
    /// cannot be joined.
    buf: Vec<u8>,
    /// Disjoint, sorted, merged byte ranges written so far. Coverage is
    /// tracked positionally (not as a byte count) so duplicated or
    /// overlapping chunks — e.g. a §6.2 checkpoint resume re-sending
    /// from the last mark — can never make the transfer look complete
    /// while bytes are still missing.
    covered: Vec<(usize, usize)>,
}

impl Reassembler {
    /// Prepares to receive a transfer of `total` bytes. No buffer is
    /// allocated yet: in-order views of one allocation need none.
    pub fn new(total: usize) -> Reassembler {
        Reassembler {
            total,
            view: None,
            buf: Vec::new(),
            covered: Vec::new(),
        }
    }

    /// Where a chunk of `len` bytes at `offset` ends — `None` when it
    /// would overrun the announced total.
    fn end_of(&self, offset: usize, len: usize) -> Option<usize> {
        offset.checked_add(len).filter(|&end| end <= self.total)
    }

    /// Copies one chunk into place. Re-writing already-covered positions
    /// (a retransmission) is harmless and does not advance completion.
    ///
    /// Returns `false` (ignoring the chunk) if it would overrun the
    /// announced total; a well-behaved sender never triggers this.
    pub fn write(&mut self, offset: usize, chunk: &[u8]) -> bool {
        let Some(end) = self.end_of(offset, chunk.len()) else {
            return false;
        };
        if self.view.as_ref().is_some_and(|v| end <= v.len()) {
            // Wholly inside the adopted prefix: a retransmission.
            return true;
        }
        if let Some(v) = self.view.take() {
            // Not joinable: demote the adopted prefix into the copy
            // buffer, once, and carry on by copy.
            self.write(0, &v);
        }
        if self.buf.capacity() == 0 {
            // One exact allocation, *not* zero-filled: the buffer grows
            // append-wise below, so an in-order stream (the fabric's
            // delivery order) never pays a 2nd pass over the bytes.
            self.buf.reserve_exact(self.total);
        }
        let filled = self.buf.len();
        if offset > filled {
            // Out-of-order chunk landing past the frontier: zero-fill
            // the gap (it is covered-tracked, so completion still
            // requires the real bytes to arrive and overwrite it).
            self.buf.resize(offset, 0);
            self.buf.extend_from_slice(chunk);
        } else {
            let overlap = (filled - offset).min(chunk.len());
            self.buf[offset..offset + overlap].copy_from_slice(&chunk[..overlap]);
            self.buf.extend_from_slice(&chunk[overlap..]);
        }
        if offset < end {
            self.cover(offset, end);
        }
        true
    }

    /// Writes one chunk that arrived as an owned [`Bytes`] view. Chunk 0
    /// of an untouched transfer is adopted as-is, and a chunk that is a
    /// view of the same allocation starting exactly at the adopted
    /// prefix's end extends it — zero copies, zero allocation. Anything
    /// else falls back to [`Reassembler::write`].
    pub fn write_bytes(&mut self, offset: usize, chunk: Bytes) -> bool {
        if self.end_of(offset, chunk.len()).is_none() {
            return false;
        }
        if offset == 0 && self.view.is_none() && self.covered.is_empty() {
            self.view = Some(chunk);
            return true;
        }
        let joined = |v: &mut Bytes| offset == v.len() && v.try_join(&chunk);
        self.view.as_mut().is_some_and(joined) || self.write(offset, &chunk)
    }

    /// Merges `[lo, hi)` into the covered-interval set.
    fn cover(&mut self, mut lo: usize, mut hi: usize) {
        // Fold every interval touching [lo, hi) into it; keep the rest.
        let mut kept = Vec::with_capacity(self.covered.len() + 1);
        for &(a, b) in &self.covered {
            if b < lo || hi < a {
                kept.push((a, b));
            } else {
                lo = lo.min(a);
                hi = hi.max(b);
            }
        }
        let pos = kept.partition_point(|&(a, _)| a < lo);
        kept.insert(pos, (lo, hi));
        self.covered = kept;
    }

    /// True once every byte of the announced total has been written.
    pub fn complete(&self) -> bool {
        self.contiguous_prefix() == self.total
    }

    /// The reassembled payload: the rejoined view when every chunk could
    /// be adopted, otherwise the assembly buffer (itself adopted by the
    /// returned [`Bytes`], not copied again).
    pub fn into_bytes(self) -> Bytes {
        self.view.unwrap_or_else(|| Bytes::from(self.buf))
    }

    /// Length of the contiguous prefix written so far: the largest `p`
    /// such that every byte of `0..p` has arrived. This is the progress
    /// figure the §6.2 ack protocol quantizes into checkpoint marks.
    pub fn contiguous_prefix(&self) -> usize {
        if let Some(v) = &self.view {
            return v.len();
        }
        match self.covered.first() {
            Some(&(0, hi)) => hi,
            _ => 0,
        }
    }

    /// Discards everything written at or past byte `keep` — the crash
    /// model of §6.2: progress up to the last checkpoint mark is durable,
    /// everything past it is volatile and lost when the receiving node
    /// dies. After the rollback the transfer completes normally once the
    /// sender replays the stream from the mark.
    ///
    /// A `keep` at or past the announced total is a no-op.
    ///
    /// # Examples
    ///
    /// ```
    /// use dataflower_rt::Reassembler;
    ///
    /// let mut r = Reassembler::new(10);
    /// r.write(0, &[1, 2, 3, 4, 5, 6, 7]);
    /// r.rollback_to(4); // the 4-byte mark survived the crash
    /// assert_eq!(r.contiguous_prefix(), 4);
    /// assert!(!r.complete());
    /// r.write(4, &[5, 6, 7, 8, 9, 10]); // replay from the mark
    /// assert!(r.complete());
    /// assert_eq!(&*r.into_bytes(), &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    /// ```
    pub fn rollback_to(&mut self, keep: usize) {
        let keep = keep.min(self.total);
        if keep == self.total {
            return;
        }
        if let Some(v) = &mut self.view {
            // Still a view of the sender's allocation: the replay (the
            // same views, out of retention) rejoins it from the mark.
            *v = v.slice(..keep.min(v.len()));
            return;
        }
        self.buf.truncate(keep);
        let mut kept = Vec::with_capacity(self.covered.len());
        for &(a, b) in &self.covered {
            if a < keep {
                kept.push((a, b.min(keep)));
            }
        }
        self.covered = kept;
    }
}

/// One sender-side retained transfer: the replay window of a single
/// remote transfer, holding zero-copy [`Bytes`] views of every frame at
/// or past the destination's last acknowledged checkpoint mark. Bounded
/// by the checkpoint interval plus the link's in-flight window: each
/// mark ack trims everything below the mark.
pub(crate) struct RetainedTransfer {
    pub req: u64,
    pub edge: EdgeId,
    pub key: String,
    pub total: usize,
    /// False for direct-socket `Whole` frames, true for chunked streams.
    pub chunked: bool,
    /// Durable prefix at the destination: the last acked checkpoint mark.
    pub acked: usize,
    /// Retained frames `(offset, zero-copy view)`, in send order.
    pub frames: Vec<(usize, Bytes)>,
    /// Last send/ack touching this transfer — staleness clock of the
    /// recovery daemon's retransmit sweep.
    pub last_activity: Instant,
    /// Fully acked. Only reachable in retain-acked mode, where completed
    /// transfers stay resident (excluded from replay and [`len`]) until
    /// their request is purged — the replay source for relocating a
    /// function onto a node that holds none of its bytes.
    ///
    /// [`len`]: LinkRetention::len
    pub completed: bool,
}

/// What one replay sweep over a link's retention produced: the frames to
/// re-deliver plus the recovery accounting.
pub(crate) struct ReplaySummary {
    /// Incomplete transfers whose frames were replayed.
    pub transfers: u64,
    /// Bytes *not* re-sent because they sit below an acked checkpoint
    /// mark — the §6.2 savings of resuming from the mark instead of
    /// byte 0.
    pub resumed_from_mark_bytes: u64,
    /// The frames to re-deliver, in original send order per transfer.
    pub frames: Vec<NetMsg>,
}

/// Sender-side retention of one directed link's un-acknowledged remote
/// frames, keyed by transfer id. The runtime keeps one per link when
/// recovery is enabled; acks from the destination trim it, and crash
/// recovery / retransmission replays it.
#[derive(Default)]
pub(crate) struct LinkRetention {
    transfers: HashMap<u64, RetainedTransfer>,
    /// Retain-acked mode: acks stop freeing frames, so the full byte
    /// history of every transfer stays replayable until its request is
    /// purged. The orchestrator's wire mode needs this — relocating a
    /// function to a node that never hosted it means replaying from
    /// byte 0, including transfers the dead node had already acked.
    retain_acked: bool,
}

impl LinkRetention {
    /// Switches this link into retain-acked mode (see the field doc).
    pub fn set_retain_acked(&mut self, on: bool) {
        self.retain_acked = on;
    }
    /// Retains one outbound frame (called just before it is handed to
    /// the link, so a frame lost at a dead node is always replayable).
    #[allow(clippy::too_many_arguments)]
    pub fn retain(
        &mut self,
        transfer: u64,
        req: u64,
        edge: EdgeId,
        key: &str,
        total: usize,
        chunked: bool,
        offset: usize,
        bytes: Bytes,
    ) {
        let t = self
            .transfers
            .entry(transfer)
            .or_insert_with(|| RetainedTransfer {
                req,
                edge,
                key: key.to_owned(),
                total,
                chunked,
                acked: 0,
                frames: Vec::new(),
                last_activity: Instant::now(),
                completed: false,
            });
        t.frames.push((offset, bytes));
        t.last_activity = Instant::now();
    }

    /// Acknowledges a durable checkpoint mark: frames entirely below it
    /// are dropped from the retention window. Returns the previous acked
    /// mark when the ack advanced it, `None` otherwise.
    pub fn ack_mark(&mut self, transfer: u64, mark: usize) -> Option<usize> {
        let t = self.transfers.get_mut(&transfer)?;
        if mark <= t.acked {
            return None;
        }
        let prev = t.acked;
        t.acked = mark;
        if !self.retain_acked {
            t.frames.retain(|(off, b)| off + b.len() > mark);
        }
        t.last_activity = Instant::now();
        Some(prev)
    }

    /// Acknowledges full delivery: the transfer leaves the retention
    /// window entirely (retain-acked mode instead parks it as completed
    /// until the request is purged). Returns true when it was still
    /// live-retained.
    pub fn ack_complete(&mut self, transfer: u64) -> bool {
        if self.retain_acked {
            match self.transfers.get_mut(&transfer) {
                Some(t) if !t.completed => {
                    t.completed = true;
                    t.last_activity = Instant::now();
                    true
                }
                _ => false,
            }
        } else {
            self.transfers.remove(&transfer).is_some()
        }
    }

    /// Drops every retained transfer of one request — the retain-acked
    /// mode's reclamation point, called once the request's outputs are
    /// delivered. Returns how many transfers were freed.
    pub fn purge_req(&mut self, req: u64) -> usize {
        let before = self.transfers.len();
        self.transfers.retain(|_, t| t.req != req);
        before - self.transfers.len()
    }

    /// Removes and returns one retained transfer by id — used when a
    /// forwarded in-flight frame drags its retention entry along to the
    /// destination's new host.
    pub fn take(&mut self, transfer: u64) -> Option<RetainedTransfer> {
        self.transfers.remove(&transfer)
    }

    /// Removes and returns every retained transfer matching `pred` —
    /// the first half of moving retention between links when a function
    /// relocates (the second half is [`adopt`]).
    ///
    /// [`adopt`]: LinkRetention::adopt
    pub fn extract(
        &mut self,
        mut pred: impl FnMut(&RetainedTransfer) -> bool,
    ) -> Vec<(u64, RetainedTransfer)> {
        let ids: Vec<u64> = self
            .transfers
            .iter()
            .filter(|(_, t)| pred(t))
            .map(|(id, _)| *id)
            .collect();
        ids.into_iter()
            .map(|id| (id, self.transfers.remove(&id).expect("extract ids exist")))
            .collect()
    }

    /// Adopts a transfer extracted from another link. With `reset` the
    /// durable-prefix bookkeeping is cleared (acked mark to 0, completed
    /// off) so a later replay re-sends every frame — required when the
    /// new destination holds none of the transfer's bytes. Frames of an
    /// already-resident entry (a send raced the move) are merged in.
    pub fn adopt(&mut self, transfer: u64, mut t: RetainedTransfer, reset: bool) {
        if reset {
            t.acked = 0;
            t.completed = false;
        }
        match self.transfers.entry(transfer) {
            Entry::Vacant(v) => {
                v.insert(t);
            }
            Entry::Occupied(mut o) => {
                let cur = o.get_mut();
                let have: HashSet<usize> = cur.frames.iter().map(|(off, _)| *off).collect();
                for (off, bytes) in t.frames {
                    if !have.contains(&off) {
                        cur.frames.push((off, bytes));
                    }
                }
                cur.acked = cur.acked.max(t.acked);
                cur.completed = cur.completed || t.completed;
                cur.last_activity = Instant::now();
            }
        }
    }

    /// Replays exactly the given transfers (regardless of idle time or
    /// completion), in full from their retained frames — the relocation
    /// path, called right after [`adopt`] re-homed them onto this link.
    ///
    /// [`adopt`]: LinkRetention::adopt
    pub fn replay_ids(&mut self, now: Instant, ids: &[u64]) -> ReplaySummary {
        let mut summary = ReplaySummary {
            transfers: 0,
            resumed_from_mark_bytes: 0,
            frames: Vec::new(),
        };
        for id in ids {
            if let Some(t) = self.transfers.get_mut(id) {
                t.last_activity = now;
                summary.transfers += 1;
                summary.resumed_from_mark_bytes += t.acked as u64;
                push_replay_frames(&mut summary.frames, *id, t);
            }
        }
        summary
    }

    /// Collects the frames of every retained (= incomplete) transfer for
    /// re-delivery. With `older_than` set, only transfers idle longer
    /// than that are swept (the retransmit path); `None` replays
    /// everything (the node-restart path). Frames stay retained until
    /// acked, so a replay that is lost again can be replayed again.
    pub fn replay(&mut self, now: Instant, older_than: Option<Duration>) -> ReplaySummary {
        let mut summary = ReplaySummary {
            transfers: 0,
            resumed_from_mark_bytes: 0,
            frames: Vec::new(),
        };
        for (id, t) in &mut self.transfers {
            if t.completed {
                continue;
            }
            if let Some(timeout) = older_than {
                if now.duration_since(t.last_activity) < timeout {
                    continue;
                }
            }
            t.last_activity = now;
            summary.transfers += 1;
            summary.resumed_from_mark_bytes += t.acked as u64;
            push_replay_frames(&mut summary.frames, *id, t);
        }
        summary
    }

    /// Number of transfers currently retained and un-acked (retain-acked
    /// mode's completed-but-resident transfers are not counted).
    pub fn len(&self) -> usize {
        self.transfers.values().filter(|t| !t.completed).count()
    }

    /// True when some chunked transfer has crossed at least one acked
    /// checkpoint mark but still has at least `margin` bytes un-acked —
    /// the crash-window probe of the TCP chaos scenario: killing the
    /// destination now guarantees a restart that resumes from a mark
    /// rather than byte 0.
    pub fn has_acked_partial(&self, margin: usize) -> bool {
        self.transfers
            .values()
            .any(|t| t.chunked && t.acked > 0 && t.total - t.acked >= margin)
    }
}

/// Builds the replay frames of one retained transfer, skipping frames
/// that sit entirely below its acked durable prefix (§6.2: resume from
/// the last mark, not byte 0).
fn push_replay_frames(frames: &mut Vec<NetMsg>, id: u64, t: &RetainedTransfer) {
    for (offset, bytes) in &t.frames {
        if *offset + bytes.len() <= t.acked {
            continue;
        }
        frames.push(if t.chunked {
            NetMsg::Chunk {
                req: t.req,
                edge: t.edge,
                key: t.key.clone(),
                transfer: id,
                offset: *offset,
                total: t.total,
                bytes: bytes.clone(),
            }
        } else {
            NetMsg::Whole {
                req: t.req,
                edge: t.edge,
                key: t.key.clone(),
                transfer: id,
                payload: bytes.clone(),
            }
        });
    }
}

/// Destination-side hook a link delivers into: the cluster runtime's
/// per-node ingress.
pub(crate) type Ingress = Arc<dyn Fn(NetMsg) + Send + Sync>;

/// Spawns the shipper thread of one directed link `src → dst`.
///
/// The shipper drains the link's bounded queue in FIFO order — up to
/// [`SHIPPER_BATCH`] frames per wakeup — and for
/// each frame sleeps the shaped transfer time (latency once per transfer
/// plus bytes/bandwidth serialization delay), then hands it to
/// `ingress`. It exits when every sender is gone; when `shutdown` is set
/// it keeps draining but stops sleeping so teardown is prompt.
///
/// `depth` is the link's queue-depth gauge: the sending side increments
/// it per enqueued message, the shipper decrements it once the message
/// was delivered — so the gauge covers both queued and in-shaping
/// messages, and load-aware placement can read the fabric's pressure.
pub(crate) fn spawn_link(
    src: usize,
    dst: usize,
    cfg: LinkConfig,
    rx: crate::channel::Receiver<NetMsg>,
    ingress: Ingress,
    shutdown: Arc<AtomicBool>,
    depth: Arc<AtomicUsize>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("link-{src}-{dst}"))
        .spawn(move || {
            let mut batch = Vec::with_capacity(SHIPPER_BATCH);
            while rx.drain_into(&mut batch, SHIPPER_BATCH).is_ok() {
                for msg in batch.drain(..) {
                    if !shutdown.load(Ordering::Relaxed) {
                        let mut delay = Duration::ZERO;
                        if msg.starts_transfer() {
                            delay += cfg.latency;
                        }
                        if let Some(bw) = cfg.bandwidth_bytes_per_sec {
                            if bw > 0.0 {
                                delay += Duration::from_secs_f64(msg.wire_bytes() as f64 / bw);
                            }
                        }
                        if delay > Duration::ZERO {
                            std::thread::sleep(delay);
                        }
                    }
                    ingress(msg);
                    depth.fetch_sub(1, Ordering::Relaxed);
                }
            }
        })
        .expect("spawn link shipper")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_cover_exactly() {
        for (total, chunk) in [
            (0usize, 1usize),
            (1, 1),
            (5, 2),
            (16, 16),
            (17, 16),
            (100, 7),
        ] {
            let spans = chunk_spans(total, chunk);
            if total == 0 {
                assert!(spans.is_empty(), "empty payload must yield no spans");
                continue;
            }
            assert_eq!(spans.first().unwrap().0, 0);
            assert_eq!(spans.last().unwrap().1, total);
            for w in spans.windows(2) {
                assert_eq!(w[0].1, w[1].0, "gap or overlap in {spans:?}");
            }
            for (lo, hi) in &spans {
                assert!(hi - lo <= chunk);
            }
        }
    }

    #[test]
    fn reassembler_rejects_overrun() {
        let mut r = Reassembler::new(4);
        assert!(!r.write(2, &[0, 0, 0]));
        assert!(r.write(0, &[1, 2, 3, 4]));
        assert!(r.complete());
        assert_eq!(&*r.into_bytes(), &[1, 2, 3, 4]);
    }

    #[test]
    fn out_of_order_writes_reassemble() {
        let payload: Vec<u8> = (0..50u8).collect();
        let mut spans = chunk_spans(payload.len(), 8);
        spans.reverse();
        let mut r = Reassembler::new(payload.len());
        for (lo, hi) in spans {
            assert!(!r.complete() || lo == hi);
            r.write(lo, &payload[lo..hi]);
        }
        assert!(r.complete());
        assert_eq!(&*r.into_bytes(), &payload[..]);
    }

    #[test]
    fn retransmitted_chunks_do_not_fake_completion() {
        let payload: Vec<u8> = (0..40u8).collect();
        let mut r = Reassembler::new(payload.len());
        assert!(r.write(0, &payload[0..16]));
        assert!(r.write(8, &payload[8..24])); // checkpoint-resume overlap
        assert!(r.write(0, &payload[0..16])); // exact duplicate
        assert!(!r.complete(), "24 covered bytes must not look like 40");
        assert!(r.write(24, &payload[24..40]));
        assert!(r.complete());
        assert_eq!(&*r.into_bytes(), &payload[..]);
    }

    #[test]
    fn single_chunk_transfer_is_adopted_without_copy() {
        let payload = Bytes::from((0..64u8).collect::<Vec<_>>());
        let mut r = Reassembler::new(payload.len());
        assert!(r.write_bytes(0, payload.clone()));
        assert!(r.complete());
        let out = r.into_bytes();
        // Same allocation, not a copy.
        assert!(std::ptr::eq(out.as_ref(), payload.as_ref()));
        // A retransmission after adoption stays harmless.
        let mut r = Reassembler::new(payload.len());
        assert!(r.write_bytes(0, payload.clone()));
        assert!(r.write_bytes(0, payload.slice(0..16)));
        assert!(r.complete());
        assert_eq!(&*r.into_bytes(), &*payload);
    }

    #[test]
    fn partial_bytes_chunks_fall_back_to_copy_assembly() {
        let payload = Bytes::from((0..50u8).collect::<Vec<_>>());
        let spans = chunk_spans(payload.len(), 16);
        // In-order views of one allocation are rejoined, not copied...
        let mut r = Reassembler::new(payload.len());
        for &(lo, hi) in &spans {
            assert!(!r.complete());
            assert!(r.write_bytes(lo, payload.slice(lo..hi)));
            assert_eq!(r.contiguous_prefix(), hi);
        }
        assert!(r.complete());
        assert!(std::ptr::eq(r.into_bytes().as_ref(), payload.as_ref()));
        // ...a chunk from another allocation (every TCP chunk), a gap
        // and a partial overlap each demote the prefix to copy assembly.
        let foreign = |lo, hi| Bytes::copy_from_slice(&payload[lo..hi]);
        let view = |lo, hi| payload.slice(lo..hi);
        type Chunks = Vec<(usize, Bytes)>;
        let cases: [(&str, Chunks); 3] = [
            (
                "foreign",
                spans
                    .iter()
                    .map(|&(lo, hi)| (lo, foreign(lo, hi)))
                    .collect(),
            ),
            (
                "gap",
                vec![(0, view(0, 16)), (32, view(32, 50)), (16, view(16, 32))],
            ),
            (
                "overlap",
                vec![(0, view(0, 16)), (8, view(8, 40)), (40, view(40, 50))],
            ),
        ];
        for (what, chunks) in cases {
            let mut r = Reassembler::new(payload.len());
            for (lo, chunk) in chunks {
                assert!(!r.complete(), "{what}");
                assert!(r.write_bytes(lo, chunk), "{what}");
            }
            assert!(r.complete(), "{what}");
            let out = r.into_bytes();
            assert_eq!(out, payload, "{what}");
            assert_ne!(out.as_ptr(), payload.as_ptr(), "{what}");
        }
        // An overrunning view is refused in either state.
        let mut r = Reassembler::new(40);
        assert!(!r.write_bytes(0, view(0, 50)));
        assert!(r.write_bytes(0, view(0, 16)));
        assert!(!r.write_bytes(16, view(16, 50)));
        assert_eq!(r.contiguous_prefix(), 16);
    }

    #[test]
    fn empty_transfer_is_born_complete() {
        let r = Reassembler::new(0);
        assert!(r.complete());
        assert!(r.into_bytes().is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chunk_rejected() {
        chunk_spans(10, 0);
    }

    #[test]
    fn rollback_discards_past_the_mark_and_resumes() {
        let payload: Vec<u8> = (0..100u8).collect();
        let mut r = Reassembler::new(payload.len());
        r.write(0, &payload[0..70]);
        assert_eq!(r.contiguous_prefix(), 70);
        r.rollback_to(64);
        assert_eq!(r.contiguous_prefix(), 64);
        assert!(!r.complete());
        // Replay from the mark, overlapping it by a whole chunk.
        r.write(32, &payload[32..100]);
        assert!(r.complete());
        assert_eq!(&*r.into_bytes(), &payload[..]);
    }

    #[test]
    fn rollback_of_adopted_whole_demotes_to_prefix() {
        let payload = Bytes::from((0..64u8).collect::<Vec<_>>());
        let mut r = Reassembler::new(payload.len());
        assert!(r.write_bytes(0, payload.clone()));
        assert!(r.complete());
        r.rollback_to(16);
        assert!(!r.complete());
        assert_eq!(r.contiguous_prefix(), 16);
        // The kept prefix is still a view: replaying the sender's
        // retained views from the mark rejoins it without a copy...
        assert!(r.write_bytes(8, payload.slice(8..16)), "below the mark");
        assert!(r.write_bytes(16, payload.slice(16..40)));
        assert!(r.write_bytes(40, payload.slice(40..)));
        assert!(r.complete());
        assert!(std::ptr::eq(r.into_bytes().as_ref(), payload.as_ref()));
        // ...and a replay that arrives as plain bytes demotes it to a
        // copied prefix and completes by copy.
        let mut r = Reassembler::new(payload.len());
        assert!(r.write_bytes(0, payload.clone()));
        r.rollback_to(16);
        r.write(16, &payload[16..]);
        assert!(r.complete());
        assert_eq!(&*r.into_bytes(), &*payload);
        // Rolling back to (or past) the total is a no-op.
        let mut r = Reassembler::new(4);
        r.write(0, &[9, 9, 9, 9]);
        r.rollback_to(4);
        assert!(r.complete());
    }

    #[test]
    fn rollback_to_zero_restarts_the_transfer() {
        let payload: Vec<u8> = (0..40u8).collect();
        let mut r = Reassembler::new(payload.len());
        r.write(0, &payload[0..30]);
        r.rollback_to(0);
        assert_eq!(r.contiguous_prefix(), 0);
        r.write(0, &payload[..]);
        assert!(r.complete());
        assert_eq!(&*r.into_bytes(), &payload[..]);
    }

    #[test]
    fn retention_trims_on_mark_acks_and_clears_on_completion() {
        use dataflower_workflow::EdgeId;
        let edge = EdgeId::from_index(0);
        let payload = Bytes::from((0..100u8).collect::<Vec<_>>());
        let mut ret = LinkRetention::default();
        for (lo, hi) in chunk_spans(payload.len(), 10) {
            ret.retain(
                7,
                1,
                edge,
                "k",
                payload.len(),
                true,
                lo,
                payload.slice(lo..hi),
            );
        }
        assert_eq!(ret.len(), 1);
        // Ack the 40-byte mark: the four frames below it are dropped.
        assert_eq!(ret.ack_mark(7, 40), Some(0));
        assert_eq!(ret.ack_mark(7, 40), None, "acks are monotone");
        let replay = ret.replay(Instant::now(), None);
        assert_eq!(replay.transfers, 1);
        assert_eq!(replay.resumed_from_mark_bytes, 40);
        assert_eq!(replay.frames.len(), 6, "frames below the mark trimmed");
        // Frames survive a replay (they are only released by acks) and
        // replayed frames carry the original offsets.
        let offsets: Vec<usize> = replay
            .frames
            .iter()
            .map(|m| match m {
                NetMsg::Chunk { offset, .. } => *offset,
                _ => panic!("chunked transfer"),
            })
            .collect();
        assert_eq!(offsets, vec![40, 50, 60, 70, 80, 90]);
        assert!(ret.ack_complete(7));
        assert_eq!(ret.len(), 0);
        assert!(!ret.ack_complete(7));
    }

    #[test]
    fn acked_partial_probe_needs_a_mark_and_margin() {
        use dataflower_workflow::EdgeId;
        let edge = EdgeId::from_index(0);
        let payload = Bytes::from(vec![0u8; 100]);
        let mut ret = LinkRetention::default();
        for (lo, hi) in chunk_spans(payload.len(), 10) {
            ret.retain(3, 1, edge, "k", 100, true, lo, payload.slice(lo..hi));
        }
        // No mark acked yet: not a usable crash window.
        assert!(!ret.has_acked_partial(10));
        ret.ack_mark(3, 40);
        assert!(ret.has_acked_partial(60), "60 bytes remain un-acked");
        assert!(!ret.has_acked_partial(61), "margin larger than remainder");
        // An un-chunked Whole frame never qualifies regardless of acks.
        let mut ret = LinkRetention::default();
        ret.retain(4, 1, edge, "k", 100, false, 0, payload.clone());
        assert!(!ret.has_acked_partial(1));
    }

    #[test]
    fn ack_frames_cost_no_wire_bytes_and_start_nothing() {
        let ack = NetMsg::AckMark {
            transfer: 9,
            mark: 64,
        };
        assert_eq!(ack.wire_bytes(), 0);
        assert!(!ack.starts_transfer());
        let done = NetMsg::AckComplete { transfer: 9 };
        assert_eq!(done.wire_bytes(), 0);
        assert!(!done.starts_transfer());
    }

    #[test]
    fn retransmit_sweep_skips_recently_active_transfers() {
        use dataflower_workflow::EdgeId;
        let mut ret = LinkRetention::default();
        ret.retain(
            1,
            0,
            EdgeId::from_index(0),
            "k",
            4,
            false,
            0,
            Bytes::from_static(&[1, 2, 3, 4]),
        );
        // Just sent: a staleness-gated sweep finds nothing...
        let replay = ret.replay(Instant::now(), Some(Duration::from_secs(60)));
        assert_eq!(replay.transfers, 0);
        // ...but the restart path (no staleness gate) replays it.
        let replay = ret.replay(Instant::now(), None);
        assert_eq!(replay.transfers, 1);
        assert!(matches!(
            replay.frames[0],
            NetMsg::Whole { transfer: 1, .. }
        ));
    }
}
