//! Deterministic trace record / replay and sim↔live differential
//! checking.
//!
//! A live [`ClusterRuntime`](crate::ClusterRuntime) run can record a
//! compact, versioned binary event stream — every invocation, every §7
//! `choose_pipe` decision, the chunk/checkpoint-mark counts of each
//! streaming transfer, plus advisory scale / fault / crash / relocation
//! events. The recorded trace is self-contained: its leading `Meta`
//! event embeds the workflow spec JSON and the pipe thresholds, so
//! [`replay`] can rebuild the *simulated* engine
//! ([`dataflower::DataFlowerEngine`]) from the trace alone, drive it
//! with the recorded requests, and produce the simulator's view of the
//! same deterministic decisions. [`diff`] then aligns the two timelines
//! and reports the first divergence — the heart of the sim↔live
//! differential fuzz loop (`bench fuzz`).
//!
//! # On-disk format
//!
//! A trace is a 5-byte header (`"DFTR"` magic plus a version byte)
//! followed by back-to-back events. Every event is:
//!
//! ```text
//! kind      1 byte
//! body_len  LEB128 varint
//! body      body_len bytes: at_us varint, then the kind's fields
//! ```
//!
//! All integers are LEB128 varints; strings are a varint length followed
//! by UTF-8 bytes. Functions are referenced by their workflow index (the
//! embedded spec maps indices back to names). Event kinds and bodies:
//!
//! | kind | event        | body fields (after `at_us`)                          |
//! |-----:|--------------|------------------------------------------------------|
//! | 0    | `Meta`       | nodes, direct_threshold, chunk_bytes, checkpoint_interval, workflow_json |
//! | 1    | `Place`      | func, node                                           |
//! | 2    | `Request`    | req, payload_bytes                                   |
//! | 3    | `Invoke`     | req, func                                            |
//! | 4    | `PipeChoice` | req, edge, kind (0 direct / 1 local / 2 remote), bytes |
//! | 5    | `RemoteMarks`| req, edge, chunks, marks                             |
//! | 6    | `Scale`      | func, node, out (0/1), from_replicas, to_replicas    |
//! | 7    | `FaultFate`  | src, dst, fate (0 drop / 1 duplicate / 2 delay)      |
//! | 8    | `Crash`      | node                                                 |
//! | 9    | `Restart`    | node                                                 |
//! | 10   | `Relocate`   | dead_node, moved                                     |
//! | 11   | `Migrate`    | func, to_node                                        |
//!
//! [`TraceDecoder`] is incremental in the spirit of
//! [`wire::Decoder`](crate::wire::Decoder): feed it arbitrarily torn
//! reads and drain complete events; corruption surfaces as a named
//! [`TraceError`].
//!
//! Only `Invoke`, `PipeChoice` and `RemoteMarks` are *compared* — they
//! are pure functions of the workflow, the placement and the transfer
//! sizes, so sim and live must agree on them exactly. The rest
//! (`Scale`, `FaultFate`, `Crash`, …) is timing-dependent and recorded
//! for post-mortem context only.
//!
//! # Examples
//!
//! Round-trip a tiny trace through the codec and diff it against a
//! tampered copy:
//!
//! ```
//! use dataflower::PipeKind;
//! use dataflower_rt::trace::{diff, encode_trace, EventKind, TraceDecoder, TraceEvent};
//!
//! let events = vec![
//!     TraceEvent { at_us: 10, kind: EventKind::Invoke { req: 0, func: 0 } },
//!     TraceEvent {
//!         at_us: 25,
//!         kind: EventKind::PipeChoice { req: 0, edge: 1, kind: PipeKind::RemotePipe, bytes: 65536 },
//!     },
//! ];
//! let bytes = encode_trace(&events);
//!
//! let mut dec = TraceDecoder::new();
//! dec.feed(&bytes);
//! let mut back = Vec::new();
//! while let Some(ev) = dec.next_event().unwrap() {
//!     back.push(ev);
//! }
//! assert_eq!(back, events);
//! assert!(diff(&events, &back).is_none());
//!
//! let mut tampered = events.clone();
//! tampered[1].kind = EventKind::PipeChoice { req: 0, edge: 1, kind: PipeKind::DirectSocket, bytes: 65536 };
//! let d = diff(&events, &tampered).expect("flipped pipe choice must diverge");
//! assert_eq!((d.index, d.kind), (1, "PipeChoice"));
//! ```

use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;

use dataflower::{CheckpointSchedule, DataFlowerConfig, DataFlowerEngine, DecisionEvent, PipeKind};
use dataflower_cluster::{
    run_to_idle, NodeId, NodeSpec, Placement as SimPlacement, TestbedConfig, WfId, World,
};
use dataflower_sim::SimTime;
use dataflower_workflow::{FnId, WorkflowSpec};

use crate::fabric::chunk_spans;

/// Leading magic of every trace file.
pub const MAGIC: [u8; 4] = *b"DFTR";
/// The trace-format version this build writes and reads.
pub const TRACE_VERSION: u8 = 1;
/// Header size in bytes (magic plus version).
pub const HEADER_LEN: usize = 5;
/// Largest admissible event body. Only `Meta` (which embeds the workflow
/// spec JSON) comes anywhere near this; a longer body means a corrupt
/// stream.
pub const MAX_EVENT_BODY: usize = 16 * 1024 * 1024;

const KIND_META: u8 = 0;
const KIND_PLACE: u8 = 1;
const KIND_REQUEST: u8 = 2;
const KIND_INVOKE: u8 = 3;
const KIND_PIPE_CHOICE: u8 = 4;
const KIND_REMOTE_MARKS: u8 = 5;
const KIND_SCALE: u8 = 6;
const KIND_FAULT_FATE: u8 = 7;
const KIND_CRASH: u8 = 8;
const KIND_RESTART: u8 = 9;
const KIND_RELOCATE: u8 = 10;
const KIND_MIGRATE: u8 = 11;

/// What happened to a frame under fault injection (the advisory
/// [`EventKind::FaultFate`] payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FateKind {
    /// The frame was dropped in flight.
    Drop,
    /// The frame was delivered twice.
    Duplicate,
    /// The frame was delayed before delivery.
    Delay,
}

/// One recorded event: a timestamp (microseconds since the run started —
/// wall-clock live, simulated time on replay) plus the event body.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the start of the run.
    pub at_us: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The body of one trace event. See the module docs for the on-disk
/// encoding of each variant.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Run preamble: topology, pipe thresholds and the workflow spec
    /// JSON. Always the first event of a trace; everything [`replay`]
    /// needs to rebuild the run.
    Meta {
        /// Worker-node count.
        nodes: u32,
        /// §7 direct-socket threshold in bytes.
        direct_threshold_bytes: u64,
        /// Remote-pipe chunk size in bytes.
        chunk_bytes: u64,
        /// §6.2 checkpoint interval in bytes.
        checkpoint_interval_bytes: u64,
        /// The workflow, as [`WorkflowSpec`] JSON.
        workflow_json: String,
    },
    /// Initial placement of one function (`func` is its workflow index).
    Place {
        /// Function index in the workflow.
        func: u32,
        /// Hosting node.
        node: u32,
    },
    /// One client request entered the runtime.
    Request {
        /// The request id (sequential from 0).
        req: u64,
        /// Total client-input payload bytes.
        payload_bytes: u64,
    },
    /// An FLU executor started running `(req, func)` — compared.
    Invoke {
        /// The invoking request.
        req: u64,
        /// Function index in the workflow.
        func: u32,
    },
    /// The DLU classified one inter-function transfer through the §7
    /// three-way pipe choice — compared.
    PipeChoice {
        /// The request the transfer belongs to.
        req: u64,
        /// Workflow edge index.
        edge: u32,
        /// The chosen pipe kind.
        kind: PipeKind,
        /// Raw transfer size in bytes.
        bytes: u64,
    },
    /// Chunk and checkpoint-mark counts of one streaming remote-pipe
    /// transfer — compared.
    RemoteMarks {
        /// The request the transfer belongs to.
        req: u64,
        /// Workflow edge index.
        edge: u32,
        /// Chunks shipped.
        chunks: u32,
        /// §6.2 checkpoint marks crossed.
        marks: u32,
    },
    /// An elastic autoscale decision (advisory: timing-dependent).
    Scale {
        /// Function index in the workflow.
        func: u32,
        /// Node the pool lives on.
        node: u32,
        /// `true` for scale-out, `false` for scale-in.
        out: bool,
        /// Replicas before the decision.
        from_replicas: u32,
        /// Replicas after the decision.
        to_replicas: u32,
    },
    /// A fault-injection fate applied to a frame (advisory).
    FaultFate {
        /// Source node of the frame.
        src: u32,
        /// Destination node of the frame.
        dst: u32,
        /// What the fault plan did to it.
        fate: FateKind,
    },
    /// A node crashed (advisory).
    Crash {
        /// The crashed node.
        node: u32,
    },
    /// A node restarted (advisory).
    Restart {
        /// The restarted node.
        node: u32,
    },
    /// The orchestrator relocated a lost node's functions (advisory).
    Relocate {
        /// The node declared lost.
        dead_node: u32,
        /// Functions moved off it.
        moved: u32,
    },
    /// A live migration moved one function (advisory).
    Migrate {
        /// Function index in the workflow.
        func: u32,
        /// Destination node.
        to_node: u32,
    },
}

/// Why a trace failed to decode or replay. Any codec variant is fatal
/// for the stream that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported trace-format version.
    BadVersion(u8),
    /// Unknown event kind.
    BadKind(u8),
    /// Event body length exceeds [`MAX_EVENT_BODY`].
    Oversize(u64),
    /// An event body ended before its fields did.
    Truncated,
    /// A varint ran past 10 bytes (not a canonical LEB128 `u64`).
    BadVarint,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An event body carried bytes past its last field.
    TrailingBytes,
    /// The trace does not start with a [`EventKind::Meta`] event.
    MissingMeta,
    /// The embedded workflow spec failed to parse or compile.
    BadWorkflow(String),
    /// The trace's structure is unusable for replay (e.g. request ids
    /// with gaps).
    Malformed(&'static str),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic(m) => write!(f, "bad trace magic {m:02x?}"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::BadKind(k) => write!(f, "unknown trace event kind {k}"),
            TraceError::Oversize(n) => write!(f, "event body of {n} bytes exceeds the cap"),
            TraceError::Truncated => write!(f, "event body truncated"),
            TraceError::BadVarint => write!(f, "malformed varint"),
            TraceError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            TraceError::TrailingBytes => write!(f, "event body has trailing bytes"),
            TraceError::MissingMeta => write!(f, "trace does not start with a Meta event"),
            TraceError::BadWorkflow(e) => write!(f, "embedded workflow spec rejected: {e}"),
            TraceError::Malformed(why) => write!(f, "malformed trace: {why}"),
        }
    }
}

impl std::error::Error for TraceError {}

// ---- varint codec -------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Tolerant varint read for the length prefix: `None` while the buffer
/// ends mid-varint, `Err` past 10 bytes.
fn peek_varint(buf: &[u8]) -> Result<Option<(u64, usize)>, TraceError> {
    let mut v: u64 = 0;
    for (i, &b) in buf.iter().enumerate() {
        if i >= 10 {
            return Err(TraceError::BadVarint);
        }
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            return Ok(Some((v, i + 1)));
        }
    }
    if buf.len() >= 10 {
        return Err(TraceError::BadVarint);
    }
    Ok(None)
}

/// Cursor over one event body during decode. Strict: running out of
/// bytes is [`TraceError::Truncated`].
struct BodyReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn varint(&mut self) -> Result<u64, TraceError> {
        match peek_varint(&self.body[self.pos..])? {
            Some((v, n)) => {
                self.pos += n;
                Ok(v)
            }
            None => Err(TraceError::Truncated),
        }
    }

    fn u32(&mut self) -> Result<u32, TraceError> {
        u32::try_from(self.varint()?).map_err(|_| TraceError::Truncated)
    }

    fn string(&mut self) -> Result<String, TraceError> {
        let len = self.varint()? as usize;
        let end = self.pos.checked_add(len).ok_or(TraceError::Truncated)?;
        if end > self.body.len() {
            return Err(TraceError::Truncated);
        }
        let s = std::str::from_utf8(&self.body[self.pos..end]).map_err(|_| TraceError::BadUtf8)?;
        self.pos = end;
        Ok(s.to_owned())
    }

    fn finish(self) -> Result<(), TraceError> {
        if self.pos == self.body.len() {
            Ok(())
        } else {
            Err(TraceError::TrailingBytes)
        }
    }
}

fn pipe_kind_code(kind: PipeKind) -> u64 {
    match kind {
        PipeKind::DirectSocket => 0,
        PipeKind::LocalPipe => 1,
        PipeKind::RemotePipe => 2,
    }
}

fn fate_code(fate: FateKind) -> u64 {
    match fate {
        FateKind::Drop => 0,
        FateKind::Duplicate => 1,
        FateKind::Delay => 2,
    }
}

/// Encodes one event (kind byte, varint body length, body) into `out`.
pub fn encode_event(ev: &TraceEvent, out: &mut Vec<u8>) {
    let mut body = Vec::with_capacity(24);
    put_varint(&mut body, ev.at_us);
    let kind = match &ev.kind {
        EventKind::Meta {
            nodes,
            direct_threshold_bytes,
            chunk_bytes,
            checkpoint_interval_bytes,
            workflow_json,
        } => {
            put_varint(&mut body, u64::from(*nodes));
            put_varint(&mut body, *direct_threshold_bytes);
            put_varint(&mut body, *chunk_bytes);
            put_varint(&mut body, *checkpoint_interval_bytes);
            put_varint(&mut body, workflow_json.len() as u64);
            body.extend_from_slice(workflow_json.as_bytes());
            KIND_META
        }
        EventKind::Place { func, node } => {
            put_varint(&mut body, u64::from(*func));
            put_varint(&mut body, u64::from(*node));
            KIND_PLACE
        }
        EventKind::Request { req, payload_bytes } => {
            put_varint(&mut body, *req);
            put_varint(&mut body, *payload_bytes);
            KIND_REQUEST
        }
        EventKind::Invoke { req, func } => {
            put_varint(&mut body, *req);
            put_varint(&mut body, u64::from(*func));
            KIND_INVOKE
        }
        EventKind::PipeChoice {
            req,
            edge,
            kind,
            bytes,
        } => {
            put_varint(&mut body, *req);
            put_varint(&mut body, u64::from(*edge));
            put_varint(&mut body, pipe_kind_code(*kind));
            put_varint(&mut body, *bytes);
            KIND_PIPE_CHOICE
        }
        EventKind::RemoteMarks {
            req,
            edge,
            chunks,
            marks,
        } => {
            put_varint(&mut body, *req);
            put_varint(&mut body, u64::from(*edge));
            put_varint(&mut body, u64::from(*chunks));
            put_varint(&mut body, u64::from(*marks));
            KIND_REMOTE_MARKS
        }
        EventKind::Scale {
            func,
            node,
            out: scale_out,
            from_replicas,
            to_replicas,
        } => {
            put_varint(&mut body, u64::from(*func));
            put_varint(&mut body, u64::from(*node));
            put_varint(&mut body, u64::from(*scale_out));
            put_varint(&mut body, u64::from(*from_replicas));
            put_varint(&mut body, u64::from(*to_replicas));
            KIND_SCALE
        }
        EventKind::FaultFate { src, dst, fate } => {
            put_varint(&mut body, u64::from(*src));
            put_varint(&mut body, u64::from(*dst));
            put_varint(&mut body, fate_code(*fate));
            KIND_FAULT_FATE
        }
        EventKind::Crash { node } => {
            put_varint(&mut body, u64::from(*node));
            KIND_CRASH
        }
        EventKind::Restart { node } => {
            put_varint(&mut body, u64::from(*node));
            KIND_RESTART
        }
        EventKind::Relocate { dead_node, moved } => {
            put_varint(&mut body, u64::from(*dead_node));
            put_varint(&mut body, u64::from(*moved));
            KIND_RELOCATE
        }
        EventKind::Migrate { func, to_node } => {
            put_varint(&mut body, u64::from(*func));
            put_varint(&mut body, u64::from(*to_node));
            KIND_MIGRATE
        }
    };
    out.push(kind);
    put_varint(out, body.len() as u64);
    out.extend_from_slice(&body);
}

/// Encodes a full trace: header plus every event back-to-back.
pub fn encode_trace(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + events.len() * 16);
    out.extend_from_slice(&MAGIC);
    out.push(TRACE_VERSION);
    for ev in events {
        encode_event(ev, &mut out);
    }
    out
}

fn decode_body(kind: u8, body: &[u8]) -> Result<TraceEvent, TraceError> {
    let mut r = BodyReader { body, pos: 0 };
    let at_us = r.varint()?;
    let ev = match kind {
        KIND_META => EventKind::Meta {
            nodes: r.u32()?,
            direct_threshold_bytes: r.varint()?,
            chunk_bytes: r.varint()?,
            checkpoint_interval_bytes: r.varint()?,
            workflow_json: r.string()?,
        },
        KIND_PLACE => EventKind::Place {
            func: r.u32()?,
            node: r.u32()?,
        },
        KIND_REQUEST => EventKind::Request {
            req: r.varint()?,
            payload_bytes: r.varint()?,
        },
        KIND_INVOKE => EventKind::Invoke {
            req: r.varint()?,
            func: r.u32()?,
        },
        KIND_PIPE_CHOICE => EventKind::PipeChoice {
            req: r.varint()?,
            edge: r.u32()?,
            kind: match r.varint()? {
                0 => PipeKind::DirectSocket,
                1 => PipeKind::LocalPipe,
                2 => PipeKind::RemotePipe,
                _ => return Err(TraceError::Truncated),
            },
            bytes: r.varint()?,
        },
        KIND_REMOTE_MARKS => EventKind::RemoteMarks {
            req: r.varint()?,
            edge: r.u32()?,
            chunks: r.u32()?,
            marks: r.u32()?,
        },
        KIND_SCALE => EventKind::Scale {
            func: r.u32()?,
            node: r.u32()?,
            out: r.varint()? != 0,
            from_replicas: r.u32()?,
            to_replicas: r.u32()?,
        },
        KIND_FAULT_FATE => EventKind::FaultFate {
            src: r.u32()?,
            dst: r.u32()?,
            fate: match r.varint()? {
                0 => FateKind::Drop,
                1 => FateKind::Duplicate,
                2 => FateKind::Delay,
                _ => return Err(TraceError::Truncated),
            },
        },
        KIND_CRASH => EventKind::Crash { node: r.u32()? },
        KIND_RESTART => EventKind::Restart { node: r.u32()? },
        KIND_RELOCATE => EventKind::Relocate {
            dead_node: r.u32()?,
            moved: r.u32()?,
        },
        KIND_MIGRATE => EventKind::Migrate {
            func: r.u32()?,
            to_node: r.u32()?,
        },
        other => return Err(TraceError::BadKind(other)),
    };
    r.finish()?;
    Ok(TraceEvent { at_us, kind: ev })
}

/// Incremental trace decoder: feed it whatever a file read or socket
/// produced — any split, down to one byte at a time — and drain complete
/// events with [`TraceDecoder::next_event`].
#[derive(Default)]
pub struct TraceDecoder {
    buf: Vec<u8>,
    pos: usize,
    header_done: bool,
}

impl TraceDecoder {
    /// An empty decoder.
    pub fn new() -> TraceDecoder {
        TraceDecoder::default()
    }

    /// Appends raw stream bytes to the decode buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix before growing, so decoding a long
        // trace keeps the buffer bounded by one event plus a read.
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decodes the next complete event, `Ok(None)` while the buffered
    /// bytes still end mid-header, mid-length or mid-body. An `Err` is
    /// fatal: the stream is corrupt.
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceError> {
        if !self.header_done {
            let avail = &self.buf[self.pos..];
            if avail.len() < HEADER_LEN {
                return Ok(None);
            }
            let magic: [u8; 4] = avail[..4].try_into().expect("length checked");
            if magic != MAGIC {
                return Err(TraceError::BadMagic(magic));
            }
            if avail[4] != TRACE_VERSION {
                return Err(TraceError::BadVersion(avail[4]));
            }
            self.pos += HEADER_LEN;
            self.header_done = true;
        }
        let avail = &self.buf[self.pos..];
        if avail.is_empty() {
            return Ok(None);
        }
        let kind = avail[0];
        if kind > KIND_MIGRATE {
            return Err(TraceError::BadKind(kind));
        }
        let Some((body_len, len_len)) = peek_varint(&avail[1..])? else {
            return Ok(None);
        };
        if body_len as usize > MAX_EVENT_BODY {
            return Err(TraceError::Oversize(body_len));
        }
        let total = 1 + len_len + body_len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let ev = decode_body(kind, &avail[1 + len_len..total])?;
        self.pos += total;
        Ok(Some(ev))
    }
}

impl fmt::Debug for TraceDecoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceDecoder")
            .field("buffered", &(self.buf.len() - self.pos))
            .field("header_done", &self.header_done)
            .finish()
    }
}

/// Decodes a complete in-memory trace.
///
/// # Errors
///
/// Any [`TraceError`] of the incremental decoder, plus
/// [`TraceError::Truncated`] if the buffer ends mid-event.
pub fn decode_trace(bytes: &[u8]) -> Result<Vec<TraceEvent>, TraceError> {
    let mut dec = TraceDecoder::new();
    dec.feed(bytes);
    let mut out = Vec::new();
    while let Some(ev) = dec.next_event()? {
        out.push(ev);
    }
    if dec.pos != dec.buf.len() || !dec.header_done {
        return Err(TraceError::Truncated);
    }
    Ok(out)
}

/// Mean encoded bytes per event, excluding the `Meta` preamble (which
/// amortizes to zero over any real run but would otherwise dominate a
/// short trace with its embedded workflow JSON). `0.0` for a trace with
/// no non-`Meta` events.
pub fn bytes_per_event(events: &[TraceEvent]) -> f64 {
    let mut total = 0usize;
    let mut count = 0usize;
    let mut buf = Vec::new();
    for ev in events {
        if matches!(ev.kind, EventKind::Meta { .. }) {
            continue;
        }
        buf.clear();
        encode_event(ev, &mut buf);
        total += buf.len();
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

// ---- recorder -----------------------------------------------------------

/// Thread-safe event sink the live runtime records into when tracing is
/// enabled ([`ClusterRuntimeBuilder::record_trace`]).
///
/// [`ClusterRuntimeBuilder::record_trace`]: crate::ClusterRuntimeBuilder::record_trace
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// Appends one event.
    pub fn record(&self, at_us: u64, kind: EventKind) {
        self.events
            .lock()
            .expect("trace recorder lock poisoned")
            .push(TraceEvent { at_us, kind });
    }

    /// A snapshot of everything recorded so far, in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .expect("trace recorder lock poisoned")
            .clone()
    }

    /// The recorded trace in its on-disk encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_trace(&self.events())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .expect("trace recorder lock poisoned")
            .len()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---- replay -------------------------------------------------------------

/// Pins each function to the node its live trace recorded, so the
/// simulated engine reproduces the live run's colocation decisions.
struct ReplayPlacement {
    by_func: Vec<Option<u32>>,
    nodes: usize,
}

impl SimPlacement for ReplayPlacement {
    fn node_for(&mut self, _world: &World, _wf: WfId, func: FnId) -> NodeId {
        let fallback = (func.index() % self.nodes.max(1)) as u32;
        let n = self
            .by_func
            .get(func.index())
            .copied()
            .flatten()
            .unwrap_or(fallback);
        NodeId::from_index(n as usize)
    }
}

/// Replays a recorded trace through the simulated
/// [`DataFlowerEngine`] and returns the simulator's view of the same
/// deterministic decisions (`Invoke`, `PipeChoice`, `RemoteMarks`
/// events, timestamped in simulated micros).
///
/// The trace is self-contained: the leading [`EventKind::Meta`] supplies
/// the topology, the pipe thresholds and the workflow spec; `Place`
/// events pin the simulated placement to the live one; `Request` events
/// re-submit the recorded load. Feed the result to [`diff`] against the
/// recorded events.
///
/// # Errors
///
/// [`TraceError::MissingMeta`] if the first event is not `Meta`,
/// [`TraceError::BadWorkflow`] if the embedded spec fails to parse or
/// compile, [`TraceError::Malformed`] for unusable structure (request
/// ids with gaps, zero nodes).
pub fn replay(events: &[TraceEvent]) -> Result<Vec<TraceEvent>, TraceError> {
    let Some(TraceEvent {
        kind:
            EventKind::Meta {
                nodes,
                direct_threshold_bytes,
                chunk_bytes,
                checkpoint_interval_bytes,
                workflow_json,
            },
        ..
    }) = events.first()
    else {
        return Err(TraceError::MissingMeta);
    };
    if *nodes == 0 {
        return Err(TraceError::Malformed("zero worker nodes"));
    }
    if *chunk_bytes == 0 || *checkpoint_interval_bytes == 0 {
        return Err(TraceError::Malformed("zero chunk or checkpoint interval"));
    }
    let spec = WorkflowSpec::from_json(workflow_json)
        .map_err(|e| TraceError::BadWorkflow(e.to_string()))?;
    let wf = spec
        .compile()
        .map_err(|e| TraceError::BadWorkflow(e.to_string()))?;

    let mut by_func: Vec<Option<u32>> = vec![None; wf.function_count()];
    let mut requests: Vec<(u64, u64)> = Vec::new();
    for ev in events {
        match &ev.kind {
            EventKind::Place { func, node } => {
                if let Some(slot) = by_func.get_mut(*func as usize) {
                    *slot = Some(*node);
                }
            }
            EventKind::Request { req, payload_bytes } => requests.push((*req, *payload_bytes)),
            _ => {}
        }
    }
    requests.sort_unstable_by_key(|(req, _)| *req);
    if requests
        .iter()
        .enumerate()
        .any(|(i, (req, _))| *req != i as u64)
    {
        return Err(TraceError::Malformed("request ids are not 0..n"));
    }

    let cluster_cfg = TestbedConfig {
        workers: vec![NodeSpec::default(); *nodes as usize],
        direct_threshold_bytes: *direct_threshold_bytes as f64,
        seed: 0,
        ..TestbedConfig::default()
    };
    let engine_cfg = DataFlowerConfig {
        checkpoint: CheckpointSchedule::new(*checkpoint_interval_bytes as f64),
        record_decisions: true,
        ..DataFlowerConfig::default()
    };
    let mut world = World::new(cluster_cfg);
    let wf_id = world.add_workflow(Arc::new(wf));
    for (_, payload_bytes) in &requests {
        world.submit_request(wf_id, *payload_bytes as f64, SimTime::ZERO);
    }
    let placement = ReplayPlacement {
        by_func,
        nodes: *nodes as usize,
    };
    let mut engine = DataFlowerEngine::new(engine_cfg, placement);
    run_to_idle(&mut world, &mut engine);

    let cp = CheckpointSchedule::new(*checkpoint_interval_bytes as f64);
    let mut out = Vec::with_capacity(engine.decision_timeline().len());
    for (at, decision) in engine.decision_timeline().entries() {
        let at_us = at.as_micros();
        match *decision {
            DecisionEvent::Invoke { req, func } => out.push(TraceEvent {
                at_us,
                kind: EventKind::Invoke {
                    req: req.index() as u64,
                    func: func.index() as u32,
                },
            }),
            DecisionEvent::PipeChoice {
                req,
                edge,
                kind,
                bytes,
            } => {
                out.push(TraceEvent {
                    at_us,
                    kind: EventKind::PipeChoice {
                        req: req.index() as u64,
                        edge: edge.index() as u32,
                        kind,
                        bytes: bytes as u64,
                    },
                });
                if kind == PipeKind::RemotePipe && bytes > 0.0 {
                    // Mirror the live runtime's chunk loop: spans of
                    // `chunk_bytes`, each counting the §6.2 marks it
                    // crosses.
                    let len = bytes as usize;
                    let spans = chunk_spans(len, *chunk_bytes as usize);
                    let chunks = spans.len() as u32;
                    let marks: u64 = spans
                        .iter()
                        .map(|&(lo, hi)| cp.marks_crossed(lo as f64, hi as f64))
                        .sum();
                    out.push(TraceEvent {
                        at_us,
                        kind: EventKind::RemoteMarks {
                            req: req.index() as u64,
                            edge: edge.index() as u32,
                            chunks,
                            marks: marks as u32,
                        },
                    });
                }
            }
        }
    }
    Ok(out)
}

// ---- diff ---------------------------------------------------------------

/// The first point where two timelines disagree: the canonical event
/// index, the event kind at that index, and both sides' views (`None`
/// when one side ran out of events).
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index into the canonically ordered comparable-event sequence.
    pub index: usize,
    /// Kind name of the event at the divergence point.
    pub kind: &'static str,
    /// The live side's event at that index, if any.
    pub live: Option<TraceEvent>,
    /// The simulated side's event at that index, if any.
    pub sim: Option<TraceEvent>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "divergence at event {} ({}): live={:?} sim={:?}",
            self.index,
            self.kind,
            self.live.as_ref().map(|e| &e.kind),
            self.sim.as_ref().map(|e| &e.kind),
        )
    }
}

/// Kind name of an event (what [`Divergence::kind`] reports).
pub fn kind_name(ev: &TraceEvent) -> &'static str {
    match ev.kind {
        EventKind::Meta { .. } => "Meta",
        EventKind::Place { .. } => "Place",
        EventKind::Request { .. } => "Request",
        EventKind::Invoke { .. } => "Invoke",
        EventKind::PipeChoice { .. } => "PipeChoice",
        EventKind::RemoteMarks { .. } => "RemoteMarks",
        EventKind::Scale { .. } => "Scale",
        EventKind::FaultFate { .. } => "FaultFate",
        EventKind::Crash { .. } => "Crash",
        EventKind::Restart { .. } => "Restart",
        EventKind::Relocate { .. } => "Relocate",
        EventKind::Migrate { .. } => "Migrate",
    }
}

/// Canonical sort key of a comparable event: `(req, kind rank, detail)`.
/// `None` for events outside the comparison set.
fn canonical_key(ev: &TraceEvent) -> Option<(u64, u8, u64)> {
    match ev.kind {
        EventKind::Invoke { req, func } => Some((req, 0, u64::from(func))),
        EventKind::PipeChoice { req, edge, .. } => Some((req, 1, u64::from(edge))),
        EventKind::RemoteMarks { req, edge, .. } => Some((req, 2, u64::from(edge))),
        _ => None,
    }
}

/// The comparable subset of a timeline in canonical order. Timestamps
/// and wall-clock interleavings differ freely between a threaded live
/// run and the simulator, so alignment sorts the deterministic events by
/// `(request, kind, edge-or-function)` instead of by time.
pub fn canonicalize(events: &[TraceEvent]) -> Vec<TraceEvent> {
    let mut out: Vec<(TraceEvent, (u64, u8, u64))> = events
        .iter()
        .filter_map(|ev| canonical_key(ev).map(|k| (ev.clone(), k)))
        .collect();
    out.sort_by_key(|(_, k)| *k);
    out.into_iter().map(|(ev, _)| ev).collect()
}

/// Aligns the comparable events of a live recording and a simulated
/// replay and returns the first divergence, or `None` when the timelines
/// agree event for event. Timestamps are ignored; everything else of
/// each event must match exactly.
pub fn diff(live: &[TraceEvent], sim: &[TraceEvent]) -> Option<Divergence> {
    let l = canonicalize(live);
    let s = canonicalize(sim);
    let n = l.len().max(s.len());
    for i in 0..n {
        let (a, b) = (l.get(i), s.get(i));
        if let (Some(a), Some(b)) = (a, b) {
            if a.kind == b.kind {
                continue;
            }
        }
        let named = a.or(b).expect("at least one side has an event here");
        return Some(Divergence {
            index: i,
            kind: kind_name(named),
            live: a.cloned(),
            sim: b.cloned(),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflower_workflow::{SizeModel, WorkModel, WorkflowBuilder};

    /// A deterministic xorshift for the torn-read property tests (the
    /// workspace is std-only; this mirrors the harness idiom).
    struct TestRng(u64);

    impl TestRng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        let mut b = WorkflowBuilder::new("t");
        let f = b.function("f", WorkModel::fixed(0.01));
        let g = b.function("g", WorkModel::fixed(0.01));
        b.client_input(f, "in", SizeModel::Fixed(1024.0));
        b.edge(f, g, "mid", SizeModel::Fixed(65536.0));
        b.client_output(g, "out", SizeModel::Fixed(64.0));
        let wf = b.build().unwrap();
        let json = WorkflowSpec::from_workflow(&wf).to_json();
        vec![
            TraceEvent {
                at_us: 0,
                kind: EventKind::Meta {
                    nodes: 2,
                    direct_threshold_bytes: 16384,
                    chunk_bytes: 65536,
                    checkpoint_interval_bytes: 262144,
                    workflow_json: json,
                },
            },
            TraceEvent {
                at_us: 0,
                kind: EventKind::Place { func: 0, node: 0 },
            },
            TraceEvent {
                at_us: 0,
                kind: EventKind::Place { func: 1, node: 1 },
            },
            TraceEvent {
                at_us: 3,
                kind: EventKind::Request {
                    req: 0,
                    payload_bytes: 1024,
                },
            },
            TraceEvent {
                at_us: 10,
                kind: EventKind::Invoke { req: 0, func: 0 },
            },
            TraceEvent {
                at_us: 25,
                kind: EventKind::PipeChoice {
                    req: 0,
                    edge: 1,
                    kind: PipeKind::RemotePipe,
                    bytes: 65536,
                },
            },
            TraceEvent {
                at_us: 26,
                kind: EventKind::RemoteMarks {
                    req: 0,
                    edge: 1,
                    chunks: 1,
                    marks: 0,
                },
            },
            TraceEvent {
                at_us: 40,
                kind: EventKind::Invoke { req: 0, func: 1 },
            },
            TraceEvent {
                at_us: 55,
                kind: EventKind::Scale {
                    func: 1,
                    node: 1,
                    out: true,
                    from_replicas: 1,
                    to_replicas: 2,
                },
            },
            TraceEvent {
                at_us: 60,
                kind: EventKind::FaultFate {
                    src: 0,
                    dst: 1,
                    fate: FateKind::Delay,
                },
            },
            TraceEvent {
                at_us: 70,
                kind: EventKind::Crash { node: 1 },
            },
            TraceEvent {
                at_us: 80,
                kind: EventKind::Restart { node: 1 },
            },
            TraceEvent {
                at_us: 90,
                kind: EventKind::Relocate {
                    dead_node: 1,
                    moved: 1,
                },
            },
            TraceEvent {
                at_us: 95,
                kind: EventKind::Migrate {
                    func: 1,
                    to_node: 0,
                },
            },
        ]
    }

    #[test]
    fn every_kind_roundtrips_contiguously() {
        let events = sample_events();
        let bytes = encode_trace(&events);
        assert_eq!(decode_trace(&bytes).unwrap(), events);
    }

    #[test]
    fn torn_reads_roundtrip_under_random_splits() {
        // Satellite: round-trip property under random 1–16-byte reads.
        let events = sample_events();
        let bytes = encode_trace(&events);
        let mut rng = TestRng(0x5EED_1234_ABCD_0001);
        for case in 0..64u64 {
            rng.0 ^= case.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut dec = TraceDecoder::new();
            let mut out = Vec::new();
            let mut pos = 0usize;
            while pos < bytes.len() {
                let take = (1 + rng.below(16) as usize).min(bytes.len() - pos);
                dec.feed(&bytes[pos..pos + take]);
                pos += take;
                while let Some(ev) = dec.next_event().unwrap() {
                    out.push(ev);
                }
            }
            assert_eq!(out, events, "split seed case {case}");
        }
    }

    #[test]
    fn corrupt_traces_are_rejected_with_named_errors() {
        let events = sample_events();
        let good = encode_trace(&events);

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_trace(&bad_magic),
            Err(TraceError::BadMagic(_))
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert_eq!(decode_trace(&bad_version), Err(TraceError::BadVersion(9)));

        let mut bad_kind = good.clone();
        bad_kind[HEADER_LEN] = 99;
        assert_eq!(decode_trace(&bad_kind), Err(TraceError::BadKind(99)));

        let mut truncated = good.clone();
        truncated.truncate(good.len() - 1);
        assert_eq!(decode_trace(&truncated), Err(TraceError::Truncated));

        let mut oversize = good.clone();
        // Rewrite the first event's length prefix to a 5-byte varint far
        // past the cap; the decoder must reject before buffering a body.
        let huge = (MAX_EVENT_BODY as u64 + 1) << 7;
        let mut prefix = Vec::new();
        put_varint(&mut prefix, huge);
        oversize.splice(HEADER_LEN + 1..HEADER_LEN + 2, prefix);
        assert!(matches!(
            decode_trace(&oversize),
            Err(TraceError::Oversize(_))
        ));
    }

    #[test]
    fn replay_requires_a_leading_meta() {
        let events = sample_events();
        assert_eq!(replay(&events[1..]), Err(TraceError::MissingMeta));
        assert_eq!(replay(&[]), Err(TraceError::MissingMeta));
    }

    #[test]
    fn replay_rejects_a_bad_workflow() {
        let mut events = sample_events();
        if let EventKind::Meta { workflow_json, .. } = &mut events[0].kind {
            *workflow_json = "{ not json".into();
        }
        assert!(matches!(replay(&events), Err(TraceError::BadWorkflow(_))));
    }

    #[test]
    fn replay_matches_a_faithful_recording() {
        // `sample_events` was written to be exactly what the simulator
        // derives: f on node 0, g on node 1, one 64 KiB remote transfer.
        let events = sample_events();
        let sim = replay(&events).unwrap();
        assert_eq!(diff(&events, &sim), None);
    }

    #[test]
    fn replay_is_deterministic() {
        // Satellite: the same trace replayed twice yields identical
        // timelines, timestamps included.
        let events = sample_events();
        let a = replay(&events).unwrap();
        let b = replay(&events).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn injected_divergence_names_index_and_kind() {
        // Satellite: flip one pipe choice in a copied trace and assert
        // the differ points at exactly that event.
        let events = sample_events();
        let sim = replay(&events).unwrap();
        assert_eq!(diff(&events, &sim), None, "baseline must agree");

        let mut tampered = events.clone();
        let flipped = tampered
            .iter_mut()
            .find_map(|ev| match &mut ev.kind {
                EventKind::PipeChoice { kind, .. } => {
                    *kind = PipeKind::DirectSocket;
                    Some(())
                }
                _ => None,
            })
            .is_some();
        assert!(flipped, "sample trace carries a pipe choice");
        let d = diff(&tampered, &sim).expect("tampered trace must diverge");
        assert_eq!(d.kind, "PipeChoice");
        // Canonical order: req 0 → Invoke f, Invoke g, then the pipe
        // choice of edge 1, then its marks.
        assert_eq!(d.index, 2);
        assert!(matches!(
            d.live.as_ref().map(|e| &e.kind),
            Some(EventKind::PipeChoice {
                kind: PipeKind::DirectSocket,
                ..
            })
        ));
        assert!(matches!(
            d.sim.as_ref().map(|e| &e.kind),
            Some(EventKind::PipeChoice {
                kind: PipeKind::RemotePipe,
                ..
            })
        ));
    }

    #[test]
    fn diff_reports_a_missing_tail() {
        let events = sample_events();
        let sim = replay(&events).unwrap();
        let shorter: Vec<TraceEvent> = canonicalize(&events).into_iter().take(2).collect();
        let d = diff(&shorter, &sim).expect("shorter live side must diverge");
        assert_eq!(d.index, 2);
        assert!(d.live.is_none());
        assert!(d.sim.is_some());
    }

    #[test]
    fn recorder_snapshots_and_encodes() {
        let rec = TraceRecorder::new();
        assert!(rec.is_empty());
        rec.record(5, EventKind::Crash { node: 1 });
        rec.record(9, EventKind::Restart { node: 1 });
        assert_eq!(rec.len(), 2);
        let decoded = decode_trace(&rec.to_bytes()).unwrap();
        assert_eq!(decoded, rec.events());
    }

    #[test]
    fn bytes_per_event_excludes_meta_and_stays_compact() {
        let events = sample_events();
        let bpe = bytes_per_event(&events);
        assert!(bpe > 0.0);
        assert!(bpe < 16.0, "events must stay compact, got {bpe}");
    }

    #[test]
    fn live_run_replays_with_zero_divergence() {
        // The full loop: a real two-node ClusterRuntime run records a
        // trace, the simulator replays it, and the differ finds nothing.
        // The workflow is compiled from its spec so live and replay
        // agree on edge indices, and every body emits exactly its
        // declared Fixed size (what the simulator derives sizes from).
        use crate::{Bytes, ClusterRuntimeBuilder, Placement};

        let mut b = WorkflowBuilder::new("e2e");
        let f = b.function("f", WorkModel::fixed(0.001));
        let g = b.function("g", WorkModel::fixed(0.001));
        b.client_input(f, "in", SizeModel::Fixed(1024.0));
        b.edge(f, g, "mid", SizeModel::Fixed(65536.0));
        b.client_output(g, "out", SizeModel::Fixed(64.0));
        let wf = WorkflowSpec::from_workflow(&b.build().unwrap())
            .compile()
            .unwrap();

        let rt = ClusterRuntimeBuilder::new(Arc::new(wf))
            .placement(Placement::with_nodes(2).assign("f", 0).assign("g", 1))
            .register("f", |ctx| {
                ctx.put("mid", Bytes::from(vec![7u8; 65536]));
            })
            .register("g", |ctx| {
                ctx.put("out", Bytes::from(vec![9u8; 64]));
            })
            .record_trace(true)
            .start()
            .unwrap();
        for _ in 0..3 {
            let req = rt.invoke(vec![("in".into(), Bytes::from(vec![1u8; 1024]))]);
            rt.wait(req, std::time::Duration::from_secs(10)).unwrap();
        }
        // Post-teardown read: the complete trace, not a live snapshot.
        let bytes = rt.shutdown_into_trace().expect("tracing was enabled");
        let live = decode_trace(&bytes).unwrap();
        assert_eq!(encode_trace(&live), bytes, "codec round-trip");
        let sim = replay(&live).unwrap();
        assert_eq!(diff(&live, &sim), None, "live and sim must agree");
        // 3 requests × (2 invokes + 1 pipe choice + 1 remote-marks).
        assert_eq!(canonicalize(&live).len(), 12);
        assert!(bytes_per_event(&live) > 0.0);
    }

    #[test]
    fn varints_cover_the_u64_range() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            out.clear();
            put_varint(&mut out, v);
            let (back, n) = peek_varint(&out).unwrap().unwrap();
            assert_eq!((back, n), (v, out.len()));
        }
    }
}
