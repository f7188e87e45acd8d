//! The versioned binary frame format of the TCP fabric — how a
//! [`NetMsg`](crate::fabric) crosses a real socket in
//! worker-process mode.
//!
//! # Wire format
//!
//! Every frame is an 8-byte header followed by a `body_len`-byte body:
//!
//! ```text
//! offset  size  field
//! 0       1     magic     0xDF
//! 1       1     version   currently 2
//! 2       1     kind      1 Hello · 2 Whole · 3 Chunk · 4 AckMark · 5 AckComplete · 6 Release
//! 3       1     flags     0 (reserved)
//! 4       4     body_len  u32, little-endian, at most 64 MiB
//! ```
//!
//! All multi-byte integers are little-endian. Bodies:
//!
//! * **Hello** — `node: u32`, `epoch: u32`. The first frame on every
//!   connection; identifies the sending endpoint and its process epoch.
//! * **Whole** — `req: u64`, `edge: u32`, `transfer: u64`,
//!   `key_len: u16`, `key` bytes, then the payload to the end of the
//!   body.
//! * **Chunk** — `req: u64`, `edge: u32`, `transfer: u64`,
//!   `offset: u64`, `total: u64`, `key_len: u16`, `key` bytes, then the
//!   chunk bytes to the end of the body.
//! * **AckMark** — `transfer: u64`, `mark: u64`.
//! * **AckComplete** — `transfer: u64`.
//! * **Release** — `req: u64`. Client → worker: the request was collected
//!   or abandoned, drop everything still tracked for it (version 2).
//!
//! Framing rules: frames are self-delimiting (fixed header carries the
//! body length), carry no padding, and must appear back-to-back on the
//! stream. A receiver that sees a wrong magic, an unknown version or
//! kind, or an oversized body must drop the connection — there is no
//! resynchronization, the sender's retention/replay protocol (§6.2)
//! heals a torn connection instead.
//!
//! Encoding is zero-copy on the send side: [`encode_parts`] returns the
//! header and fixed fields as one small buffer plus the payload as a
//! refcounted [`Bytes`] view, so a chunk of a streamed transfer is never
//! memcpy'd into a contiguous frame (the link agents encode the same
//! layout straight from the fabric message into their staging buffer,
//! with no per-frame allocation). [`Decoder`] is incremental and
//! handles arbitrarily torn reads (a frame split mid-header or mid-body
//! across `feed` calls decodes identically).
//!
//! # Examples
//!
//! ```
//! use dataflower_rt::wire::{encode_into, Decoder, Frame};
//! use dataflower_rt::Bytes;
//!
//! let frame = Frame::Whole {
//!     req: 7,
//!     edge: 3,
//!     key: "shard@split".into(),
//!     transfer: 42,
//!     payload: Bytes::from(vec![1, 2, 3]),
//! };
//! let mut stream = Vec::new();
//! encode_into(&frame, &mut stream);
//!
//! // Feed the encoded bytes one at a time: torn headers and short
//! // reads must not confuse the decoder.
//! let mut dec = Decoder::new();
//! let mut out = Vec::new();
//! for b in &stream {
//!     dec.feed(std::slice::from_ref(b));
//!     while let Some(f) = dec.next_frame().unwrap() {
//!         out.push(f);
//!     }
//! }
//! assert_eq!(out, vec![frame]);
//! ```

use std::fmt;

use dataflower_workflow::EdgeId;

use crate::bytes::Bytes;
use crate::fabric::NetMsg;

/// First byte of every frame.
pub const MAGIC: u8 = 0xDF;
/// The wire-format version this build speaks.
pub const VERSION: u8 = 2;
/// Fixed frame header size in bytes.
pub const HEADER_LEN: usize = 8;
/// Largest admissible frame body. Far above any real frame (chunks are
/// tens of KiB); a body length past this means a corrupt or hostile
/// stream and the connection is dropped.
pub const MAX_BODY: usize = 64 * 1024 * 1024;

const KIND_HELLO: u8 = 1;
const KIND_WHOLE: u8 = 2;
const KIND_CHUNK: u8 = 3;
const KIND_ACK_MARK: u8 = 4;
const KIND_ACK_COMPLETE: u8 = 5;
const KIND_RELEASE: u8 = 6;

/// One decoded frame of the TCP fabric. The data-plane variants mirror
/// the in-process `NetMsg` protocol exactly (same transfer ids, same
/// retransmission-safe semantics); `Hello` exists only on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection preamble: who is talking and which incarnation.
    Hello {
        /// Sending endpoint index (worker node id, or the coordinator's
        /// endpoint index `node_count`).
        node: u32,
        /// Process epoch of the sender — bumped on every worker restart
        /// so transfer ids never collide across incarnations.
        epoch: u32,
    },
    /// An unchunked transfer (direct-socket pipe).
    Whole {
        /// Request id.
        req: u64,
        /// Workflow edge index.
        edge: u32,
        /// Sink key (`data@producer`).
        key: String,
        /// Transfer id for retention acks.
        transfer: u64,
        /// The payload.
        payload: Bytes,
    },
    /// One chunk of a streaming remote-pipe transfer.
    Chunk {
        /// Request id.
        req: u64,
        /// Workflow edge index.
        edge: u32,
        /// Sink key (`data@producer`).
        key: String,
        /// Transfer id.
        transfer: u64,
        /// Byte offset of this chunk in the transfer.
        offset: u64,
        /// Announced transfer size.
        total: u64,
        /// The chunk bytes.
        bytes: Bytes,
    },
    /// Ack of a durable checkpoint mark (destination → sender).
    AckMark {
        /// Acknowledged transfer.
        transfer: u64,
        /// Durable contiguous prefix.
        mark: u64,
    },
    /// Ack of full delivery (destination → sender).
    AckComplete {
        /// Acknowledged transfer.
        transfer: u64,
    },
    /// The client collected or abandoned a request (client → worker):
    /// the receiver drops everything it still tracks for it.
    Release {
        /// Released request.
        req: u64,
    },
}

/// Why a stream failed to decode. Any of these is fatal for the
/// connection that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// First header byte was not [`MAGIC`].
    BadMagic(u8),
    /// Unsupported wire-format version.
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// Body length exceeds [`MAX_BODY`].
    Oversize(u32),
    /// The body ended before the frame's fixed fields (or its key) did.
    Truncated,
    /// A key field was not valid UTF-8.
    BadKey,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(b) => write!(f, "bad frame magic 0x{b:02x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversize(n) => write!(f, "frame body of {n} bytes exceeds the cap"),
            WireError::Truncated => write!(f, "frame body truncated"),
            WireError::BadKey => write!(f, "frame key is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Starts a frame at the end of `out` — kind and body length still
/// unset — and returns where its header begins.
fn begin(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[MAGIC, VERSION, 0, 0, 0, 0, 0, 0]);
    at
}

/// Completes the header of the frame begun at `at`: its body is every
/// byte appended since, plus `payload` bytes that follow on the stream.
fn seal(out: &mut [u8], at: usize, kind: u8, payload: usize) {
    let body_len = out.len() - at - HEADER_LEN + payload;
    assert!(body_len <= MAX_BODY, "frame body exceeds the wire cap");
    out[at + 2] = kind;
    out[at + 4..at + 8].copy_from_slice(&(body_len as u32).to_le_bytes());
}

/// The fixed fields `Whole` and `Chunk` share; `span` is a chunk's
/// `(offset, total)`.
fn put_data(
    out: &mut Vec<u8>,
    req: u64,
    edge: u32,
    transfer: u64,
    span: Option<(u64, u64)>,
    key: &str,
) {
    put_u64(out, req);
    put_u32(out, edge);
    put_u64(out, transfer);
    if let Some((offset, total)) = span {
        put_u64(out, offset);
        put_u64(out, total);
    }
    assert!(key.len() <= u16::MAX as usize, "sink key too long");
    put_u16(out, key.len() as u16);
    out.extend_from_slice(key.as_bytes());
}

/// Appends the header and every fixed field of `frame` to `out` and
/// returns the payload (`Whole`/`Chunk`) that must follow them on the
/// stream; the header's body length already covers it.
fn put_head<'a>(frame: &'a Frame, out: &mut Vec<u8>) -> Option<&'a Bytes> {
    let at = begin(out);
    let (kind, payload) = match frame {
        Frame::Hello { node, epoch } => {
            put_u32(out, *node);
            put_u32(out, *epoch);
            (KIND_HELLO, None)
        }
        Frame::Whole {
            req,
            edge,
            key,
            transfer,
            payload,
        } => {
            put_data(out, *req, *edge, *transfer, None, key);
            (KIND_WHOLE, Some(payload))
        }
        Frame::Chunk {
            req,
            edge,
            key,
            transfer,
            offset,
            total,
            bytes,
        } => {
            put_data(out, *req, *edge, *transfer, Some((*offset, *total)), key);
            (KIND_CHUNK, Some(bytes))
        }
        Frame::AckMark { transfer, mark } => {
            put_u64(out, *transfer);
            put_u64(out, *mark);
            (KIND_ACK_MARK, None)
        }
        Frame::AckComplete { transfer } => {
            put_u64(out, *transfer);
            (KIND_ACK_COMPLETE, None)
        }
        Frame::Release { req } => {
            put_u64(out, *req);
            (KIND_RELEASE, None)
        }
    };
    seal(out, at, kind, payload.map_or(0, Bytes::len));
    payload
}

/// Encodes `frame` into its send-side parts: one small buffer holding
/// the header plus every fixed field, and — for `Whole`/`Chunk` — the
/// payload as a zero-copy [`Bytes`] view to be written right behind it.
/// Writing the two parts back-to-back produces exactly the stream
/// [`Decoder`] consumes; the payload bytes are never copied.
///
/// # Panics
///
/// Panics if a key exceeds `u16::MAX` bytes or the body would exceed
/// [`MAX_BODY`] — both impossible for frames the runtime produces.
pub fn encode_parts(frame: &Frame) -> (Vec<u8>, Option<Bytes>) {
    let mut head = Vec::with_capacity(HEADER_LEN + 48);
    let payload = put_head(frame, &mut head).cloned();
    (head, payload)
}

/// Encodes `frame` contiguously onto the end of `out` (header, fields,
/// payload) — the copying form of [`encode_parts`].
pub fn encode_into(frame: &Frame, out: &mut Vec<u8>) {
    if let Some(payload) = put_head(frame, out) {
        out.extend_from_slice(payload);
    }
}

/// The send path's encoder: appends the wire header and fixed fields of
/// the fabric message `msg` to `out` — byte for byte what [`encode_into`]
/// writes for the equivalent [`Frame`], without building one — and
/// returns the payload that must follow. A link agent copies a small
/// payload behind the fields (one staged write per burst) and writes a
/// large one straight from its [`Bytes`] view.
pub(crate) fn encode_msg<'a>(msg: &'a NetMsg, out: &mut Vec<u8>) -> Option<&'a Bytes> {
    let at = begin(out);
    let (kind, payload) = match msg {
        NetMsg::Whole {
            req,
            edge,
            key,
            transfer,
            payload,
        } => {
            put_data(out, *req, edge.index() as u32, *transfer, None, key);
            (KIND_WHOLE, Some(payload))
        }
        NetMsg::Chunk {
            req,
            edge,
            key,
            transfer,
            offset,
            total,
            bytes,
        } => {
            let span = Some((*offset as u64, *total as u64));
            put_data(out, *req, edge.index() as u32, *transfer, span, key);
            (KIND_CHUNK, Some(bytes))
        }
        NetMsg::AckMark { transfer, mark } => {
            put_u64(out, *transfer);
            put_u64(out, *mark as u64);
            (KIND_ACK_MARK, None)
        }
        NetMsg::AckComplete { transfer } => {
            put_u64(out, *transfer);
            (KIND_ACK_COMPLETE, None)
        }
        NetMsg::Release { req } => {
            put_u64(out, *req);
            (KIND_RELEASE, None)
        }
    };
    seal(out, at, kind, payload.map_or(0, Bytes::len));
    payload
}

/// Cursor over one frame body during decode.
struct BodyReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.body.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.body[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn key(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadKey)
    }

    fn rest(&mut self) -> Bytes {
        let s = &self.body[self.pos..];
        self.pos = self.body.len();
        Bytes::copy_from_slice(s)
    }
}

fn decode_body(kind: u8, body: &[u8]) -> Result<Frame, WireError> {
    let mut r = BodyReader { body, pos: 0 };
    let frame = match kind {
        KIND_HELLO => Frame::Hello {
            node: r.u32()?,
            epoch: r.u32()?,
        },
        KIND_WHOLE => Frame::Whole {
            req: r.u64()?,
            edge: r.u32()?,
            transfer: r.u64()?,
            key: r.key()?,
            payload: r.rest(),
        },
        KIND_CHUNK => {
            let req = r.u64()?;
            let edge = r.u32()?;
            let transfer = r.u64()?;
            let offset = r.u64()?;
            let total = r.u64()?;
            let key = r.key()?;
            Frame::Chunk {
                req,
                edge,
                key,
                transfer,
                offset,
                total,
                bytes: r.rest(),
            }
        }
        KIND_ACK_MARK => Frame::AckMark {
            transfer: r.u64()?,
            mark: r.u64()?,
        },
        KIND_ACK_COMPLETE => Frame::AckComplete { transfer: r.u64()? },
        KIND_RELEASE => Frame::Release { req: r.u64()? },
        other => return Err(WireError::BadKind(other)),
    };
    Ok(frame)
}

/// Incremental frame decoder: feed it whatever the socket produced —
/// any split, down to one byte at a time — and drain complete frames
/// with [`Decoder::next_frame`]. A `Whole`/`Chunk` frame reordered or torn
/// across reads decodes byte-identically to a single contiguous read.
#[derive(Default)]
pub struct Decoder {
    buf: Vec<u8>,
    pos: usize,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Appends raw stream bytes to the decode buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, so a long-lived
        // connection's buffer stays bounded by one frame plus a read.
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decodes the next complete frame, `Ok(None)` while the buffered
    /// bytes still end mid-header or mid-body. An `Err` is fatal: the
    /// stream is corrupt and the connection must be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        Ok(self.next_raw()?.map(|(frame, _)| frame))
    }

    /// [`Decoder::next_frame`], plus the raw wire bytes the frame was
    /// decoded from (header included) — what the checkpoint log records,
    /// so a logged frame is never re-encoded.
    pub(crate) fn next_raw(&mut self) -> Result<Option<(Frame, &[u8])>, WireError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        if avail[0] != MAGIC {
            return Err(WireError::BadMagic(avail[0]));
        }
        if avail[1] != VERSION {
            return Err(WireError::BadVersion(avail[1]));
        }
        let body_len = u32::from_le_bytes(avail[4..8].try_into().unwrap());
        if body_len as usize > MAX_BODY {
            return Err(WireError::Oversize(body_len));
        }
        let frame_len = HEADER_LEN + body_len as usize;
        if avail.len() < frame_len {
            return Ok(None);
        }
        let kind = avail[2];
        let frame = decode_body(kind, &avail[HEADER_LEN..frame_len])?;
        self.pos += frame_len;
        Ok(Some((frame, &self.buf[self.pos - frame_len..self.pos])))
    }
}

impl fmt::Debug for Decoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Decoder")
            .field("buffered", &(self.buf.len() - self.pos))
            .finish()
    }
}

/// The fabric message of one decoded wire frame; `None` for the
/// connection-level `Hello` preamble, which never enters the data plane.
pub(crate) fn net_of(frame: Frame) -> Option<NetMsg> {
    match frame {
        Frame::Hello { .. } => None,
        Frame::Whole {
            req,
            edge,
            key,
            transfer,
            payload,
        } => Some(NetMsg::Whole {
            req,
            edge: EdgeId::from_index(edge as usize),
            key,
            transfer,
            payload,
        }),
        Frame::Chunk {
            req,
            edge,
            key,
            transfer,
            offset,
            total,
            bytes,
        } => Some(NetMsg::Chunk {
            req,
            edge: EdgeId::from_index(edge as usize),
            key,
            transfer,
            offset: offset as usize,
            total: total as usize,
            bytes,
        }),
        Frame::AckMark { transfer, mark } => Some(NetMsg::AckMark {
            transfer,
            mark: mark as usize,
        }),
        Frame::AckComplete { transfer } => Some(NetMsg::AckComplete { transfer }),
        Frame::Release { req } => Some(NetMsg::Release { req }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { node: 2, epoch: 5 },
            Frame::Whole {
                req: 1,
                edge: 0,
                key: "out@f".into(),
                transfer: 10,
                payload: Bytes::from(vec![9u8; 33]),
            },
            Frame::Chunk {
                req: 1,
                edge: 4,
                key: "mid@g".into(),
                transfer: 11,
                offset: 4096,
                total: 65536,
                bytes: Bytes::from((0..255u8).collect::<Vec<_>>()),
            },
            Frame::AckMark {
                transfer: 11,
                mark: 8192,
            },
            Frame::AckComplete { transfer: 10 },
            Frame::Release { req: 1 },
            Frame::Whole {
                req: 2,
                edge: 1,
                key: String::new(),
                transfer: 12,
                payload: Bytes::from(Vec::new()), // empty payload
            },
        ]
    }

    #[test]
    fn every_kind_roundtrips_contiguously() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            encode_into(f, &mut stream);
        }
        let mut dec = Decoder::new();
        dec.feed(&stream);
        let mut out = Vec::new();
        while let Some(f) = dec.next_frame().unwrap() {
            out.push(f);
        }
        assert_eq!(out, frames);
        assert!(dec.next_frame().unwrap().is_none(), "stream fully consumed");
    }

    #[test]
    fn torn_reads_roundtrip_byte_identically() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            encode_into(f, &mut stream);
        }
        // Worst case: one byte per feed — every header and body is torn.
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        for b in &stream {
            dec.feed(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out, frames);
    }

    #[test]
    fn encode_parts_is_zero_copy_on_the_payload() {
        let payload = Bytes::from(vec![7u8; 128]);
        let frame = Frame::Whole {
            req: 0,
            edge: 0,
            key: "k".into(),
            transfer: 1,
            payload: payload.clone(),
        };
        let (head, body) = encode_parts(&frame);
        let body = body.expect("whole frames carry a payload part");
        // Same allocation: the encoder only cloned the refcounted view.
        assert!(std::ptr::eq(body.as_ref(), payload.as_ref()));
        // header + fields + payload re-assembles to the contiguous form.
        let mut contiguous = Vec::new();
        encode_into(&frame, &mut contiguous);
        let mut glued = head;
        glued.extend_from_slice(&body);
        assert_eq!(glued, contiguous);
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let mut good = Vec::new();
        encode_into(&Frame::AckComplete { transfer: 3 }, &mut good);

        let mut bad_magic = good.clone();
        bad_magic[0] = 0x00;
        let mut dec = Decoder::new();
        dec.feed(&bad_magic);
        assert_eq!(dec.next_frame(), Err(WireError::BadMagic(0x00)));

        let mut bad_version = good.clone();
        bad_version[1] = 9;
        let mut dec = Decoder::new();
        dec.feed(&bad_version);
        assert_eq!(dec.next_frame(), Err(WireError::BadVersion(9)));

        // Version 1 had no `Release`; a peer still speaking it is refused.
        let mut old_version = good.clone();
        old_version[1] = 1;
        let mut dec = Decoder::new();
        dec.feed(&old_version);
        assert_eq!(dec.next_frame(), Err(WireError::BadVersion(1)));

        // 6 (`Release`) is the last kind; 7 is the first unknown one.
        for kind in [7, 77] {
            let mut bad_kind = good.clone();
            bad_kind[2] = kind;
            let mut dec = Decoder::new();
            dec.feed(&bad_kind);
            assert_eq!(dec.next_frame(), Err(WireError::BadKind(kind)));
        }

        let mut oversize = good.clone();
        oversize[4..8].copy_from_slice(&(MAX_BODY as u32 + 1).to_le_bytes());
        let mut dec = Decoder::new();
        dec.feed(&oversize);
        assert!(matches!(dec.next_frame(), Err(WireError::Oversize(_))));

        // Body shorter than the frame's fixed fields.
        let mut truncated = good.clone();
        truncated[4..8].copy_from_slice(&4u32.to_le_bytes());
        truncated.truncate(HEADER_LEN + 4);
        let mut dec = Decoder::new();
        dec.feed(&truncated);
        assert_eq!(dec.next_frame(), Err(WireError::Truncated));
    }

    /// The send path encodes fabric messages directly; for every kind
    /// that must be byte for byte the encoding of the equivalent frame,
    /// and the decoder must hand back the raw span it consumed.
    #[test]
    fn fabric_messages_encode_like_their_frames() {
        let mut staged = Vec::new();
        let mut dec = Decoder::new();
        for frame in sample_frames() {
            let Some(msg) = net_of(frame.clone()) else {
                assert!(matches!(frame, Frame::Hello { .. }));
                continue;
            };
            let mut contiguous = Vec::new();
            encode_into(&frame, &mut contiguous);
            // Appended behind whatever the staging buffer already holds.
            let at = staged.len();
            if let Some(payload) = encode_msg(&msg, &mut staged) {
                staged.extend_from_slice(payload);
            }
            assert_eq!(staged[at..], contiguous[..], "{frame:?}");
            dec.feed(&contiguous);
            let (back, raw) = dec.next_raw().unwrap().expect("one whole frame");
            assert_eq!(raw, &contiguous[..]);
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn decoder_buffer_stays_bounded() {
        let mut frame_bytes = Vec::new();
        encode_into(&Frame::AckComplete { transfer: 1 }, &mut frame_bytes);
        let mut dec = Decoder::new();
        for _ in 0..10_000 {
            dec.feed(&frame_bytes);
            assert!(dec.next_frame().unwrap().is_some());
        }
        assert!(
            dec.buf.len() < 16 * 1024,
            "consumed prefix must be reclaimed, buffer is {} bytes",
            dec.buf.len()
        );
    }
}
