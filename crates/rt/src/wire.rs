//! [`Frame`], the fabric's one message type, and its versioned binary
//! encoding. Every link carries frames: the in-process shippers,
//! sender-side retention and replay, fault injection and, in
//! worker-process mode, a real TCP socket.
//!
//! # Wire format
//!
//! Every frame is an 8-byte header followed by a `body_len`-byte body:
//!
//! ```text
//! offset  size  field
//! 0       1     magic     0xDF
//! 1       1     version   currently 3
//! 2       1     kind      1 Hello · 2 Whole · 3 Chunk · 4 AckMark · 5 AckComplete · 6 Release
//! 3       1     flags     0 (reserved)
//! 4       4     body_len  u32, little-endian, at most 64 MiB (MAX_BODY)
//! ```
//!
//! All multi-byte integers are little-endian. Bodies:
//!
//! * **Hello** — `node: u32`, `epoch: u32`. The first frame on every
//!   connection; identifies the sending endpoint and its process epoch.
//! * **Whole** — `req: u64`, `edge: u32`, `transfer: u64`, then the
//!   payload to the end of the body.
//! * **Chunk** — `req: u64`, `edge: u32`, `transfer: u64`,
//!   `offset: u64`, `total: u64`, then the chunk bytes to the end of the
//!   body. A chunk is accepted only if `offset + len ≤ total ≤ 1 GiB`
//!   ([`MAX_TRANSFER`]).
//! * **AckMark** — `transfer: u64`, `mark: u64`.
//! * **AckComplete** — `transfer: u64`.
//! * **Release** — `req: u64`. Client → worker: the request was collected
//!   or abandoned, drop everything still tracked for it.
//!
//! Data frames carry no sink key: the `data@producer` name a payload
//! reaches its consumer under is a function of the edge, so the receiver
//! looks it up by `edge`.
//!
//! Framing rules: frames are self-delimiting (fixed header carries the
//! body length), carry no padding, and must appear back-to-back on the
//! stream. A receiver that sees a wrong magic, an unknown version or
//! kind, an oversized body or an out-of-range chunk must drop the
//! connection — there is no resynchronization, the sender's
//! retention/replay protocol (§6.2) heals a torn connection instead.
//!
//! Encoding is zero-copy on the send side: [`encode_parts`] returns the
//! header and fixed fields as one small buffer plus the payload as a
//! refcounted [`Bytes`] view, so a chunk of a streamed transfer is never
//! memcpy'd into a contiguous frame (the link agents encode the same
//! header straight into their staging buffer, with no per-frame
//! allocation). [`Decoder`] is incremental and handles arbitrarily torn
//! reads (a frame split mid-header or mid-body across `feed` calls
//! decodes identically).
//!
//! # Examples
//!
//! ```
//! use dataflower_rt::wire::{encode_into, Decoder, Frame};
//! use dataflower_rt::Bytes;
//! use dataflower_workflow::EdgeId;
//!
//! let frame = Frame::Whole {
//!     req: 7,
//!     edge: EdgeId::from_index(3),
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

/// First byte of every frame.
pub const MAGIC: u8 = 0xDF;
/// The wire-format version this build speaks.
pub const VERSION: u8 = 3;
/// Fixed frame header size in bytes.
pub const HEADER_LEN: usize = 8;
/// Largest admissible frame body. Far above any real frame (chunks are
/// tens of KiB); a body length past this means a corrupt or hostile
/// stream and the connection is dropped.
pub const MAX_BODY: usize = 64 * 1024 * 1024;
/// Largest transfer a `Chunk` may announce. The receiver allocates the
/// announced total for reassembly, so a chunk past this cap means a
/// corrupt or hostile stream and the connection is dropped.
pub const MAX_TRANSFER: usize = 1 << 30;

const KIND_HELLO: u8 = 1;
const KIND_WHOLE: u8 = 2;
const KIND_CHUNK: u8 = 3;
const KIND_ACK_MARK: u8 = 4;
const KIND_ACK_COMPLETE: u8 = 5;
const KIND_RELEASE: u8 = 6;

/// One message of the fabric. Cloning is O(1) in the byte count —
/// payloads are refcounted views — which is what lets fault injection
/// deliver a frame twice and retention replay re-send frames without
/// copying bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection preamble: who is talking and which incarnation. Only
    /// TCP links send it; the runtime's ingress ignores it.
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
        /// Workflow edge the payload travels on.
        edge: EdgeId,
        /// Transfer id, so the destination's delivery ack can release
        /// the sender's retention entry.
        transfer: u64,
        /// The payload.
        payload: Bytes,
    },
    /// One chunk of a streaming remote-pipe transfer.
    Chunk {
        /// Request id.
        req: u64,
        /// Workflow edge the transfer travels on.
        edge: EdgeId,
        /// Transfer id; distinguishes interleaved transfers on one edge.
        transfer: u64,
        /// Byte offset of this chunk in the transfer.
        offset: usize,
        /// Announced transfer size.
        total: usize,
        /// The chunk bytes: a zero-copy view into the sender's payload.
        bytes: Bytes,
    },
    /// Ack of a durable checkpoint mark (destination → sender). The
    /// in-process fabric applies acks as direct calls; only TCP links
    /// carry this frame.
    AckMark {
        /// Acknowledged transfer.
        transfer: u64,
        /// Durable contiguous prefix (a checkpoint-mark multiple).
        mark: usize,
    },
    /// Ack of full delivery, or of an orphaned transfer (destination →
    /// sender); releases the sender's retention entry. Like `AckMark`,
    /// only TCP links carry it.
    AckComplete {
        /// Acknowledged transfer.
        transfer: u64,
    },
    /// The client collected or abandoned a request (client → worker):
    /// the receiver drops everything it still tracks for it. Not a pipe
    /// transfer — never counted, retained, acked or subjected to fault
    /// injection.
    Release {
        /// Released request.
        req: u64,
    },
}

impl Frame {
    /// Payload bytes the frame carries (what link shaping charges).
    pub(crate) fn wire_bytes(&self) -> usize {
        match self {
            Frame::Whole { payload, .. } => payload.len(),
            Frame::Chunk { bytes, .. } => bytes.len(),
            _ => 0,
        }
    }

    /// True for the first frame of a transfer (what link latency charges).
    pub(crate) fn starts_transfer(&self) -> bool {
        match self {
            Frame::Whole { .. } => true,
            Frame::Chunk { offset, .. } => *offset == 0,
            _ => false,
        }
    }

    /// The workflow edge of a data frame; `None` for control frames.
    pub(crate) fn edge(&self) -> Option<EdgeId> {
        match self {
            Frame::Whole { edge, .. } | Frame::Chunk { edge, .. } => Some(*edge),
            _ => None,
        }
    }
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
    /// The body ended before the frame's fixed fields did.
    Truncated,
    /// A chunk that does not fit its transfer (`offset + len > total`)
    /// or announces a transfer past [`MAX_TRANSFER`].
    BadSpan {
        /// Announced chunk offset.
        offset: u64,
        /// Chunk length.
        len: u64,
        /// Announced transfer size.
        total: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(b) => write!(f, "bad frame magic 0x{b:02x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversize(n) => write!(f, "frame body of {n} bytes exceeds the cap"),
            WireError::Truncated => write!(f, "frame body truncated"),
            WireError::BadSpan { offset, len, total } => write!(
                f,
                "chunk of {len} bytes at offset {offset} does not fit a {total}-byte transfer \
                 (cap {MAX_TRANSFER})"
            ),
        }
    }
}

impl std::error::Error for WireError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The fixed fields `Whole` and `Chunk` share; `span` is a chunk's
/// `(offset, total)`.
fn put_data(
    out: &mut Vec<u8>,
    req: u64,
    edge: EdgeId,
    transfer: u64,
    span: Option<(usize, usize)>,
) {
    put_u64(out, req);
    put_u32(out, edge.index() as u32);
    put_u64(out, transfer);
    if let Some((offset, total)) = span {
        put_u64(out, offset as u64);
        put_u64(out, total as u64);
    }
}

/// Appends the header and every fixed field of `frame` to `out` and
/// returns the payload (`Whole`/`Chunk`) that must follow them on the
/// stream; the header's body length already covers it. The send path's
/// one encoder: a link agent copies a small payload behind the fields
/// (one staged write per burst) and writes a large one straight from its
/// [`Bytes`] view.
pub(crate) fn encode_head<'a>(frame: &'a Frame, out: &mut Vec<u8>) -> Option<&'a Bytes> {
    let at = out.len();
    out.extend_from_slice(&[MAGIC, VERSION, 0, 0, 0, 0, 0, 0]);
    let (kind, payload) = match frame {
        Frame::Hello { node, epoch } => {
            put_u32(out, *node);
            put_u32(out, *epoch);
            (KIND_HELLO, None)
        }
        Frame::Whole {
            req,
            edge,
            transfer,
            payload,
        } => {
            put_data(out, *req, *edge, *transfer, None);
            (KIND_WHOLE, Some(payload))
        }
        Frame::Chunk {
            req,
            edge,
            transfer,
            offset,
            total,
            bytes,
        } => {
            put_data(out, *req, *edge, *transfer, Some((*offset, *total)));
            (KIND_CHUNK, Some(bytes))
        }
        Frame::AckMark { transfer, mark } => {
            put_u64(out, *transfer);
            put_u64(out, *mark as u64);
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
    let body_len = out.len() - at - HEADER_LEN + payload.map_or(0, Bytes::len);
    assert!(body_len <= MAX_BODY, "frame body exceeds the wire cap");
    out[at + 2] = kind;
    out[at + 4..at + 8].copy_from_slice(&(body_len as u32).to_le_bytes());
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
/// Panics if the body would exceed [`MAX_BODY`] — impossible for frames
/// the runtime produces.
pub fn encode_parts(frame: &Frame) -> (Vec<u8>, Option<Bytes>) {
    let mut head = Vec::with_capacity(HEADER_LEN + 48);
    let payload = encode_head(frame, &mut head).cloned();
    (head, payload)
}

/// Encodes `frame` contiguously onto the end of `out` (header, fields,
/// payload) — the copying form of [`encode_parts`].
pub fn encode_into(frame: &Frame, out: &mut Vec<u8>) {
    if let Some(payload) = encode_head(frame, out) {
        out.extend_from_slice(payload);
    }
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

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn edge(&mut self) -> Result<EdgeId, WireError> {
        Ok(EdgeId::from_index(self.u32()? as usize))
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
            edge: r.edge()?,
            transfer: r.u64()?,
            payload: r.rest(),
        },
        KIND_CHUNK => {
            let (req, edge, transfer) = (r.u64()?, r.edge()?, r.u64()?);
            let (offset, total) = (r.u64()?, r.u64()?);
            let len = (body.len() - r.pos) as u64;
            let fits = offset.checked_add(len).is_some_and(|end| end <= total);
            if !fits || total > MAX_TRANSFER as u64 {
                return Err(WireError::BadSpan { offset, len, total });
            }
            Frame::Chunk {
                req,
                edge,
                transfer,
                offset: offset as usize,
                total: total as usize,
                bytes: r.rest(),
            }
        }
        KIND_ACK_MARK => Frame::AckMark {
            transfer: r.u64()?,
            mark: r.u64()? as usize,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { node: 2, epoch: 5 },
            Frame::Whole {
                req: 1,
                edge: EdgeId::from_index(0),
                transfer: 10,
                payload: Bytes::from(vec![9u8; 33]),
            },
            Frame::Chunk {
                req: 1,
                edge: EdgeId::from_index(4),
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
                edge: EdgeId::from_index(1),
                transfer: 12,
                payload: Bytes::from(Vec::new()), // empty payload
            },
        ]
    }

    fn stream_of(frames: &[Frame]) -> Vec<u8> {
        let mut stream = Vec::new();
        for f in frames {
            encode_into(f, &mut stream);
        }
        stream
    }

    #[test]
    fn every_kind_roundtrips_contiguously() {
        let frames = sample_frames();
        let mut dec = Decoder::new();
        dec.feed(&stream_of(&frames));
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
        // Worst case: one byte per feed — every header and body is torn.
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        for b in &stream_of(&frames) {
            dec.feed(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out, frames);
    }

    /// The checkpoint log records the raw span `next_raw` consumed, so
    /// that span must be exactly the frame's encoding.
    #[test]
    fn next_raw_hands_back_the_frame_encoding() {
        let mut dec = Decoder::new();
        for frame in sample_frames() {
            let contiguous = stream_of(std::slice::from_ref(&frame));
            dec.feed(&contiguous);
            let (back, raw) = dec.next_raw().unwrap().expect("one whole frame");
            assert_eq!(raw, &contiguous[..]);
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn encode_parts_is_zero_copy_on_the_payload() {
        let payload = Bytes::from(vec![7u8; 128]);
        let frame = Frame::Whole {
            req: 0,
            edge: EdgeId::from_index(0),
            transfer: 1,
            payload: payload.clone(),
        };
        let (head, body) = encode_parts(&frame);
        let body = body.expect("whole frames carry a payload part");
        // Same allocation: the encoder only cloned the refcounted view.
        assert!(std::ptr::eq(body.as_ref(), payload.as_ref()));
        // header + fields + payload re-assembles to the contiguous form.
        let mut glued = head;
        glued.extend_from_slice(&body);
        assert_eq!(glued, stream_of(&[frame]));
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let good = stream_of(&[Frame::AckComplete { transfer: 3 }]);
        let decode = |bytes: &[u8]| {
            let mut dec = Decoder::new();
            dec.feed(bytes);
            dec.next_frame()
        };

        let mut bad_magic = good.clone();
        bad_magic[0] = 0x00;
        assert_eq!(decode(&bad_magic), Err(WireError::BadMagic(0x00)));

        let mut bad_version = good.clone();
        bad_version[1] = 9;
        assert_eq!(decode(&bad_version), Err(WireError::BadVersion(9)));

        // Versions 1 and 2 still carried the sink key in data frames (and
        // 1 had no `Release`); a peer speaking either is refused.
        for old in [1, 2] {
            let mut old_version = good.clone();
            old_version[1] = old;
            assert_eq!(decode(&old_version), Err(WireError::BadVersion(old)));
        }

        // 6 (`Release`) is the last kind; 7 is the first unknown one.
        for kind in [7, 77] {
            let mut bad_kind = good.clone();
            bad_kind[2] = kind;
            assert_eq!(decode(&bad_kind), Err(WireError::BadKind(kind)));
        }

        let mut oversize = good.clone();
        oversize[4..8].copy_from_slice(&(MAX_BODY as u32 + 1).to_le_bytes());
        assert!(matches!(decode(&oversize), Err(WireError::Oversize(_))));

        // Body shorter than the frame's fixed fields.
        let mut truncated = good.clone();
        truncated[4..8].copy_from_slice(&4u32.to_le_bytes());
        truncated.truncate(HEADER_LEN + 4);
        assert_eq!(decode(&truncated), Err(WireError::Truncated));
    }

    /// A chunk is accepted only if it fits its announced transfer and the
    /// transfer fits `MAX_TRANSFER`: the receiver allocates `total` bytes
    /// for reassembly, so a hostile `total` must never reach it.
    #[test]
    fn chunks_outside_their_transfer_are_rejected() {
        // Offsets of the `offset` and `total` fields in a chunk frame.
        const OFFSET_AT: usize = HEADER_LEN + 20;
        const TOTAL_AT: usize = OFFSET_AT + 8;
        let chunk = Frame::Chunk {
            req: 1,
            edge: EdgeId::from_index(0),
            transfer: 2,
            offset: 0,
            total: 100,
            bytes: Bytes::from(vec![5u8; 10]),
        };
        let good = stream_of(&[chunk]);
        let with = |offset: u64, total: u64| {
            let mut bytes = good.clone();
            bytes[OFFSET_AT..OFFSET_AT + 8].copy_from_slice(&offset.to_le_bytes());
            bytes[TOTAL_AT..TOTAL_AT + 8].copy_from_slice(&total.to_le_bytes());
            let mut dec = Decoder::new();
            dec.feed(&bytes);
            dec.next_frame()
        };
        assert!(with(90, 100).unwrap().is_some(), "the last 10 bytes fit");
        assert!(with(0, MAX_TRANSFER as u64).unwrap().is_some());
        for (offset, total) in [
            (91, 100),                    // overruns the transfer
            (0, 9),                       // longer than the transfer
            (u64::MAX - 4, 100),          // offset + len overflows
            (0, 1 << 40),                 // a 1 TiB transfer
            (0, MAX_TRANSFER as u64 + 1), // one byte past the cap
        ] {
            assert_eq!(
                with(offset, total),
                Err(WireError::BadSpan {
                    offset,
                    len: 10,
                    total
                }),
                "offset {offset}, total {total}"
            );
        }
    }

    /// Seeded byte-mutation fuzz: a valid stream with a few random bytes
    /// overwritten, or cut short, must decode without a panic, and every
    /// chunk the decoder accepts must lie inside its transfer.
    #[test]
    fn mutated_streams_decode_without_panics_or_bad_chunks() {
        let clean = stream_of(&sample_frames());
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut accepted_chunks = 0;
        for _ in 0..200_000 {
            let mut bytes = clean.clone();
            for _ in 0..1 + next() % 4 {
                let at = next() as usize % bytes.len();
                bytes[at] = next() as u8;
            }
            if next() % 8 == 0 {
                bytes.truncate(next() as usize % bytes.len());
            }
            let mut dec = Decoder::new();
            dec.feed(&bytes);
            while let Ok(Some(frame)) = dec.next_frame() {
                if let Frame::Chunk {
                    offset,
                    total,
                    bytes,
                    ..
                } = frame
                {
                    assert!(offset + bytes.len() <= total && total <= MAX_TRANSFER);
                    accepted_chunks += 1;
                }
            }
        }
        assert!(accepted_chunks > 0, "the fuzz never reached a chunk");
    }

    #[test]
    fn decoder_buffer_stays_bounded() {
        let frame_bytes = stream_of(&[Frame::AckComplete { transfer: 1 }]);
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
