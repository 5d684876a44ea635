//! Wire protocol between clients and the coordinator.
//!
//! Every payload that crosses a silo boundary is serialised through this
//! codec so the communication experiments (Fig. 10) measure *actual wire
//! bytes*, not estimates. The format is a compact little-endian layout:
//! `tag u8 | client u32 | rows u32 | cols u32 | payload f32*`. A
//! [`Message::ServeChunk`] is a typed column frame instead:
//! `tag u8 | job u64 | first_row u64 | rows u32 | cols u32 | width u8 × cols`,
//! then each column's cells contiguously in its [`ColumnWidth`].
//!
//! When distributed tracing is enabled a [`TraceContext`] rides in front
//! of the message as an optional fixed-size header
//! (`0x7C | trace_id u64 | parent_span u64 | lamport u64`); untraced
//! runs send the bare encoding, so Fig. 10 byte accounting is identical
//! with tracing off.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use silofuse_observe::TraceContext;

/// Messages exchanged during training and synthesis.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → coordinator: encoded latents `Z_i` of the training data
    /// (stacked training, Algorithm 1 — sent exactly once).
    LatentUpload {
        /// Sending client index.
        client: u32,
        /// Row count.
        rows: u32,
        /// Latent width `s_i`.
        cols: u32,
        /// Row-major latent values.
        data: Vec<f32>,
    },
    /// Client → coordinator: forward activations for one E2EDistr step.
    ActivationUpload {
        /// Sending client index.
        client: u32,
        /// Row count.
        rows: u32,
        /// Latent width `s_i`.
        cols: u32,
        /// Row-major activations.
        data: Vec<f32>,
    },
    /// Coordinator → client: latent gradients for one E2EDistr step.
    GradientDownload {
        /// Receiving client index.
        client: u32,
        /// Row count.
        rows: u32,
        /// Latent width `s_i`.
        cols: u32,
        /// Row-major gradients.
        data: Vec<f32>,
    },
    /// Coordinator → client: this client's slice of freshly denoised
    /// synthetic latents `Z̃_i` (Algorithm 2).
    SyntheticLatents {
        /// Receiving client index.
        client: u32,
        /// Row count.
        rows: u32,
        /// Latent width `s_i`.
        cols: u32,
        /// Row-major synthetic latents.
        data: Vec<f32>,
    },
    /// Client → coordinator: request `n` synthetic samples (Algorithm 2,
    /// line 1).
    SynthesisRequest {
        /// Requesting client index.
        client: u32,
        /// Number of samples wanted.
        n: u32,
    },
    /// Control acknowledgement.
    Ack,
    /// Client → coordinator liveness beat, stamped with the sender's
    /// logical tick (training step or synthesis chunk — never wall
    /// clock). Supervision-only: ledgered in
    /// [`crate::transport::CommStats::bytes_control`], so Fig. 10
    /// accounting is untouched.
    Heartbeat {
        /// Sending client index.
        client: u32,
        /// Sender's logical clock at send time.
        tick: u64,
    },
    /// Client → coordinator: a restarted silo asks to rejoin the run,
    /// carrying the step recovered from its on-disk checkpoint.
    /// Supervision-only control traffic (see [`Message::Heartbeat`]).
    RejoinRequest {
        /// Rejoining client index.
        client: u32,
        /// Training step recovered from the silo's checkpoint.
        resume_step: u64,
    },
    /// Tenant → server: ask for synthetic rows `start_row ..
    /// start_row + rows` of model `model`'s deterministic row stream —
    /// the cursor-pagination request of `silofuse-serve`. Serving rides
    /// the control-byte ledger (see [`Message::is_control`]) so Fig. 10
    /// protocol accounting is untouched by serve traffic.
    ServeRequest {
        /// Registry index of the model to sample from.
        model: u32,
        /// Tenant-chosen job id, echoed on every response frame.
        job: u64,
        /// Absolute row cursor the fetch starts at.
        start_row: u64,
        /// Rows requested from the cursor.
        rows: u32,
    },
    /// Server → tenant: one streamed chunk of a serve job's rows, as a
    /// typed column frame. After the 25-byte header come one width byte
    /// per column and then each column's `rows` cells contiguously:
    /// numerics as f32, categorical codes as the narrowest of u8, u16 and
    /// u32 that holds the column's cardinality
    /// ([`ColumnWidth::for_cardinality`]). A Loan row (6 numerics, 7
    /// codes of cardinality 2–3) is 31 bytes.
    ServeChunk {
        /// Job id this chunk answers.
        job: u64,
        /// Absolute row index of the chunk's first row.
        first_row: u64,
        /// Rows in this chunk; every column holds this many cells.
        rows: u32,
        /// The output table's columns, in schema order.
        columns: Vec<ChunkColumn>,
    },
    /// Server → tenant: the job was refused before any sampling ran.
    ServeReject {
        /// Job id that was refused.
        job: u64,
        /// Why — see [`ServeRejectCode`].
        code: ServeRejectCode,
    },
}

/// Typed reasons a [`Message::ServeReject`] carries on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeRejectCode {
    /// Admission control refused the job (server or tenant bound full).
    Overloaded,
    /// The request parameters were invalid (e.g. zero rows per chunk).
    InvalidRequest,
    /// The requested model is not in the registry.
    UnknownModel,
}

impl ServeRejectCode {
    fn to_u8(self) -> u8 {
        match self {
            ServeRejectCode::Overloaded => 1,
            ServeRejectCode::InvalidRequest => 2,
            ServeRejectCode::UnknownModel => 3,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ServeRejectCode::Overloaded),
            2 => Some(ServeRejectCode::InvalidRequest),
            3 => Some(ServeRejectCode::UnknownModel),
            _ => None,
        }
    }
}

/// How one column of a [`Message::ServeChunk`] travels: its width byte
/// on the wire and the size of each of its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnWidth {
    /// Numeric values as little-endian f32.
    F32,
    /// Categorical codes as u8, for a cardinality of at most 2^8.
    U8,
    /// Categorical codes as little-endian u16, for at most 2^16.
    U16,
    /// Categorical codes as little-endian u32, for any cardinality.
    U32,
}

impl ColumnWidth {
    /// The narrowest code width that holds every code below
    /// `cardinality`, so codes are exact at any cardinality.
    pub fn for_cardinality(cardinality: u32) -> Self {
        if cardinality <= 1 << 8 {
            ColumnWidth::U8
        } else if cardinality <= 1 << 16 {
            ColumnWidth::U16
        } else {
            ColumnWidth::U32
        }
    }

    /// Bytes per cell.
    pub fn bytes(self) -> usize {
        match self {
            ColumnWidth::U8 => 1,
            ColumnWidth::U16 => 2,
            ColumnWidth::F32 | ColumnWidth::U32 => 4,
        }
    }

    /// The width byte on the wire: the cell size, with the high bit set
    /// for a float.
    fn to_u8(self) -> u8 {
        match self {
            ColumnWidth::U8 => 1,
            ColumnWidth::U16 => 2,
            ColumnWidth::U32 => 4,
            ColumnWidth::F32 => 0x84,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(ColumnWidth::U8),
            2 => Some(ColumnWidth::U16),
            4 => Some(ColumnWidth::U32),
            0x84 => Some(ColumnWidth::F32),
            _ => None,
        }
    }
}

/// One column of a [`Message::ServeChunk`], its cells stored contiguously
/// in the column's [`ColumnWidth`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChunkColumn {
    /// Numeric values.
    F32(Vec<f32>),
    /// Categorical codes of a column with at most 2^8 categories.
    U8(Vec<u8>),
    /// Categorical codes of a column with at most 2^16 categories.
    U16(Vec<u16>),
    /// Categorical codes of a wider column.
    U32(Vec<u32>),
}

impl ChunkColumn {
    /// The width the column travels in.
    pub fn width(&self) -> ColumnWidth {
        match self {
            ChunkColumn::F32(_) => ColumnWidth::F32,
            ChunkColumn::U8(_) => ColumnWidth::U8,
            ChunkColumn::U16(_) => ColumnWidth::U16,
            ChunkColumn::U32(_) => ColumnWidth::U32,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            ChunkColumn::F32(v) => v.len(),
            ChunkColumn::U8(v) => v.len(),
            ChunkColumn::U16(v) => v.len(),
            ChunkColumn::U32(v) => v.len(),
        }
    }

    /// True when the column holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn put(&self, buf: &mut BytesMut) {
        match self {
            ChunkColumn::F32(v) => v.iter().for_each(|&x| buf.put_f32_le(x)),
            ChunkColumn::U8(v) => buf.put_slice(v),
            ChunkColumn::U16(v) => v.iter().for_each(|&x| buf.put_slice(&x.to_le_bytes())),
            ChunkColumn::U32(v) => v.iter().for_each(|&x| buf.put_u32_le(x)),
        }
    }

    /// Reads a column of `width` from `cells`, whose length is a whole
    /// number of cells.
    fn read(width: ColumnWidth, cells: &[u8]) -> Self {
        match width {
            ColumnWidth::F32 => ChunkColumn::F32(
                cells
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect(),
            ),
            ColumnWidth::U8 => ChunkColumn::U8(cells.to_vec()),
            ColumnWidth::U16 => ChunkColumn::U16(
                cells.chunks_exact(2).map(|b| u16::from_le_bytes([b[0], b[1]])).collect(),
            ),
            ColumnWidth::U32 => ChunkColumn::U32(
                cells
                    .chunks_exact(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect(),
            ),
        }
    }
}

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the declared payload.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// A [`Message::ServeChunk`] column's width byte names no
    /// [`ColumnWidth`].
    BadWidth(u8),
    /// A [`Message::ServeChunk`] buffer runs past the cells its header
    /// declares, by this many bytes.
    Trailing(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::BadWidth(w) => write!(f, "unknown column width {w:#04x}"),
            CodecError::Trailing(n) => write!(f, "{n} bytes past the declared cells"),
        }
    }
}

impl std::error::Error for CodecError {}

const TAG_LATENT: u8 = 1;
const TAG_ACTIVATION: u8 = 2;
const TAG_GRADIENT: u8 = 3;
const TAG_SYNTH: u8 = 4;
const TAG_REQUEST: u8 = 5;
const TAG_ACK: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;
const TAG_REJOIN: u8 = 8;
const TAG_SERVE_REQUEST: u8 = 9;
const TAG_SERVE_CHUNK: u8 = 10;
const TAG_SERVE_REJECT: u8 = 11;
const TAG_TRACED: u8 = 0x7C;

/// Size of the optional trace header: tag + three little-endian u64s.
pub const TRACE_HEADER_BYTES: usize = 25;

impl Message {
    /// Stable variant name, used as the telemetry message-kind label
    /// (`comm.bytes.<kind>.<direction>` histograms).
    pub fn kind(&self) -> &'static str {
        match self {
            Message::LatentUpload { .. } => "LatentUpload",
            Message::ActivationUpload { .. } => "ActivationUpload",
            Message::GradientDownload { .. } => "GradientDownload",
            Message::SyntheticLatents { .. } => "SyntheticLatents",
            Message::SynthesisRequest { .. } => "SynthesisRequest",
            Message::Ack => "Ack",
            Message::Heartbeat { .. } => "Heartbeat",
            Message::RejoinRequest { .. } => "RejoinRequest",
            Message::ServeRequest { .. } => "ServeRequest",
            Message::ServeChunk { .. } => "ServeChunk",
            Message::ServeReject { .. } => "ServeReject",
        }
    }

    /// True for traffic outside the training/synthesis protocols:
    /// supervision (heartbeats, rejoin handshake) and the serve-layer
    /// request/response messages. Control messages are ledgered in
    /// [`crate::transport::CommStats::bytes_control`] instead of
    /// `bytes_up`/`bytes_down`, keeping protocol byte accounting (and
    /// the paper's Fig. 10 comparison) identical whether or not
    /// supervision or serving is active.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Message::Heartbeat { .. }
                | Message::RejoinRequest { .. }
                | Message::ServeRequest { .. }
                | Message::ServeChunk { .. }
                | Message::ServeReject { .. }
        )
    }

    /// Serialises to wire bytes without a trace header.
    pub fn encode(&self) -> Bytes {
        self.encode_traced(None)
    }

    /// Serialises to wire bytes, prefixing the trace header when `ctx`
    /// is present. `encode_traced(None)` is byte-identical to the
    /// untraced format.
    pub fn encode_traced(&self, ctx: Option<&TraceContext>) -> Bytes {
        let header = if ctx.is_some() { TRACE_HEADER_BYTES } else { 0 };
        let mut buf = BytesMut::with_capacity(header + self.wire_size());
        if let Some(ctx) = ctx {
            buf.put_u8(TAG_TRACED);
            buf.put_u64_le(ctx.trace_id);
            buf.put_u64_le(ctx.parent_span);
            buf.put_u64_le(ctx.lamport);
        }
        match self {
            Message::LatentUpload { client, rows, cols, data } => {
                encode_matrix(&mut buf, TAG_LATENT, *client, *rows, *cols, data);
            }
            Message::ActivationUpload { client, rows, cols, data } => {
                encode_matrix(&mut buf, TAG_ACTIVATION, *client, *rows, *cols, data);
            }
            Message::GradientDownload { client, rows, cols, data } => {
                encode_matrix(&mut buf, TAG_GRADIENT, *client, *rows, *cols, data);
            }
            Message::SyntheticLatents { client, rows, cols, data } => {
                encode_matrix(&mut buf, TAG_SYNTH, *client, *rows, *cols, data);
            }
            Message::SynthesisRequest { client, n } => {
                buf.put_u8(TAG_REQUEST);
                buf.put_u32_le(*client);
                buf.put_u32_le(*n);
            }
            Message::Ack => buf.put_u8(TAG_ACK),
            Message::Heartbeat { client, tick } => {
                buf.put_u8(TAG_HEARTBEAT);
                buf.put_u32_le(*client);
                buf.put_u64_le(*tick);
            }
            Message::RejoinRequest { client, resume_step } => {
                buf.put_u8(TAG_REJOIN);
                buf.put_u32_le(*client);
                buf.put_u64_le(*resume_step);
            }
            Message::ServeRequest { model, job, start_row, rows } => {
                buf.put_u8(TAG_SERVE_REQUEST);
                buf.put_u32_le(*model);
                buf.put_u64_le(*job);
                buf.put_u64_le(*start_row);
                buf.put_u32_le(*rows);
            }
            Message::ServeChunk { job, first_row, rows, columns } => {
                buf.put_u8(TAG_SERVE_CHUNK);
                buf.put_u64_le(*job);
                buf.put_u64_le(*first_row);
                buf.put_u32_le(*rows);
                buf.put_u32_le(columns.len() as u32);
                for column in columns {
                    buf.put_u8(column.width().to_u8());
                }
                for column in columns {
                    debug_assert_eq!(column.len(), *rows as usize);
                    column.put(&mut buf);
                }
            }
            Message::ServeReject { job, code } => {
                buf.put_u8(TAG_SERVE_REJECT);
                buf.put_u64_le(*job);
                buf.put_u8(code.to_u8());
            }
        }
        buf.freeze()
    }

    /// Deserialises from wire bytes, discarding any trace header.
    pub fn decode(bytes: Bytes) -> Result<Self, CodecError> {
        Self::decode_traced(bytes).map(|(msg, _)| msg)
    }

    /// Deserialises from wire bytes, returning the [`TraceContext`] if
    /// the payload carried one.
    pub fn decode_traced(mut bytes: Bytes) -> Result<(Self, Option<TraceContext>), CodecError> {
        if bytes.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        let ctx = if bytes.as_slice()[0] == TAG_TRACED {
            if bytes.remaining() < TRACE_HEADER_BYTES {
                return Err(CodecError::Truncated);
            }
            bytes.get_u8();
            let trace_id = bytes.get_u64_le();
            let parent_span = bytes.get_u64_le();
            let lamport = bytes.get_u64_le();
            Some(TraceContext { trace_id, parent_span, lamport })
        } else {
            None
        };
        Self::decode_body(bytes).map(|msg| (msg, ctx))
    }

    fn decode_body(mut bytes: Bytes) -> Result<Self, CodecError> {
        if bytes.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        let tag = bytes.get_u8();
        match tag {
            TAG_LATENT | TAG_ACTIVATION | TAG_GRADIENT | TAG_SYNTH => {
                let (client, rows, cols, data) = decode_matrix(&mut bytes)?;
                Ok(match tag {
                    TAG_LATENT => Message::LatentUpload { client, rows, cols, data },
                    TAG_ACTIVATION => Message::ActivationUpload { client, rows, cols, data },
                    TAG_GRADIENT => Message::GradientDownload { client, rows, cols, data },
                    _ => Message::SyntheticLatents { client, rows, cols, data },
                })
            }
            TAG_REQUEST => {
                if bytes.remaining() < 8 {
                    return Err(CodecError::Truncated);
                }
                let client = bytes.get_u32_le();
                let n = bytes.get_u32_le();
                Ok(Message::SynthesisRequest { client, n })
            }
            TAG_ACK => Ok(Message::Ack),
            TAG_HEARTBEAT | TAG_REJOIN => {
                if bytes.remaining() < 12 {
                    return Err(CodecError::Truncated);
                }
                let client = bytes.get_u32_le();
                let word = bytes.get_u64_le();
                Ok(if tag == TAG_HEARTBEAT {
                    Message::Heartbeat { client, tick: word }
                } else {
                    Message::RejoinRequest { client, resume_step: word }
                })
            }
            TAG_SERVE_REQUEST => {
                if bytes.remaining() < 24 {
                    return Err(CodecError::Truncated);
                }
                let model = bytes.get_u32_le();
                let job = bytes.get_u64_le();
                let start_row = bytes.get_u64_le();
                let rows = bytes.get_u32_le();
                Ok(Message::ServeRequest { model, job, start_row, rows })
            }
            TAG_SERVE_CHUNK => {
                if bytes.remaining() < 24 {
                    return Err(CodecError::Truncated);
                }
                let job = bytes.get_u64_le();
                let first_row = bytes.get_u64_le();
                let rows = bytes.get_u32_le();
                let cols = bytes.get_u32_le();
                let columns = decode_columns(bytes.as_slice(), rows, cols)?;
                Ok(Message::ServeChunk { job, first_row, rows, columns })
            }
            TAG_SERVE_REJECT => {
                if bytes.remaining() < 9 {
                    return Err(CodecError::Truncated);
                }
                let job = bytes.get_u64_le();
                let raw = bytes.get_u8();
                let code = ServeRejectCode::from_u8(raw).ok_or(CodecError::BadTag(raw))?;
                Ok(Message::ServeReject { job, code })
            }
            other => Err(CodecError::BadTag(other)),
        }
    }

    /// Exact serialized size in bytes of the untraced encoding (the
    /// trace header, when present, adds [`TRACE_HEADER_BYTES`] on top).
    pub fn wire_size(&self) -> usize {
        match self {
            Message::LatentUpload { data, .. }
            | Message::ActivationUpload { data, .. }
            | Message::GradientDownload { data, .. }
            | Message::SyntheticLatents { data, .. } => 1 + 12 + 4 * data.len(),
            Message::SynthesisRequest { .. } => 1 + 8,
            Message::Ack => 1,
            Message::Heartbeat { .. } | Message::RejoinRequest { .. } => 1 + 12,
            Message::ServeRequest { .. } => 1 + 24,
            Message::ServeChunk { columns, .. } => {
                1 + 24 + columns.iter().map(|c| 1 + c.len() * c.width().bytes()).sum::<usize>()
            }
            Message::ServeReject { .. } => 1 + 9,
        }
    }
}

fn encode_matrix(buf: &mut BytesMut, tag: u8, client: u32, rows: u32, cols: u32, data: &[f32]) {
    debug_assert_eq!(data.len(), rows as usize * cols as usize);
    buf.put_u8(tag);
    buf.put_u32_le(client);
    buf.put_u32_le(rows);
    buf.put_u32_le(cols);
    for &v in data {
        buf.put_f32_le(v);
    }
}

fn decode_matrix(bytes: &mut Bytes) -> Result<(u32, u32, u32, Vec<f32>), CodecError> {
    if bytes.remaining() < 12 {
        return Err(CodecError::Truncated);
    }
    let client = bytes.get_u32_le();
    let rows = bytes.get_u32_le();
    let cols = bytes.get_u32_le();
    // Validate the declared shape against the remaining buffer BEFORE any
    // allocation, in u64 so adversarial `rows * cols` (or `4 * len`) cannot
    // overflow usize and sneak past the bound — a malformed frame must cost
    // a `CodecError`, never a panic or a multi-gigabyte `Vec`.
    let len = u64::from(rows) * u64::from(cols);
    let need = len.checked_mul(4).ok_or(CodecError::Truncated)?;
    if (bytes.remaining() as u64) < need {
        return Err(CodecError::Truncated);
    }
    let len = len as usize;
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        data.push(bytes.get_f32_le());
    }
    Ok((client, rows, cols, data))
}

/// Parses a [`Message::ServeChunk`]'s width bytes and columns from `body`,
/// which must hold exactly `cols` width bytes and `rows` cells of each
/// column. Every width byte and the total length, counted in u64 with
/// checked arithmetic, are validated before anything is allocated, so a
/// lying header costs a [`CodecError`], never a panic or a huge `Vec`.
fn decode_columns(body: &[u8], rows: u32, cols: u32) -> Result<Vec<ChunkColumn>, CodecError> {
    let (widths, mut cells) = body.split_at_checked(cols as usize).ok_or(CodecError::Truncated)?;
    let mut row_bytes = 0u64;
    for &w in widths {
        row_bytes += ColumnWidth::from_u8(w).ok_or(CodecError::BadWidth(w))?.bytes() as u64;
    }
    let need = row_bytes.checked_mul(u64::from(rows)).ok_or(CodecError::Truncated)?;
    let have = cells.len() as u64;
    if have < need {
        return Err(CodecError::Truncated);
    }
    if have > need {
        return Err(CodecError::Trailing((have - need) as usize));
    }
    let mut columns = Vec::with_capacity(widths.len());
    for &w in widths {
        let width = ColumnWidth::from_u8(w).ok_or(CodecError::BadWidth(w))?;
        let (column, rest) =
            cells.split_at_checked(rows as usize * width.bytes()).ok_or(CodecError::Truncated)?;
        columns.push(ChunkColumn::read(width, column));
        cells = rest;
    }
    Ok(columns)
}

const FRAME_DATA: u8 = 0xD1;
const FRAME_ACK: u8 = 0xA1;

/// Transport frame wrapping [`Message`] payloads when the reliable
/// delivery layer is active (a [`crate::faults::FaultPlan`] is installed).
///
/// `Data` carries a per-link monotonically increasing sequence number plus
/// a piggybacked cumulative acknowledgement (`ack` = the sender has
/// delivered every peer frame with `seq < ack`); standalone `Ack` frames
/// carry the same cumulative watermark. Together they give the transport
/// at-least-once delivery with exactly-once *effective* delivery through
/// the receiver's dedup window.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// An application payload.
    Data {
        /// Sender's sequence number for this payload.
        seq: u64,
        /// Cumulative ack of the peer's frames (all `< ack` delivered).
        ack: u64,
        /// Encoded [`Message`] bytes.
        payload: Bytes,
    },
    /// A standalone cumulative acknowledgement.
    Ack {
        /// All peer frames with `seq < ack` have been delivered.
        ack: u64,
    },
}

impl Frame {
    /// Serialises to wire bytes.
    pub fn encode(&self) -> Bytes {
        match self {
            Frame::Data { seq, ack, payload } => {
                let mut buf = BytesMut::with_capacity(17 + payload.len());
                buf.put_u8(FRAME_DATA);
                buf.put_u64_le(*seq);
                buf.put_u64_le(*ack);
                buf.put_slice(payload.as_slice());
                buf.freeze()
            }
            Frame::Ack { ack } => {
                let mut buf = BytesMut::with_capacity(9);
                buf.put_u8(FRAME_ACK);
                buf.put_u64_le(*ack);
                buf.freeze()
            }
        }
    }

    /// Deserialises from wire bytes.
    pub fn decode(mut bytes: Bytes) -> Result<Self, CodecError> {
        if bytes.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        match bytes.get_u8() {
            FRAME_DATA => {
                if bytes.remaining() < 16 {
                    return Err(CodecError::Truncated);
                }
                let seq = bytes.get_u64_le();
                let ack = bytes.get_u64_le();
                let payload = bytes.slice(0..bytes.remaining());
                Ok(Frame::Data { seq, ack, payload })
            }
            FRAME_ACK => {
                if bytes.remaining() < 8 {
                    return Err(CodecError::Truncated);
                }
                Ok(Frame::Ack { ack: bytes.get_u64_le() })
            }
            other => Err(CodecError::BadTag(other)),
        }
    }

    /// Exact serialized size in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            Frame::Data { payload, .. } => 17 + payload.len(),
            Frame::Ack { .. } => 9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_messages_round_trip() {
        let msgs = [
            Message::LatentUpload { client: 2, rows: 3, cols: 2, data: vec![1.0; 6] },
            Message::ActivationUpload { client: 0, rows: 1, cols: 4, data: vec![-0.5; 4] },
            Message::GradientDownload { client: 1, rows: 2, cols: 2, data: vec![0.25; 4] },
            Message::SyntheticLatents { client: 3, rows: 1, cols: 1, data: vec![9.0] },
        ];
        for m in msgs {
            let decoded = Message::decode(m.encode()).unwrap();
            assert_eq!(decoded, m);
        }
    }

    #[test]
    fn control_messages_round_trip() {
        for m in [
            Message::SynthesisRequest { client: 7, n: 1000 },
            Message::Ack,
            Message::Heartbeat { client: 2, tick: u64::MAX - 1 },
            Message::RejoinRequest { client: 1, resume_step: 300 },
        ] {
            assert_eq!(m.encode().len(), m.wire_size());
            assert_eq!(Message::decode(m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn only_supervision_and_serve_messages_are_control() {
        assert!(Message::Heartbeat { client: 0, tick: 0 }.is_control());
        assert!(Message::RejoinRequest { client: 0, resume_step: 0 }.is_control());
        // Serve traffic is outside the training/synthesis protocols, so
        // it rides the control ledger and leaves Fig. 10 accounting clean.
        assert!(Message::ServeRequest { model: 0, job: 1, start_row: 0, rows: 8 }.is_control());
        assert!(Message::ServeChunk {
            job: 1,
            first_row: 0,
            rows: 1,
            columns: vec![ChunkColumn::F32(vec![0.0])]
        }
        .is_control());
        assert!(Message::ServeReject { job: 1, code: ServeRejectCode::Overloaded }.is_control());
        // Application-level Ack predates supervision and stays in the
        // protocol byte ledgers; Fig. 10 tests pin its accounting.
        assert!(!Message::Ack.is_control());
        assert!(!Message::SynthesisRequest { client: 0, n: 1 }.is_control());
        assert!(
            !Message::LatentUpload { client: 0, rows: 1, cols: 1, data: vec![0.0] }.is_control()
        );
    }

    #[test]
    fn serve_messages_round_trip() {
        for m in [
            Message::ServeRequest { model: 3, job: u64::MAX - 5, start_row: 1 << 40, rows: 8192 },
            Message::ServeChunk {
                job: 9,
                first_row: 8192,
                rows: 2,
                columns: vec![
                    ChunkColumn::F32(vec![1.5, -2.0]),
                    ChunkColumn::U8(vec![0, 255]),
                    ChunkColumn::U16(vec![2931, 7]),
                    ChunkColumn::U32(vec![69_999, 65_536]),
                    ChunkColumn::F32(vec![f32::NAN.copysign(-1.0), f32::INFINITY]),
                ],
            },
            Message::ServeReject { job: 11, code: ServeRejectCode::Overloaded },
            Message::ServeReject { job: 12, code: ServeRejectCode::InvalidRequest },
            Message::ServeReject { job: 13, code: ServeRejectCode::UnknownModel },
        ] {
            assert_eq!(m.encode().len(), m.wire_size());
            assert_eq!(Message::decode(m.encode()).unwrap().encode(), m.encode());
        }
        // A lying ServeChunk header must cost a typed error, not an alloc.
        assert_eq!(
            Message::decode(chunk_header(u32::MAX, u32::MAX, &[])),
            Err(CodecError::Truncated)
        );
        // An unknown reject code is a BadTag, not a default.
        let mut buf = BytesMut::new();
        buf.put_u8(super::TAG_SERVE_REJECT);
        buf.put_u64_le(0);
        buf.put_u8(77);
        assert_eq!(Message::decode(buf.freeze()), Err(CodecError::BadTag(77)));
    }

    /// A ServeChunk header declaring `rows × cols`, followed by `rest`.
    fn chunk_header(rows: u32, cols: u32, rest: &[u8]) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_SERVE_CHUNK);
        buf.put_u64_le(5);
        buf.put_u64_le(0);
        buf.put_u32_le(rows);
        buf.put_u32_le(cols);
        buf.put_slice(rest);
        buf.freeze()
    }

    #[test]
    fn code_width_is_the_narrowest_that_holds_the_cardinality() {
        for (cardinality, width) in [
            (1, ColumnWidth::U8),
            (3, ColumnWidth::U8),
            (256, ColumnWidth::U8),
            (257, ColumnWidth::U16),
            (2_932, ColumnWidth::U16),
            (65_536, ColumnWidth::U16),
            (65_537, ColumnWidth::U32),
            (70_000, ColumnWidth::U32),
            (u32::MAX, ColumnWidth::U32),
        ] {
            assert_eq!(ColumnWidth::for_cardinality(cardinality), width, "{cardinality}");
        }
    }

    #[test]
    fn a_chunk_costs_its_header_widths_and_cells() {
        // A 256-row Loan page: 6 f32 numerics and 7 u8 codes, 31 B a row.
        let mut columns = vec![ChunkColumn::F32(vec![0.5; 256]); 6];
        columns.extend(vec![ChunkColumn::U8(vec![1; 256]); 7]);
        let page = Message::ServeChunk { job: 1, first_row: 0, rows: 256, columns };
        assert_eq!(page.wire_size(), 25 + 13 + 256 * 31);
        assert_eq!(page.wire_size(), 7_974);
        assert_eq!(page.encode().len(), page.wire_size());
    }

    #[test]
    fn malformed_chunks_are_typed_errors() {
        // Widths: one f32 column and one u16 column, then 2 rows of cells.
        let cells = [0u8; 2 * 6];
        let good = [&[0x84, 2][..], &cells].concat();
        assert!(Message::decode(chunk_header(2, 2, &good)).is_ok());
        // Every width byte that is not 1, 2, 4 or 0x84 is refused.
        for tag in (0..=255u8).filter(|t| ![1, 2, 4, 0x84].contains(t)) {
            let bad = [&[0x84, tag][..], &cells].concat();
            assert_eq!(Message::decode(chunk_header(2, 2, &bad)), Err(CodecError::BadWidth(tag)));
        }
        // A header that claims more rows or columns than the body holds,
        // or fewer.
        assert_eq!(Message::decode(chunk_header(3, 2, &good)), Err(CodecError::Truncated));
        assert_eq!(Message::decode(chunk_header(1, 2, &good)), Err(CodecError::Trailing(6)));
        assert_eq!(Message::decode(chunk_header(2, 3, &good)), Err(CodecError::BadWidth(0)));
        assert_eq!(Message::decode(chunk_header(u32::MAX, 2, &good)), Err(CodecError::Truncated));
        assert_eq!(
            Message::decode(chunk_header(u32::MAX, u32::MAX, &good)),
            Err(CodecError::Truncated)
        );
        // Zero columns carry no cells, at any row count.
        let empty = Message::ServeChunk { job: 5, first_row: 0, rows: 9, columns: Vec::new() };
        assert_eq!(Message::decode(chunk_header(9, 0, &[])).unwrap(), empty);
    }

    #[test]
    fn wire_size_matches_encoding() {
        let msgs = [
            Message::LatentUpload { client: 2, rows: 10, cols: 5, data: vec![0.0; 50] },
            Message::SynthesisRequest { client: 0, n: 1 },
            Message::Ack,
        ];
        for m in msgs {
            assert_eq!(m.encode().len(), m.wire_size());
        }
    }

    #[test]
    fn payload_dominates_wire_size() {
        // 1 KiB of floats -> overhead must stay tiny (13 bytes header).
        let m = Message::LatentUpload { client: 0, rows: 16, cols: 16, data: vec![0.0; 256] };
        assert_eq!(m.wire_size(), 13 + 1024);
    }

    #[test]
    fn traced_encoding_round_trips_context_and_message() {
        let ctx = TraceContext { trace_id: 0xDEAD_BEEF, parent_span: 42, lamport: 7 };
        let msgs = [
            Message::LatentUpload { client: 2, rows: 3, cols: 2, data: vec![1.0; 6] },
            Message::SynthesisRequest { client: 7, n: 1000 },
            Message::Ack,
        ];
        for m in msgs {
            let enc = m.encode_traced(Some(&ctx));
            assert_eq!(enc.len(), TRACE_HEADER_BYTES + m.wire_size());
            let (decoded, got) = Message::decode_traced(enc).unwrap();
            assert_eq!(decoded, m);
            assert_eq!(got, Some(ctx));
            // Plain decode tolerates (and discards) the header.
            assert_eq!(Message::decode(m.encode_traced(Some(&ctx))).unwrap(), m);
        }
    }

    #[test]
    fn untraced_encoding_has_no_header_and_no_context() {
        let m = Message::Ack;
        assert_eq!(m.encode_traced(None), m.encode());
        let (decoded, ctx) = Message::decode_traced(m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(ctx, None);
    }

    #[test]
    fn doubled_trace_tag_is_a_bad_tag_not_a_loop() {
        let ctx = TraceContext { trace_id: 1, parent_span: 2, lamport: 3 };
        let inner = Message::Ack.encode_traced(Some(&ctx));
        let mut outer = BytesMut::new();
        outer.put_u8(TAG_TRACED);
        outer.put_u64_le(9);
        outer.put_u64_le(9);
        outer.put_u64_le(9);
        outer.put_slice(inner.as_slice());
        assert_eq!(Message::decode(outer.freeze()), Err(CodecError::BadTag(TAG_TRACED)));
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let m = Message::LatentUpload { client: 0, rows: 2, cols: 2, data: vec![0.0; 4] };
        let enc = m.encode();
        let cut = enc.slice(0..enc.len() - 3);
        assert_eq!(Message::decode(cut), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_tag_is_rejected() {
        let bytes = Bytes::from_static(&[99u8]);
        assert_eq!(Message::decode(bytes), Err(CodecError::BadTag(99)));
    }

    #[test]
    fn oversized_declared_shape_is_rejected_without_allocating() {
        // Header claims u32::MAX x u32::MAX floats with an empty body: the
        // codec must bail on the length check, not allocate ~2^64 bytes.
        let mut buf = BytesMut::new();
        buf.put_u8(super::TAG_LATENT);
        buf.put_u32_le(0); // client
        buf.put_u32_le(u32::MAX); // rows
        buf.put_u32_le(u32::MAX); // cols
        assert_eq!(Message::decode(buf.freeze()), Err(CodecError::Truncated));
    }

    #[test]
    fn frames_round_trip() {
        let payload = Message::SynthesisRequest { client: 3, n: 9 }.encode();
        let data = Frame::Data { seq: 42, ack: 17, payload: payload.clone() };
        let ack = Frame::Ack { ack: 5 };
        for f in [data, ack] {
            assert_eq!(f.encode().len(), f.wire_size());
            assert_eq!(Frame::decode(f.encode()).unwrap(), f);
        }
        // The inner payload survives the framing intact.
        let Frame::Data { payload: p, .. } =
            Frame::decode(Frame::Data { seq: 0, ack: 0, payload: payload.clone() }.encode())
                .unwrap()
        else {
            panic!("decoded wrong frame kind")
        };
        assert_eq!(Message::decode(p).unwrap(), Message::SynthesisRequest { client: 3, n: 9 });
    }

    /// Decode fuzz over mutated valid frames: every truncation, a sweep of
    /// single-byte corruptions, and adversarial header rewrites must
    /// return a `Result` — never panic, never over-allocate.
    #[test]
    fn decode_survives_mutated_frames() {
        let ctx = TraceContext { trace_id: 0xF00D, parent_span: 0, lamport: 12 };
        let valid: Vec<Bytes> = vec![
            Message::LatentUpload { client: 1, rows: 4, cols: 3, data: vec![0.5; 12] }.encode(),
            Message::LatentUpload { client: 1, rows: 4, cols: 3, data: vec![0.5; 12] }
                .encode_traced(Some(&ctx)),
            Message::SynthesisRequest { client: 0, n: 77 }.encode(),
            Message::SynthesisRequest { client: 0, n: 77 }.encode_traced(Some(&ctx)),
            Message::Ack.encode(),
            Message::Heartbeat { client: 3, tick: 41 }.encode(),
            Message::RejoinRequest { client: 3, resume_step: 7 }.encode_traced(Some(&ctx)),
            Frame::Data {
                seq: 9,
                ack: 2,
                payload: Message::GradientDownload {
                    client: 0,
                    rows: 2,
                    cols: 2,
                    data: vec![1.0; 4],
                }
                .encode(),
            }
            .encode(),
            Frame::Ack { ack: 1 }.encode(),
        ];
        // Deterministic SplitMix64 mutation stream.
        let mut state = 0x5_1110_f05e_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Typed chunks of random width mixes: every cut of one is
        // truncated, and a rewrite of its shape or of a width byte is a
        // typed error.
        for case in 0..24u64 {
            let rows = (next() % 9) as u32;
            let columns: Vec<ChunkColumn> = (0..1 + next() % 6)
                .map(|_| {
                    let cells = 0..u64::from(rows);
                    match next() % 4 {
                        0 => ChunkColumn::F32(cells.map(|r| r as f32 - 2.5).collect()),
                        1 => ChunkColumn::U8(cells.map(|r| r as u8).collect()),
                        2 => ChunkColumn::U16(cells.map(|r| 300 * r as u16).collect()),
                        _ => ChunkColumn::U32(cells.map(|r| 70_000 * r as u32).collect()),
                    }
                })
                .collect();
            let cols = columns.len();
            let m = Message::ServeChunk { job: case, first_row: 7 * case, rows, columns };
            let frame = m.encode();
            assert_eq!(frame.len(), m.wire_size());
            assert_eq!(Message::decode(frame.clone()).unwrap(), m);
            for cut in 0..frame.len() {
                assert_eq!(Message::decode(frame.slice(0..cut)), Err(CodecError::Truncated));
            }
            for (rows, cols) in [(u32::MAX, cols as u32), (rows, u32::MAX), (rows + 1, cols as u32)]
            {
                let mut bytes = frame.as_slice().to_vec();
                bytes[17..21].copy_from_slice(&rows.to_le_bytes());
                bytes[21..25].copy_from_slice(&cols.to_le_bytes());
                assert!(Message::decode(Bytes::from(bytes)).is_err());
            }
            let mut bytes = frame.as_slice().to_vec();
            bytes[25 + (next() as usize) % cols] = 3;
            assert_eq!(Message::decode(Bytes::from(bytes)), Err(CodecError::BadWidth(3)));
        }
        for frame in &valid {
            // Every prefix truncation.
            for cut in 0..frame.len() {
                let _ = Message::decode(frame.slice(0..cut));
                let _ = Frame::decode(frame.slice(0..cut));
            }
            // 64 random single-byte corruptions each.
            for _ in 0..64 {
                let mut bytes = frame.as_slice().to_vec();
                let idx = (next() as usize) % bytes.len();
                bytes[idx] ^= (next() as u8) | 1;
                let _ = Message::decode(Bytes::from(bytes.clone()));
                let _ = Frame::decode(Bytes::from(bytes));
            }
            // Adversarial shape rewrite: blow up rows/cols in matrix frames.
            if frame.len() >= 13 {
                let mut bytes = frame.as_slice().to_vec();
                bytes[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
                bytes[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
                let _ = Message::decode(Bytes::from(bytes));
            }
        }
    }
}
