//! # silofuse-checkpoint
//!
//! Crash-safe checkpoint files for every training loop in the SiloFuse
//! stack. The design goals, in order:
//!
//! 1. **Never a torn checkpoint.** Files are written to a `.tmp` sibling,
//!    fsynced, then atomically renamed into place; a crash mid-write
//!    leaves the previous checkpoint intact.
//! 2. **Never a silent bad resume.** Every file carries a magic number, a
//!    format version, a payload kind (the pipeline phase that wrote it),
//!    and a CRC-32 over everything before it. Corruption, truncation,
//!    version skew, and phase mix-ups all surface as a typed
//!    [`CheckpointError`], not a panic or garbage parameters. The CRC is
//!    table-driven ([`crc32`]), about 0.5 ns per byte; the bit-at-a-time
//!    loop it replaced took most of a model reload's time.
//! 3. **Bit-identical resume.** The payload is opaque to this crate;
//!    producers (silofuse-models, silofuse-distributed) put full
//!    training-state dicts plus RNG states in it so a resumed run replays
//!    the exact stream an uninterrupted run would have produced.
//!
//! File layout (all little-endian):
//!
//! ```text
//! magic    [u8; 8]  = b"SILOCKPT"
//! version  u32      = 1
//! kind     u16 len | utf-8 bytes     (pipeline phase, e.g. "ae-train")
//! step     u64                       (completed steps at snapshot time)
//! payload  u32 len | bytes
//! crc      u32                       (CRC-32/IEEE over all prior bytes)
//! ```
//!
//! When telemetry is on, each write counts `checkpoint.writes` and
//! `checkpoint.bytes_written` inside a `checkpoint.write` span, and each
//! verified load counts `checkpoint.loads` and `checkpoint.bytes_read`
//! (the file's length) inside a `checkpoint.load` span.

#![warn(missing_docs)]

use silofuse_observe as observe;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File magic: identifies a SiloFuse checkpoint.
pub const MAGIC: [u8; 8] = *b"SILOCKPT";
/// Current checkpoint format version.
pub const VERSION: u32 = 1;

/// Canonical metric names (defined centrally in [`silofuse_observe::names`]).
pub mod names {
    pub use silofuse_observe::names::{
        CHECKPOINT_BYTES, CHECKPOINT_BYTES_READ, CHECKPOINT_CRASH, CHECKPOINT_LOADS,
        CHECKPOINT_LOAD_SPAN, CHECKPOINT_TMP_SWEPT, CHECKPOINT_WRITES, CHECKPOINT_WRITE_SPAN,
    };
}

/// Errors raised by checkpoint reads, writes, and injected crashes.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure while reading or writing.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the file.
        got: u32,
    },
    /// The file ended before the declared contents.
    Truncated,
    /// The CRC over the file contents does not match the stored CRC.
    CrcMismatch {
        /// CRC stored in the file.
        expected: u32,
        /// CRC computed over the contents.
        got: u32,
    },
    /// The checkpoint was written by a different pipeline phase.
    KindMismatch {
        /// Kind stored in the file.
        got: String,
        /// Kind the reader expected.
        expected: String,
    },
    /// The payload failed to restore into the live model (shape or count
    /// mismatch, malformed training-state dict, ...).
    State(String),
    /// An injected process crash fired ([`Checkpointer::crash_due`]); the
    /// run should be restarted from its last checkpoint.
    Crashed {
        /// Phase in which the crash fired.
        phase: String,
        /// Completed steps at the moment of the crash.
        step: u64,
    },
}

impl CheckpointError {
    /// Wraps any displayable restore failure as [`CheckpointError::State`].
    pub fn state(err: impl fmt::Display) -> Self {
        CheckpointError::State(err.to_string())
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint i/o on {}: {source}", path.display())
            }
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion { got } => {
                write!(f, "unsupported checkpoint version {got} (this build reads {VERSION})")
            }
            CheckpointError::Truncated => write!(f, "truncated checkpoint file"),
            CheckpointError::CrcMismatch { expected, got } => {
                write!(f, "checkpoint CRC mismatch: stored {expected:#010x}, computed {got:#010x}")
            }
            CheckpointError::KindMismatch { got, expected } => {
                write!(f, "checkpoint was written by phase `{got}`, expected `{expected}`")
            }
            CheckpointError::State(msg) => write!(f, "checkpoint state restore failed: {msg}"),
            CheckpointError::Crashed { phase, step } => {
                write!(f, "injected crash at {phase}:{step}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The CRC-32/IEEE polynomial (zlib, PNG, Ethernet), bit-reflected.
const POLY: u32 = 0xEDB8_8320;

/// Lookup tables for [`crc32`]: `CRC_TABLES[0][b]` is the CRC register
/// after shifting byte `b` through it, and `CRC_TABLES[k][b]` is that
/// register advanced past `k` further zero bytes. Built at compile time.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32/IEEE (the zlib polynomial), bit-reflected, table-driven
/// slicing-by-16: each step folds a 16-byte block through 16 independent
/// lookups instead of 128 dependent shift/mask steps, and the one-table
/// loop takes the last `len % 16` bytes. The checksum is the same as the
/// bit-at-a-time loop's for every input; over a Loan model's 1 973 900
/// checkpoint bytes it takes about 1 ms instead of 13 (2-vCPU AVX-512
/// host).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        // The register folds into the block's first four bytes (read as a
        // little-endian word); byte `i` then has `15 - i` bytes after it.
        let mut next = 0;
        for (i, &b) in block.iter().enumerate() {
            let b = if i < 4 { b ^ (crc >> (8 * i)) as u8 } else { b };
            next ^= CRC_TABLES[15 - i][b as usize];
        }
        crc = next;
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// A decoded checkpoint: phase kind, step counter, and the opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Pipeline phase that wrote the checkpoint.
    pub kind: String,
    /// Completed steps at snapshot time.
    pub step: u64,
    /// Producer-defined state blob.
    pub payload: Vec<u8>,
}

/// Encodes a checkpoint into the on-disk byte format (including CRC).
pub fn encode(kind: &str, step: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 + 2 + kind.len() + 8 + 4 + payload.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(kind.len() as u16).to_le_bytes());
    out.extend_from_slice(kind.as_bytes());
    out.extend_from_slice(&step.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes and verifies checkpoint bytes (magic, version, CRC, bounds).
pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
    if bytes.len() < MAGIC.len() {
        return Err(CheckpointError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if bytes.len() < MAGIC.len() + 4 + 4 {
        return Err(CheckpointError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion { got: version });
    }
    // CRC covers everything before the trailing 4 bytes; verify it before
    // trusting any length field.
    let crc_at = bytes.len() - 4;
    let expected = u32::from_le_bytes(bytes[crc_at..].try_into().unwrap());
    let got = crc32(&bytes[..crc_at]);
    if expected != got {
        return Err(CheckpointError::CrcMismatch { expected, got });
    }
    let body = &bytes[..crc_at];
    let mut cursor = 12usize;
    let take = |cursor: &mut usize, n: usize| -> Result<&[u8], CheckpointError> {
        let end = cursor.checked_add(n).ok_or(CheckpointError::Truncated)?;
        let slice = body.get(*cursor..end).ok_or(CheckpointError::Truncated)?;
        *cursor = end;
        Ok(slice)
    };
    let kind_len = u16::from_le_bytes(take(&mut cursor, 2)?.try_into().unwrap()) as usize;
    let kind = std::str::from_utf8(take(&mut cursor, kind_len)?)
        .map_err(|_| CheckpointError::BadMagic)?
        .to_string();
    let step = u64::from_le_bytes(take(&mut cursor, 8)?.try_into().unwrap());
    let payload_len = u32::from_le_bytes(take(&mut cursor, 4)?.try_into().unwrap()) as usize;
    let payload = take(&mut cursor, payload_len)?.to_vec();
    if cursor != body.len() {
        return Err(CheckpointError::Truncated);
    }
    Ok(Checkpoint { kind, step, payload })
}

/// Writes `bytes` to `path` atomically: a `.tmp` sibling is written and
/// fsynced first, then renamed over the destination, so readers only ever
/// observe either the old complete file or the new complete file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let io = |source: std::io::Error| CheckpointError::Io { path: path.to_path_buf(), source };
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp).map_err(io)?;
    file.write_all(bytes).map_err(io)?;
    file.sync_all().map_err(io)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io)
}

/// An injected process-crash point: fire when `step` steps of `phase` have
/// completed. Step 0 means "at entry to the phase" (after the phase's
/// work-so-far has been checkpointed, before any further step runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPoint {
    /// Phase label the crash is armed for.
    pub phase: String,
    /// Completed-step count that triggers the crash.
    pub step: u64,
}

impl CrashPoint {
    /// Parses `"<phase>:<step>"`, e.g. `"ae-train:40"`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (phase, step) = spec
            .rsplit_once(':')
            .ok_or_else(|| format!("crash point: expected `phase:step`, got `{spec}`"))?;
        if phase.is_empty() {
            return Err(format!("crash point: empty phase in `{spec}`"));
        }
        let step = step.trim().parse().map_err(|_| format!("crash point: bad step in `{spec}`"))?;
        Ok(Self { phase: phase.trim().to_string(), step })
    }
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.phase, self.step)
    }
}

/// Checkpoint policy handed to training loops: where to write, how often,
/// whether to resume, and an optional armed crash injection.
///
/// A *disabled* checkpointer ([`Checkpointer::disabled`]) turns `save` and
/// `load` into no-ops — plain `fit` calls route through the same resumable
/// loops with one of these, paying nothing — but an armed crash point
/// still fires, which is how "crash with no checkpoint configured" is
/// exercised.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    enabled: bool,
    dir: PathBuf,
    every: u64,
    resume: bool,
    crash: Option<CrashPoint>,
}

impl Checkpointer {
    /// A checkpointer writing to `dir` every `every` steps (and at every
    /// phase boundary regardless of `every`).
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> Self {
        Self { enabled: true, dir: dir.into(), every, resume: false, crash: None }
    }

    /// A checkpointer that never writes or reads; crash points still fire.
    pub fn disabled() -> Self {
        Self { enabled: false, dir: PathBuf::new(), every: 0, resume: false, crash: None }
    }

    /// Whether saves and loads are live.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Enables (or disables) resuming from existing checkpoints.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Arms an injected crash point.
    pub fn with_crash(mut self, crash: Option<CrashPoint>) -> Self {
        self.crash = crash;
        self
    }

    /// Whether resume is requested.
    pub fn resume(&self) -> bool {
        self.resume
    }

    /// The armed crash point, if any.
    pub fn crash(&self) -> Option<&CrashPoint> {
        self.crash.as_ref()
    }

    /// Whether a checkpoint is due after `completed` of `total` steps:
    /// always at the end of the phase, else every `every` steps.
    pub fn due(&self, completed: u64, total: u64) -> bool {
        completed == total || (self.every > 0 && completed.is_multiple_of(self.every))
    }

    /// Whether the armed crash point fires at `completed` steps of `phase`.
    pub fn crash_due(&self, phase: &str, completed: u64) -> bool {
        self.crash.as_ref().is_some_and(|c| c.phase == phase && c.step == completed)
    }

    /// Returns [`CheckpointError::Crashed`] if the armed crash point fires
    /// at `completed` steps of `phase`; counts the injection.
    pub fn maybe_crash(&self, phase: &str, completed: u64) -> Result<(), CheckpointError> {
        if self.crash_due(phase, completed) {
            observe::count(names::CHECKPOINT_CRASH, 1);
            return Err(CheckpointError::Crashed { phase: phase.to_string(), step: completed });
        }
        Ok(())
    }

    /// Path of the checkpoint file for logical name `name`.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.ckpt"))
    }

    /// Atomically writes a checkpoint named `name` for `phase` at `step`.
    /// No-op when the checkpointer is disabled.
    pub fn save(
        &self,
        name: &str,
        phase: &str,
        step: u64,
        payload: &[u8],
    ) -> Result<(), CheckpointError> {
        if !self.enabled {
            return Ok(());
        }
        let _span = observe::span(names::CHECKPOINT_WRITE_SPAN);
        std::fs::create_dir_all(&self.dir)
            .map_err(|source| CheckpointError::Io { path: self.dir.clone(), source })?;
        let bytes = encode(phase, step, payload);
        let path = self.path(name);
        write_atomic(&path, &bytes)?;
        observe::count(names::CHECKPOINT_WRITES, 1);
        observe::count(names::CHECKPOINT_BYTES, bytes.len() as u64);
        Ok(())
    }

    /// Loads the checkpoint named `name`, verifying it was written by
    /// `phase`. Returns `Ok(None)` when the checkpointer is disabled,
    /// resume is off, or no file exists; a file that exists but fails
    /// verification is an error, never a silent fresh start.
    pub fn load(&self, name: &str, phase: &str) -> Result<Option<Checkpoint>, CheckpointError> {
        if !self.enabled || !self.resume {
            return Ok(None);
        }
        let path = self.path(name);
        if !path.exists() {
            return Ok(None);
        }
        let _span = observe::span(names::CHECKPOINT_LOAD_SPAN);
        let bytes = std::fs::read(&path)
            .map_err(|source| CheckpointError::Io { path: path.clone(), source })?;
        let ckpt = decode(&bytes)?;
        if ckpt.kind != phase {
            return Err(CheckpointError::KindMismatch {
                got: ckpt.kind,
                expected: phase.to_string(),
            });
        }
        observe::count(names::CHECKPOINT_LOADS, 1);
        observe::count(names::CHECKPOINT_BYTES_READ, bytes.len() as u64);
        Ok(Some(ckpt))
    }

    /// Removes stale `*.tmp` siblings left in the checkpoint directory by
    /// a crash between [`write_atomic`]'s create and rename — debris that
    /// is by construction incomplete and must never be mistaken for a
    /// checkpoint. Call at startup before the first load (the model
    /// registry and the resume path both do). Returns how many files were
    /// swept; a missing directory is a fresh start, not an error.
    pub fn sweep_stale_tmp(&self) -> Result<usize, CheckpointError> {
        if !self.enabled {
            return Ok(0);
        }
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(source) if source.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(source) => return Err(CheckpointError::Io { path: self.dir.clone(), source }),
        };
        let mut swept = 0usize;
        for entry in entries {
            let entry =
                entry.map_err(|source| CheckpointError::Io { path: self.dir.clone(), source })?;
            let path = entry.path();
            if path.is_file() && path.extension().is_some_and(|ext| ext == "tmp") {
                std::fs::remove_file(&path)
                    .map_err(|source| CheckpointError::Io { path: path.clone(), source })?;
                swept += 1;
            }
        }
        if swept > 0 {
            observe::count(names::CHECKPOINT_TMP_SWEPT, swept as u64);
        }
        Ok(swept)
    }

    /// Step counter of the checkpoint named `name` written by `phase`,
    /// without keeping the payload around. This is the rejoin handshake's
    /// "resume step": a restarted silo reads it to tell the coordinator
    /// how far its persisted state reaches before catching up. Same
    /// `None` semantics as [`Checkpointer::load`].
    pub fn latest_step(&self, name: &str, phase: &str) -> Result<Option<u64>, CheckpointError> {
        Ok(self.load(name, phase)?.map(|c| c.step))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("silofuse-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The bit-at-a-time CRC-32/IEEE: eight dependent shift/mask steps
    /// per byte. The oracle [`crc32`]'s tables must agree with.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    /// `len` pseudo-random bytes (a 64-bit LCG's high bytes).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        // Every tail length and every alignment of the 16-byte blocks.
        let buf = noise(16 + 1_100, 1);
        for start in 0..=15 {
            for len in 0..=1_100 {
                let slice = &buf[start..start + len];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "start {start}, len {len}");
            }
        }
        let big = noise(4 << 20, 2);
        assert_eq!(crc32(&big), crc32_bitwise(&big));
    }

    #[test]
    fn encode_decode_round_trips() {
        let payload = (0u16..600).flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>();
        let bytes = encode("ae-train", 42, &payload);
        let ckpt = decode(&bytes).unwrap();
        assert_eq!(ckpt.kind, "ae-train");
        assert_eq!(ckpt.step, 42);
        assert_eq!(ckpt.payload, payload);

        // A file as the bit-at-a-time CRC wrote it keeps loading, and
        // encoding its contents again gives the same bytes.
        let old = "53494c4f434b505401000000080061652d747261696e2a000000000000000b00000077\
                   6569676874730001feff6b3ad216";
        let old: Vec<u8> = (0..old.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&old[i..i + 2], 16).unwrap())
            .collect();
        let ckpt = decode(&old).unwrap();
        assert_eq!((ckpt.kind.as_str(), ckpt.step), ("ae-train", 42));
        assert_eq!(ckpt.payload, b"weights\x00\x01\xfe\xff");
        assert_eq!(encode(&ckpt.kind, ckpt.step, &ckpt.payload), old);
    }

    #[test]
    fn corruption_truncation_and_version_skew_are_typed_errors() {
        let bytes = encode("phase", 7, b"payload");

        let mut flipped = bytes.clone();
        flipped[20] ^= 0xff;
        assert!(matches!(decode(&flipped), Err(CheckpointError::CrcMismatch { .. })));

        for cut in [0, 4, 11, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Truncated | CheckpointError::CrcMismatch { .. }),
                "cut at {cut}: {err}"
            );
        }

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(decode(&wrong_magic), Err(CheckpointError::BadMagic)));

        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&9u32.to_le_bytes());
        // Re-stamp the CRC so version skew is what's detected, not the CRC.
        let crc_at = future.len() - 4;
        let crc = crc32(&future[..crc_at]);
        future[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&future), Err(CheckpointError::UnsupportedVersion { got: 9 })));
    }

    #[test]
    fn atomic_write_leaves_no_tmp_and_survives_overwrite() {
        let dir = tmp_dir("atomic");
        let ck = Checkpointer::new(&dir, 10).with_resume(true);
        ck.save("model", "train", 5, b"first").unwrap();
        ck.save("model", "train", 9, b"second").unwrap();
        assert!(!ck.path("model").with_extension("tmp").exists(), "tmp file must be renamed");
        let loaded = ck.load("model", "train").unwrap().unwrap();
        assert_eq!(loaded.step, 9);
        assert_eq!(loaded.payload, b"second");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_policies() {
        let dir = tmp_dir("policies");
        let ck = Checkpointer::new(&dir, 10);
        // Resume off → None even though nothing exists either way.
        assert!(ck.load("x", "p").unwrap().is_none());
        let ck = ck.with_resume(true);
        // Missing file → None (fresh start).
        assert!(ck.load("x", "p").unwrap().is_none());
        ck.save("x", "p", 1, b"data").unwrap();
        // Wrong phase → typed error, not a silent bad resume.
        assert!(matches!(ck.load("x", "other"), Err(CheckpointError::KindMismatch { .. })));
        // Torn file on disk → typed error.
        std::fs::write(ck.path("torn"), b"SILOCKPT\x01\x00").unwrap();
        assert!(ck.load("torn", "p").is_err());
        // Disabled → complete no-op.
        let off = Checkpointer::disabled();
        assert!(off.load("x", "p").unwrap().is_none());
        off.save("x", "p", 1, b"ignored").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_step_reports_resume_point() {
        let dir = tmp_dir("latest-step");
        let ck = Checkpointer::new(&dir, 10).with_resume(true);
        assert_eq!(ck.latest_step("silo0-ae", "ae-train").unwrap(), None);
        ck.save("silo0-ae", "ae-train", 80, b"weights").unwrap();
        assert_eq!(ck.latest_step("silo0-ae", "ae-train").unwrap(), Some(80));
        // Phase mismatch stays a typed error, never a silent wrong step.
        assert!(ck.latest_step("silo0-ae", "latent-train").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_sweep_removes_crash_debris_but_not_checkpoints() {
        let dir = tmp_dir("sweep");
        let ck = Checkpointer::new(&dir, 10).with_resume(true);
        ck.save("model", "train", 7, b"good").unwrap();
        // Simulate a crash between create and rename: torn .tmp siblings
        // (one for an existing checkpoint, one orphaned) litter the dir.
        std::fs::write(dir.join("model.tmp"), b"SILOCKPT torn mid-write").unwrap();
        std::fs::write(dir.join("orphan.tmp"), b"partial").unwrap();
        assert_eq!(ck.sweep_stale_tmp().unwrap(), 2);
        assert!(!dir.join("model.tmp").exists());
        assert!(!dir.join("orphan.tmp").exists());
        // The completed checkpoint is untouched and still loads.
        let loaded = ck.load("model", "train").unwrap().unwrap();
        assert_eq!(loaded.step, 7);
        assert_eq!(loaded.payload, b"good");
        // Idempotent, and a fresh-start (missing) directory is a no-op.
        assert_eq!(ck.sweep_stale_tmp().unwrap(), 0);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(ck.sweep_stale_tmp().unwrap(), 0);
        assert_eq!(Checkpointer::disabled().sweep_stale_tmp().unwrap(), 0);
    }

    #[test]
    fn due_and_crash_points() {
        let dir = tmp_dir("due");
        let ck = Checkpointer::new(&dir, 50);
        assert!(ck.due(50, 200) && ck.due(100, 200) && ck.due(200, 200));
        assert!(!ck.due(51, 200) && !ck.due(199, 200));
        // every = 0 → only the phase end is due.
        let end_only = Checkpointer::new(&dir, 0);
        assert!(end_only.due(200, 200) && !end_only.due(100, 200));

        let cp = CrashPoint::parse("ae-train:40").unwrap();
        assert_eq!(cp, CrashPoint { phase: "ae-train".into(), step: 40 });
        assert!(CrashPoint::parse("no-colon").is_err());
        assert!(CrashPoint::parse(":3").is_err());
        assert!(CrashPoint::parse("p:x").is_err());

        let armed = Checkpointer::disabled().with_crash(Some(cp));
        assert!(armed.crash_due("ae-train", 40));
        assert!(!armed.crash_due("ae-train", 41));
        assert!(!armed.crash_due("latent-train", 40));
        assert!(matches!(
            armed.maybe_crash("ae-train", 40),
            Err(CheckpointError::Crashed { step: 40, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
