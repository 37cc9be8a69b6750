//! Checkpointing: a small, self-describing little-endian binary format.
//!
//! Two on-disk versions exist:
//!
//! - **v1** (legacy): `HERO` magic, version, parameter count, then
//!   per-parameter name, shape, and `f32` data. Still readable.
//! - **v2** (current): `HERO` magic, version, then named byte *sections*
//!   followed by a CRC32 footer over the whole body. Sections carry
//!   parameter tables, optimizer state (moments + step counter), or opaque
//!   user blobs, so one file can hold a complete trainer snapshot.
//!
//! All writes are atomic: bytes go to a temp file in the same directory,
//! are fsynced, and the temp file is renamed over the destination. A crash
//! mid-write can never corrupt an existing checkpoint.
//!
//! All reads are bounded: every length field is validated against the
//! bytes actually present before any allocation, so a truncated or
//! bit-flipped file yields a typed [`CheckpointError`] — never a panic,
//! an OOM, or silently wrong weights (v2 is additionally CRC-checked).

use std::collections::BTreeMap;
use std::fs;
use std::fs::File;
use std::io::Write;
use std::path::Path;

use crate::error::CheckpointError;
use crate::graph::Parameter;
use crate::optim::OptimizerState;
use crate::tensor::Tensor;

const MAGIC: &[u8; 4] = b"HERO";
const VERSION_V1: u32 = 1;
const VERSION_V2: u32 = 2;

/// Hard caps on structural fields; anything larger is [`CheckpointError::Malformed`].
const MAX_NAME_LEN: usize = 4096;
const MAX_RANK: usize = 8;
const MAX_PARAM_COUNT: usize = 1 << 20;
const MAX_SECTION_COUNT: usize = 1 << 16;
const MAX_SLOT_COUNT: usize = 16;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — hand-rolled, no dependencies.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes`, as used by the v2 checkpoint footer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Atomic file replacement.
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the destination, then best-effort directory fsync.
/// The previous file content (if any) survives any mid-write crash.
pub fn write_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .ok_or_else(|| CheckpointError::Malformed("checkpoint path has no file name".into()))?;
    let mut tmp = path.to_path_buf();
    tmp.set_file_name(format!(
        ".{}.tmp{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let write_result: Result<(), std::io::Error> = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        Ok(())
    })();
    if write_result.is_err() {
        fs::remove_file(&tmp).ok();
    }
    write_result?;
    // Make the rename itself durable. Failure here is non-fatal: the data
    // file is already synced and the rename is atomic on the filesystem.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        }) {
            d.sync_all().ok();
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Bounds-checked slice cursor.
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if n > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn name(&mut self, what: &str) -> Result<String, CheckpointError> {
        let len = self.u32()? as usize;
        if len > MAX_NAME_LEN {
            return Err(CheckpointError::Malformed(format!(
                "{what} name length {len} exceeds cap {MAX_NAME_LEN}"
            )));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Malformed(format!("{what} name is not utf-8")))
    }
}

fn put_name(out: &mut Vec<u8>, name: &str) {
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

// ---------------------------------------------------------------------------
// Parameter-table codec (shared by the v1 body and v2 `params` sections).
// ---------------------------------------------------------------------------

/// Encodes a parameter table: count, then per-parameter name, shape, data.
pub fn encode_params(params: &[Parameter]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        put_name(&mut out, &p.name());
        let value = p.value();
        out.extend_from_slice(&(value.rank() as u32).to_le_bytes());
        for &dim in value.shape() {
            out.extend_from_slice(&(dim as u64).to_le_bytes());
        }
        for &x in value.data() {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

/// Decodes a parameter table produced by [`encode_params`] into `params`,
/// matching by position and validating shapes before touching any weights.
pub fn decode_params(bytes: &[u8], params: &[Parameter]) -> Result<(), CheckpointError> {
    let mut c = Cursor::new(bytes);
    decode_params_cursor(&mut c, params)?;
    if c.remaining() != 0 {
        return Err(CheckpointError::Malformed(format!(
            "{} trailing bytes after parameter table",
            c.remaining()
        )));
    }
    Ok(())
}

fn decode_params_cursor(c: &mut Cursor<'_>, params: &[Parameter]) -> Result<(), CheckpointError> {
    let count = c.u32()? as usize;
    if count > MAX_PARAM_COUNT {
        return Err(CheckpointError::Malformed(format!(
            "parameter count {count} exceeds cap {MAX_PARAM_COUNT}"
        )));
    }
    if count != params.len() {
        return Err(CheckpointError::ParameterMismatch {
            expected: format!("{} parameters", params.len()),
            found: format!("{count} parameters"),
        });
    }
    // Validate every entry and stage the new tensors before mutating any
    // parameter, so a corrupt tail can never leave the model half-loaded.
    let mut staged = Vec::with_capacity(params.len());
    for p in params {
        let name = c.name("parameter")?;
        let rank = c.u32()? as usize;
        if rank > MAX_RANK {
            return Err(CheckpointError::Malformed(format!(
                "parameter rank {rank} exceeds cap {MAX_RANK}"
            )));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(c.u64()? as usize);
        }
        if shape != p.shape() {
            return Err(CheckpointError::ParameterMismatch {
                expected: format!("{} with shape {:?}", p.name(), p.shape()),
                found: format!("{name} with shape {shape:?}"),
            });
        }
        let len: usize = shape.iter().product();
        let raw = c.take(len.checked_mul(4).ok_or_else(|| {
            CheckpointError::Malformed("parameter data length overflows".into())
        })?)?;
        let mut data = Vec::with_capacity(len);
        for chunk in raw.chunks_exact(4) {
            data.push(f32::from_le_bytes(chunk.try_into().unwrap()));
        }
        staged.push(Tensor::from_vec(shape, data));
    }
    for (p, t) in params.iter().zip(staged) {
        p.set_value(t);
    }
    Ok(())
}

/// One entry decoded from a parameter table without a model template:
/// the stored name, shape, and raw weights.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamEntry {
    /// Parameter name as written by [`encode_params`] (e.g. `actor.l0.weight`).
    pub name: String,
    /// Tensor shape.
    pub shape: Vec<usize>,
    /// Row-major `f32` data; length is the product of `shape`.
    pub data: Vec<f32>,
}

/// Decodes a parameter table produced by [`encode_params`] without a
/// matching model, returning every entry's name, shape, and data.
///
/// [`decode_params`] is positional — it needs a live model with the same
/// parameter list to load into. Consumers that must *discover* a model's
/// architecture from a checkpoint (the serving daemon infers layer widths
/// and agent counts from stored shapes) use this reader instead and build
/// the template afterwards.
///
/// # Errors
///
/// [`CheckpointError::Truncated`] or [`CheckpointError::Malformed`] on a
/// table that violates the format or its caps.
pub fn decode_param_table(bytes: &[u8]) -> Result<Vec<ParamEntry>, CheckpointError> {
    let mut c = Cursor::new(bytes);
    let count = c.u32()? as usize;
    if count > MAX_PARAM_COUNT {
        return Err(CheckpointError::Malformed(format!(
            "parameter count {count} exceeds cap {MAX_PARAM_COUNT}"
        )));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let name = c.name("parameter")?;
        let rank = c.u32()? as usize;
        if rank > MAX_RANK {
            return Err(CheckpointError::Malformed(format!(
                "parameter rank {rank} exceeds cap {MAX_RANK}"
            )));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(c.u64()? as usize);
        }
        let len: usize = shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d)).ok_or_else(
            || CheckpointError::Malformed("parameter element count overflows".into()),
        )?;
        let raw = c.take(len.checked_mul(4).ok_or_else(|| {
            CheckpointError::Malformed("parameter data length overflows".into())
        })?)?;
        let mut data = Vec::with_capacity(len);
        for chunk in raw.chunks_exact(4) {
            data.push(f32::from_le_bytes(chunk.try_into().unwrap()));
        }
        entries.push(ParamEntry { name, shape, data });
    }
    if c.remaining() != 0 {
        return Err(CheckpointError::Malformed(format!(
            "{} trailing bytes after parameter table",
            c.remaining()
        )));
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Optimizer-state codec.
// ---------------------------------------------------------------------------

/// Encodes an [`OptimizerState`]: kind, step counter, learning rate, and
/// per-slot per-parameter `f32` buffers (SGD velocity; Adam `m`/`v`).
pub fn encode_optimizer(state: &OptimizerState) -> Vec<u8> {
    let mut out = Vec::new();
    put_name(&mut out, &state.kind);
    out.extend_from_slice(&state.t.to_le_bytes());
    out.extend_from_slice(&state.lr.to_le_bytes());
    out.extend_from_slice(&(state.slots.len() as u32).to_le_bytes());
    for slot in &state.slots {
        out.extend_from_slice(&(slot.len() as u32).to_le_bytes());
        for buf in slot {
            out.extend_from_slice(&(buf.len() as u64).to_le_bytes());
            for &x in buf {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    out
}

/// Decodes an optimizer state produced by [`encode_optimizer`].
pub fn decode_optimizer(bytes: &[u8]) -> Result<OptimizerState, CheckpointError> {
    let mut c = Cursor::new(bytes);
    let kind = c.name("optimizer kind")?;
    let t = c.u64()?;
    let lr = c.f32()?;
    let n_slots = c.u32()? as usize;
    if n_slots > MAX_SLOT_COUNT {
        return Err(CheckpointError::Malformed(format!(
            "optimizer slot count {n_slots} exceeds cap {MAX_SLOT_COUNT}"
        )));
    }
    let mut slots = Vec::with_capacity(n_slots);
    for _ in 0..n_slots {
        let n_params = c.u32()? as usize;
        if n_params > MAX_PARAM_COUNT {
            return Err(CheckpointError::Malformed(format!(
                "optimizer parameter count {n_params} exceeds cap {MAX_PARAM_COUNT}"
            )));
        }
        let mut slot = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            let len = c.u64()? as usize;
            let raw = c.take(len.checked_mul(4).ok_or_else(|| {
                CheckpointError::Malformed("optimizer buffer length overflows".into())
            })?)?;
            let mut buf = Vec::with_capacity(len);
            for chunk in raw.chunks_exact(4) {
                buf.push(f32::from_le_bytes(chunk.try_into().unwrap()));
            }
            slot.push(buf);
        }
        slots.push(slot);
    }
    if c.remaining() != 0 {
        return Err(CheckpointError::Malformed(format!(
            "{} trailing bytes after optimizer state",
            c.remaining()
        )));
    }
    Ok(OptimizerState { kind, t, lr, slots })
}

// ---------------------------------------------------------------------------
// v2 sectioned container.
// ---------------------------------------------------------------------------

/// Serializes named sections into the v2 container byte layout:
/// magic, version, section count, `(name, u64 length, payload)` per
/// section, and a trailing CRC32 over everything before the footer.
pub fn encode_sections(sections: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION_V2.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (name, payload) in sections {
        put_name(&mut out, name);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parses a v2 container produced by [`encode_sections`], validating magic,
/// version, CRC footer, and every length field.
pub fn decode_sections(bytes: &[u8]) -> Result<Vec<(String, Vec<u8>)>, CheckpointError> {
    if bytes.len() < 12 {
        return Err(CheckpointError::Truncated);
    }
    if &bytes[..4] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION_V2 {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    let computed = crc32(body);
    if computed != stored {
        return Err(CheckpointError::CorruptedCrc { computed, stored });
    }
    let mut c = Cursor::new(&body[8..]);
    let count = c.u32()? as usize;
    if count > MAX_SECTION_COUNT {
        return Err(CheckpointError::Malformed(format!(
            "section count {count} exceeds cap {MAX_SECTION_COUNT}"
        )));
    }
    let mut sections = Vec::with_capacity(count.min(1024));
    let mut seen = BTreeMap::new();
    for _ in 0..count {
        let name = c.name("section")?;
        let len = c.u64()? as usize;
        let payload = c.take(len)?.to_vec();
        if seen.insert(name.clone(), ()).is_some() {
            return Err(CheckpointError::Malformed(format!(
                "duplicate section `{name}`"
            )));
        }
        sections.push((name, payload));
    }
    if c.remaining() != 0 {
        return Err(CheckpointError::Malformed(format!(
            "{} trailing bytes after last section",
            c.remaining()
        )));
    }
    Ok(sections)
}

/// Atomically writes a v2 checkpoint holding `sections` to `path`.
pub fn save_sections(
    path: impl AsRef<Path>,
    sections: &[(String, Vec<u8>)],
) -> Result<(), CheckpointError> {
    write_atomic(path, &encode_sections(sections))
}

/// Reads and validates a v2 checkpoint written by [`save_sections`].
pub fn load_sections(path: impl AsRef<Path>) -> Result<Vec<(String, Vec<u8>)>, CheckpointError> {
    decode_sections(&fs::read(path)?)
}

/// Looks up one section by name in a decoded section list.
pub fn find_section<'a>(sections: &'a [(String, Vec<u8>)], name: &str) -> Option<&'a [u8]> {
    sections
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, p)| p.as_slice())
}

/// Like [`find_section`] but a missing section is a typed error.
pub fn require_section<'a>(
    sections: &'a [(String, Vec<u8>)],
    name: &str,
) -> Result<&'a [u8], CheckpointError> {
    find_section(sections, name).ok_or_else(|| CheckpointError::MissingSection(name.to_string()))
}

/// Name of the one-byte section recording the GEMM tier a trainer
/// checkpoint's weights were trained under: 0 for strict, 1 for the
/// retired fast-math tier.
pub const KERNEL_MODE_SECTION: &str = "kernel_mode";

/// The [`KERNEL_MODE_SECTION`] every trainer checkpoint carries: strict.
pub fn kernel_mode_section() -> (String, Vec<u8>) {
    (KERNEL_MODE_SECTION.to_string(), vec![0])
}

/// Checks that a checkpoint's weights were trained under strict kernels.
/// Checkpoints written before the section existed carry none and are
/// strict, as strict was then the only tier.
///
/// # Errors
///
/// [`CheckpointError::KernelModeMismatch`] when the section holds 1 (a
/// fast-math checkpoint); [`CheckpointError::Malformed`] for any other
/// byte or length.
pub fn check_kernel_mode(sections: &[(String, Vec<u8>)]) -> Result<(), CheckpointError> {
    match find_section(sections, KERNEL_MODE_SECTION) {
        None | Some([0]) => Ok(()),
        Some([1]) => Err(CheckpointError::KernelModeMismatch),
        Some([byte]) => Err(CheckpointError::Malformed(format!(
            "kernel_mode section has unknown mode byte {byte}"
        ))),
        Some(bytes) => Err(CheckpointError::Malformed(format!(
            "kernel_mode section has {} bytes, expected 1",
            bytes.len()
        ))),
    }
}

// ---------------------------------------------------------------------------
// Parameter-list entry points (v2 writer, v1+v2 reader).
// ---------------------------------------------------------------------------

/// Writes `params` to `path` as a v2 checkpoint with a single `params`
/// section. The write is atomic: an existing checkpoint at `path` is never
/// truncated before the replacement is durable.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on any filesystem failure.
pub fn save_params(path: impl AsRef<Path>, params: &[Parameter]) -> Result<(), CheckpointError> {
    save_sections(path, &[("params".to_string(), encode_params(params))])
}

/// Writes `params` in the legacy v1 layout (atomically). Kept so the
/// v1 reading path stays covered by tests.
pub fn save_params_v1(path: impl AsRef<Path>, params: &[Parameter]) -> Result<(), CheckpointError> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION_V1.to_le_bytes());
    out.extend_from_slice(&encode_params(params));
    write_atomic(path, &out)
}

/// Loads a checkpoint written by [`save_params`] (v2) or by the legacy v1
/// writer into `params`, matching by position and validating shapes.
///
/// # Errors
///
/// Returns [`CheckpointError::BadMagic`] for foreign files,
/// [`CheckpointError::UnsupportedVersion`] for unknown versions,
/// [`CheckpointError::ParameterMismatch`] when counts or shapes differ,
/// [`CheckpointError::CorruptedCrc`] when a v2 footer fails validation, and
/// [`CheckpointError::Truncated`]/[`CheckpointError::Malformed`] on short or
/// structurally invalid files — never a panic.
pub fn load_params(path: impl AsRef<Path>, params: &[Parameter]) -> Result<(), CheckpointError> {
    let bytes = fs::read(path)?;
    if bytes.len() < 8 {
        return Err(if bytes.len() >= 4 && &bytes[..4] != MAGIC {
            CheckpointError::BadMagic
        } else {
            CheckpointError::Truncated
        });
    }
    if &bytes[..4] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    match version {
        VERSION_V1 => {
            let mut c = Cursor::new(&bytes[8..]);
            decode_params_cursor(&mut c, params)?;
            if c.remaining() != 0 {
                return Err(CheckpointError::Malformed(format!(
                    "{} trailing bytes after v1 parameter table",
                    c.remaining()
                )));
            }
            Ok(())
        }
        VERSION_V2 => {
            let sections = decode_sections(&bytes)?;
            decode_params(require_section(&sections, "params")?, params)
        }
        other => Err(CheckpointError::UnsupportedVersion(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer, Sgd};
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hero_autograd_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn kernel_mode_section_accepts_strict_refuses_fast_and_rejects_junk() {
        let with = |bytes: &[u8]| vec![(KERNEL_MODE_SECTION.to_string(), bytes.to_vec())];
        assert!(
            check_kernel_mode(&[]).is_ok(),
            "absent: written before the section existed"
        );
        assert!(check_kernel_mode(&[kernel_mode_section()]).is_ok());
        assert!(check_kernel_mode(&with(&[0])).is_ok());
        assert!(matches!(
            check_kernel_mode(&with(&[1])),
            Err(CheckpointError::KernelModeMismatch)
        ));
        for junk in [&[2u8][..], &[255], &[], &[0, 0], &[1, 0]] {
            let err = check_kernel_mode(&with(junk)).unwrap_err();
            assert!(
                matches!(&err, CheckpointError::Malformed(what) if what.contains("kernel_mode")),
                "{junk:?}: {err}"
            );
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_values() {
        let a = Parameter::new("a", Tensor::from_vec(vec![2, 2], vec![1.0, -2.5, 3.25, 0.0]));
        let b = Parameter::new("b", Tensor::from_slice(&[9.0]));
        let path = temp_path("roundtrip.bin");
        save_params(&path, &[a.clone(), b.clone()]).unwrap();

        let a2 = Parameter::new("a", Tensor::zeros(vec![2, 2]));
        let b2 = Parameter::new("b", Tensor::zeros(vec![1]));
        load_params(&path, &[a2.clone(), b2.clone()]).unwrap();
        assert_eq!(&*a.value(), &*a2.value());
        assert_eq!(&*b.value(), &*b2.value());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn v1_files_still_load() {
        let a = Parameter::new("a", Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]));
        let path = temp_path("v1_compat.bin");
        save_params_v1(&path, &[a.clone()]).unwrap();
        let a2 = Parameter::new("a", Tensor::zeros(vec![3]));
        load_params(&path, &[a2.clone()]).unwrap();
        assert_eq!(&*a.value(), &*a2.value());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_shape_mismatch() {
        let a = Parameter::new("a", Tensor::zeros(vec![2, 2]));
        let path = temp_path("mismatch.bin");
        save_params(&path, &[a]).unwrap();
        let wrong = Parameter::new("a", Tensor::zeros(vec![3]));
        let err = load_params(&path, &[wrong]).unwrap_err();
        assert!(matches!(err, CheckpointError::ParameterMismatch { .. }));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_wrong_count() {
        let a = Parameter::new("a", Tensor::zeros(vec![1]));
        let path = temp_path("count.bin");
        save_params(&path, &[a.clone()]).unwrap();
        let err = load_params(&path, &[a.clone(), a]).unwrap_err();
        assert!(matches!(err, CheckpointError::ParameterMismatch { .. }));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_foreign_file() {
        let path = temp_path("foreign.bin");
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();
        let p = Parameter::new("p", Tensor::zeros(vec![1]));
        let err = load_params(&path, &[p]).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn load_rejects_future_version() {
        let path = temp_path("future.bin");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let p = Parameter::new("p", Tensor::zeros(vec![1]));
        let err = load_params(&path, &[p]).unwrap_err();
        assert!(matches!(err, CheckpointError::UnsupportedVersion(99)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_file_is_typed_error_not_panic() {
        let a = Parameter::new("a", Tensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]));
        let path = temp_path("truncated.bin");
        save_params(&path, &[a]).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [0, 3, 7, 9, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let fresh = Parameter::new("a", Tensor::zeros(vec![4]));
            assert!(
                load_params(&path, &[fresh]).is_err(),
                "cut at {cut} must fail cleanly"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn huge_declared_lengths_do_not_allocate() {
        // A v1 header claiming a 4-billion-byte name must be rejected by
        // the caps, not attempted.
        let path = temp_path("hostile.bin");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION_V1.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one parameter
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd name length
        std::fs::write(&path, bytes).unwrap();
        let p = Parameter::new("p", Tensor::zeros(vec![1]));
        let err = load_params(&path, &[p]).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bitflip_in_v2_is_caught_by_crc() {
        let a = Parameter::new("a", Tensor::from_vec(vec![2], vec![5.0, -5.0]));
        let path = temp_path("bitflip.bin");
        save_params(&path, &[a]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let fresh = Parameter::new("a", Tensor::zeros(vec![2]));
        let err = load_params(&path, &[fresh]).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::CorruptedCrc { .. }
                    | CheckpointError::BadMagic
                    | CheckpointError::UnsupportedVersion(_)
            ),
            "{err}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn failed_load_leaves_params_untouched() {
        let a = Parameter::new("a", Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        let b = Parameter::new("b", Tensor::from_vec(vec![2], vec![3.0, 4.0]));
        let path = temp_path("staged.bin");
        save_params(&path, &[a, b]).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Cut inside the second parameter's data: the first decoded fine,
        // but neither may be written.
        std::fs::write(&path, &full[..full.len() - 6]).unwrap();
        let a2 = Parameter::new("a", Tensor::from_vec(vec![2], vec![-1.0, -1.0]));
        let b2 = Parameter::new("b", Tensor::from_vec(vec![2], vec![-1.0, -1.0]));
        assert!(load_params(&path, &[a2.clone(), b2.clone()]).is_err());
        assert_eq!(a2.value().data(), &[-1.0, -1.0], "no partial load");
        assert_eq!(b2.value().data(), &[-1.0, -1.0], "no partial load");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sections_roundtrip_with_blobs() {
        let path = temp_path("sections.bin");
        let sections = vec![
            ("meta".to_string(), vec![1, 2, 3]),
            ("blob/raw".to_string(), vec![0u8; 257]),
            ("empty".to_string(), Vec::new()),
        ];
        save_sections(&path, &sections).unwrap();
        let loaded = load_sections(&path).unwrap();
        assert_eq!(loaded, sections);
        assert_eq!(find_section(&loaded, "meta"), Some(&[1u8, 2, 3][..]));
        assert!(find_section(&loaded, "absent").is_none());
        assert!(matches!(
            require_section(&loaded, "absent").unwrap_err(),
            CheckpointError::MissingSection(_)
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn duplicate_sections_rejected() {
        let sections = vec![
            ("x".to_string(), vec![1]),
            ("x".to_string(), vec![2]),
        ];
        let bytes = encode_sections(&sections);
        assert!(matches!(
            decode_sections(&bytes).unwrap_err(),
            CheckpointError::Malformed(_)
        ));
    }

    #[test]
    fn optimizer_state_roundtrip_adam() {
        let p = Parameter::new("p", Tensor::from_vec(vec![2], vec![0.0, 0.0]));
        let mut opt = Adam::new(vec![p.clone()], 0.05);
        // Run a couple of real steps so moments and `t` are non-trivial.
        for _ in 0..3 {
            let mut g = crate::graph::Graph::new();
            let pn = g.param(&p);
            let loss = g.sum(pn);
            g.backward(loss);
            opt.step();
        }
        let state = opt.export_state();
        assert_eq!(state.kind, "adam");
        assert_eq!(state.t, 3);
        let decoded = decode_optimizer(&encode_optimizer(&state)).unwrap();
        assert_eq!(decoded, state);

        let q = Parameter::new("q", Tensor::from_vec(vec![2], vec![0.0, 0.0]));
        let mut opt2 = Adam::new(vec![q.clone()], 0.9);
        opt2.import_state(decoded).unwrap();
        assert_eq!(opt2.export_state(), opt.export_state());
    }

    #[test]
    fn optimizer_state_roundtrip_sgd() {
        let p = Parameter::new("p", Tensor::from_slice(&[1.0, 2.0, 3.0]));
        let opt = Sgd::with_momentum(vec![p], 0.1, 0.9);
        let state = opt.export_state();
        assert_eq!(state.kind, "sgd");
        let decoded = decode_optimizer(&encode_optimizer(&state)).unwrap();
        assert_eq!(decoded, state);
    }

    #[test]
    fn optimizer_import_rejects_wrong_kind_and_shape() {
        let p = Parameter::new("p", Tensor::from_slice(&[0.0]));
        let sgd = Sgd::new(vec![p.clone()], 0.1);
        let mut adam = Adam::new(vec![p.clone()], 0.1);
        assert!(adam.import_state(sgd.export_state()).is_err());

        let big = Parameter::new("big", Tensor::from_slice(&[0.0, 0.0]));
        let other = Adam::new(vec![big], 0.1);
        assert!(adam.import_state(other.export_state()).is_err());
    }

    #[test]
    fn atomic_write_replaces_content() {
        let path = temp_path("atomic.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second!").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second!");
        // No temp litter left behind.
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().to_string();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let n = e.file_name().to_string_lossy().to_string();
                n.contains(&stem) && n.contains(".tmp")
            })
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_file(path).ok();
    }
}
