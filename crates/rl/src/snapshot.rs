//! Binary snapshot codec for RL state: replay buffers, transitions and
//! metric recorders.
//!
//! Everything encodes to compact little-endian blobs intended to be stored
//! as opaque sections of a v2 checkpoint (`hero_autograd::serialize`).
//! Decoding is fully bounds-checked: corrupted input yields a typed
//! [`SnapshotError`], never a panic or unbounded allocation.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::buffer::ReplayBuffer;
use crate::metrics::Recorder;
use crate::transition::{JointTransition, OptionTransition, Transition};

/// Error decoding a snapshot blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The blob ended before all declared data was read.
    Truncated,
    /// A structural invariant is violated (impossible lengths, invalid
    /// buffer state, non-UTF-8 strings, ...).
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot blob is truncated"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl Error for SnapshotError {}

/// Bounds-checked little-endian reader over a snapshot blob.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` for reading from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64` length prefix, capped so hostile blobs cannot force
    /// huge allocations: the declared element count must fit in the bytes
    /// remaining assuming at least `min_elem_bytes` bytes per element.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, SnapshotError> {
        let n = self.len(1)?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| SnapshotError::Malformed("string is not utf-8".to_string()))
    }

    /// Fails unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A type that can be snapshotted to/from the wire format.
pub trait Codec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from the underlying reads.
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError>;
}

impl Codec for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        r.f32()
    }
}

impl Codec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        r.u64()
    }
}

impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(r.u64()? as usize)
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed(format!("invalid bool byte {other}"))),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let n = r.len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(SnapshotError::Malformed(format!(
                "invalid option tag {other}"
            ))),
        }
    }
}

impl<A: Codec> Codec for Transition<A> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.obs.encode(out);
        self.action.encode(out);
        self.reward.encode(out);
        self.next_obs.encode(out);
        self.done.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            obs: Codec::decode(r)?,
            action: Codec::decode(r)?,
            reward: Codec::decode(r)?,
            next_obs: Codec::decode(r)?,
            done: Codec::decode(r)?,
        })
    }
}

impl<A: Codec> Codec for JointTransition<A> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.obs.encode(out);
        self.actions.encode(out);
        self.rewards.encode(out);
        self.next_obs.encode(out);
        self.done.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            obs: Codec::decode(r)?,
            actions: Codec::decode(r)?,
            rewards: Codec::decode(r)?,
            next_obs: Codec::decode(r)?,
            done: Codec::decode(r)?,
        })
    }
}

impl Codec for OptionTransition {
    fn encode(&self, out: &mut Vec<u8>) {
        self.obs.encode(out);
        self.option.encode(out);
        self.other_options.encode(out);
        self.reward.encode(out);
        self.duration.encode(out);
        self.next_obs.encode(out);
        self.done.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            obs: Codec::decode(r)?,
            option: Codec::decode(r)?,
            other_options: Codec::decode(r)?,
            reward: Codec::decode(r)?,
            duration: Codec::decode(r)?,
            next_obs: Codec::decode(r)?,
            done: Codec::decode(r)?,
        })
    }
}

/// Encodes a replay buffer: capacity, head, then items in storage order.
pub fn encode_replay<T: Codec>(buf: &ReplayBuffer<T>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(buf.capacity() as u64).to_le_bytes());
    out.extend_from_slice(&(buf.head() as u64).to_le_bytes());
    buf.items().to_vec_encode(&mut out);
    out
}

// Helper so `encode_replay` can encode a slice without cloning items.
trait SliceEncode {
    fn to_vec_encode(&self, out: &mut Vec<u8>);
}

impl<T: Codec> SliceEncode for [T] {
    fn to_vec_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for v in self {
            v.encode(out);
        }
    }
}

/// Decodes a replay buffer encoded by [`encode_replay`]. Resumed sampling
/// and eviction are bit-identical to the original buffer.
///
/// # Errors
///
/// Any [`SnapshotError`] on truncation or inconsistent parts.
pub fn decode_replay<T: Codec>(bytes: &[u8]) -> Result<ReplayBuffer<T>, SnapshotError> {
    let mut r = Reader::new(bytes);
    let capacity = r.u64()? as usize;
    let head = r.u64()? as usize;
    let items: Vec<T> = Codec::decode(&mut r)?;
    r.finish()?;
    ReplayBuffer::from_parts(capacity, items, head).map_err(SnapshotError::Malformed)
}

/// Encodes a metric [`Recorder`]: every named series with its values.
pub fn encode_recorder(rec: &Recorder) -> Vec<u8> {
    let mut out = Vec::new();
    let names = rec.names();
    out.extend_from_slice(&(names.len() as u64).to_le_bytes());
    for name in names {
        put_string(&mut out, name);
        let series = rec.series(name).unwrap_or(&[]);
        out.extend_from_slice(&(series.len() as u64).to_le_bytes());
        for &v in series {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Decodes a recorder written by [`encode_recorder`].
///
/// # Errors
///
/// Any [`SnapshotError`] on truncation or malformed names.
pub fn decode_recorder(bytes: &[u8]) -> Result<Recorder, SnapshotError> {
    let mut r = Reader::new(bytes);
    let n_series = r.len(8)?;
    let mut series: BTreeMap<String, Vec<f32>> = BTreeMap::new();
    for _ in 0..n_series {
        let name = r.string()?;
        let len = r.len(4)?;
        let raw = r.take(len * 4)?;
        let mut values = Vec::with_capacity(len);
        for chunk in raw.chunks_exact(4) {
            values.push(f32::from_le_bytes(chunk.try_into().unwrap()));
        }
        series.insert(name, values);
    }
    r.finish()?;
    let mut rec = Recorder::default();
    for (name, values) in series {
        for v in values {
            rec.push(&name, v);
        }
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_transition(i: usize) -> Transition<usize> {
        Transition {
            obs: vec![i as f32, -1.0],
            action: i % 4,
            reward: i as f32 * 0.5,
            next_obs: vec![i as f32 + 1.0, 1.0],
            done: i % 3 == 0,
        }
    }

    #[test]
    fn replay_roundtrip_resumes_identically() {
        let mut buf = ReplayBuffer::new(8);
        for i in 0..13 {
            buf.push(sample_transition(i));
        }
        let mut restored: ReplayBuffer<Transition<usize>> =
            decode_replay(&encode_replay(&buf)).unwrap();
        assert_eq!(restored.len(), buf.len());
        assert_eq!(restored.head(), buf.head());
        // Same pushes + samples on both must stay identical.
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        for i in 13..20 {
            buf.push(sample_transition(i));
            restored.push(sample_transition(i));
        }
        let a: Vec<_> = buf.sample(&mut rng_a, 16).iter().map(|t| t.reward).collect();
        let b: Vec<_> = restored
            .sample(&mut rng_b, 16)
            .iter()
            .map(|t| t.reward)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn recorder_roundtrip_preserves_series() {
        let mut rec = Recorder::default();
        for i in 0..10 {
            rec.push("reward", i as f32);
            rec.push("loss", -(i as f32));
        }
        let restored = decode_recorder(&encode_recorder(&rec)).unwrap();
        assert_eq!(restored.names(), rec.names());
        for name in rec.names() {
            assert_eq!(restored.series(name), rec.series(name));
        }
    }

    #[test]
    fn option_transition_codec_roundtrip() {
        let t = OptionTransition {
            obs: vec![0.5, -0.25],
            option: 2,
            other_options: vec![0, 3],
            reward: 1.5,
            duration: 7,
            next_obs: vec![0.0],
            done: true,
        };
        let mut bytes = Vec::new();
        t.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = OptionTransition::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.obs, t.obs);
        assert_eq!(back.option, t.option);
        assert_eq!(back.other_options, t.other_options);
        assert_eq!(back.duration, t.duration);
        assert_eq!(back.done, t.done);
    }

    #[test]
    fn corrupted_blobs_fail_cleanly() {
        let mut buf = ReplayBuffer::new(4);
        for i in 0..4 {
            buf.push(sample_transition(i));
        }
        let bytes = encode_replay(&buf);
        for cut in 0..bytes.len() {
            let r: Result<ReplayBuffer<Transition<usize>>, _> = decode_replay(&bytes[..cut]);
            assert!(r.is_err(), "cut {cut}");
        }
        // Hostile length prefix: claims 2^60 items.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&4u64.to_le_bytes());
        hostile.extend_from_slice(&0u64.to_le_bytes());
        hostile.extend_from_slice(&(1u64 << 60).to_le_bytes());
        let r: Result<ReplayBuffer<Transition<usize>>, _> = decode_replay(&hostile);
        assert!(r.is_err());
    }
}
