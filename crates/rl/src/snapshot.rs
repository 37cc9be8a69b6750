//! The RL-side checkpoint sections: replay buffers, transitions, metric
//! recorders and telemetry registry state.
//!
//! Each encodes to a blob stored as one section of a v2 checkpoint. The
//! byte layout lives in `hero_autograd::serialize`: every blob here is
//! read through its bounds-checked [`Reader`] and written with its `put_*`
//! writers, so corrupt input yields a typed [`CheckpointError`], never a
//! panic or an unbounded allocation.

use std::collections::BTreeMap;

use hero_autograd::serialize::{
    put_f32, put_f32s, put_f64, put_f64s, put_name, put_string, put_u32, put_u64, put_u8, Reader,
};
use hero_autograd::CheckpointError;
use hero_telemetry::{HistogramState, RegistryState};

use crate::buffer::ReplayBuffer;
use crate::metrics::Recorder;
use crate::transition::{JointTransition, OptionTransition, Transition};

/// A type that can be snapshotted to/from the wire format.
pub trait Codec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] from the underlying reads.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError>;
}

impl Codec for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f32(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        r.f32()
    }
}

impl Codec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        r.u64()
    }
}

impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(r.u64()? as usize)
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u8(out, u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CheckpointError::Malformed(format!(
                "invalid bool byte {other}"
            ))),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_slice(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
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
            None => put_u8(out, 0),
            Some(v) => {
                put_u8(out, 1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(CheckpointError::Malformed(format!(
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
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
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
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
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
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
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
    put_u64(&mut out, buf.capacity() as u64);
    put_u64(&mut out, buf.head() as u64);
    encode_slice(buf.items(), &mut out);
    out
}

/// Encodes a slice as a `Vec` encodes: `u64` length, then each item. Lets
/// [`encode_replay`] encode the buffer's storage without cloning it.
fn encode_slice<T: Codec>(items: &[T], out: &mut Vec<u8>) {
    put_u64(out, items.len() as u64);
    for v in items {
        v.encode(out);
    }
}

/// Decodes a replay buffer encoded by [`encode_replay`]. Resumed sampling
/// and eviction are bit-identical to the original buffer.
///
/// # Errors
///
/// Any [`CheckpointError`] on truncation or inconsistent parts.
pub fn decode_replay<T: Codec>(bytes: &[u8]) -> Result<ReplayBuffer<T>, CheckpointError> {
    let mut r = Reader::new(bytes);
    let capacity = r.u64()? as usize;
    let head = r.u64()? as usize;
    let items: Vec<T> = Codec::decode(&mut r)?;
    r.finish("replay buffer")?;
    ReplayBuffer::from_parts(capacity, items, head).map_err(CheckpointError::Malformed)
}

/// Encodes a metric [`Recorder`]: every named series with its values.
pub fn encode_recorder(rec: &Recorder) -> Vec<u8> {
    let mut out = Vec::new();
    let names = rec.names();
    put_u64(&mut out, names.len() as u64);
    for name in names {
        put_string(&mut out, name);
        let series = rec.series(name).unwrap_or(&[]);
        put_u64(&mut out, series.len() as u64);
        put_f32s(&mut out, series);
    }
    out
}

/// Decodes a recorder written by [`encode_recorder`].
///
/// # Errors
///
/// Any [`CheckpointError`] on truncation or malformed names.
pub fn decode_recorder(bytes: &[u8]) -> Result<Recorder, CheckpointError> {
    let mut r = Reader::new(bytes);
    let n_series = r.len(8)?;
    let mut series: BTreeMap<String, Vec<f32>> = BTreeMap::new();
    for _ in 0..n_series {
        let name = r.string()?;
        let len = r.len(4)?;
        series.insert(name, r.f32s(len)?);
    }
    r.finish("recorder")?;
    let mut rec = Recorder::default();
    for (name, values) in series {
        for v in values {
            rec.push(&name, v);
        }
    }
    Ok(rec)
}

/// Largest reservoir capacity a decoded telemetry histogram may declare.
const MAX_RESERVOIR: usize = 1 << 24;

/// Encodes a telemetry [`RegistryState`]: counters, then span and value
/// histograms, each map as a `u32` count of `(name, entry)` pairs.
pub fn encode_registry(state: &RegistryState) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, state.counters.len() as u32);
    for (name, &total) in &state.counters {
        put_name(&mut out, name);
        put_u64(&mut out, total);
    }
    for map in [&state.spans, &state.values] {
        put_u32(&mut out, map.len() as u32);
        for (name, h) in map {
            put_name(&mut out, name);
            put_u64(&mut out, h.count);
            put_u64(&mut out, h.rejected);
            put_f64(&mut out, h.sum);
            put_f64(&mut out, h.min);
            put_f64(&mut out, h.max);
            put_u64(&mut out, h.capacity as u64);
            put_u64(&mut out, h.rng_state);
            put_u64(&mut out, h.reservoir.len() as u64);
            put_f64s(&mut out, &h.reservoir);
        }
    }
    out
}

/// Decodes telemetry state written by [`encode_registry`].
///
/// # Errors
///
/// Any [`CheckpointError`] on truncation, a reservoir longer than its
/// capacity, or a capacity over 2^24.
pub fn decode_registry(bytes: &[u8]) -> Result<RegistryState, CheckpointError> {
    let mut r = Reader::new(bytes);
    let mut counters = BTreeMap::new();
    for _ in 0..r.u32()? {
        let name = r.name("telemetry")?;
        counters.insert(name, r.u64()?);
    }
    let mut maps = [BTreeMap::new(), BTreeMap::new()];
    for map in &mut maps {
        for _ in 0..r.u32()? {
            let name = r.name("telemetry")?;
            map.insert(name, decode_histogram(&mut r)?);
        }
    }
    r.finish("telemetry state")?;
    let [spans, values] = maps;
    Ok(RegistryState {
        counters,
        spans,
        values,
    })
}

fn decode_histogram(r: &mut Reader<'_>) -> Result<HistogramState, CheckpointError> {
    let count = r.u64()?;
    let rejected = r.u64()?;
    let sum = r.f64()?;
    let min = r.f64()?;
    let max = r.f64()?;
    let capacity = r.u64()? as usize;
    let rng_state = r.u64()?;
    let len = r.u64()? as usize;
    if len > capacity || capacity > MAX_RESERVOIR {
        return Err(CheckpointError::Malformed(format!(
            "telemetry histogram reservoir length {len} exceeds capacity {capacity}"
        )));
    }
    Ok(HistogramState {
        count,
        rejected,
        sum,
        min,
        max,
        reservoir: r.f64s(len)?,
        capacity,
        rng_state,
    })
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
        r.finish("transition").unwrap();
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

    /// One fixed telemetry state covering every field: two counters, a
    /// span histogram, a value histogram at capacity, and an empty one
    /// (infinite extrema, no reservoir).
    fn fixed_registry_state() -> RegistryState {
        let hist = |count: u64, sum: f64, reservoir: Vec<f64>| HistogramState {
            count,
            rejected: 1,
            sum,
            min: -0.5,
            max: 2.25,
            reservoir,
            capacity: 4,
            rng_state: 0x9e37_79b9_7f4a_7c15,
        };
        RegistryState {
            counters: [
                ("env_steps".to_string(), 41),
                ("grad_updates".to_string(), 7),
            ]
            .into(),
            spans: [(
                "rollout/env_step".to_string(),
                hist(3, 1.75, vec![-0.5, 0.0, 2.25]),
            )]
            .into(),
            values: [
                (
                    "reward".to_string(),
                    hist(5, 4.0, vec![1.0, -0.5, 2.25, 1.25]),
                ),
                (
                    "empty".to_string(),
                    HistogramState {
                        count: 0,
                        rejected: 0,
                        sum: 0.0,
                        min: f64::INFINITY,
                        max: f64::NEG_INFINITY,
                        reservoir: Vec::new(),
                        capacity: 1024,
                        rng_state: 1,
                    },
                ),
            ]
            .into(),
        }
    }

    #[test]
    fn registry_state_bytes_are_pinned() {
        // Trainer checkpoints carry this encoding in their `telemetry`
        // section; the length and FNV-1a hash pin its layout.
        const PINNED_LEN: usize = 344;
        const PINNED_FNV1A: u64 = 0x0c42_feac_1b1b_5b33;
        let bytes = encode_registry(&fixed_registry_state());
        let fnv1a = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(
            (bytes.len(), fnv1a),
            (PINNED_LEN, PINNED_FNV1A),
            "telemetry state bytes changed: (len, FNV-1a) = ({}, {fnv1a:#018x})",
            bytes.len()
        );
        assert_eq!(decode_registry(&bytes).unwrap(), fixed_registry_state());
    }

    #[test]
    fn registry_state_roundtrip_restores_bit_identically() {
        use hero_telemetry::{Registry, TelemetryConfig};
        use std::time::Duration;

        let a = Registry::new(TelemetryConfig::default());
        a.counter_add("env_steps", 41);
        a.record_span("rollout", Duration::from_micros(120));
        for i in 0..200 {
            a.observe("reward", (i as f64).cos());
        }
        let blob = encode_registry(&a.export_state());
        let state = decode_registry(&blob).unwrap();
        assert_eq!(state, a.export_state());
        assert_eq!(encode_registry(&state), blob);

        let b = Registry::new(TelemetryConfig::default());
        b.restore_state(&state).unwrap();
        // Continue both identically; stats must stay bit-identical.
        for r in [&a, &b] {
            r.counter_add("env_steps", 1);
            for i in 200..400 {
                r.observe("reward", (i as f64).cos());
            }
        }
        assert_eq!(a.export_state(), b.export_state());
        assert_eq!(a.snapshot().values, b.snapshot().values);
    }

    #[test]
    fn corrupt_registry_state_fails_cleanly() {
        let blob = encode_registry(&fixed_registry_state());
        for cut in 0..blob.len() {
            assert!(
                decode_registry(&blob[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        let mut trailing = blob.clone();
        trailing.push(0);
        assert!(matches!(
            decode_registry(&trailing),
            Err(CheckpointError::Malformed(_))
        ));
        // A reservoir longer than its histogram's capacity is refused.
        let mut state = fixed_registry_state();
        state.values.get_mut("reward").unwrap().capacity = 2;
        assert!(matches!(
            decode_registry(&encode_registry(&state)),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
