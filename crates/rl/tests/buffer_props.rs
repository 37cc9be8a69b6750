//! Property tests for the replay buffer and the schedules.

use hero_rl::buffer::ReplayBuffer;
use hero_rl::schedule::Schedule;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A ring buffer never exceeds capacity and always retains exactly the
    /// most recent `min(pushes, capacity)` items.
    fn ring_buffer_retains_most_recent(
        capacity in 1usize..64,
        pushes in 0usize..200,
    ) {
        let mut buf = ReplayBuffer::new(capacity);
        for i in 0..pushes {
            buf.push(i);
        }
        prop_assert_eq!(buf.len(), pushes.min(capacity));
        let mut items: Vec<usize> = buf.iter().copied().collect();
        items.sort_unstable();
        let expected: Vec<usize> = (pushes.saturating_sub(capacity)..pushes).collect();
        prop_assert_eq!(items, expected);
    }

    /// A draw names `n` stored items, the ones `sample` returns for the
    /// same random stream, whether or not the buffer has wrapped.
    fn draw_resolves_to_stored_items(
        capacity in 1usize..128,
        pushes in 1usize..300,
        n in 0usize..256,
    ) {
        let mut buf = ReplayBuffer::new(capacity);
        for i in 0..pushes {
            buf.push(i);
        }
        let draw = buf.draw(&mut StdRng::seed_from_u64(7), n);
        let drawn: Vec<usize> = buf.resolve(&draw).into_iter().copied().collect();
        let sampled: Vec<usize> = buf
            .sample(&mut StdRng::seed_from_u64(7), n)
            .into_iter()
            .copied()
            .collect();
        prop_assert_eq!(drawn.len(), n);
        prop_assert!(drawn.iter().all(|&i| i < pushes && i + capacity >= pushes));
        prop_assert_eq!(drawn, sampled);
    }

    /// Schedules are monotone in the direction of their endpoints.
    fn linear_schedule_monotone(start in -5.0f32..5.0, end in -5.0f32..5.0, steps in 1usize..100) {
        let s = Schedule::Linear { start, end, steps };
        let mut prev = s.value(0);
        prop_assert!((prev - start).abs() < 1e-5);
        for t in 1..steps + 10 {
            let v = s.value(t);
            if end >= start {
                prop_assert!(v >= prev - 1e-5);
            } else {
                prop_assert!(v <= prev + 1e-5);
            }
            prev = v;
        }
        prop_assert!((s.value(steps + 100) - end).abs() < 1e-5);
    }
}
