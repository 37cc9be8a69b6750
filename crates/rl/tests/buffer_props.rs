//! Property tests for the replay buffers and the sum tree.

use hero_rl::buffer::ReplayBuffer;
use hero_rl::per::{PrioritizedReplay, SumTree};
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

    /// The sum tree's total always equals the sum of leaf priorities, under
    /// any sequence of sets.
    fn sum_tree_total_consistent(
        capacity in 1usize..64,
        ops in prop::collection::vec((0usize..64, 0.0f32..10.0), 1..100),
    ) {
        let mut tree = SumTree::new(capacity);
        let mut shadow = vec![0.0f32; capacity];
        for (slot, p) in ops {
            let slot = slot % capacity;
            tree.set(slot, p);
            shadow[slot] = p;
        }
        let expected: f32 = shadow.iter().sum();
        prop_assert!((tree.total() - expected).abs() < expected.max(1.0) * 1e-4);
        for (i, &p) in shadow.iter().enumerate() {
            prop_assert!((tree.get(i) - p).abs() < 1e-6);
        }
    }

    /// `find` always returns a leaf with positive priority.
    fn sum_tree_find_hits_positive_leaf(
        capacity in 2usize..64,
        priorities in prop::collection::vec(0.0f32..5.0, 2..64),
        mass_fraction in 0.0f32..1.0,
    ) {
        let mut tree = SumTree::new(capacity);
        let mut any = false;
        for (i, &p) in priorities.iter().take(capacity).enumerate() {
            tree.set(i, p);
            any |= p > 0.0;
        }
        prop_assume!(any);
        let leaf = tree.find(mass_fraction * tree.total());
        prop_assert!(leaf < capacity);
        prop_assert!(tree.get(leaf) > 0.0, "found a zero-priority leaf");
    }

    /// Prioritized sampling never returns evicted slots.
    fn prioritized_never_returns_stale(capacity in 2usize..32, pushes in 33usize..128) {
        let mut buf = PrioritizedReplay::new(capacity, 0.6, 0.4);
        for i in 0..pushes {
            buf.push(i);
        }
        let mut rng = StdRng::seed_from_u64(3);
        for s in buf.sample(&mut rng, 64) {
            prop_assert!(*s.item >= pushes - capacity, "stale item {}", s.item);
        }
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
