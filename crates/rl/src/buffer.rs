//! Uniform experience replay (the paper's `D_h` / `D_l` buffers, capacity
//! 100 000 per Table I).

use rand::Rng;

/// A fixed-capacity ring buffer with uniform random sampling.
///
/// # Examples
///
/// ```
/// use hero_rl::buffer::ReplayBuffer;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut buf = ReplayBuffer::new(3);
/// for i in 0..5 {
///     buf.push(i);
/// }
/// assert_eq!(buf.len(), 3); // oldest entries evicted
/// let mut rng = StdRng::seed_from_u64(0);
/// let batch = buf.sample(&mut rng, 2);
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ReplayBuffer<T> {
    items: Vec<T>,
    capacity: usize,
    head: usize,
}

impl<T> ReplayBuffer<T> {
    /// Creates a buffer holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay buffer capacity must be positive");
        Self {
            items: Vec::with_capacity(capacity.min(1024)),
            capacity,
            head: 0,
        }
    }

    /// Maximum number of items retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently stored.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Adds an item, evicting the oldest when full.
    pub fn push(&mut self, item: T) {
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            self.items[self.head] = item;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Samples `n` items uniformly with replacement: the items of a
    /// [`ReplayBuffer::draw`].
    ///
    /// # Panics
    ///
    /// Panics when the buffer is empty.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<&T> {
        self.resolve(&self.draw(rng, n))
    }

    /// Draws `n` slots uniformly with replacement (one `gen_range` per
    /// slot, in order): a minibatch held as indices, not cloned items.
    ///
    /// # Panics
    ///
    /// Panics when the buffer is empty.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Draw {
        assert!(!self.is_empty(), "cannot sample from an empty buffer");
        let len = self.items.len();
        Draw {
            slots: (0..n).map(|_| rng.gen_range(0..len)).collect(),
            len,
            head: self.head,
        }
    }

    /// The items a [`Draw`] names, in draw order.
    ///
    /// # Panics
    ///
    /// Panics when the buffer was pushed to since the draw.
    pub fn resolve(&self, draw: &Draw) -> Vec<&T> {
        assert!(
            draw.len == self.items.len() && draw.head == self.head,
            "stale replay draw: the buffer was pushed to after the draw"
        );
        draw.slots.iter().map(|&i| &self.items[i]).collect()
    }

    /// Item at a raw index (stable between pushes).
    pub fn get(&self, index: usize) -> Option<&T> {
        self.items.get(index)
    }

    /// Iterates over all stored items (no particular order once wrapped).
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Removes all items.
    pub fn clear(&mut self) {
        self.items.clear();
        self.head = 0;
    }

    /// The eviction cursor (next slot to overwrite once full) — exposed
    /// together with [`ReplayBuffer::items`] so checkpoints can rebuild the
    /// buffer bit-identically via [`ReplayBuffer::from_parts`].
    pub fn head(&self) -> usize {
        self.head
    }

    /// All stored items in raw storage order (not insertion order once the
    /// buffer has wrapped).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Rebuilds a buffer from state captured via [`ReplayBuffer::items`] /
    /// [`ReplayBuffer::head`]. Future pushes, samples, and evictions behave
    /// exactly as they would have on the original.
    ///
    /// # Errors
    ///
    /// Returns a message when the parts are inconsistent (zero capacity,
    /// more items than capacity, or an out-of-range head).
    pub fn from_parts(capacity: usize, items: Vec<T>, head: usize) -> Result<Self, String> {
        if capacity == 0 {
            return Err("replay buffer capacity must be positive".to_string());
        }
        if items.len() > capacity {
            return Err(format!(
                "{} items exceed capacity {capacity}",
                items.len()
            ));
        }
        if head >= capacity {
            return Err(format!("head {head} out of range for capacity {capacity}"));
        }
        Ok(Self {
            items,
            capacity,
            head,
        })
    }
}

/// Buffer slots drawn by [`ReplayBuffer::draw`], valid until the buffer's
/// next push: [`ReplayBuffer::resolve`] checks the length and eviction
/// cursor recorded here.
#[derive(Clone, Debug)]
pub struct Draw {
    slots: Vec<usize>,
    len: usize,
    head: usize,
}

impl<'a, T> IntoIterator for &'a ReplayBuffer<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn push_until_full_then_evict_oldest() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..3 {
            buf.push(i);
        }
        assert_eq!(buf.len(), buf.capacity());
        buf.push(3);
        let items: Vec<i32> = buf.iter().copied().collect();
        assert_eq!(buf.len(), 3);
        assert!(!items.contains(&0), "oldest item must be evicted");
        assert!(items.contains(&3));
    }

    #[test]
    fn eviction_is_fifo_over_many_pushes() {
        let mut buf = ReplayBuffer::new(4);
        for i in 0..100 {
            buf.push(i);
        }
        let mut items: Vec<i32> = buf.iter().copied().collect();
        items.sort_unstable();
        assert_eq!(items, vec![96, 97, 98, 99]);
    }

    #[test]
    fn sample_returns_requested_count() {
        let mut buf = ReplayBuffer::new(10);
        for i in 0..5 {
            buf.push(i);
        }
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(buf.sample(&mut rng, 32).len(), 32);
    }

    #[test]
    fn draw_resolves_to_the_items_sample_returns() {
        let mut buf = ReplayBuffer::new(8);
        for i in 0..13 {
            buf.push(i);
        }
        let sampled: Vec<i32> = buf
            .sample(&mut StdRng::seed_from_u64(3), 20)
            .into_iter()
            .copied()
            .collect();
        let draw = buf.draw(&mut StdRng::seed_from_u64(3), 20);
        let resolved: Vec<i32> = buf.resolve(&draw).into_iter().copied().collect();
        assert_eq!(resolved, sampled);
    }

    #[test]
    #[should_panic(expected = "stale replay draw")]
    fn resolving_a_draw_after_a_push_panics() {
        let mut buf = ReplayBuffer::new(4);
        for i in 0..6 {
            buf.push(i);
        }
        let draw = buf.draw(&mut StdRng::seed_from_u64(4), 2);
        buf.push(6);
        buf.resolve(&draw);
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn sampling_empty_panics() {
        let buf: ReplayBuffer<i32> = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        buf.sample(&mut rng, 1);
    }

    #[test]
    fn clear_resets() {
        let mut buf = ReplayBuffer::new(2);
        buf.push(1);
        buf.push(2);
        buf.push(3);
        buf.clear();
        assert!(buf.is_empty());
        buf.push(7);
        assert_eq!(buf.iter().copied().collect::<Vec<_>>(), vec![7]);
    }
}
