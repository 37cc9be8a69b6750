//! Exploration for discrete policies: ε-greedy over a scheduled rate and
//! the greedy argmax.

use rand::Rng;

use crate::schedule::Schedule;

/// ε-greedy action selection over a scheduled exploration rate (the
/// strategy the paper's Independent DQN baseline uses).
#[derive(Clone, Copy, Debug)]
pub struct EpsilonGreedy {
    schedule: Schedule,
    step: usize,
}

impl EpsilonGreedy {
    /// Creates a strategy from a schedule over environment steps.
    pub fn new(schedule: Schedule) -> Self {
        Self { schedule, step: 0 }
    }

    /// Current ε.
    pub fn epsilon(&self) -> f32 {
        self.schedule.value(self.step)
    }

    /// Advances the schedule one step.
    pub fn advance(&mut self) {
        self.step += 1;
    }

    /// Picks the greedy action or (with probability ε) a uniform action.
    ///
    /// # Panics
    ///
    /// Panics when `q_values` is empty.
    pub fn select<R: Rng + ?Sized>(&mut self, rng: &mut R, q_values: &[f32]) -> usize {
        assert!(!q_values.is_empty(), "epsilon-greedy needs actions");
        let eps = self.epsilon();
        self.advance();
        if rng.gen::<f32>() < eps {
            rng.gen_range(0..q_values.len())
        } else {
            greedy(q_values)
        }
    }
}

/// Index of the maximum value (first on ties).
///
/// # Panics
///
/// Panics when `values` is empty.
pub fn greedy(values: &[f32]) -> usize {
    assert!(!values.is_empty(), "greedy over empty values");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn greedy_picks_max() {
        assert_eq!(greedy(&[0.0, 3.0, 1.0]), 1);
        assert_eq!(greedy(&[5.0]), 0);
        assert_eq!(greedy(&[2.0, 2.0]), 0, "ties go to the first");
    }

    #[test]
    fn epsilon_zero_is_always_greedy() {
        let mut e = EpsilonGreedy::new(Schedule::Constant(0.0));
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            assert_eq!(e.select(&mut rng, &[0.1, 0.9, 0.2]), 1);
        }
    }

    #[test]
    fn epsilon_one_is_roughly_uniform() {
        let mut e = EpsilonGreedy::new(Schedule::Constant(1.0));
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        for _ in 0..6000 {
            counts[e.select(&mut rng, &[0.1, 0.9, 0.2])] += 1;
        }
        for c in counts {
            let f = c as f32 / 6000.0;
            assert!((f - 1.0 / 3.0).abs() < 0.05, "{f}");
        }
    }

    #[test]
    fn epsilon_decays_with_schedule() {
        let mut e = EpsilonGreedy::new(Schedule::Linear {
            start: 1.0,
            end: 0.0,
            steps: 10,
        });
        assert_eq!(e.epsilon(), 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            e.select(&mut rng, &[1.0, 0.0]);
        }
        assert_eq!(e.epsilon(), 0.0);
    }
}
