//! Steady-state allocation pin for the Table I update.
//!
//! At Table I shapes (2 agents, hidden 32, batch 1024) one `[1024, 32]`
//! f32 activation is 128 KiB, the size at which glibc serves a request
//! with `mmap` and returns it to the kernel on free. An update that draws
//! such buffers from the heap pays page faults on every call. Every
//! forward pass of the update runs in its learner's arena instead, so
//! after warm-up one `HeroTeam::update` makes no allocation of 64 KiB or
//! more.
//!
//! The counting allocator is global, so this file holds one test and gets
//! a test binary of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use hero::prelude::*;
use hero_baselines::sac::SacConfig;
use hero_sim::scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Allocations of at least this many bytes count as large.
const LARGE_BYTES: usize = 64 * 1024;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LARGE: AtomicUsize = AtomicUsize::new(0);
static ALL: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn note(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALL.fetch_add(1, Ordering::Relaxed);
            if size >= LARGE_BYTES {
                LARGE.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn table1_update_makes_no_large_allocation_after_warmup() {
    let cfg = HeroConfig {
        parallel_update: false,
        ..HeroConfig::default()
    };
    let env_cfg = EnvConfig {
        max_steps: cfg.episode_length,
        ..EnvConfig::default()
    };
    let need = cfg.batch_size;
    let skills = Arc::new(SkillLibrary::untrained(env_cfg, SacConfig::default(), 3));
    let mut team = HeroTeam::new(2, env_cfg.high_dim(), skills, cfg, 1);
    let mut env = scenario::two_vehicle_merge(env_cfg, 2);

    // Fill every agent's replay with one full minibatch, without updates.
    let mut episode = 0;
    let filled = |team: &HeroTeam| team.agents().iter().all(|a| a.buffer_len() >= need);
    while !filled(&team) {
        let opts = TrainOptions {
            episodes: 1,
            update_every: usize::MAX,
            seed: 100 + episode,
        };
        train_team(&mut team, &mut env, &opts);
        episode += 1;
    }

    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..2 {
        assert!(team.update(&mut rng).is_some(), "warm-up update must run");
    }
    COUNTING.store(true, Ordering::SeqCst);
    let stats = team.update(&mut rng);
    COUNTING.store(false, Ordering::SeqCst);
    assert!(stats.is_some(), "the measured update must run");
    let large = LARGE.load(Ordering::SeqCst);
    assert_eq!(
        large,
        0,
        "a steady-state Table I update made {large} allocations of {LARGE_BYTES} bytes or more \
         (of {} in total)",
        ALL.load(Ordering::SeqCst)
    );
}
