//! The workload-free helpers of the repository benchmark: order
//! statistics, open-loop schedule accounting, a JSON writer, and state
//! digests. The workloads themselves live in the `hero-benchmark` binary;
//! `tests/` checks these helpers with `cargo test` inside `benchmark/`.

pub mod json;
pub mod openloop;
pub mod stats;

/// FNV-1a 64-bit digest of named byte sections (for example
/// `HeroTeam::save_state()`), printed as 16 hex digits. Two runs whose
/// digests match hold bit-identical state.
pub fn digest(sections: &[(String, Vec<u8>)]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, bytes) in sections {
        eat(&(name.len() as u64).to_le_bytes());
        eat(name.as_bytes());
        eat(&(bytes.len() as u64).to_le_bytes());
        eat(bytes);
    }
    format!("{h:016x}")
}
