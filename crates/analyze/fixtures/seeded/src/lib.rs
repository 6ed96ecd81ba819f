//! One seeded violation per pattern that wsyn-analyze's lexical rules
//! caught before clippy took them over (DESIGN.md §8). Every line
//! tagged `// seeded: <old-rule-id>` must be reported when
//! `../check-seeded.sh` runs clippy with the workspace's lint levels and
//! `clippy.toml`; if one is not, the lint set has lost coverage.
//!
//! The old `wall-clock` rule also matched `thread_rng` and
//! `from_entropy`; the in-tree `rand` stand-in has neither, so there is
//! nothing to seed for them.

use std::collections::{HashMap, HashSet}; // seeded: hash-collections
use std::hash::RandomState; // seeded: wall-clock
use std::time::{Instant, SystemTime}; // seeded: wall-clock

pub fn seeded_hash_map(m: &HashMap<u32, u32>) -> usize { // seeded: hash-collections
    m.len()
}

pub fn seeded_hash_set(s: &HashSet<u32>) -> usize { // seeded: hash-collections
    s.len()
}

pub fn seeded_instant() -> u128 {
    Instant::now().elapsed().as_nanos() // seeded: wall-clock
}

pub fn seeded_system_time() -> bool {
    SystemTime::now().elapsed().is_ok() // seeded: wall-clock
}

pub fn seeded_random_state() -> RandomState {
    RandomState::new() // seeded: wall-clock
}

pub fn seeded_unwrap(x: Option<u32>) -> u32 {
    x.unwrap() // seeded: no-panic
}

pub fn seeded_expect(x: Result<u32, String>) -> u32 {
    x.expect("present") // seeded: no-panic
}

pub fn seeded_panic(x: u32) -> u32 {
    if x > 3 {
        panic!("too big"); // seeded: no-panic
    }
    x
}

pub fn seeded_as_u8(x: usize) -> u8 {
    x as u8 // seeded: lossy-cast
}

pub fn seeded_as_u16(x: usize) -> u16 {
    x as u16 // seeded: lossy-cast
}

pub fn seeded_as_u32(x: u64) -> u32 {
    x as u32 // seeded: lossy-cast
}

pub fn seeded_as_i8(x: i64) -> i8 {
    x as i8 // seeded: lossy-cast
}

pub fn seeded_as_i16(x: u64) -> i16 {
    x as i16 // seeded: lossy-cast
}

pub fn seeded_as_i32(x: u32) -> i32 {
    x as i32 // seeded: lossy-cast
}

pub fn seeded_configured_threads() -> usize {
    wsyn_core::pool::configured_threads() // seeded: thread-policy
}

pub fn seeded_host_parallelism() -> usize {
    wsyn_core::host_parallelism() // seeded: thread-policy
}

pub fn seeded_unsafe_block(x: &u32) -> u32 {
    unsafe { std::ptr::read(x) } // seeded: safety-comment
}

/// Needs no precondition; the call below stands for any `unsafe fn`.
unsafe fn seeded_danger() -> u32 {
    7
}

pub fn seeded_unsafe_caller() -> u32 {
    // SAFETY: justifies the block only; the old rule also wanted the
    // call to `seeded_danger` justified on its own.
    unsafe { 1 + seeded_danger() } // seeded: unsafe-caller
}
