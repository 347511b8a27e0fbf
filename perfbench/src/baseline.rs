//! Plain sequential host baselines for the benchmarked algorithms.
//!
//! Each baseline solves the same problem as its registry algorithm on the
//! host, one thread, with the textbook sequential method, so the absolute
//! cost of the QRQW formulation is visible and not only ratios between
//! backends.  Inputs match the registry's where the registry fixes them
//! (the sorting and hashing keys, the list-ranking chain); the random
//! permutations draw from a generator seeded like the machine.  Input
//! construction is outside the timer, and every output is checked.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use qrqw_bench::Algorithm;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs the baseline of `algo` at size `n`; returns whether its output
/// checked out and the time of the solve itself.
pub fn run(algo: Algorithm, n: usize, seed: u64) -> (bool, Duration) {
    match algo {
        Algorithm::PermutationQrqw => {
            // Fisher–Yates.
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut order: Vec<u64> = (0..n as u64).collect();
            let start = Instant::now();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..i + 1);
                order.swap(i, j);
            }
            let elapsed = start.elapsed();
            (qrqw_core::is_permutation(black_box(&order)), elapsed)
        }
        Algorithm::CyclicFast => {
            // Sattolo: the same swap walk restricted to j < i yields a
            // single n-cycle, read as i ↦ successor[i].
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut successor: Vec<u64> = (0..n as u64).collect();
            let start = Instant::now();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..i);
                successor.swap(i, j);
            }
            let elapsed = start.elapsed();
            let s = black_box(&successor);
            (
                qrqw_core::is_permutation(s) && qrqw_core::is_cyclic(s),
                elapsed,
            )
        }
        Algorithm::IntegerSort => {
            let max_key = (n as u64 * 16).max(16);
            let mut keys: Vec<u64> = Algorithm::scattered_keys(n, 0)
                .into_iter()
                .map(|k| k % max_key)
                .collect();
            let start = Instant::now();
            keys.sort_unstable();
            let elapsed = start.elapsed();
            (is_sorted(black_box(&keys)) && keys.len() == n, elapsed)
        }
        Algorithm::SampleSortQrqw => {
            let mut keys = Algorithm::scattered_keys(n, 0);
            let start = Instant::now();
            keys.sort_unstable();
            let elapsed = start.elapsed();
            (is_sorted(black_box(&keys)) && keys.len() == n, elapsed)
        }
        Algorithm::Hashing => {
            // Build a set of the n keys, then n positive and n negative
            // membership lookups, as the registry's hashing run does.
            let keys = Algorithm::scattered_keys(n, 0);
            let probes = Algorithm::scattered_keys(n, n);
            let start = Instant::now();
            let set: HashSet<u64> = keys.iter().copied().collect();
            let hits = keys.iter().filter(|k| set.contains(k)).count();
            let misses = probes.iter().filter(|k| !set.contains(k)).count();
            let elapsed = start.elapsed();
            (black_box(hits) == n && black_box(misses) == n, elapsed)
        }
        Algorithm::ListRank => {
            // The registry's chain 0 → 1 → … → n−1: find the head (the node
            // no successor points at), walk it, and rank each node by its
            // distance to the tail.
            let succ: Vec<u64> = (0..n)
                .map(|i| if i + 1 < n { i as u64 + 1 } else { u64::MAX })
                .collect();
            let start = Instant::now();
            let mut pointed = vec![false; n];
            for &s in &succ {
                if s != u64::MAX {
                    pointed[s as usize] = true;
                }
            }
            let mut rank = vec![0u64; n];
            let mut at = pointed.iter().position(|&p| !p);
            let mut pos = 0u64;
            while let Some(node) = at {
                rank[node] = n as u64 - 1 - pos;
                pos += 1;
                at = match succ[node] {
                    u64::MAX => None,
                    next => Some(next as usize),
                };
            }
            let elapsed = start.elapsed();
            let valid = pos == n as u64
                && black_box(&rank)
                    .iter()
                    .enumerate()
                    .all(|(i, &r)| r == (n - 1 - i) as u64);
            (valid, elapsed)
        }
        other => panic!("no sequential baseline for {}", other.name()),
    }
}

fn is_sorted(keys: &[u64]) -> bool {
    keys.windows(2).all(|w| w[0] <= w[1])
}
