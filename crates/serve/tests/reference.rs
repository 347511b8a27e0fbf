//! Differential test of the service against a plain-Rust reference model.
//!
//! The parity suite compares batch partitions of the service with each
//! other, so a bug they all share passes it.  This test compares every
//! reply against a model that shares no code with the service: a
//! `HashSet<u64>` of keys, a `Vec<u64>` of counters (an untouched counter
//! reads 0) and a `VecDeque` of `(seq, payload)` tasks, each request
//! applied one at a time in trace order.
//!
//! Long seeded traces mix every request kind — duplicate inserts, deletes
//! of absent keys, out-of-range keys, unknown counters, steals on an empty
//! pool and injected `Fault::Error`s — in phases that grow, purge and
//! shrink the machine hash table.  Each trace runs through
//! [`ServiceState::apply_batch`] in chunks of 1, 7, 64 and the whole trace,
//! on 1 and 2 threads; every reply and the final hash key set, counters
//! and task pool must match the model.

use std::collections::{HashSet, VecDeque};

use qrqw_exec::StepPool;
use qrqw_serve::{
    Fault, Reply, Request, Response, ServiceConfig, ServiceError, ServiceState, MAX_KEY,
};
use qrqw_sim::EMPTY;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NUM_COUNTERS: usize = 8;
const KEYSPACE: u64 = 400;

fn config() -> ServiceConfig {
    ServiceConfig {
        seed: 5,
        num_counters: NUM_COUNTERS,
        task_procs: 4,
        hash_capacity: 64, // small: the insert phases force growth
    }
}

/// The reference: what each request must observe, one request at a time.
#[derive(Default)]
struct Model {
    keys: HashSet<u64>,
    counters: Vec<u64>,
    tasks: VecDeque<(u64, u64)>,
    next_seq: u64,
}

impl Model {
    fn new() -> Self {
        Model {
            counters: vec![0; NUM_COUNTERS],
            ..Model::default()
        }
    }

    fn apply(&mut self, req: Request) -> Response {
        match req {
            Request::HashInsert { key }
            | Request::HashDelete { key }
            | Request::HashLookup { key }
            | Request::HashContains { key }
                if key >= MAX_KEY =>
            {
                Err(ServiceError::KeyOutOfRange(key))
            }
            Request::HashInsert { key } => Ok(Reply::Inserted(self.keys.insert(key))),
            Request::HashDelete { key } => Ok(Reply::Removed(self.keys.remove(&key))),
            Request::HashLookup { key } | Request::HashContains { key } => {
                Ok(Reply::Found(self.keys.contains(&key)))
            }
            Request::CounterAdd { counter, .. } | Request::CounterRead { counter }
                if counter >= NUM_COUNTERS =>
            {
                Err(ServiceError::UnknownCounter(counter))
            }
            Request::CounterAdd { counter, delta } => {
                let old = self.counters[counter];
                self.counters[counter] += delta;
                Ok(Reply::Counter(old))
            }
            Request::CounterRead { counter } => Ok(Reply::Counter(self.counters[counter])),
            Request::TaskSubmit { payload } => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.tasks.push_back((seq, payload));
                Ok(Reply::TaskQueued(seq))
            }
            Request::TaskSteal => Ok(Reply::TaskStolen(self.tasks.pop_front())),
            Request::Fault(Fault::Error) => Err(ServiceError::Injected),
            Request::Fault(f) => unreachable!("the traces inject no {f:?}"),
        }
    }
}

/// A seeded trace of `len` requests in 1,000-request phases: insert-heavy
/// (the table grows), balanced, and delete-heavy (tombstones pass a
/// quarter of the table and the purge shrinks it).  Keys come from a
/// small keyspace, so duplicate inserts and deletes of absent keys are
/// common, and steals outnumber submits, so the pool is often empty.
fn trace(len: usize, seed: u64) -> Vec<Request> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|i| {
            let (insert, delete) = [(8, 1), (4, 4), (1, 8)][(i / 1_000) % 3];
            let roll = rng.gen_range(0..20u64);
            let key = rng.gen_range(0..KEYSPACE);
            if roll < insert {
                Request::HashInsert { key }
            } else if roll < insert + delete {
                Request::HashDelete { key }
            } else {
                match roll - insert - delete {
                    0 => Request::HashLookup { key },
                    1 => Request::HashContains { key },
                    2 => Request::CounterAdd {
                        counter: rng.gen_range(0..NUM_COUNTERS + 2),
                        delta: rng.gen_range(1..100u64),
                    },
                    3 => Request::CounterRead {
                        counter: rng.gen_range(0..NUM_COUNTERS + 2),
                    },
                    4 => Request::TaskSubmit {
                        payload: rng.gen_range(0..1000u64),
                    },
                    5 | 6 => Request::TaskSteal,
                    7 => Request::Fault(Fault::Error),
                    8 => Request::HashInsert {
                        key: MAX_KEY + rng.gen_range(0..3u64),
                    },
                    _ => Request::HashLookup {
                        key: MAX_KEY + rng.gen_range(0..3u64),
                    },
                }
            }
        })
        .collect()
}

/// Runs `requests` through a fresh service in chunks of `cap` on `threads`
/// threads and checks every reply and the final state against the model.
fn check(requests: &[Request], cap: usize, threads: usize) {
    let what = format!("cap {cap}, {threads} threads");
    let mut state = ServiceState::with_pool(config(), StepPool::with_threads(threads));
    let mut model = Model::new();
    let mut at = 0;
    for chunk in requests.chunks(cap) {
        let (responses, _) = state.apply_batch(chunk);
        assert_eq!(
            responses.len(),
            chunk.len(),
            "{what}: one reply per request"
        );
        for (&req, got) in chunk.iter().zip(responses) {
            assert_eq!(got, model.apply(req), "{what}: request {at} ({req:?})");
            at += 1;
        }
    }

    let digest = state.digest();
    let mut keys: Vec<u64> = model.keys.iter().copied().collect();
    keys.sort_unstable();
    assert_eq!(digest.hash_keys, keys, "{what}: final hash key set");
    let counters: Vec<u64> = digest
        .counters
        .iter()
        .map(|&c| if c == EMPTY { 0 } else { c })
        .collect();
    assert_eq!(counters, model.counters, "{what}: final counters");
    assert_eq!(
        digest.pending_tasks,
        Vec::from(model.tasks),
        "{what}: final task pool"
    );
    assert_eq!(
        digest.next_seq, model.next_seq,
        "{what}: next task sequence"
    );
}

fn check_all_shapes(requests: &[Request]) {
    for threads in [1, 2] {
        for cap in [1, 7, 64, requests.len()] {
            check(requests, cap, threads);
        }
    }
}

#[test]
fn every_reply_matches_the_reference_model() {
    for seed in [1u64, 2, 3] {
        check_all_shapes(&trace(6_000, seed));
    }
}

#[test]
fn the_traces_cross_the_table_growth_purge_and_shrink_thresholds() {
    // Guards the trace shape itself: a trace that never rebuilt the table
    // would leave the tombstone and resize paths out of the comparison.
    let requests = trace(3_000, 1);
    let mut state = ServiceState::with_pool(config(), StepPool::with_threads(1));
    let (mut grew, mut shrank, mut purged) = (false, false, false);
    for chunk in requests.chunks(64) {
        let before = (state.hash_capacity(), state.hash_tombstones());
        state.apply_batch(chunk);
        let after = (state.hash_capacity(), state.hash_tombstones());
        grew |= after.0 > before.0;
        shrank |= after.0 < before.0;
        purged |= after.1 < before.1;
    }
    assert!(
        grew && shrank && purged,
        "grew {grew}, shrank {shrank}, purged {purged}"
    );
}
