//! The service's live state and the batch-application step.
//!
//! [`ServiceState`] owns a persistent native machine plus the three
//! workload states living in its shared memory:
//!
//! * a machine-resident **hash set** ([`qrqw_core::OpenTable`]: open
//!   addressing, double-hash probe sequences; inserts are occupy-mode
//!   `Machine::claim`s, so a batch of inserts is exactly the paper's
//!   low-contention cell-claiming step; deletes tombstone their cell, and
//!   rebuilds purge the tombstones).  The table is the single source of
//!   truth for which keys are present: every batch's hash requests are
//!   answered from one probe step over the batch's distinct keys, taken
//!   before the decode walk;
//! * a machine-resident **counter bank** (a batch of adds/reads is one
//!   emulated Fetch&Add step, Lemma 7.5);
//! * a **task pool** (host-side FIFO index; every batch with task traffic
//!   rebalances the pending tasks across virtual processors with the §3
//!   QRQW load-balancing algorithm).
//!
//! [`ServiceState::apply_batch`] is the *only* way state advances, and it
//! is shared verbatim by the live server and by the one-shot reference of
//! the parity tests: running a request trace through the batcher under any
//! batching policy must leave the same observable state as applying the
//! whole trace as one batch.
//!
//! # Footprint
//!
//! The batcher checkpoints before every batch, and a checkpoint copies the
//! machine's whole allocated prefix `[0, heap_top)`, so the footprint is a
//! fixed cost of every batch.  The counter bank has a fixed size, every
//! Fetch&Add and load-balancing step releases its scratch, and the hash
//! table rebuilds inside the region it owns, sized by its live set (load at
//! most 3/8 after a rebuild).  The footprint, and with it the per-batch
//! checkpoint, therefore depends on the live state and never on the churn
//! history; `tests/soak.rs` pins this over 10^4 churn batches.
//!
//! # Batch semantics (the partition-invariance contract)
//!
//! Replies are **trace-deterministic**: each request observes exactly the
//! requests that precede it in submission order, regardless of where batch
//! boundaries fall.  Concretely, within a batch:
//!
//! * a hash lookup answers `true` iff the key is present *at its trace
//!   position*: some earlier request inserted it and no later-but-earlier
//!   request deleted it (earlier batch, or earlier position in this batch);
//! * a hash delete answers `true` iff the key was present at its trace
//!   position; insert-then-delete inside one batch nets to **no machine
//!   operation at all**, so machine work depends only on each batch's net
//!   key diff — which is what keeps partitions unobservable;
//! * a counter add/read observes the sum of all earlier deltas on its
//!   counter (the Fetch&Add serialization order within a batch is the
//!   batch order, because the emulation's radix sort is stable);
//! * a steal pops the globally oldest task that an earlier request
//!   submitted and no earlier request stole.
//!
//! The machine-visible *placement* of hash keys (which probe cell a key
//! won) is the one observable that may differ across batch partitions and
//! thread counts — occupy-claim winners are backend-defined — so
//! [`StateDigest`] canonicalizes the hash region to its sorted key set,
//! while the counter region is compared raw (bit-identical) and the task
//! pool by exact `(seq, payload)` content.

use std::collections::{BTreeMap, HashMap};

use qrqw_core::{emulate_fetch_add_step, load_balance_qrqw, OpenTable, TableGeometry};
use qrqw_exec::{BatchCost, MachineSnapshot, PersistentMachine, StepPool};
use qrqw_sim::Machine;

use crate::request::{Fault, Reply, Request, Response, ServiceError, MAX_KEY};

/// Sizing and seeding of a [`ServiceState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Machine seed (all host-side structures are deterministic; the seed
    /// only feeds the machine's RNG contract).
    pub seed: u64,
    /// Number of counters in the bank.
    pub num_counters: usize,
    /// Virtual processors the task pool balances over.
    pub task_procs: usize,
    /// Initial hash-table capacity (rounded up to a power of two; each
    /// rebuild then resizes the table to its live set, see
    /// [`OpenTable`]).
    pub hash_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            seed: 0,
            num_counters: 1024,
            task_procs: 256,
            hash_capacity: 4096,
        }
    }
}

/// Canonical observable state, for batch-vs-oneshot parity comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDigest {
    /// Sorted keys present in the machine-resident hash set.
    pub hash_keys: Vec<u64>,
    /// Raw dump of the counter region (untouched counters stay
    /// [`qrqw_sim::EMPTY`]).
    pub counters: Vec<u64>,
    /// Pending tasks, oldest first.
    pub pending_tasks: Vec<(u64, u64)>,
    /// Next task sequence number to be assigned.
    pub next_seq: u64,
}

/// Host-side FIFO index of the task pool.
#[derive(Debug, Default)]
struct TaskPool {
    pending: BTreeMap<u64, u64>,
    next_seq: u64,
}

/// A point-in-time checkpoint of a [`ServiceState`]: the machine snapshot
/// plus every host-side table [`ServiceState::apply_batch`] mutates (hash
/// geometry, task pool, sequence counter).
///
/// The batcher takes one before each batch; restoring it rolls the service
/// back to exactly the pre-batch observable state (digest-identical), which
/// is what lets a panicked batch be re-applied by bisection with no trace
/// of the failed attempt.  `Default` is an empty checkpoint suitable only
/// as a reusable buffer for [`ServiceState::checkpoint_into`].
#[derive(Debug, Default)]
pub struct ServiceCheckpoint {
    machine: MachineSnapshot,
    hash_geo: TableGeometry,
    pending: BTreeMap<u64, u64>,
    next_seq: u64,
}

impl ServiceCheckpoint {
    /// The machine's allocation top at checkpoint time — also the number of
    /// cells the checkpoint copied, so its per-batch cost.
    pub fn heap_top(&self) -> usize {
        self.machine.heap_top()
    }
}

/// The live service state: persistent machine + workload structures.
#[derive(Debug)]
pub struct ServiceState {
    pm: PersistentMachine,
    config: ServiceConfig,
    counter_base: usize,
    /// The hash set ([`OpenTable`]: double-hash probes, occupy-claim insert
    /// rounds, tombstone deletes, in-place rebuilds sized to the live set).
    table: OpenTable,
    tasks: TaskPool,
}

/// Decoded per-request routing, produced by the in-order decode walk.
enum Routed {
    /// Response fully determined at decode time.
    Done(Response),
    /// Counter op: index into the batch's Fetch&Add request vector.
    Counter(usize),
}

impl ServiceState {
    /// Builds a fresh state on a machine resolved from the environment
    /// (`QRQW_THREADS`, `QRQW_SCHEDULE`).
    pub fn new(config: ServiceConfig) -> Self {
        Self::with_pool(config, StepPool::from_env())
    }

    /// Builds a fresh state with an explicit dispatch policy.
    pub fn with_pool(config: ServiceConfig, pool: StepPool) -> Self {
        let mut pm = PersistentMachine::with_pool(16, config.seed, pool);
        let counter_base = pm.machine().alloc(config.num_counters.max(1));
        let table = OpenTable::new(pm.machine(), config.hash_capacity);
        ServiceState {
            pm,
            config,
            counter_base,
            table,
            tasks: TaskPool::default(),
        }
    }

    /// The configuration this state was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Number of keys in the hash set.
    pub fn hash_len(&self) -> usize {
        self.table.len()
    }

    /// Tombstoned cells currently in the hash table (deleted keys whose
    /// cells have not yet been purged by a rebuild).
    pub fn hash_tombstones(&self) -> usize {
        self.table.tombstones()
    }

    /// Current hash-table capacity in cells.
    pub fn hash_capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Number of pending tasks.
    pub fn pending_tasks(&self) -> usize {
        self.tasks.pending.len()
    }

    /// Applies one batch in submission order and returns one response per
    /// request plus what the batch cost on the machine.
    ///
    /// Panics if the batch contains a [`Fault::Panic`] request (the server
    /// catches the unwind; direct callers see the panic).
    pub fn apply_batch(&mut self, batch: &[Request]) -> (Vec<Response>, BatchCost) {
        let ServiceState {
            pm,
            config,
            counter_base,
            table,
            tasks,
        } = self;

        // ---- Probe step: every distinct in-range hash key of the batch,
        // in first-appearance order, located in the pre-batch table in one
        // machine step.  A batch without hash keys issues no step.
        let mut slot: HashMap<u64, usize> = HashMap::new();
        let mut probe_keys: Vec<u64> = Vec::new();
        for req in batch {
            if let Request::HashInsert { key }
            | Request::HashDelete { key }
            | Request::HashLookup { key }
            | Request::HashContains { key } = *req
            {
                if key < MAX_KEY {
                    slot.entry(key).or_insert_with(|| {
                        probe_keys.push(key);
                        probe_keys.len() - 1
                    });
                }
            }
        }
        let (cells, mut cost) = pm.batch(|m| table.locate(m, &probe_keys));
        // The key's cell in the pre-batch table, `None` when absent.
        let pre_cell = |key: u64| cells[slot[&key]];

        // ---- Decode walk (host-side, strictly in batch order). ----
        let mut routed: Vec<Routed> = Vec::with_capacity(batch.len());
        // Presence-as-of-trace-position for every key whose presence an
        // earlier request in this batch *changed*, plus the first-touch
        // order.  Machine operations are derived from `touched` (a Vec, in
        // batch order) — never from map iteration — because occupy-claim
        // winners are the lowest claimant *index*: the attempts vector must
        // be ordered identically on every backend and thread count.
        let mut overlay: HashMap<u64, bool> = HashMap::new();
        let mut touched: Vec<u64> = Vec::new();
        let mut fadd_reqs: Vec<(usize, u64)> = Vec::new();
        let mut task_ops = 0usize;
        for req in batch {
            let r = match *req {
                Request::HashInsert { key }
                | Request::HashDelete { key }
                | Request::HashLookup { key }
                | Request::HashContains { key }
                    if key >= MAX_KEY =>
                {
                    Routed::Done(Err(ServiceError::KeyOutOfRange(key)))
                }
                Request::HashInsert { key } => {
                    let was = overlay
                        .get(&key)
                        .copied()
                        .unwrap_or_else(|| pre_cell(key).is_some());
                    if !was {
                        if !overlay.contains_key(&key) {
                            touched.push(key);
                        }
                        overlay.insert(key, true);
                    }
                    Routed::Done(Ok(Reply::Inserted(!was)))
                }
                Request::HashDelete { key } => {
                    let was = overlay
                        .get(&key)
                        .copied()
                        .unwrap_or_else(|| pre_cell(key).is_some());
                    if was {
                        if !overlay.contains_key(&key) {
                            touched.push(key);
                        }
                        overlay.insert(key, false);
                    }
                    Routed::Done(Ok(Reply::Removed(was)))
                }
                Request::HashLookup { key } | Request::HashContains { key } => {
                    let present = overlay
                        .get(&key)
                        .copied()
                        .unwrap_or_else(|| pre_cell(key).is_some());
                    Routed::Done(Ok(Reply::Found(present)))
                }
                Request::CounterAdd { counter, .. } | Request::CounterRead { counter }
                    if counter >= config.num_counters =>
                {
                    Routed::Done(Err(ServiceError::UnknownCounter(counter)))
                }
                Request::CounterAdd { counter, delta } => {
                    fadd_reqs.push((*counter_base + counter, delta));
                    Routed::Counter(fadd_reqs.len() - 1)
                }
                Request::CounterRead { counter } => {
                    // A read is a zero-delta Fetch&Add: it serializes with
                    // the batch's adds at its own batch position.
                    fadd_reqs.push((*counter_base + counter, 0));
                    Routed::Counter(fadd_reqs.len() - 1)
                }
                Request::TaskSubmit { payload } => {
                    task_ops += 1;
                    let seq = tasks.next_seq;
                    tasks.next_seq += 1;
                    tasks.pending.insert(seq, payload);
                    Routed::Done(Ok(Reply::TaskQueued(seq)))
                }
                Request::TaskSteal => {
                    task_ops += 1;
                    let stolen = tasks.pending.pop_first();
                    Routed::Done(Ok(Reply::TaskStolen(stolen)))
                }
                Request::Fault(Fault::Error) => Routed::Done(Err(ServiceError::Injected)),
                Request::Fault(Fault::Panic) => {
                    // Only the read-only probe step has run; a checkpoint
                    // restore rewinds its step count.
                    panic!("qrqw-serve: injected panic while decoding a batch")
                }
                Request::Fault(Fault::Crash) => {
                    // The live batcher intercepts `Crash` before apply (it
                    // kills the thread, not the batch); a direct caller
                    // sees it as a decode panic like `Fault::Panic`.
                    panic!("qrqw-serve: injected crash reached batch application")
                }
            };
            routed.push(r);
        }

        // The batch's *net* key diff, in first-touch order: a key whose
        // presence ends where it started (insert-then-delete, or
        // delete-then-reinsert) needs no machine operation at all, which is
        // what keeps machine work a function of the trace rather than of
        // the batch partition.  Dead keys are tombstoned at the cells the
        // probe step found.
        let mut new_keys: Vec<u64> = Vec::new();
        let mut dead_cells: Vec<Option<usize>> = Vec::new();
        for &key in &touched {
            let fin = overlay[&key];
            let cell = pre_cell(key);
            if fin && cell.is_none() {
                new_keys.push(key);
            } else if !fin && cell.is_some() {
                dead_cells.push(cell);
            }
        }

        // ---- Machine stage (fixed order: deletes, then inserts, then the
        // Fetch&Add step, then rebalancing).
        let task_procs = config.task_procs.max(1);
        let run_balance = task_ops > 0 && !tasks.pending.is_empty();
        let (olds, stage_cost) = pm.batch(|m| {
            table.remove(m, &dead_cells);
            table.insert_new(m, &new_keys);
            let olds = if fadd_reqs.is_empty() {
                Vec::new()
            } else {
                emulate_fetch_add_step(m, &fadd_reqs)
            };
            if run_balance {
                // Rebalance the pending tasks across the virtual
                // processors (§3); the balanced assignment is the machine
                // work — FIFO steal order is decided by sequence number.
                let mut loads = vec![0u64; task_procs];
                for &seq in tasks.pending.keys() {
                    loads[(seq % task_procs as u64) as usize] += 1;
                }
                let res = load_balance_qrqw(m, &loads);
                debug_assert!(res.covers_exactly(&loads));
            }
            olds
        });
        cost += stage_cost;

        // ---- Assemble responses in batch order. ----
        let responses: Vec<Response> = routed
            .into_iter()
            .map(|r| match r {
                Routed::Done(resp) => resp,
                Routed::Counter(idx) => Ok(Reply::Counter(olds[idx])),
            })
            .collect();
        (responses, cost)
    }

    /// The canonical observable state (see the module docs for what is
    /// compared bit-exactly vs. canonically).
    pub fn digest(&self) -> StateDigest {
        let m = self.pm.machine_ref();
        let mut hash_keys = self.table.live_keys(m);
        hash_keys.sort_unstable();
        assert_eq!(
            hash_keys.len(),
            self.table.len(),
            "hash table occupancy counter drifted"
        );
        StateDigest {
            hash_keys,
            counters: m.dump(self.counter_base, self.config.num_counters.max(1)),
            pending_tasks: self.tasks.pending.iter().map(|(&s, &p)| (s, p)).collect(),
            next_seq: self.tasks.next_seq,
        }
    }

    /// Captures a checkpoint into `ck`, reusing its buffers — the
    /// allocation-light path the batcher uses before every batch.
    pub fn checkpoint_into(&self, ck: &mut ServiceCheckpoint) {
        self.pm.snapshot_into(&mut ck.machine);
        ck.hash_geo = self.table.geometry();
        ck.pending.clone_from(&self.tasks.pending);
        ck.next_seq = self.tasks.next_seq;
    }

    /// Captures a fresh [`ServiceCheckpoint`] of the current state.
    pub fn checkpoint(&self) -> ServiceCheckpoint {
        let mut ck = ServiceCheckpoint::default();
        self.checkpoint_into(&mut ck);
        ck
    }

    /// Rolls the service back to `ck`: machine memory, allocator, step and
    /// contention counters, hash geometry, and the task pool all
    /// rewind, so the digest (and every subsequent reply) is exactly what
    /// it was at checkpoint time.  Restoring a checkpoint taken from a
    /// *different* service is a logic error (and panics if the machine
    /// shapes disagree).
    pub fn restore(&mut self, ck: &ServiceCheckpoint) {
        self.pm.restore(&ck.machine);
        self.table.restore_geometry(ck.hash_geo);
        self.tasks.pending.clone_from(&ck.pending);
        self.tasks.next_seq = ck.next_seq;
    }

    /// Thread count of the underlying machine.
    pub fn threads(&self) -> usize {
        self.pm.machine_ref().threads()
    }

    /// The shape of the machine's sharded arena.  The arena appends shards
    /// without moving cells, so growth mid-service never pays a realloc
    /// copy or a transient 2× footprint; the hash table rebuilds in place
    /// and sizes itself to the live set, so steady churn does not grow the
    /// arena at all.
    pub fn arena_stats(&self) -> qrqw_exec::ArenaStats {
        self.pm.arena_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::EMPTY;

    fn state() -> ServiceState {
        ServiceState::with_pool(
            ServiceConfig {
                num_counters: 8,
                task_procs: 4,
                hash_capacity: 64,
                seed: 1,
            },
            StepPool::with_threads(2),
        )
    }

    #[test]
    fn hash_insert_lookup_contains_round_trip() {
        let mut s = state();
        let (resp, cost) = s.apply_batch(&[
            Request::HashLookup { key: 10 },
            Request::HashInsert { key: 10 },
            Request::HashInsert { key: 10 },
            Request::HashLookup { key: 10 },
            Request::HashContains { key: 11 },
        ]);
        assert_eq!(resp[0], Ok(Reply::Found(false)), "lookup before insert");
        assert_eq!(resp[1], Ok(Reply::Inserted(true)));
        assert_eq!(resp[2], Ok(Reply::Inserted(false)), "duplicate in batch");
        assert_eq!(resp[3], Ok(Reply::Found(true)), "lookup after insert");
        assert_eq!(resp[4], Ok(Reply::Found(false)));
        assert!(cost.claim_attempts >= 1, "insert must issue a claim");
        // A later batch sees the key via the machine table.
        let (resp, _) = s.apply_batch(&[Request::HashContains { key: 10 }]);
        assert_eq!(resp[0], Ok(Reply::Found(true)));
        assert_eq!(s.digest().hash_keys, vec![10]);
    }

    #[test]
    fn hash_delete_is_trace_deterministic_within_a_batch() {
        let mut s = state();
        let (resp, _) = s.apply_batch(&[
            Request::HashDelete { key: 10 },
            Request::HashInsert { key: 10 },
            Request::HashDelete { key: 10 },
            Request::HashLookup { key: 10 },
            Request::HashDelete { key: 10 },
            Request::HashInsert { key: 10 },
            Request::HashLookup { key: 10 },
        ]);
        assert_eq!(resp[0], Ok(Reply::Removed(false)), "delete before insert");
        assert_eq!(resp[1], Ok(Reply::Inserted(true)));
        assert_eq!(resp[2], Ok(Reply::Removed(true)));
        assert_eq!(resp[3], Ok(Reply::Found(false)), "lookup after delete");
        assert_eq!(resp[4], Ok(Reply::Removed(false)), "double delete");
        assert_eq!(resp[5], Ok(Reply::Inserted(true)), "reinsert after delete");
        assert_eq!(resp[6], Ok(Reply::Found(true)));
        assert_eq!(s.digest().hash_keys, vec![10]);
        // A later batch observes the delete of a key from an earlier batch.
        let (resp, _) = s.apply_batch(&[
            Request::HashDelete { key: 10 },
            Request::HashContains { key: 10 },
        ]);
        assert_eq!(resp[0], Ok(Reply::Removed(true)));
        assert_eq!(resp[1], Ok(Reply::Found(false)));
        assert!(s.digest().hash_keys.is_empty());
    }

    #[test]
    fn growth_purges_tombstones_and_reinserts_stay_findable() {
        let mut s = state(); // cap 64
        let inserts: Vec<Request> = (0..30).map(|k| Request::HashInsert { key: k }).collect();
        let _ = s.apply_batch(&inserts);
        let deletes: Vec<Request> = (0..10).map(|k| Request::HashDelete { key: k }).collect();
        let _ = s.apply_batch(&deletes);
        assert!(s.hash_tombstones() > 0, "deletes must leave tombstones");
        // Push past half full: the growth rebuild must purge every
        // tombstone while keeping all live keys findable.
        let more: Vec<Request> = (100..160).map(|k| Request::HashInsert { key: k }).collect();
        let _ = s.apply_batch(&more);
        assert_eq!(s.hash_tombstones(), 0, "growth must purge tombstones");
        assert_eq!(s.hash_len(), 80);
        let probes: Vec<Request> = (0..30)
            .chain(100..160)
            .map(|k| Request::HashLookup { key: k })
            .collect();
        let (resp, _) = s.apply_batch(&probes);
        for (i, r) in resp.iter().enumerate() {
            let expect = i >= 10; // keys 0..10 were deleted
            assert_eq!(*r, Ok(Reply::Found(expect)), "probe {i}");
        }
    }

    #[test]
    fn delete_heavy_churn_digest_is_batch_partition_invariant() {
        // The pinned delete-reinsert regression: a churn trace applied as
        // one batch and in small chunks must be digest-identical, even
        // though the chunked run issues real tombstone writes that the
        // one-shot run nets away entirely.
        let trace: Vec<Request> = (0..120)
            .flat_map(|k| {
                [
                    Request::HashInsert { key: k % 40 },
                    Request::HashDelete { key: (k + 7) % 40 },
                    Request::HashLookup { key: k % 13 },
                ]
            })
            .collect();
        let mut oneshot = state();
        let (oneshot_resp, _) = oneshot.apply_batch(&trace);
        let mut chunked = state();
        let mut chunked_resp = Vec::new();
        for chunk in trace.chunks(11) {
            chunked_resp.extend(chunked.apply_batch(chunk).0);
        }
        assert_eq!(oneshot_resp, chunked_resp);
        assert_eq!(oneshot.digest(), chunked.digest());
    }

    #[test]
    fn checkpoint_restore_rewinds_deletes_and_tombstones() {
        let mut s = state();
        let inserts: Vec<Request> = (0..20).map(|k| Request::HashInsert { key: k }).collect();
        let _ = s.apply_batch(&inserts);
        let before = s.digest();
        let ck = s.checkpoint();
        let deletes: Vec<Request> = (0..15).map(|k| Request::HashDelete { key: k }).collect();
        let _ = s.apply_batch(&deletes);
        assert_ne!(s.digest(), before);
        s.restore(&ck);
        assert_eq!(s.digest(), before);
        assert_eq!(s.hash_tombstones(), 0, "tombstone count rewinds");
        let (resp, _) = s.apply_batch(&[Request::HashLookup { key: 0 }]);
        assert_eq!(resp[0], Ok(Reply::Found(true)));
    }

    #[test]
    fn checkpoint_restore_rewinds_an_in_place_shrink() {
        let mut s = state();
        let inserts: Vec<Request> = (0..300).map(|k| Request::HashInsert { key: k }).collect();
        let _ = s.apply_batch(&inserts);
        let (cap, top) = (s.hash_capacity(), s.checkpoint().heap_top());
        let before = s.digest();
        let ck = s.checkpoint();
        // Past cap/4 tombstones the purge shrinks the table inside its own
        // region and releases the tail.
        let deletes: Vec<Request> = (0..290).map(|k| Request::HashDelete { key: k }).collect();
        let _ = s.apply_batch(&deletes);
        assert!(s.hash_capacity() < cap, "the purge must shrink the table");
        assert!(
            s.checkpoint().heap_top() < top,
            "the shrink must release cells"
        );
        s.restore(&ck);
        assert_eq!(s.digest(), before);
        assert_eq!((s.hash_capacity(), s.hash_tombstones()), (cap, 0));
        let lookups: Vec<Request> = (0..300).map(|k| Request::HashLookup { key: k }).collect();
        let (resp, _) = s.apply_batch(&lookups);
        assert!(resp.iter().all(|r| *r == Ok(Reply::Found(true))));
    }

    #[test]
    fn hash_table_grows_past_initial_capacity() {
        let mut s = state(); // cap 64 → grows beyond 32 keys
        let inserts: Vec<Request> = (0..200).map(|k| Request::HashInsert { key: k }).collect();
        let (resp, _) = s.apply_batch(&inserts);
        assert!(resp.iter().all(|r| *r == Ok(Reply::Inserted(true))));
        assert_eq!(s.hash_len(), 200);
        let digest = s.digest();
        assert_eq!(digest.hash_keys, (0..200).collect::<Vec<u64>>());
        // Lookups after growth still find everything.
        let lookups: Vec<Request> = (0..200).map(|k| Request::HashLookup { key: k }).collect();
        let (resp, _) = s.apply_batch(&lookups);
        assert!(resp.iter().all(|r| *r == Ok(Reply::Found(true))));
    }

    #[test]
    fn counters_serialize_in_batch_order() {
        let mut s = state();
        let (resp, _) = s.apply_batch(&[
            Request::CounterAdd {
                counter: 3,
                delta: 5,
            },
            Request::CounterRead { counter: 3 },
            Request::CounterAdd {
                counter: 3,
                delta: 2,
            },
            Request::CounterRead { counter: 3 },
            Request::CounterRead { counter: 7 },
        ]);
        assert_eq!(resp[0], Ok(Reply::Counter(0)));
        assert_eq!(resp[1], Ok(Reply::Counter(5)));
        assert_eq!(resp[2], Ok(Reply::Counter(5)));
        assert_eq!(resp[3], Ok(Reply::Counter(7)));
        assert_eq!(resp[4], Ok(Reply::Counter(0)));
        let d = s.digest();
        assert_eq!(d.counters[3], 7);
        // Counter 0 was never touched: still EMPTY in the raw region.
        assert_eq!(d.counters[0], EMPTY);
        assert_eq!(d.counters[7], 0, "a pure read materializes the cell");
    }

    #[test]
    fn tasks_are_fifo_across_batches() {
        let mut s = state();
        let (resp, _) = s.apply_batch(&[
            Request::TaskSteal,
            Request::TaskSubmit { payload: 70 },
            Request::TaskSubmit { payload: 71 },
        ]);
        assert_eq!(resp[0], Ok(Reply::TaskStolen(None)), "steal before submit");
        assert_eq!(resp[1], Ok(Reply::TaskQueued(0)));
        assert_eq!(resp[2], Ok(Reply::TaskQueued(1)));
        let (resp, _) = s.apply_batch(&[
            Request::TaskSubmit { payload: 72 },
            Request::TaskSteal,
            Request::TaskSteal,
        ]);
        assert_eq!(
            resp[1],
            Ok(Reply::TaskStolen(Some((0, 70)))),
            "oldest first"
        );
        assert_eq!(resp[2], Ok(Reply::TaskStolen(Some((1, 71)))));
        assert_eq!(s.digest().pending_tasks, vec![(2, 72)]);
        assert_eq!(s.pending_tasks(), 1);
    }

    #[test]
    fn growth_across_batches_spans_shards_and_keeps_oneshot_parity() {
        // A multi-shard service: the counter bank alone crosses a shard
        // boundary and ends just below the next one, so the hash table's
        // doubling growth across batches appends a third shard live.  The
        // digest must not care where batch boundaries fall even while the
        // arena is growing underneath the batches.
        let config = ServiceConfig {
            num_counters: 2 * qrqw_exec::SHARD_CELLS - 1500,
            task_procs: 4,
            hash_capacity: 64,
            seed: 1,
        };
        let trace: Vec<Request> = (0..300)
            .flat_map(|k| {
                [
                    Request::HashInsert { key: k * 3 },
                    Request::CounterAdd {
                        counter: (k as usize * 911) % config.num_counters,
                        delta: k + 1,
                    },
                ]
            })
            .collect();

        let mut oneshot = ServiceState::with_pool(config, StepPool::with_threads(2));
        let _ = oneshot.apply_batch(&trace);

        let mut batched = ServiceState::with_pool(config, StepPool::with_threads(2));
        let start_shards = batched.arena_stats().shards;
        assert!(start_shards >= 2, "counter bank must already span shards");
        for chunk in trace.chunks(37) {
            let _ = batched.apply_batch(chunk);
        }
        assert!(
            batched.arena_stats().shards > start_shards,
            "hash growth across batches must have appended shards"
        );
        assert_eq!(batched.digest(), oneshot.digest());
    }

    #[test]
    fn invalid_requests_fail_without_poisoning_the_batch() {
        let mut s = state();
        let (resp, _) = s.apply_batch(&[
            Request::HashInsert { key: MAX_KEY },
            Request::CounterAdd {
                counter: 99,
                delta: 1,
            },
            Request::Fault(Fault::Error),
            Request::HashInsert { key: 1 },
        ]);
        assert_eq!(resp[0], Err(ServiceError::KeyOutOfRange(MAX_KEY)));
        assert_eq!(resp[1], Err(ServiceError::UnknownCounter(99)));
        assert_eq!(resp[2], Err(ServiceError::Injected));
        assert_eq!(resp[3], Ok(Reply::Inserted(true)));
        assert_eq!(s.digest().hash_keys, vec![1]);
    }

    #[test]
    #[should_panic(expected = "injected panic")]
    fn fault_panic_unwinds_before_machine_state_changes() {
        let mut s = state();
        let _ = s.apply_batch(&[Request::HashInsert { key: 5 }, Request::Fault(Fault::Panic)]);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut s = state();
        let (resp, cost) = s.apply_batch(&[]);
        assert!(resp.is_empty());
        assert_eq!(cost.steps, 0);
    }

    #[test]
    fn checkpoint_restore_round_trips_the_digest_across_hash_growth() {
        let mut s = state(); // hash cap 64: 200 inserts force doubling
        let _ = s.apply_batch(&[
            Request::HashInsert { key: 3 },
            Request::CounterAdd {
                counter: 1,
                delta: 4,
            },
            Request::TaskSubmit { payload: 9 },
        ]);
        let before = s.digest();
        let ck = s.checkpoint();
        // Mutate everything the checkpoint must cover, including a table
        // reserve (the region grows in place, raising the allocation top)
        // and task churn.
        let mut churn: Vec<Request> = (100..300).map(|k| Request::HashInsert { key: k }).collect();
        churn.push(Request::CounterAdd {
            counter: 1,
            delta: 11,
        });
        churn.push(Request::TaskSteal);
        churn.push(Request::TaskSubmit { payload: 10 });
        let _ = s.apply_batch(&churn);
        assert_ne!(s.digest(), before);
        s.restore(&ck);
        assert_eq!(s.digest(), before, "restore must be digest-identical");
        // The restored state still serves correctly: replay a subset and
        // get the same replies a never-diverged state would give.
        let (resp, _) = s.apply_batch(&[
            Request::HashLookup { key: 3 },
            Request::HashLookup { key: 100 },
            Request::CounterRead { counter: 1 },
            Request::TaskSteal,
        ]);
        assert_eq!(resp[0], Ok(Reply::Found(true)));
        assert_eq!(resp[1], Ok(Reply::Found(false)), "rolled-back key is gone");
        assert_eq!(resp[2], Ok(Reply::Counter(4)));
        assert_eq!(resp[3], Ok(Reply::TaskStolen(Some((0, 9)))));
    }

    #[test]
    fn restore_after_a_caught_panic_erases_partial_host_mutations() {
        // Fault::Panic fires during the decode walk, *after* earlier
        // requests in the batch have already mutated host-side task state —
        // exactly the torn half-applied state the checkpoint must erase.
        let mut s = state();
        let ck = s.checkpoint();
        let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.apply_batch(&[
                Request::TaskSubmit { payload: 5 },
                Request::Fault(Fault::Panic),
            ])
        }));
        assert!(torn.is_err());
        assert_eq!(s.pending_tasks(), 1, "decode mutated before the panic");
        s.restore(&ck);
        assert_eq!(s.pending_tasks(), 0);
        // Replaying only the innocent request now observes a clean trace.
        let (resp, _) = s.apply_batch(&[Request::TaskSubmit { payload: 5 }]);
        assert_eq!(resp[0], Ok(Reply::TaskQueued(0)), "seq counter rewound");
    }

    #[test]
    fn checkpoint_into_reuses_buffers() {
        let mut s = state();
        let _ = s.apply_batch(&[Request::HashInsert { key: 1 }]);
        let mut ck = ServiceCheckpoint::default();
        s.checkpoint_into(&mut ck);
        let _ = s.apply_batch(&[Request::HashInsert { key: 2 }]);
        s.checkpoint_into(&mut ck);
        s.restore(&ck);
        assert_eq!(s.digest().hash_keys, vec![1, 2]);
    }
}
