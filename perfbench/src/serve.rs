//! The service half of a workload: the batched `qrqw-serve` server driven
//! by one generator thread (the `loadgen` layer), with every reply checked
//! against a plain-Rust reference model.
//!
//! With a single generator thread, submission order is the trace order,
//! and the service's replies are trace-deterministic, so the model
//! (`HashSet` for keys, `Vec<u64>` for counters) predicts every reply
//! exactly.  Any mismatch counts as a failed operation.
//!
//! Phases, in order, on one server:
//!
//! * prefill (part of set-up): churn inserts a seeded random `live` keys,
//!   two-thirds of its keyspace, the mix's steady-state live fraction;
//!   counter adds 1 to every counter;
//! * closed loop: a fixed number of requests with a window of outstanding
//!   requests twice the batch cap; its throughput is the request count
//!   over the loop's busy time, and `sat_rps` is the median of
//!   [`CLOSED_REPS`] such loops, each on a freshly set-up server (the
//!   first one is the server the open loop then runs on);
//! * open loop: requests due on a fixed schedule at the workload's rate,
//!   each timed from its due instant to its observed reply; `p50_ms` and
//!   `p99_ms` are medians of per-window quantiles.
//!
//! The traced run repeats the phases, then replays the same request stream
//! from one thread straight through `ServiceState::checkpoint_into` and
//! `apply_batch`, cut at the batch cap, timing both calls.

use std::collections::{HashSet, VecDeque};
use std::time::{Duration, Instant};

use qrqw_exec::BatchCost;
use qrqw_serve::{
    BatchPolicy, Reply, Request, Response, Server, ServiceCheckpoint, ServiceConfig, ServiceError,
    ServiceHandle, ServiceState,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::algo::pool;
use crate::baton::Baton;
use crate::pin;
use crate::report::{mean, median, quantile, Outcome};

/// Requests per batch at most.
const BATCH_CAP: usize = 256;
/// How long an under-full batch waits for more requests.
const LINGER: Duration = Duration::from_micros(200);
/// Counters in the service's bank.
const NUM_COUNTERS: usize = 1024;
/// Outstanding requests the closed loop keeps in flight.
const WINDOW: usize = 2 * BATCH_CAP;
/// Closed loops per metrics run, each on a freshly set-up server.
const CLOSED_REPS: usize = 3;
/// Due-time span of one open-loop window, in seconds.  A window's p99 is
/// its slowest 1%: 0.5 ms of traffic when the window lasts 50 ms, so a
/// stall of the host longer than that spoils only its own window, and the
/// median over the windows ignores it unless such stalls hit most of them.
/// At the slowest offered rate (50k/s) a window still holds 2,500
/// requests, 25 of them beyond its p99.
const OPEN_WINDOW_S: f64 = 0.05;
/// Independent set-ups timed per run; `setup_s` takes their median.
pub const SETUPS: usize = 9;
/// Share of `--seconds` the open loop lasts.
const OPEN_SHARE: f64 = 0.3;

/// A request mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 80% fetch&add (delta 1–15) and 20% read over the counter bank.
    Counter,
    /// 40% insert, 20% delete and 40% lookup over uniform keys.
    Churn,
}

/// The service half of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Request mix.
    pub mix: Mix,
    /// Keys the churn prefill inserts (unused by the counter mix).
    pub live: usize,
    /// Share of `--seconds` each closed loop is sized for, at the
    /// capacity hint.
    pub closed_share: f64,
    /// Offered rate of the open loop, requests per second.
    pub open_rate: f64,
    /// Expected closed-loop capacity, requests per second; sizes the
    /// closed loop by request count.
    pub capacity_hint: f64,
}

impl Spec {
    /// Distinct keys the churn mix draws from: 3/2 of `live`, so the mix's
    /// 2:1 insert-to-delete ratio holds the live set steady.
    fn keyspace(&self) -> u64 {
        self.live as u64 * 3 / 2
    }

    fn closed_requests(&self, seconds: f64) -> usize {
        (self.capacity_hint * seconds * self.closed_share) as usize
    }

    fn open_requests(&self, seconds: f64) -> usize {
        (self.open_rate * seconds * OPEN_SHARE) as usize
    }

    fn config(&self, seed: u64) -> ServiceConfig {
        ServiceConfig {
            seed,
            num_counters: NUM_COUNTERS,
            ..ServiceConfig::default()
        }
    }

    fn spawn(&self, seed: u64) -> Server {
        let policy = BatchPolicy::with_max_batch(BATCH_CAP).linger(LINGER);
        pin::beside(|| Server::spawn_with_pool(self.config(seed), policy, pool(1)))
    }

    /// The set-up requests: the prefill.
    fn prefill(&self, seed: u64) -> Vec<Request> {
        match self.mix {
            Mix::Counter => (0..NUM_COUNTERS)
                .map(|counter| Request::CounterAdd { counter, delta: 1 })
                .collect(),
            Mix::Churn => {
                // A seeded random subset of exactly `live` keys, in random
                // order (a partial Fisher–Yates over the keyspace).
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x5052_4546);
                let mut keys: Vec<u64> = (0..self.keyspace()).collect();
                for i in 0..self.live {
                    let j = rng.gen_range(i..keys.len());
                    keys.swap(i, j);
                }
                keys.truncate(self.live);
                keys.into_iter()
                    .map(|key| Request::HashInsert { key })
                    .collect()
            }
        }
    }

    /// The request generator of one phase.
    fn generator(&self, seed: u64, phase: u64) -> Generator {
        Generator {
            rng: SmallRng::seed_from_u64(seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            spec: *self,
        }
    }
}

/// Seeded request source of one phase.
struct Generator {
    rng: SmallRng,
    spec: Spec,
}

impl Generator {
    fn next(&mut self) -> Request {
        match self.spec.mix {
            Mix::Counter => {
                let counter = self.rng.gen_range(0..NUM_COUNTERS);
                if self.rng.gen_range(0..5u64) == 0 {
                    Request::CounterRead { counter }
                } else {
                    Request::CounterAdd {
                        counter,
                        delta: self.rng.gen_range(1..16u64),
                    }
                }
            }
            Mix::Churn => {
                let key = self.rng.gen_range(0..self.spec.keyspace());
                match self.rng.gen_range(0..10u64) {
                    0..=3 => Request::HashInsert { key },
                    4..=5 => Request::HashDelete { key },
                    _ => Request::HashLookup { key },
                }
            }
        }
    }
}

const CLOSED_PHASE: u64 = 1;
const OPEN_PHASE: u64 = 2;

/// The plain reference model every reply is checked against.
struct Model {
    present: HashSet<u64>,
    counters: Vec<u64>,
}

impl Model {
    fn new() -> Self {
        Model {
            present: HashSet::new(),
            counters: vec![0; NUM_COUNTERS],
        }
    }

    /// The reply `request` must get, advancing the model past it.
    fn expect(&mut self, request: &Request) -> Reply {
        match *request {
            Request::HashInsert { key } => Reply::Inserted(self.present.insert(key)),
            Request::HashDelete { key } => Reply::Removed(self.present.remove(&key)),
            Request::HashLookup { key } | Request::HashContains { key } => {
                Reply::Found(self.present.contains(&key))
            }
            Request::CounterAdd { counter, delta } => {
                let old = self.counters[counter];
                self.counters[counter] = old + delta;
                Reply::Counter(old)
            }
            Request::CounterRead { counter } => Reply::Counter(self.counters[counter]),
            other => panic!("the generator never produces {other:?}"),
        }
    }
}

/// Per-phase request accounting.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    sent: u64,
    served: u64,
    shed: u64,
    failed: u64,
    mismatched: u64,
}

impl Tally {
    /// Checks one response against the model.
    fn settle(&mut self, model: &mut Model, request: &Request, response: Response) {
        match response {
            Ok(reply) => {
                let want = model.expect(request);
                if reply == want {
                    self.served += 1;
                } else {
                    if self.mismatched == 0 {
                        eprintln!(
                            "perfbench: reply mismatch: {request:?} got {reply:?}, \
                             the reference model says {want:?}"
                        );
                    }
                    self.mismatched += 1;
                    self.failed += 1;
                }
            }
            Err(
                ServiceError::Overloaded
                | ServiceError::DeadlineExceeded
                | ServiceError::ShuttingDown
                | ServiceError::ServerGone,
            ) => self.shed += 1,
            Err(e) => {
                eprintln!("perfbench: {request:?} failed: {e}");
                self.failed += 1;
            }
        }
    }

    /// Folds the phase into the run's totals.
    fn record(&self, phase: &str, out: &mut Outcome) {
        eprintln!(
            "  {phase:<8} sent {:>9}  served {:>9}  shed {:>4}  failed {:>4}  mismatched {:>4}",
            self.sent, self.served, self.shed, self.failed, self.mismatched
        );
        out.attempted += self.sent;
        out.failed += self.shed + self.failed;
        if self.mismatched > 0 {
            out.error(format!(
                "{phase}: {} replies disagree with the reference model",
                self.mismatched
            ));
        }
        if self.served + self.shed + self.failed != self.sent {
            out.error(format!("{phase}: {} requests never resolved", self.sent));
        }
    }
}

/// What one closed loop measured.
struct ClosedRun {
    /// Requests over the loop's busy time, per second.
    rps: f64,
    /// Throughput of each of the loop's turns, per second.
    turn_rps: Vec<f64>,
}

/// Sends `total` requests with at most [`WINDOW`] outstanding.  When the
/// turn is over it stops sending, collects the replies in flight and
/// passes the turn; the throughput counts the loop's own turns only.
fn closed_loop(
    handle: &ServiceHandle,
    mut requests: impl Iterator<Item = Request>,
    total: usize,
    model: &mut Model,
    tally: &mut Tally,
    mut baton: Option<&mut Baton>,
) -> ClosedRun {
    let mut inflight: VecDeque<(Request, qrqw_serve::Ticket)> = VecDeque::with_capacity(WINDOW);
    let mut busy = Duration::ZERO;
    let mut turn_rps = Vec::new();
    let mut turn_start = Instant::now();
    let mut turn_done = 0;
    let mut sent = 0;
    let mut draining = false;
    while turn_done > 0 || sent < total {
        while !draining && inflight.len() < WINDOW && sent < total {
            let request = requests.next().expect("the stream covers the phase");
            inflight.push_back((request, handle.submit(request)));
            tally.sent += 1;
            sent += 1;
        }
        if let Some((request, ticket)) = inflight.pop_front() {
            tally.settle(model, &request, ticket.wait());
            turn_done += 1;
            if turn_done % 64 == 0 {
                draining |= baton.as_ref().is_some_and(|b| b.turn_over());
            }
        }
        if inflight.is_empty() && (draining || sent == total) {
            let t = turn_start.elapsed();
            busy += t;
            turn_rps.push(turn_done as f64 / t.as_secs_f64());
            turn_done = 0;
            draining = false;
            if sent < total {
                if let Some(b) = baton.as_deref_mut() {
                    b.pass();
                }
            }
            turn_start = Instant::now();
        }
    }
    ClosedRun {
        rps: total as f64 / busy.as_secs_f64(),
        turn_rps,
    }
}

/// What the open loop measured.
struct OpenRun {
    /// Requests due within one window.
    per_window: usize,
    /// Per-request latency from due instant to observed reply, ms.
    latency_ms: Vec<f64>,
    /// Per-request lateness of the send past its due instant, ms.
    late_ms: Vec<f64>,
}

impl OpenRun {
    /// The `q` latency quantile of each window.
    fn windows(&self, q: f64) -> Vec<f64> {
        self.latency_ms
            .chunks(self.per_window)
            .map(|w| quantile(&mut w.to_vec(), q))
            .collect()
    }

    /// Median over the windows of the windows' `q` latency quantiles.
    fn latency(&self, q: f64) -> f64 {
        median(&self.windows(q))
    }
}

/// Sends `total` requests at `rate` per second, polling replies in
/// submission order between sends.  The schedule runs in turns of whole
/// windows: request `i` of a turn that starts at `start` with request
/// `first` is due at `start + (i - first) / rate`.  When the turn is over
/// at a window boundary it stops sending, collects the replies in flight
/// and passes the turn.
///
/// With nothing due and no reply ready, the generator sleeps 20 µs
/// instead of spinning, then sends whatever has come due in one burst.  A
/// spinning generator holds one of the host's two cores, so every other
/// task on the machine lands on the batcher's core and stalls whole
/// batches.  The cost is lateness: each request is timed from its due
/// instant, so how late its send was is part of its latency, and the
/// traced run reports it as `loadgen.late_p99_ms`.
fn open_loop(
    handle: &ServiceHandle,
    mut requests: impl Iterator<Item = Request>,
    total: usize,
    rate: f64,
    model: &mut Model,
    tally: &mut Tally,
    mut baton: Option<&mut Baton>,
) -> OpenRun {
    let per_window = ((rate * OPEN_WINDOW_S) as usize).max(1);
    let interval_ns = 1e9 / rate;
    let mut start = Instant::now();
    let mut first = 0;
    let mut latency_ms = vec![0.0; total];
    let mut late_ms = vec![0.0; total];
    let mut inflight: VecDeque<(usize, Instant, Request, qrqw_serve::Ticket)> = VecDeque::new();
    let mut next = 0;
    let mut done = 0;
    let mut draining = false;
    while done < total {
        let mut idle = true;
        loop {
            if next == total || draining {
                break;
            }
            if next % per_window == 0 && next > first {
                draining = baton.as_ref().is_some_and(|b| b.turn_over());
                if draining {
                    break;
                }
            }
            let due = start + Duration::from_nanos(((next - first) as f64 * interval_ns) as u64);
            if due > Instant::now() {
                break;
            }
            let request = requests.next().expect("the stream covers the phase");
            let ticket = handle.submit(request);
            late_ms[next] = Instant::now().duration_since(due).as_secs_f64() * 1e3;
            inflight.push_back((next, due, request, ticket));
            tally.sent += 1;
            next += 1;
            idle = false;
        }
        while let Some((i, due, request, ticket)) = inflight.front() {
            let Some(response) = ticket.try_wait() else {
                break;
            };
            latency_ms[*i] = Instant::now().duration_since(*due).as_secs_f64() * 1e3;
            tally.settle(model, request, response);
            inflight.pop_front();
            done += 1;
            idle = false;
        }
        if draining && inflight.is_empty() {
            if let Some(b) = baton.as_deref_mut() {
                b.pass();
            }
            draining = false;
            start = Instant::now();
            first = next;
        } else if idle {
            std::thread::sleep(Duration::from_micros(20));
        }
    }
    OpenRun {
        per_window,
        latency_ms,
        late_ms,
    }
}

/// A running server with its model, after prefill.
struct Live {
    server: Server,
    model: Model,
}

/// Spawns the server and prefills it; returns it with the set-up time in
/// seconds.
fn setup(spec: &Spec, seed: u64, out: &mut Outcome) -> (Live, f64) {
    let start = Instant::now();
    let server = spec.spawn(seed);
    let mut model = Model::new();
    let prefill = spec.prefill(seed);
    let mut tally = Tally::default();
    let n = prefill.len();
    closed_loop(
        &server.handle(),
        prefill.into_iter(),
        n,
        &mut model,
        &mut tally,
        None,
    );
    let secs = start.elapsed().as_secs_f64();
    tally.record("prefill", out);
    (Live { server, model }, secs)
}

/// Shuts the server down and checks its final state against the model.
fn finish(live: Live, out: &mut Outcome) -> qrqw_serve::ServiceStats {
    let (state, stats) = live.server.shutdown();
    let digest = state.digest();
    let mut keys: Vec<u64> = live.model.present.iter().copied().collect();
    keys.sort_unstable();
    let counters: Vec<u64> = digest
        .counters
        .iter()
        .map(|&c| if c == qrqw_sim::EMPTY { 0 } else { c })
        .collect();
    if digest.hash_keys != keys || counters != live.model.counters {
        out.error("final service state differs from the reference model".into());
    }
    stats
}

/// The metrics run: timed set-ups, the first closed loop and the open
/// loop on the last set-up, then the other closed loops, each on a server
/// of its own.  Pushes `sat_rps`, `p50_ms` and `p99_ms`; returns the
/// median set-up time in seconds.
pub fn measure(spec: &Spec, seed: u64, seconds: f64, baton: &mut Baton, out: &mut Outcome) -> f64 {
    baton.plan(Duration::from_secs_f64(
        CLOSED_REPS as f64 * spec.closed_requests(seconds) as f64 / spec.capacity_hint
            + spec.open_requests(seconds) as f64 / spec.open_rate,
    ));
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some(previous) = live.take() {
            finish(previous, out);
        }
        let (l, secs) = setup(spec, seed, out);
        setups.push(secs);
        live = Some(l);
        baton.pass_if_over();
    }
    let mut live = live.expect("at least one set-up");
    let (first, open) = phases(spec, seed, seconds, &mut live, baton, out);
    finish(live, out);
    let mut sat = vec![first];
    for _ in 1..CLOSED_REPS {
        let (mut live, _) = setup(spec, seed, out);
        sat.push(closed_phase(spec, seed, seconds, &mut live, baton, out));
        finish(live, out);
    }
    eprintln!(
        "service: sat_rps is the median of {} closed loops: {}",
        sat.len(),
        sat.iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    out.push("sat_rps", median(&sat), "1/s");
    out.push("p50_ms", open.latency(0.50), "ms");
    out.push("p99_ms", open.latency(0.99), "ms");
    median(&setups)
}

/// Runs the closed loop on `live`; returns its throughput.
fn closed_phase(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    live: &mut Live,
    baton: &mut Baton,
    out: &mut Outcome,
) -> f64 {
    let handle = live.server.handle();
    let closed_total = spec.closed_requests(seconds);
    let mut gen = spec.generator(seed, CLOSED_PHASE);
    let mut tally = Tally::default();
    let run = closed_loop(
        &handle,
        std::iter::from_fn(|| Some(gen.next())),
        closed_total,
        &mut live.model,
        &mut tally,
        Some(baton),
    );
    eprintln!(
        "  closed-loop turns, k req/s: {}",
        run.turn_rps
            .iter()
            .map(|v| format!("{:.0}", v / 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    );
    eprintln!(
        "service: closed loop, window {WINDOW}, {closed_total} requests: {:.0} req/s",
        run.rps
    );
    tally.record("closed", out);
    run.rps
}

/// Runs the closed then the open loop on `live`; returns the closed-loop
/// throughput and the open-loop record.
fn phases(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    live: &mut Live,
    baton: &mut Baton,
    out: &mut Outcome,
) -> (f64, OpenRun) {
    let sat = closed_phase(spec, seed, seconds, live, baton, out);
    let handle = live.server.handle();

    let open_total = spec.open_requests(seconds);
    let mut gen = spec.generator(seed, OPEN_PHASE);
    let mut tally = Tally::default();
    let open = open_loop(
        &handle,
        std::iter::from_fn(|| Some(gen.next())),
        open_total,
        spec.open_rate,
        &mut live.model,
        &mut tally,
        Some(baton),
    );
    eprintln!(
        "service: open loop at {:.0} req/s, {open_total} requests in {} windows of {} ms, \
         timed from due:",
        spec.open_rate,
        open.windows(0.5).len(),
        OPEN_WINDOW_S * 1e3
    );
    for (name, q) in [("p50", 0.50), ("p99", 0.99)] {
        let mut w = open.windows(q);
        eprintln!(
            "  {name}: median over windows {:.4} ms (min {:.4}, max {:.4})",
            median(&w),
            quantile(&mut w, 0.0),
            quantile(&mut w, 1.0)
        );
    }
    tally.record("open", out);
    (sat, open)
}

/// The traced run: the phases again (for the runtime and loadgen
/// layers), then a replay of the same stream through `ServiceState`.
pub fn trace(spec: &Spec, seed: u64, seconds: f64, baton: &mut Baton, out: &mut Outcome) {
    let (mut live, _) = setup(spec, seed, out);
    let (sat, open) = phases(spec, seed, seconds, &mut live, baton, out);
    let stats = finish(live, out);
    let p50_us = open.latency(0.50) * 1e3;
    let late_p99 = quantile(&mut open.late_ms.clone(), 0.99);

    let traced = replay(spec, seed, seconds, out);
    let batches = traced.checkpoint_us.len() as f64;
    let ck_us = mean(&traced.checkpoint_us);
    let apply_us = mean(&traced.apply_us);
    let overhead = traced.traced_wall.as_secs_f64() / traced.plain_wall.as_secs_f64() - 1.0;
    eprintln!(
        "state: replay of {} batches of {BATCH_CAP}: checkpoint {ck_us:.3} us + apply \
         {apply_us:.3} us per batch (means); {:.2} steps, {:.2} claims, {:.3} contended per \
         batch; arena {:.2} MiB; trace overhead {overhead:+.4}",
        batches,
        traced.cost.steps as f64 / batches,
        traced.cost.claim_attempts as f64 / batches,
        traced.cost.contended_claims as f64 / batches,
        traced.arena_mib
    );
    // The checkpoint and apply spans are children of each batch's span in
    // the traced replay; together they cannot exceed it.
    let spans_s =
        (traced.checkpoint_us.iter().sum::<f64>() + traced.apply_us.iter().sum::<f64>()) / 1e6;
    let batch_s = traced.traced_wall.as_secs_f64();
    eprintln!(
        "  reconcile: checkpoint + apply spans {spans_s:.4} s within the batch spans \
         {batch_s:.4} s; per request at the cap {:.4} us vs closed-loop wall {:.4} us",
        (ck_us + apply_us) / BATCH_CAP as f64,
        1e6 / sat
    );
    if spans_s > batch_s {
        out.error(format!(
            "state spans ({spans_s:.4} s) exceed the batch spans that contain them \
             ({batch_s:.4} s)"
        ));
    }
    let wait_us = p50_us - (ck_us + apply_us);
    eprintln!(
        "runtime: open-loop p50 {p50_us:.3} us - (checkpoint + apply) = {wait_us:.3} us \
         waiting; {:.2} requests per batch over the server's life; loadgen p99 lateness \
         {late_p99:.4} ms",
        stats.mean_batch()
    );

    out.push("state.checkpoint_us", ck_us, "us");
    out.push("state.apply_us", apply_us, "us");
    out.push(
        "state.batch_steps",
        traced.cost.steps as f64 / batches,
        "count",
    );
    out.push(
        "state.batch_claims",
        traced.cost.claim_attempts as f64 / batches,
        "count",
    );
    out.push(
        "state.contended_per_batch",
        traced.cost.contended_claims as f64 / batches,
        "count",
    );
    out.push("state.arena_mib", traced.arena_mib, "MiB");
    out.push("state.trace_overhead_frac", overhead, "frac");
    out.push("runtime.wait_us", wait_us, "us");
    out.push("runtime.mean_batch", stats.mean_batch(), "count");
    out.push("loadgen.late_p99_ms", late_p99, "ms");
}

/// What the replay measured.
struct Replay {
    /// Per-batch checkpoint and apply times of the traced state, µs.
    checkpoint_us: Vec<f64>,
    apply_us: Vec<f64>,
    /// Summed machine cost of the replayed batches.
    cost: BatchCost,
    /// Summed batch spans (checkpoint, apply and reply check) of the
    /// traced and of the untraced state.
    traced_wall: Duration,
    plain_wall: Duration,
    /// Arena footprint of the traced state at the end, MiB.
    arena_mib: f64,
}

/// One replayed service: a fresh `ServiceState`, its checkpoint buffer and
/// its reference model.
struct Replica {
    state: ServiceState,
    ck: ServiceCheckpoint,
    model: Model,
    tally: Tally,
}

impl Replica {
    fn new(spec: &Spec, seed: u64) -> Self {
        let mut r = Replica {
            state: ServiceState::with_pool(spec.config(seed), pool(1)),
            ck: ServiceCheckpoint::default(),
            model: Model::new(),
            tally: Tally::default(),
        };
        for batch in spec.prefill(seed).chunks(BATCH_CAP) {
            r.state.checkpoint_into(&mut r.ck);
            let (responses, _) = r.state.apply_batch(batch);
            r.check(batch, responses);
        }
        r
    }

    fn check(&mut self, batch: &[Request], responses: Vec<Response>) {
        for (request, response) in batch.iter().zip(responses) {
            self.tally.sent += 1;
            self.tally.settle(&mut self.model, request, response);
        }
    }
}

/// Batches per block of the lockstep replay: which of the two states goes
/// first flips every block.
const REPLAY_BLOCK: usize = 32;

/// Replays the prefill, closed and open streams, cut at the batch cap,
/// through two fresh `ServiceState`s in lockstep: the traced one records a
/// span around each checkpoint and apply, the untraced one only the batch
/// wall.  Which goes first flips every [`REPLAY_BLOCK`] batches, so drift
/// and cache effects fall on both alike and the wall difference is the
/// tracing overhead.  Every reply of both is checked against its own
/// reference model.
fn replay(spec: &Spec, seed: u64, seconds: f64, out: &mut Outcome) -> Replay {
    let mut traced = Replica::new(spec, seed);
    let mut plain = Replica::new(spec, seed);
    let mut closed = spec.generator(seed, CLOSED_PHASE);
    let mut open = spec.generator(seed, OPEN_PHASE);
    let mut stream = std::iter::repeat_with(|| closed.next())
        .take(spec.closed_requests(seconds))
        .chain(std::iter::repeat_with(|| open.next()).take(spec.open_requests(seconds)));
    let mut batch = Vec::with_capacity(BATCH_CAP);
    let mut r = Replay {
        checkpoint_us: Vec::new(),
        apply_us: Vec::new(),
        cost: BatchCost::default(),
        traced_wall: Duration::ZERO,
        plain_wall: Duration::ZERO,
        arena_mib: 0.0,
    };
    for k in 0.. {
        batch.clear();
        batch.extend(stream.by_ref().take(BATCH_CAP));
        if batch.is_empty() {
            break;
        }
        let traced_first = (k / REPLAY_BLOCK).is_multiple_of(2);
        for traced_turn in [traced_first, !traced_first] {
            if traced_turn {
                let t0 = Instant::now();
                traced.state.checkpoint_into(&mut traced.ck);
                let t1 = Instant::now();
                let (responses, cost) = traced.state.apply_batch(&batch);
                let t2 = Instant::now();
                traced.check(&batch, responses);
                r.checkpoint_us.push((t1 - t0).as_secs_f64() * 1e6);
                r.apply_us.push((t2 - t1).as_secs_f64() * 1e6);
                r.traced_wall += t0.elapsed();
                r.cost += cost;
            } else {
                let t0 = Instant::now();
                plain.state.checkpoint_into(&mut plain.ck);
                let (responses, _) = plain.state.apply_batch(&batch);
                plain.check(&batch, responses);
                r.plain_wall += t0.elapsed();
            }
        }
    }
    r.arena_mib = traced.state.arena_stats().resident_bytes() as f64 / (1024.0 * 1024.0);
    traced.tally.record("replay", out);
    plain.tally.record("replay0", out);
    r
}
