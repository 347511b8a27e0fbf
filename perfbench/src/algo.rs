//! The algorithm half of a workload: six registry algorithms on one warm
//! two-thread [`NativeMachine`].
//!
//! Every rep starts from the same machine state: the machine is
//! snapshotted right after construction and restored before each rep, so
//! the step counter (which keys every random stream) rewinds and every rep
//! of one seed executes the identical trajectory.  The arena keeps the
//! shards earlier reps grew, so a timed rep pays no page faults for memory
//! a previous rep already touched.  Step, claim and contention counts must
//! therefore repeat exactly; any drift fails the run.

use std::hint::black_box;
use std::time::{Duration, Instant};

use qrqw_bench::Algorithm;
use qrqw_exec::{MachineSnapshot, NativeMachine, Schedule, StepPool};
use qrqw_sim::Machine;

use crate::baseline;
use crate::baton::Baton;
use crate::pin;
use crate::report::{mean, median, Outcome};
use crate::traced::{fit_window, Kind, Traced};

/// The benchmarked registry algorithms, in report order.
pub const ALGORITHMS: [Algorithm; 6] = [
    Algorithm::PermutationQrqw,
    Algorithm::CyclicFast,
    Algorithm::IntegerSort,
    Algorithm::SampleSortQrqw,
    Algorithm::Hashing,
    Algorithm::ListRank,
];

/// Worker threads of the algorithm machine.
const THREADS: usize = 2;

/// Independent set-ups timed per run; `setup_s` takes their median.
pub const SETUPS: usize = 9;

/// Items per pool and step probe: above the pool's inline cutoff, so every
/// probe call really wakes the workers.
const PROBE_LEN: usize = 4096;

/// The default dispatch policy, pinned so the environment cannot change
/// what is measured: chunked schedule, fused multi-pass steps.
pub fn pool(threads: usize) -> StepPool {
    StepPool::with_threads(threads)
        .with_schedule(Schedule::Chunked)
        .with_fused(true)
}

/// Exact per-rep counts from the machine's [`qrqw_sim::CostReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    steps: u64,
    claims: u64,
    contended: u64,
}

/// A warm machine plus the state every rep restarts from.
pub struct Bench {
    n: usize,
    machine: Option<NativeMachine>,
    fresh: MachineSnapshot,
    reference: [Option<Counts>; ALGORITHMS.len()],
}

/// One traced rep, split by primitive.
struct TracedRep {
    run_ms: f64,
    kind_ms: [f64; Kind::ALL.len()],
    host_ms: f64,
    claims: u64,
    claim_wins: u64,
}

impl Bench {
    /// Builds the machine and runs the warm-up rep (the first algorithm,
    /// which grows the arena and the step scratch and wakes the pool).
    /// Returns the bench and the set-up time in seconds.
    pub fn setup(n: usize, seed: u64, out: &mut Outcome) -> (Bench, f64) {
        let start = Instant::now();
        let machine = NativeMachine::with_pool(16, seed, pool(THREADS));
        let mut fresh = MachineSnapshot::default();
        machine.snapshot_into(&mut fresh);
        let mut bench = Bench {
            n,
            machine: Some(machine),
            fresh,
            reference: [None; ALGORITHMS.len()],
        };
        bench.rep(0, out);
        (bench, start.elapsed().as_secs_f64())
    }

    fn machine(&mut self) -> &mut NativeMachine {
        self.machine
            .as_mut()
            .expect("the machine is only lent out during a traced rep")
    }

    /// Checks a rep's validity and counts against the first rep of the
    /// same algorithm.
    fn check(&mut self, idx: usize, valid: bool, counts: Counts, traced: bool, out: &mut Outcome) {
        let name = ALGORITHMS[idx].name();
        out.attempted += 1;
        if !valid {
            out.failed += 1;
            out.error(format!("{name}: output failed the registry validator"));
        }
        match self.reference[idx] {
            None => self.reference[idx] = Some(counts),
            Some(first) if first != counts => {
                out.failed += 1;
                out.error(format!(
                    "{name}: counts drifted between reps of one seed \
                     (first {first:?}, now {counts:?}{}) — nondeterminism bug",
                    if traced { ", traced rep" } else { "" }
                ));
            }
            Some(_) => {}
        }
    }

    /// One untraced rep of `ALGORITHMS[idx]`; returns its wall time in ms.
    pub fn rep(&mut self, idx: usize, out: &mut Outcome) -> f64 {
        let n = self.n;
        let fresh = std::mem::take(&mut self.fresh);
        let m = self.machine();
        m.restore(&fresh);
        let (valid, elapsed) = ALGORITHMS[idx].run_on(m, n);
        let counts = counts(&m.cost_report());
        self.fresh = fresh;
        self.check(idx, valid, counts, false, out);
        elapsed.as_secs_f64() * 1e3
    }

    /// One rep through the [`Traced`] wrapper.
    fn traced_rep(&mut self, idx: usize, out: &mut Outcome) -> Option<TracedRep> {
        let algo = ALGORITHMS[idx];
        let mut m = self.machine.take().expect("no traced rep is in progress");
        m.restore(&self.fresh);
        let mut t = Traced::new(m);
        let call_start = Instant::now();
        let (valid, elapsed) = algo.run_on(&mut t, self.n);
        let call_end = Instant::now();
        let report = t.cost_report();
        let claim_wins = t.claim_wins;
        let (m, spans) = t.into_parts();
        self.machine = Some(m);
        self.check(idx, valid, counts(&report), true, out);

        let Some(window) = fit_window(&spans, (call_start, call_end), elapsed) else {
            out.error(format!(
                "{}: no placement of the {elapsed:?} timed window fits the {} recorded spans",
                algo.name(),
                spans.len()
            ));
            return None;
        };
        let mut kind_ms = [0.0; Kind::ALL.len()];
        for s in &spans[window] {
            let k = Kind::ALL.iter().position(|&k| k == s.kind).expect("listed");
            kind_ms[k] += (s.end - s.start).as_secs_f64() * 1e3;
        }
        let run_ms = elapsed.as_secs_f64() * 1e3;
        Some(TracedRep {
            run_ms,
            kind_ms,
            host_ms: run_ms - kind_ms.iter().sum::<f64>(),
            claims: report.claim_attempts,
            claim_wins,
        })
    }
}

fn counts(r: &qrqw_sim::CostReport) -> Counts {
    Counts {
        steps: r.steps,
        claims: r.claim_attempts,
        contended: r.contended_claims,
    }
}

/// Runs whole rounds (every algorithm once, `rep(round, idx)` for each)
/// until `budget` of busy time would be exceeded by one more round, and at
/// least `min_rounds` times.  Passes the turn between reps when it is
/// over, planning the half's busy time from the rounds so far.
fn rounds(
    budget: Duration,
    min_rounds: usize,
    baton: &mut Baton,
    mut rep: impl FnMut(usize, usize),
) -> usize {
    let start = baton.busy();
    let mut done = 0;
    let mut last = Duration::ZERO;
    while done < min_rounds || baton.busy() - start + last <= budget {
        let t = baton.busy();
        for idx in 0..ALGORITHMS.len() {
            rep(done, idx);
            let so_far = baton.busy() - start;
            let rounds_so_far = done as f64 + (idx + 1) as f64 / ALGORITHMS.len() as f64;
            let at_least = so_far.mul_f64(min_rounds as f64 / rounds_so_far);
            baton.plan(start + budget.max(at_least));
            baton.pass_if_over();
        }
        last = baton.busy() - t;
        done += 1;
    }
    done
}

/// Starts the pool's worker on the core beside the calling thread (see
/// [`crate::pin`]); the pool spawns its workers at the first pooled
/// dispatch and keeps them for the life of the process.
fn place_worker() {
    pin::beside(|| pool(THREADS).dispatch(PROBE_LEN, 1, |_, _| {}));
}

/// Builds one [`Bench`] per seed; returns them with the total set-up
/// time in seconds.
fn setup_all(n: usize, seeds: &[u64], out: &mut Outcome) -> (Vec<Bench>, f64) {
    let start = Instant::now();
    let benches = seeds.iter().map(|&s| Bench::setup(n, s, out).0).collect();
    (benches, start.elapsed().as_secs_f64())
}

/// The metrics run: `SETUPS` timed set-ups, then rounds over the six
/// algorithms within `budget`, round `r` on the machine of `seeds[r % k]`.
/// Pushes `<algorithm>_ms` (median wall of the run's reps) and returns the
/// median set-up time in seconds.
pub fn measure(
    n: usize,
    seeds: &[u64],
    budget: Duration,
    min_rounds: usize,
    baton: &mut Baton,
    out: &mut Outcome,
) -> f64 {
    baton.plan(budget);
    place_worker();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut benches = Vec::new();
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so set-ups never overlap.
        benches.clear();
        let (b, secs) = setup_all(n, seeds, out);
        setups.push(secs);
        benches = b;
        baton.pass_if_over();
    }
    let mut samples = vec![Vec::new(); ALGORITHMS.len()];
    let done = rounds(budget, min_rounds, baton, |round, idx| {
        let bench = &mut benches[round % seeds.len()];
        samples[idx].push(bench.rep(idx, out));
    });
    eprintln!(
        "algorithms: n={n}, threads={THREADS}, {done} reps each over {} machine seeds \
         (median reported)",
        seeds.len()
    );
    for (algo, s) in ALGORITHMS.iter().zip(&samples) {
        let ms = median(s);
        let (lo, hi) = s
            .iter()
            .fold((f64::MAX, 0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        eprintln!(
            "  {:<18} {:>10.3} ms  (min {lo:.3}, max {hi:.3})",
            algo.name(),
            ms
        );
        out.push(format!("{}_ms", algo.name()), ms, "ms");
    }
    median(&setups)
}

/// The traced run: untraced and traced reps alternate within `budget`,
/// round `r` on the machine of `seeds[r % k]`; then the sequential
/// baselines and the pool and step probes.
pub fn trace(
    n: usize,
    seeds: &[u64],
    budget: Duration,
    min_rounds: usize,
    baton: &mut Baton,
    out: &mut Outcome,
) {
    place_worker();
    let (mut benches, _) = setup_all(n, seeds, out);
    let mut plain = vec![Vec::new(); ALGORITHMS.len()];
    let mut traced: Vec<Vec<TracedRep>> = (0..ALGORITHMS.len()).map(|_| Vec::new()).collect();
    let done = rounds(budget, min_rounds.max(seeds.len()), baton, |round, idx| {
        let bench = &mut benches[round % seeds.len()];
        // Alternate which of the pair goes first, so drift and cache
        // effects fall on both alike.
        let traced_first = round % 2 == 1;
        for traced_turn in [traced_first, !traced_first] {
            if !traced_turn {
                plain[idx].push(bench.rep(idx, out));
            } else if let Some(t) = bench.traced_rep(idx, out) {
                traced[idx].push(t);
            }
        }
    });
    eprintln!(
        "algorithms: n={n}, threads={THREADS}, {done} untraced + {done} traced reps each over \
         {} machine seeds (per-primitive times and counts are means over traced reps)",
        seeds.len()
    );
    eprintln!(
        "  {:<18} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "algorithm",
        "run_ms",
        "claim",
        "par",
        "scan",
        "seqstep",
        "mem",
        "host",
        "base_ms",
        "x_base"
    );
    let (mut plain_total, mut traced_total) = (0.0, 0.0);
    for (idx, algo) in ALGORITHMS.iter().enumerate() {
        let name = algo.name();
        let reps = &traced[idx];
        if reps.is_empty() {
            continue;
        }
        let run_ms = mean(&reps.iter().map(|r| r.run_ms).collect::<Vec<_>>());
        let plain_ms = median(&plain[idx]);
        plain_total += mean(&plain[idx]);
        traced_total += run_ms;
        let mut kinds = [0.0; Kind::ALL.len()];
        for (k, kind) in Kind::ALL.iter().enumerate() {
            kinds[k] = mean(&reps.iter().map(|r| r.kind_ms[k]).collect::<Vec<_>>());
            out.push(format!("{name}.{}_ms", kind.name()), kinds[k], "ms");
        }
        let host_ms = mean(&reps.iter().map(|r| r.host_ms).collect::<Vec<_>>());
        out.push(format!("{name}.host_ms"), host_ms, "ms");
        // Exact counts per machine seed, averaged over the seeds.
        let per_seed: Vec<Counts> = benches
            .iter()
            .map(|b| b.reference[idx].expect("every seed's machine ran every algorithm"))
            .collect();
        let avg = |f: fn(&Counts) -> u64| {
            per_seed.iter().map(f).sum::<u64>() as f64 / per_seed.len() as f64
        };
        let (steps, claims, contended) =
            (avg(|c| c.steps), avg(|c| c.claims), avg(|c| c.contended));
        out.push(format!("{name}.steps"), steps, "count");
        out.push(format!("{name}.claims"), claims, "count");
        out.push(format!("{name}.contended"), contended, "count");
        let tries: u64 = reps.iter().map(|r| r.claims).sum();
        if tries > 0 {
            let wins: u64 = reps.iter().map(|r| r.claim_wins).sum();
            out.push(
                format!("{name}.claim_success"),
                wins as f64 / tries as f64,
                "frac",
            );
            eprintln!(
                "  {name}: claim success {wins} won / {tries} attempts over {} traced reps; \
                 per rep {steps:.1} steps, {claims:.1} claims, {contended:.1} contended",
                reps.len()
            );
        }
        let base: Vec<f64> = (0..3)
            .map(|_| {
                let (ok, t) = baseline::run(*algo, n, seeds[0]);
                out.attempted += 1;
                if !ok {
                    out.failed += 1;
                    out.error(format!("{name}: sequential baseline output is wrong"));
                }
                t.as_secs_f64() * 1e3
            })
            .collect();
        let base_ms = median(&base);
        out.push(format!("{name}.baseline_ms"), base_ms, "ms");
        out.push(format!("{name}.over_baseline"), plain_ms / base_ms, "x");
        eprintln!(
            "  {:<18} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.1}",
            name,
            run_ms,
            kinds[0],
            kinds[1],
            kinds[2],
            kinds[3],
            kinds[4],
            host_ms,
            base_ms,
            plain_ms / base_ms
        );
    }
    let overhead = traced_total / plain_total - 1.0;
    eprintln!(
        "  trace overhead: {overhead:+.4} (traced {traced_total:.3} ms vs untraced \
         {plain_total:.3} ms, summed over algorithms)"
    );
    out.push("exec.trace_overhead_frac", overhead, "frac");
    drop(benches);

    let p = pool(THREADS);
    let dispatch_us = per_call_us(|| {
        p.dispatch(PROBE_LEN, 1, |lo, hi| {
            black_box((lo, hi));
        })
    });
    let fused_us = per_call_us(|| {
        p.dispatch_fused(PROBE_LEN, 1, 3, |pass, lo, hi| {
            black_box((pass, lo, hi));
        })
    });
    let mut m = NativeMachine::with_pool(PROBE_LEN, seeds[0], pool(THREADS));
    let step_us = per_call_us(|| m.par_for(PROBE_LEN, |p, ctx| ctx.write(p, p as u64)));
    eprintln!(
        "  per call over {PROBE_LEN} items: pool dispatch {dispatch_us:.3} us, fused 3-pass \
         {fused_us:.3} us, machine par_for step {step_us:.3} us"
    );
    out.push("pool.dispatch_us", dispatch_us, "us");
    out.push("pool.fused3_dispatch_us", fused_us, "us");
    out.push("exec.us_per_step", step_us, "us");
}

/// Median over batches of the mean time per call of `f`, in µs.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    const CALLS: u32 = 1000;
    for _ in 0..CALLS {
        f();
    }
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / f64::from(CALLS)
        })
        .collect();
    median(&batches)
}
