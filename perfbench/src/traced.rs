//! A [`Machine`] wrapper that records one span per trait call.
//!
//! [`Traced`] owns a [`NativeMachine`] and forwards every call to it,
//! timing the calls that do work (steps and bulk memory traffic) and
//! tagging each with its primitive [`Kind`].  Cheap getters (`backend`,
//! `seed`, `steps_executed`, `heap_top`, `cost_report`) pass through
//! untimed.  Spans never nest: the inner machine does not call back into
//! the wrapper, so the span list is a sequence of disjoint intervals.
//!
//! The registry's `Algorithm::run_on` times the algorithm itself and
//! leaves input set-up and output validation outside its timer; some of
//! that set-up and validation calls the machine too (list ranking loads
//! its input and dumps its ranks).  [`fit_window`] places the registry's
//! timed window among the recorded spans, so only the calls inside it are
//! charged to the run.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use qrqw_exec::NativeMachine;
use qrqw_sim::{ClaimMode, CostReport, Machine, MachineProc};

/// The primitive family a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `claim`.
    Claim,
    /// `par_map` and `par_for`.
    Par,
    /// `scan_step`, `compact_step` and `global_or_step`.
    Scan,
    /// `seq_step`.
    SeqStep,
    /// `alloc`, `ensure_memory`, `release_to`, `load`, `dump`, `peek`,
    /// `poke` and `clear_region`.
    Mem,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 5] = [Kind::Claim, Kind::Par, Kind::Scan, Kind::SeqStep, Kind::Mem];

    /// Metric-name stem of the kind.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Claim => "claim",
            Kind::Par => "par",
            Kind::Scan => "scan",
            Kind::SeqStep => "seqstep",
            Kind::Mem => "mem",
        }
    }
}

/// One recorded trait call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which primitive ran.
    pub kind: Kind,
    /// When the call began.
    pub start: Instant,
    /// When the call returned.
    pub end: Instant,
}

/// A [`NativeMachine`] that records a [`Span`] per working trait call.
pub struct Traced {
    inner: NativeMachine,
    spans: RefCell<Vec<Span>>,
    /// Claim attempts submitted.
    pub claim_tries: u64,
    /// Claim attempts that won their cell.
    pub claim_wins: u64,
}

impl Traced {
    /// Wraps `inner`, with an empty span record.
    pub fn new(inner: NativeMachine) -> Self {
        Traced {
            inner,
            spans: RefCell::new(Vec::with_capacity(1 << 14)),
            claim_tries: 0,
            claim_wins: 0,
        }
    }

    /// Unwraps the machine and hands back the recorded spans.
    pub fn into_parts(self) -> (NativeMachine, Vec<Span>) {
        (self.inner, self.spans.into_inner())
    }

    fn timed<T>(&mut self, kind: Kind, f: impl FnOnce(&mut NativeMachine) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        let end = Instant::now();
        self.spans.get_mut().push(Span { kind, start, end });
        out
    }

    fn timed_ref<T>(&self, kind: Kind, f: impl FnOnce(&NativeMachine) -> T) -> T {
        let start = Instant::now();
        let out = f(&self.inner);
        let end = Instant::now();
        self.spans.borrow_mut().push(Span { kind, start, end });
        out
    }
}

impl Machine for Traced {
    fn with_seed(mem_size: usize, seed: u64) -> Self {
        Traced::new(NativeMachine::with_seed(mem_size, seed))
    }

    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn steps_executed(&self) -> u64 {
        self.inner.steps_executed()
    }

    fn ensure_memory(&mut self, size: usize) {
        self.timed(Kind::Mem, |m| m.ensure_memory(size))
    }

    fn alloc(&mut self, len: usize) -> usize {
        self.timed(Kind::Mem, |m| m.alloc(len))
    }

    fn release_to(&mut self, base: usize) {
        self.timed(Kind::Mem, |m| m.release_to(base))
    }

    fn heap_top(&self) -> usize {
        self.inner.heap_top()
    }

    fn load(&mut self, base: usize, values: &[u64]) {
        self.timed(Kind::Mem, |m| m.load(base, values))
    }

    fn dump(&self, base: usize, len: usize) -> Vec<u64> {
        self.timed_ref(Kind::Mem, |m| m.dump(base, len))
    }

    fn peek(&self, addr: usize) -> u64 {
        self.timed_ref(Kind::Mem, |m| m.peek(addr))
    }

    fn poke(&mut self, addr: usize, value: u64) {
        self.timed(Kind::Mem, |m| m.poke(addr, value))
    }

    fn clear_region(&mut self, base: usize, len: usize) {
        self.timed(Kind::Mem, |m| m.clear_region(base, len))
    }

    fn par_map<T, F>(&mut self, procs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut dyn MachineProc) -> T + Sync,
    {
        self.timed(Kind::Par, |m| m.par_map(procs, f))
    }

    fn par_for<F>(&mut self, procs: usize, f: F)
    where
        F: Fn(usize, &mut dyn MachineProc) + Sync,
    {
        self.timed(Kind::Par, |m| m.par_for(procs, f))
    }

    fn seq_step<T, F>(&mut self, f: F) -> T
    where
        F: FnOnce(&mut dyn MachineProc) -> T,
    {
        self.timed(Kind::SeqStep, |m| m.seq_step(f))
    }

    fn scan_step(&mut self, base: usize, len: usize) -> u64 {
        self.timed(Kind::Scan, |m| m.scan_step(base, len))
    }

    fn global_or_step(&mut self, base: usize, len: usize) -> bool {
        self.timed(Kind::Scan, |m| m.global_or_step(base, len))
    }

    fn compact_step(&mut self, src: usize, len: usize, dst: usize) -> u64 {
        self.timed(Kind::Scan, |m| m.compact_step(src, len, dst))
    }

    fn claim(&mut self, attempts: &[(u64, usize)], mode: ClaimMode) -> Vec<bool> {
        let won = self.timed(Kind::Claim, |m| m.claim(attempts, mode));
        self.claim_tries += attempts.len() as u64;
        self.claim_wins += won.iter().filter(|&&w| w).count() as u64;
        won
    }

    fn cost_report(&self) -> CostReport {
        self.inner.cost_report()
    }
}

/// Locates the registry's timed window among the spans of one `run_on`
/// call.
///
/// `call` is the `run_on` call itself and `elapsed` the time its own timer
/// reported.  The window is an interval of length `elapsed` inside `call`;
/// every span lies wholly before it (input set-up), inside it (the
/// algorithm) or after it (validation).  Set-up and validation only move
/// memory, so the window holds every step span; among the placements that
/// fit, the one holding the most spans, then the most span time, wins.
/// Returns the index range of the spans inside, or `None` when no
/// placement fits: the spans and the timer disagree.
pub fn fit_window(
    spans: &[Span],
    call: (Instant, Instant),
    elapsed: Duration,
) -> Option<std::ops::Range<usize>> {
    let origin = call.0;
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as i128;
    let e = elapsed.as_nanos() as i128;
    let latest_start = ns(call.1) - e;
    let starts: Vec<i128> = spans.iter().map(|s| ns(s.start)).collect();
    let ends: Vec<i128> = spans.iter().map(|s| ns(s.end)).collect();
    let mut covered = vec![0i128; spans.len() + 1];
    for k in 0..spans.len() {
        covered[k + 1] = covered[k] + (ends[k] - starts[k]);
    }
    let fits = |i: usize, j: usize| {
        // Window start `a`: after the set-up spans, before the first
        // in-window span, and late enough that the window covers the last
        // in-window span; the window end must precede the first validation
        // span and the end of the call.
        let mut lo = 0i128;
        let mut hi = latest_start;
        if i > 0 {
            lo = lo.max(ends[i - 1]);
        }
        if j > i {
            lo = lo.max(ends[j - 1] - e);
            hi = hi.min(starts[i]);
        }
        if j < spans.len() {
            hi = hi.min(starts[j] - e);
        }
        lo <= hi
    };
    let k = spans.len();
    if fits(0, k) {
        return Some(0..k);
    }
    let is_step = |s: &Span| s.kind != Kind::Mem;
    let first_step = spans.iter().position(is_step).unwrap_or(k);
    let after_last_step = spans.iter().rposition(is_step).map_or(0, |p| p + 1);
    let mut best: Option<(usize, i128, usize, usize)> = None;
    for i in 0..=first_step {
        for j in after_last_step.max(i)..=k {
            if !fits(i, j) {
                continue;
            }
            let key = (j - i, covered[j] - covered[i]);
            if best.is_none_or(|(c, d, _, _)| key > (c, d)) {
                best = Some((key.0, key.1, i, j));
            }
        }
    }
    best.map(|(_, _, i, j)| i..j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(origin: Instant, kind: Kind, from_us: u64, to_us: u64) -> Span {
        Span {
            kind,
            start: origin + Duration::from_micros(from_us),
            end: origin + Duration::from_micros(to_us),
        }
    }

    #[test]
    fn window_excludes_set_up_and_validation_calls() {
        let t = Instant::now();
        // load before the timer, three steps inside it, a dump after it.
        let spans = [
            span(t, Kind::Mem, 10, 20),
            span(t, Kind::Par, 21, 40),
            span(t, Kind::Claim, 41, 60),
            span(t, Kind::Par, 61, 80),
            span(t, Kind::Mem, 82, 95),
        ];
        let call = (t, t + Duration::from_micros(100));
        let got = fit_window(&spans, call, Duration::from_micros(61));
        assert_eq!(got, Some(1..4));
    }

    #[test]
    fn window_never_trades_a_step_for_set_up_calls() {
        let t = Instant::now();
        // Three quick set-up calls, then two steps.  A window over the
        // set-up calls and the first step also fits and holds more spans;
        // it must lose because it leaves the last step out.
        let spans = [
            span(t, Kind::Mem, 0, 1),
            span(t, Kind::Mem, 1, 2),
            span(t, Kind::Mem, 2, 3),
            span(t, Kind::Par, 4, 20),
            span(t, Kind::Par, 21, 24),
        ];
        let call = (t, t + Duration::from_micros(40));
        let got = fit_window(&spans, call, Duration::from_micros(21));
        assert_eq!(got, Some(3..5));
    }

    #[test]
    fn window_keeps_every_span_when_all_fit() {
        let t = Instant::now();
        let spans = [span(t, Kind::Par, 10, 20), span(t, Kind::Scan, 20, 30)];
        let call = (t, t + Duration::from_micros(50));
        assert_eq!(
            fit_window(&spans, call, Duration::from_micros(25)),
            Some(0..2)
        );
        assert_eq!(fit_window(&spans, call, Duration::from_micros(60)), None);
    }
}
