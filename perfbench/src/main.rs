//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload and prints, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.  `--trace 0` is the
//! metrics run (the end-to-end metrics, tracing off); `--trace 1` is the
//! separate traced run (the per-layer metrics).  Any validator failure,
//! count drift, reply mismatch or trace that does not reconcile makes the
//! run exit 1 after printing its result.  See `README.md` beside this
//! package for the workloads and how to read the output.

mod algo;
mod baseline;
mod baton;
mod pin;
mod report;
mod serve;
mod traced;

use std::time::Duration;

use baton::Baton;
use report::Outcome;
use serve::{Mix, Spec};

/// One named workload: an algorithm problem size plus a service mix.
struct Workload {
    name: &'static str,
    /// Problem size of the six algorithms.
    n: usize,
    /// Share of `--seconds` the algorithm rounds are budgeted.
    algo_share: f64,
    /// Fewest rounds of the six algorithms a metrics run makes.
    min_rounds: usize,
    /// Fewest rounds (an untraced and a traced rep of each algorithm) a
    /// traced run makes.
    trace_rounds: usize,
    /// Machine seeds the rounds rotate over, derived from `--seed`: at
    /// small n the trajectory a seed draws (how many dart rounds, say)
    /// moves the wall time, and several seeds per run average that out.
    machine_seeds: u64,
    /// The service half.
    serve: Spec,
}

impl Workload {
    /// The machine seeds of a run with `--seed seed`; the first is `seed`.
    fn seeds(&self, seed: u64) -> Vec<u64> {
        (0..self.machine_seeds)
            .map(|k| seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect()
    }
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "n16k-counter",
        n: 1 << 14,
        algo_share: 1.0,
        min_rounds: 5,
        trace_rounds: 8,
        machine_seeds: 32,
        serve: Spec {
            mix: Mix::Counter,
            live: 0,
            closed_share: 0.1,
            open_rate: 200_000.0,
            capacity_hint: 1_100_000.0,
        },
    },
    Workload {
        name: "n1m-churn",
        n: 1 << 20,
        algo_share: 0.5,
        min_rounds: 5,
        trace_rounds: 2,
        machine_seeds: 1,
        serve: Spec {
            mix: Mix::Churn,
            live: 17_408,
            closed_share: 0.2,
            open_rate: 50_000.0,
            capacity_hint: 350_000.0,
        },
    },
];

const USAGE: &str =
    "usage: perfbench --workload <n16k-counter|n1m-churn> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child processes only.
    half: Option<Half>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut half = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--half" => {
                half = Some(match value.as_str() {
                    "serve" => Half::Serve,
                    "algo" => Half::Algo,
                    _ => return Err(format!("--half takes serve or algo, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        half,
    })
}

/// The two halves of a workload; each runs in a child process of its own,
/// so each half's peak resident set is its own process's `VmHWM`.  The
/// two take turns (see [`baton`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Half {
    Serve,
    Algo,
}

impl Half {
    fn name(self) -> &'static str {
        match self {
            Half::Serve => "serve",
            Half::Algo => "algo",
        }
    }
}

/// Runs one half in this process, taking turns with the other; prints its
/// outcome as lines.
fn run_half(args: &Args, half: Half) {
    let w = args.workload;
    let mut out = Outcome::default();
    pin::main_thread();
    let mut baton = Baton::first_turn();
    let b = &mut baton;
    match (half, args.trace) {
        (Half::Serve, false) => {
            let setup = serve::measure(&w.serve, args.seed, args.seconds, b, &mut out);
            eprintln!(
                "setup: service {setup:.4} s (median of {} set-ups)",
                serve::SETUPS
            );
            out.push("setup_s", setup, "s");
        }
        (Half::Algo, false) => {
            let budget = Duration::from_secs_f64(args.seconds * w.algo_share);
            let setup = algo::measure(w.n, &w.seeds(args.seed), budget, w.min_rounds, b, &mut out);
            eprintln!(
                "setup: algorithms {setup:.4} s (median of {} set-ups)",
                algo::SETUPS
            );
            out.push("setup_s", setup, "s");
        }
        (Half::Serve, true) => serve::trace(&w.serve, args.seed, args.seconds, b, &mut out),
        (Half::Algo, true) => {
            let budget = Duration::from_secs_f64(args.seconds * w.algo_share);
            algo::trace(
                w.n,
                &w.seeds(args.seed),
                budget,
                w.trace_rounds,
                b,
                &mut out,
            )
        }
    }
    if !args.trace {
        match report::peak_rss_mib() {
            Some(mib) => out.push(format!("{}_peak_rss_mib", half.name()), mib, "MiB"),
            None => out.error("cannot read VmHWM from /proc/self/status".into()),
        }
    }
    baton.finish();
    print!("{}", out.to_lines());
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(half) = args.half {
        run_half(&args, half);
        return;
    }
    let w = args.workload;
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} (host parallelism {})",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    let mut out = Outcome::default();
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut halves = Vec::new();
    for half in [Half::Serve, Half::Algo] {
        let child = std::process::Command::new(&exe)
            .args(std::env::args().skip(1))
            .args(["--half", half.name()])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn();
        match child {
            Ok(child) => halves.push(baton::Turns::new(half.name(), child)),
            Err(e) => out.error(format!("cannot start the {} half: {e}", half.name())),
        }
    }
    for (name, lines, status, error) in baton::run(halves) {
        if let Some(e) = error {
            out.error(e);
        }
        if let Err(e) = out.absorb(&lines) {
            out.error(e);
        }
        if !status.success() {
            out.error(format!("the {name} half exited with {status}"));
        }
    }
    let bad: Vec<String> = out
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    for name in bad {
        out.error(format!("metric {name} is not a finite number"));
    }
    let clean = out.errors.is_empty() && out.failed == 0;
    println!("{}", out.to_json());
    if !clean {
        std::process::exit(1);
    }
}
