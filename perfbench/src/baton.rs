//! Turn-taking between the two halves of a run.
//!
//! The host's speed drifts: a plain single-threaded sort of 2^14 keys,
//! timed once a second, ran between 250 and 430 µs on the two-vCPU
//! reference host, in stretches of ten to twenty seconds.  A metric
//! measured in one contiguous stretch of a run carries whatever stretch it
//! fell in.  So both halves of a workload run at once, each in a child
//! process of its own, and take turns of about [`TURN`] of busy time: the
//! parent hands the next turn to the half that is further behind its own
//! plan.  Every metric's samples are then spread over the whole run, and
//! each run averages over more of the host's drift.
//!
//! Only one half is busy at a time; the other is blocked reading its
//! standard input.  The protocol, one line each:
//!
//! * parent → child: `go` starts a turn;
//! * child → parent: `turn\t<progress>` ends a turn, with the estimated
//!   share of the half's work done so far;
//! * child → parent: `done` ends the half's last turn; the half's result
//!   lines follow and the child exits.
//!
//! A half times only its own turns: a turn ends at a point where nothing
//! of the half is in flight (between reps, set-ups, or service requests
//! once the in-flight ones have been answered).

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, ExitStatus};
use std::time::{Duration, Instant};

/// Busy time a half runs before it passes the turn at its next
/// convenient point.
pub const TURN: Duration = Duration::from_millis(500);

/// The child side: the running half's clock and turn.
pub struct Baton {
    /// Start of the current turn.
    turn_start: Instant,
    /// Busy time of the finished turns.
    busy: Duration,
    /// Planned busy time of the whole half; progress is `busy` over it.
    plan: Duration,
}

impl Baton {
    /// Waits for the parent to start the half's first turn.
    pub fn first_turn() -> Baton {
        wait_for_go();
        Baton {
            turn_start: Instant::now(),
            busy: Duration::ZERO,
            plan: Duration::from_secs(1),
        }
    }

    /// Busy time so far, the current turn included.
    pub fn busy(&self) -> Duration {
        self.busy + self.turn_start.elapsed()
    }

    /// Sets the half's planned busy time, from which its progress is
    /// estimated.
    pub fn plan(&mut self, plan: Duration) {
        self.plan = plan.max(Duration::from_millis(1));
    }

    /// Whether the current turn has run its length.
    pub fn turn_over(&self) -> bool {
        self.turn_start.elapsed() >= TURN
    }

    /// Ends the current turn and blocks until the next one starts.
    pub fn pass(&mut self) {
        self.busy += self.turn_start.elapsed();
        let progress = (self.busy.as_secs_f64() / self.plan.as_secs_f64()).min(0.999);
        let mut stdout = std::io::stdout().lock();
        writeln!(stdout, "turn\t{progress}")
            .and_then(|()| stdout.flush())
            .unwrap_or_else(|_| parent_gone());
        drop(stdout);
        wait_for_go();
        self.turn_start = Instant::now();
    }

    /// [`Baton::pass`] if the current turn has run its length.
    pub fn pass_if_over(&mut self) {
        if self.turn_over() {
            self.pass();
        }
    }

    /// Ends the half's last turn; its result lines follow on stdout.
    pub fn finish(self) {
        let mut stdout = std::io::stdout().lock();
        writeln!(stdout, "done")
            .and_then(|()| stdout.flush())
            .unwrap_or_else(|_| parent_gone());
    }
}

fn wait_for_go() {
    let mut line = String::new();
    match std::io::stdin().lock().read_line(&mut line) {
        Ok(_) if line.trim_end() == "go" => {}
        _ => parent_gone(),
    }
}

fn parent_gone() -> ! {
    eprintln!("perfbench: the parent process stopped handing out turns");
    std::process::exit(1);
}

/// The parent side: one half running as a child process.
pub struct Turns {
    name: &'static str,
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    progress: f64,
    done: bool,
    /// The half's result lines, after `done`.
    result: String,
}

impl Turns {
    /// Takes over a child spawned with piped stdin and stdout.
    pub fn new(name: &'static str, mut child: Child) -> Turns {
        let stdin = child.stdin.take().expect("the half's stdin is piped");
        let stdout = child.stdout.take().expect("the half's stdout is piped");
        Turns {
            name,
            child,
            stdin,
            stdout: BufReader::new(stdout),
            progress: 0.0,
            done: false,
            result: String::new(),
        }
    }

    /// Runs one turn of this half; returns a protocol error, if any.
    fn turn(&mut self) -> Result<(), String> {
        let lost = |e: std::io::Error| format!("the {} half: {e}", self.name);
        self.stdin
            .write_all(b"go\n")
            .and_then(|()| self.stdin.flush())
            .map_err(lost)?;
        let mut line = String::new();
        if self.stdout.read_line(&mut line).map_err(lost)? == 0 {
            return Err(format!("the {} half ended before it was done", self.name));
        }
        let line = line.trim_end();
        if line == "done" {
            self.done = true;
            self.stdout.read_to_string(&mut self.result).map_err(lost)?;
            return Ok(());
        }
        match line.strip_prefix("turn\t").map(str::parse::<f64>) {
            Some(Ok(p)) => {
                self.progress = p;
                Ok(())
            }
            _ => Err(format!(
                "the {} half broke the turn protocol with {line:?}",
                self.name
            )),
        }
    }
}

/// Hands out turns, each to the unfinished half furthest behind its plan,
/// until every half is done.  Returns each half's name, result lines and
/// exit status; a half that breaks the protocol is killed, and the error
/// is returned beside it.
pub fn run(mut halves: Vec<Turns>) -> Vec<(&'static str, String, ExitStatus, Option<String>)> {
    let mut errors: Vec<Option<String>> = vec![None; halves.len()];
    while let Some(i) = (0..halves.len())
        .filter(|&i| !halves[i].done)
        .min_by(|&a, &b| halves[a].progress.total_cmp(&halves[b].progress))
    {
        if let Err(e) = halves[i].turn() {
            halves[i].done = true;
            let _ = halves[i].child.kill();
            errors[i] = Some(e);
        }
    }
    halves
        .into_iter()
        .zip(errors)
        .map(|(mut h, e)| {
            drop(h.stdin);
            let status = h.child.wait().expect("waiting for a half of the benchmark");
            (h.name, h.result, status, e)
        })
        .collect()
}
