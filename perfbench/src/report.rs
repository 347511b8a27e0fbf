//! Result record, summary statistics and the final JSON line.

use std::fmt::Write as _;

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: String,
}

/// Everything one benchmark run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: validated algorithm reps plus service
    /// requests.
    pub attempted: u64,
    /// Operations that failed, were shed, or returned a wrong answer.
    pub failed: u64,
    /// Correctness findings (validator failures, count drift, reply
    /// mismatches, traces that do not reconcile); empty when clean.
    pub errors: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Records a correctness finding; it fails the run.
    pub fn error(&mut self, message: String) {
        eprintln!("perfbench: ERROR: {message}");
        self.errors.push(message);
    }

    /// The outcome of one half, as tab-separated lines for the parent
    /// process ([`Outcome::absorb`] reads them back losslessly).
    pub fn to_lines(&self) -> String {
        let mut out = format!("count\t{}\t{}\n", self.attempted, self.failed);
        for m in &self.metrics {
            out.push_str(&format!("metric\t{}\t{}\t{}\n", m.name, m.value, m.unit));
        }
        for e in &self.errors {
            out.push_str(&format!("error\t{}\n", e.replace(['\t', '\n'], " ")));
        }
        out
    }

    /// Folds a half's [`Outcome::to_lines`] output into this outcome.
    /// Metrics both halves report (`setup_s`) are summed.
    pub fn absorb(&mut self, lines: &str) -> Result<(), String> {
        for line in lines.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| -> Result<f64, String> {
                fields
                    .get(i)
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| format!("malformed line from a half: {line:?}"))
            };
            match fields[0] {
                "count" => {
                    self.attempted += num(1)? as u64;
                    self.failed += num(2)? as u64;
                }
                "metric" if fields.len() == 4 => {
                    let value = num(2)?;
                    match self.metrics.iter_mut().find(|m| m.name == fields[1]) {
                        Some(m) => m.value += value,
                        None => self.metrics.push(Metric {
                            name: fields[1].to_string(),
                            value,
                            unit: fields[3].to_string(),
                        }),
                    }
                }
                "error" if fields.len() == 2 => self.errors.push(fields[1].to_string()),
                _ => return Err(format!("malformed line from a half: {line:?}")),
            }
        }
        Ok(())
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let correct = self.errors.is_empty() && self.failed == 0;
        write!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// If `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` of `xs` (sorted in place).
///
/// # Panics
///
/// If `xs` is empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Mean of `xs` (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// This process's peak resident set (`VmHWM`) in MiB, if readable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(quantile(&mut xs, 0.5), 50.0);
    }

    #[test]
    fn halves_round_trip_and_sum_shared_metrics() {
        let mut a = Outcome {
            attempted: 2,
            failed: 1,
            ..Outcome::default()
        };
        a.push("setup_s", 0.25, "s");
        a.push("x_ms", 1.0 / 3.0, "ms");
        a.errors.push("bad\treply".into());
        let mut b = Outcome::default();
        b.push("setup_s", 0.5, "s");
        let mut parent = Outcome::default();
        parent.absorb(&a.to_lines()).unwrap();
        parent.absorb(&b.to_lines()).unwrap();
        assert_eq!((parent.attempted, parent.failed), (2, 1));
        assert_eq!(parent.metrics[0].value, 0.75);
        assert_eq!(parent.metrics[1].value, 1.0 / 3.0);
        assert_eq!(parent.errors, vec!["bad reply".to_string()]);
        assert!(parent.absorb("nonsense").is_err());
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.push("a_ms", 1.5, "ms");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
