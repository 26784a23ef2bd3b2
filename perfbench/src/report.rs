//! What one run reports: metrics with unit and sample count, correctness
//! checks, and the contract line (the last line of standard output).

use crate::stats::{percentile, tail_percentile};
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name (charset `[A-Za-z0-9_.-]`, see [`valid_name`]).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// Measured quantity against its bound.
    pub detail: String,
}

/// A workload run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Steps or members attempted.
    pub attempted: u64,
    /// Steps or members that failed.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Free-form lines for the human-readable table.
    pub notes: Vec<String>,
    /// Working-set bytes of the workload's model state (computed from the
    /// array sizes).
    pub working_set_bytes: u64,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Note the tail of the per-step wall times: the highest percentile
    /// the tail rule allows, with its sample count. It is printed, not
    /// reported as an end-to-end metric (METRICS.md says why).
    pub fn step_tail(&mut self, step_ms: &[f64]) {
        if let Some(q) = tail_percentile(step_ms.len()) {
            self.notes.push(format!(
                "step time p{q}: {:.3} ms over {} steps (printed only)",
                percentile(step_ms, q),
                step_ms.len()
            ));
        }
    }

    /// Record a check.
    pub fn check(&mut self, name: impl Into<String>, pass: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            pass,
            detail: detail.into(),
        });
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Check that the metrics are exactly `expected` (by name and unit,
    /// any order), every name valid and every value finite; the result is
    /// recorded as a check.
    pub fn check_metric_set(&mut self, expected: &[(&str, &str)]) {
        let mut problems = Vec::new();
        for m in &self.metrics {
            if !valid_name(m.name) {
                problems.push(format!("bad name {:?}", m.name));
            }
            if !m.value.is_finite() {
                problems.push(format!("{} is not finite", m.name));
            }
            match expected.iter().find(|(n, _)| *n == m.name) {
                Some((_, u)) if *u == m.unit => {}
                Some((_, u)) => problems.push(format!("{} has unit {} not {u}", m.name, m.unit)),
                None => problems.push(format!("{} is not a declared metric", m.name)),
            }
        }
        for (n, _) in expected {
            match self.metrics.iter().filter(|m| m.name == *n).count() {
                1 => {}
                0 => problems.push(format!("{n} missing")),
                k => problems.push(format!("{n} reported {k} times")),
            }
        }
        let detail = if problems.is_empty() {
            format!("{} metrics", expected.len())
        } else {
            problems.join("; ")
        };
        self.check(
            "metric set matches BENCHMARK.json",
            problems.is_empty(),
            detail,
        );
    }

    /// The contract line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Metric-name rule: starts with a letter or digit, at most 64
/// characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_charset() {
        for good in [
            "sypd",
            "step_ms_p50",
            "homme.prim.rk_ms",
            "swmpi.rank-imbalance",
            "2t",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            ".x",
            "_x",
            "a b",
            "a/b",
            "a:b",
            "ä",
            "x\"",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn metric_set_check_and_json_line() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("a_ms", "ms", 1.25, 3);
        o.metric("b", "count", 2.0, 1);
        o.check_metric_set(&[("a_ms", "ms"), ("b", "count")]);
        assert!(o.correct());
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": \
             {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
        let mut missing = Outcome::default();
        missing.metric("a_ms", "s", f64::NAN, 1);
        missing.check_metric_set(&[("a_ms", "ms"), ("b", "count")]);
        assert!(!missing.correct());
        assert!(missing
            .json_line()
            .starts_with("{\"correct\": false, \"attempted\": 1,"));
    }
}
