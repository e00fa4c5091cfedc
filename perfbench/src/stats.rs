//! Outcome accounting, percentiles and the result line.

use crate::gen::Expect;
use dialed::report::{RejectClass, RejectReason, Report, Verdict};
use std::fmt::Write as _;

/// Every operation's outcome, checked against its expectation.
#[derive(Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    /// Operations whose outcome matched the expectation.
    pub completed: u64,
    /// Overloaded sheds.
    pub shed: u64,
    /// Expiry rejects.
    pub expired: u64,
    /// Outcomes that differ from the expectation (these fail the run).
    pub mismatches: u64,
    pub clean: u64,
    pub attack: u64,
    pub rejects: [u64; RejectClass::ALL.len()],
    pub first_mismatch: Option<String>,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.shed + self.expired + self.mismatches
    }

    pub fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        if self.first_mismatch.is_none() {
            self.first_mismatch = Some(what);
        }
    }

    /// Records a verdict report for an operation that expected `expect`.
    pub fn report(&mut self, expect: Expect, report: &Report, what: impl FnOnce() -> String) {
        self.attempted += 1;
        match report.verdict {
            Verdict::Clean => self.clean += 1,
            Verdict::Attack => self.attack += 1,
            Verdict::Rejected => {
                if let Some(class) = crate::gen::report_class(report) {
                    self.rejects[class.index()] += 1;
                }
            }
        }
        if expect.matches(report) {
            self.completed += 1;
        } else {
            self.mismatch(format!("{}: expected {expect:?}, got {report}", what()));
        }
    }

    /// Records a structured reject for an operation that expected `expect`.
    /// Sheds and expiries are failures, not wrong outcomes.
    pub fn reject(&mut self, expect: Expect, reason: &RejectReason, what: impl FnOnce() -> String) {
        self.attempted += 1;
        let class = reason.class();
        self.rejects[class.index()] += 1;
        if expect == Expect::Reject(class) {
            self.completed += 1;
        } else if class == RejectClass::Overloaded {
            self.shed += 1;
        } else if class == RejectClass::Session && reason.to_string().contains("expired") {
            self.expired += 1;
        } else {
            self.mismatch(format!("{}: expected {expect:?}, got reject {reason}", what()));
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.shed += other.shed;
        self.expired += other.expired;
        self.mismatches += other.mismatches;
        self.clean += other.clean;
        self.attack += other.attack;
        for (a, b) in self.rejects.iter_mut().zip(other.rejects) {
            *a += b;
        }
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
    }
}

/// Nearest-rank percentile of unsorted samples (`q` in `0..=1`).
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn new(tally: &Tally) -> Self {
        Self {
            correct: tally.mismatches == 0,
            attempted: tally.attempted.max(1),
            failed: tally.failed(),
            metrics: Vec::new(),
        }
    }

    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// The result object, printed as the last line of standard output.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
