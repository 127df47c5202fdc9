//! What one run reports: metrics, request accounting and wrong answers.

use crate::load::{Outcome, PhaseResult};

/// Per-phase request accounting, printed for every run.
pub struct PhaseCount {
    pub phase: String,
    pub attempted: usize,
    pub succeeded: usize,
    pub refused: usize,
    pub failed: usize,
    pub wrong: usize,
    /// A correctness check rather than operations sent to the program: its
    /// failures count, its checks are not attempts.
    pub check: bool,
}

/// Accumulates one run's results.
#[derive(Default)]
pub struct Report {
    /// `(name, value, unit)` in the order produced.
    pub metrics: Vec<(String, f64, String)>,
    pub phases: Vec<PhaseCount>,
    /// One line per wrong answer or failed correctness check.
    pub wrong: Vec<String>,
    /// Free-form context printed to standard error.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn wrong(&mut self, line: String) {
        self.wrong.push(line);
    }

    /// Records a load phase's accounting; malformed replies count as wrong.
    pub fn phase(&mut self, phase: &str, res: &PhaseResult) {
        let malformed = res.count(Outcome::Malformed);
        if malformed > 0 {
            self.wrong(format!("{phase}: {malformed} malformed replies"));
        }
        self.phases.push(PhaseCount {
            phase: phase.to_string(),
            attempted: res.records.len(),
            succeeded: res.ok(),
            refused: res.count(Outcome::Refused),
            failed: res.count(Outcome::Failed),
            wrong: malformed,
            check: false,
        });
    }

    /// Records a phase of non-request operations (fits, swaps).
    pub fn ops(&mut self, phase: &str, attempted: usize, failed: usize) {
        self.phases.push(PhaseCount {
            phase: phase.to_string(),
            attempted,
            succeeded: attempted - failed.min(attempted),
            refused: 0,
            failed,
            wrong: 0,
            check: false,
        });
    }

    /// Records a correctness check over `checked` replies, `wrong` of which
    /// failed it (each failure is also described through [`Report::wrong`]).
    pub fn verified(&mut self, phase: &str, checked: usize, wrong: usize) {
        self.phases.push(PhaseCount {
            phase: phase.to_string(),
            attempted: checked,
            succeeded: checked - wrong.min(checked),
            refused: 0,
            failed: 0,
            wrong,
            check: true,
        });
    }

    pub fn attempted(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| !p.check)
            .map(|p| p.attempted)
            .sum()
    }

    pub fn failed(&self) -> usize {
        self.phases
            .iter()
            .map(|p| p.refused + p.failed + p.wrong)
            .sum()
    }
}
