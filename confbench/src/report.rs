//! The benchmark's result: named metrics with units, the output check
//! and the failure count, rendered as the one-line JSON object the
//! benchmark prints last.

use std::fmt::Write as _;

/// One measured figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit label, e.g. `us` or `1/s`.
    pub unit: &'static str,
}

/// Everything one benchmark run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Faults submitted to the engine in measured calls.
    pub attempted: u64,
    /// Faults that failed: harness failures, timeouts, quarantined
    /// faults — or every attempted fault when an output check failed.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// What went wrong, one line per failed check.
    pub problems: Vec<String>,
}

impl Report {
    /// The report as one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite metric value, which JSON cannot carry;
    /// [`Report::metrics_are_finite`] lets callers check first.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            if i > 0 {
                out.push_str(", ");
            }
            // `{}` on f64 prints the shortest decimal that round-trips,
            // never an exponent: every measured digit, valid JSON.
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// `true` iff every metric value can be rendered as JSON.
    pub fn metrics_are_finite(&self) -> bool {
        self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// The median of `values` (mean of the middle pair for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `part / whole`, or `0.0` when `whole` is zero.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_keeps_every_digit() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "x".to_string(),
                value: 0.000_123_456_789,
                unit: "s",
            }],
            problems: Vec::new(),
        };
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"x\": {\"value\": 0.000123456789, \"unit\": \"s\"}}}"
        );
    }
}
