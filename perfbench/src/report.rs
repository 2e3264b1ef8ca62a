//! What one invocation prints: human-readable `#` lines, then one JSON
//! object as the last line of standard output.

use crate::workload::Ops;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// The result line. `correct` holds only when no operation failed,
    /// no cross-run check flagged a problem and every metric is finite.
    pub fn result_json(&self, ops: &Ops) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = ops.failed == 0 && ops.failures.is_empty() && finite && ops.attempted > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // A non-finite value is already reported as incorrect;
                // JSON has no NaN, so it is printed as 0.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct,
            ops.attempted.max(1),
            ops.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.metric("setup_s", 0.5, "s");
        let mut ops = Ops::default();
        ops.run("x", || (), |_| vec![]);
        assert_eq!(
            r.result_json(&ops),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_flagged_problem_or_nan_makes_the_result_incorrect() {
        let mut r = Report::default();
        let mut ops = Ops::default();
        ops.run("x", || (), |_| vec![]);
        ops.flag("counter mismatch".into());
        assert!(r.result_json(&ops).starts_with("{\"correct\": false"));
        let mut ops = Ops::default();
        ops.run("x", || (), |_| vec![]);
        r.metric("m", f64::NAN, "s");
        assert!(r.result_json(&ops).starts_with("{\"correct\": false"));
    }
}
