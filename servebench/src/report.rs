//! The result line the benchmark prints last on standard output: whether every
//! checked answer was right, how many operations were attempted and failed, and
//! each metric by name with its unit.

use ipsketch_serve::wire::Json;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    /// A metric; panics on a malformed name or unit or a non-finite value,
    /// which are bugs in this program, never properties of a run.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        assert!(valid_name(name), "metric name {name:?} is malformed");
        assert!(valid_unit(unit), "unit {unit:?} of {name} is malformed");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The whole result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// A metric or workload name: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or a digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

impl Report {
    /// One line of JSON. Values keep all their digits (shortest round-trip form).
    pub fn encode(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::f64(m.value)),
                        ("unit".to_string(), Json::str(&m.unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::u64(self.attempted)),
            ("failed".to_string(), Json::u64(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// Parses a line written by [`encode`](Self::encode), checking the shape
    /// the result line promises: exactly the four keys, a nonzero attempt
    /// count, and well-formed metric names and units.
    pub fn parse(line: &str) -> Result<Report, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        let members = doc.as_obj().ok_or("the result is not an object")?;
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let field = |key: &str| doc.get(key).ok_or(format!("missing {key}"));
        let correct = field("correct")?
            .as_bool()
            .ok_or("`correct` is not a bool")?;
        let attempted = field("attempted")?
            .as_u64()
            .ok_or("`attempted` is not a whole number")?;
        let failed = field("failed")?
            .as_u64()
            .ok_or("`failed` is not a whole number")?;
        if attempted == 0 {
            return Err("`attempted` must be at least 1".to_string());
        }
        let mut metrics = Vec::new();
        for (name, body) in field("metrics")?
            .as_obj()
            .ok_or("`metrics` is not an object")?
        {
            let value = body
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: no numeric value"))?;
            let unit = body
                .get("unit")
                .and_then(Json::as_str)
                .ok_or(format!("{name}: no unit"))?;
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!("{name}: malformed name or unit {unit:?}"));
            }
            metrics.push(Metric {
                name: name.clone(),
                value,
                unit: unit.to_string(),
            });
        }
        Ok(Report {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_metric_alphabet() {
        for good in [
            "qps",
            "p50_ms",
            "core.wmh_sketch_us_per_row",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "a".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "ms²", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn units_follow_the_unit_alphabet() {
        for good in ["ms", "s", "1/s", "count", "%", "MB", "us/row"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", "seconds_and_more_", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn report_round_trips_with_every_digit() {
        let report = Report {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric::new("latency_ms", 1.203_456_789_012_345, "ms"),
                Metric::new("setup_s", 0.812_7, "s"),
                Metric::new("qps", 44.0, "1/s"),
            ],
        };
        let line = report.encode();
        assert!(!line.contains('\n'));
        assert_eq!(Report::parse(&line), Ok(report));
        assert!(line.contains("1.203456789012345"));
    }

    #[test]
    fn parse_rejects_a_malformed_result() {
        assert!(Report::parse("{\"correct\":true}").is_err());
        assert!(
            Report::parse("{\"correct\":true,\"attempted\":0,\"failed\":0,\"metrics\":{}}")
                .is_err()
        );
        assert!(Report::parse(
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"x\":{\"value\":1}}}"
        )
        .is_err());
        assert!(Report::parse(
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{},\"extra\":1}"
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_metrics_are_bugs() {
        let _ = Metric::new("qps", f64::NAN, "1/s");
    }
}
