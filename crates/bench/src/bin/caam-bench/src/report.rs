//! Metrics as the benchmark prints them, and the declarations in
//! `BENCHMARK.json` they must match.

use crate::json::{self, Json};

/// The benchmark's declaration file, compiled in so the binary checks
/// its own output against it.
pub const DECLARED: &str = include_str!("../../../../../../BENCHMARK.json");

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A metric name: letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(&c))
}

/// What `BENCHMARK.json` declares for one metric.
#[derive(Clone, Debug)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the median (end-to-end only).
    pub bound: Option<f64>,
}

/// The declared end-to-end (`trace = false`) or per-layer metrics.
pub fn declared(trace: bool) -> Result<Vec<Declared>, String> {
    let doc = json::parse(DECLARED).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .ok_or_else(|| format!("BENCHMARK.json has no {key:?}"))?
        .as_array()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Ok(Declared {
                name: field("name").ok_or("metric without a name")?,
                unit: field("unit").ok_or("metric without a unit")?,
                higher_is_better: field("better").as_deref() == Some("higher"),
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// Names of the declared workloads.
#[cfg(test)]
pub fn declared_workloads() -> Result<Vec<String>, String> {
    let doc = json::parse(DECLARED).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok(doc
        .get("workloads")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect())
}

/// Check emitted metrics against the declarations: same names, same
/// units, finite values. `optional` names may be missing.
pub fn conforms(
    metrics: &[Metric],
    declared: &[Declared],
    optional: &[&str],
) -> Result<(), String> {
    for m in metrics {
        if !valid_name(m.name) {
            return Err(format!("{:?} is not a valid metric name", m.name));
        }
        let d = declared
            .iter()
            .find(|d| d.name == m.name)
            .ok_or_else(|| format!("{} is emitted but not declared", m.name))?;
        if d.unit != m.unit {
            return Err(format!("{} is emitted in {} but declared in {}", m.name, m.unit, d.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number ({})", m.name, m.value));
        }
    }
    for d in declared {
        if !optional.contains(&d.name.as_str()) && !metrics.iter().any(|m| m.name == d.name) {
            return Err(format!("{} is declared but not emitted", d.name));
        }
    }
    Ok(())
}

/// The result line: one JSON object, every value with all its digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// A JSON number; a non-finite value (which `conforms` reports) prints
/// as `null` so the line stays valid JSON.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_and_unit_is_well_formed() {
        for trace in [false, true] {
            let all = declared(trace).unwrap();
            assert!(!all.is_empty());
            for d in &all {
                assert!(valid_name(&d.name), "bad metric name {:?}", d.name);
                assert!(
                    !d.unit.is_empty()
                        && d.unit.len() <= 16
                        && d.unit
                            .bytes()
                            .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c)),
                    "bad unit {:?}",
                    d.unit
                );
                assert_eq!(
                    d.bound.is_some(),
                    !trace,
                    "{}: bounds are for end-to-end metrics",
                    d.name
                );
            }
            let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), all.len(), "duplicate metric names");
        }
        let workloads = declared_workloads().unwrap();
        assert!(workloads.iter().all(|w| valid_name(w)));
        let known: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(workloads, known, "BENCHMARK.json and the binary list different workloads");
        assert!(valid_name("matching.km_ns_per_edge"));
        assert!(!valid_name("bad name") && !valid_name("") && !valid_name("a/b"));
    }

    #[test]
    fn the_result_line_is_json_with_the_four_keys() {
        let line =
            result_line(true, 3, 0, &[Metric { name: "latency_ms", value: 1.25e-7, unit: "ms" }]);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v.as_object().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.get("latency_ms")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25e-7));
    }
}
