//! What one run found, and how it is printed.

use std::fmt::Write as _;

/// One measured number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json` or the docs.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, such as `ms`.
    pub unit: &'static str,
}

/// One output check.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Counts or the first mismatch.
    pub detail: String,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics, by the names the docs give them.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Context: run settings, tail percentiles, ladder rungs.
    pub notes: Vec<(String, Json)>,
    /// Operations attempted (iterations, queries, retrains, checks).
    pub attempted: u64,
    /// Operations that failed, counting every failed check.
    pub failed: u64,
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a check; a failed check is a failed operation.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// Adds a note.
    pub fn note(&mut self, key: &str, value: Json) {
        self.notes.push((key.to_string(), value));
    }

    /// Adds `setup_s`, the median of the set-up times `times` in seconds,
    /// and every sample as a note.
    pub fn setup(&mut self, times: &[f64]) {
        self.e2e(
            "setup_s",
            crate::stats::median(times).unwrap_or(f64::NAN),
            "s",
        );
        self.note("setup_samples_s", samples(times));
    }

    /// Looks a metric up among both lists.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.layers)
            .find(|m| m.name == name)
    }

    /// Whether no operation failed (a failed check counts as one).
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The whole report as one JSON object.
    pub fn to_json(&self, header: Vec<(String, Json)>) -> Json {
        let metrics = |list: &[Metric]| {
            Json::Obj(
                list.iter()
                    .map(|m| (m.name.clone(), metric_json(m)))
                    .collect(),
            )
        };
        let checks = Json::Arr(
            self.checks
                .iter()
                .map(|c| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(c.name.into())),
                        ("ok".into(), Json::Bool(c.ok)),
                        ("detail".into(), Json::Str(c.detail.clone())),
                    ])
                })
                .collect(),
        );
        let mut fields = header;
        fields.push(("end_to_end".into(), metrics(&self.end_to_end)));
        fields.push(("per_layer".into(), metrics(&self.layers)));
        fields.push(("checks".into(), checks));
        fields.push(("notes".into(), Json::Obj(self.notes.clone())));
        fields.push(("attempted".into(), Json::Num(self.attempted as f64)));
        fields.push(("failed".into(), Json::Num(self.failed as f64)));
        Json::Obj(fields)
    }
}

/// A list of samples, rounded to microsecond-ish precision for the notes.
pub fn samples(values: &[f64]) -> Json {
    Json::Arr(
        values
            .iter()
            .map(|v| Json::Num((v * 1e6).round() / 1e6))
            .collect(),
    )
}

/// `{"value": v, "unit": u}`.
pub fn metric_json(m: &Metric) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Num(m.value)),
        ("unit".into(), Json::Str(m.unit.into())),
    ])
}

/// A JSON value with insertion-ordered objects.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values print as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) if v.is_finite() => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    let _ = write!(out, "{}", *v as i64);
                } else {
                    let _ = write!(out, "{v}");
                }
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => escape(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_numbers_strings_and_order() {
        let j = Json::Obj(vec![
            ("b".into(), Json::Num(1.0)),
            ("a".into(), Json::Num(0.125)),
            ("s".into(), Json::Str("q\"\\\n\u{1}".into())),
            ("n".into(), Json::Num(f64::NAN)),
            (
                "l".into(),
                Json::Arr(vec![Json::Bool(true), Json::Num(-2.5)]),
            ),
        ]);
        assert_eq!(
            j.render(),
            r#"{"b":1,"a":0.125,"s":"q\"\\\n\u0001","n":null,"l":[true,-2.5]}"#
        );
    }

    #[test]
    fn failed_checks_count_as_failed_operations() {
        let mut r = Report::default();
        r.check("a", true, "");
        assert!(r.correct());
        r.check("b", false, "mismatch");
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(!r.correct());
    }
}
