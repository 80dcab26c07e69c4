//! Run results, statistics helpers and the JSON lines the benchmark prints.

/// One metric value.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run produces.
#[derive(Default)]
pub struct Outcome {
    /// Windows started.
    pub attempted: u64,
    /// Windows that did not end merged with the right answer.
    pub failed: u64,
    /// Correctness breaches (any makes the run incorrect).
    pub errors: Vec<String>,
    /// Metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Run metadata: `(key, JSON value)`.
    pub meta: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Add a numeric metadata entry.
    pub fn meta_num(&mut self, key: &'static str, value: f64) {
        self.meta.push((key, num(value)));
    }

    /// Add a string metadata entry.
    pub fn meta_str(&mut self, key: &'static str, value: &str) {
        self.meta.push((key, format!("\"{}\"", escape(value))));
    }

    /// The metadata line.
    pub fn meta_line(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"meta\": {{{}}}}}", fields.join(", "))
    }

    /// The result line (the last line of standard output).
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number (non-finite values, which no metric should
/// produce, print as 0 rather than breaking the line).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Median (0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated `q`-quantile (0 for no samples).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
