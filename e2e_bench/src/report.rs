//! Statistics over raw samples and the benchmark's printed report.

use everest_evql::{Engine, ExecStats, Output};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-layer metrics of the traced run, with units. Every traced run
/// prints all of them; a layer a workload does not reach reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("video.frames_rendered", "count"),
    ("video.render_s", "s"),
    ("video.diff_s", "s"),
    ("video.retained_frac", "fraction"),
    ("nn.train_s", "s"),
    ("nn.train_epochs", "count"),
    ("nn.score_s", "s"),
    ("nn.score_us_per_frame", "us"),
    ("models.oracle_calls", "count"),
    ("models.oracle_frames", "count"),
    ("models.oracle_s", "s"),
    ("models.retries", "count"),
    ("models.breaker_trips", "count"),
    ("core.phase1_s", "s"),
    ("core.phase2_s", "s"),
    ("core.select_s", "s"),
    ("core.iterations", "count"),
    ("core.cleaned_frac", "fraction"),
    ("core.stream_s", "s"),
    ("core.skyline_s", "s"),
    ("evql.frontend_us", "us"),
    ("evql.cache_hits", "count"),
    ("evql.cache_misses", "count"),
    ("evql.cache_evictions", "count"),
    ("serve.overhead_us", "us"),
    ("serve.bytes_per_answer", "B"),
    ("serve.shed", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("trace.selftime_ratio", "fraction"),
];

/// End-to-end metrics printed in the result line of an untraced run.
/// `degraded_frac` and `failed_frac` are printed in the report but left
/// out of the result line: they read 0 on a healthy run, and the result
/// line carries failures as `failed` / `attempted` already.
pub const E2E_RESULT_METRICS: &[&str] = &[
    "setup_s",
    "query_ms.p50",
    "query_ms.tail",
    "qps",
    "cleaned_per_query",
    "sim_speedup",
    "precision",
    "peak_rss_mb",
];

/// Linear-interpolated percentile (`q` in [0, 1]) of raw samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values
            .iter()
            .map(|v| v.max(f64::MIN_POSITIVE).ln())
            .sum::<f64>()
            / values.len() as f64)
            .exp()
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-answer quality and cost figures of Everest answers.
#[derive(Debug, Default, Clone)]
pub struct Answers {
    pub cleaned: Vec<f64>,
    pub speedup: Vec<f64>,
    pub precision: Vec<f64>,
    pub degraded: usize,
}

impl Answers {
    pub fn count(&self) -> usize {
        self.cleaned.len()
    }

    /// Adds one answer; answers of the baseline engines carry no
    /// Everest cost and are skipped.
    pub fn push(&mut self, stats: &ExecStats) {
        if stats.engine != Engine::Everest {
            return;
        }
        self.cleaned.push(stats.cleaned.unwrap_or(0) as f64);
        self.speedup.push(stats.speedup);
        if let Some(q) = stats.quality {
            self.precision.push(q.precision);
        }
        let degraded = match stats.termination {
            Some(t) => t.is_degraded(),
            None => stats.converged == Some(false),
        };
        self.degraded += usize::from(degraded);
    }
}

/// The statistics of an answer, if it is one.
pub fn stats_of(output: &Output) -> Option<&ExecStats> {
    match output {
        Output::Rows(q) => Some(&q.stats),
        Output::Stream(s) => Some(&s.stats),
        Output::Skyline(s) => Some(&s.stats),
        Output::Message(_) => None,
    }
}

/// The timed phase of one run.
#[derive(Debug, Default, Clone)]
pub struct Timed {
    /// Per query (per request on `serve_mixed`) wall time, ms.
    pub samples_ms: Vec<f64>,
    /// Wall time of the whole timed phase, s.
    pub wall_s: f64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each repetition of the set-up, s.
    pub setup_s: Vec<f64>,
    pub timed: Timed,
    pub answers: Answers,
    pub attempted: u64,
    /// Error responses and shed queries.
    pub errors: u64,
    /// Correctness-gate failures, one line each.
    pub failures: Vec<String>,
    /// Returned frames whose oracle score lies off the relation's bucket
    /// grid (each is also a gate failure: see `check::check_score`).
    pub clamped: u64,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.failures.len() as u64
    }
}

/// `min … max` of a set of values, for the report notes.
fn range(values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("min {min:.3}, max {max:.3}")
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// The ten end-to-end metrics of a run. `tail_q` is the workload's tail
/// percentile.
pub fn e2e_metrics(o: &Outcome, tail_q: f64) -> Vec<Metric> {
    let n = o.timed.samples_ms.len();
    let beyond = ((1.0 - tail_q) * n as f64).floor() as usize;
    let answers = o.answers.count();
    let m = |name, value, unit, note: String| Metric {
        name,
        value,
        unit,
        note,
    };
    vec![
        m(
            "setup_s",
            median(&o.setup_s),
            "s",
            format!(
                "median of {} set-ups: {}",
                o.setup_s.len(),
                o.setup_s
                    .iter()
                    .map(|s| format!("{s:.3}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        m(
            "query_ms.p50",
            median(&o.timed.samples_ms),
            "ms",
            format!("n={n}"),
        ),
        m(
            "query_ms.tail",
            percentile(&o.timed.samples_ms, tail_q),
            "ms",
            format!("p{}, n={n}, {beyond} beyond", tail_q * 100.0),
        ),
        m(
            "qps",
            n as f64 / o.timed.wall_s.max(1e-9),
            "1/s",
            format!("{n} in {:.3} s", o.timed.wall_s),
        ),
        m(
            "cleaned_per_query",
            mean(&o.answers.cleaned),
            "frames",
            format!("mean of {answers} answers"),
        ),
        m(
            "sim_speedup",
            geomean(&o.answers.speedup),
            "x",
            format!(
                "geomean of {answers} answers, {}",
                range(&o.answers.speedup)
            ),
        ),
        m(
            "precision",
            mean(&o.answers.precision),
            "fraction",
            format!(
                "mean of {} answers, {}",
                o.answers.precision.len(),
                range(&o.answers.precision)
            ),
        ),
        m(
            "degraded_frac",
            o.answers.degraded as f64 / answers.max(1) as f64,
            "fraction",
            format!("{} of {answers} answers", o.answers.degraded),
        ),
        m(
            "failed_frac",
            o.failed() as f64 / o.attempted.max(1) as f64,
            "fraction",
            format!("{} of {} attempted", o.failed(), o.attempted),
        ),
        m(
            "peak_rss_mb",
            peak_rss_mb(),
            "MiB",
            "VmHWM of the benchmark process".into(),
        ),
    ]
}

/// Per-layer metrics of a traced run, in catalog order.
pub fn layer_metrics(o: &Outcome) -> Vec<Metric> {
    for name in o.layers.keys() {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| n == name),
            "layer metric {name} is not in the catalog"
        );
    }
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: o.layers.get(name).copied().unwrap_or(0.0),
            unit,
            note: String::new(),
        })
        .collect()
}

/// A number as JSON: all its digits, and never NaN or infinite.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(o: &Outcome, metrics: &[Metric], only: Option<&[&str]>) -> String {
    let mut body = String::new();
    for m in metrics {
        if only.is_some_and(|names| !names.contains(&m.name)) {
            continue;
        }
        if !body.is_empty() {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        o.failed() == 0,
        o.attempted.max(1),
        o.failed()
    )
}
