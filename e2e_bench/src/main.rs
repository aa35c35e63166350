//! End-to-end benchmark of the Everest workspace.
//!
//! ```text
//! everest-e2e-bench --workload <cold_topk|warm_sweep|serve_mixed>
//!                   --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Each run sets up its workload several times (reporting the median
//! set-up time), then drives a closed loop of seeded queries through the
//! public API for `--seconds`, checking every answer. `--trace 0` prints
//! the end-to-end metrics; `--trace 1` runs the workload through the
//! traced path instead and prints the per-layer metrics plus the tracing
//! overhead. The last line of standard output is the JSON result; a
//! failed correctness check makes the exit code non-zero. `--smoke`
//! shrinks every workload to a few small queries (the self-test).

mod check;
mod cold;
mod report;
mod serve;
mod trace;
mod warm;

use everest_evql::ast::Statement;
use everest_evql::{analyze_select, parse, QueryPlan, SessionSettings};
use report::{median, Outcome};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Command-line configuration of one run.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Config {
    /// Set-up repetitions (`reps`, or 1 in a smoke run); `setup_s` is
    /// their median.
    pub fn setup_reps(&self, reps: usize) -> usize {
        if self.smoke {
            1
        } else {
            reps
        }
    }
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            cfg.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(cfg)
}

/// Parses and analyzes a `SELECT TOP` statement the benchmark wrote.
pub fn plan_select(text: &str, settings: &SessionSettings) -> QueryPlan {
    match parse(text).expect("benchmark statements parse") {
        Statement::Select(stmt) => {
            analyze_select(&stmt, settings).expect("benchmark statements analyze")
        }
        other => panic!("not a SELECT TOP statement: {other:?}"),
    }
}

/// Per-layer accumulator: the mean of every value added under a name.
#[derive(Default)]
pub struct Acc {
    sums: BTreeMap<&'static str, (f64, usize)>,
}

impl Acc {
    pub fn add(&mut self, name: &'static str, value: f64) {
        let e = self.sums.entry(name).or_insert((0.0, 0));
        e.0 += value;
        e.1 += 1;
    }

    pub fn means(&self) -> BTreeMap<&'static str, f64> {
        self.sums
            .iter()
            .map(|(&k, &(sum, n))| (k, sum / n as f64))
            .collect()
    }
}

/// Tracing overhead: traced minus untraced median wall time.
pub fn insert_overhead(out: &mut Outcome, untraced_ms: &[f64], traced_ms: &[f64]) {
    let (u, t) = (median(untraced_ms), median(traced_ms));
    out.layers.insert("trace.overhead_ms", t - u);
    out.layers
        .insert("trace.overhead_frac", (t - u) / u.max(1e-9));
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("everest-e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let (outcome, tail_q) = match cfg.workload.as_str() {
        "cold_topk" => (cold::run(&cfg), cold::TAIL_Q),
        "warm_sweep" => (warm::run(&cfg), warm::TAIL_Q),
        "serve_mixed" => (serve::run(&cfg), serve::TAIL_Q),
        other => {
            eprintln!(
                "everest-e2e-bench: unknown workload `{other}` \
                 (cold_topk, warm_sweep, serve_mixed)"
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} threads={threads}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let e2e = report::e2e_metrics(&outcome, tail_q);
    for m in &e2e {
        println!(
            "{} {} = {} {}  ({})",
            cfg.workload, m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "{} finding clamped_scores = {} rows  (answer rows the oracle scores off the bucket \
         grid; each also fails the gate)",
        cfg.workload, outcome.clamped
    );
    let line = if cfg.trace {
        let layers = report::layer_metrics(&outcome);
        for m in &layers {
            println!("{} {} = {} {}", cfg.workload, m.name, m.value, m.unit);
        }
        report::result_line(&outcome, &layers, None)
    } else {
        report::result_line(&outcome, &e2e, Some(report::E2E_RESULT_METRICS))
    };
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    println!("{line}");
    if outcome.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
