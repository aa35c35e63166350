//! `cold_topk`: first Top-K frame queries on freshly built counting
//! videos. Every query misses the prepared-video cache and runs Phase 1,
//! so ~98% of the time is `video` rendering and diffing and `nn`
//! training and scoring; a Phase-2 change predicts no change here.

use crate::check::{check_rows, fnv1a, shuffle, Ledger};
use crate::report::{median, Answers, Outcome};
use crate::trace::{
    cache_key, cleaner_for, phase1_recipe, prepare_entry, since, traced_prepare, CountingOracle,
    CountingVideo,
};
use crate::Config;
use everest_core::pipeline::Everest;
use everest_core::sim::component;
use everest_evql::wire::canonical_output;
use everest_evql::{Output, QueryOutput, Session, SessionSettings};
use std::time::Instant;

/// `query_ms.tail` is p60: a query takes ~1.25 s, so a run holds five
/// passes over the five statements, 25 samples, and p60 keeps 10 beyond.
pub const TAIL_Q: f64 = 0.60;
const MIN_SAMPLES: usize = 25;
/// Set-ups per run: each is one cold warm-up query, so five keep the
/// median steady.
const SETUP_REPS: usize = 5;
/// Catalog scale: `Taipei-bus` and `Irish-Center` shrink to ~10k frames,
/// which makes one cold query about 1 s on a 2-core host.
const SCALE: usize = 8;
/// Templates `(dataset, K, thres)`. Both datasets have ~10k frames, so
/// every query costs about the same whatever the seed's order. (No K = 1:
/// its Phase 2 takes ~1 s on these videos, see `warm_sweep`, and would
/// break the "Phase 1 is ~98%" premise of this workload.)
const TEMPLATES: [(&str, usize, f64); 5] = [
    ("Taipei-bus", 50, 0.9),
    ("Irish-Center", 10, 0.95),
    ("Taipei-bus", 10, 0.8),
    ("Irish-Center", 100, 0.9),
    ("Taipei-bus", 5, 0.95),
];

fn settings(cfg: &Config) -> SessionSettings {
    SessionSettings {
        scale: if cfg.smoke { 1_000 } else { SCALE },
        ..SessionSettings::default()
    }
}

/// Video seeds, one per template. The videos are fixed so that the
/// deterministic metrics (cleaned frames, speedup, precision) measure the
/// engine, not the draw of videos; `--seed` fixes the query order.
const VIDEO_SEEDS: [u64; 5] = [101, 102, 103, 104, 105];
const WARMUP: &str = "SELECT TOP 5 FRAMES FROM Grand-Canal WITH SEED 100";

/// The seeded statement sequence: every template on its own video, in
/// seeded order.
fn statements(cfg: &Config) -> Vec<String> {
    let mut seq: Vec<String> = TEMPLATES
        .iter()
        .zip(VIDEO_SEEDS)
        .map(|((ds, k, thres), seed)| {
            format!("SELECT TOP {k} FRAMES FROM {ds} WITH CONFIDENCE {thres}, SEED {seed}")
        })
        .collect();
    let mut rng = cfg.seed;
    shuffle(&mut seq, &mut rng);
    if cfg.smoke {
        seq.truncate(2);
    }
    seq
}

/// Set-up: opens a session whose cache holds one entry (so every query
/// misses) and runs one warm-up query.
fn set_up(cfg: &Config) -> Session {
    let mut session = Session::with_settings(settings(cfg));
    session.set_cache_capacity(1);
    session.execute(WARMUP).expect("warm-up query runs");
    session
}

fn rows(output: everest_evql::Output, what: &str, out: &mut Outcome) -> Option<QueryOutput> {
    match output {
        Output::Rows(q) => Some(q),
        other => {
            out.fail(format!("{what}: expected rows, got {other:?}"));
            None
        }
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let queries = statements(cfg);
    let mut setup = None;
    for _ in 0..cfg.setup_reps(SETUP_REPS) {
        let t = Instant::now();
        setup = Some(set_up(cfg));
        out.setup_s.push(since(t));
    }
    let mut session = setup.expect("at least one set-up");
    if cfg.trace {
        traced(cfg, &mut session, &queries, &mut out);
        return out;
    }

    let mut ledger = Ledger::new();
    let mut first_cycle = Answers::default();
    // Cache lookups the gate makes itself (to read the exact scores and
    // the bucket grid of the entry the answer was ranked on).
    let mut own_lookups = 0;
    let started = Instant::now();
    let min_samples = if cfg.smoke {
        2 * queries.len()
    } else {
        MIN_SAMPLES
    };
    let mut i = 0;
    // Whole passes only, so every statement weighs the same in each run.
    while i < min_samples || since(started) < cfg.seconds || i % queries.len() != 0 {
        let idx = i % queries.len();
        let q = &queries[idx];
        let what = format!("cold_topk `{q}`");
        out.attempted += 1;
        let t = Instant::now();
        let result = session.execute(q);
        out.timed.samples_ms.push(since(t) * 1e3);
        i += 1;
        let output = match result {
            Ok(o) => o,
            Err(e) => {
                out.errors += 1;
                eprintln!("{what}: error: {}", e.message());
                continue;
            }
        };
        let canonical = fnv1a(&canonical_output(&output));
        let Some(answer) = rows(output, &what, &mut out) else {
            continue;
        };
        let (entry, _) = session
            .shared_cache()
            .get_or_build(&cache_key(&answer.plan), || prepare_entry(&answer.plan));
        own_lookups += 1;
        check_rows(
            &answer,
            entry.oracle.all_scores(),
            &entry.prepared.phase1.relation,
            &what,
            &mut out,
        );
        let counts = vec![
            canonical,
            answer.stats.cleaned.unwrap_or(0) as u64,
            answer.stats.iterations.unwrap_or(0) as u64,
        ];
        if !ledger.repeated(idx) {
            first_cycle.push(&answer.stats);
        }
        ledger.record(idx, counts, &what, &mut out);
    }
    out.timed.wall_s = since(started);
    out.answers = first_cycle;
    let stats = session.shared_cache().stats();
    if stats.hits != own_lookups {
        out.fail(format!(
            "cold_topk: {} cache hits, expected none",
            stats.hits - own_lookups
        ));
    }
    out
}

/// Traced run: each statement runs untraced through `Session`, then
/// through the traced replica (decorated video and oracle, one span per
/// layer call), then as a direct `Everest::prepare` + `query_topk`. The
/// three answers must agree, and the replica's layer self times must add
/// up to the direct call's wall time within `SELFTIME_TOLERANCE`.
fn traced(cfg: &Config, session: &mut Session, queries: &[String], out: &mut Outcome) {
    const SELFTIME_TOLERANCE: f64 = 0.2;
    let settings = session.settings.clone();
    let stats0 = session.shared_cache().stats();
    let mut ledger = Ledger::new();
    let mut own_lookups = 0;
    let mut acc = crate::Acc::default();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut self_s, mut direct_s) = (0.0, 0.0);
    let started = Instant::now();
    let mut i = 0;
    while i <= queries.len() || since(started) < cfg.seconds {
        let idx = i % queries.len();
        i += 1;
        let q = &queries[idx];
        let what = format!("cold_topk traced `{q}`");
        out.attempted += 1;

        let t = Instant::now();
        let reference = session.execute(q);
        untraced_ms.push(since(t) * 1e3);
        let Ok(reference) = reference else {
            out.errors += 1;
            continue;
        };
        let Some(reference) = rows(reference, &what, out) else {
            continue;
        };
        let (entry, _) = session
            .shared_cache()
            .get_or_build(&cache_key(&reference.plan), || {
                prepare_entry(&reference.plan)
            });
        own_lookups += 1;
        check_rows(
            &reference,
            entry.oracle.all_scores(),
            &entry.prepared.phase1.relation,
            &what,
            out,
        );

        let t_traced = Instant::now();
        let t = Instant::now();
        let plan = crate::plan_select(q, &settings);
        acc.add("evql.frontend_us", since(t) * 1e6);
        let built = plan.source.build(plan.score, plan.scale_divisor, plan.seed);
        let video = CountingVideo::new(built.video.as_ref());
        let oracle = CountingOracle::new(&built.oracle);
        let recipe = phase1_recipe(plan.quant_step, plan.seed);
        let (prepared, spans) = traced_prepare(&video, &oracle, &recipe);
        let t = Instant::now();
        let report = prepared.query_topk(&oracle, plan.k, plan.thres, &cleaner_for(&plan));
        let phase2_s = since(t);
        traced_ms.push(since(t_traced) * 1e3);

        let t = Instant::now();
        let direct = Everest::prepare(built.video.as_ref(), &built.oracle, &recipe);
        let direct_report =
            direct.query_topk(&built.oracle, plan.k, plan.thres, &cleaner_for(&plan));
        direct_s += since(t);
        self_s += spans.total() + phase2_s;

        let frames: Vec<usize> = reference.rows.iter().map(|r| r.start_frame).collect();
        for (name, r) in [("traced", &report), ("direct", &direct_report)] {
            if r.frames() != frames
                || Some(r.cleaned) != reference.stats.cleaned
                || Some(r.confidence) != reference.stats.confidence
            {
                out.fail(format!(
                    "{what}: {name} answer differs from the Session answer \
                     (frames {:?} vs {frames:?}, cleaned {} vs {:?}, confidence {} vs {:?})",
                    r.frames(),
                    r.cleaned,
                    reference.stats.cleaned,
                    r.confidence,
                    reference.stats.confidence
                ));
            }
        }
        ledger.record(
            idx,
            vec![
                video.frames(),
                oracle.frames(),
                report.cleaned as u64,
                report.iterations as u64,
            ],
            &what,
            out,
        );

        acc.add("video.frames_rendered", video.frames() as f64);
        acc.add("video.render_s", video.render_s());
        acc.add("video.diff_s", spans.diff_s);
        acc.add(
            "video.retained_frac",
            spans.retained as f64 / spans.frames as f64,
        );
        acc.add("nn.train_s", spans.train_s);
        acc.add("nn.train_epochs", spans.epochs as f64);
        acc.add("nn.score_s", spans.score_s);
        acc.add(
            "nn.score_us_per_frame",
            spans.score_s * 1e6 / spans.retained as f64,
        );
        acc.add("models.oracle_calls", oracle.calls() as f64);
        acc.add("models.oracle_frames", oracle.frames() as f64);
        acc.add("models.oracle_s", oracle.busy_s());
        acc.add("core.phase1_s", spans.total());
        acc.add("core.phase2_s", phase2_s);
        acc.add("core.select_s", report.clock.component(component::SELECT));
        acc.add("core.iterations", report.iterations as f64);
        acc.add("core.cleaned_frac", report.pct_cleaned());
        out.answers.push(&reference.stats);
    }
    out.timed.wall_s = since(started);
    out.timed.samples_ms = untraced_ms.clone();
    let stats = session.shared_cache().stats();
    out.layers = acc.means();
    out.layers.insert(
        "evql.cache_hits",
        (stats.hits - stats0.hits - own_lookups) as f64,
    );
    out.layers
        .insert("evql.cache_misses", (stats.misses - stats0.misses) as f64);
    out.layers.insert(
        "evql.cache_evictions",
        (stats.evictions - stats0.evictions) as f64,
    );
    crate::insert_overhead(out, &untraced_ms, &traced_ms);
    let ratio = self_s / direct_s.max(1e-9);
    out.layers.insert("trace.selftime_ratio", ratio);
    if (ratio - 1.0).abs() > SELFTIME_TOLERANCE {
        out.fail(format!(
            "cold_topk traced: layer self times sum to {self_s:.3} s but Everest::prepare + \
             query_topk took {direct_s:.3} s (ratio {ratio:.3}, tolerance ±{SELFTIME_TOLERANCE})"
        ));
    }
    eprintln!(
        "cold_topk traced: untraced p50 {:.1} ms, traced p50 {:.1} ms",
        median(&untraced_ms),
        median(&traced_ms)
    );
}
