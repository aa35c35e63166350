//! `warm_sweep`: a seeded sweep of queries over videos prepared during
//! set-up (at most 8 cache keys, so all stay cached). It renders no frame
//! and trains nothing, so its time is `core` Phase 2, `stream`, `skyline`
//! and the `evql` front end: the bypass workload for Phase-1 changes.

use crate::check::{check_output, fnv1a, shuffle, Ledger};
use crate::report::{stats_of, Answers, Outcome};
use crate::trace::{cache_key, cleaner_for, phase1_recipe, since, CountingOracle};
use crate::Config;
use everest_core::pipeline::Everest;
use everest_core::sim::component;
use everest_evql::ast::Statement;
use everest_evql::catalog::{ScoreFn, SourceEntry};
use everest_evql::exec::PreparedEntry;
use everest_evql::plan::PlanTarget;
use everest_evql::shared::CacheKey;
use everest_evql::wire::canonical_output;
use everest_evql::{analyze_skyline, parse, Output, Session, SessionSettings};
use std::sync::Arc;
use std::time::Instant;

/// `query_ms.tail` is p90: a 30 s run holds ~170 queries (Top-1 queries
/// take ~1 s, the rest ~20 ms), and the run goes on until at least 100 so
/// that ≥ 10 lie beyond p90.
pub const TAIL_Q: f64 = 0.90;
const MIN_SAMPLES: usize = 100;
/// Set-ups per run: each prepares four cache keys.
const SETUP_REPS: usize = 3;
const SCALE: usize = 8;

fn settings(cfg: &Config) -> SessionSettings {
    SessionSettings {
        scale: if cfg.smoke { 1_000 } else { SCALE },
        ..SessionSettings::default()
    }
}

/// The sweep: Top-K frames for K ∈ {1, 10, 50, 100} × thres ∈ {0.8, 0.9,
/// 0.95} on two ~10k-frame videos, tumbling and sliding windows,
/// continuous queries with and without a window, and a skyline. The
/// videos are fixed (as on `cold_topk`); `--seed` fixes the order.
fn statements(cfg: &Config) -> Vec<String> {
    let (taipei, irish, archie) = (201, 202, 203);
    let mut out = Vec::new();
    let ks: &[usize] = if cfg.smoke { &[10] } else { &[1, 10, 50, 100] };
    let thresholds: &[f64] = if cfg.smoke { &[0.9] } else { &[0.8, 0.9, 0.95] };
    for (ds, s) in [("Taipei-bus", taipei), ("Irish-Center", irish)] {
        for &k in ks {
            for &thres in thresholds {
                out.push(format!(
                    "SELECT TOP {k} FRAMES FROM {ds} WITH CONFIDENCE {thres}, SEED {s}"
                ));
            }
        }
    }
    out.extend([
        format!("SELECT TOP 5 WINDOWS OF 150 FRAMES FROM Taipei-bus WITH SEED {taipei}"),
        format!("SELECT TOP 5 WINDOWS OF 60 FRAMES SLIDE 15 FROM Irish-Center WITH SEED {irish}"),
        format!("SELECT TOP 5 FRAMES FROM Archie WITH SEED {archie} EVERY 100 FRAMES EMIT"),
        format!(
            "SELECT TOP 5 FRAMES FROM Archie EVERY 50 FRAMES EMIT WITH SEED {archie}, WINDOW 300"
        ),
        format!("SELECT SKYLINE OF count(car), coverage() FROM Archie WITH SEED {archie}"),
    ]);
    let mut rng = cfg.seed;
    shuffle(&mut out, &mut rng);
    out
}

/// A cache key with what building its entry needs: source, score, step.
type KeySpec = (CacheKey, SourceEntry, ScoreFn, f64);

/// Every cache key a statement needs.
fn keys_of(text: &str, settings: &SessionSettings) -> Vec<KeySpec> {
    match parse(text).expect("benchmark statements parse") {
        Statement::Select(_) => {
            let plan = crate::plan_select(text, settings);
            vec![(
                cache_key(&plan),
                plan.source.clone(),
                plan.score,
                plan.quant_step,
            )]
        }
        Statement::Skyline(stmt) => {
            let plan = analyze_skyline(&stmt, settings).expect("skyline analyzes");
            plan.scores
                .iter()
                .map(|&score| {
                    let step = score.default_step();
                    let key = CacheKey {
                        source: plan.source.name.to_ascii_lowercase(),
                        score: score.display(),
                        scale: plan.scale_divisor,
                        seed: plan.seed,
                        step_bits: step.to_bits(),
                    };
                    (key, plan.source.clone(), score, step)
                })
                .collect()
        }
        other => panic!("unexpected statement {other:?}"),
    }
}

/// Set-up: prepares every cache key the sweep reads (Phase 1 of the warm
/// keys) with a timed direct `Everest::prepare`.
fn set_up(cfg: &Config, stmts: &[String], phase1_s: &mut Vec<f64>) -> Session {
    let settings = settings(cfg);
    let session = Session::with_settings(settings.clone());
    let cache = session.shared_cache();
    for text in stmts {
        for (key, source, score, step) in keys_of(text, &settings) {
            cache.get_or_build(&key, || {
                let t = Instant::now();
                let built = source.build(score, key.scale, key.seed);
                let prepared = Everest::prepare(
                    built.video.as_ref(),
                    &built.oracle,
                    &phase1_recipe(step, key.seed),
                );
                phase1_s.push(since(t));
                PreparedEntry {
                    prepared,
                    oracle: built.oracle,
                }
            });
        }
    }
    session
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let stmts = statements(cfg);
    let mut setup = None;
    let mut phase1_s = Vec::new();
    for _ in 0..cfg.setup_reps(SETUP_REPS) {
        phase1_s.clear();
        let t = Instant::now();
        setup = Some(set_up(cfg, &stmts, &mut phase1_s));
        out.setup_s.push(since(t));
    }
    let mut session = setup.expect("at least one set-up");
    // The prepared entries each statement reads, one per score.
    let entries: Vec<Vec<Arc<PreparedEntry>>> = stmts
        .iter()
        .map(|s| {
            keys_of(s, &session.settings)
                .iter()
                .map(|(key, ..)| {
                    let (entry, hit) = session
                        .shared_cache()
                        .get_or_build(key, || panic!("set-up left `{s}` unprepared"));
                    assert!(hit);
                    entry
                })
                .collect()
        })
        .collect();
    let stats0 = session.shared_cache().stats();
    let mut ledger = Ledger::new();
    let mut first_cycle = Answers::default();
    let mut acc = crate::Acc::default();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut self_s, mut untraced_s) = (0.0, 0.0);
    // A traced run reports no percentile, so one pass is enough there.
    let min_samples = if cfg.smoke || cfg.trace {
        stmts.len()
    } else {
        MIN_SAMPLES
    };
    let started = Instant::now();
    let mut i = 0;
    // Whole passes only: the statements differ ~50× in cost, so a partial
    // last pass would make `qps` and the percentiles depend on the order.
    while i < min_samples || since(started) < cfg.seconds || i % stmts.len() != 0 {
        let idx = i % stmts.len();
        i += 1;
        let s = &stmts[idx];
        let what = format!("warm_sweep `{s}`");
        out.attempted += 1;
        let t = Instant::now();
        let result = session.execute(s);
        let wall = since(t);
        untraced_ms.push(wall * 1e3);
        let output = match result {
            Ok(o) => o,
            Err(e) => {
                out.errors += 1;
                eprintln!("{what}: error: {}", e.message());
                continue;
            }
        };
        let exact: Vec<_> = entries[idx].iter().map(|e| e.oracle.all_scores()).collect();
        let rels: Vec<_> = entries[idx]
            .iter()
            .map(|e| &e.prepared.phase1.relation)
            .collect();
        check_output(&output, &exact, &rels, &what, &mut out);
        let Some(stats) = stats_of(&output) else {
            continue;
        };
        let mut counts = vec![
            fnv1a(&canonical_output(&output)),
            stats.cleaned.unwrap_or(0) as u64,
            stats.iterations.unwrap_or(0) as u64,
        ];
        if !ledger.repeated(idx) {
            first_cycle.push(stats);
        }
        if cfg.trace {
            untraced_s += wall;
            let (traced_wall, layer_s, oracle_frames) = traced(
                &mut session,
                s,
                &entries[idx][0],
                &output,
                &what,
                &mut acc,
                &mut out,
            );
            traced_ms.push(traced_wall * 1e3);
            self_s += layer_s;
            counts.push(oracle_frames);
        }
        ledger.record(idx, counts, &what, &mut out);
    }
    out.timed.wall_s = since(started);
    out.timed.samples_ms = untraced_ms.clone();
    out.answers = first_cycle;
    let stats = session.shared_cache().stats();
    if stats.misses != stats0.misses {
        out.fail(format!(
            "warm_sweep: {} cache misses in the timed phase, expected none",
            stats.misses - stats0.misses
        ));
    }
    if cfg.trace {
        out.layers = acc.means();
        out.layers
            .insert("evql.cache_hits", (stats.hits - stats0.hits) as f64);
        out.layers
            .insert("evql.cache_misses", (stats.misses - stats0.misses) as f64);
        out.layers.insert(
            "evql.cache_evictions",
            (stats.evictions - stats0.evictions) as f64,
        );
        out.layers
            .insert("core.phase1_s", crate::report::mean(&phase1_s));
        out.layers
            .insert("trace.selftime_ratio", self_s / untraced_s.max(1e-9));
        crate::insert_overhead(&mut out, &untraced_ms, &traced_ms);
    }
    out
}

/// The traced twin of one statement, after its untraced run: the front
/// end, then the layer call the statement reaches — `query_topk*` on the
/// cached prepared video with a counting oracle, `Session::stream` +
/// `finish`, or the skyline statement. The answer must equal the
/// untraced one. Returns the traced wall time, the summed layer times
/// and the oracle frames.
fn traced(
    session: &mut Session,
    text: &str,
    entry: &PreparedEntry,
    reference: &Output,
    what: &str,
    acc: &mut crate::Acc,
    out: &mut Outcome,
) -> (f64, f64, u64) {
    let started = Instant::now();
    let t = Instant::now();
    let stmt = parse(text).expect("benchmark statements parse");
    let plan = match &stmt {
        Statement::Select(sel) => {
            Some(everest_evql::analyze_select(sel, &session.settings).expect("statement analyzes"))
        }
        Statement::Skyline(sky) => {
            analyze_skyline(sky, &session.settings).expect("skyline analyzes");
            None
        }
        other => panic!("unexpected statement {other:?}"),
    };
    let frontend_s = since(t);
    acc.add("evql.frontend_us", frontend_s * 1e6);

    let t = Instant::now();
    let (same, oracle_frames) = match (&plan, reference) {
        (Some(plan), Output::Rows(answer)) => {
            let oracle = CountingOracle::new(&entry.oracle);
            let cleaner = cleaner_for(plan);
            let p = &entry.prepared;
            let report = match plan.target {
                PlanTarget::Frames => p.query_topk(&oracle, plan.k, plan.thres, &cleaner),
                PlanTarget::Windows {
                    len,
                    slide,
                    sample_frac,
                } if slide == len => {
                    p.query_topk_windows(&oracle, plan.k, plan.thres, len, sample_frac, &cleaner)
                }
                PlanTarget::Windows {
                    len,
                    slide,
                    sample_frac,
                } => p.query_topk_sliding_windows(
                    &oracle,
                    plan.k,
                    plan.thres,
                    len,
                    slide,
                    sample_frac,
                    &cleaner,
                ),
            };
            let layer_s = since(t);
            acc.add("core.phase2_s", layer_s);
            acc.add("core.select_s", report.clock.component(component::SELECT));
            acc.add("core.iterations", report.iterations as f64);
            acc.add("core.cleaned_frac", report.pct_cleaned());
            acc.add("models.oracle_calls", oracle.calls() as f64);
            acc.add("models.oracle_frames", oracle.frames() as f64);
            acc.add("models.oracle_s", oracle.busy_s());
            let starts: Vec<usize> = answer.rows.iter().map(|r| r.start_frame).collect();
            let same = report.items.iter().map(|i| i.range.0).collect::<Vec<_>>() == starts
                && Some(report.cleaned) == answer.stats.cleaned
                && Some(report.confidence) == answer.stats.confidence;
            (same, oracle.frames())
        }
        (Some(_), _) => {
            let traced = session
                .stream(text)
                .and_then(|s| s.finish())
                .map(Output::Stream);
            acc.add("core.stream_s", since(t));
            (
                traced.is_ok_and(|o| canonical_output(&o) == canonical_output(reference)),
                0,
            )
        }
        (None, _) => {
            let traced = session.execute(text);
            acc.add("core.skyline_s", since(t));
            (
                traced.is_ok_and(|o| canonical_output(&o) == canonical_output(reference)),
                0,
            )
        }
    };
    if !same {
        out.fail(format!(
            "{what}: traced answer differs from the Session answer"
        ));
    }
    let wall = since(started);
    (wall, frontend_s + since(t), oracle_frames)
}
