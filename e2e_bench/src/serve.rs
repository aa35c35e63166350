//! `serve_mixed`: an in-process `everest-serve` daemon driven by two TCP
//! client connections in a closed loop. Every query is about a
//! millisecond, so the wire codec, worker pool, admission and cache-hit
//! path are a visible share of the time; the `WITH FLAKY` share drives
//! the retry, breaker and degraded-exit path of the cleaner.

use crate::check::{check_rows, fnv1a, splitmix64};
use crate::report::{median, stats_of, Outcome};
use crate::trace::{cache_key, cleaner_for, prepare_entry, since, CountingOracle};
use crate::{Acc, Config};
use everest_core::sim::component;
use everest_evql::wire::{canonical_output, Response};
use everest_evql::{Engine, ExecStats, Output, Session, SessionSettings};
use everest_models::{FlakyOracle, Oracle, RetryingOracle};
use everest_serve::{Client, ServeConfig, Server, ServerHandle, ShutdownReport};
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;
use std::time::Instant;

/// `query_ms.tail` is p99: a run holds tens of thousands of requests and
/// goes on until at least 1 000, so ≥ 10 lie beyond p99.
pub const TAIL_Q: f64 = 0.99;
const MIN_SAMPLES: usize = 1_000;
/// Set-ups per run: each boots a daemon and prepares two videos (~0.7 s).
const SETUP_REPS: usize = 5;
/// Samples one client can record without reallocating.
const SAMPLE_CAPACITY: usize = 1 << 18;
/// Client connections (= cores of the reference host).
const CLIENTS: usize = 2;
/// Every catalog video shrinks to its 2 000-frame floor.
const SCALE: usize = 1_000;

/// A request of the mix: a statement (index into the mix) or a ping.
#[derive(Clone, Copy)]
enum Req {
    Query(usize),
    Ping,
}

struct Mix {
    statements: Vec<String>,
    /// Relative weight of each statement; pings take `PING_WEIGHT`.
    weights: Vec<u64>,
    warmups: Vec<String>,
}

const PING_WEIGHT: u64 = 2;

/// The mix: Everest frame and window queries on two small prepared
/// videos (all cache hits), `USING scan` queries, `WITH FLAKY` queries
/// under oracle-call caps and deadlines, and pings. Videos and fault
/// schedules are fixed; `--seed` fixes each client's request sequence.
fn mix() -> Mix {
    let (a, b) = (301, 302);
    let (f1, f2, f3) = (311, 312, 313);
    let entries: Vec<(String, u64)> = vec![
        (format!("SELECT TOP 5 FRAMES FROM Archie WITH SEED {a}"), 2),
        (
            format!("SELECT TOP 10 FRAMES FROM Archie WITH CONFIDENCE 0.95, SEED {a}"),
            2,
        ),
        (
            format!("SELECT TOP 3 FRAMES FROM Irish-Center WITH SEED {b}"),
            2,
        ),
        (
            format!("SELECT TOP 20 FRAMES FROM Irish-Center WITH CONFIDENCE 0.8, SEED {b}"),
            2,
        ),
        (
            format!("SELECT TOP 3 WINDOWS OF 30 FRAMES FROM Archie WITH SEED {a}"),
            1,
        ),
        ("SELECT TOP 5 FRAMES FROM Archie USING scan".into(), 1),
        (
            "SELECT TOP 10 FRAMES FROM Irish-Center USING scan".into(),
            1,
        ),
        (
            format!(
                "SELECT TOP 5 FRAMES FROM Archie WITHIN 60 ORACLE CALLS WITH SEED {a}, FLAKY {f1}"
            ),
            1,
        ),
        (
            format!(
                "SELECT TOP 3 FRAMES FROM Irish-Center WITH SEED {b}, DEADLINE 4.0, FLAKY {f2}"
            ),
            1,
        ),
        (
            format!(
                "SELECT TOP 4 FRAMES FROM Archie WITHIN 40 ORACLE CALLS WITH SEED {a}, FLAKY {f3}"
            ),
            1,
        ),
    ];
    Mix {
        statements: entries.iter().map(|(s, _)| s.clone()).collect(),
        weights: entries.iter().map(|&(_, w)| w).collect(),
        warmups: vec![
            format!("SELECT TOP 1 FRAMES FROM Archie WITH SEED {a}"),
            format!("SELECT TOP 1 FRAMES FROM Irish-Center WITH SEED {b}"),
        ],
    }
}

impl Mix {
    fn pick(&self, rng: &mut u64) -> Req {
        let total: u64 = self.weights.iter().sum::<u64>() + PING_WEIGHT;
        let mut r = splitmix64(rng) % total;
        for (i, &w) in self.weights.iter().enumerate() {
            if r < w {
                return Req::Query(i);
            }
            r -= w;
        }
        Req::Ping
    }
}

fn settings() -> SessionSettings {
    SessionSettings {
        scale: SCALE,
        ..SessionSettings::default()
    }
}

/// What a client saw for one request.
struct Sample {
    req: Req,
    rtt_us: f64,
    /// FNV-1a of the canonical answer bytes (answers only).
    canonical: Option<u64>,
    /// Encoded size of the answer frame (traced loop only).
    bytes: Option<usize>,
    error: bool,
    shed: bool,
}

struct Daemon {
    handle: ServerHandle,
    join: JoinHandle<ShutdownReport>,
    clients: Vec<Client>,
}

/// Boots the daemon (its warm-up prepares both videos) and connects the
/// clients; set-up ends when every client has had a ping answered.
fn boot(mix: &Mix) -> Daemon {
    let cfg = ServeConfig {
        workers: CLIENTS,
        max_inflight_queries: Some(CLIENTS),
        settings: settings(),
        warmup: mix.warmups.clone(),
        ..ServeConfig::default()
    };
    let (handle, join) = Server::spawn(cfg).expect("daemon boots");
    let clients = (0..CLIENTS)
        .map(|_| {
            let mut c = Client::connect(handle.addr()).expect("client connects");
            c.ping(b"up".to_vec()).expect("daemon answers a ping");
            c
        })
        .collect();
    Daemon {
        handle,
        join,
        clients,
    }
}

fn stop(daemon: Daemon, out: &mut Outcome) {
    drop(daemon.clients);
    daemon.handle.shutdown();
    match daemon.join.join() {
        Ok(report) if report.clean() => {}
        Ok(report) => out.fail(format!("serve_mixed: unclean shutdown {report:?}")),
        Err(_) => out.fail("serve_mixed: daemon thread panicked"),
    }
}

/// One closed-loop phase: every client sends its seeded requests until
/// `seconds` have passed and the clients together made `min_samples`.
fn drive(
    daemon: &mut Daemon,
    mix: &Mix,
    seed: u64,
    seconds: f64,
    min_samples: usize,
    traced: bool,
) -> (Vec<Vec<Sample>>, f64) {
    let started = Instant::now();
    let per_client = min_samples.div_ceil(CLIENTS);
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(ci, client)| {
                scope.spawn(move || {
                    let mut rng = seed ^ (ci as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f);
                    // Sized past any run's count up front, so that no
                    // reallocation shows in `peak_rss_mb`.
                    let mut samples = Vec::with_capacity(SAMPLE_CAPACITY);
                    while samples.len() < per_client || since(started) < seconds {
                        let req = mix.pick(&mut rng);
                        let t = Instant::now();
                        let response = match req {
                            Req::Query(i) => client.query(&mix.statements[i]),
                            Req::Ping => client
                                .ping(b"bench".to_vec())
                                .map(|nonce| Response::Pong { id: 0, nonce }),
                        };
                        let rtt_us = since(t) * 1e6;
                        let response = response.expect("daemon connection stays up");
                        let mut s = Sample {
                            req,
                            rtt_us,
                            canonical: None,
                            bytes: None,
                            error: false,
                            shed: false,
                        };
                        match &response {
                            Response::Answer { canonical, .. } => {
                                s.canonical = Some(fnv1a(canonical));
                                if traced {
                                    s.bytes = Some(response.encode().len());
                                }
                            }
                            Response::Pong { nonce, .. } => s.error = nonce != b"bench",
                            Response::Overloaded { .. } => s.shed = true,
                            Response::Error { .. } | Response::Message { .. } => s.error = true,
                        }
                        samples.push(s);
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    (samples, since(started))
}

/// The offline reference: each distinct statement once through a private
/// `Session` over the same catalog settings.
struct Offline {
    session: Session,
    canonical: Vec<u64>,
    stats: Vec<ExecStats>,
}

/// Everest frame answers of the replay pass the same certain-result gate
/// as on the other workloads.
fn offline(mix: &Mix, out: &mut Outcome) -> Offline {
    let mut session = Session::with_settings(settings());
    let mut canonical = Vec::new();
    let mut stats = Vec::new();
    for text in &mix.statements {
        let output = session.execute(text).expect("offline replay runs");
        if let Output::Rows(q) = &output {
            if q.stats.engine == Engine::Everest {
                let (entry, _) = session
                    .shared_cache()
                    .get_or_build(&cache_key(&q.plan), || prepare_entry(&q.plan));
                let what = format!("serve_mixed replay `{text}`");
                let rel = &entry.prepared.phase1.relation;
                check_rows(q, entry.oracle.all_scores(), rel, &what, out);
            }
        }
        canonical.push(fnv1a(&canonical_output(&output)));
        stats.push(stats_of(&output).expect("an answer").clone());
    }
    Offline {
        session,
        canonical,
        stats,
    }
}

/// Checks the served answers against the offline replay and folds them
/// into the outcome.
fn account(samples: &[Vec<Sample>], reference: &Offline, out: &mut Outcome) {
    out.timed.samples_ms.reserve(CLIENTS * SAMPLE_CAPACITY);
    let (mut served_digest, mut offline_digest) = (0u64, 0u64);
    for client in samples {
        let (mut d_served, mut d_offline) = (0u64, 0u64);
        for s in client {
            out.attempted += 1;
            out.timed.samples_ms.push(s.rtt_us / 1e3);
            if s.error || s.shed {
                out.errors += 1;
                continue;
            }
            if let Req::Query(i) = s.req {
                let Some(c) = s.canonical else {
                    out.fail(format!("serve_mixed: statement {i} got no answer"));
                    continue;
                };
                d_served = d_served.rotate_left(5) ^ c;
                d_offline = d_offline.rotate_left(5) ^ reference.canonical[i];
                out.answers.push(&reference.stats[i]);
            }
        }
        served_digest = served_digest.wrapping_add(d_served);
        offline_digest = offline_digest.wrapping_add(d_offline);
    }
    if served_digest != offline_digest {
        out.fail(format!(
            "serve_mixed: served answer digest {served_digest:016x} differs from the offline \
             Session replay {offline_digest:016x}"
        ));
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mix = mix();
    let mut daemon = None;
    for _ in 0..cfg.setup_reps(SETUP_REPS) {
        if let Some(d) = daemon.take() {
            stop(d, &mut out);
        }
        let t = Instant::now();
        daemon = Some(boot(&mix));
        out.setup_s.push(since(t));
    }
    let mut daemon = daemon.expect("at least one set-up");
    let metrics = daemon.handle.metrics();
    let cache0 = daemon.handle.cache().stats();
    let counter = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    let (retries0, trips0, degraded0, shed0) = (
        counter(&metrics.oracle_retries),
        counter(&metrics.breaker_trips),
        counter(&metrics.degraded_answers),
        counter(&metrics.shed_queries),
    );
    let min_samples = if cfg.smoke { 40 } else { MIN_SAMPLES };
    let (samples, traced_samples, wall_s) = if cfg.trace {
        // Half the time untraced, half traced: the difference of their
        // medians is the tracing overhead.
        let (u, _) = drive(
            &mut daemon,
            &mix,
            cfg.seed,
            cfg.seconds / 2.0,
            min_samples,
            false,
        );
        let (t, wall) = drive(
            &mut daemon,
            &mix,
            cfg.seed ^ 1,
            cfg.seconds / 2.0,
            min_samples,
            true,
        );
        (u, Some(t), wall)
    } else {
        let (u, wall) = drive(&mut daemon, &mix, cfg.seed, cfg.seconds, min_samples, false);
        (u, None, wall)
    };
    let cache1 = daemon.handle.cache().stats();
    let (retries, trips, degraded, shed) = (
        counter(&metrics.oracle_retries) - retries0,
        counter(&metrics.breaker_trips) - trips0,
        counter(&metrics.degraded_answers) - degraded0,
        counter(&metrics.shed_queries) - shed0,
    );
    stop(daemon, &mut out);

    let mut reference = offline(&mix, &mut out);
    account(&samples, &reference, &mut out);
    out.timed.wall_s = wall_s;
    let all: Vec<&Sample> = samples
        .iter()
        .chain(traced_samples.iter().flatten())
        .flatten()
        .collect();
    // The daemon's own counters must agree with the offline replay.
    let (mut want_degraded, mut want_retries) = (0u64, 0u64);
    for s in &all {
        if let (Req::Query(i), Some(_)) = (s.req, s.canonical) {
            let st = &reference.stats[i];
            want_degraded += u64::from(st.termination.is_some_and(|t| t.is_degraded()));
            want_retries += st.oracle_retries.unwrap_or(0);
        }
    }
    if (degraded, retries) != (want_degraded, want_retries) {
        out.fail(format!(
            "serve_mixed: daemon counted {degraded} degraded answers and {retries} retries, \
             the offline replay {want_degraded} and {want_retries}"
        ));
    }
    if cache1.misses != cache0.misses {
        out.fail("serve_mixed: cache misses in the timed phase, expected all hits");
    }

    if let Some(traced) = traced_samples {
        let mut t_out = Outcome::default();
        account(&traced, &reference, &mut t_out);
        out.attempted += t_out.attempted;
        out.errors += t_out.errors;
        out.failures.append(&mut t_out.failures);
        let mut acc = Acc::default();
        layers(&mix, &mut reference, &traced, &mut acc, &mut out);
        out.layers.extend(acc.means());
        out.layers.insert("models.retries", retries as f64);
        out.layers.insert("models.breaker_trips", trips as f64);
        out.layers.insert("serve.shed", shed as f64);
        out.layers
            .insert("evql.cache_hits", (cache1.hits - cache0.hits) as f64);
        out.layers
            .insert("evql.cache_misses", (cache1.misses - cache0.misses) as f64);
        out.layers.insert(
            "evql.cache_evictions",
            (cache1.evictions - cache0.evictions) as f64,
        );
        let ms = |v: &[Vec<Sample>]| -> Vec<f64> {
            v.iter().flatten().map(|s| s.rtt_us / 1e3).collect()
        };
        crate::insert_overhead(&mut out, &ms(&samples), &ms(&traced));
    }
    out
}

/// Offline per-layer figures for the traced run: front-end time and
/// `Session::execute` time per statement, the served round trip minus
/// that execute time, and the Phase-2 call of every Everest frame query
/// replayed on the prepared video with a counting oracle (inside the
/// fault and retry wrappers for `WITH FLAKY`).
fn layers(
    mix: &Mix,
    reference: &mut Offline,
    traced: &[Vec<Sample>],
    acc: &mut Acc,
    out: &mut Outcome,
) {
    const REPS: usize = 5;
    let settings = settings();
    let mut exec_us = Vec::new();
    for (i, text) in mix.statements.iter().enumerate() {
        let t = Instant::now();
        let plan = crate::plan_select(text, &settings);
        acc.add("evql.frontend_us", since(t) * 1e6);
        let mut walls = Vec::new();
        for _ in 0..REPS {
            let t = Instant::now();
            let _ = reference.session.execute(text);
            walls.push(since(t) * 1e6);
        }
        exec_us.push(median(&walls));
        if plan.engine != Engine::Everest || plan.n_items() != plan.n_frames {
            continue;
        }
        let (entry, _) = reference
            .session
            .shared_cache()
            .get_or_build(&cache_key(&plan), || {
                panic!("offline replay prepared {text}")
            });
        let flaky = plan
            .flaky_seed
            .map(|s| RetryingOracle::new(FlakyOracle::new(entry.oracle.clone(), s)));
        let inner: &dyn Oracle = match &flaky {
            Some(f) => f,
            None => &entry.oracle,
        };
        let oracle = CountingOracle::new(inner);
        let t = Instant::now();
        let report = entry
            .prepared
            .query_topk(&oracle, plan.k, plan.thres, &cleaner_for(&plan));
        acc.add("core.phase2_s", since(t));
        acc.add("core.select_s", report.clock.component(component::SELECT));
        acc.add("core.iterations", report.iterations as f64);
        acc.add("core.cleaned_frac", report.pct_cleaned());
        acc.add("models.oracle_calls", oracle.calls() as f64);
        acc.add("models.oracle_frames", oracle.frames() as f64);
        acc.add("models.oracle_s", oracle.busy_s());
        if Some(report.cleaned) != reference.stats[i].cleaned
            || Some(report.confidence) != reference.stats[i].confidence
        {
            out.fail(format!(
                "serve_mixed traced `{text}`: replayed answer differs"
            ));
        }
    }
    for s in traced.iter().flatten() {
        if let Req::Query(i) = s.req {
            acc.add("serve.overhead_us", s.rtt_us - exec_us[i]);
        }
        if let Some(b) = s.bytes {
            acc.add("serve.bytes_per_answer", b as f64);
        }
    }
}
