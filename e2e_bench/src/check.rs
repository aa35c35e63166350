//! The correctness gate: checks every answer the benchmark receives.

use crate::report::Outcome;
use everest_core::xtuple::UncertainRelation;
use everest_evql::{Output, QueryOutput, SkylineOutput, StreamOutput};
use std::collections::BTreeMap;

/// FNV-1a 64 over bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// splitmix64: the benchmark's only source of seeded choices.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher-Yates shuffle driven by splitmix64.
pub fn shuffle<T>(items: &mut [T], rng: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix64(rng) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Deterministic counts of one statement; repetitions must match exactly.
pub struct Ledger {
    seen: BTreeMap<usize, Vec<u64>>,
}

impl Ledger {
    pub fn new() -> Self {
        Ledger {
            seen: BTreeMap::new(),
        }
    }

    /// Records statement `idx`'s counts, failing the run if an earlier
    /// repetition of the same statement recorded different ones.
    pub fn record(&mut self, idx: usize, counts: Vec<u64>, what: &str, out: &mut Outcome) {
        match self.seen.get(&idx) {
            Some(prev) if *prev != counts => out.fail(format!(
                "{what}: deterministic counts changed across repetitions: {prev:?} then {counts:?}"
            )),
            Some(_) => {}
            None => {
                self.seen.insert(idx, counts);
            }
        }
    }

    pub fn repeated(&self, idx: usize) -> bool {
        self.seen.contains_key(&idx)
    }
}

/// The certain-result condition for one returned frame: its score is the
/// oracle's exact score. A score the relation's bucket grid cannot hold
/// (the grid clamps at its top bucket) fails too, and is also counted in
/// `Outcome::clamped`.
fn check_score(
    frame: usize,
    score: f64,
    exact: f64,
    rel: &UncertainRelation,
    what: &str,
    out: &mut Outcome,
) {
    if score == exact {
        return;
    }
    let on_grid = rel.bucket_to_score(rel.score_to_bucket(exact));
    if on_grid != exact {
        out.clamped += 1;
    }
    out.fail(format!(
        "{what}: frame {frame} returned score {score} but the oracle says {exact} \
         ({on_grid} on the bucket grid)"
    ));
}

/// Checks a `SELECT TOP` answer of the Everest engine: frame scores are
/// the oracle's (the certain-result condition) and a converged answer
/// holds K rows at confidence ≥ thres. `rel` is the prepared relation.
pub fn check_rows(
    q: &QueryOutput,
    exact: &[f64],
    rel: &UncertainRelation,
    what: &str,
    out: &mut Outcome,
) {
    for row in &q.rows {
        if row.end_frame - row.start_frame == 1 {
            check_score(
                row.start_frame,
                row.score,
                exact[row.start_frame],
                rel,
                what,
                out,
            );
        }
    }
    let k = q.plan.k.min(q.stats.n_items);
    if q.stats.converged == Some(true) {
        let conf = q.stats.confidence.unwrap_or(0.0);
        if conf < q.plan.thres || q.rows.len() != k {
            out.fail(format!(
                "{what}: converged with confidence {conf} (thres {}) and {} rows (K {k})",
                q.plan.thres,
                q.rows.len()
            ));
        }
    }
}

/// Checks a continuous answer: every emitted Top-K item carries the
/// oracle's exact score, and converged emits reach the
/// threshold.
pub fn check_stream(
    s: &StreamOutput,
    exact: &[f64],
    rel: &UncertainRelation,
    what: &str,
    out: &mut Outcome,
) {
    for a in &s.answers {
        for &(id, bucket) in &a.topk {
            let frame = s.video_frame(id);
            check_score(
                frame,
                rel.bucket_to_score(bucket),
                exact[frame],
                rel,
                what,
                out,
            );
        }
        if a.converged && a.confidence < s.plan.thres {
            out.fail(format!(
                "{what}: emit @{} converged at confidence {}",
                a.at_frame, a.confidence
            ));
        }
    }
}

/// Checks a skyline answer: scores are exact per dimension, no returned
/// frame dominates another on the dimensions' bucket grids (the skyline
/// runs on quantized scores), and a converged answer reaches the
/// threshold.
pub fn check_skyline(
    s: &SkylineOutput,
    exact: &[&[f64]],
    rels: &[&UncertainRelation],
    what: &str,
    out: &mut Outcome,
) {
    for row in &s.rows {
        for (j, &v) in row.scores.iter().enumerate() {
            if v != exact[j][row.frame] {
                out.fail(format!(
                    "{what}: frame {} dimension {j} scored {v}, oracle says {}",
                    row.frame, exact[j][row.frame]
                ));
            }
        }
    }
    let buckets: Vec<Vec<u32>> = s
        .rows
        .iter()
        .map(|r| {
            r.scores
                .iter()
                .zip(rels)
                .map(|(&v, rel)| rel.score_to_bucket(v))
                .collect()
        })
        .collect();
    let dominates = |a: &[u32], b: &[u32]| {
        a.iter().zip(b).all(|(x, y)| x >= y) && a.iter().zip(b).any(|(x, y)| x > y)
    };
    for (a, ba) in s.rows.iter().zip(&buckets) {
        for (b, bb) in s.rows.iter().zip(&buckets) {
            if dominates(ba, bb) {
                out.fail(format!(
                    "{what}: skyline frame {} dominates frame {}",
                    a.frame, b.frame
                ));
            }
        }
    }
    if s.stats.converged == Some(true) && s.stats.confidence.unwrap_or(0.0) < s.plan.thres {
        out.fail(format!("{what}: skyline converged below its threshold"));
    }
}

/// Checks any answer against the exact scores of its source(s) and the
/// prepared relations they were ranked on, one per score.
pub fn check_output(
    output: &Output,
    exact: &[&[f64]],
    rels: &[&UncertainRelation],
    what: &str,
    out: &mut Outcome,
) {
    match output {
        Output::Rows(q) => check_rows(q, exact[0], rels[0], what, out),
        Output::Stream(s) => check_stream(s, exact[0], rels[0], what, out),
        Output::Skyline(s) => check_skyline(s, exact, rels, what, out),
        Output::Message(m) => out.fail(format!("{what}: expected an answer, got message {m:?}")),
    }
}
