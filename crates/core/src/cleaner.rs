//! Phase 2: Top-K processing via online, oracle-in-the-loop uncertain data
//! cleaning (§3.3, Figure 1 right).
//!
//! Starting from the Phase-1 uncertain relation, the cleaner repeatedly
//! (i) extracts the Top-K of the *certain* subset (certain-result
//! condition), (ii) evaluates its confidence `p̂` with `Topk-prob`, and
//! (iii) if `p̂ < thres`, asks `Select-candidate` for the most promising
//! batch of uncertain items and confirms their exact scores with the
//! oracle. Termination is guaranteed: cleaning strictly shrinks the
//! uncertain set and a fully-certain relation has confidence 1.
//!
//! [`clean`] is that loop, written once. Every Phase-2 query kind plugs a
//! [`CleaningPolicy`] into it — batch Top-K ([`run_cleaner`]), a stream
//! emit ([`crate::stream`]) and the skyline ([`crate::skyline`]) — and the
//! driver alone applies the stop rule and the [`QueryBudget`] gate.

use crate::budget::{QueryBudget, Termination};
use crate::select::{CandidateSelector, SelectStats};
use crate::topkprob::{topk_prob, JointCdf};
use crate::xtuple::{score_to_bucket, ItemId, UncertainRelation};
use everest_models::{Oracle, OracleError};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Resolves items' exact labels by running the expensive oracle: a score
/// bucket for Top-K (`L = u32`), a bucket vector for skylines.
///
/// Frame-level queries clean one frame per item; window queries sample a
/// fraction of the window's frames (§3.4). Implementations track their own
/// oracle-invocation counts for cost accounting.
pub trait CleaningOracle<L = u32> {
    /// Exact labels for `items`, in order. A failed batch confirms
    /// nothing; the driver ends the run as [`Termination::OracleDown`].
    fn clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<L>, OracleError>;

    /// Simulated seconds this oracle has consumed so far (scoring cost
    /// plus fault/backoff overhead). The driver's deadline check reads
    /// this between batches. Default: not accounted (deadlines never
    /// fire).
    fn sim_seconds_spent(&self) -> f64 {
        0.0
    }
}

/// A `CleaningOracle` backed by a closure (used by tests and simple setups).
pub struct FnCleaningOracle<F: FnMut(ItemId) -> u32>(pub F);

impl<F: FnMut(ItemId) -> u32> CleaningOracle for FnCleaningOracle<F> {
    fn clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<u32>, OracleError> {
        Ok(items.iter().map(|&i| (self.0)(i)).collect())
    }
}

/// The Phase-2 oracle adapter over retained frames: item `i` is the video
/// frame `retained[i]`, confirmed by one deep-oracle call and quantized
/// onto the relation's grid by [`score_to_bucket`].
///
/// It traces the frames it scores and reports
/// [`CleaningOracle::sim_seconds_spent`] as frames × `cost_per_frame` plus
/// the fault/backoff overhead the oracle added since the adapter was
/// built. Frame queries and streams confirm through it, window queries
/// sample their frames through it (`window::WindowCleaningOracle`), and a
/// skyline zips one adapter per dimension. `O` may be owned or borrowed
/// (`&dyn Oracle` is an oracle).
pub struct RetainedFrameOracle<'r, O> {
    oracle: O,
    retained: Cow<'r, [usize]>,
    step: f64,
    max_bucket: usize,
    trace: Vec<usize>,
    /// Oracle overhead already accumulated when the adapter was built.
    overhead0: f64,
}

impl<'r, O: Oracle> RetainedFrameOracle<'r, O> {
    /// An adapter confirming `retained` frames through `oracle` onto the
    /// grid of `max_bucket + 1` buckets of width `step`.
    pub fn new(
        oracle: O,
        retained: impl Into<Cow<'r, [usize]>>,
        step: f64,
        max_bucket: usize,
    ) -> Self {
        RetainedFrameOracle {
            overhead0: oracle.sim_overhead_seconds(),
            oracle,
            retained: retained.into(),
            step,
            max_bucket,
            trace: Vec::new(),
        }
    }

    /// The oracle confirmations score through.
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    /// The video frame of each item id.
    pub fn retained(&self) -> &[usize] {
        &self.retained
    }

    /// Video frames scored so far, in scoring order.
    pub fn trace(&self) -> &[usize] {
        &self.trace
    }

    /// Video frames sent to the deep oracle so far.
    pub fn frames_scored(&self) -> usize {
        self.trace.len()
    }

    /// Charges `frames`, just scored through [`Self::oracle`], to this
    /// adapter's spend and trace.
    pub(crate) fn record(&mut self, frames: &[usize]) {
        self.trace.extend_from_slice(frames);
    }

    /// `score` quantized onto the adapter's grid.
    pub(crate) fn bucket(&self, score: f64) -> u32 {
        score_to_bucket(score, self.step, self.max_bucket)
    }
}

impl<O: Oracle> CleaningOracle for RetainedFrameOracle<'_, O> {
    fn clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<u32>, OracleError> {
        let frames: Vec<usize> = items.iter().map(|&i| self.retained[i]).collect();
        let scores = self.oracle.try_score_batch(&frames)?;
        self.record(&frames);
        Ok(scores.into_iter().map(|s| self.bucket(s)).collect())
    }

    fn sim_seconds_spent(&self) -> f64 {
        self.frames_scored() as f64 * self.oracle.cost_per_frame()
            + (self.oracle.sim_overhead_seconds() - self.overhead0)
    }
}

/// A skyline's oracle: one adapter per dimension over the same retained
/// frames, zipped into one bucket vector per item.
impl<O: Oracle> CleaningOracle<Vec<u32>> for Vec<RetainedFrameOracle<'_, O>> {
    fn clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<Vec<u32>>, OracleError> {
        let per_dim: Vec<Vec<u32>> = self
            .iter_mut()
            .map(|dim| dim.clean_batch(items))
            .collect::<Result<_, _>>()?;
        Ok((0..items.len())
            .map(|i| per_dim.iter().map(|buckets| buckets[i]).collect())
            .collect())
    }

    /// One detector pass yields every dimension's score, so a frame is
    /// charged once, at the costliest dimension's rate.
    fn sim_seconds_spent(&self) -> f64 {
        self.iter()
            .map(|dim| dim.sim_seconds_spent())
            .fold(0.0, f64::max)
    }
}

/// The answer state one Phase-2 run cleans. The policy scores the current
/// certain answer and picks what to confirm next; [`clean`] owns the loop,
/// the stop rule and the budget gate.
pub trait CleaningPolicy<L = u32> {
    /// `p̂` of the current certain answer, or `None` while no
    /// certain-result answer exists yet (the bootstrap).
    fn confidence(&self) -> Option<f64>;

    /// The next batch to confirm: between 1 and `max` uncertain items.
    /// Only called while the answer is below the threshold.
    fn select(&mut self, max: usize) -> Vec<ItemId>;

    /// Retires the uncertainty of `batch` with the oracle's `labels`.
    fn confirm(&mut self, batch: &[ItemId], labels: Vec<L>);

    /// Oracle calls charged against the query budget's call cap before
    /// this run (a stream's earlier emits). Default: none.
    fn charged(&self) -> usize {
        0
    }
}

/// The Phase-2 driver: select → confirm → re-score until the Eq.-1 stop
/// rule holds or the gate stops the run. Returns why it stopped, the
/// select-confirm iterations run, and the items cleaned.
///
/// Before every batch it checks, in order: the stop rule `p̂ ≥ thres` (an
/// answer that holds is `Converged` whatever else happened), cancellation,
/// the simulated-seconds deadline, then the call cap — the tighter of
/// `cap` and the budget's, less [`CleaningPolicy::charged`], which also
/// clamps the batch. A failed oracle batch ends the run as `OracleDown`.
pub fn clean<L, P: CleaningPolicy<L>>(
    policy: &mut P,
    oracle: &mut dyn CleaningOracle<L>,
    thres: f64,
    budget: &QueryBudget,
    cap: Option<usize>,
) -> (Termination, usize, usize) {
    let charged = policy.charged();
    let mut iterations = 0usize;
    let mut cleaned = 0usize;
    let termination = loop {
        if policy.confidence().is_some_and(|p| p >= thres) {
            break Termination::Converged;
        }
        if budget.is_cancelled() {
            break Termination::Cancelled;
        }
        if budget
            .deadline_sim_seconds
            .is_some_and(|d| oracle.sim_seconds_spent() >= d)
        {
            break Termination::Deadline;
        }
        let calls = budget.max_oracle_calls.map(|m| m.saturating_sub(charged));
        let left = cap
            .into_iter()
            .chain(calls)
            .map(|m| m.saturating_sub(cleaned))
            .min();
        if left == Some(0) {
            break Termination::BudgetExhausted;
        }
        let batch = policy.select(left.unwrap_or(usize::MAX));
        let Ok(labels) = oracle.clean_batch(&batch) else {
            break Termination::OracleDown;
        };
        assert_eq!(labels.len(), batch.len(), "oracle must answer the batch");
        cleaned += batch.len();
        iterations += 1;
        policy.confirm(&batch, labels);
    };
    (termination, iterations, cleaned)
}

/// Certain items ordered by (bucket desc, id asc): the candidate answers
/// of Top-K and of the stream.
pub(crate) type CertainSet = BTreeSet<(Reverse<u32>, ItemId)>;

/// `(S_k, S_p)`: the buckets of the K-th and (K−1)-th certain items (`S_p`
/// is the grid top when K = 1), or `None` while fewer than K are certain.
pub(crate) fn thresholds(certain: &CertainSet, k: usize, top: usize) -> Option<(usize, usize)> {
    let (mut s_k, mut s_p) = (top, top);
    for &(Reverse(b), _) in certain.iter().take(k) {
        (s_p, s_k) = (s_k, b as usize);
    }
    (certain.len() >= k).then_some((s_k, s_p))
}

/// Eq.-2 confidence of the certain Top-K with thresholds `t` (1 once
/// nothing is uncertain), or `None` mid-bootstrap.
pub(crate) fn certain_confidence(h: &JointCdf, t: Option<(usize, usize)>) -> Option<f64> {
    let (s_k, _) = t?;
    Some(if h.members() == 0 {
        1.0
    } else {
        topk_prob(h, s_k)
    })
}

/// Phase-2 configuration.
#[derive(Debug, Clone)]
pub struct CleanerConfig {
    /// Result size K (default 50, the paper's default query).
    pub k: usize,
    /// Probability threshold `thres` (default 0.9).
    pub thres: f64,
    /// Batch-inference size `b` (§3.5; the paper measures b = 8 on their GPU).
    pub batch_size: usize,
    /// ψ re-sort period for the first 100 iterations (§3.3.2; 10).
    pub resort_period: usize,
    /// Optional hard cap on cleanings (diagnostics only; `None` = run to
    /// the guarantee). A cap is enforced strictly — it bounds the
    /// bootstrap too, so a capped run may return *fewer than K* items
    /// (with `converged = false`).
    pub max_cleanings: Option<usize>,
    /// Query-level limits: oracle-call cap, simulated-seconds deadline,
    /// cooperative cancellation. Checked between cleaning batches; the
    /// default is unlimited. A call cap here and `max_cleanings` compose
    /// (the tighter one wins).
    pub budget: QueryBudget,
}

impl Default for CleanerConfig {
    fn default() -> Self {
        CleanerConfig {
            k: 50,
            thres: 0.9,
            batch_size: 8,
            resort_period: 10,
            max_cleanings: None,
            budget: QueryBudget::unlimited(),
        }
    }
}

/// Result of a Phase-2 run.
#[derive(Debug, Clone)]
pub struct CleanOutcome {
    /// The Top-K item ids, ordered by (bucket desc, id asc). All certain.
    pub topk: Vec<ItemId>,
    /// Final confidence `p̂ = Pr(R̂ = R)` under PWS.
    pub confidence: f64,
    /// Select-clean iterations executed.
    pub iterations: usize,
    /// Items cleaned during Phase 2 (excludes items certain on entry).
    pub cleaned: usize,
    /// Whether the confidence target was met (equivalent to
    /// `termination == Termination::Converged`).
    pub converged: bool,
    /// Why the run stopped. Anything but `Converged` marks a *degraded*
    /// answer: still the exact certain Top-K under the posterior, with
    /// its honest achieved confidence.
    pub termination: Termination,
    /// Wall-clock time spent inside `Select-candidate`.
    pub select_time: Duration,
    /// Selector statistics (examined counts, resorts).
    pub select_stats: SelectStats,
}

/// The batch Top-K policy: a highest-mean bootstrap batch up to K certain
/// items, then `Select-candidate` batches of `b`.
struct TopK<'a> {
    rel: &'a mut UncertainRelation,
    h: JointCdf,
    selector: CandidateSelector,
    certain: CertainSet,
    k: usize,
    batch_size: usize,
    select_time: Duration,
}

impl TopK<'_> {
    fn thresholds(&self) -> Option<(usize, usize)> {
        thresholds(&self.certain, self.k, self.rel.max_bucket())
    }
}

impl CleaningPolicy for TopK<'_> {
    fn confidence(&self) -> Option<f64> {
        certain_confidence(&self.h, self.thresholds())
    }

    fn select(&mut self, max: usize) -> Vec<ItemId> {
        let Some((s_k, s_p)) = self.thresholds() else {
            // Bootstrap: the certain-result condition needs ≥ K certain
            // items; confirm the highest-mean uncertain ones.
            let mut by_mean: Vec<ItemId> = self.rel.uncertain_ids();
            by_mean.sort_by(|&a, &b| {
                self.rel
                    .mean_bucket(b)
                    .partial_cmp(&self.rel.mean_bucket(a))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            let need = (self.k - self.certain.len()).min(by_mean.len()).min(max);
            assert!(need > 0, "cannot reach K certain items");
            by_mean.truncate(need);
            return by_mean;
        };
        // lint:allow(det-wallclock): feeds the reported select_time stat
        // only; answer selection never branches on wall time.
        let started = Instant::now();
        let n = self.batch_size.min(self.rel.num_uncertain()).min(max);
        let batch = self.selector.select_batch(self.rel, &self.h, s_k, s_p, n);
        self.select_time += started.elapsed();
        batch
    }

    fn confirm(&mut self, batch: &[ItemId], labels: Vec<u32>) {
        for (&id, b) in batch.iter().zip(labels) {
            let old = self.rel.clean(id, b);
            self.h.remove(&old);
            self.certain.insert((Reverse(b), id));
        }
    }
}

/// Runs Phase 2 to completion (or to a degraded exit; see [`clean`]).
///
/// Panics if the relation has fewer than `k` items.
pub fn run_cleaner(
    rel: &mut UncertainRelation,
    oracle: &mut dyn CleaningOracle,
    cfg: &CleanerConfig,
) -> CleanOutcome {
    assert!(cfg.k >= 1, "K must be at least 1");
    assert!(
        (0.0..=1.0).contains(&cfg.thres),
        "thres must be a probability"
    );
    assert!(cfg.batch_size >= 1);
    assert!(
        rel.len() >= cfg.k,
        "relation has {} items but K = {}",
        rel.len(),
        cfg.k
    );

    let mut policy = TopK {
        h: JointCdf::build(rel),
        selector: CandidateSelector::new(rel, cfg.resort_period),
        certain: (0..rel.len())
            .filter_map(|id| rel.certain_bucket(id).map(|b| (Reverse(b), id)))
            .collect(),
        rel,
        k: cfg.k,
        batch_size: cfg.batch_size,
        select_time: Duration::ZERO,
    };
    let (termination, iterations, cleaned) = clean(
        &mut policy,
        oracle,
        cfg.thres,
        &cfg.budget,
        cfg.max_cleanings,
    );

    // The (possibly degraded) anytime answer from the current posterior:
    // the certain Top-K with its honest achieved confidence — 0 when the
    // run stopped mid-bootstrap, before a certain-result answer existed.
    CleanOutcome {
        topk: policy
            .certain
            .iter()
            .take(cfg.k)
            .map(|&(_, id)| id)
            .collect(),
        confidence: policy.confidence().unwrap_or(0.0),
        iterations,
        cleaned,
        converged: termination == Termination::Converged,
        termination,
        select_time: policy.select_time,
        select_stats: policy.selector.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DiscreteDist;
    use crate::pws::topk_confidence_bruteforce;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a relation whose uncertain distributions are noisy views of
    /// `truth`, plus an oracle that reveals the truth.
    fn noisy_relation(
        truth: &[u32],
        max_bucket: usize,
        certain_seed: usize,
        seed: u64,
    ) -> (UncertainRelation, Vec<u32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rel = UncertainRelation::new(1.0, max_bucket);
        for (i, &t) in truth.iter().enumerate() {
            if i < certain_seed {
                rel.push_certain(t);
            } else {
                // triangular noise around the truth
                let mut masses = vec![0.0; max_bucket + 1];
                for db in -2i64..=2 {
                    let b = (t as i64 + db).clamp(0, max_bucket as i64) as usize;
                    masses[b] += match db.abs() {
                        0 => 0.4,
                        1 => 0.2,
                        _ => 0.1,
                    } * rng.gen_range(0.5..1.5);
                }
                rel.push_uncertain(DiscreteDist::from_masses(&masses));
            }
        }
        (rel, truth.to_vec())
    }

    #[test]
    fn zipped_adapters_confirm_per_dimension_and_charge_each_frame_once() {
        use everest_models::ExactScoreOracle;
        let count = ExactScoreOracle::new("count", vec![0.0, 1.0, 2.0, 3.0, 4.0], 0.1);
        let area = ExactScoreOracle::new("area", vec![10.0, 7.0, 5.0, 3.0, 2.0], 0.3);
        let retained = [0, 2, 4];
        let mut dims = vec![
            RetainedFrameOracle::new(&count, &retained[..], 1.0, 3),
            RetainedFrameOracle::new(&area, &retained[..], 2.0, 4),
        ];
        // item i is frame retained[i]; both grids clamp at their top
        let labels = dims.clean_batch(&[2, 0]).unwrap();
        assert_eq!(labels, vec![vec![3, 1], vec![0, 4]]);
        assert_eq!(dims[0].trace(), &[4, 0]);
        assert!((dims.sim_seconds_spent() - 2.0 * 0.3).abs() < 1e-12);
    }

    #[test]
    fn converges_and_returns_certain_topk() {
        let mut rng = StdRng::seed_from_u64(1);
        let truth: Vec<u32> = (0..200).map(|_| rng.gen_range(0..=10)).collect();
        let (mut rel, t) = noisy_relation(&truth, 10, 20, 2);
        let mut oracle = FnCleaningOracle(|id| t[id]);
        let cfg = CleanerConfig {
            k: 5,
            thres: 0.9,
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert!(out.converged);
        assert!(out.confidence >= 0.9);
        assert_eq!(out.topk.len(), 5);
        // certain-result condition
        for &id in &out.topk {
            assert!(rel.is_certain(id), "answer item {id} is not certain");
        }
        // every answer's exact bucket must be ≥ the threshold bucket
        let buckets: Vec<u32> = out
            .topk
            .iter()
            .map(|&id| rel.certain_bucket(id).unwrap())
            .collect();
        assert!(
            buckets.windows(2).all(|w| w[0] >= w[1]),
            "not sorted: {buckets:?}"
        );
    }

    #[test]
    fn confidence_matches_bruteforce_on_small_relation() {
        let truth: Vec<u32> = vec![3, 1, 4, 0, 2, 4, 1, 3];
        let (mut rel, t) = noisy_relation(&truth, 4, 2, 3);
        let mut oracle = FnCleaningOracle(|id| t[id]);
        let cfg = CleanerConfig {
            k: 2,
            thres: 0.8,
            batch_size: 1,
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        let brute = topk_confidence_bruteforce(&rel, &out.topk, 2).unwrap();
        assert!(
            (out.confidence - brute).abs() < 1e-9,
            "fast {} vs brute {brute}",
            out.confidence
        );
        assert!(out.confidence >= 0.8);
    }

    #[test]
    fn answer_is_correct_when_proxy_is_wrong() {
        // Proxy says item 0 is probably low (but keeps calibrated tail
        // mass) and item 1 is high; truth is reversed. A high threshold
        // must force both to be cleaned, surfacing the true top item.
        // (If the proxy put *zero* mass on the truth, PWS would rightly be
        // confident in the wrong answer — the guarantee is conditional on
        // the proxy's distributions not assigning zero to reality.)
        let mut rel = UncertainRelation::new(1.0, 5);
        let truth: Vec<u32> = vec![5, 0, 1, 1, 2, 2, 3, 1, 0, 0];
        for (i, &t) in truth.iter().enumerate() {
            if i < 2 {
                let masses = if i == 0 {
                    vec![0.70, 0.20, 0.05, 0.03, 0.01, 0.01]
                } else {
                    vec![0.01, 0.01, 0.03, 0.05, 0.30, 0.60]
                };
                rel.push_uncertain(DiscreteDist::from_masses(&masses));
            } else {
                rel.push_certain(t);
            }
        }
        let mut oracle = FnCleaningOracle(|id| truth[id]);
        let cfg = CleanerConfig {
            k: 1,
            thres: 0.99,
            batch_size: 1,
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert!(out.converged);
        // With thres = 0.99 the misleading pair must get cleaned and the
        // true top item (0, bucket 5) must win.
        assert_eq!(out.topk, vec![0]);
        assert_eq!(out.confidence, 1.0);
    }

    #[test]
    fn all_certain_relation_returns_immediately() {
        let mut rel = UncertainRelation::new(1.0, 5);
        for b in [5u32, 3, 4, 1, 0] {
            rel.push_certain(b);
        }
        let mut oracle = FnCleaningOracle(|_| panic!("oracle must not be called"));
        let cfg = CleanerConfig {
            k: 2,
            thres: 0.99,
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert_eq!(out.cleaned, 0);
        assert_eq!(out.confidence, 1.0);
        assert_eq!(out.topk, vec![0, 2]); // buckets 5 and 4
    }

    #[test]
    fn thres_zero_stops_after_bootstrap() {
        let truth: Vec<u32> = (0..50).map(|i| (i % 7) as u32).collect();
        let (mut rel, t) = noisy_relation(&truth, 6, 0, 5);
        let mut oracle = FnCleaningOracle(|id| t[id]);
        let cfg = CleanerConfig {
            k: 3,
            thres: 0.0,
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        // Needs K certain items, then any confidence passes.
        assert_eq!(out.cleaned, 3);
        assert!(out.converged);
    }

    #[test]
    fn max_cleanings_caps_work() {
        let truth: Vec<u32> = (0..300).map(|i| (i % 11) as u32).collect();
        let (mut rel, t) = noisy_relation(&truth, 10, 20, 6);
        let mut oracle = FnCleaningOracle(|id| t[id]);
        let cfg = CleanerConfig {
            k: 5,
            thres: 0.9999,
            max_cleanings: Some(10),
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert!(out.cleaned <= 10 + cfg.batch_size);
        if !out.converged {
            assert!(out.confidence < 0.9999);
        }
    }

    #[test]
    fn higher_threshold_cleans_more() {
        let mut rng = StdRng::seed_from_u64(7);
        let truth: Vec<u32> = (0..400).map(|_| rng.gen_range(0..=12)).collect();
        let run = |thres: f64| {
            let (mut rel, t) = noisy_relation(&truth, 12, 30, 8);
            let mut oracle = FnCleaningOracle(|id| t[id]);
            let cfg = CleanerConfig {
                k: 10,
                thres,
                ..Default::default()
            };
            run_cleaner(&mut rel, &mut oracle, &cfg).cleaned
        };
        let low = run(0.5);
        let high = run(0.99);
        assert!(
            high >= low,
            "thres 0.99 cleaned {high} < thres 0.5 cleaned {low}"
        );
    }

    #[test]
    fn termination_is_converged_on_normal_runs() {
        let truth: Vec<u32> = (0..50).map(|i| (i % 7) as u32).collect();
        let (mut rel, t) = noisy_relation(&truth, 6, 10, 11);
        let mut oracle = FnCleaningOracle(|id| t[id]);
        let out = run_cleaner(
            &mut rel,
            &mut oracle,
            &CleanerConfig {
                k: 3,
                ..Default::default()
            },
        );
        assert_eq!(out.termination, Termination::Converged);
        assert!(out.converged);
        assert!(!out.termination.is_degraded());
    }

    #[test]
    fn query_budget_cap_reports_budget_exhausted() {
        let truth: Vec<u32> = (0..300).map(|i| (i % 11) as u32).collect();
        let (mut rel, t) = noisy_relation(&truth, 10, 20, 12);
        let mut oracle = FnCleaningOracle(|id| t[id]);
        let cfg = CleanerConfig {
            k: 5,
            thres: 0.99999,
            batch_size: 1,
            budget: QueryBudget {
                max_oracle_calls: Some(3),
                ..QueryBudget::unlimited()
            },
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert_eq!(out.termination, Termination::BudgetExhausted);
        assert!(!out.converged);
        assert_eq!(out.cleaned, 3);
        assert_eq!(out.topk.len(), 5, "20 certain items exist on entry");
        assert!(out.confidence < 0.99999);
    }

    #[test]
    fn cancelled_token_stops_before_cleaning() {
        let truth: Vec<u32> = (0..100).map(|i| (i % 9) as u32).collect();
        let (mut rel, t) = noisy_relation(&truth, 8, 10, 13);
        let mut oracle = FnCleaningOracle(|id| t[id]);
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let cfg = CleanerConfig {
            k: 4,
            budget: QueryBudget {
                cancel: Some(token),
                ..QueryBudget::unlimited()
            },
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert_eq!(out.termination, Termination::Cancelled);
        assert_eq!(out.cleaned, 0);
        assert!(!out.converged);
    }

    /// An oracle charging 0.1 simulated seconds per cleaning.
    struct CostedOracle<'a> {
        truth: &'a [u32],
        spent: f64,
    }

    impl CleaningOracle for CostedOracle<'_> {
        fn clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<u32>, OracleError> {
            self.spent += items.len() as f64 * 0.1;
            Ok(items.iter().map(|&i| self.truth[i]).collect())
        }

        fn sim_seconds_spent(&self) -> f64 {
            self.spent
        }
    }

    #[test]
    fn deadline_is_simulated_seconds_not_wall_clock() {
        let truth: Vec<u32> = (0..200).map(|i| (i % 13) as u32).collect();
        let (mut rel, t) = noisy_relation(&truth, 12, 30, 14);
        let mut oracle = CostedOracle {
            truth: &t,
            spent: 0.0,
        };
        let cfg = CleanerConfig {
            k: 5,
            thres: 0.99999,
            batch_size: 1,
            budget: QueryBudget {
                deadline_sim_seconds: Some(0.35),
                ..QueryBudget::unlimited()
            },
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        if out.termination == Termination::Deadline {
            // Checked between batches: at most one batch overshoots.
            assert!(oracle.spent < 0.35 + 0.1 + 1e-9);
            assert!(!out.converged);
        } else {
            assert_eq!(out.termination, Termination::Converged);
        }
    }

    #[test]
    fn converged_answer_wins_over_a_fired_cancel_token() {
        // The stop rule is checked before cancellation: an answer that
        // already holds is reported as converged, not cancelled.
        let mut rel = UncertainRelation::new(1.0, 5);
        for b in [5u32, 3, 4, 1, 0] {
            rel.push_certain(b);
        }
        let mut oracle = FnCleaningOracle(|_| panic!("oracle must not be called"));
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let cfg = CleanerConfig {
            k: 2,
            thres: 0.99,
            budget: QueryBudget {
                cancel: Some(token),
                ..QueryBudget::unlimited()
            },
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert_eq!(out.termination, Termination::Converged);
        assert!(out.converged);
        assert_eq!(out.confidence, 1.0);
        assert_eq!(out.cleaned, 0);
        assert_eq!(out.topk, vec![0, 2]);
    }

    #[test]
    fn batch_that_converges_past_the_deadline_reports_converged() {
        // One certain item and four uncertain ones; a single batch of 8
        // cleans every uncertain item (p̂ = 1) and spends 0.4 simulated
        // seconds, past the 0.1 s deadline. The stop rule wins.
        let mut rel = UncertainRelation::new(1.0, 4);
        rel.push_certain(2);
        for _ in 0..4 {
            rel.push_uncertain(DiscreteDist::from_masses(&[0.2, 0.2, 0.2, 0.2, 0.2]));
        }
        let truth = [2u32, 0, 1, 3, 4];
        let mut oracle = CostedOracle {
            truth: &truth,
            spent: 0.0,
        };
        let cfg = CleanerConfig {
            k: 1,
            thres: 0.9,
            budget: QueryBudget {
                deadline_sim_seconds: Some(0.1),
                ..QueryBudget::unlimited()
            },
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert!(oracle.spent >= 0.1, "the batch crossed the deadline");
        assert_eq!(out.termination, Termination::Converged);
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.cleaned, 4);
        assert_eq!(out.confidence, 1.0);
        assert_eq!(out.topk, vec![4]);
    }

    /// An oracle that dies after `live` successful batches.
    struct DyingOracle<'a> {
        truth: &'a [u32],
        live: usize,
    }

    impl CleaningOracle for DyingOracle<'_> {
        fn clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<u32>, OracleError> {
            if self.live == 0 {
                return Err(OracleError::Transient("oracle died"));
            }
            self.live -= 1;
            Ok(items.iter().map(|&i| self.truth[i]).collect())
        }
    }

    #[test]
    fn oracle_failure_degrades_to_oracle_down() {
        let truth: Vec<u32> = (0..200).map(|i| (i % 13) as u32).collect();
        let (mut rel, t) = noisy_relation(&truth, 12, 30, 15);
        let mut oracle = DyingOracle { truth: &t, live: 2 };
        let cfg = CleanerConfig {
            k: 5,
            thres: 0.99999,
            batch_size: 1,
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        assert_eq!(out.termination, Termination::OracleDown);
        assert!(!out.converged);
        assert_eq!(out.cleaned, 2);
        assert_eq!(out.topk.len(), 5);
        // The degraded answer is still entirely certain.
        for &id in &out.topk {
            assert!(rel.is_certain(id));
        }
    }

    #[test]
    fn degraded_confidence_matches_posterior_recomputation() {
        // The degradation contract: a degraded answer's reported
        // confidence equals Eq.-1 `topk_confidence` recomputed from the
        // relation's returned posterior state.
        use crate::semantics_dp::topk_confidence;
        let truth: Vec<u32> = (0..150).map(|i| (i * 7 % 13) as u32).collect();
        for cap in [0usize, 1, 3, 8, 40] {
            let (mut rel, t) = noisy_relation(&truth, 12, 10, 16);
            let mut oracle = FnCleaningOracle(|id| t[id]);
            let cfg = CleanerConfig {
                k: 6,
                thres: 0.99999,
                batch_size: 3,
                budget: QueryBudget {
                    max_oracle_calls: Some(cap),
                    ..QueryBudget::unlimited()
                },
                ..Default::default()
            };
            let out = run_cleaner(&mut rel, &mut oracle, &cfg);
            let recomputed = topk_confidence(&rel, &out.topk, 6);
            assert!(
                (out.confidence - recomputed).abs() < 1e-9,
                "cap {cap}: reported {} vs recomputed {recomputed}",
                out.confidence
            );
        }
    }

    /// A fallible test oracle: fails call `i` whenever the seeded hash
    /// says so (a deterministic fault schedule), charges 0.05 simulated
    /// seconds per confirmed item.
    struct SeededFlakyCleaner<'a> {
        truth: &'a [u32],
        seed: u64,
        calls: u64,
        spent: f64,
    }

    impl CleaningOracle for SeededFlakyCleaner<'_> {
        fn clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<u32>, OracleError> {
            let idx = self.calls;
            self.calls += 1;
            let mut z = self
                .seed
                .wrapping_add(idx.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^= z >> 27;
            if z % 100 < 15 {
                return Err(OracleError::Transient("injected"));
            }
            self.spent += items.len() as f64 * 0.05;
            Ok(items.iter().map(|&i| self.truth[i]).collect())
        }

        fn sim_seconds_spent(&self) -> f64 {
            self.spent
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The degradation contract under *random* budgets and fault
        /// schedules: whatever stopped the run (cap, deadline, a fault),
        /// the reported confidence equals Eq.-1 `topk_confidence`
        /// recomputed from the relation's returned posterior, and the
        /// answer is entirely certain.
        #[test]
        fn degraded_answers_honor_the_posterior(
            cap in 0usize..40,
            deadline_steps in 0u32..30,
            fault_seed in 0u64..1_000,
            data_seed in 0u64..1_000,
        ) {
            use crate::semantics_dp::topk_confidence;
            let truth: Vec<u32> = (0..120)
                .map(|i: u64| ((i.wrapping_mul(data_seed + 7)) % 13) as u32)
                .collect();
            let (mut rel, t) = noisy_relation(&truth, 12, 8, data_seed);
            let mut oracle = SeededFlakyCleaner {
                truth: &t,
                seed: fault_seed,
                calls: 0,
                spent: 0.0,
            };
            let cfg = CleanerConfig {
                k: 5,
                thres: 0.999,
                batch_size: 2,
                budget: QueryBudget {
                    max_oracle_calls: Some(cap),
                    deadline_sim_seconds: Some(deadline_steps as f64 * 0.05),
                    ..QueryBudget::unlimited()
                },
                ..Default::default()
            };
            let out = run_cleaner(&mut rel, &mut oracle, &cfg);
            for &id in &out.topk {
                proptest::prop_assert!(rel.is_certain(id));
            }
            let recomputed = topk_confidence(&rel, &out.topk, 5);
            proptest::prop_assert!(
                (out.confidence - recomputed).abs() < 1e-9,
                "termination {:?}: reported {} vs recomputed {}",
                out.termination, out.confidence, recomputed
            );
            proptest::prop_assert_eq!(
                out.converged,
                out.termination == Termination::Converged
            );
        }
    }

    /// A skyline oracle that reveals the truth and fires `token` once it
    /// has answered `cancel_after` batches (a client leaving mid-query).
    struct CancellingSkyOracle {
        truth: Vec<Vec<u32>>,
        token: crate::budget::CancelToken,
        cancel_after: usize,
        batches: usize,
    }

    impl CleaningOracle<Vec<u32>> for CancellingSkyOracle {
        fn clean_batch(&mut self, items: &[ItemId]) -> Result<Vec<Vec<u32>>, OracleError> {
            self.batches += 1;
            if self.batches >= self.cancel_after {
                self.token.cancel();
            }
            Ok(items.iter().map(|&i| self.truth[i].clone()).collect())
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The degradation contract for skylines: under a random call cap
        /// and a random cancel point (0 = cancelled before the first
        /// batch), every answer row is certain and the reported confidence
        /// equals `skyline_state` recomputed from the returned relation.
        #[test]
        fn degraded_skylines_honor_the_posterior(
            cap in 0usize..40,
            cancel_after in 0usize..12,
            batch_size in 1usize..5,
            data_seed in 0u64..1_000,
        ) {
            use crate::skyline::{run_skyline_cleaner, skyline_state, SkylineConfig, VectorRelation};
            let max_b = 8usize;
            let mut rng = StdRng::seed_from_u64(data_seed);
            let mut rel = VectorRelation::new(vec![max_b, max_b]);
            let mut truth = Vec::new();
            for i in 0..40 {
                let v: Vec<u32> = (0..2).map(|_| rng.gen_range(0..=max_b as u32)).collect();
                if i % 10 == 0 {
                    rel.push_certain(&v);
                } else {
                    let dists = v
                        .iter()
                        .map(|&t| {
                            let mut masses = vec![0.0; max_b + 1];
                            for db in -2i64..=2 {
                                let b = (t as i64 + db).clamp(0, max_b as i64) as usize;
                                masses[b] += rng.gen_range(0.5..1.5) / (1 + db.abs()) as f64;
                            }
                            DiscreteDist::from_masses(&masses)
                        })
                        .collect();
                    rel.push_uncertain(dists);
                }
                truth.push(v);
            }
            let token = crate::budget::CancelToken::new();
            if cancel_after == 0 {
                token.cancel();
            }
            let mut oracle = CancellingSkyOracle {
                truth,
                token: token.clone(),
                cancel_after,
                batches: 0,
            };
            let cfg = SkylineConfig {
                thres: 0.99,
                batch_size,
                budget: QueryBudget {
                    max_oracle_calls: Some(cap),
                    cancel: Some(token),
                    ..QueryBudget::unlimited()
                },
            };
            let out = run_skyline_cleaner(&mut rel, &mut oracle, &cfg);
            for &id in &out.skyline {
                proptest::prop_assert!(rel.is_certain(id));
            }
            let state = skyline_state(&rel);
            proptest::prop_assert!(
                (out.confidence - state.confidence).abs() < 1e-9,
                "termination {:?}: reported {} vs recomputed {}",
                out.termination, out.confidence, state.confidence
            );
            let mut got = out.skyline.clone();
            got.sort_unstable();
            let mut expect = state.skyline;
            expect.sort_unstable();
            proptest::prop_assert_eq!(got, expect);
            proptest::prop_assert!(out.cleaned <= cap);
            proptest::prop_assert_eq!(
                out.converged,
                out.termination == Termination::Converged
            );
        }
    }

    #[test]
    #[should_panic(expected = "relation has")]
    fn too_small_relation_panics() {
        let mut rel = UncertainRelation::new(1.0, 2);
        rel.push_certain(1);
        let mut oracle = FnCleaningOracle(|_| 0);
        let _ = run_cleaner(&mut rel, &mut oracle, &CleanerConfig::default());
    }

    #[test]
    fn exact_result_matches_ground_truth_topk_scores() {
        // With thres close to 1 the returned set's scores must match the
        // true Top-K scores (sets may differ under ties).
        let mut rng = StdRng::seed_from_u64(9);
        let truth: Vec<u32> = (0..250).map(|_| rng.gen_range(0..=15)).collect();
        let (mut rel, t) = noisy_relation(&truth, 15, 25, 10);
        let t2 = t.clone();
        let mut oracle = FnCleaningOracle(|id| t2[id]);
        let cfg = CleanerConfig {
            k: 8,
            thres: 0.99,
            ..Default::default()
        };
        let out = run_cleaner(&mut rel, &mut oracle, &cfg);
        let mut expect: Vec<u32> = t.clone();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        let got: Vec<u32> = out
            .topk
            .iter()
            .map(|&id| rel.certain_bucket(id).unwrap())
            .collect();
        // allow the bottom item to differ by ties only when confidence < 1
        for (g, e) in got.iter().zip(expect.iter()) {
            assert!(
                g >= e || out.confidence < 1.0,
                "top scores diverge: got {got:?}, expect {:?}",
                &expect[..8]
            );
        }
    }
}
