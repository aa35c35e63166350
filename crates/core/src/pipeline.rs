//! The end-to-end Everest engine: Phase 1 + Phase 2 with full cost
//! accounting (Figure 1).
//!
//! [`Everest::prepare`] runs Phase 1 once per (video, scoring function);
//! the returned [`PreparedVideo`] then serves any number of frame-level or
//! window queries, each re-running Phase 2 on a fresh copy of `D0` (the
//! paper re-runs both phases per query; reusing Phase 1 across a parameter
//! sweep only removes redundant identical work — each query's reported
//! time still includes the full Phase-1 charge).

use crate::budget::Termination;
use crate::cleaner::{run_cleaner, CleanerConfig, CleaningOracle, RetainedFrameOracle};
use crate::phase1::{run_phase1, Phase1Config, Phase1Output};
use crate::sim::{component, SimClock};
use crate::window::{build_window_relation, tumbling_windows, WindowCleaningOracle, WindowInfo};
use everest_models::Oracle;
use everest_video::store::DecodeCostModel;
use everest_video::VideoStore;

/// The Everest engine entry point.
pub struct Everest;

impl Everest {
    /// Phase 1: builds the initial uncertain relation and proxy model.
    pub fn prepare(
        video: &dyn VideoStore,
        oracle: &dyn Oracle,
        cfg: &Phase1Config,
    ) -> PreparedVideo {
        let phase1 = run_phase1(video, oracle, cfg);
        PreparedVideo {
            phase1,
            n_frames: video.num_frames(),
        }
    }
}

/// Phase-1 artifacts bound to one video + scoring function.
#[derive(Debug, Clone)]
pub struct PreparedVideo {
    pub phase1: Phase1Output,
    n_frames: usize,
}

/// One returned Top-K item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultItem {
    /// Frame index (frame queries) or window start frame (window queries).
    pub frame: usize,
    /// Window frame range (frame queries report a 1-frame range).
    pub range: (usize, usize),
    /// Oracle-confirmed score (window queries: sampled mean).
    pub score: f64,
}

/// Full report of one query.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// The Top-K answer, best first. Every item is oracle-confirmed
    /// (certain-result condition).
    pub items: Vec<ResultItem>,
    /// `Pr(R̂ = R)` under possible-world semantics at termination.
    pub confidence: f64,
    /// Whether the confidence threshold was met.
    pub converged: bool,
    /// Why Phase 2 stopped (converged, or a degraded exit: budget,
    /// deadline, cancellation, oracle failure).
    pub termination: Termination,
    /// Simulated-time breakdown (Phase 1 + Phase 2), Table 8 style.
    pub clock: SimClock,
    /// Phase-2 iterations (select → clean rounds).
    pub iterations: usize,
    /// Items cleaned in Phase 2.
    pub cleaned: usize,
    /// Total items in the uncertain relation.
    pub total_items: usize,
    /// Oracle frames consumed by Phase-2 confirmation.
    pub oracle_frames: usize,
}

impl QueryReport {
    /// Fraction of items cleaned during Phase 2 (Table 8b).
    pub fn pct_cleaned(&self) -> f64 {
        if self.total_items == 0 {
            0.0
        } else {
            self.cleaned as f64 / self.total_items as f64
        }
    }

    /// Total simulated end-to-end latency, seconds.
    pub fn sim_seconds(&self) -> f64 {
        self.clock.total()
    }

    /// Answer frame ids (or window start frames).
    pub fn frames(&self) -> Vec<usize> {
        self.items.iter().map(|i| i.frame).collect()
    }
}

impl PreparedVideo {
    /// Rebuilds a prepared video from persisted Phase-1 artifacts (see
    /// `crate::ingest`). The caller vouches that `phase1` was produced for
    /// a video of `n_frames` frames.
    pub fn from_parts(phase1: Phase1Output, n_frames: usize) -> Self {
        PreparedVideo { phase1, n_frames }
    }

    /// Number of frames of the underlying video.
    pub fn n_frames(&self) -> usize {
        self.n_frames
    }

    /// Runs a frame-level Top-K query (Phase 2).
    pub fn query_topk(
        &self,
        oracle: &dyn Oracle,
        k: usize,
        thres: f64,
        cleaner: &CleanerConfig,
    ) -> QueryReport {
        self.query(oracle, k, thres, None, cleaner)
    }

    /// Runs a Top-K window query (§3.4): tumbling windows of `window_len`
    /// frames, confirmed by sampling `sample_frac` of each window's frames.
    pub fn query_topk_windows(
        &self,
        oracle: &dyn Oracle,
        k: usize,
        thres: f64,
        window_len: usize,
        sample_frac: f64,
        cleaner: &CleanerConfig,
    ) -> QueryReport {
        let windows = tumbling_windows(self.n_frames, window_len);
        self.query(oracle, k, thres, Some((windows, sample_frac)), cleaner)
    }

    /// Runs a Top-K query over *sliding* windows of `window_len` frames
    /// hopping by `slide` — the sliding extension of §3.4 (see
    /// [`crate::window::sliding_windows`] for the independence caveat when
    /// `slide < window_len`).
    pub fn query_topk_sliding_windows(
        &self,
        oracle: &dyn Oracle,
        k: usize,
        thres: f64,
        window_len: usize,
        slide: usize,
        sample_frac: f64,
        cleaner: &CleanerConfig,
    ) -> QueryReport {
        let windows = crate::window::sliding_windows(self.n_frames, window_len, slide);
        self.query(oracle, k, thres, Some((windows, sample_frac)), cleaner)
    }

    /// The one query body. Ranks retained frames, or with `windows` the
    /// given windows confirmed by sampling a fraction of their frames;
    /// runs Phase 2 and charges its cost to the Phase-1 clock: `CONFIRM` is
    /// the oracle adapter's spend plus the kind's decode term.
    fn query(
        &self,
        oracle: &dyn Oracle,
        k: usize,
        thres: f64,
        windows: Option<(Vec<WindowInfo>, f64)>,
        cleaner: &CleanerConfig,
    ) -> QueryReport {
        let retained = self.phase1.segments.retained();
        let cfg = CleanerConfig {
            k,
            thres,
            ..cleaner.clone()
        };
        let (relation, outcome, frames) = match &windows {
            None => {
                let mut relation = self.phase1.relation.clone();
                let mut frames = RetainedFrameOracle::new(
                    oracle,
                    retained,
                    relation.step(),
                    relation.max_bucket(),
                );
                let outcome = run_cleaner(&mut relation, &mut frames, &cfg);
                (relation, outcome, frames)
            }
            Some((windows, sample_frac)) => {
                // Window scores are means of frame scores: reuse the frame
                // grid but refine the step for sub-integer means.
                let step = self.phase1.relation.step() / 4.0;
                let max_bucket = (self.phase1.relation.max_bucket() * 4 + 4).min(4 * 400);
                let mut relation = build_window_relation(
                    &self.phase1.mixtures,
                    &self.phase1.segments,
                    windows,
                    step,
                    max_bucket,
                );
                let mut sampler = WindowCleaningOracle::new(
                    oracle,
                    windows,
                    *sample_frac,
                    step,
                    max_bucket,
                    self.phase1_seed() ^ WINDOW_SAMPLE_SALT,
                );
                let outcome = run_cleaner(&mut relation, &mut sampler, &cfg);
                (relation, outcome, sampler.into_frames())
            }
        };

        // Frames replay their confirmation trace through the decoder; a
        // window's sampled frames each cost four sequential decodes.
        let decode = DecodeCostModel::default();
        let decode_seconds = match windows {
            None => decode.trace_cost(frames.trace()),
            Some(_) => frames.frames_scored() as f64 * decode.seq_cost * 4.0,
        };
        let mut clock = self.phase1.clock.clone();
        clock.charge(
            component::CONFIRM,
            frames.sim_seconds_spent() + decode_seconds,
        );
        clock.charge(component::SELECT, outcome.select_time.as_secs_f64());

        let items = outcome
            .topk
            .iter()
            .map(|&id| {
                let range = match &windows {
                    None => (retained[id], retained[id] + 1),
                    Some((windows, _)) => (windows[id].start, windows[id].end),
                };
                let bucket = relation.certain_bucket(id).expect("answer is certain");
                ResultItem {
                    frame: range.0,
                    range,
                    score: relation.bucket_to_score(bucket),
                }
            })
            .collect();
        QueryReport {
            items,
            confidence: outcome.confidence,
            converged: outcome.converged,
            termination: outcome.termination,
            clock,
            iterations: outcome.iterations,
            cleaned: outcome.cleaned,
            total_items: relation.len(),
            oracle_frames: frames.frames_scored(),
        }
    }

    /// The tumbling windows a window query of this length would use.
    pub fn windows(&self, window_len: usize) -> Vec<WindowInfo> {
        tumbling_windows(self.n_frames, window_len)
    }

    fn phase1_seed(&self) -> u64 {
        // derive a stable seed from phase-1 size characteristics
        (self.phase1.relation.len() as u64) << 20 | self.n_frames as u64
    }
}

const WINDOW_SAMPLE_SALT: u64 = 0x81D_7005;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{evaluate_topk, GroundTruth};
    use crate::phase1::Phase1Config;
    use everest_models::{
        counting_oracle, ExactScoreOracle, FlakyOracle, InstrumentedOracle, RetryingOracle,
    };
    use everest_nn::train::TrainConfig;
    use everest_nn::HyperGrid;
    use everest_video::arrival::{ArrivalConfig, Timeline};
    use everest_video::scene::{SceneConfig, SyntheticVideo};

    fn tiny_setup() -> (SyntheticVideo, ExactScoreOracle) {
        let tl = Timeline::generate(
            &ArrivalConfig {
                n_frames: 1_500,
                ..ArrivalConfig::default()
            },
            29,
        );
        let v = SyntheticVideo::new(SceneConfig::default(), tl, 29, 30.0);
        let o = counting_oracle(&v);
        (v, o)
    }

    fn fast_phase1() -> Phase1Config {
        Phase1Config {
            sample_frac: 0.1,
            sample_cap: 150,
            sample_min: 32,
            grid: HyperGrid::single(3, 16),
            train: TrainConfig {
                epochs: 8,
                batch_size: 32,
                ..TrainConfig::default()
            },
            conv_channels: vec![6, 12],
            threads: 4,
            ..Phase1Config::default()
        }
    }

    #[test]
    fn end_to_end_frame_query_meets_threshold() {
        let (v, o) = tiny_setup();
        let oracle = InstrumentedOracle::new(o);
        let prepared = Everest::prepare(&v, &oracle, &fast_phase1());
        let report = prepared.query_topk(&oracle, 10, 0.9, &CleanerConfig::default());
        assert!(report.converged);
        assert!(report.confidence >= 0.9);
        assert_eq!(report.items.len(), 10);
        // certain-result condition: every reported score is the exact score
        for item in &report.items {
            let exact = oracle.inner().all_scores()[item.frame];
            assert_eq!(item.score, exact, "frame {}", item.frame);
        }
        // quality against exact ground truth over retained frames
        let retained = prepared.phase1.segments.retained();
        let truth = GroundTruth::new(
            retained
                .iter()
                .map(|&t| oracle.inner().all_scores()[t])
                .collect(),
        );
        let answer_pos: Vec<usize> = report
            .items
            .iter()
            .map(|i| retained.iter().position(|&t| t == i.frame).unwrap())
            .collect();
        let q = evaluate_topk(&truth, &answer_pos, 10);
        assert!(q.precision >= 0.8, "precision {}", q.precision);
    }

    #[test]
    fn sim_clock_includes_all_components() {
        let (v, o) = tiny_setup();
        let oracle = InstrumentedOracle::new(o);
        let prepared = Everest::prepare(&v, &oracle, &fast_phase1());
        let report = prepared.query_topk(&oracle, 5, 0.9, &CleanerConfig::default());
        assert!(report.clock.component(component::LABEL) > 0.0);
        assert!(report.clock.component(component::TRAIN) > 0.0);
        assert!(report.clock.component(component::POPULATE) > 0.0);
        assert!(report.sim_seconds() > 0.0);
        assert!(report.pct_cleaned() <= 1.0);
    }

    #[test]
    fn higher_k_does_not_break() {
        let (v, o) = tiny_setup();
        let oracle = InstrumentedOracle::new(o);
        let prepared = Everest::prepare(&v, &oracle, &fast_phase1());
        for k in [1, 5, 25] {
            let report = prepared.query_topk(&oracle, k, 0.9, &CleanerConfig::default());
            assert_eq!(report.items.len(), k);
            assert!(report.converged, "k={k}");
            // descending scores
            let scores: Vec<f64> = report.items.iter().map(|i| i.score).collect();
            assert!(scores.windows(2).all(|w| w[0] >= w[1]), "k={k}: {scores:?}");
        }
    }

    #[test]
    fn window_query_end_to_end() {
        let (v, o) = tiny_setup();
        let oracle = InstrumentedOracle::new(o);
        let prepared = Everest::prepare(&v, &oracle, &fast_phase1());
        let report =
            prepared.query_topk_windows(&oracle, 5, 0.9, 30, 0.5, &CleanerConfig::default());
        assert!(report.converged);
        assert_eq!(report.items.len(), 5);
        for item in &report.items {
            assert_eq!(
                item.range.1 - item.range.0,
                30.min(item.range.1 - item.range.0)
            );
            assert!(item.range.0 % 30 == 0, "window must start on a boundary");
        }
        // sampled window means should be near the exact window means
        let exact =
            crate::window::exact_window_scores(oracle.inner().all_scores(), &prepared.windows(30));
        for item in &report.items {
            let wid = item.frame / 30;
            assert!(
                (item.score - exact[wid]).abs() <= 2.0,
                "window {wid}: sampled {} vs exact {}",
                item.score,
                exact[wid]
            );
        }
    }

    #[test]
    fn flaky_window_query_charges_fault_overhead_to_confirm() {
        let (v, o) = tiny_setup();
        let prepared = Everest::prepare(&v, &o, &fast_phase1());
        let cfg = CleanerConfig::default();
        let plain = prepared.query_topk_windows(&o, 5, 0.9, 30, 0.5, &cfg);
        let flaky = RetryingOracle::new(FlakyOracle::new(o.clone(), 3));
        let report = prepared.query_topk_windows(&flaky, 5, 0.9, 30, 0.5, &cfg);
        // Retries recover every fault: the same frames are confirmed, and
        // CONFIRM grows by exactly the fault/backoff overhead.
        assert!(flaky.retries() > 0, "seed must inject recoverable faults");
        assert!(report.converged);
        assert_eq!(report.frames(), plain.frames());
        assert_eq!(report.oracle_frames, plain.oracle_frames);
        let extra =
            report.clock.component(component::CONFIRM) - plain.clock.component(component::CONFIRM);
        assert!(flaky.sim_overhead_seconds() > 0.0);
        assert!(
            (extra - flaky.sim_overhead_seconds()).abs() < 1e-9,
            "CONFIRM grew by {extra}, overhead {}",
            flaky.sim_overhead_seconds()
        );
    }

    #[test]
    fn queries_are_reusable_and_deterministic() {
        let (v, o) = tiny_setup();
        let oracle = InstrumentedOracle::new(o);
        let prepared = Everest::prepare(&v, &oracle, &fast_phase1());
        let a = prepared.query_topk(&oracle, 5, 0.9, &CleanerConfig::default());
        let b = prepared.query_topk(&oracle, 5, 0.9, &CleanerConfig::default());
        assert_eq!(a.frames(), b.frames());
        assert_eq!(a.confidence, b.confidence);
        assert_eq!(a.cleaned, b.cleaned);
    }
}
