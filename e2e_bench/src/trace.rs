//! Tracing from outside the engine: decorators that count and time the
//! calls into the `video` and `models` layers, and a step-by-step replica
//! of Phase 1 that times the calls into `video`, `nn` and `core` one by
//! one. Spans inside the engine do not exist yet, so every span here
//! wraps a public function of a runtime crate.

use everest_core::budget::QueryBudget;
use everest_core::cleaner::CleanerConfig;
use everest_core::dist::DiscreteDist;
use everest_core::phase1::{render_inputs, score_frames, Phase1Config, Phase1Output};
use everest_core::pipeline::{Everest, PreparedVideo};
use everest_core::sim::{component, SimClock, CMDN_INFER_COST, CMDN_TRAIN_COST, DIFF_COST};
use everest_core::xtuple::UncertainRelation;
use everest_evql::exec::PreparedEntry;
use everest_evql::shared::CacheKey;
use everest_evql::QueryPlan;
use everest_models::{Oracle, OracleError};
use everest_nn::cmdn::CmdnConfig;
use everest_nn::train::{grid_search, HyperGrid, Sample, TrainConfig};
use everest_video::diff::DifferenceDetector;
use everest_video::frame::Frame;
use everest_video::store::DecodeCostModel;
use everest_video::VideoStore;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A `VideoStore` decorator: counts rendered frames and sums the
/// thread-seconds spent rendering them (renders run on worker threads).
pub struct CountingVideo<'a> {
    inner: &'a dyn VideoStore,
    frames: AtomicU64,
    nanos: AtomicU64,
}

impl<'a> CountingVideo<'a> {
    pub fn new(inner: &'a dyn VideoStore) -> Self {
        CountingVideo {
            inner,
            frames: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    pub fn render_s(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl VideoStore for CountingVideo<'_> {
    fn num_frames(&self) -> usize {
        self.inner.num_frames()
    }

    fn frame(&self, idx: usize) -> Frame {
        let t = Instant::now();
        let f = self.inner.frame(idx);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.frames.fetch_add(1, Ordering::Relaxed);
        f
    }

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn height(&self) -> usize {
        self.inner.height()
    }

    fn fps(&self) -> f64 {
        self.inner.fps()
    }
}

/// An `Oracle` decorator: counts batches and frames and sums the wall
/// time spent inside the wrapped oracle.
pub struct CountingOracle<'a> {
    inner: &'a dyn Oracle,
    calls: AtomicU64,
    frames: AtomicU64,
    nanos: AtomicU64,
}

impl<'a> CountingOracle<'a> {
    pub fn new(inner: &'a dyn Oracle) -> Self {
        CountingOracle {
            inner,
            calls: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    pub fn busy_s(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    fn count<T>(&self, n: usize, call: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = call();
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.frames.fetch_add(n as u64, Ordering::Relaxed);
        out
    }
}

impl Oracle for CountingOracle<'_> {
    fn score_batch(&self, frames: &[usize]) -> Vec<f64> {
        self.count(frames.len(), || self.inner.score_batch(frames))
    }

    fn try_score_batch(&self, frames: &[usize]) -> Result<Vec<f64>, OracleError> {
        self.count(frames.len(), || self.inner.try_score_batch(frames))
    }

    fn cost_per_frame(&self) -> f64 {
        self.inner.cost_per_frame()
    }

    fn sim_overhead_seconds(&self) -> f64 {
        self.inner.sim_overhead_seconds()
    }

    fn num_frames(&self) -> usize {
        self.inner.num_frames()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Copy of the private EVQL Phase-1 recipe (`exec::phase1_recipe`). The
/// traced path checks its answers against the untraced `Session`, so a
/// drift between this copy and the engine fails the traced run.
pub fn phase1_recipe(quant_step: f64, seed: u64) -> Phase1Config {
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    Phase1Config {
        sample_frac: 0.04,
        sample_cap: 800,
        sample_min: 200,
        grid: HyperGrid::single(3, 16),
        train: TrainConfig {
            epochs: 6,
            ..TrainConfig::default()
        },
        conv_channels: vec![6, 12],
        quant_step,
        seed: seed.wrapping_add(0xE7E57),
        threads,
        ..Phase1Config::default()
    }
}

/// The cleaner settings `Session` derives from a plan (no cancel token).
pub fn cleaner_for(plan: &QueryPlan) -> CleanerConfig {
    CleanerConfig {
        k: plan.k,
        thres: plan.thres,
        batch_size: plan.batch,
        resort_period: plan.resort_period,
        max_cleanings: None,
        budget: QueryBudget {
            max_oracle_calls: plan.max_oracle_calls,
            deadline_sim_seconds: plan.deadline,
            cancel: None,
        },
    }
}

/// The `SharedCache` key `Session` files a plan's Phase-1 work under.
pub fn cache_key(plan: &QueryPlan) -> CacheKey {
    CacheKey {
        source: plan.source.name.to_ascii_lowercase(),
        score: plan.score.display(),
        scale: plan.scale_divisor,
        seed: plan.seed,
        step_bits: plan.quant_step.to_bits(),
    }
}

/// A cache entry for `plan`, prepared the way `Session` prepares it.
pub fn prepare_entry(plan: &QueryPlan) -> PreparedEntry {
    let built = plan.source.build(plan.score, plan.scale_divisor, plan.seed);
    let prepared = Everest::prepare(
        built.video.as_ref(),
        &built.oracle,
        &phase1_recipe(plan.quant_step, plan.seed),
    );
    PreparedEntry {
        prepared,
        oracle: built.oracle,
    }
}

/// Wall seconds of each Phase-1 step of the traced replica. Every step is
/// one call (or one short loop of calls) into a single layer, and the
/// steps run back to back, so their sum is the replica's Phase-1 time.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phase1Spans {
    /// `DifferenceDetector::run` (video).
    pub diff_s: f64,
    /// Oracle labelling of the training sample (models).
    pub label_s: f64,
    /// `render_inputs` for the training and hold-out sets (video).
    pub sample_render_s: f64,
    /// `grid_search` (nn).
    pub train_s: f64,
    /// `score_frames` over the retained frames (nn, rendering inside).
    pub score_s: f64,
    /// Bucket grid and `D0` population (core).
    pub populate_s: f64,
    pub epochs: usize,
    pub retained: usize,
    pub frames: usize,
}

impl Phase1Spans {
    pub fn total(&self) -> f64 {
        self.diff_s
            + self.label_s
            + self.sample_render_s
            + self.train_s
            + self.score_s
            + self.populate_s
    }
}

/// `cmdn_input_dims` from `everest_core::phase1` (private there).
fn cmdn_input_dims(video: &dyn VideoStore, depth: usize) -> (usize, usize) {
    let div = 1usize << depth;
    let (h, w) = (video.height(), video.width());
    if h % div == 0 && w % div == 0 {
        (h, w)
    } else {
        (32, 32)
    }
}

/// `Everest::prepare`, step by step: the body of `run_phase1` with a span
/// around each call into a layer. Must produce the same `PreparedVideo`.
pub fn traced_prepare(
    video: &dyn VideoStore,
    oracle: &dyn Oracle,
    cfg: &Phase1Config,
) -> (PreparedVideo, Phase1Spans) {
    let mut spans = Phase1Spans::default();
    let started = Instant::now();
    let mut clock = SimClock::new();
    let n = video.num_frames();
    let decode = DecodeCostModel::default();

    let t = Instant::now();
    let segments = DifferenceDetector::new(cfg.diff).run(video);
    spans.diff_s = since(t);
    clock.charge(
        component::POPULATE,
        n as f64 * DIFF_COST + decode.sequential_scan_cost(n),
    );
    let retained = segments.retained().to_vec();
    assert!(
        !retained.is_empty(),
        "difference detector retained no frames"
    );

    let t = Instant::now();
    let m_target = ((cfg.sample_frac * n as f64).ceil() as usize)
        .clamp(cfg.sample_min.max(16), cfg.sample_cap.max(cfg.sample_min));
    let h_target = ((m_target as f64 * cfg.holdout_frac).ceil() as usize).max(32);
    let mut positions: Vec<usize> = (0..retained.len()).collect();
    const SAMPLE_SALT: u64 = 0x5a4d_71e5;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ SAMPLE_SALT);
    positions.shuffle(&mut rng);
    let m = m_target.min(positions.len().saturating_sub(1)).max(1);
    let h = h_target.min(positions.len() - m);
    let train_pos = &positions[..m];
    let holdout_pos = &positions[m..m + h];
    let labelled_pos: Vec<usize> = train_pos.iter().chain(holdout_pos).copied().collect();
    let labelled_frames: Vec<usize> = labelled_pos.iter().map(|&p| retained[p]).collect();
    let labels = oracle.score_batch(&labelled_frames);
    clock.charge(
        component::LABEL,
        labelled_frames.len() as f64 * oracle.cost_per_frame()
            + decode.trace_cost(&labelled_frames),
    );
    let labeled: BTreeMap<usize, f64> = labelled_pos
        .iter()
        .copied()
        .zip(labels.iter().copied())
        .collect();
    let max_labeled_score = labels.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min_labeled_score = labels.iter().cloned().fold(f64::INFINITY, f64::min);
    spans.label_s = since(t);

    let t = Instant::now();
    let input_hw = cmdn_input_dims(video, cfg.conv_channels.len());
    let make_samples = |pos: &[usize]| -> Vec<Sample> {
        let frames: Vec<usize> = pos.iter().map(|&p| retained[p]).collect();
        let inputs = render_inputs(video, &frames, input_hw, cfg.threads);
        inputs
            .into_iter()
            .zip(pos.iter().map(|p| labeled[p]))
            .collect()
    };
    let train_set = make_samples(train_pos);
    let holdout_set = make_samples(holdout_pos);
    spans.sample_render_s = since(t);

    let t = Instant::now();
    let base = CmdnConfig {
        input: input_hw,
        conv_channels: cfg.conv_channels.clone(),
        hidden: 32,
        num_gaussians: 5,
        sigma_min: cfg.sigma_min,
        target_range: (
            min_labeled_score,
            max_labeled_score.max(min_labeled_score + 1.0),
        ),
        seed: cfg.seed,
    };
    let outcome = grid_search(&cfg.grid, &base, &cfg.train, &train_set, &holdout_set);
    clock.charge(
        component::TRAIN,
        outcome.total_epochs as f64 * train_set.len() as f64 * CMDN_TRAIN_COST,
    );
    let model = outcome.best.model.clone();
    spans.train_s = since(t);
    spans.epochs = outcome.total_epochs;

    let t = Instant::now();
    let mixtures = score_frames(video, &model, &retained, cfg.threads);
    clock.charge(
        component::POPULATE,
        retained.len() as f64 * CMDN_INFER_COST + decode.trace_cost(&retained),
    );
    spans.score_s = since(t);

    let t = Instant::now();
    let mix_max = mixtures
        .iter()
        .map(|m| m.truncated_range().1)
        .fold(0.0f64, f64::max);
    let needed = (max_labeled_score.max(mix_max) / cfg.quant_step).ceil() as usize + 2;
    let max_bucket = needed.clamp(4, cfg.max_bucket_cap);
    let mut relation = UncertainRelation::new(cfg.quant_step, max_bucket);
    for (pos, mixture) in mixtures.iter().enumerate() {
        match labeled.get(&pos) {
            Some(&score) => {
                let b = relation.score_to_bucket(score);
                relation.push_certain(b);
            }
            None => {
                let masses = mixture.quantize(cfg.quant_step, max_bucket);
                relation.push_uncertain(DiscreteDist::from_masses(&masses));
            }
        }
    }
    spans.populate_s = since(t);
    spans.retained = retained.len();
    spans.frames = n;

    let phase1 = Phase1Output {
        relation,
        segments,
        mixtures,
        labeled,
        grid_results: outcome.evaluated,
        model,
        clock,
        wall: started.elapsed(),
        max_labeled_score,
    };
    (PreparedVideo::from_parts(phase1, n), spans)
}
