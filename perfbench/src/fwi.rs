//! `fwi_experiment`: the Figure 5 experiment end to end at the paper's
//! geometry (70×70 grid, 1000 steps, 5 sources, 70 receivers).
//!
//! Raw eval and aux samples come from `Dataset::generate` in chunks of
//! [`CHUNK`] samples (sample `i` of a chunk starting at `first` uses seed
//! `base + first + i`, so chunks equal the one-call dataset). Then
//! D-Sample, Q-D-FW, and Q-D-CNN (compressor training + scaling) build the
//! three scaled sets, Q-M-PX trains per-sample on each route, each
//! route's held-out SSIM ends the experiment, and the Q-D-FW model is
//! scored on [`HOLDOUT`] extra maps.
//!
//! The first round runs the whole experiment. Later rounds, until the
//! time budget is spent, repeat the scaling and training stages (with the
//! hold-out scoring) and two synthesis chunks; every repeat must reproduce
//! the first round's outputs bit for bit. Each stage's time is the
//! [`low`] of its repeats (synthesis: of its chunks, times the chunk
//! count).

use std::time::Instant;

use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::pipeline::{
    scale_cnn, scale_d_sample, scale_forward_model, train_cnn_scaler, CnnScalingConfig,
    FwScalingConfig, ScaledDataset,
};
use qugeo::train::{evaluate_vqc_with, TrainConfig};
use qugeo::QuGeoError;
use qugeo_geodata::scaling::{ScaledLayout, ScaledSample};
use qugeo_geodata::{
    Dataset, DatasetConfig, FlatLayerGenerator, Sample, VELOCITY_MAX, VELOCITY_MIN,
};
use qugeo_nn::Model;
use qugeo_qsim::{QuantumBackend, StatevectorBackend};

use crate::common::{self, check_outcome, check_scaled, same_scaled, Ctx, FitUnits, TrainRun};
use crate::report::{Metrics, Ops};
use crate::stats::low;
use crate::trace;
use crate::wrap::TracedBackend;

/// Raw evaluation samples (train + test).
pub const EVAL_SAMPLES: usize = 56;
/// Leading evaluation samples used for training.
pub const TRAIN_SAMPLES: usize = 48;
/// Auxiliary samples for the Q-D-CNN compressor.
pub const AUX_SAMPLES: usize = 4;
/// Samples per synthesis chunk (one per core of a 2-core host).
pub const CHUNK: usize = 2;
/// Compressor training epochs.
pub const CNN_EPOCHS: usize = 20;
/// Q-M-PX training epochs per route.
pub const VQC_EPOCHS: usize = 100;
/// Held-out evaluation interval in epochs.
pub const EVAL_EVERY: usize = 10;
/// Extra held-out velocity maps scored with the Q-D-FW model. Q-D-FW
/// inputs need no raw synthesis, so this set can be large enough for a
/// steady `final_ssim`.
pub const HOLDOUT: usize = 128;
/// Synthesis chunks repeated per later round.
const CHUNKS_PER_ROUND: usize = 2;

/// The Q-D-FW model's hold-out SSIM at [`common::REFERENCE_SEED`].
pub const REFERENCE_SSIM: f64 = 0.468_476_919_293_171_7;

const ROUTES: [&str; 3] = ["D-Sample", "Q-D-FW", "Q-D-CNN"];

fn eval_base(seed: u64) -> u64 {
    seed << 20
}

fn aux_base(seed: u64) -> u64 {
    (seed << 20) + 0xA_0000
}

fn holdout_base(seed: u64) -> u64 {
    (seed << 20) + 0x5_0000
}

/// FDTD cell updates per synthesised sample: nx · nz · nt · sources.
fn cells_per_sample() -> f64 {
    let cfg = DatasetConfig::openfwi_flatvel_a(1, 0).expect("static config");
    (cfg.grid.nx() * cfg.grid.nz() * cfg.grid.nt() * cfg.survey.sources().len()) as f64
}

/// Synthesises samples `first..first + n` of the set based at `base`.
fn synth_chunk(base: u64, first: usize, n: usize) -> Result<Dataset, QuGeoError> {
    let config = DatasetConfig {
        seed: base.wrapping_add(first as u64),
        ..DatasetConfig::openfwi_flatvel_a(n, base)?
    };
    let _s = trace::span_with("geodata.synth", 0, n as u32);
    Ok(Dataset::generate(&config)?)
}

/// Synthesises `n` samples chunk by chunk, recording each chunk's time.
fn synthesize(base: u64, n: usize, times: &mut Vec<f64>) -> Result<Vec<Sample>, QuGeoError> {
    let mut samples = Vec::with_capacity(n);
    for first in (0..n).step_by(CHUNK) {
        let start = Instant::now();
        let chunk = synth_chunk(base, first, CHUNK.min(n - first))?;
        times.push(start.elapsed().as_secs_f64());
        samples.extend_from_slice(chunk.samples());
    }
    Ok(samples)
}

/// Outputs of the scaling and training stages.
struct Stages {
    sets: [ScaledDataset; 3],
    compressor: Vec<f64>,
    runs: Vec<TrainRun>,
    /// D-Sample, Q-D-FW, compressor training, Q-D-CNN scaling, hold-out
    /// scoring.
    times: [f64; 5],
    /// Q-D-FW model's SSIM on the hold-out set.
    holdout_ssim: f64,
}

fn timed<T>(
    name: &'static str,
    count: usize,
    f: impl FnOnce() -> Result<T, QuGeoError>,
) -> Result<(T, f64), QuGeoError> {
    let _s = trace::span_with(name, 0, count as u32);
    let start = Instant::now();
    let out = f()?;
    Ok((out, start.elapsed().as_secs_f64()))
}

fn run_stages(
    eval: &Dataset,
    aux: &Dataset,
    holdout: &[ScaledSample],
    seed: u64,
    backend: &dyn QuantumBackend,
) -> Result<Stages, QuGeoError> {
    let layout = ScaledLayout::paper_default();
    let fw_cfg = FwScalingConfig::default();
    let cnn_cfg = CnnScalingConfig {
        epochs: CNN_EPOCHS,
        initial_lr: 0.01,
        seed: seed ^ 0x5A5A,
    };
    let cnn_steps = aux.len() * layout.num_sources * CNN_EPOCHS;
    let (ds, t_ds) = timed("pipeline.dsample", eval.len(), || {
        scale_d_sample(eval, &layout)
    })?;
    let (fw, t_fw) = timed("pipeline.fw_scale", eval.len(), || {
        scale_forward_model(eval, &layout, &fw_cfg)
    })?;
    let (compressor, t_ct) = timed("pipeline.cnn_train", cnn_steps, || {
        train_cnn_scaler(aux, &layout, &fw_cfg, &cnn_cfg)
    })?;
    let (cnn, t_cs) = timed("pipeline.cnn_scale", eval.len(), || {
        scale_cnn(eval, &compressor, &layout)
    })?;

    let model = QuGeoVqc::new(VqcConfig::paper_pixel_wise())?;
    let config = TrainConfig {
        epochs: VQC_EPOCHS,
        initial_lr: 0.1,
        seed,
        eval_every: EVAL_EVERY,
    };
    let mut runs = Vec::with_capacity(3);
    for set in [&ds, &fw, &cnn] {
        let (train, test) = set.try_split(TRAIN_SAMPLES)?;
        runs.push(common::train(&model, &train, &test, 1, config, backend)?);
    }
    let fw_params = &runs[1].outcome.params;
    let ((_, holdout_ssim), t_ho) = timed("train.eval", holdout.len(), || {
        evaluate_vqc_with(&model, fw_params, holdout, backend)
    })?;
    Ok(Stages {
        sets: [ds, fw, cnn],
        compressor: compressor.params(),
        runs,
        times: [t_ds, t_fw, t_ct, t_cs, t_ho],
        holdout_ssim,
    })
}

/// Unit times gathered over rounds.
#[derive(Default)]
struct Units {
    chunks: Vec<f64>,
    stages: [Vec<f64>; 5],
    fits: [FitUnits; 3],
    step_runs: Vec<Vec<f64>>,
}

impl Units {
    fn add(&mut self, stages: &Stages) {
        for (v, t) in self.stages.iter_mut().zip(stages.times) {
            v.push(t);
        }
        for (r, run) in stages.runs.iter().enumerate() {
            self.fits[r].add(run);
            self.step_runs.push(run.clock.steps.clone());
        }
    }

    /// Estimated experiment time: every stage at its low-order unit time.
    fn time_to_ssim(&self) -> f64 {
        let chunks = (EVAL_SAMPLES.div_ceil(CHUNK) + AUX_SAMPLES.div_ceil(CHUNK)) as f64;
        chunks * low(&self.chunks)
            + self.stages.iter().map(|v| low(v)).sum::<f64>()
            + self.fits.iter().map(FitUnits::run_time).sum::<f64>()
    }
}

/// One full experiment: synthesis, scaling, training, SSIM.
struct Round {
    eval: Dataset,
    aux: Dataset,
    stages: Stages,
    wall: f64,
}

fn full_round(
    seed: u64,
    holdout: &[ScaledSample],
    units: &mut Units,
    backend: &dyn QuantumBackend,
) -> Result<Round, QuGeoError> {
    let start = Instant::now();
    let eval = Dataset::from_samples(synthesize(
        eval_base(seed),
        EVAL_SAMPLES,
        &mut units.chunks,
    )?);
    let aux = Dataset::from_samples(synthesize(aux_base(seed), AUX_SAMPLES, &mut units.chunks)?);
    let stages = run_stages(&eval, &aux, holdout, seed, backend)?;
    let wall = start.elapsed().as_secs_f64();
    units.add(&stages);
    Ok(Round {
        eval,
        aux,
        stages,
        wall,
    })
}

fn check_round(ops: &mut Ops, r: &Round) {
    ops.op(
        r.eval.len() == EVAL_SAMPLES && r.aux.len() == AUX_SAMPLES,
        || "synthesis sample count".into(),
    );
    for (set, label) in r.stages.sets.iter().zip(ROUTES) {
        check_scaled(ops, label, &set.samples);
    }
    ops.op(r.stages.compressor.iter().all(|p| p.is_finite()), || {
        "non-finite compressor".into()
    });
    for (run, label) in r.stages.runs.iter().zip(ROUTES) {
        check_outcome(ops, label, &run.outcome);
    }
}

fn same_stages(a: &Stages, b: &Stages) -> bool {
    a.sets.iter().zip(&b.sets).all(|(x, y)| same_scaled(x, y))
        && a.compressor == b.compressor
        && a.runs
            .iter()
            .zip(&b.runs)
            .all(|(x, y)| x.outcome.params == y.outcome.params)
        && a.holdout_ssim == b.holdout_ssim
}

/// Setup: draws and range-checks every velocity model the experiment
/// will synthesise, and builds the Q-D-FW hold-out set.
pub fn setup(seed: u64) -> Result<Vec<ScaledSample>, QuGeoError> {
    let generator = FlatLayerGenerator::new(70, 70)?;
    for (base, n) in [
        (eval_base(seed), EVAL_SAMPLES),
        (aux_base(seed), AUX_SAMPLES),
    ] {
        for i in 0..n {
            let model = generator.sample(base.wrapping_add(i as u64));
            let (lo, hi) = (model.map().min(), model.map().max());
            if lo < VELOCITY_MIN || hi > VELOCITY_MAX {
                return Err(QuGeoError::Config {
                    reason: format!("velocity model {i} spans {lo}..{hi} m/s, outside FlatVelA"),
                });
            }
        }
    }
    common::fw_scaled_maps(HOLDOUT, holdout_base(seed))
}

/// The untraced run: end-to-end metrics.
pub fn run(
    ctx: Ctx,
    holdout: &[ScaledSample],
    ops: &mut Ops,
    m: &mut Metrics,
) -> Result<(), QuGeoError> {
    check_scaled(ops, "hold-out set", holdout);
    let started = Instant::now();
    let mut units = Units::default();
    let first = full_round(
        ctx.seed,
        holdout,
        &mut units,
        &StatevectorBackend::default(),
    )?;
    check_round(ops, &first);

    let chunk_count = EVAL_SAMPLES.div_ceil(CHUNK);
    let mut rounds = 1;
    while started.elapsed().as_secs_f64() < ctx.seconds {
        for c in 0..CHUNKS_PER_ROUND {
            // Synthesis chunks, cycling through the eval set.
            let k = (rounds * CHUNKS_PER_ROUND + c) % chunk_count;
            let start = Instant::now();
            let chunk = synth_chunk(eval_base(ctx.seed), k * CHUNK, CHUNK)?;
            units.chunks.push(start.elapsed().as_secs_f64());
            ops.op(
                chunk.samples() == &first.eval.samples()[k * CHUNK..(k + 1) * CHUNK],
                || format!("synthesis chunk {k} is not reproducible"),
            );
        }
        let stages = run_stages(
            &first.eval,
            &first.aux,
            holdout,
            ctx.seed,
            &StatevectorBackend::default(),
        )?;
        units.add(&stages);
        ops.op(same_stages(&first.stages, &stages), || {
            format!("round {rounds} differs from round 0")
        });
        rounds += 1;
    }

    let s = first
        .stages
        .runs
        .iter()
        .map(|r| r.outcome.final_ssim)
        .collect::<Vec<_>>();
    let gain = (s[1] - s[0]) / s[0] * 100.0;
    let holdout_ssim = first.stages.holdout_ssim;
    println!(
        "fwi_experiment: {rounds} rounds; test SSIM D-Sample {:.4} Q-D-FW {:.4} Q-D-CNN {:.4}; \
         ssim_gain_pct (Q-D-FW over D-Sample) {gain:+.2}% (paper: +7.4%); Q-D-FW on {HOLDOUT} hold-out maps {holdout_ssim:.4}",
        s[0], s[1], s[2]
    );
    let chunks = (EVAL_SAMPLES.div_ceil(CHUNK) + AUX_SAMPLES.div_ceil(CHUNK)) as f64;
    println!(
        "fwi_experiment: time_to_ssim_s estimate {:.3} s (synthesis {:.3}, D-Sample {:.4}, Q-D-FW {:.3}, \
         compressor {:.3}, Q-D-CNN {:.3}, hold-out {:.4}, training {:.3}); first round raw {:.3} s",
        units.time_to_ssim(),
        chunks * low(&units.chunks),
        low(&units.stages[0]),
        low(&units.stages[1]),
        low(&units.stages[2]),
        low(&units.stages[3]),
        low(&units.stages[4]),
        units.fits.iter().map(FitUnits::run_time).sum::<f64>(),
        first.wall
    );
    common::check_reference(ops, ctx.seed, holdout_ssim, REFERENCE_SSIM);

    m.insert("time_to_ssim_s", units.time_to_ssim());
    m.insert(
        "train_samples_per_s",
        TRAIN_SAMPLES as f64
            / units
                .fits
                .iter()
                .map(|f| low(&f.epochs))
                .fold(f64::INFINITY, f64::min),
    );
    m.insert("final_ssim", holdout_ssim);
    Ok(())
}

/// The traced run: set-up and one round untraced, then both traced.
pub fn run_traced(ops: &mut Ops, ctx: Ctx) -> Result<(Metrics, Vec<trace::Span>), QuGeoError> {
    let holdout = setup(ctx.seed)?;
    let mut plain_units = Units::default();
    let plain = full_round(
        ctx.seed,
        &holdout,
        &mut plain_units,
        &StatevectorBackend::default(),
    )?;
    check_round(ops, &plain);

    let backend = TracedBackend::default();
    let mut traced_units = Units::default();
    trace::enable(true);
    let traced = {
        let _root = trace::span("bench.pass");
        setup(ctx.seed).and_then(|h| full_round(ctx.seed, &h, &mut traced_units, &backend))
    };
    trace::enable(false);
    let traced = traced?;
    let spans = trace::take();
    check_round(ops, &traced);
    ops.op(same_stages(&plain.stages, &traced.stages), || {
        "traced round's parameters differ from the untraced round's".into()
    });

    let mut m = common::layer_metrics(&spans, cells_per_sample());
    // `train_cnn_scaler` re-simulates every aux sample inside its span.
    *m.get_mut("pipeline.fw_sims").expect("declared") += AUX_SAMPLES as f64;
    let (a, b) = (plain_units.time_to_ssim(), traced_units.time_to_ssim());
    m.insert("trace.overhead_pct", 100.0 * (b - a) / a);
    common::insert_step_latency(&mut m, &plain_units.step_runs);
    Ok((m, spans))
}
