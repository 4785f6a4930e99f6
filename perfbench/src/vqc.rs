//! `vqc_train`: Table 1's training. Setup builds a Q-D-FW-scaled set
//! from FlatVelA-style velocity maps (no raw FDTD); the timed part
//! trains Q-M-LY with the paper recipe three times — per-sample (batch 1,
//! 8 qubits) and QuBatch at batch 2 (9 qubits) and 4 (10 qubits) —
//! evaluating every [`EVAL_EVERY`] epochs. The three trainings repeat
//! until the time budget is spent, each repeat bit-identical to the
//! first.

use std::time::Instant;

use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::train::TrainConfig;
use qugeo::QuGeoError;
use qugeo_geodata::scaling::ScaledSample;
use qugeo_qsim::{QuantumBackend, StatevectorBackend};

use crate::common::{self, check_outcome, check_scaled, Ctx, FitUnits, TrainRun};
use crate::report::{Metrics, Ops};
use crate::stats::low;
use crate::trace;
use crate::wrap::TracedBackend;

/// Training samples.
pub const TRAIN_SAMPLES: usize = 64;
/// Held-out samples.
pub const TEST_SAMPLES: usize = 64;
/// Epochs per training.
pub const EPOCHS: usize = 60;
/// Held-out evaluation interval in epochs.
pub const EVAL_EVERY: usize = 10;
/// QuBatch sizes trained, in order.
pub const BATCHES: [usize; 3] = [1, 2, 4];

/// Mean held-out SSIM over the three batch sizes at [`common::REFERENCE_SEED`].
pub const REFERENCE_SSIM: f64 = 0.652_823_397_170_698_6;

/// The prepared inputs.
pub struct Inputs {
    model: QuGeoVqc,
    train: Vec<ScaledSample>,
    test: Vec<ScaledSample>,
}

/// Setup: the Q-D-FW-scaled train and test sets and the Q-M-LY model.
pub fn setup(seed: u64) -> Result<Inputs, QuGeoError> {
    let mut all = common::fw_scaled_maps(TRAIN_SAMPLES + TEST_SAMPLES, seed << 20)?;
    let test = all.split_off(TRAIN_SAMPLES);
    Ok(Inputs {
        model: QuGeoVqc::new(VqcConfig::paper_layer_wise())?,
        train: all,
        test,
    })
}

fn config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        initial_lr: 0.1,
        seed,
        eval_every: EVAL_EVERY,
    }
}

fn train_all(
    inputs: &Inputs,
    seed: u64,
    backend: &dyn QuantumBackend,
) -> Result<Vec<TrainRun>, QuGeoError> {
    BATCHES
        .iter()
        .map(|&b| {
            common::train(
                &inputs.model,
                &inputs.train,
                &inputs.test,
                b,
                config(seed),
                backend,
            )
        })
        .collect()
}

fn check_inputs(ops: &mut Ops, inputs: &Inputs) {
    check_scaled(ops, "train set", &inputs.train);
    check_scaled(ops, "test set", &inputs.test);
}

fn check_runs(ops: &mut Ops, runs: &[TrainRun]) {
    for (run, b) in runs.iter().zip(BATCHES) {
        check_outcome(ops, &format!("batch {b}"), &run.outcome);
    }
}

fn same_params(a: &[TrainRun], b: &[TrainRun]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| x.outcome.params == y.outcome.params)
}

/// Unit times gathered over repeats, per batch size.
#[derive(Default)]
struct Units {
    fits: [FitUnits; 3],
    step_runs: Vec<Vec<f64>>,
}

impl Units {
    fn add(&mut self, runs: &[TrainRun]) {
        for (i, run) in runs.iter().enumerate() {
            self.fits[i].add(run);
            if BATCHES[i] == 1 {
                self.step_runs.push(run.clock.steps.clone());
            }
        }
    }

    fn time_to_ssim(&self) -> f64 {
        self.fits.iter().map(FitUnits::run_time).sum()
    }

    /// Sample-gradients per second: each epoch of every batch size
    /// covers the whole training set.
    fn samples_per_s(&self) -> f64 {
        let epoch_secs: f64 = self.fits.iter().map(|f| low(&f.epochs)).sum();
        (BATCHES.len() * TRAIN_SAMPLES) as f64 / epoch_secs
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: Ctx, inputs: &Inputs, ops: &mut Ops, m: &mut Metrics) -> Result<(), QuGeoError> {
    check_inputs(ops, inputs);
    let started = Instant::now();
    let mut units = Units::default();
    let first = train_all(inputs, ctx.seed, &StatevectorBackend::default())?;
    check_runs(ops, &first);
    units.add(&first);
    let mut repeats = 1;
    while started.elapsed().as_secs_f64() < ctx.seconds {
        let runs = train_all(inputs, ctx.seed, &StatevectorBackend::default())?;
        ops.op(same_params(&first, &runs), || {
            format!("repeat {repeats} differs from the first")
        });
        units.add(&runs);
        repeats += 1;
    }

    let ssim: Vec<f64> = first.iter().map(|r| r.outcome.final_ssim).collect();
    let mean = ssim.iter().sum::<f64>() / ssim.len() as f64;
    println!(
        "vqc_train: {repeats} repeats; held-out SSIM batch 1/2/4 = {:.4} / {:.4} / {:.4} (paper: 0.8926 / 0.8864 / 0.8678)",
        ssim[0], ssim[1], ssim[2]
    );
    common::check_reference(ops, ctx.seed, mean, REFERENCE_SSIM);
    m.insert("time_to_ssim_s", units.time_to_ssim());
    m.insert("train_samples_per_s", units.samples_per_s());
    m.insert("final_ssim", mean);
    Ok(())
}

/// The traced run: setup and the three trainings untraced, then again
/// traced.
pub fn run_traced(ops: &mut Ops, ctx: Ctx) -> Result<(Metrics, Vec<trace::Span>), QuGeoError> {
    let inputs = setup(ctx.seed)?;
    check_inputs(ops, &inputs);
    let plain = train_all(&inputs, ctx.seed, &StatevectorBackend::default())?;
    check_runs(ops, &plain);
    let mut plain_units = Units::default();
    plain_units.add(&plain);

    let backend = TracedBackend::default();
    trace::enable(true);
    let traced = {
        let _root = trace::span("bench.pass");
        setup(ctx.seed).and_then(|i| train_all(&i, ctx.seed, &backend))
    };
    trace::enable(false);
    let traced = traced?;
    let spans = trace::take();
    check_runs(ops, &traced);
    ops.op(same_params(&plain, &traced), || {
        "traced run's parameters differ from the untraced run's".into()
    });
    let mut traced_units = Units::default();
    traced_units.add(&traced);

    let mut m = common::layer_metrics(&spans, 0.0);
    let (a, b) = (plain_units.time_to_ssim(), traced_units.time_to_ssim());
    m.insert("trace.overhead_pct", 100.0 * (b - a) / a);
    common::insert_step_latency(&mut m, &plain_units.step_runs);
    Ok((m, spans))
}
