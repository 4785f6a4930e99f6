//! Transparent timing wrappers around the public extension points.
//!
//! * [`TracedBackend`] forwards *every* [`QuantumBackend`] method to a
//!   [`StatevectorBackend`], including the provided `run_state` and
//!   `adjoint_gradient_batch`, so the measured path is the real one and
//!   not a default trait body. Its adjoint wraps the caller's `obs_for`
//!   closure, which splits decoder time out of adjoint time.
//! * [`TimedOptimizer`] forwards every [`Optimizer`] method and stamps
//!   each step.
//! * [`TimedStep`] forwards every [`TrainStep`] method and times epochs
//!   and evaluations.
//!
//! The step, epoch and evaluation clocks run in every mode (they cost a
//! few clock reads per optimiser step); spans are recorded only when
//! [`crate::trace`] is enabled.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use qugeo::train::{EpochReport, TrainStep};
use qugeo::QuGeoError;
use qugeo_nn::optim::Optimizer;
use qugeo_nn::NnError;
use qugeo_qsim::adjoint::ObsForMember;
use qugeo_qsim::{
    AdjointWorkspace, BackendConfig, BatchedState, Circuit, CompiledCircuit, DiagonalObservable,
    QsimError, QuantumBackend, State, StatevectorBackend,
};

use crate::trace;

/// The exact statevector engine behind spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct TracedBackend {
    inner: StatevectorBackend,
}

impl TracedBackend {
    /// Wraps a statevector backend with the given configuration.
    pub fn with_config(config: BackendConfig) -> Self {
        Self {
            inner: StatevectorBackend::with_config(config),
        }
    }
}

fn members(batch: &BatchedState) -> u32 {
    u32::try_from(batch.batch_len()).unwrap_or(u32::MAX)
}

impl QuantumBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn config(&self) -> &BackendConfig {
        self.inner.config()
    }

    fn supports_adjoint_gradient(&self) -> bool {
        self.inner.supports_adjoint_gradient()
    }

    fn is_deterministic(&self) -> bool {
        self.inner.is_deterministic()
    }

    fn run_batch(
        &self,
        circuit: &CompiledCircuit,
        batch: &mut BatchedState,
    ) -> Result<(), QsimError> {
        let _s = trace::engine_span("qsim.forward", 0, members(batch));
        self.inner.run_batch(circuit, batch)
    }

    fn run_each(
        &self,
        circuits: &[CompiledCircuit],
        batch: &mut BatchedState,
    ) -> Result<(), QsimError> {
        let _s = trace::engine_span("qsim.forward", 0, members(batch));
        self.inner.run_each(circuits, batch)
    }

    fn expectations(
        &self,
        batch: &BatchedState,
        obs: &DiagonalObservable,
    ) -> Result<Vec<f64>, QsimError> {
        let _s = trace::engine_span("qsim.measure", 0, 0);
        self.inner.expectations(batch, obs)
    }

    fn probabilities(&self, batch: &BatchedState) -> Result<Vec<Vec<f64>>, QsimError> {
        let _s = trace::engine_span("qsim.measure", 0, 0);
        self.inner.probabilities(batch)
    }

    fn run_state(&self, circuit: &CompiledCircuit, input: &State) -> Result<State, QsimError> {
        let _s = trace::engine_span("qsim.forward", 0, 1);
        self.inner.run_state(circuit, input)
    }

    fn adjoint_gradient_batch(
        &self,
        circuit: &Circuit,
        params: &[f64],
        inputs: &BatchedState,
        obs_for: &mut ObsForMember<'_>,
        ws: &mut AdjointWorkspace,
    ) -> Result<(), QsimError> {
        let qubits = u32::try_from(inputs.num_qubits()).unwrap_or(u32::MAX);
        let _s = trace::engine_span("qsim.adjoint", qubits, members(inputs));
        let mut timed = |b: usize, probs: &[f64]| {
            let _d = trace::span("decoder.loss");
            obs_for(b, probs)
        };
        self.inner
            .adjoint_gradient_batch(circuit, params, inputs, &mut timed, ws)
    }
}

/// Step, epoch and evaluation times of one training run, in seconds.
#[derive(Debug, Default)]
pub struct Clock {
    last: Option<Instant>,
    /// Time from the previous step (or the epoch's start) to the end of
    /// each optimiser step: one training step's latency.
    pub steps: Vec<f64>,
    /// `run_epoch` durations.
    pub epochs: Vec<f64>,
    /// `evaluate` durations.
    pub evals: Vec<f64>,
}

/// A clock shared by a [`TimedStep`] and its [`TimedOptimizer`].
pub type SharedClock = Rc<RefCell<Clock>>;

/// An optimiser that stamps every step.
pub struct TimedOptimizer<O> {
    inner: O,
    clock: SharedClock,
}

impl<O: Optimizer> TimedOptimizer<O> {
    /// Wraps `inner`, reporting steps to `clock`.
    pub fn new(inner: O, clock: SharedClock) -> Self {
        Self { inner, clock }
    }
}

impl<O: Optimizer> Optimizer for TimedOptimizer<O> {
    fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        {
            let _s = trace::span("nn.optim");
            self.inner.step(params, grad);
        }
        let now = Instant::now();
        let mut c = self.clock.borrow_mut();
        if let Some(last) = c.last {
            c.steps.push((now - last).as_secs_f64());
        }
        c.last = Some(now);
    }

    fn learning_rate(&self) -> f64 {
        self.inner.learning_rate()
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.inner.set_learning_rate(lr)
    }

    fn steps(&self) -> u64 {
        self.inner.steps()
    }

    fn state(&self) -> Vec<f64> {
        self.inner.state()
    }

    fn load_state(&mut self, state: &[f64]) -> Result<(), NnError> {
        self.inner.load_state(state)
    }
}

/// A training strategy whose epochs and evaluations are timed.
pub struct TimedStep<S> {
    inner: S,
    clock: SharedClock,
}

impl<S: TrainStep> TimedStep<S> {
    /// Wraps `inner`, reporting to `clock`.
    pub fn new(inner: S, clock: SharedClock) -> Self {
        Self { inner, clock }
    }
}

impl<S: TrainStep> TrainStep for TimedStep<S> {
    fn num_train_samples(&self) -> usize {
        self.inner.num_train_samples()
    }

    fn init_params(&self, seed: u64) -> Vec<f64> {
        self.inner.init_params(seed)
    }

    fn run_epoch(
        &mut self,
        order: &[usize],
        params: &mut [f64],
        optimizer: &mut dyn Optimizer,
    ) -> Result<EpochReport, QuGeoError> {
        let _s = trace::span("train.epoch");
        let start = Instant::now();
        self.clock.borrow_mut().last = Some(start);
        let report = self.inner.run_epoch(order, params, optimizer);
        let mut c = self.clock.borrow_mut();
        c.epochs.push(start.elapsed().as_secs_f64());
        c.last = None;
        report
    }

    fn evaluate(&mut self, params: &[f64]) -> Result<(f64, f64), QuGeoError> {
        let _s = trace::span("train.eval");
        let start = Instant::now();
        let result = self.inner.evaluate(params);
        self.clock
            .borrow_mut()
            .evals
            .push(start.elapsed().as_secs_f64());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qugeo::model::{QuGeoVqc, VqcConfig};
    use qugeo::train::{PerSampleVqc, QuBatchVqc, TrainConfig, Trainer};
    use qugeo_geodata::scaling::ScaledSample;
    use qugeo_nn::optim::Adam;
    use qugeo_qsim::ansatz::{u3_cu3_ansatz, AnsatzConfig, EntangleOrder};
    use qugeo_tensor::Array2;

    fn tiny_circuit() -> Circuit {
        u3_cu3_ansatz(AnsatzConfig {
            num_qubits: 3,
            num_blocks: 2,
            entangle: EntangleOrder::Ring,
        })
        .expect("tiny ansatz")
    }

    fn tiny_batch() -> BatchedState {
        let states: Vec<State> = (0..3)
            .map(|k| {
                let amps: Vec<f64> = (0..8).map(|i| ((i + k) as f64 * 0.7).sin() + 0.3).collect();
                State::from_real_normalized(&amps).expect("encodable")
            })
            .collect();
        BatchedState::from_states(&states).expect("same width")
    }

    #[test]
    fn traced_backend_forwards_every_method_bit_identically() {
        trace::enable(true);
        let plain = StatevectorBackend::with_config(BackendConfig::with_threads(1));
        let traced = TracedBackend::with_config(BackendConfig::with_threads(1));
        assert_eq!(traced.name(), plain.name());
        assert_eq!(traced.config(), plain.config());
        assert_eq!(
            traced.supports_adjoint_gradient(),
            plain.supports_adjoint_gradient()
        );
        assert_eq!(traced.is_deterministic(), plain.is_deterministic());

        let circuit = tiny_circuit();
        let params: Vec<f64> = (0..circuit.num_slots()).map(|i| i as f64 * 0.05).collect();
        let compiled = circuit.compile(&params).expect("compiles");

        let (mut a, mut b) = (tiny_batch(), tiny_batch());
        plain.run_batch(&compiled, &mut a).unwrap();
        traced.run_batch(&compiled, &mut b).unwrap();
        assert_eq!(
            plain.probabilities(&a).unwrap(),
            traced.probabilities(&b).unwrap()
        );
        let obs = DiagonalObservable::from_diagonal((0..8).map(|i| i as f64).collect()).unwrap();
        assert_eq!(
            plain.expectations(&a, &obs).unwrap(),
            traced.expectations(&b, &obs).unwrap()
        );

        let each = vec![compiled.clone(), compiled.clone(), compiled.clone()];
        let (mut a, mut b) = (tiny_batch(), tiny_batch());
        plain.run_each(&each, &mut a).unwrap();
        traced.run_each(&each, &mut b).unwrap();
        assert_eq!(
            plain.probabilities(&a).unwrap(),
            traced.probabilities(&b).unwrap()
        );

        let input = tiny_batch().member(1).unwrap();
        assert_eq!(
            plain.run_state(&compiled, &input).unwrap().probabilities(),
            traced.run_state(&compiled, &input).unwrap().probabilities()
        );

        let inputs = tiny_batch();
        let (mut wa, mut wb) = (AdjointWorkspace::new(), AdjointWorkspace::new());
        let mut calls = (0, 0);
        let mut obs_a = |_: usize, p: &[f64]| {
            calls.0 += 1;
            DiagonalObservable::from_diagonal(p.iter().map(|x| x * 2.0).collect())
        };
        plain
            .adjoint_gradient_batch(&circuit, &params, &inputs, &mut obs_a, &mut wa)
            .unwrap();
        let mut obs_b = |_: usize, p: &[f64]| {
            calls.1 += 1;
            DiagonalObservable::from_diagonal(p.iter().map(|x| x * 2.0).collect())
        };
        traced
            .adjoint_gradient_batch(&circuit, &params, &inputs, &mut obs_b, &mut wb)
            .unwrap();
        assert_eq!(calls, (3, 3));
        for m in 0..3 {
            assert_eq!(wa.grad(m), wb.grad(m));
        }
        assert_eq!(wa.values(), wb.values());
    }

    #[test]
    fn timed_optimizer_forwards_every_method() {
        let clock = SharedClock::default();
        let mut plain = Adam::new(4, 0.1);
        let mut timed = TimedOptimizer::new(Adam::new(4, 0.1), clock.clone());
        let (mut pa, mut pb) = (vec![0.5; 4], vec![0.5; 4]);
        for k in 0..3 {
            let g: Vec<f64> = (0..4).map(|i| (i + k) as f64 * 0.1 - 0.2).collect();
            plain.step(&mut pa, &g);
            timed.step(&mut pb, &g);
        }
        assert_eq!(pa, pb);
        assert_eq!(timed.steps(), plain.steps());
        plain.set_learning_rate(0.03);
        timed.set_learning_rate(0.03);
        assert_eq!(timed.learning_rate(), plain.learning_rate());
        assert_eq!(timed.state(), plain.state());
        let state = plain.state();
        let mut fresh = TimedOptimizer::new(Adam::new(4, 0.1), clock.clone());
        fresh.load_state(&state).unwrap();
        assert_eq!(fresh.state(), state);
        assert!(fresh.load_state(&[1.0]).is_err());
        // The first step has no predecessor within an epoch: 2 of 3 timed.
        assert_eq!(clock.borrow().steps.len(), 2);
    }

    fn tiny_set(n: usize, offset: usize) -> Vec<ScaledSample> {
        (0..n)
            .map(|k| ScaledSample {
                seismic: (0..256)
                    .map(|i| ((i * (k + offset + 1)) as f64 * 0.013).sin() + 0.1)
                    .collect(),
                velocity: Array2::from_vec(
                    8,
                    8,
                    (0..64)
                        .map(|i| 1500.0 + 40.0 * ((i / 8 + k) % 8) as f64)
                        .collect(),
                )
                .unwrap(),
            })
            .collect()
    }

    #[test]
    fn timed_step_and_traced_backend_leave_training_bit_identical() {
        trace::enable(true);
        let model = QuGeoVqc::new(VqcConfig::paper_layer_wise()).unwrap();
        let (train, test) = (tiny_set(4, 0), tiny_set(2, 9));
        let cfg = TrainConfig {
            epochs: 3,
            initial_lr: 0.1,
            seed: 5,
            eval_every: 1,
        };
        let backend = TracedBackend::default();
        for batch in [1usize, 2] {
            let plain = if batch == 1 {
                Trainer::new(cfg).fit(&mut PerSampleVqc::new(&model, &train, &test).unwrap())
            } else {
                Trainer::new(cfg).fit(&mut QuBatchVqc::new(&model, &train, &test, batch).unwrap())
            }
            .unwrap();
            let clock = SharedClock::default();
            let opt_clock = clock.clone();
            let trainer = Trainer::new(cfg).optimizer(move |n, lr| {
                Box::new(TimedOptimizer::new(Adam::new(n, lr), opt_clock.clone()))
            });
            let wrapped = if batch == 1 {
                let inner = PerSampleVqc::with_backend(&model, &train, &test, &backend).unwrap();
                assert_eq!(TimedStep::new(inner, clock.clone()).num_train_samples(), 4);
                let inner = PerSampleVqc::with_backend(&model, &train, &test, &backend).unwrap();
                let step = TimedStep::new(inner, clock.clone());
                assert_eq!(step.init_params(5), model.init_params(5));
                trainer.fit(&mut { step })
            } else {
                let inner =
                    QuBatchVqc::with_backend(&model, &train, &test, batch, &backend).unwrap();
                trainer.fit(&mut TimedStep::new(inner, clock.clone()))
            }
            .unwrap();
            assert_eq!(plain.params, wrapped.params, "batch {batch}");
            assert_eq!(plain.history, wrapped.history, "batch {batch}");
            assert_eq!(plain.final_ssim, wrapped.final_ssim);
            let c = clock.borrow();
            assert_eq!(c.epochs.len(), 3);
            assert_eq!(c.evals.len(), 4); // every epoch + the final evaluation
            assert_eq!(c.steps.len(), 3 * (4 / batch));
        }
    }
}
