//! `serve_open`: open-loop, seeded Poisson traffic into `QuServe`.
//!
//! One worker, `CoalesceMode::Batched`, exact statevector. Setup
//! trains two Q-M-LY parameter sets (A and B) on a Q-D-FW-scaled set and
//! precomputes each set's `InferenceSession::predict` answer for every
//! request in the pool. The timed part first scores the held-out pool
//! through the service (closed bursts, parameters A), then offers open
//! loads from one submitting and one collecting thread — visits to a
//! reference rate and an up-down staircase over a fixed ladder of rates
//! that finds the highest rate the server sustains — while the
//! parameters hot-swap between A and B every [`DEPLOY_EVERY_S`]. Every answer must equal one of the two tables bit
//! for bit, the Batched-mode contract. Each request is timed from its
//! scheduled send time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use qugeo::model::{QuGeoVqc, VqcConfig};
use qugeo::pipeline::normalized_target;
use qugeo::serve::{CoalesceMode, PredictHandle, QuServe, ServeConfig, ServeError};
use qugeo::session::InferenceSession;
use qugeo::train::TrainConfig;
use qugeo::QuGeoError;
use qugeo_geodata::scaling::ScaledSample;
use qugeo_metrics::ssim;
use qugeo_qsim::{BackendConfig, QuantumBackend, StatevectorBackend};
use qugeo_tensor::Array2;

use crate::common::{self, check_outcome, check_scaled, Ctx};
use crate::loadgen::{picks, poisson_schedule, tighten_timer_slack};
use crate::report::{Metrics, Ops};
use crate::stats::{low, median, percentile};
use crate::trace;
use crate::wrap::TracedBackend;

/// Spacing of the offered-rate ladder, requests per second.
pub const LADDER_STEP_RPS: f64 = 2e3;
/// Rungs of the ladder: 2k to 200k requests per second, over twice the
/// highest rate one worker sustained on a 2-core host (76k). Fixed, not
/// calibrated to the host: a faster server shows as lower latency at the
/// same rate and as a higher sustained rate. A run whose staircase
/// sustains the top rung fails, because the ladder could no longer show
/// a gain.
pub const LADDER_RUNGS: usize = 100;
/// The rung whose latency is reported as `serve.p50_ms` /
/// `serve.p99_ms` (20k rps); it gets a [`REFERENCE_SHARE`] of the budget.
pub const REFERENCE_RUNG: usize = 9;
/// Share of the time budget spent at the reference rung.
pub const REFERENCE_SHARE: f64 = 0.35;
/// The timed part runs in this many segments, each a reference visit and
/// then a stretch of the staircase; set B is retrained between segments.
pub const SEGMENTS: usize = 3;
/// Length of one staircase visit. Fixed, so what counts as sustained
/// does not depend on `--seconds`; a longer run makes more visits.
pub const VISIT_S: f64 = 0.2;
/// Rungs the staircase climbs per sustained visit until its first
/// unsustained one; one rung after that.
pub const CLIMB_RUNGS: usize = 4;
/// A visit is sustained when the p99 of its median window and of its
/// last window stay under this limit.
pub const P99_LIMIT_MS: f64 = 2.0;
/// Latency percentiles are taken per window of this many consecutive
/// requests (p99 then has 20 requests beyond it).
pub const WINDOW_REQUESTS: usize = 2000;
/// A visit stops submitting once this many times the requests the
/// latency limit lets through are outstanding: a backlog this large is
/// never sustained, and stopping bounds the queue's memory.
pub const ABORT_FACTOR: f64 = 8.0;
/// Interval between parameter hot-swaps.
pub const DEPLOY_EVERY_S: f64 = 0.05;
/// Training samples for the two parameter sets.
pub const TRAIN_SAMPLES: usize = 48;
/// Held-out request pool.
pub const POOL: usize = 128;
/// Training epochs per parameter set.
pub const EPOCHS: usize = 60;

/// Held-out SSIM of parameters A served at [`common::REFERENCE_SEED`].
pub const REFERENCE_SSIM: f64 = 0.673_486_068_135_745_3;

/// Everything setup prepares.
pub struct Prepared {
    serve: QuServe,
    model: QuGeoVqc,
    train: Vec<ScaledSample>,
    pool: Vec<ScaledSample>,
    params: [Vec<f64>; 2],
    tables: [Vec<Array2>; 2],
    seed: u64,
    traced: bool,
    /// Training epoch times of both parameter sets.
    pub epochs: Vec<f64>,
}

/// Trains parameter set `k` (0 = A, 1 = B): Q-M-LY, per-sample, the
/// paper recipe, initialised and shuffled from `seed + k`.
fn train_set(
    model: &QuGeoVqc,
    train: &[ScaledSample],
    pool: &[ScaledSample],
    seed: u64,
    k: u64,
    traced: bool,
) -> Result<common::TrainRun, QuGeoError> {
    let config = TrainConfig {
        epochs: EPOCHS,
        initial_lr: 0.1,
        seed: seed.wrapping_add(k),
        eval_every: 0,
    };
    if traced {
        common::train(model, train, pool, 1, config, &TracedBackend::default())
    } else {
        common::train(
            model,
            train,
            pool,
            1,
            config,
            &StatevectorBackend::default(),
        )
    }
}

impl Prepared {
    /// Retrains parameter set B, as a periodic retrain would, and checks
    /// it reproduces the deployed B bit for bit; returns its epoch times.
    /// Between segments of the timed part, so training is timed at
    /// several points of the run, not only during set-up.
    fn retrain_b(&self, ops: &mut Ops) -> Result<Vec<f64>, QuGeoError> {
        let run = train_set(
            &self.model,
            &self.train,
            &self.pool,
            self.seed,
            1,
            self.traced,
        )?;
        ops.op(run.outcome.params == self.params[1], || {
            "retrained parameter set B differs from the deployed one".into()
        });
        Ok(run.clock.epochs)
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        coalesce: CoalesceMode::Batched,
        queue_depth: 8192,
        ..ServeConfig::default()
    }
}

/// Setup: scaled sets, parameter sets A and B, answer tables, a started
/// and warmed service.
pub fn setup(ctx: Ctx, ops: &mut Ops, traced: bool) -> Result<Prepared, QuGeoError> {
    let mut train = common::fw_scaled_maps(TRAIN_SAMPLES + POOL, ctx.seed << 20)?;
    let pool = train.split_off(TRAIN_SAMPLES);
    check_scaled(ops, "train set", &train);
    check_scaled(ops, "request pool", &pool);
    let model = QuGeoVqc::new(VqcConfig::paper_layer_wise())?;
    let mut epochs = Vec::new();
    let mut params = Vec::new();
    for k in 0..2 {
        let run = train_set(&model, &train, &pool, ctx.seed, k, traced)?;
        check_outcome(ops, &format!("parameter set {k}"), &run.outcome);
        epochs.extend(run.clock.epochs);
        params.push(run.outcome.params);
    }
    let params: [Vec<f64>; 2] = params.try_into().expect("two parameter sets");
    let tables = {
        let _s = trace::span("session.predict_table");
        let table = |p: &[f64]| -> Result<Vec<Array2>, QuGeoError> {
            let mut session = InferenceSession::new(model.clone(), p)?;
            pool.iter().map(|s| session.predict(&s.seismic)).collect()
        };
        [table(&params[0])?, table(&params[1])?]
    };
    let prepared = Prepared {
        serve: start(model.clone(), &params[0], traced)?,
        model,
        train,
        pool,
        seed: ctx.seed,
        traced,
        params,
        tables,
        epochs,
    };
    // Warm-up: every pool request once, checked like the rest.
    check_answers(ops, &prepared, &burst(&prepared));
    Ok(prepared)
}

/// Starts one worker on the exact statevector engine, traced or plain.
fn start(model: QuGeoVqc, params: &[f64], traced: bool) -> Result<QuServe, QuGeoError> {
    fn with<B: QuantumBackend + Copy + 'static>(
        model: QuGeoVqc,
        params: &[f64],
        backend: B,
    ) -> Result<QuServe, ServeError> {
        QuServe::start_with(model, params, serve_config(), move |_| backend)
    }
    let _s = trace::span("serve.start");
    let one = BackendConfig::shared_across(1);
    if traced {
        with(model, params, TracedBackend::with_config(one))
    } else {
        with(model, params, StatevectorBackend::with_config(one))
    }
    .map_err(|e| QuGeoError::Config {
        reason: e.to_string(),
    })
}

/// Submits the whole pool at once and waits for every answer.
fn burst(p: &Prepared) -> Vec<Result<Array2, ServeError>> {
    let handles: Vec<Result<PredictHandle, ServeError>> = p
        .pool
        .iter()
        .map(|s| p.serve.predict(s.seismic.clone()))
        .collect();
    handles
        .into_iter()
        .map(|h| h.and_then(PredictHandle::wait))
        .collect()
}

/// Each answer must equal parameter set A's table entry.
fn check_answers(ops: &mut Ops, p: &Prepared, answers: &[Result<Array2, ServeError>]) {
    for (i, a) in answers.iter().enumerate() {
        ops.op(matches!(a, Ok(m) if *m == p.tables[0][i]), || {
            format!("pool request {i}: answer differs from InferenceSession::predict ({a:?})")
        });
    }
}

/// Closed scoring bursts: the held-out pool through the service, then
/// SSIM against the targets. Returns (burst + SSIM times, SSIM).
fn score(p: &Prepared, ops: &mut Ops, seconds: f64) -> Result<(Vec<f64>, f64), QuGeoError> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut ssim_a = f64::NAN;
    while times.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let span = trace::span("serve.score");
        let prev = span.as_ref().map(|g| trace::set_phase(g.id()));
        let start = Instant::now();
        let answers = burst(p);
        let mut total = 0.0;
        {
            let _s = trace::span("metrics.ssim");
            for (a, s) in answers.iter().zip(&p.pool) {
                if let Ok(map) = a {
                    total += ssim(map, &normalized_target(s)).map_err(QuGeoError::from)?;
                }
            }
        }
        times.push(start.elapsed().as_secs_f64());
        check_answers(ops, p, &answers);
        ssim_a = total / p.pool.len() as f64;
        if let Some(prev) = prev {
            trace::set_phase(prev);
        }
    }
    Ok((times, ssim_a))
}

/// The offered rate of ladder rung `rung`.
pub fn ladder_rps(rung: usize) -> f64 {
    LADDER_STEP_RPS * (rung + 1) as f64
}

/// Requests the latency limit lets through at `rate`: a backlog larger
/// than this makes the newest request wait past the limit.
fn drainable(rate: f64) -> usize {
    (rate * P99_LIMIT_MS / 1e3).ceil() as usize
}

/// One visit to a rung of the ladder.
#[derive(Debug, Default)]
pub struct Rung {
    /// Offered rate.
    pub rate: f64,
    /// p50 and p99 of each [`WINDOW_REQUESTS`] window of request
    /// latencies (ms from the scheduled send time; refused or wrong
    /// answers count as infinite). Only these summaries are kept, so
    /// memory does not grow with the requests served.
    pub window_p50: Vec<f64>,
    /// See [`Rung::window_p50`].
    pub window_p99: Vec<f64>,
    /// p99 of the last [`WINDOW_REQUESTS`] requests, ms.
    pub last_p99: Option<f64>,
    /// p99 over the whole visit, ms.
    pub whole_p99: Option<f64>,
    /// p99 of how late the generator submitted requests, ms.
    pub late_p99: Option<f64>,
    /// Requests outstanding when the last one was submitted.
    pub backlog_end: usize,
    /// Requests refused at submission.
    pub rejected: usize,
    /// Requests that failed or answered wrongly.
    pub failed: usize,
    /// Submission stopped because the backlog outgrew [`ABORT_FACTOR`]
    /// times what the latency limit lets through.
    pub aborted: bool,
    /// Duration of each `QuServe::deploy` call, ms.
    pub deploy_ms: Vec<f64>,
    /// Rung wall time, s.
    pub wall: f64,
    /// The rung's span id (0 untraced).
    pub span: u32,
}

impl Rung {
    /// Sustained over the whole visit: the median window's and the last
    /// window's p99 under the limit, the backlog at the end no larger
    /// than the limit lets through (a queue that grows shows here even
    /// when the first windows were fast), and nothing refused or failed.
    pub fn sustained(&self) -> bool {
        let under = |p99: Option<f64>| p99.is_some_and(|x| x <= P99_LIMIT_MS);
        let median_window = (!self.window_p99.is_empty()).then(|| median(&self.window_p99));
        under(median_window)
            && under(self.last_p99)
            && self.backlog_end <= drainable(self.rate)
            && self.rejected == 0
            && self.failed == 0
            && !self.aborted
    }
}

/// The fastest window's percentile (`window_p50` or `window_p99`) over
/// several visits.
fn best_window_ms(visits: &[&Rung], windows: impl Fn(&Rung) -> &[f64]) -> Option<f64> {
    let v: Vec<f64> = visits
        .iter()
        .flat_map(|r| windows(r).iter().copied())
        .collect();
    (!v.is_empty()).then(|| low(&v))
}

/// Runs one visit: Poisson arrivals at `rate` for `seconds` (at least
/// one window), parameters alternating between A and B.
pub fn run_rung(p: &Prepared, ops: &mut Ops, rate: f64, seconds: f64, seed: u64) -> Rung {
    let seconds = seconds.max(WINDOW_REQUESTS as f64 / rate);
    let schedule = poisson_schedule(rate, seconds, seed);
    let idx = picks(schedule.len(), p.pool.len(), seed);
    let span = trace::span_with("loadgen.rung", rate as u32, schedule.len() as u32);
    let prev = span.as_ref().map(|g| trace::set_phase(g.id()));
    let completed = AtomicUsize::new(0);
    let mut late_ms = Vec::with_capacity(schedule.len());
    let mut rung = Rung {
        rate,
        span: span.as_ref().map_or(0, |g| g.id()),
        ..Rung::default()
    };
    tighten_timer_slack();
    let t0 = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, f64, Result<PredictHandle, ServeError>)>();
    let answers = std::thread::scope(|s| {
        let completed = &completed;
        let expected = schedule.len();
        let collector = s.spawn(move || {
            let mut got = Vec::with_capacity(expected);
            for (i, at, handle) in rx {
                let answer = handle.and_then(PredictHandle::wait);
                let done = t0.elapsed().as_secs_f64();
                let ok = matches!(&answer, Ok(m) if *m == p.tables[0][i] || *m == p.tables[1][i]);
                got.push((
                    at,
                    (done - at) * 1e3,
                    ok,
                    matches!(answer, Err(ServeError::Overloaded { .. })),
                ));
                completed.fetch_add(1, Ordering::Relaxed);
            }
            got
        });
        let mut next_deploy = DEPLOY_EVERY_S;
        let mut deployed = 0usize;
        let abort_at = (drainable(rate) as f64 * ABORT_FACTOR) as usize;
        let mut sent = 0;
        for (&at, &i) in schedule.iter().zip(&idx) {
            if sent - completed.load(Ordering::Relaxed) > abort_at {
                rung.aborted = true;
                break;
            }
            loop {
                let now = t0.elapsed().as_secs_f64();
                if now >= next_deploy {
                    deployed ^= 1;
                    let start = Instant::now();
                    let ok = p.serve.deploy(&p.params[deployed]).is_ok();
                    rung.deploy_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    ops.op(ok, || {
                        format!("{rate} rps: deploy of parameter set {deployed} failed")
                    });
                    rung.failed += usize::from(!ok);
                    next_deploy += DEPLOY_EVERY_S;
                    continue;
                }
                let wait = at.min(next_deploy) - now;
                if wait <= 0.0 {
                    break;
                }
                if wait > 20e-6 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                } else {
                    std::hint::spin_loop();
                }
            }
            late_ms.push((t0.elapsed().as_secs_f64() - at) * 1e3);
            let handle = p.serve.predict(p.pool[i].seismic.clone());
            tx.send((i, at, handle)).expect("collector alive");
            sent += 1;
        }
        rung.backlog_end = sent - completed.load(Ordering::Relaxed);
        drop(tx);
        collector.join().expect("collector thread")
    });
    rung.wall = t0.elapsed().as_secs_f64();
    drop(span);
    if let Some(prev) = prev {
        trace::set_phase(prev);
    }
    let mut latencies = Vec::with_capacity(answers.len());
    for (at, latency, ok, refused) in answers {
        ops.op(ok, || {
            format!("{rate} rps: request due at {at:.4} s was refused or answered wrongly")
        });
        if refused {
            rung.rejected += 1;
        } else if !ok {
            rung.failed += 1;
        }
        latencies.push(if ok { latency } else { f64::INFINITY });
    }
    let windows = |p: f64| -> Vec<f64> {
        latencies
            .chunks(WINDOW_REQUESTS)
            .filter_map(|w| percentile(w, p))
            .collect()
    };
    rung.window_p50 = windows(50.0);
    rung.window_p99 = windows(99.0);
    rung.last_p99 = percentile(
        &latencies[latencies.len().saturating_sub(WINDOW_REQUESTS)..],
        99.0,
    );
    rung.whole_p99 = percentile(&latencies, 99.0);
    rung.late_p99 = percentile(&late_ms, 99.0);
    rung
}

/// An up-down staircase over the ladder. It climbs [`CLIMB_RUNGS`] rungs
/// per sustained visit from the reference rung; from its first
/// unsustained visit on, it steps one rung up after a sustained visit and
/// one down after an unsustained one, so it settles on the rate where
/// the server stops sustaining its load.
#[derive(Debug)]
pub struct Staircase {
    rung: usize,
    climbing: bool,
    /// Every visit: (rate, sustained).
    pub visits: Vec<(f64, bool)>,
    /// The top rung was sustained: the ladder is too short.
    pub topped: bool,
}

impl Default for Staircase {
    fn default() -> Self {
        Self {
            rung: REFERENCE_RUNG,
            climbing: true,
            visits: Vec::new(),
            topped: false,
        }
    }
}

impl Staircase {
    /// The rate of the next visit.
    pub fn rate(&self) -> f64 {
        ladder_rps(self.rung)
    }

    /// Moves after a visit to [`Staircase::rate`].
    pub fn record(&mut self, sustained: bool) {
        self.visits.push((self.rate(), sustained));
        self.climbing &= sustained;
        let top = LADDER_RUNGS - 1;
        self.topped |= sustained && self.rung == top;
        self.rung = if sustained {
            (self.rung + if self.climbing { CLIMB_RUNGS } else { 1 }).min(top)
        } else {
            self.rung.saturating_sub(1)
        };
    }

    /// The sustained rate: over the second half of the visits (the first
    /// half is the climb, and any early miss it recovers from), the
    /// median of the highest rate each visit shows sustained — its own
    /// rate if sustained, the rung below if not.
    pub fn sustained_rps(&self) -> f64 {
        let settled: Vec<f64> = self.visits[self.visits.len() / 2..]
            .iter()
            .map(|&(rate, ok)| if ok { rate } else { rate - LADDER_STEP_RPS })
            .collect();
        if settled.is_empty() {
            0.0
        } else {
            median(&settled)
        }
    }
}

/// [`SEGMENTS`] segments in `seconds`: each a visit to the reference
/// rung, staircase visits for the rest of its share of the time, then
/// `after_segment`. Returns the reference visits and the staircase; a
/// staircase that sustained the top rung fails a check.
fn ladder(
    p: &Prepared,
    ops: &mut Ops,
    seconds: f64,
    seed: u64,
    mut after_segment: impl FnMut(usize, &mut Ops) -> Result<(), QuGeoError>,
) -> Result<(Vec<Rung>, Staircase), QuGeoError> {
    let segments = SEGMENTS as f64;
    let reference_visit = seconds * REFERENCE_SHARE / segments;
    let stairs_s = seconds * (1.0 - REFERENCE_SHARE) / segments;
    let mut reference = Vec::with_capacity(SEGMENTS);
    let mut stairs = Staircase::default();
    let mut visit_seed = seed;
    for segment in 0..SEGMENTS {
        visit_seed = visit_seed.wrapping_add(1);
        let rate = ladder_rps(REFERENCE_RUNG);
        reference.push(run_rung(p, ops, rate, reference_visit, visit_seed));
        // Whole visits until the share is spent: a visit at a low rate
        // lasts longer, to fill one window.
        let start = Instant::now();
        while start.elapsed().as_secs_f64() + VISIT_S / 2.0 < stairs_s {
            visit_seed = visit_seed.wrapping_add(1);
            let visit = run_rung(p, ops, stairs.rate(), VISIT_S, visit_seed);
            stairs.record(visit.sustained());
        }
        after_segment(segment, ops)?;
    }
    ops.op(!stairs.topped, || {
        format!(
            "the top ladder rung ({:.0} rps) was sustained: extend LADDER_RUNGS",
            ladder_rps(LADDER_RUNGS - 1)
        )
    });
    Ok((reference, stairs))
}

fn print_staircase(stairs: &Staircase) {
    let trail: Vec<String> = stairs
        .visits
        .iter()
        .map(|&(rate, ok)| format!("{}{}", rate / 1e3, if ok { "+" } else { "-" }))
        .collect();
    println!(
        "serve_open: staircase (k rps, + sustained) {}",
        trail.join(" ")
    );
    println!(
        "serve_open: sustained {:.0} rps (second half of {} visits)",
        stairs.sustained_rps(),
        stairs.visits.len()
    );
}

/// What the timed part of a run measures.
struct Measured {
    score_times: Vec<f64>,
    ssim_a: f64,
    /// The visits to the reference rung.
    reference: Vec<Rung>,
    /// Epoch times of the retrains between segments.
    retrain_epochs: Vec<f64>,
}

impl Measured {
    fn reference(&self) -> Vec<&Rung> {
        self.reference.iter().collect()
    }

    fn deploy_ms(&self) -> Vec<f64> {
        self.reference
            .iter()
            .flat_map(|v| v.deploy_ms.iter().copied())
            .collect()
    }
}

/// Scoring bursts, then the segments. Worker spans outside a rung are
/// parented to `phase`.
fn measure(p: &Prepared, ops: &mut Ops, seconds: f64, seed: u64) -> Result<Measured, QuGeoError> {
    let (score_times, ssim_a) = score(p, ops, seconds * 0.05)?;
    let mut retrain_epochs = Vec::new();
    let (reference, stairs) = ladder(p, ops, seconds * 0.95, seed, |segment, ops| {
        if segment + 1 < SEGMENTS {
            retrain_epochs.extend(p.retrain_b(ops)?);
        }
        Ok(())
    })?;
    print_staircase(&stairs);
    println!("serve_open: held-out SSIM of parameters A served {ssim_a:.4}");
    Ok(Measured {
        score_times,
        ssim_a,
        reference,
        retrain_epochs,
    })
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: Ctx, p: &Prepared, ops: &mut Ops, m: &mut Metrics) -> Result<(), QuGeoError> {
    let r = measure(p, ops, ctx.seconds, ctx.seed)?;
    common::check_reference(ops, ctx.seed, r.ssim_a, REFERENCE_SSIM);
    let reference = r.reference();
    let rate = ladder_rps(REFERENCE_RUNG);
    let whole: Vec<String> = reference
        .iter()
        .map(|v| v.whole_p99.map_or("-".into(), |x| format!("{x:.3}")))
        .collect();
    println!(
        "serve_open: {rate} rps p50 {:.4} ms p99 {:.4} ms (fastest of {} windows); whole-visit p99 {} ms",
        best_window_ms(&reference, |r| &r.window_p50).unwrap_or(f64::NAN),
        best_window_ms(&reference, |r| &r.window_p99).unwrap_or(f64::NAN),
        reference.iter().map(|v| v.window_p99.len()).sum::<usize>(),
        whole.join(" / ")
    );
    m.insert("time_to_ssim_s", low(&r.score_times));
    let epochs: Vec<f64> = p.epochs.iter().chain(&r.retrain_epochs).copied().collect();
    m.insert("train_samples_per_s", TRAIN_SAMPLES as f64 / low(&epochs));
    m.insert("final_ssim", r.ssim_a);
    Ok(())
}

/// The traced run: an untraced setup and segments at 30% of the budget
/// (the latency and sustained-rate metrics), then a traced setup and
/// timed part at half the budget.
pub fn run_traced(ops: &mut Ops, ctx: Ctx) -> Result<(Metrics, Vec<trace::Span>), QuGeoError> {
    let plain = setup(ctx, ops, false)?;
    let (plain_ref, plain_stairs) =
        ladder(&plain, ops, ctx.seconds * 0.3, ctx.seed, |_, _| Ok(()))?;
    print_staircase(&plain_stairs);
    let plain_ref: Vec<&Rung> = plain_ref.iter().collect();
    let plain_params = plain.params.clone();
    plain.serve.shutdown();

    trace::enable(true);
    let traced = (|| {
        let root = trace::span("bench.pass");
        let root_id = root.as_ref().map_or(0, |g| g.id());
        trace::set_phase(root_id);
        let p = setup(ctx, ops, true)?;
        let r = measure(&p, ops, ctx.seconds * 0.5, ctx.seed)?;
        let stats = p.serve.stats();
        let params = p.params.clone();
        {
            let _s = trace::span("serve.shutdown");
            p.serve.shutdown();
        }
        Ok::<_, QuGeoError>((r, stats, params))
    })();
    trace::enable(false);
    trace::set_phase(0);
    let (r, stats, params) = traced?;
    let spans = trace::take();
    ops.op(params == plain_params, || {
        "traced parameter sets differ from the untraced ones".into()
    });

    let mut m = common::layer_metrics(&spans, 0.0);
    let reference = r.reference();
    let busy: f64 = {
        let selfs = trace::self_times(&spans);
        let ids: Vec<u32> = reference.iter().map(|v| v.span).collect();
        spans
            .iter()
            .filter(|s| {
                ids.contains(&s.parent) && (s.name == "qsim.forward" || s.name == "qsim.measure")
            })
            .map(|s| selfs[&s.id])
            .sum()
    };
    let reference_wall: f64 = reference.iter().map(|v| v.wall).sum();
    let late = reference
        .iter()
        .filter_map(|v| v.late_p99)
        .fold(0.0, f64::max);
    let deploys = r.deploy_ms();
    m.insert("serve.batches", stats.batches as f64);
    m.insert("serve.batch_mean", stats.mean_batch());
    m.insert("serve.rejected", stats.rejected as f64);
    m.insert("serve.failed", stats.failed as f64);
    m.insert(
        "serve.shed",
        (stats.deadline_shed + stats.abandoned_shed) as f64,
    );
    m.insert("serve.sim_busy_share", busy / reference_wall);
    m.insert(
        "serve.deploy_ms",
        deploys.iter().sum::<f64>() / deploys.len().max(1) as f64,
    );
    m.insert("session.rebinds", stats.session_rebinds as f64);
    m.insert("loadgen.late_ms_p99", late);
    let (a, b) = (
        best_window_ms(&plain_ref, |r| &r.window_p50),
        best_window_ms(&reference, |r| &r.window_p50),
    );
    m.insert("serve.p50_ms", a.unwrap_or(0.0));
    m.insert(
        "serve.p99_ms",
        best_window_ms(&plain_ref, |r| &r.window_p99).unwrap_or(0.0),
    );
    m.insert("serve.sustained_rps", plain_stairs.sustained_rps());
    m.insert(
        "trace.overhead_pct",
        match (a, b) {
            (Some(a), Some(b)) => 100.0 * (b - a) / a,
            _ => 0.0,
        },
    );
    Ok((m, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit(rate: f64, p99: &[f64], last: f64, backlog: usize) -> Rung {
        Rung {
            rate,
            window_p99: p99.to_vec(),
            last_p99: Some(last),
            backlog_end: backlog,
            ..Rung::default()
        }
    }

    #[test]
    fn sustained_is_decided_over_the_whole_visit() {
        assert!(visit(40e3, &[0.2, 0.3, 0.4], 0.4, 3).sustained());
        // Fast first windows, then a growing queue: the last window or the
        // backlog at the end gives it away.
        assert!(!visit(40e3, &[0.2, 0.3, 0.9], 2.5, 3).sustained());
        assert!(!visit(40e3, &[0.2, 0.3, 0.4], 0.4, 81).sustained());
        assert!(visit(40e3, &[0.2, 0.3, 0.4], 0.4, 80).sustained());
        // The median window, not the fastest, must be under the limit.
        assert!(!visit(40e3, &[0.2, 2.5, 3.0], 1.0, 3).sustained());
        let mut refused = visit(40e3, &[0.2], 0.2, 0);
        refused.rejected = 1;
        assert!(!refused.sustained());
        assert!(!Rung::default().sustained());
    }

    /// A server that sustains every rate up to `capacity`.
    fn settle(capacity: f64, visits: usize) -> Staircase {
        let mut stairs = Staircase::default();
        for _ in 0..visits {
            let ok = stairs.rate() <= capacity;
            stairs.record(ok);
        }
        stairs
    }

    #[test]
    fn staircase_settles_on_the_highest_sustained_rung() {
        let stairs = settle(51e3, 40);
        assert_eq!(stairs.sustained_rps(), 50e3);
        // It climbed four rungs at a time from 20k before settling.
        assert_eq!(stairs.visits[1].0, 28e3);
        assert!(!stairs.topped);
        // A ladder rate exactly at capacity is sustained.
        assert_eq!(settle(50e3, 40).sustained_rps(), 50e3);
        // A capacity under the reference rate walks down to it.
        assert_eq!(settle(9e3, 40).sustained_rps(), 8e3);
        // An early miss (a host hiccup at 20k) costs the climb, not the
        // estimate.
        let mut stairs = Staircase::default();
        stairs.record(false);
        for _ in 0..60 {
            let ok = stairs.rate() <= 51e3;
            stairs.record(ok);
        }
        assert_eq!(stairs.sustained_rps(), 50e3);
    }

    #[test]
    fn staircase_flags_a_ladder_that_is_too_short() {
        let stairs = settle(f64::INFINITY, 60);
        assert!(stairs.topped);
        assert_eq!(stairs.sustained_rps(), ladder_rps(LADDER_RUNGS - 1));
    }
}
