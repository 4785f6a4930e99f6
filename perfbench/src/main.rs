//! The QuGeo benchmark: one workload per run, end-to-end metrics with
//! tracing off, per-layer metrics with tracing on.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fwi_experiment|vqc_train|serve_open --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A failed correctness check makes
//! `correct` false and the exit code 1. See `perfbench/README.md`.

mod common;
mod fwi;
mod loadgen;
mod report;
mod serve;
mod stats;
mod trace;
mod vqc;
mod wrap;

use std::path::PathBuf;
use std::time::Instant;

use qugeo::QuGeoError;

use common::Ctx;
use report::{Metrics, Ops, END_TO_END, PER_LAYER};
use stats::median;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fwi_experiment", "vqc_train", "serve_open"];

/// Set-up runs at least this often and for at least [`SETUP_MIN_S`];
/// `setup_s` is the median.
const SETUPS: usize = 3;
/// Minimum total set-up time, so a cheap set-up is timed many times.
const SETUP_MIN_S: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<Option<&str>, String> {
        match args.iter().position(|a| a == flag) {
            Some(i) => args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or(format!("{flag} needs a value")),
            None => Ok(None),
        }
    };
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        get(flag)?.map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{flag}: not a number: {v}"))
        })
    };
    let workload = get("--workload")?
        .ok_or("--workload is required")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let trace = match num("--trace", 0)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed", common::REFERENCE_SEED)?,
        seconds: num("--seconds", 30)?.max(1),
        trace,
    })
}

/// Runs set-up at least [`SETUPS`] times and for at least
/// [`SETUP_MIN_S`], keeping the last result; returns it with the median
/// set-up time.
fn repeat_setup<T>(mut f: impl FnMut() -> Result<T, QuGeoError>) -> Result<(T, f64), QuGeoError> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    while times.len() < SETUPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        // Drop the previous result first: a server must stop before the
        // next one starts.
        drop(last.take());
        let start = Instant::now();
        last = Some(f()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one setup"), median(&times)))
}

fn untraced(args: &Args, ops: &mut Ops) -> Result<Metrics, QuGeoError> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
    };
    let mut m = Metrics::new();
    let setup_s = match args.workload.as_str() {
        "fwi_experiment" => {
            let (holdout, setup_s) = repeat_setup(|| fwi::setup(ctx.seed))?;
            fwi::run(ctx, &holdout, ops, &mut m)?;
            setup_s
        }
        "vqc_train" => {
            let (inputs, setup_s) = repeat_setup(|| vqc::setup(ctx.seed))?;
            vqc::run(ctx, &inputs, ops, &mut m)?;
            setup_s
        }
        _ => {
            let mut setup_ops = Ops::default();
            let (prepared, setup_s) = repeat_setup(|| serve::setup(ctx, &mut setup_ops, false))?;
            ops.attempted += setup_ops.attempted;
            ops.failed += setup_ops.failed;
            serve::run(ctx, &prepared, ops, &mut m)?;
            setup_s
        }
    };
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", report::peak_rss_mb());
    Ok(m)
}

fn traced(args: &Args, ops: &mut Ops) -> Result<Metrics, QuGeoError> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
    };
    let (m, spans) = match args.workload.as_str() {
        "fwi_experiment" => fwi::run_traced(ops, ctx)?,
        "vqc_train" => vqc::run_traced(ops, ctx)?,
        _ => serve::run_traced(ops, ctx)?,
    };
    common::print_shares(&spans);
    let coverage = m["trace.coverage_pct"];
    ops.check(coverage >= 90.0, || {
        format!("layer self times cover {coverage:.1}% of the traced pass, below 90%")
    });
    let path = PathBuf::from("perfbench/results")
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match trace::write_jsonl(&path, &spans) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    Ok(m)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "env: {}",
        report::environment(&args.workload, args.seed, args.trace, args.seconds)
    );
    let mut ops = Ops::default();
    let result = if args.trace {
        traced(&args, &mut ops)
    } else {
        untraced(&args, &mut ops)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let line = report::result_line(&ops, &metrics, defs);
    println!("{line}");
    if ops.failed > 0 {
        std::process::exit(1);
    }
}
