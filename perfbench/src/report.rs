//! Metric definitions, the result line, and the run's environment.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload with tracing off:
/// `(name, unit)`. See `perfbench/README.md` for what each means on
/// each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("time_to_ssim_s", "s"),
    ("train_samples_per_s", "1/s"),
    ("final_ssim", "1"),
];

/// Per-layer metrics, reported by every workload with tracing on (0
/// where a workload never enters the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("geodata.synth_s", "s"),
    ("wavesim.cell_updates_per_s", "1/s"),
    ("pipeline.dsample_s", "s"),
    ("pipeline.fw_scale_s", "s"),
    ("pipeline.fw_sims", "count"),
    ("pipeline.cnn_train_s", "s"),
    ("pipeline.cnn_steps", "count"),
    ("pipeline.cnn_scale_s", "s"),
    ("train.epoch_s", "s"),
    ("train.eval_s", "s"),
    ("train.loop_s", "s"),
    ("train.step_p50_ms", "ms"),
    ("train.step_p99_ms", "ms"),
    ("qsim.adjoint_s", "s"),
    ("qsim.adjoint_calls", "count"),
    ("qsim.adjoint_members", "count"),
    ("qsim.adjoint_us_per_member.b1", "us"),
    ("qsim.adjoint_us_per_member.b2", "us"),
    ("qsim.adjoint_us_per_member.b4", "us"),
    ("decoder.loss_s", "s"),
    ("nn.optim_s", "s"),
    ("nn.optim_steps", "count"),
    ("qsim.forward_s", "s"),
    ("qsim.forward_calls", "count"),
    ("qsim.forward_members", "count"),
    ("qsim.forward_us_per_member", "us"),
    ("eval.decode_metrics_s", "s"),
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.sustained_rps", "1/s"),
    ("serve.batches", "count"),
    ("serve.batch_mean", "count"),
    ("serve.rejected", "count"),
    ("serve.failed", "count"),
    ("serve.shed", "count"),
    ("serve.sim_busy_share", "1"),
    ("serve.worker_s", "s"),
    ("serve.idle_share", "1"),
    ("serve.deploy_ms", "ms"),
    ("session.rebinds", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_s", "s"),
    ("trace.coverage_pct", "%"),
];

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Operations attempted and failed; a failed correctness check is a
/// failed operation.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed a check.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // The first failures tell the story; a failing serving rung
            // would otherwise log every request.
            if self.failed <= 20 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    /// Records a check that is not an operation of its own: it fails the
    /// run by failing one more operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.op(false, what);
        }
    }
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Renders the result line. Panics if `metrics` does not hold exactly
/// the names of `defs` — a bug in the benchmark, not the program.
pub fn result_line(ops: &Ops, metrics: &Metrics, defs: &[(&'static str, &'static str)]) -> String {
    let names: Vec<&str> = defs.iter().map(|d| d.0).collect();
    let got: Vec<&str> = metrics.keys().copied().collect();
    let mut want = names.clone();
    want.sort_unstable();
    assert_eq!(got, want, "emitted metrics differ from the declared set");
    let mut out = String::new();
    let correct = ops.failed == 0;
    write!(
        out,
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{"#,
        ops.attempted, ops.failed
    )
    .expect("write to String");
    for (i, (name, unit)) in defs.iter().enumerate() {
        assert!(
            valid_name(name) && valid_unit(unit),
            "invalid metric {name} [{unit}]"
        );
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        let v = metrics[name] + 0.0;
        let v = if v.is_finite() { v } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        write!(out, r#""{name}": {{"value": {v:?}, "unit": "{unit}"}}"#).expect("write to String");
    }
    out.push_str("}}");
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the checkout was made from, read from `.git` when there is
/// one.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

/// One JSON object describing where and how a result was measured.
pub fn environment(workload: &str, seed: u64, trace: bool, seconds: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    format!(
        r#"{{"workload": "{workload}", "seed": {seed}, "trace": {trace}, "seconds": {seconds}, "nproc": {nproc}, "cpu": "{}", "simd": "{}", "simulation_threads": {}, "QUGEO_SIM_THREADS": "{}", "QUGEO_SIMD": "{}", "git_rev": "{}"}}"#,
        cpu_model(),
        qugeo_qsim::simd_feature_level(),
        qugeo_qsim::simulation_threads(),
        env("QUGEO_SIM_THREADS"),
        env("QUGEO_SIMD"),
        git_rev(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("qsim.adjoint_us_per_member.b1"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("m s"));
    }

    /// Every name BENCHMARK.json declares is emitted, and nothing else.
    #[test]
    fn benchmark_json_matches_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.0).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|d| d.0).collect();
        assert_eq!(section("end_to_end"), e2e);
        assert_eq!(section("per_layer"), layer);
        assert_eq!(section("workloads"), crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        let defs: &[(&str, &str)] = &[("b", "s"), ("a", "1/s")];
        let mut m = Metrics::new();
        m.insert("a", 2.5);
        m.insert("b", 0.125);
        let mut ops = Ops::default();
        ops.op(true, String::new);
        let line = result_line(&ops, &m, defs);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"b": {"value": 0.125, "unit": "s"}, "a": {"value": 2.5, "unit": "1/s"}}}"#
        );
        ops.check(false, || "x".into());
        assert!(result_line(&ops, &m, defs)
            .starts_with(r#"{"correct": false, "attempted": 2, "failed": 1"#));
    }

    #[test]
    #[should_panic(expected = "declared set")]
    fn result_line_rejects_undeclared_metrics() {
        let mut m = Metrics::new();
        m.insert("a", 1.0);
        result_line(&Ops::default(), &m, &[("b", "s")]);
    }
}
