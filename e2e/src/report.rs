//! The declared metrics and the result a run prints.
//!
//! The two tables below are the binary's half of the declaration in
//! `BENCHMARK.json`; a test holds the halves together. A run prints every
//! metric of its table, each once, whether or not the workload moves it:
//! a per-layer metric the workload cannot reach reads 0.

use crate::json::escape;
use std::fmt::Write as _;

/// `(name, unit)` of the metrics a run with `--trace 0` prints.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p05", "ms"),
    ("throughput_img_s", "img/s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of the metrics a run with `--trace 1` prints.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.build_s", "s"),
    ("models.params_m", "M"),
    ("compress.apply_s", "s"),
    ("compress.weight_sparsity", "ratio"),
    ("passes.compile_s", "s"),
    ("passes.steps", "count"),
    ("passes.fused_layers", "count"),
    ("passes.steps_im2col_packed", "count"),
    ("passes.steps_winograd", "count"),
    ("passes.steps_direct", "count"),
    ("passes.steps_ternary", "count"),
    ("passes.steps_other", "count"),
    ("passes.plan_peak_mb", "MB"),
    ("engine.session_new_s", "s"),
    ("engine.first_run_ms", "ms"),
    ("engine.run_ms_p50", "ms"),
    ("engine.run_ms_tail", "ms"),
    ("engine.run_tail_pct", "%"),
    ("engine.gflops", "GFLOP/s"),
    ("engine.self_ms_conv3x3", "ms"),
    ("engine.self_ms_conv1x1", "ms"),
    ("engine.self_ms_dwconv", "ms"),
    ("engine.self_ms_resblock", "ms"),
    ("engine.self_ms_linear", "ms"),
    ("engine.self_ms_pool", "ms"),
    ("engine.self_ms_elementwise", "ms"),
    ("engine.dispatch_ms", "ms"),
    ("engine.top_step_share", "ratio"),
    ("engine.arena_mb", "MB"),
    ("engine.arena_reuse_mb", "MB"),
    ("engine.allocs_per_run", "count"),
    ("guard.scans_per_run", "count"),
    ("guard.trips", "count"),
    ("guard.demotions", "count"),
    ("tensor.gemm_calls_per_run", "count"),
    ("tensor.gemm_gflop_per_run", "GFLOP"),
    ("tensor.gemm_mb_packed_per_run", "MB"),
    ("tensor.im2col_mb_per_run", "MB"),
    ("tensor.gemm_ternary_share", "ratio"),
    ("tensor.winograd_tiles_per_run", "count"),
    ("tensor.gemm_probe_gflops", "GFLOP/s"),
    ("pool.tasks_per_run", "count"),
    ("pool.busy_share", "ratio"),
    ("serve.start_s", "s"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.service_ms_mean", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.padding_share", "ratio"),
    ("serve.latency_ms_singles_p50", "ms"),
    ("serve.latency_ms_bursts_p50", "ms"),
    ("serve.latency_ms_p90", "ms"),
    ("serve.latency_ms_tail", "ms"),
    ("serve.latency_tail_pct", "%"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.late", "count"),
    ("loadgen.lag_ms_p50", "ms"),
    ("loadgen.lag_ms_max", "ms"),
    ("obs.overhead_share", "ratio"),
    ("obs.events_dropped", "count"),
    ("harness.block_spread", "ratio"),
    ("harness.latency_ms_p50_all", "ms"),
    ("harness.steal_share", "ratio"),
    ("harness.canary_ms_p50", "ms"),
    ("harness.speed", "ratio"),
    ("harness.setup_reps", "count"),
];

/// What one run found: the metrics of its table plus the operation
/// counts the driver reads.
pub struct Report {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<(f64, usize)>>,
    /// Operations issued in the timed window.
    pub attempted: u64,
    /// Operations that errored, were shed, came back late or wrong.
    pub failed: u64,
    /// Free-text lines printed before the metrics (prefixed `# `).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        let table = if trace { PER_LAYER } else { END_TO_END };
        Report {
            table,
            // A per-layer metric the workload never reaches reads 0; an
            // end-to-end metric must be measured on every workload.
            values: vec![trace.then_some((0.0, 0)); table.len()],
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Sets a declared metric; `n` is the sample count behind it (0 for
    /// a value that is not a statistic).
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the run's table: that is a bug in
    /// the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        // A ratio over an empty sample is not a number; print 0, which
        // no declared metric reads when it was really measured.
        let value = if value.is_finite() { value } else { 0.0 };
        let i = self
            .table
            .iter()
            .position(|(k, _)| *k == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared for this run"));
        self.values[i] = Some((value, n));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.table.iter().position(|(k, _)| *k == name)?;
        self.values[i].map(|(v, _)| v)
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Every output matched its reference and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The text a run prints: notes, one `name value unit [n=…]` line
    /// per metric, and the result object as the last line.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was never set.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, ((name, unit), value)) in self.table.iter().zip(&self.values).enumerate() {
            let (v, n) = value.unwrap_or_else(|| panic!("metric {name} was never measured"));
            if n > 0 {
                let _ = writeln!(out, "{name} {v} {unit} n={n}");
            } else {
                let _ = writeln!(out, "{name} {v} {unit}");
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                escape(name),
                escape(unit)
            );
        }
        json.push_str("}}");
        out.push_str(&json);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn render_ends_with_the_result_object() {
        let mut r = Report::new(false);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.5 + i as f64, i);
        }
        r.attempted = 10;
        r.note("workload x");
        let text = r.render();
        assert!(
            text.starts_with("# workload x\nsetup_s 1.5 s\nlatency_ms_p05 2.5 ms n=1\n"),
            "{text}"
        );
        let last = Json::parse(text.lines().last().unwrap()).unwrap();
        let keys: Vec<&str> = last.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            last.get("metrics").unwrap().as_obj().len(),
            END_TO_END.len()
        );
    }

    #[test]
    fn per_layer_metrics_default_to_zero_and_names_are_well_formed() {
        let r = Report::new(true);
        assert_eq!(r.get("serve.shed"), Some(0.0));
        assert_eq!(r.get("nope"), None);
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        Report::new(false).set("engine.gflops", 1.0, 0);
    }
}
