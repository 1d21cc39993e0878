//! The metric lists (name, unit, direction, estimator) and the run's
//! result. `BENCHMARK.json` repeats the names, units and directions and
//! adds the bounds; a unit test keeps the two in step in both
//! directions. README.md defines every metric at length.

use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// How the reported value is computed from the run's samples.
    pub estimator: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    estimator: &'static str,
) -> Def {
    Def { name, unit, better, estimator }
}

/// What a user of the system sees. Reported by untraced runs only.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower", "median over cold starts"),
    def("peak_rss_mb", "MB", "lower", "VmHWM at exit"),
    def("speedup_hier", "ratio", "higher", "median over passes of reference time / pass time"),
    def("speedup_fil", "ratio", "higher", "median over passes of reference time / pass time"),
    def("speedup_qfil8", "ratio", "higher", "median over passes of reference time / pass time"),
    def(
        "speedup_packed_fil",
        "ratio",
        "higher",
        "median over passes of reference time / pass time",
    ),
    def("p50_us", "us", "lower", "median over windows of window p50"),
    def("deadline_ok_share", "share", "higher", "whole run: in deadline / due"),
    def(
        "capacity_vs_reference",
        "ratio",
        "higher",
        "median over windows of served rate / reference rate",
    ),
    def("sim_gpu_hybrid_device_s", "s", "lower", "simulated, exact"),
    def("sim_fpga_hybrid_device_s", "s", "lower", "simulated, exact"),
];

/// Single layers, timed from outside around public calls. Reported by
/// traced runs only; no bounds.
pub const PER_LAYER: &[Def] = &[
    def("data.generate_s", "s", "lower", "once, when the inputs were generated"),
    def("forest.train_s", "s", "lower", "once, when the inputs were generated"),
    def("forest.read_ms", "ms", "lower", "median over cold starts"),
    def("forest.model_bytes", "bytes", "lower", "exact"),
    def("forest.nodes", "count", "lower", "exact"),
    def("forest.reference_rows_per_s", "1/s", "higher", "one pass, 1 thread"),
    def("core.hier.build_ms", "ms", "lower", "median over cold starts"),
    def("core.fil.build_ms", "ms", "lower", "median over cold starts"),
    def("core.qfil8.build_ms", "ms", "lower", "median over cold starts"),
    def("core.packed_fil.build_ms", "ms", "lower", "median over cold starts"),
    def("core.pack.profile_ms", "ms", "lower", "median over cold starts"),
    def("core.hier.bytes", "bytes", "lower", "exact"),
    def("core.fil.bytes", "bytes", "lower", "exact"),
    def("core.qfil8.bytes", "bytes", "lower", "exact"),
    def("core.packed_fil.bytes", "bytes", "lower", "exact"),
    def("core.packed_fil.shards", "count", "lower", "exact"),
    def("kernels.hier.ns_per_row_tree", "ns", "lower", "fastest pass, all threads"),
    def("kernels.fil.ns_per_row_tree", "ns", "lower", "fastest pass, all threads"),
    def("kernels.qfil8.ns_per_row_tree", "ns", "lower", "fastest pass, all threads"),
    def("kernels.packed_fil.ns_per_row_tree", "ns", "lower", "fastest pass, all threads"),
    def("kernels.hier.ns_per_row_tree_1t", "ns", "lower", "median of 3 passes, 1 thread"),
    def("kernels.fil.ns_per_row_tree_1t", "ns", "lower", "median of 3 passes, 1 thread"),
    def("kernels.qfil8.ns_per_row_tree_1t", "ns", "lower", "median of 3 passes, 1 thread"),
    def("kernels.packed_fil.ns_per_row_tree_1t", "ns", "lower", "median of 3 passes, 1 thread"),
    def("kernels.packed_qfil8.ns_per_row_tree_1t", "ns", "lower", "median of 3 passes, 1 thread"),
    def("kernels.nodevec.ns_per_row_tree_1t", "ns", "lower", "median of 3 passes, 1 thread"),
    def("kernels.fil.bit_sliced.ns_per_row_tree_1t", "ns", "lower", "median of 3 passes, 1 thread"),
    def("kernels.fil.early_exit.ns_per_row_tree_1t", "ns", "lower", "median of 3 passes, 1 thread"),
    def("kernels.row_parallel.ns_per_row_tree", "ns", "lower", "median of 3 passes, all threads"),
    def("kernels.fil.scaling", "ratio", "higher", "all-threads rate / 1-thread rate"),
    def("kernels.hier.batch4_us", "us", "lower", "median of 200 calls"),
    def("kernels.hier.batch256_us", "us", "lower", "median of 50 calls"),
    def("kernels.plan.shard_trees", "count", "higher", "auto plan of the hier pass"),
    def("kernels.plan.query_block", "count", "higher", "auto plan of the hier pass"),
    def("kernels.plan.threads", "count", "higher", "auto plan of the hier pass"),
    def("gpu-sim.csr.device_s", "s", "lower", "simulated, exact"),
    def("gpu-sim.fil.device_s", "s", "lower", "simulated, exact"),
    def("gpu-sim.independent.device_s", "s", "lower", "simulated, exact"),
    def("gpu-sim.hybrid.device_s", "s", "lower", "simulated, exact"),
    def("gpu-sim.hybrid.host_s", "s", "lower", "fastest launch"),
    def("gpu-sim.hybrid.global_load_transactions", "count", "lower", "simulated, exact"),
    def("gpu-sim.hybrid.l2_misses", "count", "lower", "simulated, exact"),
    def("gpu-sim.hybrid.host_ns_per_device_cycle", "ns", "lower", "min host time / cycles"),
    def("fpga-sim.csr.device_s", "s", "lower", "simulated, exact"),
    def("fpga-sim.independent.device_s", "s", "lower", "simulated, exact"),
    def("fpga-sim.hybrid.device_s", "s", "lower", "simulated, exact"),
    def("fpga-sim.hybrid.host_s", "s", "lower", "fastest launch"),
    def("fpga-sim.hybrid.stall_fraction", "share", "lower", "simulated, exact"),
    def("fpga-sim.hybrid.ext_read_bytes", "bytes", "lower", "simulated, exact"),
    def("reference.ns_per_row_tree", "ns", "lower", "fastest reference pass, all threads"),
    def("serve.capacity_rows_per_s", "1/s", "higher", "best closed-loop window"),
    def("serve.p99_us", "us", "lower", "lower quartile over windows of window p99"),
    def("serve.submit_us", "us", "lower", "median over open-loop submits"),
    def("serve.queue_wait_p50_us", "us", "lower", "ServeStats histogram, whole run"),
    def("serve.queue_wait_p99_us", "us", "lower", "ServeStats histogram, whole run"),
    def("serve.batch_exec_p50_us", "us", "lower", "ServeStats histogram, whole run"),
    def("serve.batch_exec_p99_us", "us", "lower", "ServeStats histogram, whole run"),
    def("serve.batch_rows_mean", "count", "higher", "ServeStats, whole run"),
    def("serve.batch_rows_max", "count", "higher", "ServeStats, whole run"),
    def("serve.batches", "count", "lower", "ServeStats, whole run"),
    def("serve.residual_p50_us", "us", "lower", "p50 - queue wait p50 - exec p50"),
    def("serve.stage.queue_wait_us", "us", "lower", "mean over the service's batch spans"),
    def("serve.stage.dispatch_us", "us", "lower", "mean over the service's batch spans"),
    def("serve.stage.traverse_us", "us", "lower", "mean over the service's batch spans"),
    def("serve.stage.deliver_us", "us", "lower", "mean over the service's batch spans"),
    def("serve.start_ms", "ms", "lower", "median over cold starts"),
    def("serve.shutdown_ms", "ms", "lower", "once, after the last round"),
    def("serve.first_answer_us", "us", "lower", "median over cold starts"),
    def("serve.publish_ms", "ms", "lower", "once, idle, after the last round"),
    def("serve.activate_us", "us", "lower", "once, idle, after the last round"),
    def(
        "serve.publish_under_load_ms",
        "ms",
        "lower",
        "median over mid-window publishes; 0 without swaps",
    ),
    def("serve.rejected_share", "share", "lower", "rejected rows / offered rows"),
    def("serve.shed_share", "share", "lower", "shed rows / admitted rows"),
    def("serve.failed_share", "share", "lower", "failed rows / admitted rows"),
    def("serve.generator_late_p99_us", "us", "lower", "p99 over open-loop submits"),
    def(
        "serve.capacity_batch_rows_mean",
        "count",
        "higher",
        "rows / batches over closed-loop windows",
    ),
    def("telemetry.span_ns", "ns", "lower", "mean of 50000 calls"),
    def("telemetry.counter_ns", "ns", "lower", "mean of 200000 calls"),
    def("telemetry.histogram_ns", "ns", "lower", "mean of 200000 calls"),
    def(
        "telemetry.trace_overhead_share",
        "share",
        "lower",
        "1 - traced / untraced best window, paired",
    ),
    def("trace.coverage_share", "share", "higher", "run wall time inside benchmark spans"),
    def("trace.spans", "count", "lower", "benchmark spans recorded"),
    def("host.calib_ns", "ns", "lower", "median ns per spin iteration"),
    def("host.calib_spread", "ratio", "lower", "p75 / p25 over rounds"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub name: String,
    pub value: f64,
    /// Samples the estimator saw.
    pub samples: usize,
}

/// Every number a run produced, by metric name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ledger {
    entries: Vec<Entry>,
}

impl Ledger {
    pub fn put(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        let name = name.into();
        debug_assert!(self.get(&name).is_none(), "{name} reported twice");
        self.entries.push(Entry { name, value, samples });
    }

    pub fn get(&self, name: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.name == name)
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.get(name).map(|e| e.value)
    }

    /// Names in `defs` this ledger has no finite value for.
    pub fn missing(&self, defs: &[Def]) -> Vec<&'static str> {
        defs.iter()
            .filter(|d| !self.value(d.name).is_some_and(f64::is_finite))
            .map(|d| d.name)
            .collect()
    }

    /// One line per metric of `defs`: name, value, unit, estimator and
    /// sample count.
    pub fn table(&self, defs: &[Def]) -> String {
        let mut out = String::new();
        for d in defs {
            let (value, samples) = self.get(d.name).map_or((f64::NAN, 0), |e| (e.value, e.samples));
            out.push_str(&format!(
                "{:<44} {:>16.6} {:<6} n={:<6} [{}]\n",
                d.name, value, d.unit, samples, d.estimator
            ));
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn metrics_json(&self, defs: &[Def]) -> Value {
        Value::Object(
            defs.iter()
                .filter_map(|d| {
                    let value = self.value(d.name).filter(|v| v.is_finite())?;
                    Some((
                        d.name.to_string(),
                        Value::Object(vec![
                            ("value".to_string(), Value::Float(value)),
                            ("unit".to_string(), Value::String(d.unit.to_string())),
                        ]),
                    ))
                })
                .collect(),
        )
    }
}

/// The one-line result the driver reads.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted)),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), metrics),
    ]))
    .expect("a Value tree always serialises")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn text(v: &Value, key: &str) -> String {
        match v.get(key) {
            Some(Value::String(s)) => s.clone(),
            other => panic!("{key}: expected a string, found {other:?}"),
        }
    }

    fn list(v: &Value, key: &str) -> Vec<Value> {
        match v.get(key) {
            Some(Value::Array(items)) => items.clone(),
            other => panic!("{key}: expected an array, found {other:?}"),
        }
    }

    /// Printed names, units and directions equal the `BENCHMARK.json`
    /// lists in both directions and in order.
    #[test]
    fn metric_lists_equal_the_manifest() {
        let m = manifest();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = list(&m, key)
                .iter()
                .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|d| (d.name, d.unit, d.better) == ("setup_s", "s", "lower")));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(d.name, "_.-", 64), "{}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{}", d.name);
            assert!(ok(d.unit, "_/%.-", 16), "{}: {}", d.name, d.unit);
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
    }

    #[test]
    fn workloads_equal_the_manifest() {
        let listed: Vec<(String, String)> = list(&manifest(), "workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> =
            workloads::ALL.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut ledger = Ledger::default();
        ledger.put("setup_s", 0.25, 11);
        ledger.put("p50_us", f64::NAN, 0);
        let line = result_line(true, 7, 0, ledger.metrics_json(END_TO_END));
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":7,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
        assert!(ledger.missing(END_TO_END).contains(&"p50_us"));
        assert!(!ledger.missing(END_TO_END).contains(&"setup_s"));
        assert!(ledger.table(END_TO_END).contains("n=11"));
    }
}
