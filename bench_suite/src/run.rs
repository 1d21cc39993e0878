//! One run of one workload: a cold start, then interleaved rounds, each
//! of which samples every metric once more, so every estimator sees the
//! whole run and a noisy stretch of the machine lands in all metrics
//! alike instead of in whichever one was being measured.

use crate::inputs::Inputs;
use crate::layers::{calibration_ns, layouts, one_offs, sim_round, Layout, SimRound, LAYOUT_NAMES};
use crate::ledger::Ledger;
use crate::load::{closed_loop, constant_rate, open_loop, Traffic};
use crate::reference::Reference;
use crate::spans::{coverage, SpanId, SpanLog, SpanRecord};
use crate::stack::{cold_start, serve_config, Live, SetupTimes, Side, Stack};
use crate::stats::{
    lower_quartile, max, mean, median, min, quantile, quartile_ratio, window_p50_p99,
};
use crate::workloads::{Workload, CAPACITY_REQUEST_ROWS};
use rfx_forest::serialize::read_forest;
use rfx_serve::{RfxServe, ServeStats};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// A request answered correctly later than this after its due time
/// counts against `deadline_ok_share`.
pub const DEADLINE: Duration = Duration::from_millis(10);

/// What one round costs on the reference box, used to turn `--seconds`
/// into a whole number of rounds: 12 engine passes of 25 to 45 ms and
/// 19 reference passes of 6 to 12 ms, a 0.5 s open-loop window, three
/// 0.1 s closed-loop windows, one cold start (0.02 to 0.45 s), four
/// simulator launches and the calibration spin: 1.5 s on the shallow
/// forest, 2.2 s on the deep one.
const ROUND_NOMINAL_S: f64 = 2.0;

/// How much of everything one round does. The sizes are fixed, so the
/// number of samples behind every estimator depends on `--seconds` and
/// on nothing the machine does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub rounds: usize,
    /// Whole-pool engine passes per layout per round, each bracketed by
    /// two reference passes.
    pub passes: usize,
    /// Seconds of one open-loop window (one per round).
    pub open_s: f64,
    /// Closed-loop windows per round, and the seconds of each.
    pub closed_windows: usize,
    pub closed_s: f64,
    /// Launches of each simulator per round.
    pub sim_launches: usize,
}

impl Shape {
    pub fn for_seconds(seconds: f64) -> Shape {
        Shape {
            rounds: ((seconds / ROUND_NOMINAL_S) as usize).max(2),
            passes: 3,
            open_s: 0.5,
            closed_windows: 3,
            closed_s: 0.1,
            sim_launches: 2,
        }
    }

    /// Two short rounds: enough to touch every code path.
    pub const SMOKE: Shape = Shape {
        rounds: 2,
        passes: 1,
        open_s: 0.2,
        closed_windows: 1,
        closed_s: 0.1,
        sim_launches: 1,
    };
}

pub struct Options {
    pub workload: Workload,
    pub shape: Shape,
    /// Record benchmark spans, sample every service batch, and add the
    /// per-layer measurements.
    pub traced: bool,
    /// Corrupt one expected label and one due time per window; the run
    /// must then report failures.
    pub self_test: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations by kind.
    pub failures: Vec<(&'static str, u64)>,
    /// Open-loop requests due, and those not answered correctly in time.
    pub due: u64,
    pub deadline_missed: u64,
    pub ledger: Ledger,
    /// Benchmark spans, by start time; empty unless traced.
    pub spans: Vec<SpanRecord>,
}

/// Everything the rounds collect.
#[derive(Default)]
struct Samples {
    attempted: u64,
    failed: u64,
    /// Failed operations by kind, for the run's last text line.
    failures: BTreeMap<&'static str, u64>,
    due: u64,
    in_deadline: u64,
    setup: Vec<SetupTimes>,
    /// Seconds of every pass of the frozen reference traversal.
    reference_s: Vec<f64>,
    pass_s: [Vec<f64>; 4],
    /// Per product pass: reference seconds per row, taken just before
    /// and after it, over its own seconds per row.
    speedup: [Vec<f64>; 4],
    window_p50_us: Vec<f64>,
    window_p99_us: Vec<f64>,
    late_us: Vec<f64>,
    submit_us: Vec<f64>,
    capacity: Vec<f64>,
    /// Per closed-loop window: its rows per second over the rows per
    /// second of the reference passes just before and after it.
    capacity_ratio: Vec<f64>,
    /// Closed-loop windows on the untraced twin service (traced runs).
    capacity_twin: Vec<f64>,
    capacity_rows: u64,
    capacity_batches: u64,
    sims: Vec<SimRound>,
    calib_ns: Vec<f64>,
    next_open: usize,
    next_closed: usize,
    /// Written by the swapper thread in the middle of a window.
    swaps: Mutex<Swaps>,
}

#[derive(Default)]
struct Swaps {
    publish_s: Vec<f64>,
    errors: Vec<String>,
}

impl Samples {
    /// Accounts for `attempted` operations of one kind, `failed` of
    /// which went wrong.
    fn count(&mut self, kind: &'static str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            *self.failures.entry(kind).or_default() += failed;
        }
    }

    fn check(&mut self, kind: &'static str, ok: bool) {
        self.count(kind, 1, u64::from(!ok));
    }
}

/// Rows one reference pass classifies: a quarter of the pool, so that
/// bracketing every product pass costs a quarter more.
fn reference_rows(inputs: &Inputs) -> usize {
    inputs.rows() / 4
}

struct Run<'a> {
    w: Workload,
    shape: Shape,
    self_test: bool,
    inputs: &'a Inputs,
    reference: &'a Reference,
    spans: &'a SpanLog,
    clients: usize,
}

impl Run<'_> {
    /// The mid-window publish + activate of the swap workload.
    fn swap(&self, live: &Live<'_>, parent: SpanId, s: &Samples) {
        let result = live.swap(self.spans, parent);
        let mut swaps = s.swaps.lock().expect("no swapper panicked");
        match result {
            Ok((publish_s, _)) => swaps.publish_s.push(publish_s),
            Err(error) => swaps.errors.push(error),
        }
    }

    /// One pass of the frozen traversal; returns its seconds per row.
    fn reference_pass(&self, parent: SpanId, s: &mut Samples) -> f64 {
        let rows = reference_rows(self.inputs);
        let mut out = vec![0u32; rows];
        let ((), seconds) = self.spans.timed("reference.pass", parent, |_| {
            self.reference.predict_into(self.inputs.queries(rows), self.clients, &mut out)
        });
        s.check("reference pass wrong", out == self.inputs.oracle_a[..rows]);
        s.reference_s.push(seconds);
        seconds / rows as f64
    }

    /// `passes` cycles through the four layouts, a reference pass
    /// between any two product passes.
    fn engine_passes(&self, layouts: &[Layout<'_>; 4], parent: SpanId, s: &mut Samples) {
        let rows = self.inputs.rows();
        let mut out = vec![0u32; rows];
        self.spans.timed("kernels.passes", parent, |id| {
            let mut before = self.reference_pass(id, s);
            for _ in 0..self.shape.passes {
                for (i, layout) in layouts.iter().enumerate() {
                    let ((), pass_s) = self.spans.timed(layout.span, id, |_| {
                        layout.engine.predict_into(self.inputs.queries(rows), &mut out)
                    });
                    s.check("engine pass wrong", out == layout.oracle);
                    let after = self.reference_pass(id, s);
                    s.pass_s[i].push(pass_s);
                    s.speedup[i].push((before + after) / 2.0 / (pass_s / rows as f64));
                    before = after;
                }
            }
        });
    }

    fn open_window(&self, live: &Live<'_>, parent: SpanId, s: &mut Samples) {
        let mut schedule = constant_rate(self.w.rate_per_s, self.shape.open_s);
        if self.self_test {
            let late = schedule.len() / 2;
            schedule[late] = schedule[late].saturating_sub(2 * DEADLINE);
        }
        let (window, _) = self.spans.timed("serve.open_window", parent, |id| {
            let swap = || self.swap(live, id, s);
            let traffic = Traffic {
                request_rows: self.w.request_rows,
                pool_rows: self.inputs.rows(),
                first_request: s.next_open,
                midpoint: self.w.swap.then_some(&swap as &(dyn Fn() + Sync)),
                spans: self.spans,
                parent: id,
            };
            open_loop(live, &schedule, DEADLINE, &traffic)
        });
        s.next_open += window.due;
        s.count("open-loop request refused", window.due as u64, window.refused as u64);
        s.count("open-loop request failed", 0, window.failed as u64);
        s.count("open-loop request wrong", 0, window.wrong as u64);
        s.due += window.due as u64;
        s.in_deadline += window.in_deadline as u64;
        if !window.latency_us.is_empty() {
            let (p50, p99) = window_p50_p99(&window.latency_us);
            s.window_p50_us.push(p50);
            s.window_p99_us.push(p99);
        }
        s.late_us.extend(&window.late_us);
        s.submit_us.extend(&window.submit_us);
    }

    /// Returns rows answered correctly per second.
    fn closed_window(&self, live: &Live<'_>, swap: bool, parent: SpanId, s: &mut Samples) -> f64 {
        let (window, _) = self.spans.timed("serve.closed_window", parent, |id| {
            let action = || self.swap(live, id, s);
            let traffic = Traffic {
                request_rows: CAPACITY_REQUEST_ROWS,
                pool_rows: self.inputs.rows(),
                first_request: s.next_closed,
                midpoint: swap.then_some(&action as &(dyn Fn() + Sync)),
                spans: self.spans,
                parent: id,
            };
            closed_loop(live, self.clients, Duration::from_secs_f64(self.shape.closed_s), &traffic)
        });
        s.next_closed += window.requests;
        s.count("closed-loop request bad", window.requests as u64, window.bad as u64);
        window.rows as f64 / window.seconds
    }

    /// Capacity on the service under test and, in a traced run, on its
    /// untraced twin, alternating which of each pair goes first. The
    /// swap workload swaps in the first window of the round only: the
    /// answers of a loaded service are checked across a swap, and the
    /// other windows measure capacity without a 35 ms publish in 100 ms.
    fn capacity_windows(
        &self,
        live: &Live<'_>,
        twin: Option<&Live<'_>>,
        parent: SpanId,
        s: &mut Samples,
    ) {
        for window in 0..self.shape.closed_windows {
            let swap = self.w.swap && window == 0;
            let twin_first = s.capacity.len() % 2 == 1;
            if let Some(twin) = twin.filter(|_| twin_first) {
                let rate = self.closed_window(twin, swap, parent, s);
                s.capacity_twin.push(rate);
            }
            let reference_before = self.reference_pass(parent, s);
            let before = live.serve.stats();
            let rate = self.closed_window(live, swap, parent, s);
            let after = live.serve.stats();
            let reference_after = self.reference_pass(parent, s);
            s.capacity.push(rate);
            s.capacity_ratio.push(rate * (reference_before + reference_after) / 2.0);
            s.capacity_rows += after.completed_rows - before.completed_rows;
            s.capacity_batches += after.batches - before.batches;
            if let Some(twin) = twin.filter(|_| !twin_first) {
                let rate = self.closed_window(twin, swap, parent, s);
                s.capacity_twin.push(rate);
            }
        }
    }

    fn cold_start_again(&self, parent: SpanId, s: &mut Samples) {
        let (again, _) = self
            .spans
            .timed("cold_start", parent, |id| cold_start(self.inputs, false, self.spans, id));
        s.setup.push(again.times);
        s.check("cold-start answer wrong", again.first_answer_correct);
        self.spans.timed("cold_start.shutdown", parent, |_| drop(again));
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn run(options: &Options, inputs: &Inputs) -> Outcome {
    let Options { workload: w, shape, traced, self_test } = *options;
    let corrupted;
    let inputs = if self_test {
        let mut copy = inputs.clone();
        copy.oracle_a[0] ^= 1;
        corrupted = copy;
        &corrupted
    } else {
        inputs
    };
    let spans = SpanLog::new(traced);
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reference = Reference::build(
        &read_forest(&inputs.forest_a[..]).expect("forest bytes this build generated"),
    );
    let run = Run { w, shape, self_test, inputs, reference: &reference, spans: &spans, clients };
    let mut s = Samples::default();
    let mut ledger = Ledger::default();

    let (root, _) = spans.timed("run", 0, |root| {
        let (stack, _) = spans.timed("setup", root, |id| cold_start(inputs, traced, &spans, id));
        s.setup.push(stack.times);
        s.check("cold-start answer wrong", stack.first_answer_correct);
        let twin_serve: Option<RfxServe> =
            traced.then(|| RfxServe::start(stack.model.clone(), serve_config()));
        let live = Live::new(&stack.serve, inputs);
        let twin = twin_serve.as_ref().map(|serve| Live::new(serve, inputs));
        let layouts = layouts(&stack, inputs);

        for _ in 0..shape.rounds {
            spans.timed("round", root, |id| {
                run.engine_passes(&layouts, id, &mut s);
                run.open_window(&live, id, &mut s);
                run.capacity_windows(&live, twin.as_ref(), id, &mut s);
                run.cold_start_again(id, &mut s);
                for _ in 0..shape.sim_launches {
                    let sims = sim_round(&stack, inputs, &spans, id);
                    s.count("simulator launch bad", 2, sims.bad);
                    s.sims.push(sims);
                }
                let (ns, _) = spans.timed("host.calibration", id, |_| calibration_ns());
                s.calib_ns.push(ns);
            });
        }

        if traced {
            let (bad, _) = spans
                .timed("one_offs", root, |id| one_offs(&stack, inputs, &spans, id, &mut ledger));
            s.count("per-layer output wrong", 1, bad);
            facts(&stack, &layouts, &mut ledger);
            let (idle, _) = spans.timed("serve.idle_swap", root, |id| idle_swap(&live, &spans, id));
            s.check("idle swap failed", idle.is_ok());
            match idle {
                Ok((publish_s, activate_s)) => {
                    ledger.put("serve.publish_ms", publish_s * 1e3, 1);
                    ledger.put("serve.activate_us", activate_s * 1e6, 1);
                }
                Err(error) => eprintln!("bench_suite: idle swap failed: {error}"),
            }
            stage_span_means(&stack.serve, &mut ledger);
            serve_stats(&stack.serve.stats(), &mut ledger);
        }
        drop((layouts, live, twin));
        let Stack { serve, .. } = stack;
        let (_, shutdown_s) = spans.timed("serve.shutdown", root, |_| {
            serve.shutdown();
            drop(twin_serve);
        });
        ledger.put("serve.shutdown_ms", shutdown_s * 1e3, 1);
        root
    });

    let swaps = std::mem::take(&mut *s.swaps.lock().expect("no swapper panicked"));
    for error in &swaps.errors {
        eprintln!("bench_suite: swap failed: {error}");
        s.check("swap failed", false);
    }
    // A simulated time must repeat bit for bit within a run.
    let first = s.sims[0];
    let repeats = s.sims.iter().all(|r| {
        r.gpu_device_s.to_bits() == first.gpu_device_s.to_bits()
            && r.fpga_device_s.to_bits() == first.fpga_device_s.to_bits()
    });
    if !repeats {
        eprintln!("bench_suite: simulated device time differed between rounds");
    }
    s.check("simulated time not repeatable", repeats);

    end_to_end(&mut ledger, &s);
    let snapshot = spans.snapshot();
    if traced {
        per_layer(&mut ledger, &s, &swaps, inputs, &w);
        ledger.put("trace.coverage_share", coverage(&snapshot, root), 1);
        ledger.put("trace.spans", snapshot.len() as f64, 1);
    }
    Outcome {
        attempted: s.attempted,
        failed: s.failed,
        failures: s.failures.into_iter().collect(),
        due: s.due,
        deadline_missed: s.due - s.in_deadline,
        ledger,
        spans: snapshot,
    }
}

fn end_to_end(ledger: &mut Ledger, s: &Samples) {
    let setup: Vec<f64> = s.setup.iter().map(SetupTimes::total).collect();
    ledger.put("setup_s", median(&setup), setup.len());
    ledger.put("peak_rss_mb", peak_rss_mb(), 1);
    for (name, speedup) in LAYOUT_NAMES.into_iter().zip(&s.speedup) {
        ledger.put(format!("speedup_{name}"), median(speedup), speedup.len());
    }
    if !s.window_p50_us.is_empty() {
        ledger.put("p50_us", median(&s.window_p50_us), s.window_p50_us.len());
    }
    ledger.put("deadline_ok_share", s.in_deadline as f64 / s.due as f64, s.due as usize);
    ledger.put("capacity_vs_reference", median(&s.capacity_ratio), s.capacity_ratio.len());
    ledger.put("sim_gpu_hybrid_device_s", s.sims[0].gpu_device_s, s.sims.len());
    ledger.put("sim_fpga_hybrid_device_s", s.sims[0].fpga_device_s, s.sims.len());
}

/// Sizes and counts that are exact properties of the built stack.
fn facts(stack: &Stack, layouts: &[Layout<'_>; 4], ledger: &mut Ledger) {
    ledger.put("forest.nodes", stack.model.forest().total_nodes() as f64, 1);
    for layout in layouts {
        ledger.put(format!("core.{}.bytes", layout.name), layout.bytes as f64, 1);
    }
    ledger.put("core.packed_fil.shards", stack.packed_fil.num_shards() as f64, 1);
}

/// Publishes forest A once more on the idle service and activates it,
/// then hands serving back: `(publish seconds, activate seconds)`.
fn idle_swap(live: &Live<'_>, spans: &SpanLog, parent: SpanId) -> Result<(f64, f64), String> {
    let previous = live.serve.active_version();
    let times = live.publish_and_activate(Side::A, spans, parent)?;
    live.serve.activate(previous).map_err(|e| format!("re-activate: {e}"))?;
    Ok(times)
}

/// Mean duration of each of the service's own stage spans, read through
/// its public telemetry handle. A stage with no retained span is left
/// out, and the run then reports the metric as missing.
fn stage_span_means(serve: &RfxServe, ledger: &mut Ledger) {
    let trace = serve.telemetry().trace_snapshot();
    for stage in ["queue_wait", "dispatch", "traverse", "deliver"] {
        let span = format!("serve.batch.{stage}");
        let us: Vec<f64> =
            trace.spans.iter().filter(|s| s.name == span).map(|s| s.duration_us as f64).collect();
        if !us.is_empty() {
            ledger.put(format!("serve.stage.{stage}_us"), mean(&us), us.len());
        }
    }
}

/// The service's own whole-run account (its histograms carry a 12.5 %
/// bucket error, which is why no end-to-end metric reads them).
fn serve_stats(stats: &ServeStats, ledger: &mut Ledger) {
    let waits = stats.queue_wait.count as usize;
    ledger.put("serve.queue_wait_p50_us", stats.queue_wait.p50_us as f64, waits);
    ledger.put("serve.queue_wait_p99_us", stats.queue_wait.p99_us as f64, waits);
    if let Some(exec) = stats.backends.first().map(|b| &b.batch_latency) {
        ledger.put("serve.batch_exec_p50_us", exec.p50_us as f64, exec.count as usize);
        ledger.put("serve.batch_exec_p99_us", exec.p99_us as f64, exec.count as usize);
    }
    let batches = stats.batches as usize;
    ledger.put("serve.batch_rows_mean", stats.mean_batch_occupancy, batches);
    ledger.put("serve.batch_rows_max", stats.max_batch_occupancy as f64, batches);
    ledger.put("serve.batches", stats.batches as f64, 1);
    let admitted = stats.submitted_rows.max(1) as f64;
    let offered = (stats.submitted_rows + stats.rejected_rows).max(1) as f64;
    ledger.put("serve.rejected_share", stats.rejected_rows as f64 / offered, 1);
    ledger.put("serve.shed_share", stats.shed_rows as f64 / admitted, 1);
    ledger.put("serve.failed_share", stats.failed_rows as f64 / admitted, 1);
}

fn per_layer(ledger: &mut Ledger, s: &Samples, swaps: &Swaps, inputs: &Inputs, w: &Workload) {
    let n = s.setup.len();
    let step = |f: fn(&SetupTimes) -> f64| median(&s.setup.iter().map(f).collect::<Vec<_>>());
    ledger.put("data.generate_s", inputs.generate_s, 1);
    ledger.put("forest.train_s", inputs.train_s, 1);
    ledger.put("forest.model_bytes", inputs.forest_a.len() as f64, 1);
    ledger.put("forest.read_ms", step(|t| t.read) * 1e3, n);
    ledger.put("core.hier.build_ms", step(|t| t.prepare) * 1e3, n);
    ledger.put("core.fil.build_ms", step(|t| t.fil) * 1e3, n);
    ledger.put("core.qfil8.build_ms", step(|t| t.qfil8) * 1e3, n);
    ledger.put("core.packed_fil.build_ms", step(|t| t.packed_fil) * 1e3, n);
    ledger.put("core.pack.profile_ms", step(|t| t.profile) * 1e3, n);
    ledger.put("serve.start_ms", step(|t| t.start) * 1e3, n);
    ledger.put("serve.first_answer_us", step(|t| t.first_answer) * 1e6, n);

    for (name, pass_s) in LAYOUT_NAMES.into_iter().zip(&s.pass_s) {
        ledger.put(
            format!("kernels.{name}.ns_per_row_tree"),
            min(pass_s) * 1e9 / (inputs.rows() * w.trees) as f64,
            pass_s.len(),
        );
    }
    if let (Some(all), Some(one)) = (
        ledger.value("kernels.fil.ns_per_row_tree"),
        ledger.value("kernels.fil.ns_per_row_tree_1t"),
    ) {
        ledger.put("kernels.fil.scaling", one / all, 1);
    }

    let sims = &s.sims[0];
    let gpu_host: Vec<f64> = s.sims.iter().map(|r| r.gpu_host_s).collect();
    let fpga_host: Vec<f64> = s.sims.iter().map(|r| r.fpga_host_s).collect();
    ledger.put("gpu-sim.hybrid.device_s", sims.gpu_device_s, s.sims.len());
    ledger.put("gpu-sim.hybrid.host_s", min(&gpu_host), gpu_host.len());
    ledger.put("gpu-sim.hybrid.global_load_transactions", sims.gpu_global_loads as f64, 1);
    ledger.put("gpu-sim.hybrid.l2_misses", sims.gpu_l2_misses as f64, 1);
    ledger.put(
        "gpu-sim.hybrid.host_ns_per_device_cycle",
        min(&gpu_host) * 1e9 / sims.gpu_cycles.max(1) as f64,
        gpu_host.len(),
    );
    ledger.put("fpga-sim.hybrid.device_s", sims.fpga_device_s, s.sims.len());
    ledger.put("fpga-sim.hybrid.host_s", min(&fpga_host), fpga_host.len());
    ledger.put("fpga-sim.hybrid.stall_fraction", sims.fpga_stall_fraction, 1);
    ledger.put("fpga-sim.hybrid.ext_read_bytes", sims.fpga_ext_read_bytes as f64, 1);

    ledger.put(
        "reference.ns_per_row_tree",
        min(&s.reference_s) * 1e9 / (reference_rows(inputs) * w.trees) as f64,
        s.reference_s.len(),
    );
    ledger.put("serve.capacity_rows_per_s", max(&s.capacity), s.capacity.len());
    if !s.window_p99_us.is_empty() {
        ledger.put("serve.p99_us", lower_quartile(&s.window_p99_us), s.window_p99_us.len());
    }
    ledger.put("serve.submit_us", median(&s.submit_us), s.submit_us.len());
    ledger.put("serve.generator_late_p99_us", quantile(&s.late_us, 0.99), s.late_us.len());
    if let (Some(p50), Some(wait), Some(exec)) = (
        ledger.value("p50_us"),
        ledger.value("serve.queue_wait_p50_us"),
        ledger.value("serve.batch_exec_p50_us"),
    ) {
        ledger.put("serve.residual_p50_us", p50 - wait - exec, 1);
    }
    // Workloads that never swap report 0: the traced result line must
    // carry every per-layer name on every workload.
    debug_assert_eq!(w.swap, !swaps.publish_s.is_empty());
    let under_load = if swaps.publish_s.is_empty() { 0.0 } else { median(&swaps.publish_s) * 1e3 };
    ledger.put("serve.publish_under_load_ms", under_load, swaps.publish_s.len());
    ledger.put(
        "serve.capacity_batch_rows_mean",
        s.capacity_rows as f64 / s.capacity_batches.max(1) as f64,
        s.capacity_batches as usize,
    );
    ledger.put(
        "telemetry.trace_overhead_share",
        1.0 - max(&s.capacity) / max(&s.capacity_twin),
        s.capacity.len(),
    );
    ledger.put("host.calib_ns", median(&s.calib_ns), s.calib_ns.len());
    ledger.put("host.calib_spread", quartile_ratio(&s.calib_ns), s.calib_ns.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::generate;
    use crate::ledger::{END_TO_END, PER_LAYER};
    use crate::workloads::ALL;

    fn smoke(workload: usize, traced: bool, self_test: bool) -> Outcome {
        let w = ALL[workload].smoke();
        let options = Options { workload: w, shape: Shape::SMOKE, traced, self_test };
        run(&options, &generate(&w, 2))
    }

    #[test]
    fn shape_follows_seconds() {
        assert_eq!(Shape::for_seconds(18.0).rounds, 9);
        assert_eq!(Shape::for_seconds(60.0).rounds, 30);
        assert_eq!(Shape::for_seconds(1.0).rounds, 2, "never fewer than two rounds");
    }

    /// The whole swap workload on toy inputs, traced: nothing fails,
    /// every listed metric of both lists gets a value, and the spans
    /// cover the run.
    #[test]
    fn a_traced_smoke_run_reports_every_metric() {
        let outcome = smoke(3, true, false);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted > outcome.due && outcome.due > 0);
        assert_eq!(outcome.ledger.missing(END_TO_END), Vec::<&str>::new());
        assert_eq!(outcome.ledger.missing(PER_LAYER), Vec::<&str>::new());
        assert!(outcome.ledger.value("trace.coverage_share").unwrap() >= 0.95);
        assert!(outcome.ledger.value("serve.publish_under_load_ms").unwrap() > 0.0);
        assert!(outcome.spans.iter().any(|s| s.name == "serve.publish"));
    }

    #[test]
    fn an_untraced_smoke_run_records_no_spans_and_no_swaps() {
        let outcome = smoke(1, false, false);
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.ledger.missing(END_TO_END), Vec::<&str>::new());
        assert!(outcome.spans.is_empty());
        assert!(outcome.ledger.value("serve.publish_under_load_ms").is_none());
    }

    /// One corrupted expected label must fail engine passes, cold
    /// starts and a request; one corrupted due time per window must
    /// miss the deadline.
    #[test]
    fn the_self_test_corruption_is_reported() {
        let outcome = smoke(2, false, true);
        assert!(outcome.failed >= 3, "{}", outcome.failed);
        assert!(
            outcome.deadline_missed > Shape::SMOKE.rounds as u64,
            "{}",
            outcome.deadline_missed
        );
        assert!(outcome.ledger.value("deadline_ok_share").unwrap() < 1.0);
    }
}
