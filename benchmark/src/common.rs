//! Pieces every workload shares: run options, seeded input streams, the
//! run outcome, and the set-up/runtime instrumentation of the traced run.

use crate::stats::{Tally, Timing};
use crate::trace::{SpanId, Tracer};
use foces::{analyze_coverage, audit_deviations, CoverageConfig, Fcm, SlicedFcm};
use foces_controlplane::{ControllerView, FlowSpec};
use foces_net::Topology;
use foces_runtime::{RuntimeMetrics, RuntimeService};
use foces_verify::{verify_fcm, verify_with, VerifyOptions};
use std::time::{Duration, Instant};

/// Per-link packet-loss rate of every workload's traffic replay.
pub const LOSS_RATE: f64 = 0.01;

/// Packets per flow per collection interval.
pub const FLOW_RATE: f64 = 1000.0;

/// Set-up runs at least this many times in each window.
pub const SETUP_MIN_REPEATS: usize = 2;

/// A window repeats set-up (up to [`SETUP_MAX_REPEATS`] times) until it
/// has taken this long, so cheap set-ups get more samples.
pub const SETUP_MIN_TOTAL: Duration = Duration::from_secs(2);

/// Upper bound on set-up repeats per window.
pub const SETUP_MAX_REPEATS: usize = 50;

/// A workload's set-up, timed in two windows: one before the timed loop
/// and one after it, once the loop's state is dropped. `setup_s` is the
/// mean over both. The box runs at one of two speeds for seconds at a
/// time (churn's set-up took 19 ms in one stretch and 26 ms in the
/// next), so one window, or a median, reports whichever speed held then.
pub struct Setup<F> {
    set_up: F,
    times: Vec<Duration>,
}

impl<F> Setup<F> {
    /// A set-up that `window` runs.
    pub fn new(set_up: F) -> Self {
        Self {
            set_up,
            times: Vec::new(),
        }
    }

    /// Runs one window of set-ups (see [`SETUP_MIN_REPEATS`]) and returns
    /// the last result.
    pub fn window<T>(&mut self) -> T
    where
        F: FnMut() -> T,
    {
        let (mut n, mut spent, mut kept) = (0, Duration::ZERO, None);
        while n < SETUP_MIN_REPEATS || (spent < SETUP_MIN_TOTAL && n < SETUP_MAX_REPEATS) {
            drop(kept.take());
            let t = Instant::now();
            kept = Some((self.set_up)());
            let took = t.elapsed();
            self.times.push(took);
            (n, spent) = (n + 1, spent + took);
        }
        kept.expect("set up at least once")
    }

    /// Mean wall time of every set-up so far, in seconds.
    pub fn mean_secs(&self) -> f64 {
        self.times.iter().sum::<Duration>().as_secs_f64() / self.times.len().max(1) as f64
    }
}

/// How many times `--seconds` a timed loop may run before it stops short
/// of its budget.
pub const CAP_FACTOR: u64 = 5;

/// Options of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Seed every input stream is derived from.
    pub seed: u64,
    /// Length of the timed loop on the reference box; sets the run's
    /// work budget (see [`RunOptions::budget`]).
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl RunOptions {
    /// The run's work budget: `per_second` operations for every second
    /// of `--seconds`, rounded up to whole groups of `group` operations,
    /// at least one group. Each workload's rate is about what a 2-vCPU
    /// VM completes, so the loop takes about `--seconds` there. A fixed
    /// budget, not a deadline, is what makes a seed's operations, and so
    /// its failures, the same on every run whatever the speed of the box.
    pub fn budget(&self, per_second: f64, group: u64) -> u64 {
        let ops = (self.seconds as f64 * per_second).ceil() as u64;
        ops.div_ceil(group).max(1) * group
    }

    /// When a timed loop gives up on its budget: [`CAP_FACTOR`] times
    /// `--seconds` from now, so that a box far slower than the reference
    /// still ends the run in time. A loop that hits it says so.
    pub fn cap(&self) -> Instant {
        Instant::now() + Duration::from_secs(self.seconds * CAP_FACTOR)
    }

    /// An independent 64-bit seed for the input stream named `stream`.
    pub fn stream(&self, stream: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        splitmix(self.seed ^ h)
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Every ordered host pair of `topo`, [`FLOW_RATE`] packets each.
pub fn all_pairs(topo: &Topology) -> Vec<FlowSpec> {
    let n = topo.host_count() as f64;
    foces_controlplane::uniform_flows(topo, n * (n - 1.0) * FLOW_RATE)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed against ground truth.
    pub tally: Tally,
    /// Workload-shape violations; a run with any reports no metrics.
    pub shape_errors: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed before the result (sample counts,
    /// provenance, shape facts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a shape check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.shape_errors.push(what.into());
        }
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Notes how much of its work budget a timed loop did.
pub fn note_budget(out: &mut Outcome, what: &str, done: u64, budget: u64) {
    if done < budget {
        out.note(format!(
            "work budget: stopped at the time cap after {done} of {budget} {what}"
        ));
    } else {
        out.note(format!("work budget: {budget} {what}"));
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times `f` once, in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, ms_since(t))
}

/// The resolved side of `SolverKind::Auto` for an FCM of `flows`
/// columns: 0 = direct, 1 = iterative.
pub fn solver_path_code(flows: usize) -> f64 {
    if flows <= foces::SolverKind::AUTO_DIRECT_LIMIT {
        0.0
    } else {
        1.0
    }
}

/// Name of [`solver_path_code`].
pub fn solver_path_name(flows: usize) -> &'static str {
    if solver_path_code(flows) == 0.0 {
        "direct"
    } else {
        "iterative"
    }
}

/// Times the calls `RuntimeService::new` makes, one by one, on the same
/// view, then the service constructor itself, and reports each together
/// with the part of the constructor they leave unexplained.
pub fn setup_components(
    out: &mut Outcome,
    view: &ControllerView,
    oracle_cap: usize,
    build_service: impl FnOnce() -> RuntimeService,
) {
    let (_, trace_ms) = time_ms(|| foces_atpg::trace_flows(view));
    let (fcm, fcm_ms) = time_ms(|| Fcm::from_view(view));
    let (_, verify_ms) = time_ms(|| verify_view(view, &fcm));
    let (_, coverage_ms) = time_ms(|| analyze_coverage(&fcm, &CoverageConfig::default()));
    let (_, slice_ms) = time_ms(|| SlicedFcm::from_fcm(&fcm));
    let (audit, audit_ms) = time_ms(|| audit_deviations(view, &fcm, oracle_cap));
    let (svc, service_ms) = time_ms(build_service);
    drop(svc);
    let explained = fcm_ms + verify_ms + coverage_ms + slice_ms + audit_ms;
    out.layer("atpg.trace_ms", trace_ms, "ms");
    out.layer("core.fcm_build_ms", fcm_ms, "ms");
    out.layer("verify.verify_ms", verify_ms, "ms");
    out.layer("core.coverage_ms", coverage_ms, "ms");
    out.layer("core.slice_ms", slice_ms, "ms");
    out.layer("core.audit_ms", audit_ms, "ms");
    out.layer(
        "core.audit_candidates",
        (audit.detectable.len() + audit.undetectable.len() + audit.stale.len()) as f64,
        "count",
    );
    out.layer("runtime.service_new_ms", service_ms, "ms");
    out.note(format!(
        "set-up components: service_new {service_ms:.1} ms = fcm {fcm_ms:.1} (of which trace \
         {trace_ms:.1}) + verify {verify_ms:.1} + coverage {coverage_ms:.1} + slice \
         {slice_ms:.1} + audit {audit_ms:.1} + unexplained {:.1} ms",
        service_ms - explained
    ));
    out.layer("runtime.setup_unexplained_ms", service_ms - explained, "ms");
}

/// The service's static verification pass, called standalone.
pub fn verify_view(view: &ControllerView, fcm: &Fcm) -> usize {
    let mut report = verify_with(
        view,
        &VerifyOptions {
            expected_shadowed: view.touched_rules_since(0),
            check_fcm: false,
        },
    );
    report.findings.extend(verify_fcm(view, fcm));
    report.findings.len()
}

/// Runs one `run_epoch` inside a span and turns the service's metric
/// deltas into child spans of it. Returns the report, the wall time (ms)
/// and the metrics before the call.
pub fn traced_run_epoch(
    tracer: &mut Tracer,
    epoch: u64,
    parent: Option<SpanId>,
    svc: &mut RuntimeService,
    dep: &foces_controlplane::Deployment,
) -> (
    Result<foces_runtime::EpochReport, foces_runtime::RuntimeError>,
    f64,
    RuntimeMetrics,
) {
    let before = *svc.metrics();
    let id = tracer.open("runtime.run_epoch", Some(epoch), parent);
    let t = Instant::now();
    let r = svc.run_epoch(&dep.dataplane, &dep.view);
    let wall = ms_since(t);
    tracer.close(id);
    if tracer.enabled() {
        // The service reports busy time per stage, not intervals: lay the
        // stages out in the order run_epoch executes them.
        let after = svc.metrics();
        let mut offset = Duration::ZERO;
        for (name, secs) in [
            ("channel.collect", after.collect_secs - before.collect_secs),
            ("runtime.build", after.build_secs - before.build_secs),
            ("runtime.solve", after.solve_secs - before.solve_secs),
            ("runtime.verify", after.verify_secs - before.verify_secs),
        ] {
            let len = Duration::from_secs_f64(secs.max(0.0));
            tracer.child_from_duration(name, id, offset, len);
            offset += len;
        }
    }
    (r, wall, before)
}

/// Service counters summed over a timed loop, across every service the
/// loop used.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters(RuntimeMetrics);

impl Counters {
    /// Adds the change from `before` to `after` (one service's metrics).
    pub fn add(&mut self, before: &RuntimeMetrics, after: &RuntimeMetrics) {
        let (a, b, s) = (after, before, &mut self.0);
        s.collect_secs += a.collect_secs - b.collect_secs;
        s.build_secs += a.build_secs - b.build_secs;
        s.solve_secs += a.solve_secs - b.solve_secs;
        s.verify_secs += a.verify_secs - b.verify_secs;
        for (f, x, y) in [
            (&mut s.polls, a.polls, b.polls),
            (&mut s.retries, a.retries, b.retries),
            (&mut s.warm_solves, a.warm_solves, b.warm_solves),
            (&mut s.cold_solves, a.cold_solves, b.cold_solves),
            (&mut s.fcm_rebuilds, a.fcm_rebuilds, b.fcm_rebuilds),
            (&mut s.full_rounds, a.full_rounds, b.full_rounds),
            (
                &mut s.reconciled_rounds,
                a.reconciled_rounds,
                b.reconciled_rounds,
            ),
            (&mut s.degraded_rounds, a.degraded_rounds, b.degraded_rounds),
            (&mut s.cg_iterations, a.cg_iterations, b.cg_iterations),
            (&mut s.loo_solves, a.loo_solves, b.loo_solves),
            (&mut s.loo_downdates, a.loo_downdates, b.loo_downdates),
            (&mut s.liars_localized, a.liars_localized, b.liars_localized),
            (
                &mut s.quarantine_releases,
                a.quarantine_releases,
                b.quarantine_releases,
            ),
        ] {
            *f += x - y;
        }
    }

    /// The summed counters.
    pub fn get(&self) -> &RuntimeMetrics {
        &self.0
    }
}

/// Reports the service-level per-layer metrics of a timed loop: the
/// summed counters, the last service's cache sizes, and the traced
/// `run_epoch` population.
pub fn runtime_layers(out: &mut Outcome, sum: &Counters, svc: &RuntimeService, tracer: &Tracer) {
    let m = sum.get();
    let solves = (m.warm_solves + m.cold_solves) as f64;
    out.layer("channel.collect_ms", m.collect_secs * 1e3, "ms");
    out.layer("channel.polls", m.polls as f64, "count");
    out.layer("channel.retries", m.retries as f64, "count");
    out.layer(
        "runtime.run_epoch_ms_p50",
        p50_of(tracer.durations("runtime.run_epoch")),
        "ms",
    );
    out.layer("runtime.solve_ms", m.solve_secs * 1e3, "ms");
    out.layer("runtime.build_ms", m.build_secs * 1e3, "ms");
    out.layer("runtime.verify_ms", m.verify_secs * 1e3, "ms");
    out.layer("runtime.warm_solves", m.warm_solves as f64, "count");
    out.layer("runtime.cold_solves", m.cold_solves as f64, "count");
    out.layer(
        "runtime.warm_share",
        if solves > 0.0 {
            m.warm_solves as f64 / solves
        } else {
            0.0
        },
        "ratio",
    );
    out.layer("runtime.fcm_rebuilds", m.fcm_rebuilds as f64, "count");
    out.layer("runtime.full_rounds", m.full_rounds as f64, "count");
    out.layer(
        "runtime.reconciled_rounds",
        m.reconciled_rounds as f64,
        "count",
    );
    out.layer("runtime.degraded_rounds", m.degraded_rounds as f64, "count");
    out.layer(
        "runtime.mask_cache_entries",
        svc.pipeline().cached_masks() as f64,
        "count",
    );
    out.layer(
        "runtime.reconcile_cache_entries",
        svc.pipeline().cached_reconciliations() as f64,
        "count",
    );
    out.layer("sparse.cg_iterations", m.cg_iterations as f64, "count");
    out.layer("core.loo_solves", m.loo_solves as f64, "count");
    out.layer("core.loo_downdates", m.loo_downdates as f64, "count");
    out.layer("runtime.liars_localized", m.liars_localized as f64, "count");
    out.layer(
        "runtime.quarantine_releases",
        m.quarantine_releases as f64,
        "count",
    );
}

/// Median of `v`, 0 when empty (a layer the workload never calls).
pub fn p50_of(v: Vec<f64>) -> f64 {
    let mut t = Timing::default();
    for x in v {
        t.push(x);
    }
    t.p50().unwrap_or(0.0)
}

/// Writes out the traced run's spans: every span to
/// `trace-<workload>-<seed>.jsonl` beside the benchmark's executable (the
/// build directory), and a per-name summary (count, total and self time)
/// to the report. Checks that the replay, update and `run_epoch` spans
/// cover at least 95% of every epoch's wall time.
pub fn finish_trace(out: &mut Outcome, tracer: &Tracer, workload: &str, o: &RunOptions) {
    let file = format!("trace-{workload}-{}.jsonl", o.seed);
    let written = std::env::current_exe()
        .map(|exe| exe.with_file_name(&file))
        .and_then(|path| std::fs::write(&path, tracer.to_jsonl()).map(|()| path));
    match written {
        Ok(path) => out.note(format!("spans written to {}", path.display())),
        Err(e) => out.note(format!("spans not written ({file}): {e}")),
    }
    for (name, (count, total, own)) in tracer.summary() {
        out.note(format!(
            "span {name:<28} count {count:>6}  total {total:>11.3} ms  self {own:>11.3} ms"
        ));
    }
    let min = tracer
        .child_coverage("epoch")
        .into_iter()
        .fold(1.0_f64, f64::min);
    out.check(
        min >= 0.95,
        format!(
            "replay/update/run_epoch spans cover only {:.1}% of an epoch",
            min * 100.0
        ),
    );
    out.layer("trace.epoch_coverage_min", min, "ratio");
    out.layer("trace.spans", tracer.spans().len() as f64, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(seconds: u64) -> RunOptions {
        RunOptions {
            seed: 1,
            seconds,
            trace: false,
        }
    }

    #[test]
    fn budget_rounds_up_to_whole_groups() {
        assert_eq!(options(20).budget(24.0, 1), 480);
        assert_eq!(options(20).budget(19.0, 20), 380);
        assert_eq!(options(20).budget(19.1, 20), 400);
        assert_eq!(options(20).budget(2.3, 2), 46);
        assert_eq!(options(20).budget(0.08, 1), 2);
        assert_eq!(options(1).budget(0.01, 10), 10, "at least one group");
    }

    #[test]
    fn setup_is_timed_in_windows_and_averaged() {
        let mut calls = 0;
        let mut setup = Setup::new(|| {
            calls += 1;
            calls
        });
        // A cheap set-up repeats up to the cap in each window, and a
        // window returns its last result.
        assert_eq!(setup.window(), SETUP_MAX_REPEATS);
        assert_eq!(setup.window(), 2 * SETUP_MAX_REPEATS);
        assert_eq!(setup.times.len(), 2 * SETUP_MAX_REPEATS);
        assert!(setup.mean_secs() < 0.01);

        let mut slow = Setup::new(|| std::thread::sleep(Duration::from_millis(1100)));
        slow.window();
        assert_eq!(slow.times.len(), SETUP_MIN_REPEATS, "two repeats pass 2 s");
        assert!(slow.mean_secs() >= 1.1);
    }

    #[test]
    fn budget_depends_only_on_the_options() {
        let o = options(7);
        assert_eq!(o.budget(3.5, 4), o.budget(3.5, 4));
        assert_eq!(options(7).stream("loss"), o.stream("loss"));
        assert_ne!(o.stream("loss"), o.stream("updates"));
    }
}
