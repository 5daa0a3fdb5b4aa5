//! `steady`: the healthy all-pairs monitoring loop on FatTree(6).
//!
//! Every epoch replays one interval of traffic at 1% sampled loss and
//! runs one `run_epoch`. Nothing is injected and nothing changes, so every
//! round is Full and every solve after the first is warm.

use crate::common::*;
use crate::stats::Ledger;
use crate::trace::Tracer;
use crate::truth::epoch_ok;
use foces::SlicedFcm;
use foces_controlplane::{provision, Deployment, RuleGranularity};
use foces_dataplane::LossModel;
use foces_net::generators::fattree;
use foces_runtime::{
    detect_parallel, DetectionMode, FaultProfile, RuntimeConfig, RuntimeService, SimTransport,
};
use std::time::{Duration, Instant};

/// Fat-tree arity.
pub const K: usize = 6;

/// Epochs of the work budget per second of `--seconds`.
pub const RATE: f64 = 24.0;

fn set_up(o: &RunOptions, config: RuntimeConfig) -> (Deployment, RuntimeService, f64) {
    let topo = fattree(K);
    let flows = all_pairs(&topo);
    let (dep, provision_ms) = time_ms(|| {
        provision(topo, &flows, RuleGranularity::PerDestination).expect("fat-trees provision")
    });
    let transport = SimTransport::new(o.stream("channel"), FaultProfile::default());
    let svc = RuntimeService::with_sim_transport(&dep.view, transport, config);
    (dep, svc, provision_ms)
}

/// Runs the workload.
pub fn run(o: &RunOptions) -> Outcome {
    let mut out = Outcome::default();
    let config = RuntimeConfig::default();
    let mut provision_ms = Vec::new();
    let mut setup = Setup::new(|| {
        let (dep, svc, p) = set_up(o, config);
        provision_ms.push(p);
        (dep, svc)
    });
    let (mut dep, mut svc) = setup.window();
    out.note(format!(
        "input: FatTree({K}) per-destination all-pairs, {} flows x {} rules, loss {LOSS_RATE}, \
         lossless channel, solver path {}",
        svc.pipeline().fcm().flow_count(),
        svc.pipeline().fcm().rule_count(),
        solver_path_name(svc.pipeline().fcm().flow_count())
    ));
    if o.trace {
        let view = dep.view.clone();
        setup_components(&mut out, &view, config.oracle_cap, || {
            let transport = SimTransport::new(o.stream("channel"), FaultProfile::default());
            RuntimeService::with_sim_transport(&view, transport, config)
        });
    }
    let sliced = o.trace.then(|| SlicedFcm::from_fcm(svc.pipeline().fcm()));

    let mut loss = LossModel::sampled(LOSS_RATE, o.stream("loss"));
    let mut tracer = Tracer::new(o.trace);
    let mut counters = Counters::default();
    let mut ledger = Ledger::default();
    let (mut not_full, mut not_warm) = (0u64, 0u64);
    let mut parallel_ms = Vec::new();
    let mut detect_ms = Vec::new();
    let mut collect_ms = Vec::new();
    let mut busy = Duration::ZERO;
    let budget = o.budget(RATE, 1);
    let cap = o.cap();
    let mut epoch = 0u64;
    while epoch < budget && Instant::now() < cap {
        let t0 = Instant::now();
        let ep = tracer.open("epoch", Some(epoch), None);
        dep.dataplane.reset_counters();
        tracer.span("dataplane.replay", Some(epoch), ep, || {
            dep.replay_traffic(&mut loss)
        });
        let (r, verdict_ms, before) = traced_run_epoch(&mut tracer, epoch, ep, &mut svc, &dep);
        counters.add(&before, svc.metrics());
        tracer.close(ep);
        busy += t0.elapsed();
        let warmup = epoch == 0;
        if let Ok(rep) = &r {
            not_full += u64::from(rep.mode != DetectionMode::Full);
            not_warm += u64::from(!warmup && !rep.solve_path.is_some_and(|p| p.is_warm()));
        }
        ledger.record(verdict_ms, epoch_ok(&r), warmup);
        if let Some(sliced) = &sliced {
            // Standalone probes on the same epoch's counters, outside the
            // epoch span.
            let (counters, ms) = time_ms(|| dep.dataplane.collect_counters());
            collect_ms.push(ms);
            let det = svc.pipeline().detector();
            parallel_ms.push(time_ms(|| detect_parallel(sliced, det, &counters, config.workers)).1);
            detect_ms.push(time_ms(|| det.detect(svc.pipeline().fcm(), &counters)).1);
        }
        epoch += 1;
    }
    out.check(not_full == 0, format!("{not_full} rounds were not Full"));
    out.check(
        not_warm == 0,
        format!("{not_warm} rounds after the first did not solve warm"),
    );

    out.tally = ledger.tally;
    note_budget(&mut out, "epochs", epoch, budget);
    out.note(format!("verdict (run_epoch): {}", ledger.timing.describe()));
    out.e2e("epochs_per_s", epoch as f64 / busy.as_secs_f64(), "1/s");
    out.e2e(
        "verdict_ms_mean",
        ledger.timing.mean().unwrap_or(f64::NAN),
        "ms",
    );
    out.e2e(
        "verdict_ms_p90",
        ledger.timing.percentile(90).unwrap_or(f64::NAN),
        "ms",
    );
    if o.trace {
        runtime_layers(&mut out, &counters, &svc, &tracer);
        out.layer(
            "dataplane.replay_ms_p50",
            p50_of(tracer.durations("dataplane.replay")),
            "ms",
        );
        out.layer("dataplane.collect_ms_p50", p50_of(collect_ms), "ms");
        out.layer("runtime.detect_parallel_ms_p50", p50_of(parallel_ms), "ms");
        out.layer("core.detect_ms_p50", p50_of(detect_ms), "ms");
        out.layer(
            "core.solver_path",
            solver_path_code(svc.pipeline().fcm().flow_count()),
            "code",
        );
        finish_trace(&mut out, &tracer, "steady", o);
    }
    // The second set-up window, with the loop's state gone.
    drop((dep, svc));
    setup.window();
    out.e2e("setup_s", setup.mean_secs(), "s");
    if o.trace {
        out.layer("controlplane.provision_ms", p50_of(provision_ms), "ms");
    }
    out
}
