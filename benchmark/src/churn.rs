//! `churn`: every epoch is an update epoch, on FatTree(4).
//!
//! Each epoch replays half its traffic, applies one seeded
//! `reroute_flow_via` (falling back to `refine_flow` when the stitched
//! path is not simple), replays the other half, and runs one
//! `run_epoch`, which reconciles the mixed counters and then rebuilds
//! the FCM. Reroutes only ever add rules, so the network is restored to
//! its provisioned state every [`SEGMENT`] epochs; the restore is not
//! part of any epoch.

use crate::common::*;
use crate::stats::Ledger;
use crate::trace::Tracer;
use crate::truth::epoch_ok;
use foces::FcmDelta;
use foces_controlplane::{provision, Deployment, RuleGranularity};
use foces_dataplane::LossModel;
use foces_net::generators::fattree;
use foces_net::SwitchId;
use foces_runtime::{FaultProfile, RuntimeConfig, RuntimeService, SimTransport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Fat-tree arity.
pub const K: usize = 4;

/// Epochs between restores of the provisioned network.
pub const SEGMENT: u64 = 20;

/// Epochs of the work budget per second of `--seconds`.
pub const RATE: f64 = 19.0;

fn service(o: &RunOptions, dep: &Deployment, config: RuntimeConfig) -> RuntimeService {
    let transport = SimTransport::new(o.stream("channel"), FaultProfile::default());
    RuntimeService::with_sim_transport(&dep.view, transport, config)
}

/// Applies one seeded update: a reroute of a random flow via a random
/// switch, or a refinement of that flow when the reroute is refused.
/// Returns whether it was a reroute.
pub fn apply_update(dep: &mut Deployment, rng: &mut StdRng) -> bool {
    let flow = rng.gen_range(0..dep.flows.len());
    let via = SwitchId(rng.gen_range(0..dep.view.topology().switch_count()));
    if dep.reroute_flow_via(flow, &[via]).is_ok() {
        true
    } else {
        dep.refine_flow(flow).expect("provisioned flows refine");
        false
    }
}

/// Runs the workload.
pub fn run(o: &RunOptions) -> Outcome {
    let mut out = Outcome::default();
    let config = RuntimeConfig::default();
    let mut provision_ms = Vec::new();
    let mut setup = Setup::new(|| {
        let topo = fattree(K);
        let flows = all_pairs(&topo);
        let (dep, p) = time_ms(|| {
            provision(topo, &flows, RuleGranularity::PerDestination).expect("fat-trees provision")
        });
        provision_ms.push(p);
        let svc = service(o, &dep, config);
        (dep, svc)
    });
    let (base, first) = setup.window();
    out.note(format!(
        "input: FatTree({K}) per-destination all-pairs, {} flows x {} rules, loss {LOSS_RATE}, \
         one seeded update per epoch, restored every {SEGMENT} epochs, solver path {}",
        first.pipeline().fcm().flow_count(),
        first.pipeline().fcm().rule_count(),
        solver_path_name(first.pipeline().fcm().flow_count())
    ));
    if o.trace {
        setup_components(&mut out, &base.view, config.oracle_cap, || {
            service(o, &base, config)
        });
    }

    let mut loss = LossModel::sampled(LOSS_RATE, o.stream("loss"));
    let mut updates = StdRng::seed_from_u64(o.stream("updates"));
    let mut tracer = Tracer::new(o.trace);
    let mut counters = Counters::default();
    let mut ledger = Ledger::default();
    let (mut reroutes, mut refines, mut bad_shape, mut errors) = (0u64, 0u64, 0u64, 0u64);
    let mut delta_ms = Vec::new();
    let mut busy = Duration::ZERO;
    // Whole segments only, so every run times the same mix of positions.
    let budget = o.budget(RATE, SEGMENT);
    let cap = o.cap();
    let mut epoch = 0u64;
    let (mut dep, mut svc) = (base.clone(), first);
    while epoch < budget && (!epoch.is_multiple_of(SEGMENT) || Instant::now() < cap) {
        if epoch > 0 && epoch.is_multiple_of(SEGMENT) {
            dep = base.clone();
            svc = service(o, &dep, config);
        }
        let old_fcm = o.trace.then(|| svc.pipeline().fcm().clone());
        let since = svc.fcm_generation();
        let t0 = Instant::now();
        let ep = tracer.open("epoch", Some(epoch), None);
        dep.dataplane.reset_counters();
        tracer.span("dataplane.replay", Some(epoch), ep, || {
            dep.replay_traffic_scaled(&mut loss, 0.5)
        });
        let rerouted = tracer.span("controlplane.reroute", Some(epoch), ep, || {
            apply_update(&mut dep, &mut updates)
        });
        tracer.span("dataplane.replay", Some(epoch), ep, || {
            dep.replay_traffic_scaled(&mut loss, 0.5)
        });
        let (r, verdict_ms, before) = traced_run_epoch(&mut tracer, epoch, ep, &mut svc, &dep);
        tracer.close(ep);
        busy += t0.elapsed();
        counters.add(&before, svc.metrics());
        reroutes += u64::from(rerouted);
        refines += u64::from(!rerouted);
        let m = svc.metrics();
        bad_shape += u64::from(
            m.fcm_rebuilds - before.fcm_rebuilds != 1
                || m.reconciled_rounds - before.reconciled_rounds != 1,
        );
        // The first epoch on a freshly restored network is warm-up.
        let warmup = epoch.is_multiple_of(SEGMENT);
        ledger.record(verdict_ms, epoch_ok(&r), warmup);
        errors += u64::from(r.is_err());
        if let Some(old) = old_fcm {
            // The journal delta the rebuild computed, standalone: the FCM
            // before this epoch's update against the rebuilt one.
            let new = svc.pipeline().fcm();
            delta_ms.push(time_ms(|| FcmDelta::from_journal(&old, new, &dep.view, since)).1);
        }
        epoch += 1;
    }
    out.check(
        bad_shape == 0,
        format!("{bad_shape} epochs did not do exactly one FCM rebuild and one reconciled round"),
    );
    out.tally = ledger.tally;
    note_budget(&mut out, "epochs", epoch, budget);
    out.note(format!(
        "updates: {reroutes} reroutes, {refines} refinements; failed epochs: {} anomalous on a \
         healthy network, {errors} errors; verdict (run_epoch): {}",
        ledger.tally.failed - errors,
        ledger.timing.describe()
    ));
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
            "controlplane.reroute_ms",
            p50_of(tracer.durations("controlplane.reroute")),
            "ms",
        );
        out.layer(
            "dataplane.replay_ms_p50",
            p50_of(tracer.durations("dataplane.replay")),
            "ms",
        );
        out.layer("core.fcm_delta_ms", p50_of(delta_ms), "ms");
        out.layer(
            "core.solver_path",
            solver_path_code(svc.pipeline().fcm().flow_count()),
            "code",
        );
        finish_trace(&mut out, &tracer, "churn", o);
    }
    // The second set-up window, with the loop's state gone.
    drop((base, dep, svc));
    setup.window();
    out.e2e("setup_s", setup.mean_secs(), "s");
    if o.trace {
        out.layer("controlplane.provision_ms", p50_of(provision_ms), "ms");
    }
    out
}
