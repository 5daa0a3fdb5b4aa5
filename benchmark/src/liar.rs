//! `liar`: forged counters localized, confessed and released, on a seeded
//! 600-pair sample of FatTree(8) with per-pair rules.
//!
//! The run repeats one cycle: after an epoch's replay a seeded
//! `CounterFake` is planted on the cycle's liar; epochs run until the
//! service's report names the liar; the liar confesses
//! (`AppliedAnomaly::revert`, which clears the counter fake); epochs run
//! until the quarantine is released and the alarm has cleared. Then the
//! next cycle forges.
//!
//! Cycles come in passes of equal make-up. A pass takes one fresh
//! aggregation and one fresh edge switch and forges on each
//! [`VISITS`] times, alternating: the first visit to a switch quarantines
//! it for the first time, so the service builds a new masked system; the
//! later visits reuse it. Runs stop only between passes, so every run
//! times the same mix of mask builds and cached rounds whatever the speed
//! of the box.

use crate::common::*;
use crate::stats::{Ledger, Timing};
use crate::trace::Tracer;
use crate::truth::{cycle_ok, quarantines_other};
use foces::{cross_validate, AlarmState};
use foces_controlplane::{provision, Deployment, FlowSpec, RuleGranularity};
use foces_dataplane::{inject_random_anomaly, Action, AnomalyKind, AppliedAnomaly, LossModel};
use foces_net::generators::fattree;
use foces_net::{Node, SwitchId, SwitchRole};
use foces_runtime::{ByzantineConfig, FaultProfile, RuntimeConfig, RuntimeService, SimTransport};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Fat-tree arity.
pub const K: usize = 8;

/// Host pairs sampled from the all-pairs set.
pub const PAIRS: usize = 600;

/// Forged epochs after which an unlocalized liar counts as missed.
pub const LOCALIZE_CAP: u32 = 8;

/// Epochs after confession within which the quarantine must be released.
pub const RELEASE_CAP: u32 = 24;

/// Cycles forged on each switch of a pass.
pub const VISITS: usize = 15;

/// Passes of the work budget per second of `--seconds`.
pub const RATE: f64 = 0.13;

/// Whether `switch` has a rule forwarding to another switch: only those
/// rules can be forged (last-hop rules are outside the threat model).
fn can_lie(dep: &Deployment, switch: SwitchId) -> bool {
    let topo = dep.view.topology();
    dep.view
        .table(switch)
        .iter()
        .any(|(_, r)| match r.action() {
            Action::Forward(port) => topo
                .adj(Node::Switch(switch))
                .get(port.0)
                .is_some_and(|a| matches!(a.neighbor, Node::Switch(_))),
            Action::Drop => false,
        })
}

/// The run's fresh liars: every aggregation switch and every edge switch
/// that can lie, each role in a seeded order. Pass `p` forges on the
/// `p`-th switch of each role. A fixed role mix keeps passes, and runs
/// with different seeds, comparable.
pub fn liars(dep: &Deployment, rng: &mut StdRng) -> (Vec<SwitchId>, Vec<SwitchId>) {
    let topo = dep.view.topology();
    let mut pick = |role: SwitchRole| {
        let mut s: Vec<SwitchId> = topo
            .switches()
            .filter(|&s| topo.switch_role(s) == role && can_lie(dep, s))
            .collect();
        s.shuffle(rng);
        s
    };
    (pick(SwitchRole::Aggregation), pick(SwitchRole::Edge))
}

/// The liar of cycle `cycle`: within a pass, cycles alternate between
/// the pass's aggregation and edge switch.
pub fn liar_of(cycle: usize, aggs: &[SwitchId], edges: &[SwitchId]) -> SwitchId {
    let pass = cycle / (2 * VISITS);
    if cycle.is_multiple_of(2) {
        aggs[pass]
    } else {
        edges[pass]
    }
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        byzantine: ByzantineConfig {
            enabled: true,
            ..ByzantineConfig::default()
        },
        ..RuntimeConfig::default()
    }
}

/// The seeded host-pair sample.
pub fn pairs(o: &RunOptions) -> Vec<FlowSpec> {
    let mut flows = all_pairs(&fattree(K));
    flows.shuffle(&mut StdRng::seed_from_u64(o.stream("pairs")));
    flows.truncate(PAIRS);
    flows
}

fn service(o: &RunOptions, dep: &Deployment) -> RuntimeService {
    let transport = SimTransport::new(o.stream("channel"), FaultProfile::default());
    RuntimeService::with_sim_transport(&dep.view, transport, config())
}

/// Where the current cycle is.
enum Phase {
    /// The warm-up epoch: no forgery yet.
    WarmUp,
    /// The next epoch plants a forgery after its replay.
    Arm,
    /// A forgery is live and not yet localized.
    Forging {
        anomaly: AppliedAnomaly,
        epochs: u32,
        wall_ms: f64,
        loo_before: u64,
        wrong: bool,
    },
    /// The liar confessed; waiting for release.
    Releasing { epochs: u32 },
}

/// Runs the workload.
pub fn run(o: &RunOptions) -> Outcome {
    let mut out = Outcome::default();
    let flows = pairs(o);
    let mut provision_ms = Vec::new();
    let mut setup = Setup::new(|| {
        let (dep, p) = time_ms(|| {
            provision(fattree(K), &flows, RuleGranularity::PerFlowPair)
                .expect("fat-trees provision")
        });
        provision_ms.push(p);
        let svc = service(o, &dep);
        (dep, svc)
    });
    let (mut dep, mut svc) = setup.window();
    let flow_count = svc.pipeline().fcm().flow_count();
    out.note(format!(
        "input: FatTree({K}) per-pair, {PAIRS} seeded pairs, {flow_count} flows x {} rules, \
         loss {LOSS_RATE}, Byzantine layer on, solver path {}",
        svc.pipeline().fcm().rule_count(),
        solver_path_name(flow_count)
    ));
    if o.trace {
        setup_components(&mut out, &dep.view, config().oracle_cap, || {
            service(o, &dep)
        });
    }

    let mut loss = LossModel::sampled(LOSS_RATE, o.stream("loss"));
    let mut forge = StdRng::seed_from_u64(o.stream("forge"));
    let mut tracer = Tracer::new(o.trace);
    let mut counters = Counters::default();
    let mut cycles = Ledger::default();
    let mut loo_epoch_ms = Timing::default();
    let mut loo_ms = Vec::new();
    let (mut no_loo, mut stuck) = (0u64, false);
    let mut busy = Duration::ZERO;
    let cap = o.cap();
    let mut epoch = 0u64;
    let mut phase = Phase::WarmUp;
    let (aggs, edges) = liars(&dep, &mut StdRng::seed_from_u64(o.stream("pool")));
    let fresh = aggs.len().min(edges.len());
    out.check(fresh > 0, "no aggregation or edge switch can lie");
    let budget = o.budget(RATE, 1);
    let passes = fresh.min(budget as usize);
    let everyone: Vec<SwitchId> = dep.view.topology().switches().collect();
    let mut forged = 0usize;
    // Whole passes only, at least one, so every run times the same mix of
    // mask builds and cached rounds.
    loop {
        let between_passes = matches!(phase, Phase::Arm) && forged.is_multiple_of(2 * VISITS);
        let done = forged / (2 * VISITS);
        if passes == 0
            || (between_passes && done > 0 && (done >= passes || Instant::now() >= cap))
        {
            break;
        }
        let t0 = Instant::now();
        let ep = tracer.open("epoch", Some(epoch), None);
        dep.dataplane.reset_counters();
        tracer.span("dataplane.replay", Some(epoch), ep, || {
            dep.replay_traffic(&mut loss)
        });
        if matches!(phase, Phase::Arm) {
            let liar = liar_of(forged, &aggs, &edges);
            let others: Vec<SwitchId> = everyone.iter().copied().filter(|&s| s != liar).collect();
            let anomaly = tracer.span("dataplane.forge", Some(epoch), ep, || {
                inject_random_anomaly(
                    &mut dep.dataplane,
                    AnomalyKind::CounterFake,
                    &mut forge,
                    &others,
                )
                .expect("liars have switch-facing rules")
            });
            forged += 1;
            phase = Phase::Forging {
                anomaly,
                epochs: 0,
                wall_ms: 0.0,
                loo_before: svc.metrics().loo_solves,
                wrong: false,
            };
        }
        let (r, _, before) = traced_run_epoch(&mut tracer, epoch, ep, &mut svc, &dep);
        tracer.close(ep);
        let wall_ms = ms_since(t0);
        busy += t0.elapsed();
        counters.add(&before, svc.metrics());
        if svc.metrics().loo_solves > before.loo_solves {
            loo_epoch_ms.push(wall_ms);
        }
        phase = match phase {
            Phase::WarmUp | Phase::Arm => Phase::Arm,
            Phase::Forging {
                anomaly,
                epochs,
                wall_ms: so_far,
                loo_before,
                wrong,
            } => {
                let liar = anomaly.rule.switch;
                let (epochs, spent) = (epochs + 1, so_far + wall_ms);
                let wrong = wrong || quarantines_other(&r, liar);
                let named = r.as_ref().ok().and_then(|rep| rep.localized_liar);
                if named.is_some() || epochs >= LOCALIZE_CAP {
                    let ok = cycle_ok(named, liar, wrong);
                    if ok {
                        if o.trace {
                            loo_ms.push(standalone_loo(&svc, &dep, liar));
                        }
                        cycles.record(spent, true, false);
                    } else {
                        cycles.tally.record(false);
                    }
                    no_loo += u64::from(svc.metrics().loo_solves == loo_before);
                    anomaly
                        .revert(&mut dep.dataplane)
                        .expect("the forged rule exists");
                    Phase::Releasing { epochs: 0 }
                } else {
                    Phase::Forging {
                        anomaly,
                        epochs,
                        wall_ms: spent,
                        loo_before,
                        wrong,
                    }
                }
            }
            Phase::Releasing { epochs } => {
                if svc.quarantined_switches().is_empty() && svc.state() == AlarmState::Normal {
                    Phase::Arm
                } else if epochs + 1 >= RELEASE_CAP {
                    stuck = true;
                    break;
                } else {
                    Phase::Releasing { epochs: epochs + 1 }
                }
            }
        };
        epoch += 1;
    }
    out.check(
        !stuck,
        format!("a quarantine was not released within {RELEASE_CAP} epochs"),
    );
    out.check(
        no_loo == 0,
        format!("{no_loo} cycles ran no leave-one-out solve"),
    );
    out.check(cycles.tally.attempted > 0, "no forgery cycle completed");
    let built = svc.pipeline().cached_masks();
    out.check(
        built == 2 * (forged / (2 * VISITS)),
        format!("{built} masked systems built over {forged} cycles, expected two per pass"),
    );
    out.tally = cycles.tally;
    note_budget(&mut out, "passes", (forged / (2 * VISITS)) as u64, passes as u64);
    out.note(format!(
        "cycles: {} ({} failed); localize (forge to the report naming the liar): {}; LOO epochs: {}",
        cycles.tally.attempted,
        cycles.tally.failed,
        cycles.timing.describe(),
        loo_epoch_ms.describe()
    ));
    out.e2e("epochs_per_s", epoch as f64 / busy.as_secs_f64(), "1/s");
    // The liar workload's verdict is the report that names the liar.
    out.e2e(
        "verdict_ms_mean",
        cycles.timing.mean().unwrap_or(f64::NAN),
        "ms",
    );
    out.e2e(
        "verdict_ms_p90",
        cycles.timing.percentile(90).unwrap_or(f64::NAN),
        "ms",
    );
    if o.trace {
        runtime_layers(&mut out, &counters, &svc, &tracer);
        out.layer(
            "dataplane.replay_ms_p50",
            p50_of(tracer.durations("dataplane.replay")),
            "ms",
        );
        out.layer("core.loo_ms", p50_of(loo_ms), "ms");
        out.layer("core.solver_path", solver_path_code(flow_count), "code");
        finish_trace(&mut out, &tracer, "liar", o);
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

/// Times `cross_validate` standalone on the localizing epoch's counters,
/// over as many candidates as the service cross-validates, the liar first.
fn standalone_loo(svc: &RuntimeService, dep: &Deployment, liar: SwitchId) -> f64 {
    let counters = dep.dataplane.collect_counters();
    let mut candidates = vec![liar];
    candidates.extend(
        svc.suspicion()
            .ranked()
            .into_iter()
            .map(|(s, _)| s)
            .filter(|&s| s != liar)
            .take(config().byzantine.max_candidates - 1),
    );
    let threshold = config().threshold;
    time_ms(|| cross_validate(svc.pipeline().fcm(), &counters, threshold, &candidates)).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_alternate_two_fresh_switches() {
        let aggs = [SwitchId(10), SwitchId(11)];
        let edges = [SwitchId(20), SwitchId(21)];
        let order: Vec<SwitchId> = (0..4 * VISITS).map(|c| liar_of(c, &aggs, &edges)).collect();
        for (c, s) in order.iter().enumerate() {
            let pass = c / (2 * VISITS);
            let want = if c.is_multiple_of(2) {
                aggs[pass]
            } else {
                edges[pass]
            };
            assert_eq!(*s, want, "cycle {c}");
        }
        let first_pass = &order[..2 * VISITS];
        assert_eq!(first_pass.iter().filter(|&&s| s == aggs[0]).count(), VISITS);
        assert_eq!(
            first_pass.iter().filter(|&&s| s == edges[0]).count(),
            VISITS
        );
    }
}
