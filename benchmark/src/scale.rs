//! `scale`: detection rounds on FatTree(8) all-pairs, without the service.
//!
//! `Fcm::from_view` runs once in set-up; each round replays one interval
//! of traffic, collects counters from the data plane and runs
//! `Detector::default().detect`. A seeded `EarlyDrop` is planted on every
//! odd round and reverted after it. A round's verdict latency runs from
//! its counter reset, through the replay, to the verdict.

use crate::common::*;
use crate::stats::Ledger;
use crate::trace::Tracer;
use crate::truth::round_ok;
use foces::{Detector, Fcm, SolverKind};
use foces_controlplane::{provision, RuleGranularity};
use foces_dataplane::{inject_random_anomaly, AnomalyKind, LossModel};
use foces_net::generators::fattree;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Fat-tree arity.
pub const K: usize = 8;

/// Rounds of the work budget per second of `--seconds`.
pub const RATE: f64 = 2.3;

/// Expected FCM shape: all ordered host pairs × per-destination rules.
pub const SHAPE: (usize, usize) = (16_256, 5_248);

/// Whether round `round` carries a planted drop.
pub fn planted(round: u64) -> bool {
    round % 2 == 1
}

/// Runs the workload.
pub fn run(o: &RunOptions) -> Outcome {
    let mut out = Outcome::default();
    let topo = fattree(K);
    let flows = all_pairs(&topo);
    let mut provision_ms = Vec::new();
    let mut setup = Setup::new(|| {
        let (dep, p) = time_ms(|| {
            provision(fattree(K), &flows, RuleGranularity::PerDestination)
                .expect("fat-trees provision")
        });
        provision_ms.push(p);
        let fcm = Fcm::from_view(&dep.view);
        (dep, fcm)
    });
    let (mut dep, fcm) = setup.window();
    let shape = (fcm.flow_count(), fcm.rule_count());
    out.check(
        shape == SHAPE,
        format!(
            "FCM is {} x {}, expected {} x {}",
            shape.0, shape.1, SHAPE.0, SHAPE.1
        ),
    );
    out.note(format!(
        "input: FatTree({K}) per-destination all-pairs, {} flows x {} rules, loss {LOSS_RATE}, \
         no service, solver path {}",
        shape.0,
        shape.1,
        solver_path_name(shape.0)
    ));
    if o.trace {
        out.layer(
            "atpg.trace_ms",
            time_ms(|| foces_atpg::trace_flows(&dep.view)).1,
            "ms",
        );
        out.layer(
            "core.fcm_build_ms",
            time_ms(|| Fcm::from_view(&dep.view)).1,
            "ms",
        );
    }

    let detector = Detector::default();
    let mut loss = LossModel::sampled(LOSS_RATE, o.stream("loss"));
    let mut drops = StdRng::seed_from_u64(o.stream("drops"));
    let mut tracer = Tracer::new(o.trace);
    let mut ledger = Ledger::default();
    let mut cg_iterations = 0.0;
    let (mut wrong_planted, mut wrong_clean) = (0u64, 0u64);
    let mut busy = Duration::ZERO;
    // Whole pairs of rounds, so every run has as many drops as clean rounds.
    let budget = o.budget(RATE, 2);
    let cap = o.cap();
    let mut round = 0u64;
    while round < budget && (round % 2 == 1 || Instant::now() < cap) {
        let plant = planted(round);
        let t0 = Instant::now();
        let ep = tracer.open("epoch", Some(round), None);
        dep.dataplane.reset_counters();
        let anomaly = plant.then(|| {
            tracer.span("dataplane.plant", Some(round), ep, || {
                inject_random_anomaly(&mut dep.dataplane, AnomalyKind::EarlyDrop, &mut drops, &[])
                    .expect("fat-trees have switch-facing rules")
            })
        });
        tracer.span("dataplane.replay", Some(round), ep, || {
            dep.replay_traffic(&mut loss)
        });
        let counters = tracer.span("dataplane.collect", Some(round), ep, || {
            dep.dataplane.collect_counters()
        });
        let verdict = tracer.span("core.detect", Some(round), ep, || {
            detector.detect(&fcm, &counters)
        });
        // With no service in the loop, the verdict's latency runs from the
        // round's traffic: collect and detect alone are ~2 ms, too short
        // to time steadily on a shared box.
        let verdict_ms = ms_since(t0);
        if let Some(a) = anomaly {
            tracer.span("dataplane.revert", Some(round), ep, || {
                a.revert(&mut dep.dataplane)
                    .expect("the dropped rule exists")
            });
        }
        tracer.close(ep);
        busy += t0.elapsed();
        let ok = round_ok(plant, &verdict);
        ledger.record(verdict_ms, ok, round == 0);
        wrong_planted += u64::from(!ok && plant);
        wrong_clean += u64::from(!ok && !plant);
        if o.trace && round == 0 {
            // The iteration count of the solve detect just ran.
            let cg = foces_linalg::cgls(
                fcm.sparse(),
                &counters,
                SolverKind::DEFAULT_TOL,
                SolverKind::DEFAULT_MAX_ITER,
            );
            cg_iterations = cg.map_or(0.0, |c| c.iterations as f64);
        }
        round += 1;
    }
    out.tally = ledger.tally;
    note_budget(&mut out, "rounds", round, budget);
    out.note(format!(
        "rounds: {round} ({wrong_planted} wrong on planted rounds, {wrong_clean} on clean \
         rounds); verdict (replay + collect + detect): {}",
        ledger.timing.describe()
    ));
    out.e2e("epochs_per_s", round as f64 / busy.as_secs_f64(), "1/s");
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
        out.layer(
            "dataplane.replay_ms_p50",
            p50_of(tracer.durations("dataplane.replay")),
            "ms",
        );
        out.layer(
            "dataplane.collect_ms_p50",
            p50_of(tracer.durations("dataplane.collect")),
            "ms",
        );
        out.layer(
            "core.detect_ms_p50",
            p50_of(tracer.durations("core.detect")),
            "ms",
        );
        out.layer("core.solver_path", solver_path_code(shape.0), "code");
        out.layer("sparse.cg_iterations", cg_iterations, "count");
        finish_trace(&mut out, &tracer, "scale", o);
    }
    // The second set-up window, with the loop's state gone.
    drop((dep, fcm));
    setup.window();
    out.e2e("setup_s", setup.mean_secs(), "s");
    if o.trace {
        out.layer("controlplane.provision_ms", p50_of(provision_ms), "ms");
    }
    out
}
