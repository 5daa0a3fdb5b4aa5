//! Ground truth: when an operation of each workload counts as failed.
//!
//! Every workload's network is healthy except for what the benchmark
//! itself plants, so the right verdict is known for every operation. An
//! error from the program under test is a failed operation, not a crash.

use foces::{FocesError, Verdict};
use foces_net::SwitchId;
use foces_runtime::{EpochReport, RuntimeError};

/// `steady` and `churn`: an epoch on a healthy network is right when
/// `run_epoch` returns and its round is not anomalous.
pub fn epoch_ok(r: &Result<EpochReport, RuntimeError>) -> bool {
    r.as_ref().is_ok_and(|rep| !rep.anomalous())
}

/// `scale`: a round is right when its verdict matches whether a drop was
/// planted.
pub fn round_ok(planted: bool, verdict: &Result<Verdict, FocesError>) -> bool {
    verdict.as_ref().is_ok_and(|v| v.anomalous == planted)
}

/// `liar`: a cycle is right when the report that ended it named the liar
/// and no other switch was quarantined while it lasted.
pub fn cycle_ok(named: Option<SwitchId>, liar: SwitchId, quarantined_other: bool) -> bool {
    named == Some(liar) && !quarantined_other
}

/// Whether an epoch of a `liar` cycle quarantined a switch other than
/// the liar (an error counts as such: the cycle cannot be trusted).
pub fn quarantines_other(r: &Result<EpochReport, RuntimeError>, liar: SwitchId) -> bool {
    r.as_ref().map_or(true, |rep| {
        rep.quarantined_switches.iter().any(|&s| s != liar)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_controlplane::{provision, uniform_flows, RuleGranularity};
    use foces_dataplane::LossModel;
    use foces_net::generators::ring;
    use foces_runtime::{FaultProfile, RuntimeConfig, RuntimeService, SimTransport};

    fn healthy_epoch() -> Result<EpochReport, RuntimeError> {
        let topo = ring(4);
        let flows = uniform_flows(&topo, 12_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).expect("provision");
        dep.replay_traffic(&mut LossModel::none());
        let transport = SimTransport::new(1, FaultProfile::default());
        let mut svc =
            RuntimeService::with_sim_transport(&dep.view, transport, RuntimeConfig::default());
        svc.run_epoch(&dep.dataplane, &dep.view)
    }

    fn verdict(anomalous: bool) -> Result<Verdict, FocesError> {
        Ok(Verdict {
            anomalous,
            anomaly_index: if anomalous { 9.0 } else { 1.0 },
            err_max: 0.0,
            err_med: 0.0,
            worst_rule: None,
            solve: foces::SolveOutcome {
                volume_estimate: Vec::new(),
                fitted_counters: Vec::new(),
                residual: Vec::new(),
            },
        })
    }

    #[test]
    fn healthy_epoch_is_right_and_errors_fail() {
        let mut r = healthy_epoch();
        assert!(epoch_ok(&r));
        assert!(!quarantines_other(&r, SwitchId(0)));
        if let Ok(rep) = &mut r {
            rep.quarantined_switches = vec![SwitchId(2)];
            assert!(quarantines_other(&r, SwitchId(0)));
            assert!(!quarantines_other(&r, SwitchId(2)));
        }
        let err: Result<EpochReport, RuntimeError> =
            Err(RuntimeError::Detection(FocesError::EmptyFcm));
        assert!(!epoch_ok(&err));
        assert!(quarantines_other(&err, SwitchId(0)));
    }

    #[test]
    fn round_verdict_must_match_the_planted_drop() {
        assert!(round_ok(true, &verdict(true)));
        assert!(round_ok(false, &verdict(false)));
        assert!(!round_ok(true, &verdict(false)), "missed drop");
        assert!(!round_ok(false, &verdict(true)), "false alarm");
        assert!(!round_ok(false, &Err(FocesError::EmptyFcm)));
    }

    #[test]
    fn cycle_needs_the_liar_named_and_nobody_else_quarantined() {
        let liar = SwitchId(3);
        assert!(cycle_ok(Some(liar), liar, false));
        assert!(!cycle_ok(Some(SwitchId(4)), liar, false), "wrong switch");
        assert!(!cycle_ok(None, liar, false), "never localized");
        assert!(!cycle_ok(Some(liar), liar, true), "collateral quarantine");
    }
}
