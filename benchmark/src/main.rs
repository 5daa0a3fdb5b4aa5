//! The FOCES benchmark: four closed-loop workloads, end-to-end metrics
//! from untraced runs and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload steady --seed 1 --seconds 22 --trace 0
//! ```
//!
//! `--workload all` runs every workload twice (untraced, then traced),
//! each in its own process, prints the tracing overhead, and rewrites
//! `BENCHMARK.json` from the definitions below. See `benchmark/README.md`.

mod churn;
mod common;
mod liar;
mod scale;
mod stats;
mod steady;
mod trace;
mod truth;

use common::{Metric, Outcome, RunOptions};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// A workload: its name, why it is in the benchmark, and the loop that runs it.
struct Workload {
    name: &'static str,
    why: &'static str,
    run: fn(&RunOptions) -> Outcome,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady",
        why:
            "FatTree(6) per-destination all-pairs, 2862 flows x 1350 rules, direct solve: healthy \
              monitoring loop, replay plus the warm full-round solve",
        run: steady::run,
    },
    Workload {
        name: "churn",
        why:
            "FatTree(4) per-destination all-pairs, 240 flows x 208 rules, direct solve: an update \
              every epoch, so FCM rebuild plus reconciled solve",
        run: churn::run,
    },
    Workload {
        name: "liar",
        why: "FatTree(8) per-pair, 600 seeded pairs, ~2.8k rules, direct solve: forged counters, \
              so suspicion, leave-one-out, quarantine and masked detect",
        run: liar::run,
    },
    Workload {
        name: "scale",
        why: "FatTree(8) per-destination all-pairs, 16256 flows x 5248 rules, iterative solve, no \
              service: replay, collect and detect at size",
        run: scale::run,
    },
];

/// End-to-end metrics: name, unit, better, bound.
const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("epochs_per_s", "1/s", "higher", 0.25),
    ("verdict_ms_mean", "ms", "lower", 0.25),
    ("verdict_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
];

/// Per-layer metrics of the traced run: name, unit, better. A workload
/// that never makes a layer's call reports 0 for it.
const PER_LAYER: [(&str, &str, &str); 41] = [
    ("controlplane.provision_ms", "ms", "lower"),
    ("controlplane.reroute_ms", "ms", "lower"),
    ("atpg.trace_ms", "ms", "lower"),
    ("core.fcm_build_ms", "ms", "lower"),
    ("core.fcm_delta_ms", "ms", "lower"),
    ("verify.verify_ms", "ms", "lower"),
    ("core.coverage_ms", "ms", "lower"),
    ("core.audit_ms", "ms", "lower"),
    ("core.audit_candidates", "count", "lower"),
    ("core.slice_ms", "ms", "lower"),
    ("dataplane.replay_ms_p50", "ms", "lower"),
    ("dataplane.collect_ms_p50", "ms", "lower"),
    ("channel.collect_ms", "ms", "lower"),
    ("channel.polls", "count", "lower"),
    ("channel.retries", "count", "lower"),
    ("runtime.service_new_ms", "ms", "lower"),
    ("runtime.setup_unexplained_ms", "ms", "lower"),
    ("runtime.run_epoch_ms_p50", "ms", "lower"),
    ("runtime.solve_ms", "ms", "lower"),
    ("runtime.build_ms", "ms", "lower"),
    ("runtime.verify_ms", "ms", "lower"),
    ("runtime.warm_solves", "count", "higher"),
    ("runtime.cold_solves", "count", "lower"),
    ("runtime.warm_share", "ratio", "higher"),
    ("runtime.fcm_rebuilds", "count", "lower"),
    ("runtime.full_rounds", "count", "higher"),
    ("runtime.reconciled_rounds", "count", "lower"),
    ("runtime.degraded_rounds", "count", "lower"),
    ("runtime.mask_cache_entries", "count", "lower"),
    ("runtime.reconcile_cache_entries", "count", "lower"),
    ("runtime.detect_parallel_ms_p50", "ms", "lower"),
    ("core.detect_ms_p50", "ms", "lower"),
    ("core.solver_path", "code", "lower"),
    ("sparse.cg_iterations", "count", "lower"),
    ("core.loo_ms", "ms", "lower"),
    ("core.loo_solves", "count", "lower"),
    ("core.loo_downdates", "count", "lower"),
    ("runtime.liars_localized", "count", "higher"),
    ("runtime.quarantine_releases", "count", "higher"),
    ("trace.epoch_coverage_min", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
];

/// `BENCHMARK.json`, rendered from the definitions above.
fn manifest() -> String {
    let mut s = String::from(
        "{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": 22,\n  \"workloads\": [\n",
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \
             \"bound\": {bound}}}{sep}"
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Command-line options.
struct Args {
    workload: String,
    options: RunOptions,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut o = RunOptions {
        seed: 1,
        seconds: 22,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => o.seed = value.parse().map_err(bad)?,
            "--seconds" => o.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        options: o,
    })
}

/// The `metrics` object of the JSON result.
fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Runs one workload in this process and prints its report; the last
/// line is the JSON result.
fn run_one(w: &Workload, o: &RunOptions) -> ExitCode {
    let mut out = (w.run)(o);
    let peak_mb = foces_runtime::peak_rss_bytes() as f64 / (1024.0 * 1024.0);
    out.e2e("peak_rss_mb", peak_mb, "MiB");
    let wrong = out.tally.wrong_share();
    let (attempted, failed) = (out.tally.attempted, out.tally.failed);

    println!(
        "workload {} seed {} seconds {} trace {} (available_parallelism {}, {} slice workers)",
        w.name,
        o.seed,
        o.seconds,
        o.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        foces_runtime::RuntimeConfig::default().workers
    );
    for n in &out.notes {
        println!("  {n}");
    }
    println!("  wrong_verdict_share = {wrong} ratio ({failed} of {attempted} operations failed)");
    for m in &out.end_to_end {
        println!("e2e {} {:?} {}", m.name, m.value, m.unit);
    }
    let wanted: Vec<Metric> = if o.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let value = out
                    .per_layer
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                Metric { name, value, unit }
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit, _, _)| Metric {
                name,
                value: out
                    .end_to_end
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(f64::NAN, |m| m.value),
                unit,
            })
            .collect()
    };
    if o.trace {
        for m in &wanted {
            println!("layer {} {:?} {}", m.name, m.value, m.unit);
        }
    }
    let finite = wanted.iter().all(|m| m.value.is_finite());
    for e in &out.shape_errors {
        println!("  SHAPE CHECK FAILED: {e}");
    }
    let correct = out.shape_errors.is_empty() && finite && attempted > 0;
    let metrics = if correct {
        json_metrics(&wanted)
    } else {
        "{}".to_string()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `--workload <w> --trace <t>` in a child process, echoes its
/// report, and returns its `e2e` lines and whether it succeeded.
fn child(w: &str, o: &RunOptions, trace: bool) -> Result<(BTreeMap<String, f64>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", w, "--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    let e2e = text
        .lines()
        .filter_map(|l| {
            let mut p = l.strip_prefix("e2e ")?.split(' ');
            Some((p.next()?.to_string(), p.next()?.parse().ok()?))
        })
        .collect();
    Ok((e2e, output.status.success()))
}

/// `--workload all`: every workload untraced then traced, each in its own
/// process; prints tracing overhead and rewrites `BENCHMARK.json`.
fn run_all(o: &RunOptions) -> ExitCode {
    let mut ok = true;
    let mut overhead = String::new();
    for w in &WORKLOADS {
        let runs = child(w.name, o, false).and_then(|u| Ok((u, child(w.name, o, true)?)));
        match runs {
            Ok(((plain, plain_ok), (traced, traced_ok))) => {
                ok &= plain_ok && traced_ok;
                for (name, v) in &plain {
                    if let Some(t) = traced.get(name) {
                        let _ = writeln!(
                            overhead,
                            "  {:<7} {name:<15} untraced {v:.4}  traced {t:.4}  overhead {:+.4}",
                            w.name,
                            t - v
                        );
                    }
                }
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                ok = false;
            }
        }
    }
    println!("tracing overhead (traced minus untraced):\n{overhead}");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    if let Err(e) = std::fs::write(path, manifest()) {
        eprintln!("writing BENCHMARK.json: {e}");
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <steady|churn|liar|scale|all> [--seed N] [--seconds S] [--trace 0|1]\n{e}");
            return ExitCode::from(2);
        }
    };
    match WORKLOADS.iter().find(|w| w.name == args.workload) {
        Some(w) => run_one(w, &args.options),
        None => run_all(&args.options),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json is committed");
        assert_eq!(committed, manifest(), "run `--workload all` to regenerate");
    }

    #[test]
    fn manifest_respects_the_name_and_size_limits() {
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "metric names are unique");
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = |v: &[&str]| parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let ok = a(&[
            "--workload",
            "liar",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(ok.workload, "liar");
        assert_eq!((ok.options.seed, ok.options.seconds), (7, 3));
        assert!(ok.options.trace);
        assert!(a(&["--workload", "nope"]).is_err());
        assert!(a(&["--workload", "steady", "--trace", "2"]).is_err());
        assert!(a(&["--seed", "1"]).is_err(), "workload is required");
        assert!(a(&["--workload", "steady", "--seed"]).is_err());
    }
}
