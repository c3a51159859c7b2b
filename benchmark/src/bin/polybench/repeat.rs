//! `--check-repeat`: does the benchmark agree with itself? Every
//! workload is run twice with the same seed (untraced and traced) and
//! once with a second seed, each run a child process of this same
//! executable so runs cannot disturb one another's peak RSS.

use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// Per-layer metrics that are exact counts of seeded work: they must be
/// equal, not merely close, between two runs of one seed.
const EXACT: [&str; 12] = [
    "service.framing.split_allocs",
    "fingerprint.wire.decode_allocs",
    "cache.insert_allocs",
    "core.detect.assess_allocs",
    "service.server.assess_frame_allocs",
    "core.drift_stream.ingest_allocs",
    "cache.hit_share",
    "cache.evictions_per_kframe",
    "cache.stale_epoch_per_swap",
    "core.detect.flagged_share",
    "ml.quant.certified_share",
    "browser_engine.useragent.distinct_uas",
];

struct Run {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<Run> {
    let exe = std::env::current_exe().expect("the executable has a path");
    eprintln!("-- {workload} seed {seed} trace {}", u8::from(trace));
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("start a benchmark run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last()?;
    let value: Value = serde_json::parse_value(line).ok()?;
    let metrics = value["metrics"]
        .as_object()?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m["value"].as_f64()?)))
        .collect();
    Some(Run {
        correct: value["correct"].as_bool()?,
        failed: value["failed"].as_u64()?,
        metrics,
    })
}

/// Runs the whole check; returns the process exit code.
pub fn check(seed: u64, seconds: f64) -> i32 {
    let mut violations: Vec<String> = Vec::new();
    let mut throughput: BTreeMap<(&str, u64), f64> = BTreeMap::new();
    let other_seed = seed.wrapping_add(0x9E37_79B9);
    for workload in WORKLOADS.map(|w| w.name) {
        let mut sets = Vec::new();
        for (run_seed, trace) in [
            (seed, false),
            (seed, false),
            (seed, true),
            (seed, true),
            (other_seed, false),
        ] {
            match run(workload, run_seed, seconds, trace) {
                Some(result) => {
                    if !result.correct || result.failed > 0 {
                        violations.push(format!(
                            "{workload} seed {run_seed}: correct {} with {} failed",
                            result.correct, result.failed
                        ));
                    }
                    sets.push(result);
                }
                None => {
                    violations.push(format!("{workload} seed {run_seed}: no result"));
                    sets.push(Run {
                        correct: false,
                        failed: 0,
                        metrics: BTreeMap::new(),
                    });
                }
            }
        }
        let value = |set: usize, name: &str| sets[set].metrics.get(name).copied().unwrap_or(0.0);

        println!("\n{workload}: end to end, same seed twice, then seed {other_seed}");
        for m in END_TO_END {
            let (a, b, c) = (value(0, m.name), value(1, m.name), value(4, m.name));
            let worse = (a - b).abs() / a.min(b);
            let verdict = if worse <= m.bound { "ok" } else { "DIFFERS" };
            println!(
                "  {:<18} {a:>14.3} {b:>14.3}  {:>6.2}% of {:>4.1}% {verdict}   other seed {c:>14.3} {}",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                m.unit
            );
            if worse > m.bound {
                violations.push(format!(
                    "{workload}.{} differs by {:.1}%",
                    m.name,
                    worse * 100.0
                ));
            }
        }
        throughput.insert((workload, seed), value(0, "throughput_per_s"));
        throughput.insert((workload, other_seed), value(4, "throughput_per_s"));

        println!("{workload}: per layer, traced twice");
        for m in PER_LAYER {
            let (a, b) = (value(2, m.name), value(3, m.name));
            let exact = EXACT.contains(&m.name);
            let mark = match (exact, a == b) {
                (true, true) => "exact",
                (true, false) => "NOT EXACT",
                _ => "",
            };
            println!("  {:<42} {a:>16.4} {b:>16.4} {:<6} {mark}", m.name, m.unit);
            if exact && a != b {
                violations.push(format!("{workload}.{} is not exact: {a} vs {b}", m.name));
            }
        }
    }

    // No conclusion may rest on one seed: the ordering of the serve
    // workloads must hold on both.
    for s in [seed, other_seed] {
        let fps = |w: &'static str| throughput[&(w, s)];
        let holds =
            fps("serve_repeat") > fps("serve_swap") && fps("serve_swap") > fps("serve_distinct");
        println!(
            "\nseed {s}: serve_repeat {:.0} > serve_swap {:.0} > serve_distinct {:.0}: {}",
            fps("serve_repeat"),
            fps("serve_swap"),
            fps("serve_distinct"),
            if holds { "holds" } else { "DOES NOT HOLD" }
        );
        if !holds {
            violations.push(format!("capacity ordering does not hold on seed {s}"));
        }
    }

    if violations.is_empty() {
        println!("\ncheck-repeat: every end-to-end metric repeats within its bound");
        0
    } else {
        println!("\ncheck-repeat: {} violations", violations.len());
        for v in &violations {
            println!("  {v}");
        }
        1
    }
}
