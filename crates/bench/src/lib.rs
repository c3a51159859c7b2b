//! Shared harness for the experiment binaries (`exp_*`) that regenerate
//! every table and figure of the paper. This crate is those binaries and
//! nothing else: it has no bench target, and timings are `polybench`'s
//! (`benchmark/`, `BENCHMARK.json`).
//!
//! Each binary accepts `--sessions N` to scale the simulated traffic
//! (default 60 000 for quick runs; pass 205000 for the paper-scale
//! window) and `--seed S` to vary the world. Every binary prints the
//! paper's reported value next to the measured one. Wall-clock times go
//! to stderr ([`report_timed`]), so stdout is a function of the options
//! and `run_experiments.sh` writes the same files on every run.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use polygraph_core::{TrainConfig, TrainedModel};
use std::io::Write;
use traffic::{generate, TrafficConfig, TrafficDataset};

pub use browser_engine;
pub use fingerprint;
pub use fraud_browsers;
pub use polygraph_core;
pub use polygraph_ml;
pub use traffic;

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Simulated sessions in the training window.
    pub sessions: usize,
    /// World seed.
    pub seed: u64,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self {
            sessions: 60_000,
            seed: TrafficConfig::paper_training().seed,
        }
    }
}

/// Parses `--sessions N` and `--seed S` from `std::env::args`.
pub fn parse_options() -> ExpOptions {
    let mut opts = ExpOptions::default();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--sessions" if i + 1 < args.len() => {
                opts.sessions = args[i + 1].parse().unwrap_or_else(|_| {
                    usage_error(&format!("invalid --sessions value {:?}", args[i + 1]))
                });
                i += 2;
            }
            "--seed" if i + 1 < args.len() => {
                opts.seed = args[i + 1].parse().unwrap_or_else(|_| {
                    usage_error(&format!("invalid --seed value {:?}", args[i + 1]))
                });
                i += 2;
            }
            other => {
                usage_error(&format!(
                    "unknown argument {other:?} (expected --sessions N / --seed S)"
                ));
            }
        }
    }
    opts
}

/// Writes a usage error to stderr and exits. The experiment harness is the
/// one place library code talks to the console, and it does so through
/// explicit [`Write`] sinks rather than `println!`/`eprintln!`: its root
/// denies clippy's print lints, as every other library crate does.
fn usage_error(msg: &str) -> ! {
    let _ = writeln!(std::io::stderr().lock(), "{msg}");
    std::process::exit(2);
}

/// Writes one line to stdout, ignoring a broken pipe.
fn emit(line: std::fmt::Arguments<'_>) {
    let _ = writeln!(std::io::stdout().lock(), "{line}");
}

/// Generates the paper's training window and fits the production model.
pub fn train_paper_model(opts: ExpOptions) -> (TrainedModel, TrafficDataset) {
    let feature_set = fingerprint::FeatureSet::table8();
    let config = TrafficConfig::paper_training()
        .with_sessions(opts.sessions)
        .with_seed(opts.seed);
    let data = generate(&feature_set, &config);
    let (rows, uas) = data.rows_and_user_agents();
    let training =
        polygraph_core::TrainingSet::from_rows(rows, uas).expect("generated data is well-formed");
    let model = TrainedModel::fit(feature_set, &training, TrainConfig::default())
        .expect("training on generated traffic succeeds");
    (model, data)
}

/// Prints a `paper vs measured` line in a consistent format.
pub fn report(metric: &str, paper: &str, measured: &str) {
    emit(format_args!("{}", row(metric, paper, measured)));
}

/// [`report`] for a line whose measured cell holds a wall-clock `time`:
/// stdout gets the line with `(time on stderr)` in the time's place and
/// stderr gets it whole, so what a binary prints on stdout depends on its
/// options alone and two runs of it `diff` clean. `measured` is the rest
/// of the cell, if any.
pub fn report_timed(metric: &str, paper: &str, measured: &str, time: &str) {
    let cell = |time: &str| match measured {
        "" => time.to_string(),
        rest => format!("{rest} / {time}"),
    };
    report(metric, paper, &cell("(time on stderr)"));
    let _ = writeln!(
        std::io::stderr().lock(),
        "{}",
        row(metric, paper, &cell(time))
    );
}

/// One `paper vs measured` line.
fn row(metric: &str, paper: &str, measured: &str) -> String {
    format!("  {metric:<52} paper: {paper:>10}   measured: {measured:>10}")
}

/// Prints a section header.
pub fn header(title: &str) {
    emit(format_args!(""));
    emit(format_args!("== {title} =="));
}

/// Formats a ratio as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}
