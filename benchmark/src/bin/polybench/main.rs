//! `polybench`: the repository's one seeded benchmark. One run is one
//! workload: set up from `--seed`, start the system in-process, measure
//! for `--seconds`, check every output against an oracle, and print every
//! metric by name with its unit. `--trace 1` reruns the same seed and
//! sequence with spans around each layer and prints the per-layer
//! metrics instead. See `README.md` and the root `BENCHMARK.json`.
//!
//! Only the public API of the product crates is used — never
//! `polygraph-bench` helpers — so `crates/bench` can shrink without
//! touching this package.

mod alloc;
mod fleet;
mod load;
mod pipeline;
mod repeat;
mod retrain;
mod serve;
mod spec;
mod trace;
mod world;

use load::Tally;
use polygraph_obs::{Registry, Span};
use spec::{median, Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use traffic::TrafficConfig;
use world::{Mix, Scale, World};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Above this share of failed replies a closed-loop or RPC phase (where
/// shedding cannot legitimately occur) fails the run.
pub(crate) const FAILED_SHARE_LIMIT: f64 = 0.001;

/// What one workload run hands back to the command line.
pub(crate) struct Report {
    pub metrics: Metrics,
    /// Every reply of every phase, classified against the oracle.
    pub tally: Tally,
    /// The closed-loop / RPC phases stayed under [`FAILED_SHARE_LIMIT`]
    /// and every in-process output matched the oracle.
    pub gated_ok: bool,
    /// `cache.hits + cache.misses == assessed + malformed + shed_exempt`
    /// on every server, and every frame sent is accounted for.
    pub books_ok: bool,
}

/// Per-layer metrics every traced run reports the same way: set-up
/// stages and the unit cost of instrumentation.
pub(crate) fn common_layer_metrics(
    world: &World,
    server_registry: &Registry,
    timer_ns: f64,
    metrics: &mut Metrics,
) {
    metrics.set("bench.timer_ns", timer_ns);
    metrics.set("traffic.generate_per_s", world.generate_per_s);
    for (name, ms) in [
        "core.train.fit_scale_ms",
        "core.train.fit_outlier_ms",
        "core.train.fit_pca_ms",
        "core.train.fit_kmeans_ms",
        "core.train.fit_table_ms",
    ]
    .into_iter()
    .zip(world.fit_stage_ms)
    {
        metrics.set(name, ms);
    }

    const OPS: u32 = 1_000_000;
    let scratch = Registry::monotonic();
    let counter = scratch.counter("bench.counter");
    let started = Instant::now();
    for _ in 0..OPS {
        counter.inc();
    }
    metrics.set(
        "obs.counter_inc_ns",
        started.elapsed().as_nanos() as f64 / f64::from(OPS),
    );
    std::hint::black_box(counter.get());

    let histogram = scratch.histogram("bench.span_micros");
    let started = Instant::now();
    for _ in 0..OPS / 10 {
        Span::on(Arc::clone(&histogram), Arc::clone(scratch.clock())).finish();
    }
    metrics.set(
        "obs.span_ns",
        started.elapsed().as_nanos() as f64 / f64::from(OPS / 10),
    );

    let snapshot_us: Vec<f64> = (0..50)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(server_registry.snapshot().render_json());
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    metrics.set("obs.snapshot_us", median(&snapshot_us));
}

enum Rig {
    Serve(Box<serve::Rig>),
    Fleet(fleet::Rig),
    Retrain(retrain::Rig),
}

impl Rig {
    fn prepare(workload: &str, world: &World, out_dir: &Path) -> Self {
        match workload {
            "serve_repeat" => Rig::Serve(Box::new(serve::Rig::prepare(world, Mix::Repeat))),
            "serve_distinct" => Rig::Serve(Box::new(serve::Rig::prepare(world, Mix::Distinct))),
            "serve_swap" => Rig::Serve(Box::new(serve::Rig::prepare(world, Mix::Half))),
            "fleet_rpc" => Rig::Fleet(fleet::Rig::prepare(world)),
            "retrain_cycle" => Rig::Retrain(retrain::Rig::prepare(world, out_dir)),
            other => unreachable!("workload {other} was validated"),
        }
    }

    fn measure(&mut self, world: &World, seconds: f64) -> Report {
        match self {
            Rig::Serve(rig) => rig.measure(world, seconds),
            Rig::Fleet(rig) => rig.measure(world, seconds),
            Rig::Retrain(rig) => rig.measure(world, seconds),
        }
    }

    fn trace(&mut self, world: &World, seconds: f64, out_dir: &Path, name: &str) -> Report {
        match self {
            Rig::Serve(rig) => rig.trace(world, seconds, out_dir, name),
            Rig::Fleet(rig) => rig.trace(world, seconds, out_dir, name),
            Rig::Retrain(rig) => rig.trace(world, seconds, out_dir, name),
        }
    }

    fn shutdown(self) {
        match self {
            Rig::Serve(rig) => rig.shutdown(),
            Rig::Fleet(rig) => rig.shutdown(),
            Rig::Retrain(rig) => rig.shutdown(),
        }
    }
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_repeat: bool,
}

fn usage(message: &str) -> i32 {
    eprintln!("polybench: {message}");
    eprintln!(
        "usage: polybench --workload <{}> [--seed S] [--seconds N] [--trace [0|1]] [--quick]\n       \
         polybench --check-repeat [--seed S] [--seconds N]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    2
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: TrafficConfig::paper_training().seed,
        seconds: 10.0,
        trace: false,
        quick: false,
        check_repeat: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).map(String::as_str);
        let need = |what: &str| value.ok_or_else(|| format!("{flag} needs {what}"));
        match flag {
            "--workload" => {
                options.workload = Some(need("a name")?.to_string());
                i += 1;
            }
            "--seed" => {
                let text = need("a number")?;
                options.seed = text
                    .parse()
                    .map_err(|_| format!("invalid --seed {text:?}"))?;
                i += 1;
            }
            "--seconds" => {
                let text = need("a number")?;
                options.seconds = text
                    .parse()
                    .ok()
                    .filter(|s| (0.5..=120.0).contains(s))
                    .ok_or_else(|| format!("invalid --seconds {text:?}"))?;
                i += 1;
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => match value {
                Some("0") => {
                    options.trace = false;
                    i += 1;
                }
                Some("1") => {
                    options.trace = true;
                    i += 1;
                }
                _ => options.trace = true,
            },
            "--quick" => options.quick = true,
            "--check-repeat" => options.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(options)
}

/// Where run artefacts go: `<target-dir>/polybench/`, found from the
/// executable's own location so it is inside the build directory (and
/// therefore git-ignored) however the run was started.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    let target = exe
        .ancestors()
        .find(|dir| dir.join("CACHEDIR.TAG").is_file())
        .or(exe.parent())
        .expect("the executable lives in a directory");
    let dir = target.join("polybench");
    std::fs::create_dir_all(&dir).expect("create the output directory");
    dir
}

/// `VmHWM`: the process's peak resident set, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

fn run_workload(workload: &str, options: &Options) -> i32 {
    let out_dir = out_dir();
    let scale = if options.quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    // Set-up is repeated so `setup_s` and `full_fit_s` are medians; the
    // traced run reports neither and sets up once.
    let repeats = if options.trace || options.quick { 1 } else { 3 };
    let (mut setup_secs, mut fit_secs) = (Vec::new(), Vec::new());
    let mut ready = None;
    for _ in 0..repeats {
        if let Some((_, rig)) = ready.take() {
            Rig::shutdown(rig);
        }
        let started = Instant::now();
        let world = World::build(options.seed, scale);
        let rig = Rig::prepare(workload, &world, &out_dir);
        setup_secs.push(started.elapsed().as_secs_f64());
        fit_secs.push(world.fit_secs);
        ready = Some((world, rig));
    }
    let (world, mut rig) = ready.expect("set-up ran at least once");
    eprintln!(
        "{workload}: seed {}, set-up {:.2} s (fit {:.2} s; fits {fit_secs:.2?}), {} s to measure{}",
        options.seed,
        median(&setup_secs),
        median(&fit_secs),
        options.seconds,
        if options.trace { ", traced" } else { "" }
    );

    let mut report = if options.trace {
        rig.trace(&world, options.seconds, &out_dir, workload)
    } else {
        rig.measure(&world, options.seconds)
    };
    rig.shutdown();
    if !options.trace {
        report.metrics.set("setup_s", median(&setup_secs));
        report.metrics.set("full_fit_s", median(&fit_secs));
        report.metrics.set("peak_rss_mb", peak_rss_mb());
    }

    let names: Vec<(&str, &str)> = if options.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let correct = report.gated_ok && report.books_ok;
    let tally = report.tally;
    let mut fields = Vec::new();
    for (name, unit) in names {
        let value = report.metrics.get(name);
        assert!(value.is_finite(), "metric {name} is not a finite number");
        println!("{name} {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    eprintln!(
        "replies: {} sent, {} matched, {} mismatched, {} degraded, {} malformed, {} missing; \
         closed-loop/RPC phases {}, books {}",
        tally.sent,
        tally.matched,
        tally.mismatched,
        tally.degraded,
        tally.malformed,
        tally.missing,
        if report.gated_ok { "ok" } else { "FAILED" },
        if report.books_ok {
            "balance"
        } else {
            "DO NOT BALANCE"
        }
    );
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.sent.max(1),
        tally.failed(),
        fields.join(", ")
    );
    let suffix = if options.trace { "-trace" } else { "" };
    std::fs::write(
        out_dir.join(format!("result-{workload}{suffix}.json")),
        &line,
    )
    .expect("write the result file");
    println!("{line}");
    i32::from(!correct)
}

fn main() {
    std::process::exit(run_cli());
}

/// The command line; returns the process exit code.
fn run_cli() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(message) => return usage(&message),
    };
    if options.check_repeat {
        return repeat::check(options.seed, options.seconds);
    }
    let Some(name) = options.workload.as_deref() else {
        return usage("--workload is required");
    };
    match WORKLOADS.iter().find(|w| w.name == name) {
        Some(workload) => {
            eprintln!("{}: {}", workload.name, workload.why);
            run_workload(workload.name, &options)
        }
        None => usage(&format!("unknown workload {name:?}")),
    }
}
