//! `polygraph` — the operator CLI.
//!
//! ```text
//! polygraph train   [--sessions N] [--seed S] --registry DIR
//! polygraph table   --registry DIR
//! polygraph assess  --registry DIR --ua "<user-agent>" --values 330,270,...
//! polygraph drift   --registry DIR [--sessions N]
//! polygraph serve   --registry DIR [--addr HOST:PORT] [--backend threaded|reactor]
//! ```
//!
//! `train` fits a model on simulated traffic, prints what the window held
//! (sessions, user-agents, distinct fingerprint rows) and where the fit's
//! time went (the five `fit.*_micros` stages), and publishes the model to
//! the registry; `table` prints the model's Table 3; `assess` runs Algorithm 1
//! on one fingerprint; `drift` replays the late-2023 drift window against
//! the registered model; `serve` starts the TCP risk service.

use browser_polygraph::core::train::fit_metric_names;
use browser_polygraph::core::{Detector, DriftDetector, TrainConfig, TrainedModel, TrainingSet};
use browser_polygraph::engine::{UserAgent, Vendor};
use browser_polygraph::fingerprint::FeatureSet;
use browser_polygraph::ml::ThreadPool;
use browser_polygraph::obs::Registry;
use browser_polygraph::service::{ModelRegistry, RiskPolicy, Verdict};
use browser_polygraph::traffic::{generate, TrafficConfig};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let opts = match parse_flags(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command.as_str() {
        "train" => cmd_train(&opts),
        "table" => cmd_table(&opts),
        "assess" => cmd_assess(&opts),
        "drift" => cmd_drift(&opts),
        "serve" => cmd_serve(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  polygraph train   [--sessions N] [--seed S] --registry DIR
  polygraph table   --registry DIR
  polygraph assess  --registry DIR --ua \"<user-agent string>\" --values v1,v2,...
  polygraph drift   --registry DIR [--sessions N] [--seed S]
  polygraph serve   --registry DIR [--addr HOST:PORT] [--backend threaded|reactor]";

struct Opts {
    flags: BTreeMap<String, String>,
}

impl Opts {
    fn registry(&self) -> Result<ModelRegistry, String> {
        let dir = self.flags.get("registry").ok_or("missing --registry DIR")?;
        ModelRegistry::open(dir).map_err(|e| format!("opening registry: {e}"))
    }

    fn sessions(&self, default: usize) -> Result<usize, String> {
        match self.flags.get("sessions") {
            Some(v) => v.parse().map_err(|_| format!("invalid --sessions {v:?}")),
            None => Ok(default),
        }
    }

    fn seed(&self, default: u64) -> Result<u64, String> {
        match self.flags.get("seed") {
            Some(v) => v.parse().map_err(|_| format!("invalid --seed {v:?}")),
            None => Ok(default),
        }
    }

    fn load_model(&self) -> Result<TrainedModel, String> {
        self.registry()?
            .load_latest()
            .map_err(|e| format!("loading model: {e}"))?
            .ok_or_else(|| "registry holds no model; run `polygraph train` first".into())
    }
}

fn parse_flags(args: &[String]) -> Result<Opts, String> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(name) = args[i].strip_prefix("--") else {
            return Err(format!("unexpected argument {:?}", args[i]));
        };
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
        i += 2;
    }
    Ok(Opts { flags })
}

fn cmd_train(opts: &Opts) -> Result<(), String> {
    let registry = opts.registry()?;
    let sessions = opts.sessions(60_000)?;
    let base = TrafficConfig::paper_training().with_sessions(sessions);
    let seed = opts.seed(base.seed)?;
    let features = FeatureSet::table8();
    eprintln!("generating {sessions} sessions of simulated traffic ...");
    let data = generate(&features, &base.with_seed(seed));
    let (rows, uas) = data.rows_and_user_agents();
    let training = TrainingSet::from_rows(rows, uas).map_err(|e| e.to_string())?;
    println!(
        "window: {} sessions, {} user-agents, {} distinct fingerprint rows",
        training.len(),
        training.distinct_user_agents(),
        training.distinct_rows()
    );
    eprintln!("training (scale -> outliers -> PCA(7) -> k-means(11)) ...");
    let timings = Registry::monotonic();
    let model = TrainedModel::fit_observed(
        features,
        &training,
        TrainConfig::default(),
        &ThreadPool::serial(),
        &timings,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "accuracy {:.2}%, {} outliers removed, {} user-agents",
        model.train_accuracy() * 100.0,
        model.outliers_removed(),
        model.cluster_table().entries().len()
    );
    let histograms = timings.snapshot().histograms;
    let ms = |name: &str| histograms.get(name).map_or(0.0, |h| h.sum as f64 / 1e3);
    println!(
        "fit {:.1} ms: scale {:.1}, outliers {:.1}, pca {:.1}, k-means {:.1}, table {:.1}",
        ms(fit_metric_names::TOTAL_MICROS),
        ms(fit_metric_names::SCALE_MICROS),
        ms(fit_metric_names::OUTLIER_MICROS),
        ms(fit_metric_names::PCA_MICROS),
        ms(fit_metric_names::KMEANS_MICROS),
        ms(fit_metric_names::TABLE_MICROS),
    );
    let version = registry.publish(&model).map_err(|e| e.to_string())?;
    println!("published model v{version} to {}", registry.dir().display());
    Ok(())
}

fn cmd_table(opts: &Opts) -> Result<(), String> {
    let model = opts.load_model()?;
    println!(
        "model: accuracy {:.2}%, k = {}",
        model.train_accuracy() * 100.0,
        model.cluster_table().k()
    );
    for (cluster, _) in model.cluster_table().rows() {
        println!(
            "  cluster {cluster:>2}: {}",
            model.cluster_table().describe_cluster(cluster)
        );
    }
    Ok(())
}

fn cmd_assess(opts: &Opts) -> Result<(), String> {
    let model = opts.load_model()?;
    let ua_string = opts.flags.get("ua").ok_or("missing --ua")?;
    let claimed: UserAgent = ua_string
        .parse()
        .map_err(|e| format!("unparseable --ua: {e}"))?;
    let values: Vec<f64> = opts
        .flags
        .get("values")
        .ok_or("missing --values v1,v2,...")?
        .split(',')
        .map(|v| {
            v.trim()
                .parse::<f64>()
                .map_err(|_| format!("invalid value {v:?}"))
        })
        .collect::<Result<_, _>>()?;
    let detector = Detector::new(model);
    let a = detector
        .assess(&values, claimed)
        .map_err(|e| e.to_string())?;
    let policy = RiskPolicy::default();
    println!("claimed:            {}", claimed.label());
    println!("predicted cluster:  {}", a.predicted_cluster);
    println!("expected cluster:   {:?}", a.expected_cluster);
    println!("flagged:            {}", a.flagged);
    println!("risk factor:        {}", a.risk_factor);
    let verdict = Verdict::from(&a);
    println!("policy action:      {:?}", policy.decide(&verdict));
    Ok(())
}

fn cmd_drift(opts: &Opts) -> Result<(), String> {
    let model = opts.load_model()?;
    let sessions = opts.sessions(40_000)?;
    let base = TrafficConfig::drift_window().with_sessions(sessions);
    let seed = opts.seed(base.seed)?;
    eprintln!("generating {sessions} sessions from the late-2023 window ...");
    let data = generate(&FeatureSet::table8(), &base.with_seed(seed));
    let (rows, uas) = data.rows_and_user_agents();
    let batch = TrainingSet::from_rows(rows, uas).map_err(|e| e.to_string())?;
    let monitor = DriftDetector::new(&model);
    for version in 115..=119u32 {
        let releases = [
            UserAgent::new(Vendor::Chrome, version),
            UserAgent::new(Vendor::Firefox, version),
            UserAgent::new(Vendor::Edge, version),
        ];
        let (observations, decision) = monitor
            .checkpoint(&batch, &releases)
            .map_err(|e| e.to_string())?;
        for o in &observations {
            println!(
                "{:<12} cluster {:>2} (expected {:?}) accuracy {:>6.2}%{}",
                o.release.label(),
                o.cluster,
                o.expected_cluster,
                o.accuracy * 100.0,
                if o.triggers_retraining() {
                    "  <-- drift"
                } else {
                    ""
                }
            );
        }
        if let browser_polygraph::core::DriftDecision::Retrain { triggers } = decision {
            println!(
                "RETRAIN: {}",
                triggers
                    .iter()
                    .map(|u| u.label())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
    }
    Ok(())
}

fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let model = opts.load_model()?;
    let addr = opts
        .flags
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:7431");
    let backend = match opts.flags.get("backend").map(String::as_str) {
        None | Some("threaded") => browser_polygraph::service::ServerBackend::Threaded,
        Some("reactor") => browser_polygraph::service::ServerBackend::Reactor,
        Some(other) => return Err(format!("unknown backend {other:?} (threaded|reactor)")),
    };
    // The profile `polybench` measures (`serve_repeat` / `serve_distinct`).
    let config = browser_polygraph::service::RiskServerConfig {
        backend,
        ..browser_polygraph::service::RiskServerConfig::production()
    };
    let server =
        browser_polygraph::service::start_risk_server_with(addr, Detector::new(model), config)
            .map_err(|e| format!("starting the risk service on {addr}: {e}"))?;
    println!(
        "risk service listening on {} ({backend:?} backend)",
        server.local_addr()
    );
    println!("frames: u16-LE length + fingerprint submission; response: 8-byte verdict");
    println!("press Ctrl-C to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
