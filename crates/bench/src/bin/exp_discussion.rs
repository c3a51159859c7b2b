//! The §8 discussion points, measured:
//!
//! * **User-agent randomization** — "a common anti-fingerprinting strategy,
//!   potentially increasing false positives in Browser Polygraph". We give
//!   a slice of legitimate users a randomizer extension and measure the
//!   flag-rate inflation the paper predicts (and why it recommends against
//!   the practice).
//! * **Scale of the database** — "a viable solution would be the adoption
//!   of Stratified Sampling". We train on a 10% stratified sample versus a
//!   10% uniform sample versus the full window and compare accuracy and
//!   rare-browser coverage.
//! * **Clusterer choice** (§6.4.3: "kmeans was chosen due to its
//!   efficiency and straightforward implementation") — we time k-means
//!   against average-linkage agglomerative clustering on an equal sample
//!   and compare accuracy.

use browser_engine::UserAgent;
use polygraph_bench::{header, parse_options, pct, report, report_timed};
use polygraph_core::{
    stratified_sample, Detector, StratifiedConfig, TrainConfig, TrainedModel, TrainingSet,
};
use polygraph_ml::kmeans::KMeansConfig;
use polygraph_ml::metrics::majority_cluster_accuracy;
use polygraph_ml::{Agglomerative, KMeans, Matrix, Pca, StandardScaler};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use traffic::{generate, GroundTruth, TrafficConfig};

fn main() {
    let opts = parse_options();
    let fs = fingerprint::FeatureSet::table8();
    let window = TrafficConfig::paper_training()
        .with_sessions(opts.sessions)
        .with_seed(opts.seed);
    println!("generating {} sessions ...", opts.sessions);
    let data = generate(&fs, &window);
    let (rows, uas) = data.rows_and_user_agents();
    let training = TrainingSet::from_rows(rows.clone(), uas.clone()).expect("well-formed");
    let model = TrainedModel::fit(fs.clone(), &training, TrainConfig::default()).expect("training");
    let detector = Detector::new(model.clone());

    // ------------------------------------------------------------------
    header("§8 — user-agent randomization inflates false positives");
    // Baseline benign flag rate.
    let benign: Vec<usize> = data
        .sessions
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.truth, GroundTruth::Legitimate { .. }))
        .map(|(i, _)| i)
        .collect();
    let benign_flagged = benign
        .iter()
        .filter(|&&i| detector.assess(&rows[i], uas[i]).expect("assess").flagged)
        .count();
    report(
        "benign flag rate, honest user-agents",
        "(low)",
        &pct(benign_flagged as f64 / benign.len().max(1) as f64),
    );

    // The same benign sessions with a randomizer extension: the claimed
    // user-agent is drawn from the population, the fingerprint is not.
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ 0x0AD);
    let pool: Vec<UserAgent> = {
        let mut v = uas.clone();
        v.sort();
        v.dedup();
        v
    };
    let mut randomized_flagged = 0usize;
    for &i in &benign {
        let fake = *pool.choose(&mut rng).expect("non-empty pool");
        if detector.assess(&rows[i], fake).expect("assess").flagged {
            randomized_flagged += 1;
        }
    }
    report(
        "benign flag rate, randomized user-agents",
        "(high — the paper advises against it)",
        &pct(randomized_flagged as f64 / benign.len().max(1) as f64),
    );

    // Partial adoption: what a 2% randomizer user base does to the flag
    // volume the analysts must triage.
    let mut partial_flagged = 0usize;
    for &i in &benign {
        let claim = if rng.gen::<f64>() < 0.02 {
            *pool.choose(&mut rng).expect("non-empty pool")
        } else {
            uas[i]
        };
        if detector.assess(&rows[i], claim).expect("assess").flagged {
            partial_flagged += 1;
        }
    }
    report(
        "benign flag rate, 2% of users randomizing",
        "(flag volume multiplies)",
        &pct(partial_flagged as f64 / benign.len().max(1) as f64),
    );

    // ------------------------------------------------------------------
    header("§8 — stratified sampling for oversized training sets");
    report(
        "full window: accuracy / user-agents in table",
        "(reference)",
        &format!(
            "{} / {}",
            pct(model.train_accuracy()),
            model.cluster_table().entries().len()
        ),
    );

    let stratified = stratified_sample(
        &training,
        StratifiedConfig {
            fraction: 0.1,
            min_per_stratum: 150,
            seed: opts.seed,
        },
    )
    .expect("sampling");
    let strat_model = TrainedModel::fit(fs.clone(), &stratified, TrainConfig::default())
        .expect("training on the stratified sample");
    report(
        &format!("10% stratified ({} rows): accuracy / UAs", stratified.len()),
        "(representative)",
        &format!(
            "{} / {}",
            pct(strat_model.train_accuracy()),
            strat_model.cluster_table().entries().len()
        ),
    );

    // Uniform 10% for contrast: rare strata thin out or vanish.
    let mut idx: Vec<usize> = (0..training.len()).collect();
    idx.shuffle(&mut rng);
    idx.truncate(training.len() / 10);
    let keep: std::collections::HashSet<usize> = idx.into_iter().collect();
    let uniform = training.filtered(|i| keep.contains(&i));
    let uniform_model = TrainedModel::fit(fs, &uniform, TrainConfig::default())
        .expect("training on the uniform sample");
    report(
        &format!("10% uniform ({} rows): accuracy / UAs", uniform.len()),
        "(rare browsers thin out)",
        &format!(
            "{} / {}",
            pct(uniform_model.train_accuracy()),
            uniform_model.cluster_table().entries().len()
        ),
    );

    // Rare-stratum coverage: sessions per EdgeHTML release in each set.
    let edgehtml = |set: &TrainingSet| {
        set.user_agents()
            .iter()
            .filter(|u| u.vendor == browser_engine::Vendor::Edge && u.version < 20)
            .count()
    };
    report(
        "EdgeHTML sessions full / stratified / uniform",
        "(stratified preserves them)",
        &format!(
            "{} / {} / {}",
            edgehtml(&training),
            edgehtml(&stratified),
            edgehtml(&uniform)
        ),
    );

    // ------------------------------------------------------------------
    header("§6.4 — clusterer choice: k-means vs agglomerative (equal 2k sample)");
    let sample = stratified_sample(
        &training,
        StratifiedConfig {
            fraction: 2_000.0 / training.len() as f64,
            min_per_stratum: 10,
            seed: opts.seed,
        },
    )
    .expect("sampling");
    let x = Matrix::from_rows(sample.rows()).expect("well-formed");
    let mut scaler = StandardScaler::fit(&x).expect("finite training data");
    scaler.neutralize_columns(
        &fingerprint::FeatureSet::table8().indices_of_kind(fingerprint::FeatureKind::TimeBased),
    );
    let scaled = scaler.transform(&x).expect("fitted");
    let pca = Pca::fit(&scaled, 7).expect("pca");
    let projected = pca.transform(&scaled).expect("projected");

    let t0 = std::time::Instant::now();
    let kmeans =
        KMeans::fit(&projected, KMeansConfig::new(11).with_seed(opts.seed)).expect("kmeans");
    let kmeans_time = t0.elapsed();
    let kmeans_acc = majority_cluster_accuracy(
        sample.user_agents(),
        &kmeans.predict(&projected).expect("predict"),
    )
    .expect("metric")
    .accuracy;

    let t0 = std::time::Instant::now();
    let agg = Agglomerative::fit(&projected, 11).expect("agglomerative");
    let agg_time = t0.elapsed();
    let agg_acc = majority_cluster_accuracy(sample.user_agents(), agg.labels())
        .expect("metric")
        .accuracy;

    report_timed(
        &format!("k-means ({} rows): accuracy / time", sample.len()),
        "(the paper's choice)",
        &pct(kmeans_acc),
        &format!("{:.0} ms", kmeans_time.as_secs_f64() * 1000.0),
    );
    report_timed(
        &format!("agglomerative ({} rows): accuracy / time", sample.len()),
        "(comparable accuracy, O(n^2) cost)",
        &pct(agg_acc),
        &format!("{:.0} ms", agg_time.as_secs_f64() * 1000.0),
    );
    println!(
        "  (agglomerative needs the full distance matrix: at the paper's 205k\n\
         \x20\x20sessions that is ~336 GB — k-means' linear memory is the deployment\n\
         \x20\x20argument, not accuracy)"
    );
}
