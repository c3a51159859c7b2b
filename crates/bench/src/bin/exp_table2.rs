//! Table 2 (§3) and §7.5: service time and storage requirements of the
//! fine-grained baselines versus Browser Polygraph.
//!
//! The baseline numbers combine measured payload sizes (the simulators
//! reproduce the real tools' data volumes) with the paper's measured
//! service times (network + in-page execution cannot be measured in a
//! simulation). Browser Polygraph's path is measured for real: 28 probes,
//! wire encoding, a loopback TCP round-trip through the collection
//! service, and model inference.

use baselines::collectors::{collect, BaselineTool};
use browser_engine::{BrowserInstance, Os, UserAgent, Vendor};
use fingerprint::{encode_submission, FeatureSet, Submission};
use polygraph_bench::{header, parse_options, report, report_timed, train_paper_model};
use polygraph_core::Detector;
use std::time::Instant;
use traffic::collect::{start_collector, CollectorClient};

fn main() {
    let opts = parse_options();
    let fs = FeatureSet::table8();
    let browser = BrowserInstance::genuine(UserAgent::new(Vendor::Chrome, 112));

    header("Table 2: storage requirement (payload bytes)");
    for (tool, paper) in [
        (BaselineTool::AmIUnique, "~60KB"),
        (BaselineTool::FingerprintJs, "~23KB"),
        (BaselineTool::ClientJs, "~10KB"),
    ] {
        let out = collect(tool, &browser, Os::Windows10, 42, 42);
        report(tool.name(), paper, &format!("{} B", out.payload_bytes()));
    }
    let submission = Submission {
        session_id: [1u8; 16],
        user_agent: browser.claimed_user_agent().to_ua_string(),
        values: fs.extract(&browser).values().to_vec(),
    };
    let wire = encode_submission(&submission).expect("within budget");
    report(
        "Browser Polygraph (28 features, wire frame)",
        "1KB",
        &format!("{} B", wire.len()),
    );
    let full = Submission {
        values: FeatureSet::candidates_513()
            .extract(&browser)
            .values()
            .to_vec(),
        ..submission.clone()
    };
    let full_wire = encode_submission(&full).expect("within budget");
    report(
        "Browser Polygraph (full 513-candidate collection)",
        "<=1KB",
        &format!("{} B", full_wire.len()),
    );

    header("Table 2: average service time (5 visits)");
    for (tool, paper) in [
        (BaselineTool::AmIUnique, "~1.5s"),
        (BaselineTool::FingerprintJs, "51ms"),
        (BaselineTool::ClientJs, "37ms"),
    ] {
        report(
            tool.name(),
            paper,
            &format!("{} ms (modelled)", tool.modelled_service_time().as_millis()),
        );
    }

    // Browser Polygraph measured end-to-end on loopback: probe extraction
    // + wire encode + TCP submit + decode, averaged over 5 visits as the
    // paper did.
    let server = start_collector("127.0.0.1:0").expect("bind loopback");
    let mut client = CollectorClient::connect(server.local_addr()).expect("connect");
    #[expect(clippy::disallowed_methods, reason = "a timed cell, printed to stderr")]
    let start = Instant::now();
    for visit in 0..5u8 {
        let sub = Submission {
            session_id: [visit; 16],
            user_agent: browser.claimed_user_agent().to_ua_string(),
            values: fs.extract(&browser).values().to_vec(),
        };
        client.submit(&sub).expect("loopback submit");
    }
    let elapsed = start.elapsed();
    report_timed(
        "Browser Polygraph (measured: probe+wire+TCP)",
        "6ms",
        "",
        &format!("{:.3} ms", elapsed.as_secs_f64() * 1000.0 / 5.0),
    );
    drop(client);
    server.shutdown();

    header("§7.5: online inference cost (after training)");
    println!("  training a model on {} sessions first ...", opts.sessions);
    let (model, data) = train_paper_model(opts);
    let detector = Detector::new(model);
    let sample: Vec<_> = data.sessions.iter().take(10_000).collect();
    #[expect(clippy::disallowed_methods, reason = "a timed cell, printed to stderr")]
    let start = Instant::now();
    let mut flagged = 0usize;
    for s in &sample {
        if detector
            .assess(&s.row(), s.claimed)
            .expect("assess")
            .flagged
        {
            flagged += 1;
        }
    }
    let per_session = start.elapsed().as_secs_f64() * 1e6 / sample.len() as f64;
    report_timed(
        "model inference per session",
        "(within 6ms budget)",
        "",
        &format!("{per_session:.2} µs"),
    );
    println!("  ({flagged} of {} sample sessions flagged)", sample.len());
}
