//! End-to-end tests of the polygraph-lint pass, driven in-process against
//! the bad/good fixtures under `tests/lint_fixtures/` and against the real
//! workspace (which must stay clean).

use std::path::{Path, PathBuf};
use xtask::{lint_workspace, LintConfig};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures")
}

/// A config whose zones match the fixture naming scheme instead of the
/// real workspace layout.
fn fixture_config() -> LintConfig {
    let mut config = LintConfig::default();
    config
        .apply_toml(
            r#"
[zones]
panic_safety = ["panic_", "reactor_"]
concurrency = ["lock_order_", "guard_scope_", "atomic_", "quant_", "fleet_", "minibatch_"]
"#,
        )
        .expect("fixture config parses");
    config
}

fn run_fixtures(config: &LintConfig) -> xtask::LintReport {
    lint_workspace(&fixtures_root(), config).expect("fixture scan succeeds")
}

#[test]
fn bad_fixtures_fire_every_rule_at_the_expected_lines() {
    let report = run_fixtures(&fixture_config());
    let got: Vec<(String, String, u32)> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.clone(), d.rule.to_string(), d.line))
        .collect();
    let expected: Vec<(&str, &str, u32)> = vec![
        ("atomic_bad.rs", "POLY-L003", 6),       // epoch.store(…, Relaxed)
        ("atomic_bad.rs", "POLY-L003", 7),       // stop.store(…, Relaxed)
        ("atomic_bad.rs", "POLY-L003", 11),      // epoch.load(Relaxed)
        ("fleet_bad.rs", "POLY-L002", 6),        // write_all under ring.read()
        ("fleet_bad.rs", "POLY-L003", 11),       // version.store(…, Relaxed)
        ("guard_scope_bad.rs", "POLY-L002", 6),  // write_all under state.read()
        ("guard_scope_bad.rs", "POLY-L002", 11), // assess under slot.read()
        ("guard_scope_bad.rs", "POLY-L002", 16), // nap_briefly (propagated sleep)
        ("lock_order_bad.rs", "POLY-L001", 10),  // ledger → index
        ("lock_order_bad.rs", "POLY-L001", 17),  // index → ledger
        ("lock_order_bad.rs", "POLY-L001", 24),  // ledger → audit via grab_audit
        ("lock_order_bad.rs", "POLY-L001", 35),  // audit → ledger
        ("minibatch_bad.rs", "POLY-L002", 6),    // refit_streaming under slot.read()
        ("panic_bad.rs", "POLY-P004", 5),        // frame[0]
        ("panic_bad.rs", "POLY-P001", 6),        // unwrap()
        ("panic_bad.rs", "POLY-P002", 7),        // expect(…)
        ("panic_bad.rs", "POLY-P003", 8),        // panic!
        ("quant_bad.rs", "POLY-L002", 7),        // assess_many under slot.read()
        ("quant_bad.rs", "POLY-L003", 11),       // epoch.store(…, Relaxed)
        ("reactor_bad.rs", "POLY-P004", 6),      // events[0]
        ("reactor_bad.rs", "POLY-P001", 7),      // unwrap()
    ];
    let expected: Vec<(String, String, u32)> = expected
        .into_iter()
        .map(|(f, r, l)| (f.to_string(), r.to_string(), l))
        .collect();
    assert_eq!(got, expected, "\nfull report:\n{}", report.render_text());
}

#[test]
fn good_fixtures_are_clean() {
    let report = run_fixtures(&fixture_config());
    for clean in [
        "atomic_good.rs",
        "fleet_good.rs",
        "guard_scope_good.rs",
        "lock_order_good.rs",
        "minibatch_good.rs",
        "panic_good.rs",
        "quant_good.rs",
    ] {
        assert!(
            report.diagnostics.iter().all(|d| d.file != clean),
            "{clean} should be clean:\n{}",
            report.render_text()
        );
    }
}

#[test]
fn allow_entry_suppresses_exactly_one_diagnostic() {
    let mut config = fixture_config();
    config
        .apply_toml(
            r#"
[[allow]]
rule = "POLY-P004"
file = "panic_bad.rs"
line = 5
reason = "fixture test: index is bounds-checked by construction"
"#,
        )
        .expect("allow entry parses");
    let baseline = run_fixtures(&fixture_config());
    let report = run_fixtures(&config);
    assert_eq!(report.suppressed, 1);
    assert_eq!(report.diagnostics.len(), baseline.diagnostics.len() - 1);
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| !(d.rule == "POLY-P004" && d.file == "panic_bad.rs")),
        "the allowed diagnostic must be gone:\n{}",
        report.render_text()
    );
    assert!(report.unused_allows.is_empty());
}

#[test]
fn stale_allow_entries_are_flagged_not_silently_ignored() {
    let mut config = fixture_config();
    config
        .apply_toml(
            r#"
[[allow]]
rule = "POLY-P001"
file = "panic_good.rs"
reason = "stale: this was fixed long ago"
"#,
        )
        .expect("allow entry parses");
    let report = run_fixtures(&config);
    assert_eq!(report.unused_allows.len(), 1);
    assert_eq!(report.unused_allows[0].file, "panic_good.rs");
    assert!(report
        .render_text()
        .contains("error: stale allow entry (POLY-H004"));
    assert!(
        !report.is_clean(),
        "stale allow entries must fail the run even with zero violations"
    );
}

#[test]
fn json_report_is_deterministic_and_carries_positions() {
    let a = run_fixtures(&fixture_config()).render_json();
    let b = run_fixtures(&fixture_config()).render_json();
    assert_eq!(a, b, "same input must render byte-identical JSON");
    assert!(a.contains("\"rule\": \"POLY-P001\""));
    assert!(a.contains("\"file\": \"panic_bad.rs\""));
    assert!(a.contains("\"line\": 6"));
    assert!(!a.contains("timestamp"));
}

/// The `--self-check` pass must hold on the committed fixture corpus:
/// every rule fires somewhere, good twins stay clean, stale allows fail.
#[test]
fn self_check_passes_on_the_committed_fixtures() {
    xtask::self_check(&fixtures_root()).expect("self-check passes");
}

/// `fixture_lint_config()` (used by `--self-check`) and the TOML-built
/// config above must describe the same zones, or the CLI and the test
/// suite would silently test different things.
#[test]
fn fixture_lint_config_matches_the_toml_built_config() {
    let a = run_fixtures(&fixture_config()).render_json();
    let b = run_fixtures(&xtask::fixture_lint_config()).render_json();
    assert_eq!(a, b);
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn workspace_config() -> LintConfig {
    let text = std::fs::read_to_string(workspace_root().join("lint.toml"))
        .expect("the workspace has a lint.toml");
    let mut config = LintConfig::default();
    config
        .apply_toml(&text)
        .expect("committed lint.toml parses");
    config
}

/// Every POLY-L `[[allow]]` in the committed `lint.toml` is load-bearing:
/// removing it resurfaces findings at exactly these locations. This pins
/// each dogfooding decision (audited allow vs. fix) — the orchestrator
/// guard-across-checkpoint finding was fixed instead, so it must NOT
/// reappear here (`real_workspace_is_clean` covers that side).
#[test]
fn dogfooding_allows_are_load_bearing() {
    let root = workspace_root();
    let full = workspace_config();
    let cases: &[(&str, &str, &[u32])] = &[
        (
            "POLY-L002",
            "crates/service/src/server/batch.rs",
            &[283, 400],
        ),
        ("POLY-L003", "crates/cache/src/lib.rs", &[232, 293]),
    ];
    for (rule, file, lines) in cases {
        let mut config = full.clone();
        config
            .allow
            .retain(|a| !(a.rule == *rule && a.file == *file));
        let report = lint_workspace(&root, &config).expect("workspace scan succeeds");
        let got: Vec<u32> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == *rule && d.file == *file)
            .map(|d| d.line)
            .collect();
        assert_eq!(
            got, *lines,
            "the [[allow]] for {rule} in {file} no longer matches the code it audits"
        );
    }
}

/// The real workspace must be lint-clean under the committed `lint.toml`
/// — the same invocation CI runs as `cargo xtask lint`.
#[test]
fn real_workspace_is_clean() {
    let root = workspace_root();
    let config = workspace_config();
    let report = lint_workspace(&root, &config).expect("workspace scan succeeds");
    assert!(
        report.is_clean(),
        "the workspace must pass its own lint:\n{}",
        report.render_text()
    );
    assert!(
        report.unused_allows.is_empty(),
        "committed lint.toml has stale allow entries:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 50, "scan looks truncated");
}

/// `lint.toml` is the only zone map, so the CLI refuses to run without
/// one instead of scanning under zones it made up.
#[test]
fn missing_lint_toml_is_exit_status_2_naming_the_file() {
    let empty = std::env::temp_dir().join(format!("xtask-no-config-{}", std::process::id()));
    std::fs::create_dir_all(&empty).expect("temp dir is creatable");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(&empty)
        .output()
        .expect("the xtask binary runs");
    let _ = std::fs::remove_dir(&empty);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("lint.toml"), "stderr: {stderr}");
}
