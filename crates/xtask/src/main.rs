//! `cargo xtask` — workspace automation.
//!
//! Subcommands:
//!
//! * `lint [--format text|json] [--root PATH] [--config PATH]
//!   [--self-check]` — run the polygraph-lint lock and panic-safety pass
//!   (`--json` stays as an alias for `--format json`). Exit 0 when
//!   clean, 1 when violations or stale allow entries survive, 2 on
//!   usage or I/O errors — a missing `lint.toml` included: the file is
//!   the only zone map. `--self-check` instead lints the linter's own
//!   fixture corpus and verifies every rule still fires where expected.
//!
//! This is a binary target, so the console belongs to it (the print lints
//! are denied at the library root only); everything else lives in the
//! `xtask` library so the integration tests can drive it in-process.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::{LintConfig, LintReport};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint_command(&args[1..]),
        Some(other) => {
            let _ = writeln!(std::io::stderr(), "unknown subcommand {other:?}\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            let _ = writeln!(std::io::stderr(), "{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: cargo xtask lint [--format text|json] [--root PATH] \
                     [--config PATH] [--self-check]";

#[derive(Clone, Copy, PartialEq)]
enum LintFormat {
    Text,
    Json,
}

fn lint_command(args: &[String]) -> ExitCode {
    let mut format = LintFormat::Text;
    let mut self_check = false;
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args.get(i).map(String::as_str) {
            Some("--json") => {
                format = LintFormat::Json;
                i += 1;
            }
            Some("--format") if i + 1 < args.len() => {
                format = match args.get(i + 1).map(String::as_str) {
                    Some("text") => LintFormat::Text,
                    Some("json") => LintFormat::Json,
                    other => {
                        let _ = writeln!(
                            std::io::stderr(),
                            "unknown --format {other:?} (expected text or json)\n{USAGE}"
                        );
                        return ExitCode::from(2);
                    }
                };
                i += 2;
            }
            Some("--self-check") => {
                self_check = true;
                i += 1;
            }
            Some("--root") if i + 1 < args.len() => {
                root = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            Some("--config") if i + 1 < args.len() => {
                config_path = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            Some(other) => {
                let _ = writeln!(std::io::stderr(), "unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
            None => break,
        }
    }

    let root = match root.map(Ok).unwrap_or_else(find_workspace_root) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "error: {e}");
            return ExitCode::from(2);
        }
    };

    if self_check {
        let fixtures = root.join("crates/xtask/tests/lint_fixtures");
        return match xtask::self_check(&fixtures) {
            Ok(()) => {
                let _ = writeln!(
                    std::io::stdout(),
                    "polygraph-lint self-check: every rule fires in its fixture, good twins \
                     are clean, stale allows fail"
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                let _ = writeln!(std::io::stderr(), "error: {e}");
                ExitCode::from(1)
            }
        };
    }

    let config_file = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let report = match load_and_lint(&root, &config_file) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "error: {e}");
            return ExitCode::from(2);
        }
    };

    let rendered = match format {
        LintFormat::Text => report.render_text(),
        LintFormat::Json => report.render_json(),
    };
    let _ = write!(std::io::stdout(), "{rendered}");
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `lint.toml` is the only zone map: without it there is nothing to
/// enforce, so a missing or unreadable file is an error, not a default.
fn load_and_lint(root: &Path, config_file: &Path) -> Result<LintReport, String> {
    let text = std::fs::read_to_string(config_file)
        .map_err(|e| format!("failed to read {}: {e}", config_file.display()))?;
    let mut config = LintConfig::default();
    config.apply_toml(&text)?;
    xtask::lint_workspace(root, &config)
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let mut dir: &Path = &start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir.to_path_buf());
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => {
                return Err(format!(
                    "no workspace Cargo.toml found above {}",
                    start.display()
                ))
            }
        }
    }
}
