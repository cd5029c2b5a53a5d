//! Golden tests: the fixture mini-workspace under `tests/fixtures/mini/`
//! seeds at least one violation (and at least one near-miss negative) for
//! every shipped rule; the full finding set — identities, lines, messages —
//! is pinned against `tests/fixtures/mini-expected.json`. The baseline and
//! CLI tests drive the same fixtures through the suppression machinery and
//! the installed binary.

use std::path::{Path, PathBuf};
use std::process::Command;

use projtile_lint::findings::to_json;
use projtile_lint::{run_lint, Baseline, Config, Finding};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini")
}

/// The fixture workspace's conventions: the repo config with the fixture's
/// own expensive function and no env-scan exclusions.
fn fixture_config() -> Config {
    Config {
        expensive_fns: vec!["solve_thing".to_string()],
        env_scan_exclude: Vec::new(),
        ..Config::repo()
    }
}

fn fixture_findings() -> Vec<Finding> {
    run_lint(&fixture_root(), &fixture_config()).expect("fixture workspace loads")
}

#[test]
fn fixture_findings_match_golden_json() {
    let findings = fixture_findings();
    let actual = to_json(
        &findings
            .iter()
            .map(|f| (f.clone(), false))
            .collect::<Vec<_>>(),
    );
    let expected_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/mini-expected.json");
    if std::env::var_os("PROJTILE_LINT_UPDATE_GOLDEN").is_some() {
        std::fs::write(&expected_path, format!("{}\n", actual.trim()))
            .expect("golden file is writable");
    }
    let expected = std::fs::read_to_string(&expected_path).expect("golden file exists");
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "fixture findings diverge from the golden file; if the change is \
         intended, update tests/fixtures/mini-expected.json"
    );
}

#[test]
fn every_shipped_rule_fires_on_the_fixture() {
    let findings = fixture_findings();
    for rule in [
        "L001", "L002", "L003", "L004", "L006", "L007", "L008", "L009", "L010",
    ] {
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "rule {rule} produced no finding on the seeded fixture"
        );
    }
}

#[test]
fn fixture_negatives_stay_clean() {
    let findings = fixture_findings();
    // The justified allow suppresses `guarded`'s panic; the reasonless one
    // does not suppress `reasonless`'s expect.
    assert!(!findings.iter().any(|f| f.detail.starts_with("guarded::")));
    assert!(findings.iter().any(|f| f.detail == "reasonless::.expect()"));
    // Dropping the guard before the expensive call is clean.
    assert!(!findings
        .iter()
        .any(|f| f.detail.starts_with("compute_after_drop::")));
    // The covered oracle pair and the twinless oracle are clean.
    assert!(!findings
        .iter()
        .any(|f| f.rule == "L001" && (f.detail == "covered" || f.detail == "orphan")));
    // L008 negatives: the allow on `vetted`'s fn line cuts the chain from
    // `surface_vetted`, and full-range slicing is not an indexing sink.
    assert!(!findings
        .iter()
        .any(|f| f.chain.iter().any(|c| c.contains("surface_vetted"))));
    assert!(!findings.iter().any(|f| f.detail.starts_with("whole::")));
    // The L008 finding on the kern assert carries the full three-link chain.
    let transitive = findings
        .iter()
        .find(|f| f.detail == "inner::assert!")
        .expect("transitive panic is found");
    assert_eq!(transitive.chain.len(), 3);
    assert!(transitive.chain[0].contains("surface_entry"));
    // The transitive L003 finding carries the chain from the call under the
    // guard to the expensive function.
    let chained = findings
        .iter()
        .find(|f| f.detail == "refresh_under_lock::refresh->reaches-solve_thing")
        .expect("expensive call two links away is found");
    assert_eq!(chained.chain.len(), 3);
    assert!(chained.chain[1].contains("recompute"));
    // Poison recovery (`.unwrap_or_else(..)`) passes the mutex guard through
    // to its `let`, so the guard is live at the expensive call.
    assert!(findings
        .iter()
        .any(|f| f.detail == "compute_under_mutex::solve_thing->reaches-solve_thing"));
    // L009 negatives: guard dropped before the helper, and a chained
    // temporary guard that dies at its statement.
    assert!(!findings
        .iter()
        .any(|f| f.detail.starts_with("upgrade_after_drop::")));
    assert!(!findings
        .iter()
        .any(|f| f.detail.starts_with("peek_then_write::")));
    // The justified, consumed allows (guarded, vetted) are not L010 debt.
    assert!(!findings
        .iter()
        .any(|f| f.rule == "L010" && (f.line == 13 || f.path.contains("kern"))));
    // The documented env var and the valid smoke greps are clean.
    assert!(!findings.iter().any(|f| f.detail == "PROJTILE_THREADS"));
    assert!(!findings
        .iter()
        .any(|f| f.rule == "L007" && f.detail != "bench/stale_name"));
}

#[test]
fn baseline_suppresses_by_identity_not_line() {
    let findings = fixture_findings();
    let full = Baseline::parse(&Baseline::render(&findings)).expect("rendered baseline parses");
    assert!(findings.iter().all(|f| full.contains(f)));
    // A shifted line number still matches (identity is rule/path/detail).
    let mut moved = findings[0].clone();
    moved.line += 100;
    assert!(full.contains(&moved));

    // A partial baseline leaves exactly the unlisted findings gating.
    let partial =
        Baseline::parse(&Baseline::render(&findings[..3])).expect("partial baseline parses");
    let new: Vec<&Finding> = findings.iter().filter(|f| !partial.contains(f)).collect();
    assert_eq!(new.len(), findings.len() - 3);
}

#[test]
fn cli_gates_on_new_findings_and_respects_the_baseline() {
    let bin = env!("CARGO_BIN_EXE_projtile-lint");
    let root = fixture_root();
    // The fixture config is not the CLI default (different expensive fn), so
    // drive the CLI end-to-end on findings the default config also produces:
    // L004/L006/L007 need no config overrides.
    let out = Command::new(bin)
        .args(["--root", root.to_str().expect("utf8 path"), "--json"])
        .output()
        .expect("projtile-lint runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "seeded fixture must gate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8(out.stdout).expect("json output is utf8");
    assert!(json.contains("\"rule\": \"L006\""));
    assert!(json.contains("\"detail\": \"PROJTILE_WIDGETS\""));

    // Writing a baseline and re-running against it exits 0 with everything
    // suppressed.
    let baseline = std::env::temp_dir().join("projtile-lint-golden-baseline.txt");
    let out = Command::new(bin)
        .args([
            "--root",
            root.to_str().expect("utf8 path"),
            "--write-baseline",
            baseline.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("projtile-lint writes a baseline");
    assert!(out.status.success());
    let out = Command::new(bin)
        .args([
            "--root",
            root.to_str().expect("utf8 path"),
            "--baseline",
            baseline.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("projtile-lint runs against the baseline");
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 new"), "summary: {text}");
    std::fs::remove_file(&baseline).ok();
}

#[test]
fn missing_root_is_a_usage_error() {
    let bin = env!("CARGO_BIN_EXE_projtile-lint");
    let out = Command::new(bin)
        .args(["--root", "/nonexistent/projtile-lint-test"])
        .output()
        .expect("projtile-lint runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn explain_prints_the_catalog_entry() {
    let bin = env!("CARGO_BIN_EXE_projtile-lint");
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = repo_root.to_str().expect("utf8 path");
    let out = Command::new(bin)
        .args(["--root", root, "--explain", "L008"])
        .output()
        .expect("projtile-lint runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("### L008"), "got: {text}");
    assert!(text.contains("call graph"));
    // Lowercase ids are normalized; unknown ids are usage errors (exit 2).
    let out = Command::new(bin)
        .args(["--root", root, "--explain", "l009"])
        .output()
        .expect("projtile-lint runs");
    assert!(out.status.success());
    let out = Command::new(bin)
        .args(["--root", root, "--explain", "L999"])
        .output()
        .expect("projtile-lint runs");
    assert_eq!(out.status.code(), Some(2));
}
