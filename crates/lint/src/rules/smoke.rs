//! **L007 smoke-grep rot** — every workload name `scripts/ci.sh` greps out of
//! the bench-smoke snapshot must still be producible by the bench sources.
//!
//! The CI bench smoke asserts that specific workloads ran by grepping their
//! names out of the emitted snapshot. When a workload is renamed, the stale
//! grep fails CI loudly — but the reverse rot (the grep is deleted along
//! with a typo'd rename, silently dropping coverage) and review-time
//! confidence both benefit from a static check: each grepped name must match
//! some string literal in `crates/bench/src`. Workload names assembled with
//! `format!` are matched structurally: the literal's fragments around `{…}`
//! holes must align with the grepped name (so
//! `"service/mixed_traffic/{tag}"` covers `service/mixed_traffic/p99`).

use crate::findings::Finding;
use crate::lexer::Tok;
use crate::workspace::Workspace;

use super::Config;

/// Whether the literal `lit` (possibly a `format!` template with `{…}`
/// holes) can produce a string containing `name`.
fn literal_may_contain(lit: &str, name: &str) -> bool {
    // Protect `{{`/`}}` escapes before splitting on holes.
    let protected = lit.replace("{{", "\u{1}").replace("}}", "\u{2}");
    let unprotect = |s: &str| s.replace('\u{1}', "{").replace('\u{2}', "}");
    if !protected.contains('{') {
        return unprotect(&protected).contains(name);
    }
    // Split into the fixed fragments between holes.
    let mut fragments: Vec<String> = Vec::new();
    let mut rest = protected.as_str();
    loop {
        match rest.find('{') {
            Some(open) => {
                fragments.push(unprotect(&rest[..open]));
                match rest[open..].find('}') {
                    Some(close) => rest = &rest[open + close + 1..],
                    None => break, // unterminated hole: ignore the tail
                }
            }
            None => {
                fragments.push(unprotect(rest));
                break;
            }
        }
    }
    let fragments: Vec<&str> = fragments
        .iter()
        .map(|f| f.as_str())
        .filter(|f| !f.is_empty())
        .collect();
    if fragments.is_empty() {
        return false; // a pure-hole template pins nothing
    }
    // Either the name sits inside one fixed fragment, or every fragment
    // appears in the name, in order (holes absorb the rest).
    if fragments.iter().any(|f| f.contains(name)) {
        return true;
    }
    let mut pos = 0usize;
    for f in &fragments {
        match name[pos..].find(f) {
            Some(at) => pos += at + f.len(),
            None => return false,
        }
    }
    true
}

/// Extracts the smoke-grep patterns from `ci.sh`: lines of the form
/// `grep -q "NAME" "$smoke_out"`.
fn smoke_greps(script: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for (n, line) in script.lines().enumerate() {
        let t = line.trim();
        if !t.contains("$smoke_out") {
            continue;
        }
        let Some(after) = t.strip_prefix("grep -q \"") else {
            continue;
        };
        if let Some(end) = after.find('"') {
            out.push((after[..end].to_string(), n as u32 + 1));
        }
    }
    out
}

/// Runs L007.
pub fn run(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    let Some(script) = ws.ci_script.as_deref() else {
        return Vec::new();
    };
    let literals: Vec<&str> = ws
        .sources_under(&cfg.bench_src_dirs)
        .flat_map(|s| s.parsed.tokens.iter())
        .filter_map(|t| match &t.tok {
            Tok::Str(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    let mut findings = Vec::new();
    for (name, line) in smoke_greps(script) {
        if literals.iter().any(|l| literal_may_contain(l, &name)) {
            continue;
        }
        findings.push(Finding::new(
            "L007",
            "scripts/ci.sh",
            line,
            &name,
            format!(
                "ci.sh smoke-greps `{name}` but no string literal in \
                 crates/bench/src can produce that workload name (stale after a rename?)"
            ),
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_literals_match_by_substring() {
        assert!(literal_may_contain(
            "service/roundtrip/tightness_hit",
            "service/roundtrip"
        ));
        assert!(!literal_may_contain("engine/cold", "engine/warm"));
    }

    #[test]
    fn format_holes_absorb_variable_parts() {
        assert!(literal_may_contain(
            "service/mixed_traffic/{tag}",
            "service/mixed_traffic/p99"
        ));
        assert!(!literal_may_contain(
            "service/mixed_traffic/{tag}",
            "engine/cache_hit"
        ));
        assert!(!literal_may_contain("{tag}", "anything"));
    }

    #[test]
    fn brace_escapes_are_literal_braces() {
        assert!(literal_may_contain("a{{b}}c", "a{b}c"));
    }

    #[test]
    fn greps_are_extracted_with_lines() {
        let script = "echo hi\n  grep -q \"engine/cold\" \"$smoke_out\"\ngrep -q \"x\" other\n";
        assert_eq!(smoke_greps(script), [("engine/cold".to_string(), 2)]);
    }
}
