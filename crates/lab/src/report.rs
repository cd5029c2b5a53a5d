//! Budget-sweep reporting over a recorded trace.
//!
//! [`LabReport::build`] replays the trace at the recorded budgets scaled by
//! each of [`SWEEP_SCALES`] and derives a concrete budget recommendation. [`render_report`] lays the study out as a plain text
//! table for the `projtile-lab` CLI.

use projtile_core::engine::TraceDocument;

use crate::replay::{replay_document, Budgets, ReplayReport};

/// Budget scales (numerator, denominator) the sweep evaluates.
pub const SWEEP_SCALES: [(u64, u64); 5] = [(1, 4), (1, 2), (1, 1), (2, 1), (4, 1)];

fn scale_label(num: u64, den: u64) -> String {
    if den == 1 {
        format!("{num}x")
    } else {
        format!("{num}/{den}x")
    }
}

/// Replays `doc` at `base` scaled by each entry of [`SWEEP_SCALES`],
/// labelling each report with its scale.
pub fn budget_sweep(doc: &TraceDocument, base: Budgets) -> Vec<(String, ReplayReport)> {
    SWEEP_SCALES
        .iter()
        .map(|&(num, den)| {
            let report = replay_document(doc, base.scaled(num, den));
            (scale_label(num, den), report)
        })
        .collect()
}

/// The budget study over one recorded trace.
#[derive(Debug, Clone)]
pub struct LabReport {
    /// Events in the studied trace.
    pub events: usize,
    /// The recorded budgets the sweep scales.
    pub budgets: Budgets,
    /// Replays at scaled budgets, labelled by scale.
    pub sweep: Vec<(String, ReplayReport)>,
    /// A concrete budget recommendation derived from the sweep.
    pub recommendation: String,
}

impl LabReport {
    /// Runs the budget sweep over `doc` around its recorded budgets.
    pub fn build(doc: &TraceDocument) -> LabReport {
        let budgets = Budgets::from_document(doc);
        let sweep = budget_sweep(doc, budgets);
        let recommendation = recommend(&sweep);
        LabReport {
            events: doc.events.len(),
            budgets,
            sweep,
            recommendation,
        }
    }
}

/// The recommendation heuristic: the smallest budget scale whose hit rate
/// is within half a point of the sweep's best.
fn recommend(sweep: &[(String, ReplayReport)]) -> String {
    let best_rate = sweep
        .iter()
        .map(|(_, r)| r.hit_rate())
        .fold(0.0f64, f64::max);
    match sweep.iter().find(|(_, r)| r.hit_rate() + 0.5 >= best_rate) {
        Some((label, r)) => format!(
            "recommend {} budgets (results {}, slices {}, surfaces {} at {:.1}% hits)",
            label,
            r.budgets.results,
            r.budgets.slices,
            r.budgets.surfaces,
            r.hit_rate()
        ),
        None => "trace too small to recommend anything".to_string(),
    }
}

/// Lays out rows of equal arity as a padded text table.
fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let emit = |out: &mut String, cells: &[String]| {
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            for _ in cell.len()..*w {
                out.push(' ');
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    let header: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    emit(&mut out, &header);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    emit(&mut out, &rule);
    for row in rows {
        emit(&mut out, row);
    }
    out
}

fn sweep_row(label: &str, r: &ReplayReport) -> Vec<String> {
    vec![
        label.to_string(),
        r.sim_hits.to_string(),
        r.sim_misses.to_string(),
        format!("{:.1}%", r.hit_rate()),
        format!("{:.1}%", r.byte_hit_rate()),
        r.evictions().to_string(),
    ]
}

/// Renders the study as plain text: the budget-sweep table and the
/// recommendation.
pub fn render_report(report: &LabReport) -> String {
    let mut out = format!(
        "trace: {} events; recorded budgets: results {}, slices {}, surfaces {}\n\n",
        report.events, report.budgets.results, report.budgets.slices, report.budgets.surfaces
    );
    out.push_str("budget sweep\n");
    let rows: Vec<Vec<String>> = report
        .sweep
        .iter()
        .map(|(label, r)| sweep_row(label, r))
        .collect();
    out.push_str(&table(
        &["budget", "hits", "misses", "hit%", "byte%", "evictions"],
        &rows,
    ));
    out.push('\n');
    out.push_str(&report.recommendation);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_pads_columns() {
        let text = table(&["a", "bb"], &[vec!["xxx".to_string(), "y".to_string()]]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "a    bb");
        assert_eq!(lines[1], "---  --");
        assert_eq!(lines[2], "xxx  y");
    }

    #[test]
    fn scale_labels() {
        assert_eq!(scale_label(1, 4), "1/4x");
        assert_eq!(scale_label(2, 1), "2x");
    }
}
