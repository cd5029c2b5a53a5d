//! Experiment tables and perf snapshots for the `report` binary.
//!
//! The paper's evaluation is its Examples section (§6) plus the analytic
//! claims of §3–§5 and §7; DESIGN.md maps those onto experiments E1–E9. Each
//! function here regenerates the rows of one experiment as plain data, so the
//! `report` binary can print them (and EXPERIMENTS.md can record them). The
//! [`perf`] and [`service_perf`] modules are the one timing harness: they
//! time the underlying computations and the network service for the
//! `BENCH_*.json` snapshots of `report --bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;
pub mod service_perf;

use projtile_core::{
    alpha, bounds, check_tightness, closed_forms, communication_lower_bound, contraction, hbl,
    optimal_tiling, parametric, solve_tiling_lp,
};
use projtile_exec::{compare_schedules, CachePolicy};
use projtile_loopnest::builders;
use projtile_par::par_map;

/// One formatted row of an experiment table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Column values, already rendered as strings.
    pub cells: Vec<String>,
}

/// A complete experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment identifier, e.g. `"E2"`.
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// Column headers.
    pub header: Vec<&'static str>,
    /// Data rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.cells.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n\n", self.id, self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(
            &self
                .header
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
        ));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(&row.cells));
            out.push('\n');
        }
        out
    }
}

fn row(cells: Vec<String>) -> Row {
    Row { cells }
}

/// E1 (§6.1a): matrix multiplication with large bounds — classical exponent
/// and tile, across cache sizes.
pub fn e1_matmul_large() -> Table {
    let mut rows = Vec::new();
    for log_m in [8u32, 10, 12, 14, 16] {
        let m = 1u64 << log_m;
        let l = 1u64 << 9;
        let nest = builders::matmul(l, l, l);
        let k = hbl::hbl_exponent(&nest);
        let lb = communication_lower_bound(&nest, m);
        let tiling = optimal_tiling(&nest, m);
        rows.push(row(vec![
            format!("{l}^3"),
            format!("2^{log_m}"),
            k.to_string(),
            lb.exponent.to_string(),
            format!("{:?}", tiling.tile_dims()),
            format!("{:.3e}", lb.words),
        ]));
    }
    Table {
        id: "E1",
        title: "matmul, all bounds large: classical exponent 3/2 and square tiles",
        header: vec![
            "L",
            "M",
            "k_HBL",
            "k_hat",
            "optimal tile",
            "lower bound (words)",
        ],
        rows,
    }
}

/// E2 (§6.1b): matrix multiplication across the small-L3 crossover.
pub fn e2_matmul_small() -> Table {
    let m = 1u64 << 10;
    let l = 1u64 << 9;
    let logs: Vec<u32> = (0..=7).collect();
    let rows: Vec<Row> = par_map(&logs, |&log_l3| {
        let l3 = 1u64 << log_l3;
        let nest = builders::matmul(l, l, l3);
        let classical = hbl::large_bound_lower_bound(&nest, m);
        let lb = communication_lower_bound(&nest, m);
        let closed = closed_forms::matmul_lower_bound_words(l, l, l3, m);
        let tiling = optimal_tiling(&nest, m);
        let tight = check_tightness(&nest, m).tight;
        row(vec![
            l3.to_string(),
            format!("{classical:.0}"),
            format!("{:.0}", lb.words),
            format!("{closed:.0}"),
            lb.exponent.to_string(),
            format!("{:?}", tiling.tile_dims()),
            tight.to_string(),
        ])
    });
    Table {
        id: "E2",
        title: "matmul 512x512xL3, M=1024: arbitrary-bound LB vs classical, optimal tile",
        header: vec![
            "L3",
            "classical LB",
            "arbitrary LB",
            "closed form",
            "k_hat",
            "optimal tile",
            "tight",
        ],
        rows,
    }
}

/// E3 (§6.1c): the α-family of optimal tilings for a small-L3 matmul.
pub fn e3_alpha_family() -> Table {
    let m = 1u64 << 10;
    let nest = builders::matmul(1 << 9, 1 << 9, 1 << 2);
    let family = alpha::optimal_family(&nest, m, 0);
    let lb = communication_lower_bound(&nest, m);
    let mut rows = Vec::new();
    for num in 0..=4i64 {
        let a = projtile_arith::ratio(num, 4);
        let tiling = family.tiling_at(&nest, m, &a);
        let model = tiling.communication_model();
        rows.push(row(vec![
            a.to_string(),
            format!("{:?}", tiling.tile_dims()),
            model.total_words.to_string(),
            format!("{:.0}", lb.words),
            format!("{:.2}", model.ratio_to_lower_bound),
        ]));
    }
    Table {
        id: "E3",
        title: "alpha-parameterized family of optimal tilings (matmul 512x512x4, M=1024)",
        header: vec!["alpha", "tile", "analytic words", "lower bound", "ratio"],
        rows,
    }
}

/// E4 (§6.2): tensor contractions / pointwise convolutions — closed form vs LP.
pub fn e4_contraction() -> Table {
    let m = 1u64 << 12;
    let shapes: Vec<(u64, u64, u64, u64, u64)> = vec![
        (1, 3, 32, 112, 112),
        (1, 32, 64, 56, 56),
        (4, 16, 16, 28, 28),
        (8, 256, 256, 7, 7),
        (1, 1024, 1024, 1, 1),
    ];
    let rows: Vec<Row> = par_map(&shapes, |&(b, c, k, w, h)| {
        let nest = builders::pointwise_conv(b, c, k, w, h);
        let lp = solve_tiling_lp(&nest, m).value;
        let closed = contraction::pointwise_conv_exponent(b, c, k, w, h, m);
        let lb = communication_lower_bound(&nest, m);
        let tiling = optimal_tiling(&nest, m);
        row(vec![
            format!("({b},{c},{k},{w},{h})"),
            lp.to_string(),
            closed.to_string(),
            (lp == closed).to_string(),
            format!("{:.3e}", lb.words),
            format!("{:?}", tiling.tile_dims()),
        ])
    });
    Table {
        id: "E4",
        title: "pointwise convolutions (B,C,K,W,H), M=4096: closed form (6.2) vs tiling LP",
        header: vec![
            "shape",
            "LP exponent",
            "closed form",
            "agree",
            "lower bound",
            "optimal tile",
        ],
        rows,
    }
}

/// E5 (§6.3): n-body pairwise interactions across size regimes.
pub fn e5_nbody() -> Table {
    let m = 1u64 << 8;
    let l2 = 1u64 << 11;
    let mut rows = Vec::new();
    for log_l1 in [2u32, 4, 6, 8, 10, 12] {
        let l1 = 1u64 << log_l1;
        let nest = builders::nbody(l1, l2);
        let lb = communication_lower_bound(&nest, m);
        let closed = closed_forms::nbody_lower_bound_words(l1, l2, m);
        let tile = closed_forms::nbody_tile_size(l1, l2, m);
        let tiling = optimal_tiling(&nest, m);
        rows.push(row(vec![
            l1.to_string(),
            tile.to_string(),
            format!("{closed:.0}"),
            format!("{:.0}", lb.words),
            lb.exponent.to_string(),
            format!("{:?}", tiling.tile_dims()),
        ]));
    }
    Table {
        id: "E5",
        title: "n-body pairwise interactions, |Other|=2048, M=256: closed forms (6.3) vs machinery",
        header: vec![
            "L1",
            "max tile (6.3)",
            "closed LB",
            "general LB",
            "k_hat",
            "optimal tile",
        ],
        rows,
    }
}

/// E6 (Thm 2 vs §3): random projective programs — arbitrary-bound exponent vs
/// the classical one, and where they differ.
pub fn e6_random_programs() -> Table {
    let m = 1u64 << 6;
    let seeds: Vec<u64> = (0..12).collect();
    let rows: Vec<Row> = par_map(&seeds, |&seed| {
        let nest = builders::random_projective(seed, 4, 4, (1, 256));
        let classical = hbl::hbl_exponent(&nest);
        let lb = bounds::arbitrary_bound_exponent(&nest, m);
        let enumerated = bounds::enumerated_exponent(&nest, m);
        row(vec![
            seed.to_string(),
            format!("{:?}", nest.bounds()),
            classical.to_string(),
            lb.exponent.to_string(),
            enumerated.exponent.to_string(),
            format!("{:?}", lb.witness_subset),
        ])
    });
    Table {
        id: "E6",
        title:
            "random projective programs (d=4, n=4), M=64: classical vs arbitrary-bound exponents",
        header: vec![
            "seed",
            "bounds",
            "k_HBL",
            "k_hat (LP)",
            "k_hat (enum)",
            "witness Q",
        ],
        rows,
    }
}

/// E7 (Thm 3): tightness verification across every kernel family.
pub fn e7_tightness() -> Table {
    let mut rows = Vec::new();
    let cases: Vec<(&str, projtile_loopnest::LoopNest, u64)> = vec![
        (
            "matmul large",
            builders::matmul(1 << 8, 1 << 8, 1 << 8),
            1 << 10,
        ),
        (
            "matmul small L3",
            builders::matmul(1 << 8, 1 << 8, 4),
            1 << 10,
        ),
        ("matvec", builders::matvec(1 << 8, 1 << 8), 1 << 10),
        (
            "pointwise conv",
            builders::pointwise_conv(1, 3, 32, 112, 112),
            1 << 12,
        ),
        (
            "fully connected",
            builders::fully_connected(32, 1 << 10, 1 << 10),
            1 << 12,
        ),
        ("n-body", builders::nbody(1 << 4, 1 << 11), 1 << 8),
        (
            "contraction d=5",
            builders::tensor_contraction(2, 4, &[4, 8, 2, 16, 32]),
            1 << 8,
        ),
    ];
    for (name, nest, m) in cases {
        let report = check_tightness(&nest, m);
        rows.push(row(vec![
            name.to_string(),
            format!("2^{}", (m as f64).log2() as u32),
            report.tiling_exponent.to_string(),
            report.bound_exponent.to_string(),
            report.enumerated_exponent.to_string(),
            report.tight.to_string(),
        ]));
    }
    Table {
        id: "E7",
        title: "Theorem 3 tightness: tiling-LP optimum vs Theorem-2 exponent (exact equality)",
        header: vec![
            "kernel",
            "M",
            "tiling exp",
            "bound exp",
            "enum exp",
            "tight",
        ],
        rows,
    }
}

/// E8 (§1 motivation): measured traffic on the LRU simulator — untiled vs
/// classical square tiling vs optimal tiling, against the lower bound.
pub fn e8_simulated() -> Table {
    let cases: Vec<(&str, projtile_loopnest::LoopNest, u64)> = vec![
        ("matmul 32^3", builders::matmul(32, 32, 32), 128),
        ("matmul 64x64x2", builders::matmul(64, 64, 2), 256),
        ("matvec 64x64", builders::matvec(64, 64), 256),
        (
            "conv 2x2x8x12x12",
            builders::pointwise_conv(2, 2, 8, 12, 12),
            128,
        ),
        ("nbody 32x2048", builders::nbody(32, 2048), 256),
    ];
    let rows: Vec<Row> = par_map(&cases, |(name, nest, m)| {
        let cmp = compare_schedules(nest, *m, CachePolicy::Lru);
        row(vec![
            name.to_string(),
            m.to_string(),
            format!("{:.0}", cmp.lower_bound_words),
            cmp.untiled().words.to_string(),
            cmp.classical().words.to_string(),
            cmp.optimal().words.to_string(),
            format!("{:.2}", cmp.optimal().ratio_to_lower_bound),
            format!("{:.2}", cmp.untiled().ratio_to_lower_bound),
        ])
    });
    Table {
        id: "E8",
        title: "measured words moved on an LRU cache: untiled vs classical vs optimal tiling",
        header: vec![
            "kernel",
            "M",
            "lower bound",
            "untiled",
            "classical",
            "optimal",
            "opt/LB",
            "untiled/LB",
        ],
        rows,
    }
}

/// E9 (§7): piecewise-linear exponent as a function of one log-bound.
pub fn e9_parametric() -> Table {
    let m = 1u64 << 10;
    let mut rows = Vec::new();
    let cases: Vec<(&str, projtile_loopnest::LoopNest, usize)> = vec![
        ("matmul vs L3", builders::matmul(1 << 9, 1 << 9, 1 << 9), 2),
        ("nbody vs L1", builders::nbody(1 << 4, 1 << 12), 0),
        (
            "conv vs C",
            builders::pointwise_conv(2, 1, 1 << 6, 1 << 5, 1 << 5),
            1,
        ),
    ];
    for (name, nest, axis) in cases {
        let vf = parametric::exponent_vs_beta(&nest, m, axis, 1, m).expect("parametric analysis");
        let breakpoints: Vec<String> = vf
            .breakpoints
            .iter()
            .map(|(b, v)| format!("(beta={b}, k={v})"))
            .collect();
        rows.push(row(vec![
            name.to_string(),
            vf.num_pieces().to_string(),
            format!(
                "{:?}",
                vf.slopes()
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
            ),
            breakpoints.join(" "),
        ]));
    }
    Table {
        id: "E9",
        title:
            "piecewise-linear optimal exponent vs one log-bound (breakpoints are exact rationals)",
        header: vec!["sweep", "pieces", "slopes", "breakpoints"],
        rows,
    }
}

/// All experiments in order.
pub fn all_experiments() -> Vec<Table> {
    vec![
        e1_matmul_large(),
        e2_matmul_small(),
        e3_alpha_family(),
        e4_contraction(),
        e5_nbody(),
        e6_random_programs(),
        e7_tightness(),
        e8_simulated(),
        e9_parametric(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_produces_rows() {
        for table in all_experiments() {
            assert!(!table.rows.is_empty(), "{} has no rows", table.id);
            let text = table.render();
            assert!(text.contains(table.id));
            // Every row has as many cells as the header.
            for r in &table.rows {
                assert_eq!(r.cells.len(), table.header.len(), "{}", table.id);
            }
        }
    }

    #[test]
    fn e7_reports_tight_everywhere() {
        let t = e7_tightness();
        let tight_col = t.header.iter().position(|h| *h == "tight").unwrap();
        assert!(t.rows.iter().all(|r| r.cells[tight_col] == "true"));
    }

    #[test]
    fn e2_lower_bound_never_below_classical() {
        let t = e2_matmul_small();
        for r in &t.rows {
            let classical: f64 = r.cells[1].parse().unwrap();
            let arbitrary: f64 = r.cells[2].parse().unwrap();
            assert!(arbitrary + 1e-6 >= classical);
        }
    }

    #[test]
    fn e8_optimal_never_meaningfully_worse_than_untiled() {
        // On cache-bound instances the optimal tiling wins by large factors;
        // on compulsory-miss-dominated instances (e.g. matvec-like shapes that
        // stream one big array once) the two are within a few percent of each
        // other, so allow that slack instead of demanding strict dominance.
        let t = e8_simulated();
        let mut big_wins = 0;
        for r in &t.rows {
            let untiled: u64 = r.cells[3].parse().unwrap();
            let optimal: u64 = r.cells[5].parse().unwrap();
            assert!(
                optimal as f64 <= untiled as f64 * 1.05,
                "optimal {optimal} much worse than untiled {untiled}: {r:?}"
            );
            if (untiled as f64) > 2.0 * optimal as f64 {
                big_wins += 1;
            }
        }
        // At least some of the instances show the headline separation.
        assert!(
            big_wins >= 2,
            "expected at least two large wins, saw {big_wins}"
        );
    }
}
