//! Matrix-vector multiplication across the small-bound crossover (§6.1).
//!
//! Run with `cargo run --example matvec_tiling`.
//!
//! Sweeps the inner dimension `L3` of a matrix multiplication from 1
//! (matrix-vector) up past `√M`, printing for each point the classical lower
//! bound, the arbitrary-bound lower bound, the optimal tile shape, and the
//! α-family of alternative optimal tiles where one exists. The sweep runs
//! through one [`Engine`] session: each `L3` is a distinct nest (its own
//! interned signature), and per nest the `LowerBound` + `OptimalTiling`
//! queries are answered as one batch over shared artifacts.

use projtile::arith::ratio;
use projtile::core::engine::{AnalysisResult, Engine, Query};
use projtile::core::{alpha, hbl};
use projtile::loopnest::builders;

fn main() {
    let l1 = 1u64 << 9;
    let l2 = 1u64 << 9;
    let m = 1u64 << 10; // sqrt(M) = 32

    println!("matrix multiply {l1} x {l2} x L3, cache M = {m} words (sqrt(M) = 32)");
    println!(
        "{:>6} | {:>14} | {:>14} | {:>18} | alternative tile (alpha = 0)",
        "L3", "classical LB", "arbitrary LB", "optimal tile"
    );
    println!("{}", "-".repeat(95));

    let engine = Engine::new();
    let queries = vec![
        Query::LowerBound { cache_size: m },
        Query::OptimalTiling { cache_size: m },
    ];

    for log_l3 in 0..=7u32 {
        let l3 = 1u64 << log_l3;
        let nest = builders::matmul(l1, l2, l3);
        let classical = hbl::large_bound_lower_bound(&nest, m);

        let mut answers = engine.analyze_batch(&nest, &queries).into_iter();
        let Some(Ok(AnalysisResult::LowerBound(bound))) = answers.next() else {
            unreachable!("lower-bound query answers with a lower bound")
        };
        let Some(Ok(AnalysisResult::OptimalTiling(tiling))) = answers.next() else {
            unreachable!("tiling query answers with a tiling")
        };

        // The α-family along the first axis: another optimal tile shape, if
        // the optimum is degenerate (it is whenever L3 < sqrt(M)).
        let family = alpha::optimal_family(&nest, m, 0);
        let alt = if family.is_degenerate() {
            "unique".to_string()
        } else {
            let other = family.tiling_at(&nest, m, &ratio(0, 1));
            format!("{:?}", other.tile_dims())
        };

        println!(
            "{:>6} | {:>14.0} | {:>14.0} | {:>18} | {}",
            l3,
            classical,
            bound.words,
            format!("{:?}", tiling.tile_dims),
            alt
        );
    }

    let stats = engine.stats();
    println!();
    println!(
        "engine session: {} signatures interned, {} queries answered",
        stats.interned, stats.queries
    );
    println!(
        "Below L3 = 32 the classical bound (ops / sqrt(M)) keeps shrinking with L3,\n\
         but the true requirement is reading the {l1}x{l2} matrix: the arbitrary-bound\n\
         lower bound stays at {} words and the optimal tile flattens to match L3.",
        l1 * l2
    );
}
