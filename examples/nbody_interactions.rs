//! n-body pairwise interactions (§6.3), measured on the cache simulator.
//!
//! Run with `cargo run --example nbody_interactions`.
//!
//! All pairs of two particle lists interact. The example sweeps the size of
//! the first list from "fits in cache" to "much larger than cache", printing
//! the §6.3 closed-form tile size and lower bound, the LP-derived tile, and
//! the traffic actually measured for the untiled and optimal schedules on a
//! simulated LRU cache. Analysis runs through one [`Engine`] session; the
//! measured comparison reuses each nest's lower bound from the session
//! instead of recomputing it.

use projtile::core::closed_forms;
use projtile::core::engine::{AnalysisResult, Engine, Query};
use projtile::exec::{compare_schedules_with_bound, CachePolicy};
use projtile::loopnest::builders;

fn main() {
    let m = 1u64 << 8; // 256-word fast memory
    let l2 = 1u64 << 11; // 2048 particles in the second list

    println!("n-body pairwise interactions: Acc[x1] = f(Src[x1], Other[x2])");
    println!("cache M = {m} words, |Other| = {l2}");
    println!();
    println!(
        "{:>8} | {:>12} | {:>12} | {:>14} | {:>12} | {:>12}",
        "L1", "tile (6.3)", "LB (words)", "optimal tile", "measured opt", "measured naive"
    );
    println!("{}", "-".repeat(90));

    let engine = Engine::new();
    let queries = vec![
        Query::LowerBound { cache_size: m },
        Query::OptimalTiling { cache_size: m },
    ];

    for log_l1 in [2u32, 4, 6, 8, 10] {
        let l1 = 1u64 << log_l1;
        let nest = builders::nbody(l1, l2);

        // §6.3 closed forms.
        let tile_size = closed_forms::nbody_tile_size(l1, l2, m);
        let closed_lb = closed_forms::nbody_lower_bound_words(l1, l2, m);

        // General machinery agrees (checked, not assumed).
        let mut answers = engine.analyze_batch(&nest, &queries).into_iter();
        let Some(Ok(AnalysisResult::LowerBound(general))) = answers.next() else {
            unreachable!("lower-bound query answers with a lower bound")
        };
        let Some(Ok(AnalysisResult::OptimalTiling(tiling))) = answers.next() else {
            unreachable!("tiling query answers with a tiling")
        };
        assert!((general.words - closed_lb).abs() / closed_lb < 1e-9);

        // Measured traffic on the LRU simulator, against the session's bound.
        let cmp = compare_schedules_with_bound(&nest, m, CachePolicy::Lru, general.words);

        println!(
            "{:>8} | {:>12} | {:>12.0} | {:>14} | {:>12} | {:>12}",
            l1,
            tile_size,
            closed_lb,
            format!("{:?}", tiling.tile_dims),
            cmp.optimal().words,
            cmp.untiled().words
        );
    }

    println!();
    println!(
        "When L1 <= M the optimal schedule keeps the whole first list resident and\n\
         streams the second list once; the untiled order re-streams it for every\n\
         particle once L1 grows past the cache."
    );
}
