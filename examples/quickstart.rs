//! Quickstart: analyze a matrix multiplication whose inner dimension is small.
//!
//! Run with `cargo run --example quickstart`.
//!
//! This walks the full pipeline of the paper on the §6.1 example through the
//! session API: open an [`Engine`], batch the typed queries (lower bound,
//! optimal tile, Theorem-3 tightness) against the nest, and finally measure
//! the tiling on a simulated LRU cache. The engine memoizes everything it
//! computes — the batch shares one set of artifacts, and any repeated query
//! is a pure cache lookup.

use projtile::core::engine::{AnalysisResult, Engine, Query};
use projtile::core::hbl;
use projtile::exec::{compare_schedules_with_bound, CachePolicy};
use projtile::loopnest::builders;

fn main() {
    // A "tall-skinny" matrix multiplication: C (512x8) += A (512x512) * B (512x8).
    // The inner bound L3 = 8 is far below sqrt(M), the regime the paper targets.
    let (l1, l2, l3) = (512u64, 512u64, 8u64);
    let cache_words = 1u64 << 10; // M = 1024 words of fast memory

    let nest = builders::matmul(l1, l2, l3);
    println!("program      : {nest}");
    println!("cache size M : {cache_words} words");
    println!();

    // --- One session, one batch of typed queries ---------------------------
    let engine = Engine::new();
    let queries = vec![
        Query::LowerBound {
            cache_size: cache_words,
        },
        Query::OptimalTiling {
            cache_size: cache_words,
        },
        Query::Tightness {
            cache_size: cache_words,
        },
    ];
    let mut answers = engine.analyze_batch(&nest, &queries).into_iter();
    let Some(Ok(AnalysisResult::LowerBound(bound))) = answers.next() else {
        unreachable!("lower-bound query answers with a lower bound")
    };
    let Some(Ok(AnalysisResult::OptimalTiling(tiling))) = answers.next() else {
        unreachable!("tiling query answers with a tiling")
    };
    let Some(Ok(AnalysisResult::Tightness(report))) = answers.next() else {
        unreachable!("tightness query answers with a report")
    };

    // --- Lower bounds -------------------------------------------------------
    let classical = hbl::large_bound_lower_bound(&nest, cache_words);
    println!("classical lower bound (sec. 3)  : {classical:.0} words");
    println!(
        "arbitrary-bound lower bound (thm 2): {:.0} words  (exponent k = {})",
        bound.words, bound.exponent
    );
    println!(
        "  -> the paper's bound is {:.1}x stronger here",
        bound.words / classical
    );
    println!();

    // --- Optimal tiling -----------------------------------------------------
    println!("optimal tile (lp 5.1)           : {:?}", tiling.tile_dims);
    println!(
        "  tile volume M^{} = {} iterations",
        tiling.value,
        tiling.tile_dims.iter().product::<u64>()
    );

    // --- Theorem 3: tightness ----------------------------------------------
    println!(
        "tightness (thm 3)               : tiling exponent {} == bound exponent {} -> {}",
        report.tiling_exponent,
        report.bound_exponent,
        if report.tight {
            "TIGHT"
        } else {
            "NOT TIGHT (bug!)"
        }
    );
    println!();

    // The batch warmed the whole cache entry: a repeat of any query is now a
    // pure lookup.
    let stats = engine.stats();
    println!(
        "engine session: {} queries, {} cache hits, {} interned nest(s)",
        stats.queries, stats.hits, stats.interned
    );
    println!();

    // --- Measured on the cache simulator ------------------------------------
    // The engine already holds the lower bound; the simulator reuses it.
    println!("simulated LRU cache ({cache_words} words):");
    let cmp = compare_schedules_with_bound(&nest, cache_words, CachePolicy::Lru, bound.words);
    println!(
        "  lower bound          : {:>12.0} words",
        cmp.lower_bound_words
    );
    for r in &cmp.results {
        println!(
            "  {:<22}: {:>12} words   ({:.2}x lower bound)",
            r.label, r.words, r.ratio_to_lower_bound
        );
    }
}
