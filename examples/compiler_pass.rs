//! Using the library the way a compiler pass would (§7, "Discussion").
//!
//! Run with `cargo run --example compiler_pass`.
//!
//! The paper's intended application is automatic blocking of projective loop
//! nests inside a compiler: given any nest the front-end hands us — including
//! shapes nobody has hand-optimized — emit tile sizes that are provably
//! communication-optimal for the target cache. A compiler pass is exactly the
//! repeated-query workload the [`Engine`] session exists for: one long-lived
//! engine serves every nest of the compilation unit, repeated shapes hit the
//! cache (even when a later IR pass re-declares a nest with loops or arrays
//! permuted — interning is by canonical signature), and a JIT probing many
//! candidate specializations of one dimension reads each answer off a
//! memoized slice of the §7 value function instead of re-solving LPs.

use projtile::arith::Rational;
use projtile::core::engine::{AnalysisResult, Engine, Query};
use projtile::loopnest::LoopNest;

/// What the "compiler" emits for one loop nest.
struct BlockingDecision {
    tile: Vec<u64>,
    exponent: Rational,
    tight: bool,
}

/// The pass: analyze a nest for a given cache through the session engine.
fn block_loop_nest(engine: &Engine, nest: &LoopNest, cache_words: u64) -> BlockingDecision {
    let queries = vec![
        Query::OptimalTiling {
            cache_size: cache_words,
        },
        Query::Tightness {
            cache_size: cache_words,
        },
    ];
    let mut answers = engine.analyze_batch(nest, &queries).into_iter();
    let Some(Ok(AnalysisResult::OptimalTiling(tiling))) = answers.next() else {
        unreachable!("tiling query answers with a tiling")
    };
    let Some(Ok(AnalysisResult::Tightness(report))) = answers.next() else {
        unreachable!("tightness query answers with a report")
    };
    BlockingDecision {
        tile: tiling.tile_dims,
        exponent: report.tiling_exponent,
        tight: report.tight,
    }
}

fn main() {
    let cache_words = 1u64 << 10;

    // A grab-bag of projective nests a compiler might encounter, written with
    // the builder API an IR lowering would use. The last one is a 4-operand
    // "unconventional" kernel with no hand-tuned library equivalent — the
    // capsule-network situation the introduction describes.
    let programs: Vec<(&str, LoopNest)> = vec![
        (
            "batched GEMM, tiny batch",
            LoopNest::builder()
                .index("b", 4)
                .index("i", 256)
                .index("j", 256)
                .index("k", 256)
                .array("C", ["b", "i", "k"])
                .array("A", ["b", "i", "j"])
                .array("B", ["b", "j", "k"])
                .build()
                .unwrap(),
        ),
        (
            "attention score block, short sequence",
            LoopNest::builder()
                .index("h", 8)
                .index("q", 16)
                .index("kv", 512)
                .index("d", 64)
                .array("S", ["h", "q", "kv"])
                .array("Q", ["h", "q", "d"])
                .array("K", ["h", "kv", "d"])
                .build()
                .unwrap(),
        ),
        (
            "4-operand contraction (no BLAS equivalent)",
            LoopNest::builder()
                .index("a", 32)
                .index("b", 4)
                .index("c", 128)
                .index("d", 8)
                .array("Out", ["a", "c"])
                .array("T1", ["a", "b", "d"])
                .array("T2", ["b", "c"])
                .array("T3", ["c", "d"])
                .build()
                .unwrap(),
        ),
    ];

    // One engine for the whole compilation unit.
    let engine = Engine::new();

    println!("automatic blocking decisions for a {cache_words}-word cache");
    println!();
    for (name, nest) in &programs {
        let decision = block_loop_nest(&engine, nest, cache_words);
        println!("{name}");
        println!("  nest        : {nest}");
        println!("  tile sizes  : {:?}", decision.tile);
        println!(
            "  tile volume : M^{}   (provably optimal: {})",
            decision.exponent, decision.tight
        );

        // How does the optimum move if the first loop's bound changes? A JIT
        // can use the breakpoints to decide when re-blocking is worthwhile.
        let slice = Query::Slice {
            cache_size: cache_words,
            axis: 0,
            lo_bound: 1,
            hi_bound: 1 << 12,
        };
        let Ok(AnalysisResult::Slice(vf)) = engine.analyze(nest, &slice) else {
            unreachable!("slice query answers with a value function")
        };
        let breakpoints: Vec<String> = vf
            .breakpoints
            .iter()
            .map(|(beta, value)| format!("beta={beta} -> M^{value}"))
            .collect();
        println!(
            "  exponent vs {} bound: {} piece(s): {}",
            nest.indices()[0].name,
            vf.num_pieces(),
            breakpoints.join(", ")
        );
        println!();
    }

    // A JIT specializer probing candidate batch sizes for the first program:
    // the first probe sweeps the memoized slice once, every further probe is
    // a table lookup.
    let (name, gemm) = &programs[0];
    println!("JIT specialization probe ({name}, batch axis):");
    for batch in [1u64, 2, 4, 8, 16, 64, 256, 1024] {
        let k = engine
            .exponent_at_bound(gemm, cache_words, 0, batch)
            .expect("valid probe");
        println!("  batch {batch:>5} -> optimal tile volume M^{k}");
    }
    println!();

    // Re-declaring a nest with permuted loops and arrays (as a later IR pass
    // might) hits the same interned entry.
    let shuffled = LoopNest::builder()
        .index("k", 256)
        .index("b", 4)
        .index("j", 256)
        .index("i", 256)
        .array("B", ["b", "j", "k"])
        .array("C", ["b", "i", "k"])
        .array("A", ["b", "i", "j"])
        .build()
        .unwrap();
    let _ = engine.analyze(
        &shuffled,
        &Query::OptimalTiling {
            cache_size: cache_words,
        },
    );
    let stats = engine.stats();
    println!(
        "session totals: {} nests analyzed, {} distinct signatures interned, \
         {} queries ({} cache hits)",
        programs.len() + 1,
        stats.interned,
        stats.queries,
        stats.hits
    );
    assert_eq!(
        stats.interned as usize,
        programs.len(),
        "the shuffled re-declaration shares its original entry"
    );
}
