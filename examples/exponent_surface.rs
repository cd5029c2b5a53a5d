//! The multiparametric §7 analysis: the optimal tile exponent as an exact
//! piecewise-linear function of *all* the log loop bounds at once.
//!
//! Run with `cargo run --example exponent_surface`.
//!
//! The §6.1 matmul case analysis — `min(3/2, 1 + min(β1, β2, β3),
//! β1 + β2 + β3)` — is derived by hand in the paper. Here the multiparametric
//! LP solver re-derives it mechanically: it decomposes the value surface of
//! the tiling LP (5.1) over the box `β ∈ [0, 1]³` into critical regions, one
//! affine piece per optimal basis, each valid on an exactly-described
//! rational polyhedron, and checks Theorem 3 in every region. The surface is
//! requested through an [`Engine`] session, which memoizes it keyed by
//! `(axes, box)` — the second request at the end is a pure cache hit.

use projtile::core::engine::Engine;
use projtile::core::tightness::surface_tightness;
use projtile::loopnest::builders;

fn main() {
    let m = 1u64 << 10; // 1024 words of fast memory
    let nest = builders::matmul(1 << 10, 1 << 10, 1 << 10);
    println!("program      : {nest}");
    println!("cache size M : {m} words");
    println!();

    // --- The full (β1, β2, β3) value surface --------------------------------
    let engine = Engine::new();
    let surface = engine
        .exponent_surface(&nest, m, &[0, 1, 2], &[1, 1, 1], &[m, m, m])
        .expect("surface solves");
    println!(
        "critical regions over β ∈ [0,1]³ : {}",
        surface.num_regions()
    );
    println!(
        "distinct affine pieces           : {}",
        surface.pieces().len()
    );
    println!();
    println!("closed-form pieces (the exponent is their pointwise minimum):");
    for piece in surface.render_pieces() {
        println!("  f(β) = {piece}");
    }
    println!();

    // --- Slices: the §6.1 regime split --------------------------------------
    // Restricting to β3 (with β1 = β2 = 1) recovers the 1-D value function
    // with its breakpoint at β3 = 1/2 — the paper's "small inner dimension"
    // crossover at L3 = √M.
    let slice = surface.slice_at_nominal(2);
    println!("slice along β3 (β1 = β2 = 1):");
    for window in slice.breakpoints.windows(2) {
        let (t0, v0) = &window[0];
        let (t1, v1) = &window[1];
        println!("  β3 ∈ [{t0}, {t1}] : exponent {v0} → {v1}");
    }
    println!();

    // --- Theorem 3, per region ----------------------------------------------
    let report = surface_tightness(&nest, m, &surface).expect("bound LP solves");
    println!("per-region Theorem-3 check (tiling LP value == bound LP value):");
    for region in &report.regions {
        println!(
            "  witness β = ({}, {}, {}) : exponent {} {}",
            region.witness[0],
            region.witness[1],
            region.witness[2],
            region.tiling_exponent,
            if region.tight {
                "TIGHT"
            } else {
                "NOT TIGHT (bug!)"
            }
        );
    }
    println!(
        "all {} regions tight: {}",
        report.regions.len(),
        report.all_tight
    );
    println!();

    // --- The session memo ---------------------------------------------------
    // Asking for the same surface again costs nothing: the engine answers
    // from its (axes, box)-keyed memo.
    let again = engine
        .exponent_surface(&nest, m, &[0, 1, 2], &[1, 1, 1], &[m, m, m])
        .expect("memoized surface");
    assert_eq!(again.num_regions(), surface.num_regions());
    let stats = engine.stats();
    println!(
        "engine session: {} surface queries, {} answered from cache",
        stats.queries, stats.hits
    );
}
