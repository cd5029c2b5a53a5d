//! Bounded per-session artifact caches behind the [`crate::engine::Engine`].
//!
//! Since PR 5 every memo map of the engine is a cost-aware
//! [`projtile_cachesim::BoundedLru`] (approximate heap bytes as the cost
//! unit, caps set by [`crate::engine::EngineConfig`]), keyed at the engine
//! level so one budget governs each artifact class across *all* interned
//! nests:
//!
//! * **β vectors** ([`BetaKey`]) — per `(nest, cache size)`, canonical loop
//!   order, shared by every orientation;
//! * **typed results** ([`ResultKey`]) — per `(nest, orientation, cache
//!   size, kind)`: the `LowerBound`, `EnumeratedBound`, tiling summary and
//!   tightness report, plus the internal Theorem-3 certificate-validity bit
//!   ([`ResultKind::Certificate`]) that lets an evicted tightness report be
//!   recomposed from its surviving components without re-solving the
//!   row-deleted HBL LP;
//! * **§7 slices** ([`SliceKey`]) — per `(nest, cache size, canonical
//!   axis)`, both explicit `[lo, hi]` sweeps ([`SliceKind::Span`]) and the
//!   growing probe slices behind `exponent_at_bound`
//!   ([`SliceKind::Probe`]); a slice carries no positional data, so permuted
//!   variants share entries;
//! * **surfaces** ([`SurfaceKey`]) — per `(nest, orientation, cache size,
//!   sorted axes, box)`. Keys are canonicalized by sorting the swept axes
//!   (the box permuted alongside), so the same surface requested with
//!   permuted axes is a cache *hit* answered by an exact coordinate remap
//!   ([`crate::parametric::ExponentSurface::with_axis_order`]) — which is
//!   also precisely what the free function returns for that axis order.
//!
//! Eviction changes only *what is retained*, never *what is answered*: every
//! artifact is recomputed by the same deterministic, path-independent
//! routine that produced it, so answers stay bitwise-identical to the cold
//! free-function oracles under any cache pressure (pinned by the eviction
//! differential proptests).

use projtile_arith::Rational;
use projtile_lp::parametric::ValueFunction;

use crate::bounds::{EnumeratedBound, LowerBound};
use crate::engine::query::{SurfaceSummary, TilingSummary};
use crate::hbl::HblFamily;
use crate::parametric::ExponentSurface;
use crate::tightness::TightnessReport;
use projtile_loopnest::LoopNest;

/// Key of a memoized β vector: per `(interned nest, cache size)`, stored in
/// canonical loop order and permuted per orientation on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BetaKey {
    pub entry: usize,
    pub m: u64,
}

/// Which typed artifact a [`ResultKey`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ResultKind {
    /// The Theorem-2 [`LowerBound`].
    Bound,
    /// The explicit `2^d` [`EnumeratedBound`].
    Enumerated,
    /// The optimal-tiling [`TilingSummary`].
    Tiling,
    /// The Theorem-3 [`TightnessReport`].
    Tightness,
    /// Validity of the cached lower bound's `(ŝ, ζ)` certificate — an
    /// internal component of the tightness report (never answered
    /// directly). Caching it separately lets an evicted report be
    /// recomposed from surviving components in O(1) solver work.
    Certificate,
}

/// Key of one typed result: vertex-carrying payloads are positional, so the
/// orientation (declaration order) is part of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ResultKey {
    pub entry: usize,
    pub orientation: usize,
    pub m: u64,
    pub kind: ResultKind,
}

/// One memoized typed artifact.
#[derive(Debug, Clone)]
pub(crate) enum CachedResult {
    Bound(LowerBound),
    Enumerated(EnumeratedBound),
    Tiling(TilingSummary),
    Tightness(TightnessReport),
    Certificate(bool),
}

/// The two flavors of memoized 1-D value-function slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SliceKind {
    /// An explicit `Query::Slice` sweep over `[lo_bound, hi_bound]`.
    Span { lo_bound: u64, hi_bound: u64 },
    /// The growing per-axis slice behind `exponent_at_bound`, covering
    /// `1..=hi` for a stored `hi` that widens on demand.
    Probe,
}

/// Key of a memoized slice, in canonical coordinates (slices carry no
/// positional data, so permuted variants of a nest share entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SliceKey {
    pub entry: usize,
    pub m: u64,
    /// Canonical loop position of the swept axis.
    pub canon_axis: usize,
    pub kind: SliceKind,
}

/// A growing probe slice: covers bounds `1..=hi_bound` and is re-swept
/// (wider) only when a queried bound exceeds the covered range.
#[derive(Debug, Clone)]
pub(crate) struct PointSlice {
    pub hi_bound: u64,
    pub vf: ValueFunction,
}

/// A memoized slice entry; the variant matches its key's [`SliceKind`].
#[derive(Debug, Clone)]
pub(crate) enum SliceEntry {
    Span(ValueFunction),
    Probe(PointSlice),
}

/// Key of a memoized surface. `axes` is **sorted ascending** (the box
/// permuted to match): permuted-axes requests canonicalize to the same key
/// and are answered by remapping the stored sorted-order surface.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SurfaceKey {
    pub entry: usize,
    pub orientation: usize,
    pub m: u64,
    pub axes: Vec<usize>,
    pub lo_bounds: Vec<u64>,
    pub hi_bounds: Vec<u64>,
}

/// A memoized surface in sorted-axes order, with its wire-ready summary.
#[derive(Debug, Clone)]
pub(crate) struct StoredSurface {
    pub surface: ExponentSurface,
    pub summary: SurfaceSummary,
}

impl StoredSurface {
    /// The summary for a request in the caller's axis order: the stored one
    /// when the request is already sorted (`order` is `None`), otherwise the
    /// exact remap [`crate::parametric::exponent_surface`] itself applies.
    pub fn summary_in(&self, axes: &[usize], order: Option<&[usize]>) -> SurfaceSummary {
        match order {
            None => self.summary.clone(),
            Some(order) => super::summarize_surface(&self.surface.with_axis_order(order), axes),
        }
    }
}

/// One declaration order of an interned nest. Holds only identity (the
/// permutations and the oriented nest) plus the warm HBL solver; all
/// memoized artifacts live in the engine-level bounded caches.
pub(crate) struct Orientation {
    /// `original loop position → canonical position`.
    pub loop_perm: Vec<usize>,
    /// `original array position → canonical position`.
    pub array_perm: Vec<usize>,
    /// The nest in this orientation (the one the caller queries with).
    pub nest: LoopNest,
    /// Warm row-relaxed HBL solver, shared by every enumeration/tightness
    /// query of this orientation (its constraint matrix does not depend on
    /// the cache size). Never evicted (it is solver state, not a result)
    /// and never serialized (rebuilt lazily after a restore).
    pub hbl_family: Option<HblFamily>,
}

/// Identity of one interned canonical signature.
pub(crate) struct NestEntry {
    pub canonical: LoopNest,
    pub orientations: Vec<Orientation>,
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// Approximate retention costs (heap bytes) of the cached artifacts, used as
/// the cost unit of the bounded caches. The estimates are deliberately
/// simple — flat per-rational cost plus container overheads — because the
/// caps they are compared against are order-of-magnitude budgets, not exact
/// allocator accounting.
pub(crate) mod cost {
    use super::*;

    /// Flat estimate for one `Rational` (two small big-ints plus enum tags;
    /// large values under-count, which only makes eviction later).
    const RATIONAL: u64 = 48;
    /// Base overhead per cached entry (key, hash-map slot, list links).
    const ENTRY: u64 = 96;

    fn rationals(n: usize) -> u64 {
        24 + RATIONAL * n as u64
    }

    pub(crate) fn betas(v: &[Rational]) -> u64 {
        ENTRY + rationals(v.len())
    }

    pub(crate) fn value_function(vf: &ValueFunction) -> u64 {
        ENTRY + rationals(2 * vf.breakpoints.len())
    }

    pub(crate) fn slice_entry(s: &SliceEntry) -> u64 {
        match s {
            SliceEntry::Span(vf) => value_function(vf),
            SliceEntry::Probe(ps) => 8 + value_function(&ps.vf),
        }
    }

    pub(crate) fn surface(s: &StoredSurface) -> u64 {
        let regions = s.surface.surface().regions();
        let mut total = ENTRY + rationals(s.surface.axes().len());
        for r in regions {
            total += rationals(r.piece.gradient.len() + 1);
            total += rationals(r.witness.len());
            for h in &r.halfspaces {
                total += rationals(h.normal.len() + 1);
            }
        }
        for (pieces, rendered) in s.summary.pieces.iter().zip(&s.summary.rendered) {
            total += rationals(pieces.gradient.len() + 1) + rendered.len() as u64;
        }
        total
    }

    /// Cost of a cached Theorem-2 lower bound.
    pub(crate) fn bound(lb: &LowerBound) -> u64 {
        ENTRY + rationals(1 + lb.s_hat.len() + lb.zeta.len()) + 24
    }

    /// Cost of a cached `2^d` enumeration.
    pub(crate) fn enumerated(en: &EnumeratedBound) -> u64 {
        ENTRY + rationals(1) + rationals(en.per_subset.len()) + 16 * en.per_subset.len() as u64
    }

    /// Cost of a cached tiling summary.
    pub(crate) fn tiling(t: &TilingSummary) -> u64 {
        ENTRY + rationals(1 + t.lambda.len()) + 8 * t.tile_dims.len() as u64
    }

    /// Cost of a cached tightness report (payload-independent).
    pub(crate) fn tightness() -> u64 {
        ENTRY + rationals(3) + 16
    }

    /// Cost of a cached certificate bit (payload-independent).
    pub(crate) fn certificate() -> u64 {
        ENTRY + 1
    }

    pub(crate) fn result(r: &CachedResult) -> u64 {
        match r {
            CachedResult::Bound(lb) => bound(lb),
            CachedResult::Enumerated(en) => enumerated(en),
            CachedResult::Tiling(t) => tiling(t),
            CachedResult::Tightness(_) => tightness(),
            CachedResult::Certificate(_) => certificate(),
        }
    }
}
