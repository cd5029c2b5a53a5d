//! Bounded per-session artifact caches behind the [`crate::engine::Engine`].
//!
//! Every memo map of the engine is a cost-aware
//! [`projtile_cachesim::BoundedLru`] (approximate heap bytes as the cost
//! unit, caps set by [`crate::engine::EngineConfig`]), keyed at the engine
//! level so one budget governs each artifact class across *all* interned
//! nests:
//!
//! * **typed results** ([`ResultKey`]) — per `(nest, orientation, cache
//!   size, kind)`: the `LowerBound`, `EnumeratedBound` and tiling summary,
//!   each held as the [`crate::engine::Answer`] every hit on it returns, so
//!   hits share one value and one rendered JSON text. A tightness report is
//!   not stored: it is composed from these three on every answer;
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

use projtile_lp::parametric::ValueFunction;

use crate::bounds::{EnumeratedBound, LowerBound};
use crate::engine::query::{AnalysisResult, Query, SurfaceSummary, TilingSummary};
use crate::parametric::ExponentSurface;
use projtile_loopnest::LoopNest;

/// Which typed artifact a [`ResultKey`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ResultKind {
    /// The Theorem-2 [`LowerBound`].
    Bound,
    /// The explicit `2^d` [`EnumeratedBound`].
    Enumerated,
    /// The optimal-tiling [`TilingSummary`].
    Tiling,
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

impl ResultKind {
    /// The kind of resident result a `LowerBound`, `EnumeratedBound` or
    /// `OptimalTiling` query is answered from, with its cache size; `None`
    /// for the other queries.
    pub fn of_query(query: &Query) -> Option<(ResultKind, u64)> {
        match query {
            Query::LowerBound { cache_size } => Some((ResultKind::Bound, *cache_size)),
            Query::EnumeratedBound { cache_size } => Some((ResultKind::Enumerated, *cache_size)),
            Query::OptimalTiling { cache_size } => Some((ResultKind::Tiling, *cache_size)),
            _ => None,
        }
    }

    /// Whether `result` is the variant a result of this kind holds.
    pub fn holds(self, result: &AnalysisResult) -> bool {
        matches!(
            (self, result),
            (ResultKind::Bound, AnalysisResult::LowerBound(_))
                | (ResultKind::Enumerated, AnalysisResult::EnumeratedBound(_))
                | (ResultKind::Tiling, AnalysisResult::OptimalTiling(_))
        )
    }
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

/// One declaration order of an interned nest: identity only (the
/// permutations); all memoized artifacts live in the engine-level bounded
/// caches.
pub(crate) struct Orientation {
    /// `original loop position → canonical position`.
    pub loop_perm: Vec<usize>,
    /// `original array position → canonical position`.
    pub array_perm: Vec<usize>,
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
///
/// A resident result also keeps its rendered JSON text once a caller asked
/// for it ([`crate::engine::Answer::json`]: the server does, for every
/// answer it writes), and the budget does not charge that text, just as it
/// under-counts `Large` rationals. A depth-10 enumeration at `M = 64`
/// renders to 19–34 KB and is charged 65.7 KB; the 48 enumerations of
/// svcbench's `large_answers` pool hold 0.76 MB of text beside 1.84 MB of
/// charged cost. Charging the text would change which entries a budget
/// evicts, and with them the lab's replay.
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

    /// Cost of a resident typed result. Only the three component kinds
    /// are ever resident ([`ResultKind::holds`]); a tightness report,
    /// surface summary or slice is charged one entry's overhead.
    pub(crate) fn result(r: &AnalysisResult) -> u64 {
        match r {
            AnalysisResult::LowerBound(lb) => bound(lb),
            AnalysisResult::EnumeratedBound(en) => enumerated(en),
            AnalysisResult::OptimalTiling(t) => tiling(t),
            AnalysisResult::Tightness(_)
            | AnalysisResult::Surface(_)
            | AnalysisResult::Slice(_) => ENTRY,
        }
    }
}
