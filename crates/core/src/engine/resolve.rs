//! The query pipeline behind [`super::Engine::answer_batch`] (and so
//! [`super::Engine::analyze_batch`] and [`super::Engine::analyze`], a batch
//! of one).
//!
//! A batch of queries about one nest is resolved in six phases:
//!
//! 1. **probe** — every distinct valid literal is looked up once with
//!    [`Caches::peek_cached`], a pure read under the engine's read lock: a
//!    resident result is answered by its cached [`Answer`] handle, so a hit
//!    copies a pointer, not a value;
//! 2. **classify** — literals not resident are deduplicated by
//!    [`canonical_query_form`]: the first occurrence of each form is a miss,
//!    a repeat of a literal is a duplicate of its first occurrence, and a
//!    different literal of the same form (a permuted-axes surface twin) is a
//!    twin;
//! 3. **compute** — the misses fan out through [`compute_detached`] on
//!    pooled solver contexts, with no lock held. A `LowerBound`,
//!    `EnumeratedBound` or `OptimalTiling` miss whose same-`M` `Tightness`
//!    is also a miss is not solved: it takes the component that
//!    computation derives ([`Detached::component`]) and stays a miss that
//!    installs the same entry at the same cost;
//! 4. **twins** — each twin is answered from its miss's computation by
//!    [`Detached::twin_answer`], still with no lock held, so a twin can never
//!    read (or recompute) an entry the install pass evicts;
//! 5. **intern and install** — the orientation is interned and the computed
//!    artifacts installed, under the engine's write lock; a component result
//!    is installed as the same [`Answer`] the miss returns;
//! 6. **assemble** — answers are moved into input order, each with the
//!    [`Outcome`] the engine counts and traces.
//!
//! A batch whose valid queries all hit stops after phase 2: it runs no
//! fan-out, checks out no solver context and takes no write lock. A batch
//! with anything to compute interns its orientation even when every
//! computation fails.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use projtile_loopnest::{CanonicalNest, LoopNest};
use projtile_lp::ContextPool;
use projtile_par::par_map_with;

use super::cache::{cost, ResultKey, ResultKind, SliceEntry, SliceKey, SliceKind, StoredSurface};
use super::{
    compose_tightness_report, summarize_surface, AnalysisResult, Answer, Caches, EngineError,
    Query, TilingSummary,
};

/// How the pipeline resolved one batch position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Rejected by validation: reaches no cache and is never traced.
    Invalid,
    /// Answered from a resident artifact, or as a canonical twin of a query
    /// the same batch computed.
    Hit,
    /// The first non-resident occurrence of its canonical form: computed
    /// and installed.
    Miss,
    /// A miss whose computation or install failed: nothing installed.
    Failed,
    /// A repeated literal of a miss: answered by the same computation.
    Duplicate,
}

impl Outcome {
    /// `Some(true)` for a hit, `Some(false)` for a miss (failed computations
    /// included), `None` for positions neither counter sees.
    pub(crate) fn counts_as_hit(self) -> Option<bool> {
        match self {
            Outcome::Hit => Some(true),
            Outcome::Miss | Outcome::Failed => Some(false),
            Outcome::Invalid | Outcome::Duplicate => None,
        }
    }
}

/// One batch position between the phases.
enum Slot {
    /// Rejected by validation.
    Invalid(EngineError),
    /// Resident: the cache's own handle for a stored result, or a report,
    /// summary or slice built from resident artifacts.
    Hit(Answer),
    /// A repeated literal, answered with the handle at the literal's first
    /// position.
    Repeat(usize),
    /// The first occurrence of a form to compute (misses appear in pending
    /// order).
    Miss,
    /// Another literal of pending form `p`; the answer is filled in by
    /// [`Batch::compute`].
    Twin(usize, Option<Result<Answer, EngineError>>),
}

/// A batch after its probe and classification phases.
pub(crate) struct Batch<'q> {
    queries: &'q [Query],
    slots: Vec<Slot>,
    /// The first literal of every canonical form to compute, in input order.
    pending: Vec<&'q Query>,
}

/// The fan-out's results (with their trace costs), waiting to be installed.
pub(crate) struct Computed<'q> {
    pending: Vec<&'q Query>,
    results: Vec<(Result<Detached, EngineError>, Vec<u64>)>,
}

/// The install pass's answers and their trace costs, in pending order.
pub(crate) type Installed = Vec<(Result<Answer, EngineError>, Vec<u64>)>;

/// A resolved batch, in input order.
pub(crate) struct Resolved {
    pub answers: Vec<Result<Answer, EngineError>>,
    pub outcomes: Vec<Outcome>,
    /// The cost estimates each miss installed (when requested from
    /// [`Batch::compute`]); empty everywhere else.
    pub costs: Vec<Vec<u64>>,
}

impl<'q> Batch<'q> {
    /// Phases 1 and 2: validates, probes and classifies every position.
    /// `caches` is only read.
    pub(crate) fn probe(
        caches: &Caches,
        nest: &LoopNest,
        canon: &CanonicalNest,
        queries: &'q [Query],
    ) -> Batch<'q> {
        let interned = caches.find_indices(canon);
        let mut first_seen: HashMap<&Query, usize> = HashMap::new();
        let mut forms: HashMap<Query, usize> = HashMap::new();
        let mut pending: Vec<&'q Query> = Vec::new();
        let slots = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                if let Err(err) = validate_query(nest, q) {
                    return Slot::Invalid(err);
                }
                if let Some(&first) = first_seen.get(q) {
                    return Slot::Repeat(first);
                }
                first_seen.insert(q, i);
                if let Some(answer) =
                    interned.and_then(|(e, o)| caches.peek_cached(e, o, nest, canon, q))
                {
                    return Slot::Hit(answer);
                }
                match forms.entry(canonical_query_form(q)) {
                    Entry::Occupied(p) => Slot::Twin(*p.get(), None),
                    Entry::Vacant(v) => {
                        v.insert(pending.len());
                        pending.push(q);
                        Slot::Miss
                    }
                }
            })
            .collect();
        Batch {
            queries,
            slots,
            pending,
        }
    }

    /// Phases 3 and 4: computes the misses (each `Tightness` component
    /// once) and answers the twins, with no lock held. `None` when every
    /// valid query hit — then nothing is checked out of `pool` and nothing
    /// is left to install. With `with_costs`, also prices each computed
    /// artifact for the trace.
    pub(crate) fn compute(
        &mut self,
        pool: &ContextPool,
        nest: &LoopNest,
        canon: &CanonicalNest,
        with_costs: bool,
    ) -> Option<Computed<'q>> {
        if self.pending.is_empty() {
            return None;
        }
        let pending = std::mem::take(&mut self.pending);
        // A component miss whose same-`M` Tightness is pending is not
        // solved: that computation derives it (a map, not a scan, so a
        // hostile batch stays linear).
        let tightness_at: HashMap<u64, usize> = pending
            .iter()
            .enumerate()
            .filter_map(|(p, q)| match q {
                Query::Tightness { cache_size } => Some((*cache_size, p)),
                _ => None,
            })
            .collect();
        let component_of =
            |q: &Query| ResultKind::of_query(q).and_then(|(_, m)| tightness_at.get(&m).copied());
        let mut results: Vec<Result<Detached, EngineError>> = par_map_with(
            &pending,
            || pool.checkout(),
            |ctx, _, q| match component_of(q) {
                None => compute_detached(nest, canon, q, ctx),
                Some(_) => Err(EngineError::Internal("tightness component left unanswered")),
            },
        );
        for (p, q) in pending.iter().enumerate() {
            let Some(t) = component_of(q) else {
                continue;
            };
            let answer = match results.get(t) {
                Some(Ok(tightness)) => tightness.component(q),
                Some(Err(err)) => Err(err.clone()),
                None => Err(EngineError::Internal("tightness check never computed")),
            };
            if let Some(result) = results.get_mut(p) {
                *result = answer;
            }
        }
        for (slot, q) in self.slots.iter_mut().zip(self.queries) {
            if let Slot::Twin(p, answer) = slot {
                *answer = Some(match results.get(*p) {
                    Some(Ok(detached)) => detached.twin_answer(q),
                    Some(Err(err)) => Err(err.clone()),
                    None => Err(EngineError::Internal("twin of a form never computed")),
                });
            }
        }
        let results = results
            .into_iter()
            .map(|result| {
                let costs = match &result {
                    Ok(detached) if with_costs => detached_costs(detached),
                    _ => Vec::new(),
                };
                (result, costs)
            })
            .collect();
        Some(Computed { pending, results })
    }

    /// Phase 6: moves every answer into input order.
    pub(crate) fn finish(self, installed: Option<Installed>) -> Resolved {
        let mut installed = installed.unwrap_or_default().into_iter();
        let n = self.slots.len();
        let mut answers: Vec<Result<Answer, EngineError>> = Vec::with_capacity(n);
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(n);
        let mut costs: Vec<Vec<u64>> = Vec::with_capacity(n);
        for slot in self.slots {
            let (answer, outcome, cost) = match slot {
                Slot::Invalid(err) => (Err(err), Outcome::Invalid, Vec::new()),
                Slot::Hit(answer) => (Ok(answer), Outcome::Hit, Vec::new()),
                Slot::Twin(_, answer) => (
                    answer.unwrap_or(Err(EngineError::Internal("twin left unanswered"))),
                    Outcome::Hit,
                    Vec::new(),
                ),
                Slot::Miss => match installed.next() {
                    Some((Ok(answer), cost)) => (Ok(answer), Outcome::Miss, cost),
                    Some((Err(err), _)) => (Err(err), Outcome::Failed, Vec::new()),
                    None => (
                        Err(EngineError::Internal("miss left uninstalled")),
                        Outcome::Failed,
                        Vec::new(),
                    ),
                },
                Slot::Repeat(first) => {
                    let answer = answers
                        .get(first)
                        .cloned()
                        .unwrap_or(Err(EngineError::Internal(
                            "repeat precedes its first literal",
                        )));
                    let outcome = match outcomes.get(first) {
                        Some(Outcome::Miss | Outcome::Failed) => Outcome::Duplicate,
                        _ => Outcome::Hit,
                    };
                    (answer, outcome, Vec::new())
                }
            };
            answers.push(answer);
            outcomes.push(outcome);
            costs.push(cost);
        }
        Resolved {
            answers,
            outcomes,
            costs,
        }
    }
}

impl Computed<'_> {
    /// Phase 5: interns the batch's orientation and installs every computed
    /// artifact, in pending order. Solves nothing.
    pub(crate) fn install(self, caches: &mut Caches, canon: &CanonicalNest) -> Installed {
        let (e, o) = caches.intern_with(canon);
        self.pending
            .into_iter()
            .zip(self.results)
            .map(|(q, (result, costs))| (result.and_then(|d| caches.install(e, o, q, d)), costs))
            .collect()
    }
}

impl Caches {
    /// Pure cached lookup: `Some(answer)` iff the query is answerable
    /// without solver work or re-threading any recency list. Reads go
    /// through [`super::BoundedLru::peek`], which records recency in atomic
    /// stamps, so concurrent readers never take the engine's write lock for
    /// a hit. A resident `LowerBound`, `EnumeratedBound` or `OptimalTiling`
    /// is answered by the cache's own [`Answer`] handle (an `Arc` clone). A
    /// tightness query peeks its tiling, bound and enumeration in that
    /// order, stops at the first absent one, and composes the report from
    /// the three with the certificate check on `nest` (the declared order
    /// its bound is keyed by) — no LP solve.
    ///
    /// Typed results and surfaces are keyed by orientation `o` and miss
    /// until this declaration order is interned; slices are keyed by the
    /// entry alone, so any declaration order of an interned nest hits them.
    fn peek_cached(
        &self,
        e: usize,
        o: Option<usize>,
        nest: &LoopNest,
        canon: &CanonicalNest,
        query: &Query,
    ) -> Option<Answer> {
        let result = |kind: ResultKind, m: u64| {
            self.results.peek(&ResultKey {
                entry: e,
                orientation: o?,
                m,
                kind,
            })
        };
        if let Some((kind, m)) = ResultKind::of_query(query) {
            return result(kind, m).cloned();
        }
        let answer = match query {
            Query::Tightness { cache_size } => {
                let m = *cache_size;
                let AnalysisResult::OptimalTiling(tiling) = result(ResultKind::Tiling, m)?.result()
                else {
                    return None;
                };
                let AnalysisResult::LowerBound(bound) = result(ResultKind::Bound, m)?.result()
                else {
                    return None;
                };
                let AnalysisResult::EnumeratedBound(enumerated) =
                    result(ResultKind::Enumerated, m)?.result()
                else {
                    return None;
                };
                AnalysisResult::Tightness(compose_tightness_report(
                    nest, m, tiling, bound, enumerated,
                ))
            }
            Query::Surface {
                cache_size,
                axes,
                lo_bounds,
                hi_bounds,
            } => {
                let (key, order) = self.surface_key(e, o?, *cache_size, axes, lo_bounds, hi_bounds);
                let stored = self.surfaces.peek(&key)?;
                AnalysisResult::Surface(stored.summary_in(axes, order.as_deref()))
            }
            Query::Slice {
                cache_size,
                axis,
                lo_bound,
                hi_bound,
            } => {
                let key = SliceKey {
                    entry: e,
                    m: *cache_size,
                    canon_axis: *canon.loop_permutation().get(*axis)?,
                    kind: SliceKind::Span {
                        lo_bound: *lo_bound,
                        hi_bound: *hi_bound,
                    },
                };
                match self.slices.peek(&key)? {
                    SliceEntry::Span(vf) => AnalysisResult::Slice(vf.clone()),
                    SliceEntry::Probe(_) => return None,
                }
            }
            Query::LowerBound { .. }
            | Query::EnumeratedBound { .. }
            | Query::OptimalTiling { .. } => return None,
        };
        Some(Answer::new(answer))
    }

    /// Inserts a typed result at its estimated cost.
    pub(super) fn insert_result(&mut self, key: ResultKey, answer: Answer) {
        let c = cost::result(answer.result());
        self.results.insert(key, answer, c);
    }

    /// Installs one computed result into the memo caches and returns the
    /// caller-facing answer (without re-reading — or, for surfaces,
    /// re-remapping — the caches). A component result is installed as the
    /// handle it returns.
    fn install(
        &mut self,
        e: usize,
        o: usize,
        query: &Query,
        detached: Detached,
    ) -> Result<Answer, EngineError> {
        let result_key = |kind: ResultKind, m: u64| ResultKey {
            entry: e,
            orientation: o,
            m,
            kind,
        };
        let mismatch = EngineError::Internal("detached result variant does not match its query");
        let answer = detached.result;
        if let Some((kind, m)) = ResultKind::of_query(query) {
            if !kind.holds(answer.result()) {
                return Err(mismatch);
            }
            self.insert_result(result_key(kind, m), answer.clone());
            return Ok(answer);
        }
        match (query, answer.result()) {
            (Query::Tightness { cache_size }, AnalysisResult::Tightness(_)) => {
                // The report is composed on every answer, never stored: only
                // its components go in, where absent.
                let parts = detached.tightness_parts.ok_or(EngineError::Internal(
                    "tightness result lacks its components",
                ))?;
                for (kind, part) in parts {
                    let key = result_key(kind, *cache_size);
                    if !self.results.contains(&key) {
                        self.insert_result(key, part);
                    }
                }
            }
            (
                Query::Surface {
                    cache_size,
                    axes,
                    lo_bounds,
                    hi_bounds,
                },
                AnalysisResult::Surface(_),
            ) => {
                let (key, _) = self.surface_key(e, o, *cache_size, axes, lo_bounds, hi_bounds);
                let stored = detached
                    .surface
                    .ok_or(EngineError::Internal("surface result lacks its surface"))?;
                if !self.surfaces.contains(&key) {
                    let c = cost::surface(&stored);
                    self.surfaces.insert(key, stored, c);
                }
            }
            (
                Query::Slice {
                    cache_size,
                    axis,
                    lo_bound,
                    hi_bound,
                },
                AnalysisResult::Slice(vf),
            ) => {
                let key = SliceKey {
                    entry: e,
                    m: *cache_size,
                    canon_axis: self.canon_axis(e, o, *axis),
                    kind: SliceKind::Span {
                        lo_bound: *lo_bound,
                        hi_bound: *hi_bound,
                    },
                };
                if !self.slices.contains(&key) {
                    let entry = SliceEntry::Span(vf.clone());
                    let c = cost::slice_entry(&entry);
                    self.slices.insert(key, entry, c);
                }
            }
            _ => return Err(mismatch),
        }
        Ok(answer)
    }
}

/// A result computed with no access to the caches, plus the artifacts its
/// install caches: the full sorted-order surface for a surface query, and
/// the components of a tightness check in install order (the check is
/// itself never cached, so a `Tightness` query warms `OptimalTiling`,
/// `LowerBound` and `EnumeratedBound`).
pub(crate) struct Detached {
    result: Answer,
    surface: Option<StoredSurface>,
    tightness_parts: Option<[(ResultKind, Answer); 3]>,
}

impl Detached {
    /// A result with no artifacts besides itself.
    fn bare(result: Answer) -> Detached {
        Detached {
            result,
            surface: None,
            tightness_parts: None,
        }
    }

    /// Answers a canonical twin of the computed query — the same surface
    /// requested with permuted axes — from the computed sorted-order
    /// surface, by the same exact remap [`compute_detached`] applies. Reads
    /// no cache and solves nothing.
    fn twin_answer(&self, twin: &Query) -> Result<Answer, EngineError> {
        match (twin, &self.surface) {
            (
                Query::Surface {
                    axes,
                    lo_bounds,
                    hi_bounds,
                    ..
                },
                Some(stored),
            ) => {
                let (_, _, _, order) =
                    crate::parametric::sort_surface_request(axes, lo_bounds, hi_bounds);
                Ok(Answer::new(AnalysisResult::Surface(
                    stored.summary_in(axes, order.as_deref()),
                )))
            }
            _ => Err(EngineError::Internal(
                "only a computed surface answers a canonical twin",
            )),
        }
    }

    /// Answers a `LowerBound`, `EnumeratedBound` or `OptimalTiling` query
    /// at the computed tightness check's `M` with the handle of the
    /// component the check derived, which is what that query's own
    /// free-function call returns. Reads no cache and solves nothing.
    fn component(&self, query: &Query) -> Result<Detached, EngineError> {
        let Some(parts) = &self.tightness_parts else {
            return Err(EngineError::Internal(
                "only a computed tightness check has components",
            ));
        };
        let part = ResultKind::of_query(query)
            .and_then(|(kind, _)| parts.iter().find(|(k, _)| *k == kind))
            .ok_or(EngineError::Internal(
                "query is not a component of a tightness check",
            ))?;
        Ok(Detached::bare(part.1.clone()))
    }
}

/// Cost estimates of the cache entries installing `detached` may write, in
/// install order — three for a tightness result (tiling, bound, enumerated),
/// one otherwise. Recorded into trace events so the lab's replay charges its
/// caches exactly what the live install charged.
fn detached_costs(detached: &Detached) -> Vec<u64> {
    if let Some(parts) = &detached.tightness_parts {
        return parts
            .iter()
            .map(|(_, a)| cost::result(a.result()))
            .collect();
    }
    if let Some(stored) = &detached.surface {
        return vec![cost::surface(stored)];
    }
    match detached.result.result() {
        AnalysisResult::Slice(vf) => vec![cost::value_function(vf)],
        // Tightness and Surface results always carry their parts/surface
        // and are handled above; an inconsistent Detached records nothing.
        AnalysisResult::Tightness(_) | AnalysisResult::Surface(_) => Vec::new(),
        component => vec![cost::result(component)],
    }
}

/// Computes one query with no access to the caches. Every path bottoms out
/// in the retained free functions (path-independent solves), so answers are
/// bitwise the cold oracles' whichever worker computes them.
fn compute_detached(
    nest: &LoopNest,
    canon: &CanonicalNest,
    query: &Query,
    ctx: &mut projtile_lp::SolverContext,
) -> Result<Detached, EngineError> {
    let tiling = |m: u64| {
        let sol = crate::tiling_lp::solve_tiling_lp(nest, m);
        let tile_dims = crate::tiling_lp::tile_dims_from_lambda(nest, m, &sol.lambda);
        TilingSummary {
            lambda: sol.lambda,
            value: sol.value,
            tile_dims,
        }
    };
    let result = match query {
        Query::LowerBound { cache_size } => {
            AnalysisResult::LowerBound(crate::bounds::arbitrary_bound_exponent(nest, *cache_size))
        }
        Query::EnumeratedBound { cache_size } => {
            AnalysisResult::EnumeratedBound(crate::bounds::enumerated_exponent(nest, *cache_size))
        }
        Query::OptimalTiling { cache_size } => AnalysisResult::OptimalTiling(tiling(*cache_size)),
        Query::Tightness { cache_size } => {
            // Computed from its explicit components (exactly the fields
            // `check_tightness` derives) so install can cache them.
            let m = *cache_size;
            let bound = crate::bounds::arbitrary_bound_exponent(nest, m);
            let enumerated = crate::bounds::enumerated_exponent(nest, m);
            let tiling = tiling(m);
            let report = compose_tightness_report(nest, m, &tiling, &bound, &enumerated);
            return Ok(Detached {
                result: Answer::new(AnalysisResult::Tightness(report)),
                surface: None,
                tightness_parts: Some([
                    (
                        ResultKind::Tiling,
                        Answer::new(AnalysisResult::OptimalTiling(tiling)),
                    ),
                    (
                        ResultKind::Bound,
                        Answer::new(AnalysisResult::LowerBound(bound)),
                    ),
                    (
                        ResultKind::Enumerated,
                        Answer::new(AnalysisResult::EnumeratedBound(enumerated)),
                    ),
                ]),
            });
        }
        Query::Surface {
            cache_size,
            axes,
            lo_bounds,
            hi_bounds,
        } => {
            // Compute in sorted-axes order (the storage order of the surface
            // memo) and derive the caller-order summary by the same exact
            // remap the free function applies.
            let (s_axes, s_lo, s_hi, order) =
                crate::parametric::sort_surface_request(axes, lo_bounds, hi_bounds);
            let s = crate::parametric::exponent_surface(nest, *cache_size, &s_axes, &s_lo, &s_hi)?;
            let stored = StoredSurface {
                summary: summarize_surface(&s, &s_axes),
                surface: s,
            };
            return Ok(Detached {
                result: Answer::new(AnalysisResult::Surface(
                    stored.summary_in(axes, order.as_deref()),
                )),
                surface: Some(stored),
                tightness_parts: None,
            });
        }
        Query::Slice {
            cache_size,
            axis,
            lo_bound,
            hi_bound,
        } => {
            // Computed on the canonical nest (a 1-D value function carries
            // no positional data), so every permuted variant shares the
            // slice entry.
            let canon_axis = canon
                .loop_permutation()
                .get(*axis)
                .copied()
                .ok_or(EngineError::Internal("slice axis outside the nest"))?;
            AnalysisResult::Slice(crate::parametric::exponent_vs_beta_with(
                canon.nest(),
                *cache_size,
                canon_axis,
                *lo_bound,
                *hi_bound,
                ctx,
            )?)
        }
    };
    Ok(Detached::bare(Answer::new(result)))
}

/// The cache-canonical form of a query: `Surface` axes sorted ascending
/// with their bound ranges permuted alongside — the form the surface memo
/// keys by. Every other variant is its own canonical form. Classification
/// compares these, so two permuted-axes requests for the same surface in
/// one batch compute it once.
pub(crate) fn canonical_query_form(query: &Query) -> Query {
    match query {
        Query::Surface {
            cache_size,
            axes,
            lo_bounds,
            hi_bounds,
        } => {
            let (axes, lo_bounds, hi_bounds, _) =
                crate::parametric::sort_surface_request(axes, lo_bounds, hi_bounds);
            Query::Surface {
                cache_size: *cache_size,
                axes,
                lo_bounds,
                hi_bounds,
            }
        }
        other => other.clone(),
    }
}

/// Mirrors the assertions of the free functions as recoverable errors.
pub(crate) fn validate_query(nest: &LoopNest, query: &Query) -> Result<(), EngineError> {
    let d = nest.num_loops();
    if query.cache_size() < 2 {
        return Err(EngineError::InvalidQuery(
            "cache size must be at least 2 words".into(),
        ));
    }
    match query {
        Query::EnumeratedBound { .. } | Query::Tightness { .. } => {
            if d > 30 {
                return Err(EngineError::InvalidQuery(format!(
                    "subset enumeration over {d} > 30 indices refused"
                )));
            }
        }
        Query::Surface {
            axes,
            lo_bounds,
            hi_bounds,
            ..
        } => {
            if axes.is_empty() {
                return Err(EngineError::InvalidQuery(
                    "at least one swept axis required".into(),
                ));
            }
            if axes.len() != lo_bounds.len() || axes.len() != hi_bounds.len() {
                return Err(EngineError::InvalidQuery(
                    "one bound range per swept axis required".into(),
                ));
            }
            let mut seen: Vec<usize> = Vec::with_capacity(axes.len());
            for (&a, (&lo, &hi)) in axes.iter().zip(lo_bounds.iter().zip(hi_bounds.iter())) {
                if a >= d {
                    return Err(EngineError::InvalidQuery(format!(
                        "axis {a} out of range for a {d}-loop nest"
                    )));
                }
                if seen.contains(&a) {
                    return Err(EngineError::InvalidQuery(format!(
                        "axis {a} swept twice in the same surface"
                    )));
                }
                seen.push(a);
                if lo < 1 || hi < lo {
                    return Err(EngineError::InvalidQuery(format!(
                        "invalid bound range on axis {a}"
                    )));
                }
            }
        }
        Query::Slice {
            axis,
            lo_bound,
            hi_bound,
            ..
        } => {
            if *axis >= d {
                return Err(EngineError::InvalidQuery(format!(
                    "axis {axis} out of range for a {d}-loop nest"
                )));
            }
            if *lo_bound < 1 || hi_bound < lo_bound {
                return Err(EngineError::InvalidQuery("invalid bound range".into()));
            }
        }
        Query::LowerBound { .. } | Query::OptimalTiling { .. } => {}
    }
    Ok(())
}
