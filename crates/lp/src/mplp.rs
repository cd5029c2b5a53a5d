//! Multiparametric right-hand-side analysis over a box of parameters.
//!
//! Section 7 of the paper observes that the optimal tile exponent is a
//! concave piecewise-linear function of *all* the log loop bounds
//! `β_1, …, β_d` simultaneously, and that a multiparametric LP solver can
//! recover its closed form. This module is that solver: given a base program,
//! a set of right-hand-side *directions* `d_1, …, d_p`, and a box
//! `Θ = [lo_1, hi_1] × ⋯ × [lo_p, hi_p]`, it computes the exact value
//! function
//!
//! ```text
//! f(θ) = opt( lp with rhs b + θ_1·d_1 + ⋯ + θ_p·d_p ),   θ ∈ Θ
//! ```
//!
//! as a list of **critical regions**: each optimal basis `B` of the program
//! yields an affine piece `f(θ) = c·θ + k` (its gradient is the basis' dual
//! prices contracted with the directions) that is exact on the rational
//! polyhedron where `B` stays primal feasible (`B⁻¹b(θ) ≥ 0` — one halfspace
//! per tableau row), and the pieces of all bases visited cover the box.
//!
//! # Algorithm
//!
//! The classical critical-region graph traversal, run entirely in exact
//! rational arithmetic:
//!
//! 1. solve the program at a seed point (box corners, plus a deterministic
//!    interior point) via [`SolverContext::solve_with_sensitivity`] and read
//!    the affine piece and region polyhedron off the optimal basis;
//! 2. for every facet of the region, find an interior point of the facet
//!    within the box (a tiny exact Chebyshev-style LP), step across it by
//!    half the distance to the nearest other constraint, and re-solve there —
//!    the warm context re-enters the **dual simplex** from the previous
//!    basis, so hopping to an adjacent region typically costs a pivot or two;
//! 3. repeat until no step lands outside every known region.
//!
//! Every probe ends at the canonical lex-min optimal vertex
//! ([`crate::solve_canonical`]'s tie-breaking), and the traversal itself is
//! deterministic (FIFO over exactly computed rational points), so the region
//! decomposition is reproducible run to run.
//!
//! # Exactness
//!
//! Each region's affine piece is `y_B · b(θ)` for the basis' dual vector
//! `y_B`, which is dual feasible for *every* θ (reduced costs do not depend
//! on the rhs). By weak duality the piece therefore bounds `f` everywhere —
//! from above for maximization, from below for minimization — and it equals
//! `f` on its own region. A concave (resp. convex) piecewise-linear function
//! is the pointwise minimum (resp. maximum) of its affine pieces, so
//! [`ValueSurface::value_at`] and the slicers evaluate the **envelope** of
//! the collected pieces: every evaluation is exact wherever the regions
//! cover, and never on the wrong side of the true optimum anywhere. The
//! differential tests pin 1-D slices of the surface bitwise against the
//! independent cold sweeps of [`crate::parametric`].

use std::collections::VecDeque;

use projtile_arith::Rational;
use serde::{Deserialize, Serialize};

use crate::parametric::{merge_collinear, ValueFunction};
use crate::problem::{Constraint, LinearProgram, Objective, Relation};
use crate::warm::{SensitivitySolution, SolverContext};
use crate::LpError;

/// Hard cap on the number of critical regions a single analysis may
/// enumerate; the programs of this workspace have at most a few dozen bases,
/// so hitting the cap indicates a malformed query (and is reported as such
/// rather than looping).
const REGION_BUDGET: usize = 4096;

/// An axis-aligned box of parameter vectors, `lo_k ≤ θ_k ≤ hi_k`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamBox {
    /// Lower corner.
    pub lo: Vec<Rational>,
    /// Upper corner (componentwise `≥ lo`).
    pub hi: Vec<Rational>,
}

impl ParamBox {
    /// Creates a box, rejecting mismatched or inverted corners.
    pub fn new(lo: Vec<Rational>, hi: Vec<Rational>) -> Result<ParamBox, LpError> {
        if lo.len() != hi.len() {
            return Err(LpError::Malformed(format!(
                "box corners have dimensions {} and {}",
                lo.len(),
                hi.len()
            )));
        }
        if lo.is_empty() {
            return Err(LpError::Malformed("empty parameter box".into()));
        }
        if lo.iter().zip(&hi).any(|(l, h)| l > h) {
            return Err(LpError::Malformed("box has lo > hi on some axis".into()));
        }
        Ok(ParamBox { lo, hi })
    }

    /// Number of parameters `p`.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// `true` iff `theta` lies in the (closed) box.
    pub fn contains(&self, theta: &[Rational]) -> bool {
        theta.len() == self.dim()
            && theta
                .iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(t, (l, h))| t >= l && t <= h)
    }

    /// `true` iff the box is degenerate (a single point) along axis `k`.
    fn is_flat(&self, k: usize) -> bool {
        self.lo[k] == self.hi[k]
    }

    /// Deterministic seed points: every corner plus an off-center interior
    /// point (`lo + 5/13·(hi − lo)`, chosen away from the small-denominator
    /// rationals where degenerate breakpoints like `β = 1/2` live).
    fn seeds(&self) -> Vec<Vec<Rational>> {
        let p = self.dim();
        let mut out = Vec::new();
        if p <= 12 {
            for mask in 0u64..1 << p {
                let corner: Vec<Rational> = (0..p)
                    .map(|k| {
                        if mask >> k & 1 == 1 {
                            self.hi[k].clone()
                        } else {
                            self.lo[k].clone()
                        }
                    })
                    .collect();
                out.push(corner);
            }
        }
        let frac = projtile_arith::ratio(5, 13);
        out.push(
            (0..p)
                .map(|k| {
                    let mut v = self.lo[k].clone();
                    v.add_mul_assign(&frac, &(&self.hi[k] - &self.lo[k]));
                    v
                })
                .collect(),
        );
        out
    }
}

/// One affine piece `f(θ) = constant + gradient · θ` of a value surface.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AffinePiece {
    /// `∂f/∂θ_k` on the piece — for a parametric tiling LP these are the
    /// paper's per-axis exponent sensitivities (e.g. `1` in the `1 + β_3`
    /// matmul regime and `0` in the `3/2` regime).
    pub gradient: Vec<Rational>,
    /// The constant term.
    pub constant: Rational,
}

impl AffinePiece {
    /// Evaluates the piece at `theta`.
    // lint: allow(L008) assert pins parameter arity, checked by ValueSurface::value_at before dispatch
    pub fn value_at(&self, theta: &[Rational]) -> Rational {
        assert_eq!(theta.len(), self.gradient.len(), "dimension mismatch");
        let mut v = self.constant.clone();
        for (g, t) in self.gradient.iter().zip(theta) {
            if !g.is_zero() && !t.is_zero() {
                v.add_mul_assign(g, t);
            }
        }
        v
    }

    /// Renders the piece as a human-readable closed form, e.g. `1 + β3` or
    /// `3/2`, with `names[k]` naming parameter `k`.
    // lint: allow(L008) assert_eq pins the documented names.len() == coeffs.len() precondition
    pub fn render(&self, names: &[&str]) -> String {
        assert_eq!(names.len(), self.gradient.len(), "one name per parameter");
        let mut out = String::new();
        if !self.constant.is_zero() {
            out.push_str(&self.constant.to_string());
        }
        for (g, name) in self.gradient.iter().zip(names) {
            if g.is_zero() {
                continue;
            }
            let mag = g.abs();
            if out.is_empty() {
                if g.is_negative() {
                    out.push('-');
                }
            } else {
                out.push_str(if g.is_negative() { " - " } else { " + " });
            }
            if !mag.is_one() {
                out.push_str(&mag.to_string());
                out.push('·');
            }
            out.push_str(name);
        }
        if out.is_empty() {
            out.push('0');
        }
        out
    }
}

/// A closed halfspace `normal · θ ≤ offset`, normalized so the first nonzero
/// normal entry has magnitude one.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HalfSpace {
    /// Outward normal (nonzero).
    pub normal: Vec<Rational>,
    /// Right-hand side.
    pub offset: Rational,
}

impl HalfSpace {
    /// `true` iff `theta` satisfies the halfspace.
    pub fn admits(&self, theta: &[Rational]) -> bool {
        dot(&self.normal, theta) <= self.offset
    }

    /// Scales so the first nonzero normal entry has magnitude one (positive
    /// scaling preserves the inequality), giving every halfspace a canonical
    /// representative for deduplication and deterministic ordering.
    fn normalize(mut self) -> HalfSpace {
        if let Some(lead) = self.normal.iter().find(|c| !c.is_zero()) {
            let scale = lead.abs().recip();
            if !scale.is_one() {
                for c in &mut self.normal {
                    *c = &*c * &scale;
                }
                self.offset = &self.offset * &scale;
            }
        }
        self
    }

    /// `true` iff the halfspace holds on the entire box (its facet cannot
    /// intersect the box interior), so it carries no information about the
    /// region's shape inside the box.
    fn redundant_over(&self, domain: &ParamBox) -> bool {
        let mut max = Rational::zero();
        for (k, c) in self.normal.iter().enumerate() {
            if c.is_positive() {
                max.add_mul_assign(c, &domain.hi[k]);
            } else if c.is_negative() {
                max.add_mul_assign(c, &domain.lo[k]);
            }
        }
        max <= self.offset
    }
}

/// One critical region: an affine piece of the value function together with
/// the polyhedron (inside the analyzed box) on which its basis — and hence
/// the piece — is exact.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CriticalRegion {
    /// The affine piece, exact on this region and a one-sided bound on the
    /// value function everywhere (see the module docs).
    pub piece: AffinePiece,
    /// The region's halfspaces (box constraints not repeated; halfspaces
    /// implied by the box alone are dropped). May still contain inequalities
    /// redundant with each other.
    pub halfspaces: Vec<HalfSpace>,
    /// The probe point that discovered the region (inside it by
    /// construction).
    pub witness: Vec<Rational>,
}

impl CriticalRegion {
    /// `true` iff `theta` satisfies every halfspace of the region (box
    /// membership is checked by the surface, not here).
    pub fn contains(&self, theta: &[Rational]) -> bool {
        self.halfspaces.iter().all(|h| h.admits(theta))
    }
}

/// The exact value function of a parametric LP over a box, decomposed into
/// critical regions. Produced by [`parametric_rhs_box`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValueSurface {
    objective: Objective,
    domain: ParamBox,
    regions: Vec<CriticalRegion>,
}

impl ValueSurface {
    /// The analyzed parameter box.
    pub fn domain(&self) -> &ParamBox {
        &self.domain
    }

    /// The critical regions, in a canonical (deterministic) order.
    pub fn regions(&self) -> &[CriticalRegion] {
        &self.regions
    }

    /// Number of critical regions.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// The same surface with its parameters renumbered: new parameter `k` is
    /// old parameter `order[k]` (an index permutation). Every coordinate
    /// vector — box corners, piece gradients, halfspace normals, witnesses —
    /// is permuted accordingly and the regions are re-sorted into their
    /// canonical order, so the result is the exact surface a caller that
    /// numbered the parameters in the permuted order would work with.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..self.domain().dim()`.
    // lint: allow(L008) asserts pin the perm-is-a-permutation precondition from canonicalize
    pub fn permute_parameters(&self, order: &[usize]) -> ValueSurface {
        let p = self.domain.dim();
        assert_eq!(order.len(), p, "parameter permutation length mismatch");
        let mut seen = vec![false; p];
        for &i in order {
            assert!(i < p && !seen[i], "not a parameter permutation");
            seen[i] = true;
        }
        let permute =
            |v: &[Rational]| -> Vec<Rational> { order.iter().map(|&i| v[i].clone()).collect() };
        let domain = ParamBox {
            lo: permute(&self.domain.lo),
            hi: permute(&self.domain.hi),
        };
        let mut regions: Vec<CriticalRegion> = self
            .regions
            .iter()
            .map(|r| CriticalRegion {
                piece: AffinePiece {
                    gradient: permute(&r.piece.gradient),
                    constant: r.piece.constant.clone(),
                },
                halfspaces: r
                    .halfspaces
                    .iter()
                    .map(|h| HalfSpace {
                        normal: permute(&h.normal),
                        offset: h.offset.clone(),
                    })
                    .collect(),
                witness: permute(&r.witness),
            })
            .collect();
        regions.sort();
        ValueSurface {
            objective: self.objective,
            domain,
            regions,
        }
    }

    /// Checks that every coordinate vector in the surface — box corners,
    /// piece gradients, halfspace normals, region witnesses — has exactly
    /// `dim` entries, that the box is non-empty (`lo ≤ hi` per axis), and
    /// that at least one region is present.
    ///
    /// The serde derives construct surfaces field-by-field, bypassing the
    /// solver that normally guarantees these invariants, so restore paths
    /// must run this on untrusted documents before calling the
    /// assert-bearing consumers (`value_at`, `render`,
    /// `permute_parameters`).
    pub fn check_dims(&self, dim: usize) -> Result<(), String> {
        if self.domain.lo.len() != dim || self.domain.hi.len() != dim {
            return Err(format!("surface domain box is not {dim}-dimensional"));
        }
        if self
            .domain
            .lo
            .iter()
            .zip(&self.domain.hi)
            .any(|(l, h)| l > h)
        {
            return Err("surface domain box is empty (lo > hi)".into());
        }
        if self.regions.is_empty() {
            return Err("surface has no critical regions".into());
        }
        for (i, r) in self.regions.iter().enumerate() {
            if r.piece.gradient.len() != dim {
                return Err(format!(
                    "region {i} piece gradient is not {dim}-dimensional"
                ));
            }
            if r.witness.len() != dim {
                return Err(format!("region {i} witness is not {dim}-dimensional"));
            }
            if r.halfspaces.iter().any(|h| h.normal.len() != dim) {
                return Err(format!(
                    "region {i} has a halfspace normal that is not {dim}-dimensional"
                ));
            }
        }
        Ok(())
    }

    /// The distinct affine pieces of the surface, deduplicated and sorted.
    pub fn pieces(&self) -> Vec<&AffinePiece> {
        let mut pieces: Vec<&AffinePiece> = self.regions.iter().map(|r| &r.piece).collect();
        pieces.sort();
        pieces.dedup();
        pieces
    }

    /// The value function at `theta`: the envelope (min over pieces for a
    /// maximization program, max for a minimization) of every region's piece.
    ///
    /// # Panics
    /// Panics if `theta` lies outside the analyzed box (outside it the
    /// envelope is only a one-sided bound).
    // lint: allow(L008) asserts pin piece-cover and dimension invariants maintained by the mpLP solver
    pub fn value_at(&self, theta: &[Rational]) -> Rational {
        assert!(
            self.domain.contains(theta),
            "theta outside the analyzed box"
        );
        let values = self.regions.iter().map(|r| r.piece.value_at(theta));
        match self.objective {
            Objective::Maximize => values.min(),
            Objective::Minimize => values.max(),
        }
        .expect("a surface has at least one region")
    }

    /// The exact 1-D restriction obtained by varying parameter `axis` over
    /// its full box range while holding the remaining parameters at `at`
    /// (whose entry at `axis` is ignored): a [`ValueFunction`] over
    /// `θ_axis ∈ [lo_axis, hi_axis]`, bitwise-identical to what the 1-D sweep
    /// of [`crate::parametric`] computes along the same line.
    ///
    /// # Panics
    /// Panics if `axis` is out of range or `at` leaves the box on some other
    /// axis.
    pub fn slice_axis(&self, axis: usize, at: &[Rational]) -> ValueFunction {
        let p = self.domain.dim();
        assert!(axis < p, "axis out of range");
        assert_eq!(at.len(), p, "one coordinate per parameter");
        for (k, t) in at.iter().enumerate() {
            assert!(
                k == axis || (*t >= self.domain.lo[k] && *t <= self.domain.hi[k]),
                "slice point outside the analyzed box on axis {k}"
            );
        }
        let lines: Vec<(Rational, Rational)> = self
            .regions
            .iter()
            .map(|r| {
                let mut b = r.piece.constant.clone();
                for (k, (g, t)) in r.piece.gradient.iter().zip(at).enumerate() {
                    if k != axis && !g.is_zero() {
                        b.add_mul_assign(g, t);
                    }
                }
                (r.piece.gradient[axis].clone(), b)
            })
            .collect();
        envelope(
            &lines,
            &self.domain.lo[axis],
            &self.domain.hi[axis],
            self.objective,
        )
    }

    /// The exact restriction of the surface to the segment
    /// `θ(t) = from + t·(to − from)`, `t ∈ [0, 1]`, as a [`ValueFunction`]
    /// over `t`. Both endpoints must lie in the analyzed box (the box is
    /// convex, so the whole segment then does).
    pub fn slice_segment(&self, from: &[Rational], to: &[Rational]) -> ValueFunction {
        assert!(
            self.domain.contains(from) && self.domain.contains(to),
            "segment endpoints outside the analyzed box"
        );
        let lines: Vec<(Rational, Rational)> = self
            .regions
            .iter()
            .map(|r| {
                let mut slope = Rational::zero();
                for (g, (f, t)) in r.piece.gradient.iter().zip(from.iter().zip(to)) {
                    if !g.is_zero() {
                        slope.add_mul_assign(g, &(t - f));
                    }
                }
                (slope, r.piece.value_at(from))
            })
            .collect();
        envelope(&lines, &Rational::zero(), &Rational::one(), self.objective)
    }
}

/// Computes the exact value surface of `lp` with its right-hand side replaced
/// by `rhs + Σ_k θ_k·directions[k]` for `θ` over `domain`, hopping between
/// critical regions with warm dual-simplex re-entries.
///
/// Returns an error if the program is infeasible or unbounded anywhere on the
/// box, if a probe's basis cannot expose sensitivity data (phase 1 dropped
/// redundant rows), or if the query is malformed.
///
/// ```
/// use projtile_arith::{int, ratio};
/// use projtile_lp::{mplp, Constraint, LinearProgram, Relation};
///
/// // max x + y  st  x ≤ θ_1, y ≤ θ_2, x + y ≤ 1: the value surface over
/// // [0,1]² is min(θ_1 + θ_2, 1) — two affine pieces.
/// let mut lp = LinearProgram::maximize(vec![int(1), int(1)]);
/// lp.add_constraint(Constraint::new(vec![int(1), int(0)], Relation::Le, int(0)));
/// lp.add_constraint(Constraint::new(vec![int(0), int(1)], Relation::Le, int(0)));
/// lp.add_constraint(Constraint::new(vec![int(1), int(1)], Relation::Le, int(1)));
/// let directions = vec![
///     vec![int(1), int(0), int(0)],
///     vec![int(0), int(1), int(0)],
/// ];
/// let domain = mplp::ParamBox::new(vec![int(0); 2], vec![int(1); 2]).unwrap();
/// let surface = mplp::parametric_rhs_box(&lp, &directions, &domain).unwrap();
/// assert!(surface.pieces().len() >= 2);
/// assert_eq!(surface.value_at(&[ratio(1, 4), ratio(1, 4)]), ratio(1, 2));
/// assert_eq!(surface.value_at(&[int(1), ratio(3, 4)]), int(1));
/// ```
pub fn parametric_rhs_box(
    lp: &LinearProgram,
    directions: &[Vec<Rational>],
    domain: &ParamBox,
) -> Result<ValueSurface, LpError> {
    parametric_rhs_box_impl(lp, directions, domain, true)
}

/// [`parametric_rhs_box`] with every probe answered by an independent cold
/// solve instead of a warm dual-simplex re-entry. Retained as the
/// differential oracle for the warm path: the surfaces evaluate identically
/// everywhere on the box (the test suite pins values and slices against each
/// other and against the 1-D cold sweeps).
pub fn parametric_rhs_box_cold(
    lp: &LinearProgram,
    directions: &[Vec<Rational>],
    domain: &ParamBox,
) -> Result<ValueSurface, LpError> {
    parametric_rhs_box_impl(lp, directions, domain, false)
}

fn parametric_rhs_box_impl(
    lp: &LinearProgram,
    directions: &[Vec<Rational>],
    domain: &ParamBox,
    warm: bool,
) -> Result<ValueSurface, LpError> {
    let p = domain.dim();
    if directions.len() != p {
        return Err(LpError::Malformed(format!(
            "{} directions for a {}-dimensional box",
            directions.len(),
            p
        )));
    }
    for d in directions {
        if d.len() != lp.num_constraints() {
            return Err(LpError::Malformed(format!(
                "direction has {} entries but the program has {} constraints",
                d.len(),
                lp.num_constraints()
            )));
        }
    }
    lp.validate()?;

    let base_rhs: Vec<Rational> = lp.constraints.iter().map(|c| c.rhs.clone()).collect();
    let mut scratch = lp.clone();
    let mut ctx = SolverContext::new();
    let mut probe = |theta: &[Rational]| -> Result<SensitivitySolution, LpError> {
        for (i, c) in scratch.constraints.iter_mut().enumerate() {
            c.rhs = base_rhs[i].clone();
            for (dir, t) in directions.iter().zip(theta) {
                if !dir[i].is_zero() && !t.is_zero() {
                    c.rhs.add_mul_assign(&dir[i], t);
                }
            }
        }
        if !warm {
            ctx.reset();
        }
        ctx.solve_with_sensitivity(&scratch)
    };

    let mut queue: VecDeque<Vec<Rational>> = domain.seeds().into();
    let mut regions: Vec<CriticalRegion> = Vec::new();
    let mut discovered = 0usize;
    while let Some(theta) = queue.pop_front() {
        if regions.iter().any(|r| r.contains(&theta)) {
            continue;
        }
        discovered += 1;
        if discovered > REGION_BUDGET {
            return Err(LpError::Malformed(format!(
                "more than {REGION_BUDGET} critical regions; refusing the query"
            )));
        }
        let sens = probe(&theta)?;
        let region = extract_region(&sens, directions, &theta, domain);
        debug_assert!(region.contains(&theta), "region misses its own witness");
        for crossing in facet_crossings(&region, domain)? {
            queue.push_back(crossing);
        }
        regions.push(region);
    }
    regions.sort();
    Ok(ValueSurface {
        objective: lp.objective,
        domain: domain.clone(),
        regions,
    })
}

/// Builds the critical region of the basis that solved the probe at `theta`:
/// the affine piece from the dual prices, and one halfspace per basic row
/// whose value actually depends on `θ`.
fn extract_region(
    sens: &SensitivitySolution,
    directions: &[Vec<Rational>],
    theta: &[Rational],
    domain: &ParamBox,
) -> CriticalRegion {
    let p = directions.len();
    // Gradient: ∂f/∂θ_k = Σ_row directions[k][row] · y_row.
    let gradient: Vec<Rational> = directions
        .iter()
        .map(|dir| dot(dir, &sens.dual_prices))
        .collect();
    let mut constant = sens.solution.objective_value.clone();
    for (g, t) in gradient.iter().zip(theta) {
        if !g.is_zero() && !t.is_zero() {
            constant.sub_mul_assign(g, t);
        }
    }

    // Each basic row i is affine in θ: value_i + Σ_k c_ik·(θ_k − θ*_k) ≥ 0,
    // i.e. the halfspace −c_i·θ ≤ value_i − c_i·θ*.
    let mut halfspaces: Vec<HalfSpace> = Vec::new();
    for row in &sens.basis_rows {
        let coeffs: Vec<Rational> = directions.iter().map(|dir| dot(dir, &row.binv)).collect();
        if coeffs.iter().all(|c| c.is_zero()) {
            continue;
        }
        let mut offset = row.value.clone();
        let mut normal = Vec::with_capacity(p);
        for (c, t) in coeffs.into_iter().zip(theta) {
            if !c.is_zero() && !t.is_zero() {
                offset.sub_mul_assign(&c, t);
            }
            normal.push(-c);
        }
        let hs = HalfSpace { normal, offset }.normalize();
        if !hs.redundant_over(domain) {
            halfspaces.push(hs);
        }
    }
    halfspaces.sort();
    halfspaces.dedup();
    CriticalRegion {
        piece: AffinePiece { gradient, constant },
        halfspaces,
        witness: theta.to_vec(),
    }
}

/// For every facet of `region` that has a relative interior inside the box,
/// produces one point strictly across the facet (and strictly inside the box
/// and the region's other halfspaces), i.e. a witness for a neighbouring
/// region.
fn facet_crossings(
    region: &CriticalRegion,
    domain: &ParamBox,
) -> Result<Vec<Vec<Rational>>, LpError> {
    let mut out = Vec::new();
    for i in 0..region.halfspaces.len() {
        if let Some(point) = facet_crossing(region, i, domain)? {
            out.push(point);
        }
    }
    Ok(out)
}

/// A point just across facet `i` of `region`, or `None` when the facet has no
/// relative interior within the box (it lies on the box boundary, or the
/// region pinches to lower dimension there). Errors other than the expected
/// infeasibility of the margin LP propagate — silently skipping a facet
/// would leave a coverage gap the envelope cannot detect.
fn facet_crossing(
    region: &CriticalRegion,
    i: usize,
    domain: &ParamBox,
) -> Result<Option<Vec<Rational>>, LpError> {
    let p = domain.dim();
    let facet = &region.halfspaces[i];
    // Maximize the margin t over points of the facet: variables are
    // u = θ − lo (≥ 0 by the solver's convention) and t, with every other
    // halfspace and every non-flat box wall kept at distance ≥ t
    // (constraint-units margin; any positive margin serves).
    let mut lp = LinearProgram::maximize({
        let mut costs = vec![Rational::zero(); p + 1];
        costs[p] = Rational::one();
        costs
    });
    let shift = |normal: &[Rational], offset: &Rational| -> Rational {
        // offset − normal·lo: the rhs in u-coordinates.
        let mut rhs = offset.clone();
        for (c, l) in normal.iter().zip(&domain.lo) {
            if !c.is_zero() && !l.is_zero() {
                rhs.sub_mul_assign(c, l);
            }
        }
        rhs
    };
    let mut on_facet = facet.normal.clone();
    on_facet.push(Rational::zero());
    lp.add_constraint(Constraint::new(
        on_facet,
        Relation::Eq,
        shift(&facet.normal, &facet.offset),
    ));
    for (j, hs) in region.halfspaces.iter().enumerate() {
        if j == i {
            continue;
        }
        let mut coeffs = hs.normal.clone();
        coeffs.push(Rational::one());
        lp.add_constraint(Constraint::new(
            coeffs,
            Relation::Le,
            shift(&hs.normal, &hs.offset),
        ));
    }
    for k in 0..p {
        let mut coeffs = vec![Rational::zero(); p + 1];
        coeffs[k] = Rational::one();
        if domain.is_flat(k) {
            // Flat axis: the point is pinned; no margin is required (or
            // possible) against these walls.
            lp.add_constraint(Constraint::new(coeffs, Relation::Eq, Rational::zero()));
            continue;
        }
        // u_k + t ≤ hi_k − lo_k  and  t − u_k ≤ 0.
        coeffs[p] = Rational::one();
        lp.add_constraint(Constraint::new(
            coeffs.clone(),
            Relation::Le,
            &domain.hi[k] - &domain.lo[k],
        ));
        coeffs[k] = -Rational::one();
        lp.add_constraint(Constraint::new(coeffs, Relation::Le, Rational::zero()));
    }
    let sol = match crate::solve(&lp) {
        Ok(sol) => sol,
        Err(LpError::Infeasible) => return Ok(None),
        Err(e) => return Err(e),
    };
    let margin = &sol.values[p];
    if !margin.is_positive() {
        return Ok(None);
    }
    let anchor: Vec<Rational> = (0..p).map(|k| &domain.lo[k] + &sol.values[k]).collect();

    // Step direction: the facet normal restricted to non-flat axes (crossing
    // must not move along a flat axis). A facet whose normal lives entirely
    // on flat axes is constant over the box and was already dropped as
    // redundant or cannot reach this point with margin > 0.
    let dir: Vec<Rational> = (0..p)
        .map(|k| {
            if domain.is_flat(k) {
                Rational::zero()
            } else {
                facet.normal[k].clone()
            }
        })
        .collect();
    let advance = dot(&dir, &facet.normal);
    if !advance.is_positive() {
        return Ok(None);
    }

    // Largest step staying inside the box and the other halfspaces, halved.
    let mut limit: Option<Rational> = None;
    let mut cap = |bound: Rational| {
        debug_assert!(bound.is_positive());
        limit = Some(match limit.take() {
            None => bound,
            Some(old) => old.min(bound),
        });
    };
    for k in 0..p {
        if dir[k].is_positive() {
            cap(&(&domain.hi[k] - &anchor[k]) / &dir[k]);
        } else if dir[k].is_negative() {
            cap(&(&anchor[k] - &domain.lo[k]) / &-&dir[k]);
        }
    }
    for (j, hs) in region.halfspaces.iter().enumerate() {
        if j == i {
            continue;
        }
        let speed = dot(&hs.normal, &dir);
        if speed.is_positive() {
            cap(&(&hs.offset - &dot(&hs.normal, &anchor)) / &speed);
        }
    }
    let Some(limit) = limit else {
        return Ok(None);
    };
    let step = &limit / &Rational::from(2u32);
    Ok(Some(
        anchor
            .iter()
            .zip(&dir)
            .map(|(a, d)| {
                let mut v = a.clone();
                if !d.is_zero() {
                    v.add_mul_assign(&step, d);
                }
                v
            })
            .collect(),
    ))
}

/// The exact envelope (min for maximization, max for minimization) of the
/// lines `t ↦ slope·t + intercept` over `[lo, hi]`, as breakpoints with
/// collinear interior points merged — the same representation the 1-D
/// parametric sweep produces, so slices compare bitwise.
fn envelope(
    lines: &[(Rational, Rational)],
    lo: &Rational,
    hi: &Rational,
    objective: Objective,
) -> ValueFunction {
    assert!(!lines.is_empty(), "envelope of no lines");
    let eval = |t: &Rational| -> Rational {
        let values = lines.iter().map(|(a, b)| {
            let mut v = b.clone();
            if !a.is_zero() && !t.is_zero() {
                v.add_mul_assign(a, t);
            }
            v
        });
        match objective {
            Objective::Maximize => values.min(),
            Objective::Minimize => values.max(),
        }
        .expect("non-empty line set")
    };
    if lo == hi {
        return ValueFunction {
            breakpoints: vec![(lo.clone(), eval(lo))],
        };
    }
    let mut candidates: Vec<Rational> = vec![lo.clone(), hi.clone()];
    for (i, (ai, bi)) in lines.iter().enumerate() {
        for (aj, bj) in &lines[i + 1..] {
            if ai == aj {
                continue;
            }
            let t = &(bj - bi) / &(ai - aj);
            if t > *lo && t < *hi {
                candidates.push(t);
            }
        }
    }
    candidates.sort();
    candidates.dedup();
    let points: Vec<(Rational, Rational)> = candidates
        .into_iter()
        .map(|t| {
            let v = eval(&t);
            (t, v)
        })
        .collect();
    ValueFunction {
        breakpoints: merge_collinear(points),
    }
}

fn dot(a: &[Rational], b: &[Rational]) -> Rational {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = Rational::zero();
    for (x, y) in a.iter().zip(b) {
        if !x.is_zero() && !y.is_zero() {
            acc.add_mul_assign(x, y);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parametric::{parametric_rhs, parametric_rhs_cold};
    use projtile_arith::{int, ratio};

    /// The paper's matmul tiling LP (6.3) with rows β1, β2, β3 appended after
    /// the three footprint rows, all starting at zero.
    fn matmul_tiling_lp() -> LinearProgram {
        let mut lp = LinearProgram::maximize(vec![int(1), int(1), int(1)]);
        for row in [[1, 0, 1], [1, 1, 0], [0, 1, 1]] {
            lp.add_constraint(Constraint::new(
                row.iter().map(|&v| int(v)).collect(),
                Relation::Le,
                int(1),
            ));
        }
        for k in 0..3 {
            let mut coeffs = vec![int(0); 3];
            coeffs[k] = int(1);
            lp.add_constraint(Constraint::new(coeffs, Relation::Le, int(0)));
        }
        lp
    }

    fn beta_directions() -> Vec<Vec<Rational>> {
        (0..3)
            .map(|k| {
                let mut d = vec![int(0); 6];
                d[3 + k] = int(1);
                d
            })
            .collect()
    }

    fn unit_box(p: usize) -> ParamBox {
        ParamBox::new(vec![int(0); p], vec![int(1); p]).unwrap()
    }

    #[test]
    fn matmul_surface_recovers_section_6_1_closed_form() {
        // §6.1: the exponent is min(β1+β2+β3, 1+β1, 1+β2, 1+β3, 3/2).
        let lp = matmul_tiling_lp();
        let surface = parametric_rhs_box(&lp, &beta_directions(), &unit_box(3)).unwrap();
        let expected = [
            (vec![int(1), int(1), int(1)], int(0)),
            (vec![int(1), int(0), int(0)], int(1)),
            (vec![int(0), int(1), int(0)], int(1)),
            (vec![int(0), int(0), int(1)], int(1)),
            (vec![int(0), int(0), int(0)], ratio(3, 2)),
        ];
        let pieces = surface.pieces();
        for (gradient, constant) in &expected {
            assert!(
                pieces
                    .iter()
                    .any(|p| p.gradient == *gradient && p.constant == *constant),
                "missing piece {gradient:?} + {constant}"
            );
        }
        // Every discovered piece is attained at its witness, so the envelope
        // evaluation reproduces the closed form exactly on a grid.
        for i in 0..=4u32 {
            for j in 0..=4u32 {
                for k in 0..=4u32 {
                    let theta = [ratio(i as i64, 4), ratio(j as i64, 4), ratio(k as i64, 4)];
                    let closed = theta
                        .iter()
                        .fold(Rational::zero(), |acc, b| &acc + b)
                        .min(&int(1) + theta.iter().min().unwrap())
                        .min(ratio(3, 2));
                    assert_eq!(surface.value_at(&theta), closed, "θ = {theta:?}");
                }
            }
        }
    }

    #[test]
    fn surface_slices_match_one_dimensional_sweeps_bitwise() {
        let lp = matmul_tiling_lp();
        let dirs = beta_directions();
        let surface = parametric_rhs_box(&lp, &dirs, &unit_box(3)).unwrap();
        // Slicing along β3 with β1 = β2 = 1 is exactly the 1-D sweep of the
        // last row of the program with the first two β rows at 1.
        let mut base = lp.clone();
        base.constraints[3].rhs = int(1);
        base.constraints[4].rhs = int(1);
        let dir3: Vec<Rational> = (0..6).map(|i| int(i64::from(i == 5))).collect();
        let warm = parametric_rhs(&base, &dir3, int(0), int(1)).unwrap();
        let cold = parametric_rhs_cold(&base, &dir3, int(0), int(1)).unwrap();
        let slice = surface.slice_axis(2, &[int(1), int(1), int(0)]);
        assert_eq!(slice, warm);
        assert_eq!(slice, cold);
        assert_eq!(slice.num_pieces(), 2);
        assert!(slice.breakpoints.iter().any(|(t, _)| *t == ratio(1, 2)));
    }

    #[test]
    fn warm_and_cold_surfaces_evaluate_identically() {
        let lp = matmul_tiling_lp();
        let dirs = beta_directions();
        let domain = unit_box(3);
        let warm = parametric_rhs_box(&lp, &dirs, &domain).unwrap();
        let cold = parametric_rhs_box_cold(&lp, &dirs, &domain).unwrap();
        for i in 0..=3u32 {
            for j in 0..=3u32 {
                for k in 0..=3u32 {
                    let theta = [ratio(i as i64, 3), ratio(j as i64, 3), ratio(k as i64, 3)];
                    assert_eq!(warm.value_at(&theta), cold.value_at(&theta), "{theta:?}");
                }
            }
        }
        // And the 1-D restrictions agree bitwise along every axis.
        let at = [ratio(2, 3), ratio(1, 3), ratio(1, 2)];
        for axis in 0..3 {
            assert_eq!(warm.slice_axis(axis, &at), cold.slice_axis(axis, &at));
        }
    }

    #[test]
    fn segment_slice_agrees_with_pointwise_evaluation() {
        let lp = matmul_tiling_lp();
        let surface = parametric_rhs_box(&lp, &beta_directions(), &unit_box(3)).unwrap();
        let from = [int(0), ratio(1, 2), int(0)];
        let to = [int(1), ratio(1, 2), int(1)];
        let vf = surface.slice_segment(&from, &to);
        for num in 0..=6i64 {
            let t = ratio(num, 6);
            let theta: Vec<Rational> = from
                .iter()
                .zip(&to)
                .map(|(f, g)| {
                    let mut v = f.clone();
                    v.add_mul_assign(&t, &(g - f));
                    v
                })
                .collect();
            assert_eq!(vf.value_at(&t), surface.value_at(&theta), "t = {t}");
        }
    }

    #[test]
    fn minimization_surface_is_convex_envelope() {
        // min x  st  x ≥ θ_1, x ≥ θ_2: value = max(θ_1, θ_2), convex.
        let mut lp = LinearProgram::minimize(vec![int(1)]);
        lp.add_constraint(Constraint::new(vec![int(1)], Relation::Ge, int(0)));
        lp.add_constraint(Constraint::new(vec![int(1)], Relation::Ge, int(0)));
        let dirs = vec![vec![int(1), int(0)], vec![int(0), int(1)]];
        let surface = parametric_rhs_box(&lp, &dirs, &unit_box(2)).unwrap();
        assert_eq!(surface.value_at(&[ratio(1, 3), ratio(2, 3)]), ratio(2, 3));
        assert_eq!(surface.value_at(&[int(1), int(0)]), int(1));
        let slice = surface.slice_axis(0, &[int(0), ratio(1, 2)]);
        assert_eq!(slice.num_pieces(), 2);
        assert!(slice.breakpoints.iter().any(|(t, _)| *t == ratio(1, 2)));
    }

    #[test]
    fn degenerate_axes_are_supported() {
        // A flat axis (lo = hi) pins that parameter; the surface along the
        // remaining axis still decomposes exactly.
        let lp = matmul_tiling_lp();
        let domain = ParamBox::new(
            vec![int(0), ratio(1, 2), int(0)],
            vec![int(1), ratio(1, 2), int(1)],
        )
        .unwrap();
        let surface = parametric_rhs_box(&lp, &beta_directions(), &domain).unwrap();
        for i in 0..=4i64 {
            for k in 0..=4i64 {
                let theta = [ratio(i, 4), ratio(1, 2), ratio(k, 4)];
                let closed = (&(&theta[0] + &ratio(1, 2)) + &theta[2])
                    .min(&int(1) + theta.iter().min().unwrap())
                    .min(ratio(3, 2));
                assert_eq!(surface.value_at(&theta), closed, "{theta:?}");
            }
        }
        // Regression: slicing *along* the flat axis yields a single-point
        // value function that still evaluates at its only θ.
        // f(1/4, 1/2, 3/4) = min(3/2, 1 + 1/4, 3/2) = 5/4.
        let flat_slice = surface.slice_axis(1, &[ratio(1, 4), int(0), ratio(3, 4)]);
        assert_eq!(flat_slice.breakpoints.len(), 1);
        assert_eq!(flat_slice.value_at(&ratio(1, 2)), ratio(5, 4));
    }

    #[test]
    fn point_box_is_a_single_probe() {
        let lp = matmul_tiling_lp();
        let domain = ParamBox::new(vec![ratio(1, 4); 3], vec![ratio(1, 4); 3]).unwrap();
        let surface = parametric_rhs_box(&lp, &beta_directions(), &domain).unwrap();
        assert_eq!(surface.value_at(&vec![ratio(1, 4); 3]), ratio(3, 4));
    }

    #[test]
    fn malformed_queries_rejected() {
        let lp = matmul_tiling_lp();
        let domain = unit_box(2);
        assert!(matches!(
            parametric_rhs_box(&lp, &beta_directions(), &domain),
            Err(LpError::Malformed(_))
        ));
        let bad_dir = vec![vec![int(1)], vec![int(1)]];
        assert!(matches!(
            parametric_rhs_box(&lp, &bad_dir, &domain),
            Err(LpError::Malformed(_))
        ));
        assert!(ParamBox::new(vec![int(1)], vec![int(0)]).is_err());
        assert!(ParamBox::new(vec![], vec![]).is_err());
    }

    #[test]
    fn render_produces_readable_closed_forms() {
        let names = ["β1", "β2", "β3"];
        let piece = AffinePiece {
            gradient: vec![int(0), int(0), int(1)],
            constant: int(1),
        };
        assert_eq!(piece.render(&names), "1 + β3");
        let piece = AffinePiece {
            gradient: vec![int(1), int(1), int(1)],
            constant: int(0),
        };
        assert_eq!(piece.render(&names), "β1 + β2 + β3");
        let piece = AffinePiece {
            gradient: vec![int(0), int(0), int(0)],
            constant: ratio(3, 2),
        };
        assert_eq!(piece.render(&names), "3/2");
        let piece = AffinePiece {
            gradient: vec![ratio(-1, 2), int(0), int(0)],
            constant: int(2),
        };
        assert_eq!(piece.render(&names), "2 - 1/2·β1");
        let piece = AffinePiece {
            gradient: vec![int(0); 3],
            constant: int(0),
        };
        assert_eq!(piece.render(&names), "0");
    }
}
