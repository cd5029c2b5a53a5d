//! Dense two-phase simplex over exact rationals with Bland's rule.
//!
//! The LPs solved in this workspace are tiny (at most a few dozen variables
//! and constraints), so the implementation optimizes for exactness and
//! auditability rather than speed: a dense tableau of [`Rational`]s, explicit
//! artificial variables, and Bland's anti-cycling pivot rule which guarantees
//! termination even on the degenerate programs that arise when loop bounds sit
//! exactly on a crossover (e.g. `L = √M`).

use projtile_arith::Rational;

use crate::problem::{dot, LinearProgram, Objective, Relation, Solution};
use crate::LpError;

/// Solves a linear program to optimality.
///
/// Returns the optimal objective value (in the problem's own sense) and the
/// optimal values of the structural variables. The returned point is always
/// exactly feasible (this is asserted in debug builds and checked by the test
/// suite via [`LinearProgram::is_feasible`]).
/// When the optimum is not unique, the reported point is whichever optimal
/// vertex Bland's pivot path reaches; see [`solve_canonical`] for a
/// path-independent choice.
///
/// ```
/// use projtile_arith::{int, ratio};
/// use projtile_lp::{solve, Constraint, LinearProgram, Relation};
///
/// // The paper's tiling LP (6.3) with β3 = 1/4:
/// // max λ1+λ2+λ3 st λ1+λ3 ≤ 1, λ1+λ2 ≤ 1, λ2+λ3 ≤ 1, λ3 ≤ 1/4.
/// let mut lp = LinearProgram::maximize(vec![int(1), int(1), int(1)]);
/// for (row, rhs) in [
///     ([1, 0, 1], int(1)),
///     ([1, 1, 0], int(1)),
///     ([0, 1, 1], int(1)),
///     ([0, 0, 1], ratio(1, 4)),
/// ] {
///     lp.add_constraint(Constraint::new(
///         row.iter().map(|&v| int(v)).collect(),
///         Relation::Le,
///         rhs,
///     ));
/// }
/// let sol = solve(&lp).unwrap();
/// assert_eq!(sol.objective_value, ratio(5, 4)); // 1 + β3, exactly
/// assert!(lp.is_feasible(&sol.values));
/// ```
pub fn solve(lp: &LinearProgram) -> Result<Solution, LpError> {
    lp.validate()?;
    let mut tableau = Tableau::build(lp);
    tableau.phase_one()?;
    tableau.phase_two()?;
    Ok(tableau.extract_solution(lp))
}

/// Like [`solve`], but when the optimum is not unique the reported point is
/// the **lexicographically smallest** optimal vertex (smallest `x_1`, then
/// smallest `x_2` among those, and so on). That canonical choice is a
/// property of the program alone — not of the pivot path — which is what
/// makes warm-started re-solves ([`crate::warm`]) bitwise-identical to cold
/// ones even on degenerate programs with whole optimal faces. The objective
/// value is identical to [`solve`]'s (optimal values are unique).
///
/// ```
/// use projtile_arith::int;
/// use projtile_lp::{solve_canonical, Constraint, LinearProgram, Relation};
///
/// // max x + y st x + y ≤ 1 has a whole optimal edge; the canonical answer
/// // is its lex-min vertex (0, 1), no matter how the solver pivoted.
/// let mut lp = LinearProgram::maximize(vec![int(1), int(1)]);
/// lp.add_constraint(Constraint::new(vec![int(1), int(1)], Relation::Le, int(1)));
/// let sol = solve_canonical(&lp).unwrap();
/// assert_eq!(sol.values, vec![int(0), int(1)]);
/// ```
pub fn solve_canonical(lp: &LinearProgram) -> Result<Solution, LpError> {
    lp.validate()?;
    let mut tableau = Tableau::build(lp);
    tableau.phase_one()?;
    tableau.phase_two()?;
    tableau.canonicalize_vertex();
    Ok(tableau.extract_solution(lp))
}

/// Internal simplex tableau.
///
/// Shared with the warm-start layer ([`crate::warm`]), which re-enters an
/// optimal tableau through [`Tableau::reinstall_rhs`] + [`Tableau::dual_iterate`]
/// instead of rebuilding it from scratch.
pub(crate) struct Tableau {
    /// Constraint rows; each row has `num_cols + 1` entries (rhs last).
    pub(crate) rows: Vec<Vec<Rational>>,
    /// Objective row in the `z - c·x = 0` convention (rhs entry = objective value).
    pub(crate) obj: Vec<Rational>,
    /// Basic variable (column index) for each row.
    pub(crate) basis: Vec<usize>,
    /// Number of structural variables.
    num_structural: usize,
    /// Total number of variable columns (structural + slack + artificial).
    pub(crate) num_cols: usize,
    /// Column indices of artificial variables.
    pub(crate) artificial_cols: Vec<usize>,
    /// Objective coefficients of the original problem, negated if minimizing
    /// (so the tableau always maximizes).
    max_costs: Vec<Rational>,
    /// Per original constraint: `true` iff the row was negated at build time
    /// to make its right-hand side non-negative. A replacement rhs must be
    /// negated the same way before entering the stored system.
    pub(crate) row_negated: Vec<bool>,
    /// Per original constraint `k`: the column that held the identity vector
    /// `e_k` when the tableau was built (the slack of a `<=` row, the
    /// artificial of a `>=`/`==` row). Reading those columns of the current
    /// tableau yields `B⁻¹` — the basis inverse — which is what lets a new
    /// right-hand side be installed without refactorizing.
    pub(crate) id_cols: Vec<usize>,
    /// Set if [`Tableau::drive_out_artificials`] removed redundant rows; the
    /// original-constraint-to-row mapping is then lost and the tableau cannot
    /// be re-entered with a different right-hand side.
    pub(crate) rows_removed: bool,
    /// The right-hand side (in the original constraints' orientation) the
    /// tableau currently represents; lets [`Tableau::reinstall_rhs`] apply
    /// only the *delta* of a new rhs.
    current_rhs: Vec<Rational>,
    /// `is_artificial[j]` iff column `j` is an artificial variable
    /// (precomputed from `artificial_cols` to keep the hot re-entry loops
    /// allocation-free).
    is_artificial: Vec<bool>,
}

impl Tableau {
    pub(crate) fn build(lp: &LinearProgram) -> Tableau {
        let n = lp.num_vars();
        let m = lp.num_constraints();

        // Normalize rows to have non-negative right-hand sides.
        let mut norm: Vec<(Vec<Rational>, Relation, Rational)> = Vec::with_capacity(m);
        let mut row_negated = Vec::with_capacity(m);
        for c in &lp.constraints {
            if c.rhs.is_negative() {
                let coeffs: Vec<Rational> = c.coeffs.iter().map(|v| -v).collect();
                let relation = match c.relation {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
                norm.push((coeffs, relation, -&c.rhs));
                row_negated.push(true);
            } else {
                norm.push((c.coeffs.clone(), c.relation, c.rhs.clone()));
                row_negated.push(false);
            }
        }

        // Count slack/surplus and artificial columns.
        let num_slack = norm.iter().filter(|(_, r, _)| *r != Relation::Eq).count();
        let num_artificial = norm.iter().filter(|(_, r, _)| *r != Relation::Le).count();
        let num_cols = n + num_slack + num_artificial;

        let mut rows = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut artificial_cols = Vec::with_capacity(num_artificial);
        let mut id_cols = Vec::with_capacity(m);
        let mut next_slack = n;
        let mut next_artificial = n + num_slack;

        for (coeffs, relation, rhs) in &norm {
            let mut row = vec![Rational::zero(); num_cols + 1];
            row[..n].clone_from_slice(coeffs);
            row[num_cols] = rhs.clone();
            match relation {
                Relation::Le => {
                    row[next_slack] = Rational::one();
                    basis.push(next_slack);
                    id_cols.push(next_slack);
                    next_slack += 1;
                }
                Relation::Ge => {
                    row[next_slack] = -Rational::one();
                    next_slack += 1;
                    row[next_artificial] = Rational::one();
                    basis.push(next_artificial);
                    id_cols.push(next_artificial);
                    artificial_cols.push(next_artificial);
                    next_artificial += 1;
                }
                Relation::Eq => {
                    row[next_artificial] = Rational::one();
                    basis.push(next_artificial);
                    id_cols.push(next_artificial);
                    artificial_cols.push(next_artificial);
                    next_artificial += 1;
                }
            }
            rows.push(row);
        }

        let max_costs: Vec<Rational> = match lp.objective {
            Objective::Maximize => lp.costs.clone(),
            Objective::Minimize => lp.costs.iter().map(|c| -c).collect(),
        };

        let mut is_artificial = vec![false; num_cols];
        for &a in &artificial_cols {
            is_artificial[a] = true;
        }

        Tableau {
            rows,
            obj: vec![Rational::zero(); num_cols + 1],
            basis,
            num_structural: n,
            num_cols,
            artificial_cols,
            max_costs,
            row_negated,
            id_cols,
            rows_removed: false,
            current_rhs: lp.constraints.iter().map(|c| c.rhs.clone()).collect(),
            is_artificial,
        }
    }

    /// Installs an objective row for maximizing `costs · x` (costs indexed by
    /// column; missing columns have zero cost) and canonicalizes it against
    /// the current basis.
    fn set_objective(&mut self, costs: &[Rational]) {
        self.obj.clear();
        self.obj.resize(self.num_cols + 1, Rational::zero());
        for (j, c) in costs.iter().enumerate() {
            if !c.is_zero() {
                self.obj[j] = -c;
            }
        }
        // Split borrows: the objective row and the constraint rows are
        // disjoint fields, so no row needs to be cloned.
        let Tableau {
            obj, rows, basis, ..
        } = self;
        for (i, &b) in basis.iter().enumerate() {
            if obj[b].is_zero() {
                continue;
            }
            // The basic column of row i is exactly 1, so obj[b] lands on
            // exactly zero; taking it out up front keeps the loop disjoint.
            let factor = std::mem::replace(&mut obj[b], Rational::zero());
            for (j, r) in rows[i].iter().enumerate() {
                if j != b && !r.is_zero() {
                    obj[j].sub_mul_assign(&factor, r);
                }
            }
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        // Take the pivot row out of the tableau: this both avoids cloning it
        // (the buffer is moved, not copied) and lets every other row borrow
        // it while being updated.
        let mut pivot_row = std::mem::take(&mut self.rows[row]);

        // Normalize the pivot row; its pivot entry becomes exactly 1.
        let pivot = std::mem::replace(&mut pivot_row[col], Rational::one());
        debug_assert!(!pivot.is_zero());
        let inv = pivot.recip();
        if !inv.is_one() {
            for (j, entry) in pivot_row.iter_mut().enumerate() {
                if j != col && !entry.is_zero() {
                    *entry *= &inv;
                }
            }
        }

        // Columns (including the rhs) where the pivot row is nonzero: every
        // other column of the tableau is untouched by this pivot and is
        // skipped wholesale below.
        let nonzero: Vec<usize> = pivot_row
            .iter()
            .enumerate()
            .filter(|&(j, v)| j != col && !v.is_zero())
            .map(|(j, _)| j)
            .collect();

        // Eliminate the pivot column from every other row and the objective.
        // Each touched entry pays a single fused `x -= factor * p` update;
        // the pivot-column entry itself lands on exactly zero (the pivot row
        // has a 1 there), so it is written directly.
        for (i, r) in self.rows.iter_mut().enumerate() {
            if i == row || r[col].is_zero() {
                continue;
            }
            let factor = std::mem::replace(&mut r[col], Rational::zero());
            for &j in &nonzero {
                r[j].sub_mul_assign(&factor, &pivot_row[j]);
            }
        }
        if !self.obj[col].is_zero() {
            let factor = std::mem::replace(&mut self.obj[col], Rational::zero());
            for &j in &nonzero {
                self.obj[j].sub_mul_assign(&factor, &pivot_row[j]);
            }
        }

        self.rows[row] = pivot_row;
        self.basis[row] = col;
    }

    /// Runs simplex iterations until optimality or unboundedness, using
    /// Bland's rule. Columns in `forbidden` may never enter the basis.
    fn iterate(&mut self, forbidden: &[bool]) -> Result<(), LpError> {
        loop {
            // Entering column: smallest index with negative reduced cost.
            let entering = (0..self.num_cols).find(|&j| !forbidden[j] && self.obj[j].is_negative());
            let Some(col) = entering else {
                return Ok(());
            };
            // Leaving row: minimum ratio test, ties broken by smallest basic
            // index. `cmp_div` compares rhs_i/a_i against rhs_b/a_b by cross
            // multiplication, so no quotient is ever materialized.
            let mut best: Option<usize> = None;
            for i in 0..self.rows.len() {
                if !self.rows[i][col].is_positive() {
                    continue;
                }
                best = Some(match best {
                    None => i,
                    Some(b) => {
                        let ord = Rational::cmp_div(
                            &self.rows[i][self.num_cols],
                            &self.rows[i][col],
                            &self.rows[b][self.num_cols],
                            &self.rows[b][col],
                        );
                        match ord {
                            std::cmp::Ordering::Less => i,
                            std::cmp::Ordering::Equal if self.basis[i] < self.basis[b] => i,
                            _ => b,
                        }
                    }
                });
            }
            let Some(row) = best else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col);
        }
    }

    pub(crate) fn phase_one(&mut self) -> Result<(), LpError> {
        if self.artificial_cols.is_empty() {
            return Ok(());
        }
        // Maximize -(sum of artificials).
        let mut costs = vec![Rational::zero(); self.num_cols];
        for &a in &self.artificial_cols {
            costs[a] = -Rational::one();
        }
        self.set_objective(&costs);
        let forbidden = vec![false; self.num_cols];
        self.iterate(&forbidden)?;
        if self.objective_value().is_negative() {
            return Err(LpError::Infeasible);
        }
        self.drive_out_artificials();
        Ok(())
    }

    /// After phase 1, pivots any artificial variable still in the basis (at
    /// value zero) out of it, or drops its row if it is entirely redundant.
    fn drive_out_artificials(&mut self) {
        let is_artificial = |col: usize, arts: &[usize]| arts.contains(&col);
        let arts = self.artificial_cols.clone();
        let mut row_idx = 0;
        while row_idx < self.rows.len() {
            if is_artificial(self.basis[row_idx], &arts) {
                // Find any non-artificial column with a nonzero entry.
                let col = (0..self.num_cols)
                    .filter(|j| !is_artificial(*j, &arts))
                    .find(|&j| !self.rows[row_idx][j].is_zero());
                match col {
                    Some(c) => {
                        self.pivot(row_idx, c);
                        row_idx += 1;
                    }
                    None => {
                        // Redundant row: every real coefficient is zero.
                        self.rows.remove(row_idx);
                        self.basis.remove(row_idx);
                        self.rows_removed = true;
                    }
                }
            } else {
                row_idx += 1;
            }
        }
    }

    pub(crate) fn phase_two(&mut self) -> Result<(), LpError> {
        let mut costs = vec![Rational::zero(); self.num_cols];
        costs[..self.num_structural].clone_from_slice(&self.max_costs);
        self.set_objective(&costs);
        let mut forbidden = vec![false; self.num_cols];
        for &a in &self.artificial_cols {
            forbidden[a] = true;
        }
        self.iterate(&forbidden)
    }

    fn structural_values(&self) -> Vec<Rational> {
        let mut values = vec![Rational::zero(); self.num_structural];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.num_structural {
                values[b] = self.rows[i][self.num_cols].clone();
            }
        }
        values
    }

    fn objective_value(&self) -> Rational {
        self.obj[self.num_cols].clone()
    }

    /// Reads the optimal objective value off an optimal tableau (in the
    /// problem's own sense) without materializing the solution vector.
    pub(crate) fn extract_value(&self, lp: &LinearProgram) -> Rational {
        let raw = self.objective_value();
        match lp.objective {
            Objective::Maximize => raw,
            Objective::Minimize => -raw,
        }
    }

    /// Reads the optimal [`Solution`] off an optimal tableau, converting the
    /// internal always-maximize objective back to the problem's own sense.
    pub(crate) fn extract_solution(&self, lp: &LinearProgram) -> Solution {
        let values = self.structural_values();
        let raw = self.objective_value();
        let objective_value = match lp.objective {
            Objective::Maximize => raw,
            Objective::Minimize => -raw,
        };
        debug_assert!(
            lp.is_feasible(&values),
            "simplex returned an infeasible point"
        );
        debug_assert_eq!(lp.objective_at(&values), objective_value);
        Solution {
            objective_value,
            values,
        }
    }

    /// Replaces the stored right-hand side with `rhs` (given in the original
    /// constraints' orientation) without changing the basis: for each changed
    /// entry `Δb_k`, the basic values gain `Δb'_k · B⁻¹e_k` and the objective
    /// value gains `Δb'_k · y_k`, both read off the identity-origin column of
    /// constraint `k` in the current tableau — `O(m)` per **changed** entry,
    /// so single-row sweeps (parametric rays) pay almost nothing. The basis
    /// stays dual feasible (reduced costs do not depend on the rhs), but
    /// basic values may turn negative; [`Tableau::dual_iterate`] restores
    /// primal feasibility.
    ///
    /// Must not be called when [`Tableau::rows_removed`] is set.
    pub(crate) fn reinstall_rhs(&mut self, lp: &LinearProgram) {
        debug_assert!(!self.rows_removed, "row mapping lost; cannot re-enter");
        debug_assert_eq!(lp.constraints.len(), self.id_cols.len());
        for (k, new_b) in lp.constraints.iter().map(|c| &c.rhs).enumerate() {
            if *new_b == self.current_rhs[k] {
                continue;
            }
            // Δb in the stored (sign-normalized) orientation.
            let mut delta = new_b - &self.current_rhs[k];
            if self.row_negated[k] {
                delta = -delta;
            }
            let col = self.id_cols[k];
            for row in &mut self.rows {
                // rhs_i += Δb'_k · B⁻¹[i][k]
                let (vars, rhs_cell) = row.split_at_mut(self.num_cols);
                if !vars[col].is_zero() {
                    rhs_cell[0].add_mul_assign(&delta, &vars[col]);
                }
            }
            let (vars, z_cell) = self.obj.split_at_mut(self.num_cols);
            if !vars[col].is_zero() {
                // z += Δb'_k · y_k, with y_k read off the identity-origin
                // column (whose original cost is zero in phase 2).
                z_cell[0].add_mul_assign(&delta, &vars[col]);
            }
            self.current_rhs[k] = new_b.clone();
        }
    }

    /// Dual simplex with Bland-style anti-cycling: starting from a dual
    /// feasible basis (all reduced costs non-negative), pivots until every
    /// basic value is non-negative again.
    ///
    /// Leaving row: the infeasible row whose basic variable has the smallest
    /// index. Entering column: among non-artificial columns with a negative
    /// entry in that row, the one minimizing `obj[j] / -row[j]` (ties broken
    /// by smallest column index), which preserves dual feasibility. A row
    /// with a negative rhs and no admissible entering column certifies
    /// infeasibility.
    pub(crate) fn dual_iterate(&mut self) -> Result<(), LpError> {
        loop {
            let leaving = (0..self.rows.len())
                .filter(|&i| self.rows[i][self.num_cols].is_negative())
                .min_by_key(|&i| self.basis[i]);
            let Some(row) = leaving else {
                return Ok(());
            };
            let mut best: Option<(usize, Rational)> = None;
            for j in 0..self.num_cols {
                if self.is_artificial[j] || !self.rows[row][j].is_negative() {
                    continue;
                }
                let denom = -&self.rows[row][j];
                best = Some(match best {
                    None => (j, denom),
                    Some((b, bdenom)) => {
                        // obj[j]/denom vs obj[b]/bdenom, both denominators > 0.
                        let ord = Rational::cmp_div(&self.obj[j], &denom, &self.obj[b], &bdenom);
                        if ord == std::cmp::Ordering::Less {
                            (j, denom)
                        } else {
                            (b, bdenom)
                        }
                    }
                });
            }
            let Some((col, _)) = best else {
                return Err(LpError::Infeasible);
            };
            self.pivot(row, col);
        }
    }

    /// Reads the exact right-hand-side sensitivity of the current (optimal)
    /// basis off the tableau, in the *original* constraints' orientation and
    /// the problem's own objective sense:
    ///
    /// * `dual_prices[k]` is `∂v/∂b_k` for this basis — the rate at which the
    ///   optimal value changes per unit of right-hand side `k` (for a
    ///   minimization problem the tableau's internal always-maximize value is
    ///   negated, like in [`Tableau::extract_value`]);
    /// * `basis_rows[i]` holds the current basic value of tableau row `i`
    ///   (non-negative at an optimal tableau) together with the row of
    ///   `B⁻¹` mapping original-orientation rhs deltas to that basic value:
    ///   `x_i(b) = value_i + Σ_k binv_i[k]·(b_k − b_k^current)`.
    ///
    /// Both are read off the identity-origin columns ([`Tableau::id_cols`]),
    /// exactly like [`Tableau::reinstall_rhs`] applies rhs deltas — this is
    /// the data the multiparametric analysis ([`crate::mplp`]) turns into
    /// critical regions and gradients.
    ///
    /// Must not be called when [`Tableau::rows_removed`] is set (the
    /// constraint-to-row mapping is lost).
    pub(crate) fn rhs_sensitivity(
        &self,
        lp: &LinearProgram,
    ) -> (Vec<Rational>, Vec<crate::warm::BasisRow>) {
        debug_assert!(!self.rows_removed, "row mapping lost; no sensitivity");
        let m = lp.num_constraints();
        debug_assert_eq!(m, self.id_cols.len());
        let obj_sign_negated = lp.objective == Objective::Minimize;
        let mut dual_prices = Vec::with_capacity(m);
        for k in 0..m {
            let mut y = self.obj[self.id_cols[k]].clone();
            if self.row_negated[k] != obj_sign_negated {
                y = -y;
            }
            dual_prices.push(y);
        }
        let basis_rows = self
            .rows
            .iter()
            .map(|row| crate::warm::BasisRow {
                value: row[self.num_cols].clone(),
                binv: (0..m)
                    .map(|k| {
                        let v = &row[self.id_cols[k]];
                        if self.row_negated[k] {
                            -v
                        } else {
                            v.clone()
                        }
                    })
                    .collect(),
            })
            .collect();
        (dual_prices, basis_rows)
    }

    /// Moves the (already optimal) tableau to the **lexicographically
    /// smallest optimal vertex**: the optimum minimizing `x_1`, then `x_2`
    /// among those, and so on over the structural variables.
    ///
    /// Why this is path-independent: expanding the objective around any
    /// optimal basis gives `c·x = v* − Σ_j ρ_j x_j` for every feasible `x`,
    /// so the optimal face is exactly `{x feasible : x_j = 0 for every
    /// column with reduced cost ρ_j > 0}` — the same set no matter which
    /// optimal basis produced the `ρ`. Freezing the positive-reduced-cost
    /// columns out of the candidate set and minimizing `x_ℓ` level by level
    /// (freezing each level's positive-reduced-cost columns in turn) is
    /// therefore a sequence of *global* optimizations over faces determined
    /// by the program alone; after the last level the face is the single
    /// lex-min vertex. Entering columns always have a zero reduced cost in
    /// every earlier objective, so those rows — including the primary
    /// objective row, which is saved and restored — are untouched by the
    /// pivots, and the objective value is exactly preserved.
    ///
    /// Cost: when the optimum is already certified unique this is a single
    /// scan; otherwise one restricted mini-optimization per structural
    /// variable, each typically a handful of pivots on the final tableau.
    // lint: allow(L008) expect pins basis consistency maintained by every pivot
    pub(crate) fn canonicalize_vertex(&mut self) {
        // Columns that may never enter: artificials, plus every column with a
        // strictly positive reduced cost in the primary (or any completed
        // level's) objective row.
        let mut forbidden = self.is_artificial.clone();
        for (f, rc) in forbidden.iter_mut().zip(&self.obj) {
            *f = *f || rc.is_positive();
        }
        let mut basic = vec![false; self.num_cols];
        for &b in &self.basis {
            basic[b] = true;
        }
        // Fast path: every non-basic, non-artificial column has a strictly
        // positive reduced cost, so the optimum is unique and already lex-min.
        if (0..self.num_cols).all(|j| basic[j] || forbidden[j]) {
            return;
        }
        let primary_obj = std::mem::take(&mut self.obj);
        for level in 0..self.num_structural {
            if forbidden[level] {
                // x_level is zero on the whole remaining face: its own
                // reduced cost was positive at some earlier level.
                continue;
            }
            if !basic[level] {
                // x_level is non-basic, i.e. already at its minimum (zero);
                // enforcing x_level = 0 on the remaining face is exactly
                // "never let this column enter" — no optimization needed.
                forbidden[level] = true;
                continue;
            }
            // No admissible entering column at all: the vertex cannot move,
            // so every remaining coordinate is already minimal.
            if (0..self.num_cols).all(|j| basic[j] || forbidden[j]) {
                break;
            }
            // Maximize -x_level over the remaining face. With x_level basic
            // in row i, the canonicalized objective row for cost -e_level is
            // simply the negated row i (zero in the basic column itself) —
            // no general elimination pass needed.
            let row = self
                .basis
                .iter()
                .position(|&b| b == level)
                .expect("basic variable has a row");
            self.obj.clear();
            self.obj.extend(self.rows[row].iter().map(|v| -v));
            self.obj[level] = Rational::zero();
            self.iterate(&forbidden)
                .expect("minimizing a non-negative variable cannot be unbounded");
            basic.fill(false);
            for &b in &self.basis {
                basic[b] = true;
            }
            for (f, rc) in forbidden.iter_mut().zip(&self.obj) {
                *f = *f || rc.is_positive();
            }
        }
        // The primary objective row is still canonical for the final basis:
        // every pivot's entering column had a zero primary reduced cost, so
        // no pivot would have changed it.
        self.obj = primary_obj;
    }
}

/// Verifies that `candidate` is an optimal solution of `lp` by checking
/// feasibility and comparing the objective value against a fresh solve.
/// Useful in tests for validating hand-derived closed forms.
pub fn verify_optimal(lp: &LinearProgram, candidate: &[Rational]) -> Result<bool, LpError> {
    if !lp.is_feasible(candidate) {
        return Ok(false);
    }
    let sol = solve(lp)?;
    Ok(dot(&lp.costs, candidate) == sol.objective_value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Constraint;
    use projtile_arith::{int, ratio};

    fn le(coeffs: Vec<projtile_arith::Rational>, rhs: projtile_arith::Rational) -> Constraint {
        Constraint::new(coeffs, Relation::Le, rhs)
    }

    fn ge(coeffs: Vec<projtile_arith::Rational>, rhs: projtile_arith::Rational) -> Constraint {
        Constraint::new(coeffs, Relation::Ge, rhs)
    }

    #[test]
    fn simple_max_le() {
        // max x + y st x <= 2, y <= 3, x + y <= 4 -> 4
        let mut lp = LinearProgram::maximize(vec![int(1), int(1)]);
        lp.add_constraint(le(vec![int(1), int(0)], int(2)));
        lp.add_constraint(le(vec![int(0), int(1)], int(3)));
        lp.add_constraint(le(vec![int(1), int(1)], int(4)));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.objective_value, int(4));
        assert!(lp.is_feasible(&sol.values));
    }

    #[test]
    fn simple_min_ge() {
        // min 2x + 3y st x + y >= 4, x >= 1 -> x=4,y=0 cost 8? check: cost(4,0)=8, cost(1,3)=11 -> 8
        let mut lp = LinearProgram::minimize(vec![int(2), int(3)]);
        lp.add_constraint(ge(vec![int(1), int(1)], int(4)));
        lp.add_constraint(ge(vec![int(1), int(0)], int(1)));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.objective_value, int(8));
        assert_eq!(sol.values, vec![int(4), int(0)]);
    }

    #[test]
    fn equality_constraints() {
        // max x + 2y st x + y == 3, y <= 2 -> x=1, y=2, obj 5
        let mut lp = LinearProgram::maximize(vec![int(1), int(2)]);
        lp.add_constraint(Constraint::new(vec![int(1), int(1)], Relation::Eq, int(3)));
        lp.add_constraint(le(vec![int(0), int(1)], int(2)));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.objective_value, int(5));
        assert_eq!(sol.values, vec![int(1), int(2)]);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LinearProgram::maximize(vec![int(1)]);
        lp.add_constraint(le(vec![int(1)], int(1)));
        lp.add_constraint(ge(vec![int(1)], int(2)));
        assert_eq!(solve(&lp), Err(LpError::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LinearProgram::maximize(vec![int(1), int(1)]);
        lp.add_constraint(ge(vec![int(1), int(0)], int(1)));
        assert_eq!(solve(&lp), Err(LpError::Unbounded));
    }

    #[test]
    fn no_constraints() {
        // max -x -> 0 at x=0; max x -> unbounded.
        let lp = LinearProgram::maximize(vec![int(-1)]);
        assert_eq!(solve(&lp).unwrap().objective_value, int(0));
        let lp2 = LinearProgram::maximize(vec![int(1)]);
        assert_eq!(solve(&lp2), Err(LpError::Unbounded));
    }

    #[test]
    fn negative_rhs_handled() {
        // min x st -x <= -3  (i.e. x >= 3)
        let mut lp = LinearProgram::minimize(vec![int(1)]);
        lp.add_constraint(le(vec![int(-1)], int(-3)));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.objective_value, int(3));
    }

    #[test]
    fn fractional_optimum_hbl_matmul() {
        // The matmul HBL LP: min s1+s2+s3 st s1+s2>=1, s2+s3>=1, s1+s3>=1.
        let mut lp = LinearProgram::minimize(vec![int(1), int(1), int(1)]);
        lp.add_constraint(ge(vec![int(1), int(1), int(0)], int(1)));
        lp.add_constraint(ge(vec![int(0), int(1), int(1)], int(1)));
        lp.add_constraint(ge(vec![int(1), int(0), int(1)], int(1)));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.objective_value, ratio(3, 2));
        assert_eq!(sol.values, vec![ratio(1, 2), ratio(1, 2), ratio(1, 2)]);
    }

    #[test]
    fn tiling_lp_matmul_small_l3() {
        // LP (6.3) of the paper: max l1+l2+l3 st l1+l3<=1, l1+l2<=1, l2+l3<=1, l3<=beta3.
        // With beta3 = 1/4 the optimum is 1 + 1/4.
        let beta3 = ratio(1, 4);
        let mut lp = LinearProgram::maximize(vec![int(1), int(1), int(1)]);
        lp.add_constraint(le(vec![int(1), int(0), int(1)], int(1)));
        lp.add_constraint(le(vec![int(1), int(1), int(0)], int(1)));
        lp.add_constraint(le(vec![int(0), int(1), int(1)], int(1)));
        lp.add_constraint(le(vec![int(0), int(0), int(1)], beta3.clone()));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.objective_value, &int(1) + &beta3);
        // With beta3 = 3/4 >= 1/2 the classical 3/2 optimum is retained.
        let mut lp2 = LinearProgram::maximize(vec![int(1), int(1), int(1)]);
        lp2.add_constraint(le(vec![int(1), int(0), int(1)], int(1)));
        lp2.add_constraint(le(vec![int(1), int(1), int(0)], int(1)));
        lp2.add_constraint(le(vec![int(0), int(1), int(1)], int(1)));
        lp2.add_constraint(le(vec![int(0), int(0), int(1)], ratio(3, 4)));
        assert_eq!(solve(&lp2).unwrap().objective_value, ratio(3, 2));
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Highly degenerate: several redundant constraints through the optimum.
        let mut lp = LinearProgram::maximize(vec![int(1), int(1)]);
        for _ in 0..5 {
            lp.add_constraint(le(vec![int(1), int(1)], int(1)));
        }
        lp.add_constraint(le(vec![int(1), int(0)], int(1)));
        lp.add_constraint(le(vec![int(0), int(1)], int(1)));
        lp.add_constraint(Constraint::new(vec![int(1), int(-1)], Relation::Eq, int(0)));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.objective_value, int(1));
    }

    #[test]
    fn redundant_equality_rows_dropped() {
        // x + y == 2 stated twice plus its double.
        let mut lp = LinearProgram::maximize(vec![int(1), int(0)]);
        lp.add_constraint(Constraint::new(vec![int(1), int(1)], Relation::Eq, int(2)));
        lp.add_constraint(Constraint::new(vec![int(1), int(1)], Relation::Eq, int(2)));
        lp.add_constraint(Constraint::new(vec![int(2), int(2)], Relation::Eq, int(4)));
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.objective_value, int(2));
    }

    #[test]
    fn verify_optimal_works() {
        let mut lp = LinearProgram::maximize(vec![int(1), int(1)]);
        lp.add_constraint(le(vec![int(1), int(1)], int(1)));
        assert!(verify_optimal(&lp, &[ratio(1, 2), ratio(1, 2)]).unwrap());
        assert!(verify_optimal(&lp, &[int(1), int(0)]).unwrap());
        assert!(!verify_optimal(&lp, &[int(0), int(0)]).unwrap());
        assert!(!verify_optimal(&lp, &[int(2), int(0)]).unwrap());
    }

    #[test]
    fn malformed_rejected() {
        let mut lp = LinearProgram::maximize(vec![int(1), int(1)]);
        lp.add_constraint(le(vec![int(1)], int(1)));
        assert!(matches!(solve(&lp), Err(LpError::Malformed(_))));
    }
}
