//! Canonical forms for loop nests: permutation-invariant signatures.
//!
//! Writing the same program with its loops or arrays listed in a different
//! order changes nothing about its communication behaviour: every analysis in
//! `projtile-core` is equivariant under those permutations. A long-lived
//! analysis session (the `projtile_core::engine` introduced with this module)
//! therefore wants to recognize permuted-but-equivalent nests and route them
//! to one shared cache entry.
//!
//! [`canonicalize`] computes the canonical representative of a nest's
//! permutation class: loops sorted by name (names are unique by validation),
//! arrays sorted by name, and every support bitmask rewritten through the
//! loop permutation. Two nests have the same [`NestSignature`] **iff** one is
//! a loop/array reordering of the other (including names and bounds — two
//! programs that differ in any declared detail never collide). The
//! [`CanonicalNest`] remembers both permutations so positions in analysis
//! results can be translated between the original and canonical orderings.

use crate::nest::{ArrayAccess, LoopIndex, LoopNest};
use crate::support::IndexSet;

/// A hashable, permutation-invariant identity of a loop nest: the canonical
/// representative of its loop/array-reordering class.
///
/// Use as a cache key: `signature(a) == signature(b)` iff `b` can be obtained
/// from `a` by reordering its loop indices and/or its array declarations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NestSignature(LoopNest);

/// A nest together with its canonical form and the permutations relating the
/// two orderings. Produced by [`canonicalize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalNest {
    nest: LoopNest,
    loop_to_canon: Vec<usize>,
    array_to_canon: Vec<usize>,
}

impl CanonicalNest {
    /// The canonical nest (loops and arrays in canonical order).
    pub fn nest(&self) -> &LoopNest {
        &self.nest
    }

    /// The signature (cache key) of the original nest's permutation class.
    pub fn signature(&self) -> NestSignature {
        NestSignature(self.nest.clone())
    }

    /// Maps an original loop position to its canonical position.
    pub fn loop_to_canon(&self, original: usize) -> usize {
        self.loop_to_canon[original]
    }

    /// Maps a canonical loop position back to the original position.
    pub fn canon_to_loop(&self, canonical: usize) -> usize {
        self.loop_to_canon
            .iter()
            .position(|&c| c == canonical)
            .expect("canonical position in range")
    }

    /// Maps an original array position to its canonical position.
    pub fn array_to_canon(&self, original: usize) -> usize {
        self.array_to_canon[original]
    }

    /// Rewrites a set of original loop positions into canonical positions.
    pub fn loop_set_to_canon(&self, set: IndexSet) -> IndexSet {
        IndexSet::from_indices(set.iter().map(|i| self.loop_to_canon[i]))
    }

    /// Rewrites a set of canonical loop positions into original positions.
    pub fn loop_set_from_canon(&self, set: IndexSet) -> IndexSet {
        let inverse: Vec<usize> = invert(&self.loop_to_canon);
        IndexSet::from_indices(set.iter().map(|i| inverse[i]))
    }

    /// `true` iff the nest already is its own canonical form (both
    /// permutations are the identity).
    pub fn is_identity(&self) -> bool {
        is_identity(&self.loop_to_canon) && is_identity(&self.array_to_canon)
    }

    /// The loop permutation as a slice (`original position → canonical
    /// position`).
    pub fn loop_permutation(&self) -> &[usize] {
        &self.loop_to_canon
    }

    /// The array permutation as a slice (`original position → canonical
    /// position`).
    pub fn array_permutation(&self) -> &[usize] {
        &self.array_to_canon
    }
}

fn is_identity(perm: &[usize]) -> bool {
    perm.iter().enumerate().all(|(i, &p)| i == p)
}

fn invert(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

/// Computes the canonical form of `nest`: loops sorted by name, arrays sorted
/// by name, supports rewritten through the loop permutation. See the module
/// docs for the equivalence this induces.
// lint: allow(L008) expect: the sort emits a valid permutation of the nest's own axes
pub fn canonicalize(nest: &LoopNest) -> CanonicalNest {
    let d = nest.num_loops();
    let n = nest.num_arrays();

    // canon position -> original position, sorted by the canonical key.
    let mut loop_order: Vec<usize> = (0..d).collect();
    loop_order.sort_by(|&a, &b| nest.indices()[a].name.cmp(&nest.indices()[b].name));
    let loop_to_canon = invert(&loop_order);

    let mut array_order: Vec<usize> = (0..n).collect();
    array_order.sort_by(|&a, &b| nest.arrays()[a].name.cmp(&nest.arrays()[b].name));
    let array_to_canon = invert(&array_order);

    let indices: Vec<LoopIndex> = loop_order
        .iter()
        .map(|&orig| nest.indices()[orig].clone())
        .collect();
    let arrays: Vec<ArrayAccess> = array_order
        .iter()
        .map(|&orig| {
            let a = &nest.arrays()[orig];
            ArrayAccess::new(
                a.name.clone(),
                a.support.iter().map(|pos| loop_to_canon[pos]),
            )
        })
        .collect();
    let canon = LoopNest::new(indices, arrays).expect("permuting a valid nest preserves validity");
    CanonicalNest {
        nest: canon,
        loop_to_canon,
        array_to_canon,
    }
}

/// Builds the nest obtained by reordering `nest`'s loops and arrays:
/// `loop_perm[new_position] = original_position` (and likewise
/// `array_perm`). Supports are rewritten accordingly, so the result denotes
/// the same program. Useful for tests of permutation invariance.
///
/// # Panics
/// Panics if either argument is not a permutation of the right length.
pub fn permute_nest(nest: &LoopNest, loop_perm: &[usize], array_perm: &[usize]) -> LoopNest {
    let d = nest.num_loops();
    let n = nest.num_arrays();
    assert_eq!(loop_perm.len(), d, "loop permutation length mismatch");
    assert_eq!(array_perm.len(), n, "array permutation length mismatch");
    let mut seen = vec![false; d];
    for &p in loop_perm {
        assert!(p < d && !seen[p], "not a loop permutation");
        seen[p] = true;
    }
    let mut seen = vec![false; n];
    for &p in array_perm {
        assert!(p < n && !seen[p], "not an array permutation");
        seen[p] = true;
    }
    // old position -> new position, to rewrite the supports.
    let old_to_new = invert(loop_perm);
    let indices: Vec<LoopIndex> = loop_perm
        .iter()
        .map(|&orig| nest.indices()[orig].clone())
        .collect();
    let arrays: Vec<ArrayAccess> = array_perm
        .iter()
        .map(|&orig| {
            let a = &nest.arrays()[orig];
            ArrayAccess::new(a.name.clone(), a.support.iter().map(|pos| old_to_new[pos]))
        })
        .collect();
    LoopNest::new(indices, arrays).expect("permuting a valid nest preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn canonical_form_is_fixed_by_canonicalization() {
        let nest = builders::matmul(8, 16, 32);
        let canon = canonicalize(&nest);
        let again = canonicalize(canon.nest());
        assert!(again.is_identity());
        assert_eq!(again.nest(), canon.nest());
    }

    #[test]
    fn loop_and_array_order_do_not_change_the_signature() {
        let nest = builders::matmul(8, 16, 32);
        let sig = canonicalize(&nest).signature();
        // Reverse the loops and rotate the arrays.
        let permuted = permute_nest(&nest, &[2, 1, 0], &[1, 2, 0]);
        assert_ne!(&permuted, &nest);
        assert_eq!(canonicalize(&permuted).signature(), sig);
        // The permuted nest denotes the same program: same sizes per name.
        for a in nest.arrays() {
            let j = permuted.array_position(&a.name).unwrap();
            let i = nest.array_position(&a.name).unwrap();
            assert_eq!(permuted.array_size(j), nest.array_size(i));
        }
    }

    #[test]
    fn different_bounds_or_supports_change_the_signature() {
        let base = canonicalize(&builders::matmul(8, 16, 32)).signature();
        assert_ne!(canonicalize(&builders::matmul(8, 16, 64)).signature(), base);
        assert_ne!(canonicalize(&builders::matvec(8, 16)).signature(), base);
        assert_ne!(canonicalize(&builders::nbody(8, 16)).signature(), base);
    }

    #[test]
    fn position_translation_round_trips() {
        let nest = builders::pointwise_conv(2, 3, 4, 5, 6);
        let permuted = permute_nest(&nest, &[4, 2, 0, 1, 3], &[2, 0, 1]);
        let canon = canonicalize(&permuted);
        for i in 0..permuted.num_loops() {
            assert_eq!(canon.canon_to_loop(canon.loop_to_canon(i)), i);
            // Positions translate by name: the canonical index at the mapped
            // position carries the same name and bound.
            let c = canon.loop_to_canon(i);
            assert_eq!(canon.nest().indices()[c], permuted.indices()[i]);
        }
        for j in 0..permuted.num_arrays() {
            let c = canon.array_to_canon(j);
            assert_eq!(canon.nest().arrays()[c].name, permuted.arrays()[j].name);
        }
        let set = IndexSet::from_indices([0, 3]);
        assert_eq!(canon.loop_set_from_canon(canon.loop_set_to_canon(set)), set);
    }

    #[test]
    fn permute_nest_rejects_non_permutations() {
        let nest = builders::matmul(4, 4, 4);
        assert!(std::panic::catch_unwind(|| permute_nest(&nest, &[0, 0, 1], &[0, 1, 2])).is_err());
        assert!(std::panic::catch_unwind(|| permute_nest(&nest, &[0, 1], &[0, 1, 2])).is_err());
        assert!(std::panic::catch_unwind(|| permute_nest(&nest, &[0, 1, 2], &[0, 1, 3])).is_err());
    }
}
