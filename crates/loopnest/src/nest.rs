//! The projective loop-nest IR.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::support::IndexSet;

/// A loop index `x_i` together with its bound `L_i` (the loop runs over
/// `1..=L_i`, i.e. the bound is the trip count).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LoopIndex {
    /// Human-readable name (e.g. `"i"`, `"k"`, `"c"`).
    pub name: String,
    /// Trip count `L_i >= 1`.
    pub bound: u64,
}

impl LoopIndex {
    /// Creates a loop index.
    pub fn new(name: impl Into<String>, bound: u64) -> LoopIndex {
        LoopIndex {
            name: name.into(),
            bound,
        }
    }
}

/// An array `A_j` accessed through the projection `φ_j`, identified by the set
/// of loop indices in its support.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArrayAccess {
    /// Human-readable name (e.g. `"A"`, `"Out"`, `"Filter"`).
    pub name: String,
    /// The support `supp(φ_j)`: positions of the loop indices that appear in
    /// the array's subscript.
    pub support: IndexSet,
}

impl ArrayAccess {
    /// Creates an array access from its support positions.
    pub fn new<I: IntoIterator<Item = usize>>(name: impl Into<String>, support: I) -> ArrayAccess {
        ArrayAccess {
            name: name.into(),
            support: IndexSet::from_indices(support),
        }
    }
}

/// Why a loop-nest description was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The nest has no loop indices.
    NoIndices,
    /// The nest has no arrays.
    NoArrays,
    /// More than 64 loop indices.
    TooManyIndices(usize),
    /// A loop bound is zero.
    ZeroBound(String),
    /// An array's support references an index position `>= d`.
    SupportOutOfRange {
        /// Offending array name.
        array: String,
        /// Offending index position.
        position: usize,
    },
    /// A loop index appears in no array's support, violating the paper's §2
    /// assumption (such an index can be dropped without loss of generality).
    UnusedIndex(String),
    /// Two loop indices share a name.
    DuplicateIndexName(String),
    /// Two arrays share a name.
    DuplicateArrayName(String),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NoIndices => write!(f, "loop nest has no loop indices"),
            ValidationError::NoArrays => write!(f, "loop nest has no arrays"),
            ValidationError::TooManyIndices(d) => {
                write!(f, "loop nest has {d} indices; at most 64 are supported")
            }
            ValidationError::ZeroBound(name) => {
                write!(f, "loop index `{name}` has a zero bound")
            }
            ValidationError::SupportOutOfRange { array, position } => write!(
                f,
                "array `{array}` references loop position {position}, which does not exist"
            ),
            ValidationError::UnusedIndex(name) => write!(
                f,
                "loop index `{name}` appears in no array's support (drop it before analysis)"
            ),
            ValidationError::DuplicateIndexName(name) => {
                write!(f, "duplicate loop index name `{name}`")
            }
            ValidationError::DuplicateArrayName(name) => {
                write!(f, "duplicate array name `{name}`")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// A validated projective nested-loop program.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct LoopNest {
    indices: Vec<LoopIndex>,
    arrays: Vec<ArrayAccess>,
}

/// Deserialization routes through [`LoopNest::new`], so the type's
/// invariants hold for *every* value a program can observe — a hostile or
/// corrupt document (a tampered snapshot, a malformed service request) that
/// encodes a zero bound, an out-of-range array support, a duplicate name, or
/// more than 64 indices is rejected with the corresponding
/// [`ValidationError`] message instead of producing an invalid nest that
/// panics deep inside the analyses.
impl serde::Deserialize for LoopNest {
    fn deserialize(v: &serde::Value) -> Result<LoopNest, serde::Error> {
        NestFields::deserialize(v).and_then(NestFields::validate)
    }
    fn read_json(r: &mut serde::json::Reader<'_>) -> Result<LoopNest, serde::Error> {
        NestFields::read_json(r).and_then(NestFields::validate)
    }
}

/// A [`LoopNest`] document's fields before validation.
#[derive(Deserialize)]
struct NestFields {
    indices: Vec<LoopIndex>,
    arrays: Vec<ArrayAccess>,
}

impl NestFields {
    fn validate(self) -> Result<LoopNest, serde::Error> {
        LoopNest::new(self.indices, self.arrays)
            .map_err(|e| serde::Error::custom(format!("invalid loop nest: {e}")))
    }
}

impl LoopNest {
    /// Builds and validates a loop nest.
    // lint: allow(L008) expect fires only after this constructor's own shape validation passed
    pub fn new(
        indices: Vec<LoopIndex>,
        arrays: Vec<ArrayAccess>,
    ) -> Result<LoopNest, ValidationError> {
        if indices.is_empty() {
            return Err(ValidationError::NoIndices);
        }
        if arrays.is_empty() {
            return Err(ValidationError::NoArrays);
        }
        if indices.len() > IndexSet::MAX_INDICES {
            return Err(ValidationError::TooManyIndices(indices.len()));
        }
        for idx in &indices {
            if idx.bound == 0 {
                return Err(ValidationError::ZeroBound(idx.name.clone()));
            }
        }
        for i in 0..indices.len() {
            for j in (i + 1)..indices.len() {
                if indices[i].name == indices[j].name {
                    return Err(ValidationError::DuplicateIndexName(indices[i].name.clone()));
                }
            }
        }
        for i in 0..arrays.len() {
            for j in (i + 1)..arrays.len() {
                if arrays[i].name == arrays[j].name {
                    return Err(ValidationError::DuplicateArrayName(arrays[i].name.clone()));
                }
            }
        }
        let d = indices.len();
        let full = IndexSet::full(d);
        for a in &arrays {
            if !a.support.is_subset_of(full) {
                let position = a.support.iter().find(|&p| p >= d).unwrap_or(d);
                return Err(ValidationError::SupportOutOfRange {
                    array: a.name.clone(),
                    position,
                });
            }
        }
        let covered = arrays
            .iter()
            .fold(IndexSet::empty(), |acc, a| acc.union(a.support));
        if covered != full {
            let missing = full
                .difference(covered)
                .iter()
                .next()
                .expect("missing index exists");
            return Err(ValidationError::UnusedIndex(indices[missing].name.clone()));
        }
        Ok(LoopNest { indices, arrays })
    }

    /// Starts a fluent builder.
    pub fn builder() -> LoopNestBuilder {
        LoopNestBuilder::default()
    }

    /// Number of loop indices `d`.
    pub fn num_loops(&self) -> usize {
        self.indices.len()
    }

    /// Number of arrays `n`.
    pub fn num_arrays(&self) -> usize {
        self.arrays.len()
    }

    /// The loop indices, in nesting order.
    pub fn indices(&self) -> &[LoopIndex] {
        &self.indices
    }

    /// The arrays, in declaration order.
    pub fn arrays(&self) -> &[ArrayAccess] {
        &self.arrays
    }

    /// Loop bounds `L_1, ..., L_d` as a vector.
    pub fn bounds(&self) -> Vec<u64> {
        self.indices.iter().map(|i| i.bound).collect()
    }

    /// The support of array `j`.
    pub fn support(&self, j: usize) -> IndexSet {
        self.arrays[j].support
    }

    /// `R_i`: the set of arrays whose support contains loop index `i`,
    /// returned as a bitmask over array positions.
    pub fn arrays_containing(&self, i: usize) -> IndexSet {
        IndexSet::from_indices(
            self.arrays
                .iter()
                .enumerate()
                .filter(|(_, a)| a.support.contains(i))
                .map(|(j, _)| j),
        )
    }

    /// Total number of iteration points `∏ L_i`.
    pub fn iteration_space_size(&self) -> u128 {
        self.indices.iter().map(|i| i.bound as u128).product()
    }

    /// Number of elements of array `j`: `∏_{i ∈ supp(φ_j)} L_i`.
    pub fn array_size(&self, j: usize) -> u128 {
        self.arrays[j]
            .support
            .iter()
            .map(|i| self.indices[i].bound as u128)
            .product()
    }

    /// Sum of all array sizes (the total data footprint of the program).
    pub fn total_data_size(&self) -> u128 {
        (0..self.num_arrays()).map(|j| self.array_size(j)).sum()
    }

    /// The size of the subset of array `j` touched by a rectangular tile with
    /// edge lengths `tile[0..d]` (clamped to the loop bounds).
    pub fn array_footprint(&self, j: usize, tile: &[u64]) -> u128 {
        assert_eq!(tile.len(), self.num_loops(), "tile dimension mismatch");
        self.arrays[j]
            .support
            .iter()
            .map(|i| tile[i].min(self.indices[i].bound).max(1) as u128)
            .product()
    }

    /// Total per-tile memory footprint: the sum over arrays of
    /// [`LoopNest::array_footprint`]. A tile is executable without spilling iff
    /// this is at most the cache size `M` (up to the constant factors the
    /// paper ignores).
    pub fn tile_footprint(&self, tile: &[u64]) -> u128 {
        (0..self.num_arrays())
            .map(|j| self.array_footprint(j, tile))
            .sum()
    }

    /// Looks up a loop index position by name.
    pub fn index_position(&self, name: &str) -> Option<usize> {
        self.indices.iter().position(|i| i.name == name)
    }

    /// Looks up an array position by name.
    pub fn array_position(&self, name: &str) -> Option<usize> {
        self.arrays.iter().position(|a| a.name == name)
    }

    /// Returns a copy of the nest with different loop bounds (same structure).
    ///
    /// # Panics
    /// Panics if `bounds.len() != d` or any bound is zero.
    // lint: allow(L008) asserts pin the documented bounds.len() == num_loops precondition
    pub fn with_bounds(&self, bounds: &[u64]) -> LoopNest {
        assert_eq!(bounds.len(), self.num_loops(), "bound count mismatch");
        assert!(bounds.iter().all(|&b| b > 0), "bounds must be positive");
        let indices = self
            .indices
            .iter()
            .zip(bounds)
            .map(|(i, &b)| LoopIndex::new(i.name.clone(), b))
            .collect();
        LoopNest {
            indices,
            arrays: self.arrays.clone(),
        }
    }
}

impl fmt::Display for LoopNest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "for ")?;
        for (k, idx) in self.indices.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} in [{}]", idx.name, idx.bound)?;
        }
        write!(f, ": ")?;
        for (k, a) in self.arrays.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", a.name)?;
            for (m, i) in a.support.iter().enumerate() {
                if m > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", self.indices[i].name)?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Fluent builder for [`LoopNest`].
#[derive(Debug, Default, Clone)]
pub struct LoopNestBuilder {
    indices: Vec<LoopIndex>,
    arrays: Vec<(String, Vec<String>)>,
}

impl LoopNestBuilder {
    /// Declares a loop index with the given trip count.
    pub fn index(mut self, name: impl Into<String>, bound: u64) -> Self {
        self.indices.push(LoopIndex::new(name, bound));
        self
    }

    /// Declares an array accessed through the named loop indices.
    pub fn array<S: Into<String>, I: IntoIterator<Item = S>>(
        mut self,
        name: impl Into<String>,
        support: I,
    ) -> Self {
        self.arrays
            .push((name.into(), support.into_iter().map(Into::into).collect()));
        self
    }

    /// Validates and builds the loop nest.
    pub fn build(self) -> Result<LoopNest, ValidationError> {
        let mut arrays = Vec::with_capacity(self.arrays.len());
        for (name, support_names) in self.arrays {
            let mut support = IndexSet::empty();
            for sname in support_names {
                match self.indices.iter().position(|i| i.name == sname) {
                    Some(pos) => support.insert(pos),
                    None => {
                        return Err(ValidationError::SupportOutOfRange {
                            array: name,
                            position: usize::MAX,
                        })
                    }
                }
            }
            arrays.push(ArrayAccess { name, support });
        }
        LoopNest::new(self.indices, arrays)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul() -> LoopNest {
        LoopNest::builder()
            .index("i", 8)
            .index("j", 16)
            .index("k", 32)
            .array("C", ["i", "k"])
            .array("A", ["i", "j"])
            .array("B", ["j", "k"])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_expected_structure() {
        let nest = matmul();
        assert_eq!(nest.num_loops(), 3);
        assert_eq!(nest.num_arrays(), 3);
        assert_eq!(nest.bounds(), vec![8, 16, 32]);
        assert_eq!(nest.support(0), IndexSet::from_indices([0, 2]));
        assert_eq!(nest.support(1), IndexSet::from_indices([0, 1]));
        assert_eq!(nest.support(2), IndexSet::from_indices([1, 2]));
        assert_eq!(nest.index_position("k"), Some(2));
        assert_eq!(nest.array_position("B"), Some(2));
        assert_eq!(nest.index_position("zz"), None);
    }

    #[test]
    fn arrays_containing_matches_paper_r_sets() {
        let nest = matmul();
        // R_i for i = index position: arrays containing that loop index.
        assert_eq!(nest.arrays_containing(0), IndexSet::from_indices([0, 1])); // C, A contain i
        assert_eq!(nest.arrays_containing(1), IndexSet::from_indices([1, 2])); // A, B contain j
        assert_eq!(nest.arrays_containing(2), IndexSet::from_indices([0, 2])); // C, B contain k
    }

    #[test]
    fn sizes_and_footprints() {
        let nest = matmul();
        assert_eq!(nest.iteration_space_size(), 8 * 16 * 32);
        assert_eq!(nest.array_size(0), 8 * 32);
        assert_eq!(nest.array_size(1), 8 * 16);
        assert_eq!(nest.array_size(2), 16 * 32);
        assert_eq!(nest.total_data_size(), 8 * 32 + 8 * 16 + 16 * 32);
        // A 4x4x4 tile touches 16 elements of each array.
        assert_eq!(nest.tile_footprint(&[4, 4, 4]), 48);
        // Tiles are clamped to the bounds.
        assert_eq!(nest.array_footprint(0, &[100, 100, 100]), 8 * 32);
        // Zero-sized tile edges are clamped up to 1.
        assert_eq!(nest.array_footprint(0, &[0, 1, 1]), 1);
    }

    #[test]
    fn validation_rejects_bad_nests() {
        assert_eq!(
            LoopNest::new(vec![], vec![]),
            Err(ValidationError::NoIndices)
        );
        assert_eq!(
            LoopNest::new(vec![LoopIndex::new("i", 4)], vec![]),
            Err(ValidationError::NoArrays)
        );
        assert_eq!(
            LoopNest::new(
                vec![LoopIndex::new("i", 0)],
                vec![ArrayAccess::new("A", [0])]
            ),
            Err(ValidationError::ZeroBound("i".into()))
        );
        assert_eq!(
            LoopNest::new(
                vec![LoopIndex::new("i", 2)],
                vec![ArrayAccess::new("A", [1])]
            ),
            Err(ValidationError::SupportOutOfRange {
                array: "A".into(),
                position: 1
            })
        );
        assert_eq!(
            LoopNest::new(
                vec![LoopIndex::new("i", 2), LoopIndex::new("j", 2)],
                vec![ArrayAccess::new("A", [0])]
            ),
            Err(ValidationError::UnusedIndex("j".into()))
        );
        assert_eq!(
            LoopNest::new(
                vec![LoopIndex::new("i", 2), LoopIndex::new("i", 3)],
                vec![ArrayAccess::new("A", [0, 1])]
            ),
            Err(ValidationError::DuplicateIndexName("i".into()))
        );
        assert_eq!(
            LoopNest::new(
                vec![LoopIndex::new("i", 2)],
                vec![ArrayAccess::new("A", [0]), ArrayAccess::new("A", [0])]
            ),
            Err(ValidationError::DuplicateArrayName("A".into()))
        );
    }

    #[test]
    fn builder_rejects_unknown_support_name() {
        let err = LoopNest::builder()
            .index("i", 2)
            .array("A", ["q"])
            .build()
            .unwrap_err();
        assert!(matches!(err, ValidationError::SupportOutOfRange { .. }));
    }

    #[test]
    fn with_bounds_changes_only_bounds() {
        let nest = matmul();
        let resized = nest.with_bounds(&[2, 3, 4]);
        assert_eq!(resized.bounds(), vec![2, 3, 4]);
        assert_eq!(resized.support(1), nest.support(1));
        assert_eq!(resized.iteration_space_size(), 24);
    }

    #[test]
    fn display_is_readable() {
        let s = matmul().to_string();
        assert!(s.contains("for i in [8]"));
        assert!(s.contains("C(i,k)"));
        assert!(s.contains("B(j,k)"));
    }

    #[test]
    fn deserialize_roundtrips_valid_nest() {
        let nest = matmul();
        let json = serde::json::to_string(&nest.serialize());
        let value = serde::json::parse(&json).unwrap();
        let back = LoopNest::deserialize(&value).unwrap();
        assert_eq!(back, nest);
    }

    #[test]
    fn deserialize_rejects_invalid_nests() {
        // Each document is structurally well-formed JSON in the derived wire
        // shape, but violates a `LoopNest::new` invariant; deserialization
        // must surface the validation error rather than admit the value.
        let hostile = [
            // zero loop bound
            (
                r#"{"indices":[{"name":"i","bound":0}],
                    "arrays":[{"name":"A","support":1}]}"#,
                "bound",
            ),
            // support bit beyond the number of indices
            (
                r#"{"indices":[{"name":"i","bound":4}],
                    "arrays":[{"name":"A","support":3}]}"#,
                "position",
            ),
            // index unused by every array
            (
                r#"{"indices":[{"name":"i","bound":4},{"name":"j","bound":4}],
                    "arrays":[{"name":"A","support":1}]}"#,
                "appears in no array",
            ),
            // duplicate index names
            (
                r#"{"indices":[{"name":"i","bound":4},{"name":"i","bound":4}],
                    "arrays":[{"name":"A","support":3}]}"#,
                "duplicate",
            ),
            // no indices at all
            (
                r#"{"indices":[],"arrays":[{"name":"A","support":0}]}"#,
                "no",
            ),
            // no arrays at all
            (r#"{"indices":[{"name":"i","bound":4}],"arrays":[]}"#, "no"),
        ];
        for (doc, needle) in hostile {
            let value = serde::json::parse(doc).unwrap();
            let err = LoopNest::deserialize(&value).expect_err("hostile nest must not deserialize");
            let msg = err.to_string().to_lowercase();
            assert!(
                msg.contains("invalid loop nest") && msg.contains(needle),
                "unexpected error for {doc}: {msg}"
            );
        }
    }

    #[test]
    fn deserialize_rejects_too_many_indices() {
        let indices: Vec<String> = (0..70)
            .map(|i| format!(r#"{{"name":"i{i}","bound":2}}"#))
            .collect();
        let doc = format!(
            r#"{{"indices":[{}],"arrays":[{{"name":"A","support":1}}]}}"#,
            indices.join(",")
        );
        let value = serde::json::parse(&doc).unwrap();
        let err =
            LoopNest::deserialize(&value).expect_err("70 indices exceed the bitmask capacity");
        assert!(err.to_string().contains("invalid loop nest"));
    }

    #[test]
    fn validation_error_messages() {
        for err in [
            ValidationError::NoIndices,
            ValidationError::NoArrays,
            ValidationError::TooManyIndices(70),
            ValidationError::ZeroBound("i".into()),
            ValidationError::SupportOutOfRange {
                array: "A".into(),
                position: 3,
            },
            ValidationError::UnusedIndex("j".into()),
            ValidationError::DuplicateIndexName("i".into()),
            ValidationError::DuplicateArrayName("A".into()),
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
