//! Session persistence: serializing an [`Engine`]'s result caches through
//! the workspace serde layer so a service warm-starts from disk.
//!
//! # Format
//!
//! A snapshot is a single JSON object:
//!
//! ```json
//! {
//!   "version": 1,
//!   "entries":  [ {"canonical": <LoopNest>, "orientations": [{"loops": [..], "arrays": [..]}]} ],
//!   "betas":    [],
//!   "results":  [ {"entry": 0, "orientation": 0, "m": 256, "kind": "bound", "value": {..}} ],
//!   "slices":   [ {"entry": 0, "m": 256, "axis": 2, "kind": "span", "lo": 1, "hi": 256, "value": {..}} ],
//!   "surfaces": [ {"entry": 0, "orientation": 0, "m": 256, "surface": {..}} ]
//! }
//! ```
//!
//! Artifact lists are ordered least- to most-recently-used, and restore
//! re-inserts in that order, so the restored session's eviction behaviour
//! matches the snapshotted one. Only *results* are persisted — the pooled
//! simplex contexts start cold, and surface summaries are recomputed from
//! their surfaces.
//!
//! `betas` is always written empty and ignored on restore: sessions no
//! longer cache `β` vectors (they are recomputed inline), but the field
//! stays so documents move freely between this build and older ones that
//! still require it — no [`SNAPSHOT_VERSION`] bump. Result kinds are
//! `bound`, `enumerated` and `tiling`. Older documents also hold `tightness`
//! reports and `certificate` bits; restore skips those entries without
//! parsing their payloads (a tightness answer is composed from its
//! components, never read back), again with no version bump.
//!
//! # Versioning caveats
//!
//! `version` is checked on restore and unknown versions are rejected
//! ([`EngineError::Snapshot`]) rather than guessed at. The payload encodings
//! ride on the workspace serde derives, so a type-shape change in a result
//! type is a *format* change: bump [`SNAPSHOT_VERSION`] when one happens.
//! Corrupt or hostile documents are rejected with errors — the JSON parser
//! depth cap bounds recursion, every index is bounds-checked, permutations
//! are validated before use, and artifact payloads are shape-checked
//! against their nest (certificate vector lengths, witness-subset ranges,
//! slice sortedness and probe coverage, surface coordinate dimensions, and
//! cache sizes no valid session can produce) so a restored cache can never
//! panic a worker that consumes it (pinned by `tests/snapshot_hostile.rs`).

use serde::{json, Deserialize, Serialize, Value};

use projtile_arith::Rational;
use projtile_loopnest::{canonicalize, LoopNest};
use projtile_lp::parametric::ValueFunction;

use super::cache::{
    cost, CachedResult, NestEntry, Orientation, PointSlice, ResultKey, ResultKind, SliceEntry,
    SliceKey, SliceKind, StoredSurface, SurfaceKey,
};
use super::{summarize_surface, Caches, Engine, EngineConfig, EngineError};
use crate::parametric::ExponentSurface;

/// Current snapshot format version; restore rejects any other value.
pub const SNAPSHOT_VERSION: i64 = 1;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn snap_err(context: &str, e: serde::Error) -> EngineError {
    EngineError::Snapshot(format!("{context}: {e}"))
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, EngineError> {
    v.field(name).map_err(|e| snap_err("snapshot", e))
}

fn de<T: Deserialize>(context: &str, v: &Value) -> Result<T, EngineError> {
    T::deserialize(v).map_err(|e| snap_err(context, e))
}

/// Deserializes an artifact's cache size and rejects values below 2 words —
/// no session can produce them ([`super::Engine::validate_query`] refuses
/// such queries), and downstream consumers (`log::beta`) assert `m >= 2`.
fn artifact_m(v: &Value, context: &str) -> Result<u64, EngineError> {
    let m: u64 = de(context, v)?;
    if m < 2 {
        return Err(EngineError::Snapshot(format!(
            "{context} must be at least 2 words, got {m}"
        )));
    }
    Ok(m)
}

fn as_array<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], EngineError> {
    match v {
        Value::Array(items) => Ok(items),
        other => Err(EngineError::Snapshot(format!(
            "expected an array for {what}, found {}",
            other.kind()
        ))),
    }
}

fn is_permutation(perm: &[usize], len: usize) -> bool {
    if perm.len() != len {
        return false;
    }
    let mut seen = vec![false; len];
    for &p in perm {
        match seen.get_mut(p) {
            None => return false,
            Some(slot) if *slot => return false,
            Some(slot) => *slot = true,
        }
    }
    true
}

fn kind_tag(kind: ResultKind) -> &'static str {
    match kind {
        ResultKind::Bound => "bound",
        ResultKind::Enumerated => "enumerated",
        ResultKind::Tiling => "tiling",
    }
}

impl Caches {
    /// The snapshot document of these caches ([`Engine::snapshot`]): a pure
    /// read, with each list ordered by effective access time, peeks
    /// included.
    fn snapshot(&self) -> Value {
        let entries = self.entries.iter().map(|entry| {
            obj(vec![
                ("canonical", entry.canonical.serialize()),
                (
                    "orientations",
                    Value::Array(
                        entry
                            .orientations
                            .iter()
                            .map(|o| {
                                obj(vec![
                                    ("loops", o.loop_perm.serialize()),
                                    ("arrays", o.array_perm.serialize()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        });
        let results = self.results.iter_lru_to_mru().map(|(k, r)| {
            let payload = match r {
                CachedResult::Bound(lb) => lb.serialize(),
                CachedResult::Enumerated(en) => en.serialize(),
                CachedResult::Tiling(t) => t.serialize(),
            };
            obj(vec![
                ("entry", k.entry.serialize()),
                ("orientation", k.orientation.serialize()),
                ("m", k.m.serialize()),
                ("kind", Value::String(kind_tag(k.kind).to_string())),
                ("value", payload),
            ])
        });
        let slices = self.slices.iter_lru_to_mru().filter_map(|(k, s)| {
            let mut fields = vec![
                ("entry", k.entry.serialize()),
                ("m", k.m.serialize()),
                ("axis", k.canon_axis.serialize()),
            ];
            match (k.kind, s) {
                (SliceKind::Span { lo_bound, hi_bound }, SliceEntry::Span(vf)) => {
                    fields.push(("kind", Value::String("span".into())));
                    fields.push(("lo", lo_bound.serialize()));
                    fields.push(("hi", hi_bound.serialize()));
                    fields.push(("value", vf.serialize()));
                }
                (SliceKind::Probe, SliceEntry::Probe(ps)) => {
                    fields.push(("kind", Value::String("probe".into())));
                    fields.push(("hi", ps.hi_bound.serialize()));
                    fields.push(("value", ps.vf.serialize()));
                }
                // A key/entry variant mismatch cannot be built by the
                // insertion paths; dropping the cache entry from the
                // snapshot (it is only a memo) beats unwinding mid-write.
                _ => return None,
            }
            Some(obj(fields))
        });
        let surfaces = self.surfaces.iter_lru_to_mru().map(|(k, s)| {
            obj(vec![
                ("entry", k.entry.serialize()),
                ("orientation", k.orientation.serialize()),
                ("m", k.m.serialize()),
                ("lo", k.lo_bounds.serialize()),
                ("hi", k.hi_bounds.serialize()),
                ("surface", s.surface.serialize()),
            ])
        });
        obj(vec![
            ("version", Value::Int(SNAPSHOT_VERSION as i128)),
            ("entries", Value::Array(entries.collect())),
            ("betas", Value::Array(Vec::new())),
            ("results", Value::Array(results.collect())),
            ("slices", Value::Array(slices.collect())),
            ("surfaces", Value::Array(surfaces.collect())),
        ])
    }
}

impl Engine {
    /// Serializes the session's result caches as a [`Value`] tree — one
    /// versioned JSON object holding the interned nests, typed results,
    /// slices, and surfaces, each list in least- to most-recently-used order
    /// (see `engine/snapshot.rs` for the full format and its versioning
    /// caveats, mirrored in ARCHITECTURE.md). Holds only the read lock, so
    /// hits proceed beside it; installs wait for it. Printing the tree as
    /// text, as [`Engine::snapshot_json`] does, happens after the lock is
    /// released.
    pub fn snapshot(&self) -> Value {
        Caches::snapshot(&self.caches.read())
    }

    /// [`Engine::snapshot`] printed as compact JSON.
    pub fn snapshot_json(&self) -> String {
        json::to_string(&self.snapshot())
    }

    /// Restores a session from a snapshot [`Value`], with default cache
    /// budgets. The restored session answers every persisted query from
    /// cache, bitwise-identically to the session that produced the snapshot.
    pub fn restore(value: &Value) -> Result<Engine, EngineError> {
        Engine::restore_with_config(value, EngineConfig::default())
    }

    /// [`Engine::restore`] with explicit cache budgets (restoring into
    /// smaller budgets evicts least recently used artifacts immediately).
    pub fn restore_with_config(value: &Value, config: EngineConfig) -> Result<Engine, EngineError> {
        let version: i64 = de("snapshot version", field(value, "version")?)?;
        if version != SNAPSHOT_VERSION {
            return Err(EngineError::Snapshot(format!(
                "unsupported snapshot version {version} (this build reads version {SNAPSHOT_VERSION})"
            )));
        }
        let mut caches = Caches::new(config);

        // Interned nests and their orientations.
        for ev in as_array(field(value, "entries")?, "entries")? {
            let canonical: LoopNest = de("snapshot entry nest", field(ev, "canonical")?)?;
            let canon = canonicalize(&canonical);
            if !canon.is_identity() {
                return Err(EngineError::Snapshot(
                    "snapshot entry nest is not in canonical form".into(),
                ));
            }
            let sig = canon.signature();
            let d = canonical.num_loops();
            let n = canonical.num_arrays();
            let mut orientations = Vec::new();
            for ov in as_array(field(ev, "orientations")?, "orientations")? {
                let loop_perm: Vec<usize> = de("orientation loops", field(ov, "loops")?)?;
                let array_perm: Vec<usize> = de("orientation arrays", field(ov, "arrays")?)?;
                if !is_permutation(&loop_perm, d) || !is_permutation(&array_perm, n) {
                    return Err(EngineError::Snapshot(
                        "snapshot orientation permutations are invalid".into(),
                    ));
                }
                orientations.push(Orientation {
                    loop_perm,
                    array_perm,
                });
            }
            let e = caches.entries.len();
            caches.entries.push(NestEntry {
                canonical,
                orientations,
            });
            if caches.index.insert(sig, e).is_some() {
                return Err(EngineError::Snapshot(
                    "snapshot contains duplicate canonical entries".into(),
                ));
            }
        }

        // Reads an artifact's entry index and checks it names an entry.
        let entries = caches.entries.len();
        let resolve = |v: &Value| -> Result<usize, EngineError> {
            let e: usize = de("artifact entry index", v)?;
            if e >= entries {
                return Err(EngineError::Snapshot(format!(
                    "artifact references entry {e}, but the snapshot has {entries} entries"
                )));
            }
            Ok(e)
        };

        for rv in as_array(field(value, "results")?, "results")? {
            let e = resolve(field(rv, "entry")?)?;
            let o: usize = de("result orientation", field(rv, "orientation")?)?;
            if o >= caches.entry(e).orientations.len() {
                return Err(EngineError::Snapshot(
                    "result references an orientation the snapshot does not declare".into(),
                ));
            }
            let m = artifact_m(field(rv, "m")?, "result cache size")?;
            let kind: String = de("result kind", field(rv, "kind")?)?;
            let payload = field(rv, "value")?;
            let (kind, cached) = match kind.as_str() {
                "bound" => (
                    ResultKind::Bound,
                    CachedResult::Bound(de("lower bound", payload)?),
                ),
                "enumerated" => (
                    ResultKind::Enumerated,
                    CachedResult::Enumerated(de("enumerated bound", payload)?),
                ),
                "tiling" => (
                    ResultKind::Tiling,
                    CachedResult::Tiling(de("tiling summary", payload)?),
                ),
                // Written by older builds; composed on every answer now.
                "tightness" | "certificate" => continue,
                other => {
                    return Err(EngineError::Snapshot(format!(
                        "unknown result kind `{other}`"
                    )))
                }
            };
            // Payload shape checks: a hostile document can encode vectors
            // and subsets that do not fit the nest. No session produces
            // them, so the document is refused rather than served.
            let d = caches.entry(e).canonical.num_loops();
            let n = caches.entry(e).canonical.num_arrays();
            let in_range = |s: projtile_loopnest::IndexSet| s.iter().all(|j| j < d);
            match &cached {
                CachedResult::Bound(lb) => {
                    if lb.s_hat.len() != n || lb.zeta.len() != d {
                        return Err(EngineError::Snapshot(
                            "lower-bound certificate vectors do not match the nest".into(),
                        ));
                    }
                    if !in_range(lb.witness_subset) {
                        return Err(EngineError::Snapshot(
                            "lower-bound witness subset references loops the nest does not have"
                                .into(),
                        ));
                    }
                }
                CachedResult::Enumerated(en) => {
                    if !in_range(en.best_subset) || en.per_subset.iter().any(|(q, _)| !in_range(*q))
                    {
                        return Err(EngineError::Snapshot(
                            "enumerated-bound subsets reference loops the nest does not have"
                                .into(),
                        ));
                    }
                }
                CachedResult::Tiling(t) => {
                    if t.lambda.len() != d || t.tile_dims.len() != d {
                        return Err(EngineError::Snapshot(
                            "tiling summary dimensions do not match the nest".into(),
                        ));
                    }
                }
            }
            let key = ResultKey {
                entry: e,
                orientation: o,
                m,
                kind,
            };
            caches.insert_result(key, cached);
        }

        for sv in as_array(field(value, "slices")?, "slices")? {
            let e = resolve(field(sv, "entry")?)?;
            let m = artifact_m(field(sv, "m")?, "slice cache size")?;
            let axis: usize = de("slice axis", field(sv, "axis")?)?;
            if axis >= caches.entry(e).canonical.num_loops() {
                return Err(EngineError::Snapshot(
                    "slice axis out of range for its nest".into(),
                ));
            }
            let kind: String = de("slice kind", field(sv, "kind")?)?;
            let vf: ValueFunction = de("slice value function", field(sv, "value")?)?;
            if vf.breakpoints.is_empty() {
                return Err(EngineError::Snapshot("empty slice value function".into()));
            }
            // `value_at` brackets by scanning windows, which relies on the
            // breakpoints being sorted by θ; an unsorted hostile list would
            // trip its `unreachable!` the first time the slice is evaluated.
            let mut pairs = vf.breakpoints.iter().zip(vf.breakpoints.iter().skip(1));
            if pairs.any(|(a, b)| a.0 > b.0) {
                return Err(EngineError::Snapshot(
                    "slice value function breakpoints are not sorted".into(),
                ));
            }
            let (kind, entry) = match kind.as_str() {
                "span" => {
                    let lo_bound: u64 = de("slice lo", field(sv, "lo")?)?;
                    let hi_bound: u64 = de("slice hi", field(sv, "hi")?)?;
                    if lo_bound < 1 || hi_bound < lo_bound {
                        return Err(EngineError::Snapshot("slice bound range is invalid".into()));
                    }
                    (SliceKind::Span { lo_bound, hi_bound }, SliceEntry::Span(vf))
                }
                "probe" => {
                    let hi_bound: u64 = de("probe hi", field(sv, "hi")?)?;
                    if hi_bound < 1 {
                        return Err(EngineError::Snapshot(
                            "probe bound must be at least 1".into(),
                        ));
                    }
                    // A probe slice answers every bound in `1..=hi_bound` by
                    // evaluating at `θ = log_M bound` — its value function
                    // must actually span that interval, or `value_at` panics
                    // on a covered-looking request.
                    let hi_theta = projtile_arith::log::beta(hi_bound as u128, m as u128);
                    let (Some(first), Some(last)) = (vf.breakpoints.first(), vf.breakpoints.last())
                    else {
                        return Err(EngineError::Snapshot(
                            "empty probe slice value function".into(),
                        ));
                    };
                    let lo_covered = first.0 <= Rational::zero();
                    let hi_covered = last.0 >= hi_theta;
                    if !lo_covered || !hi_covered {
                        return Err(EngineError::Snapshot(
                            "probe slice does not cover its declared bound range".into(),
                        ));
                    }
                    (
                        SliceKind::Probe,
                        SliceEntry::Probe(PointSlice { hi_bound, vf }),
                    )
                }
                other => {
                    return Err(EngineError::Snapshot(format!(
                        "unknown slice kind `{other}`"
                    )))
                }
            };
            let key = SliceKey {
                entry: e,
                m,
                canon_axis: axis,
                kind,
            };
            let c = cost::slice_entry(&entry);
            caches.slices.insert(key, entry, c);
        }

        for sv in as_array(field(value, "surfaces")?, "surfaces")? {
            let e = resolve(field(sv, "entry")?)?;
            let o: usize = de("surface orientation", field(sv, "orientation")?)?;
            if o >= caches.entry(e).orientations.len() {
                return Err(EngineError::Snapshot(
                    "surface references an orientation the snapshot does not declare".into(),
                ));
            }
            let m = artifact_m(field(sv, "m")?, "surface cache size")?;
            let surface: ExponentSurface = de("exponent surface", field(sv, "surface")?)?;
            // Cross-field shape checks the derives cannot express: the
            // summary render below and the axis-permutation remap on cache
            // hits both assert that every coordinate vector matches the
            // axis count.
            if let Err(msg) = surface.validate_shape() {
                return Err(EngineError::Snapshot(format!("exponent surface: {msg}")));
            }
            let axes = surface.axes().to_vec();
            let d = caches.entry(e).canonical.num_loops();
            let sorted = axes.iter().zip(axes.iter().skip(1)).all(|(a, b)| a < b);
            if axes.is_empty() || !sorted || axes.iter().any(|&a| a >= d) {
                return Err(EngineError::Snapshot(
                    "surface axes are not sorted in-range positions".into(),
                ));
            }
            if surface.surface().domain().dim() != axes.len() {
                return Err(EngineError::Snapshot(
                    "surface domain dimension does not match its axes".into(),
                ));
            }
            let lo_bounds: Vec<u64> = de("surface lo bounds", field(sv, "lo")?)?;
            let hi_bounds: Vec<u64> = de("surface hi bounds", field(sv, "hi")?)?;
            if lo_bounds.len() != axes.len()
                || hi_bounds.len() != axes.len()
                || lo_bounds
                    .iter()
                    .zip(&hi_bounds)
                    .any(|(lo, hi)| *lo < 1 || hi < lo)
            {
                return Err(EngineError::Snapshot(
                    "surface bound ranges are invalid".into(),
                ));
            }
            let summary = summarize_surface(&surface, &axes);
            let key = SurfaceKey {
                entry: e,
                orientation: o,
                m,
                axes,
                lo_bounds,
                hi_bounds,
            };
            let stored = StoredSurface { surface, summary };
            let c = cost::surface(&stored);
            caches.surfaces.insert(key, stored, c);
        }

        Ok(Engine::over(caches))
    }

    /// Restores a session from snapshot JSON text.
    pub fn restore_json(text: &str) -> Result<Engine, EngineError> {
        Engine::restore_json_with_config(text, EngineConfig::default())
    }

    /// [`Engine::restore_json`] with explicit cache budgets.
    pub fn restore_json_with_config(
        text: &str,
        config: EngineConfig,
    ) -> Result<Engine, EngineError> {
        let value = json::parse(text).map_err(|e| snap_err("snapshot JSON", e))?;
        Engine::restore_with_config(&value, config)
    }
}
