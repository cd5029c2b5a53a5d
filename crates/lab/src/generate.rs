//! Deterministic seeded query-load generation.
//!
//! A [`Workload`] is a reproducible sequence of `(nest, queries)` batches
//! over a small corpus of the paper's loop nests — the same shapes the
//! benchmark suite exercises — with reference-stream structure chosen by a
//! [`Pattern`]. The generator is a plain xorshift64* stream: the same seed
//! always produces the same workload, on any platform, so recorded traces,
//! replay differentials and service benchmarks are all replayable bit for
//! bit.
//!
//! Workloads drive either an in-process front ([`Workload::drive_shared`])
//! or a live server through the retrying client
//! ([`Workload::drive_client`]); the CI smoke stage uses the latter to
//! record a trace over real HTTP traffic before replaying it.

use projtile_core::engine::{Query, SharedEngine};
use projtile_loopnest::{builders, LoopNest};
use projtile_service::{Client, ClientError};

/// The deterministic xorshift64* stream behind every sampling decision.
#[derive(Debug, Clone)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// A stream seeded by `seed` (0 is mapped to a fixed nonzero seed).
    pub fn new(seed: u64) -> XorShift {
        XorShift {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A draw uniform in `0..n` (`n` clamped to at least 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A zipf-ish rank in `0..n`: rank `r` is drawn proportionally to
    /// `1 / (r + 1)` — a few hot items, a long cold tail.
    pub fn zipf(&mut self, n: usize) -> usize {
        let n = n.max(1);
        let weights: f64 = (0..n).map(|r| 1.0 / (r as f64 + 1.0)).sum();
        let mut target = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * weights;
        for r in 0..n {
            target -= 1.0 / (r as f64 + 1.0);
            if target <= 0.0 {
                return r;
            }
        }
        n - 1
    }
}

/// Reference-stream structure of a generated workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Zipf-ranked nests, kinds and cache sizes: a few hot queries repeat
    /// heavily over a long tail — the shape memo caches are built for.
    Zipf,
    /// 90% of traffic hammers one `(nest, M)` pair; the rest is uniform.
    Hotspot,
    /// Zipf base traffic plus the awkward cases: intra-batch duplicate
    /// literals, permuted-axes surface twins, and occasional invalid
    /// queries (rejected before any cache).
    Mixed,
}

impl Pattern {
    /// Parses a CLI pattern name.
    pub fn parse(name: &str) -> Option<Pattern> {
        match name {
            "zipf" => Some(Pattern::Zipf),
            "hotspot" => Some(Pattern::Hotspot),
            "mixed" => Some(Pattern::Mixed),
            _ => None,
        }
    }

    /// The stable CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::Zipf => "zipf",
            Pattern::Hotspot => "hotspot",
            Pattern::Mixed => "mixed",
        }
    }
}

/// Generator tuning knobs.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Seed of the deterministic sampling stream.
    pub seed: u64,
    /// Reference-stream structure.
    pub pattern: Pattern,
    /// Number of batches to generate.
    pub batches: usize,
    /// Queries per batch (size-1 batches exercise the single-query path).
    pub batch_size: usize,
}

impl Default for GeneratorConfig {
    fn default() -> GeneratorConfig {
        GeneratorConfig {
            seed: 42,
            pattern: Pattern::Mixed,
            batches: 64,
            batch_size: 6,
        }
    }
}

/// The nest corpus workloads draw from: the paper's named kernels at
/// benchmark-scale bounds, plus one seeded random projective nest.
pub fn corpus() -> Vec<LoopNest> {
    vec![
        builders::matmul(64, 64, 64),
        builders::matmul(256, 32, 8),
        builders::matvec(512, 64),
        builders::fully_connected(32, 64, 16),
        builders::nbody(64, 128),
        builders::random_projective(11, 4, 4, (2, 64)),
    ]
}

/// Cache sizes the generator queries at.
const CACHE_SIZES: [u64; 3] = [1 << 10, 1 << 8, 1 << 12];

/// Outcome counters of driving a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DriveStats {
    /// Batches submitted.
    pub batches: u64,
    /// Individual queries submitted.
    pub queries: u64,
    /// Queries answered with a result.
    pub answered: u64,
    /// Queries answered with a (typed or transported) error.
    pub errors: u64,
}

/// A reproducible batched query workload over the [`corpus`] nests.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The generated batches, in submission order.
    pub batches: Vec<(LoopNest, Vec<Query>)>,
}

impl Workload {
    /// Generates the workload determined by `config` (same config, same
    /// workload — always).
    pub fn generate(config: &GeneratorConfig) -> Workload {
        let corpus = corpus();
        let mut rng = XorShift::new(config.seed);
        let mut batches = Vec::with_capacity(config.batches);
        for _ in 0..config.batches {
            let nest_idx = match config.pattern {
                Pattern::Zipf | Pattern::Mixed => rng.zipf(corpus.len()),
                Pattern::Hotspot => {
                    if rng.below(10) < 9 {
                        0
                    } else {
                        rng.below(corpus.len() as u64) as usize
                    }
                }
            };
            let nest = corpus[nest_idx].clone();
            // Size-1 batches (1 in 4) model single-query `analyze` calls.
            let size = if rng.below(4) == 0 {
                1
            } else {
                config.batch_size.max(1)
            };
            let mut queries: Vec<Query> = Vec::with_capacity(size);
            while queries.len() < size {
                let q = sample_query(&mut rng, &nest, config.pattern);
                match config.pattern {
                    Pattern::Mixed => {
                        // Awkward-case sprinkling: duplicate literals and
                        // permuted-axes surface twins within one batch.
                        let roll = rng.below(8);
                        if roll == 0 && !queries.is_empty() {
                            let prev = queries[queries.len() - 1].clone();
                            queries.push(prev);
                            continue;
                        }
                        if roll == 1 {
                            if let Some(twin) = permuted_twin(&q) {
                                queries.push(q);
                                if queries.len() < size {
                                    queries.push(twin);
                                }
                                continue;
                            }
                        }
                        queries.push(q);
                    }
                    _ => queries.push(q),
                }
            }
            batches.push((nest, queries));
        }
        Workload { batches }
    }

    /// Drives an in-process front, batch by batch, through
    /// [`SharedEngine::analyze_batch`].
    pub fn drive_shared(&self, shared: &SharedEngine) -> DriveStats {
        let mut stats = DriveStats::default();
        for (nest, queries) in &self.batches {
            stats.batches += 1;
            stats.queries += queries.len() as u64;
            for outcome in shared.analyze_batch(nest, queries) {
                match outcome {
                    Ok(_) => stats.answered += 1,
                    Err(_) => stats.errors += 1,
                }
            }
        }
        stats
    }

    /// Drives a live server through the retrying [`Client`], batch by
    /// batch. Transport failures abort; per-query engine errors count.
    pub fn drive_client(&self, client: &Client) -> Result<DriveStats, ClientError> {
        let mut stats = DriveStats::default();
        for (nest, queries) in &self.batches {
            stats.batches += 1;
            stats.queries += queries.len() as u64;
            for outcome in client.analyze(nest, queries)? {
                match outcome {
                    Ok(_) => stats.answered += 1,
                    Err(_) => stats.errors += 1,
                }
            }
        }
        Ok(stats)
    }
}

/// Samples one query against `nest` under `pattern`.
fn sample_query(rng: &mut XorShift, nest: &LoopNest, pattern: Pattern) -> Query {
    let d = nest.num_loops();
    let m = match pattern {
        Pattern::Hotspot => {
            if rng.below(10) < 9 {
                CACHE_SIZES[0]
            } else {
                CACHE_SIZES[rng.below(CACHE_SIZES.len() as u64) as usize]
            }
        }
        _ => CACHE_SIZES[rng.zipf(CACHE_SIZES.len())],
    };
    // Invalid queries (1 in 16, mixed pattern only): rejected by
    // validation before touching any cache, so the recorded trace sees
    // query counts above its event count — like real hostile traffic.
    if pattern == Pattern::Mixed && rng.below(16) == 0 {
        return Query::LowerBound { cache_size: 1 };
    }
    match rng.zipf(6) {
        0 => Query::LowerBound { cache_size: m },
        1 => Query::OptimalTiling { cache_size: m },
        2 => Query::EnumeratedBound { cache_size: m },
        3 => Query::Tightness { cache_size: m },
        4 => {
            let axis = rng.below(d as u64) as usize;
            let hi = nest.bounds().get(axis).copied().unwrap_or(1).clamp(1, 16);
            Query::Slice {
                cache_size: m,
                axis,
                lo_bound: 1,
                hi_bound: hi,
            }
        }
        _ => surface_query(rng, nest, m),
    }
}

/// A small two-axis (one-axis for depth-1 nests) surface query with a
/// modest bound box, kept cheap enough for smoke-test latencies.
fn surface_query(rng: &mut XorShift, nest: &LoopNest, m: u64) -> Query {
    let d = nest.num_loops();
    if d < 2 {
        return Query::Surface {
            cache_size: m,
            axes: vec![0],
            lo_bounds: vec![1],
            hi_bounds: vec![3],
        };
    }
    let a = rng.below(d as u64) as usize;
    let mut b = rng.below(d as u64) as usize;
    if b == a {
        b = (a + 1) % d;
    }
    let hi = |axis: usize| nest.bounds().get(axis).copied().unwrap_or(1).clamp(1, 4);
    Query::Surface {
        cache_size: m,
        axes: vec![a, b],
        lo_bounds: vec![1, 1],
        hi_bounds: vec![hi(a), hi(b)],
    }
}

/// The permuted-axes twin of a multi-axis surface query (same canonical
/// cache identity, different literal), `None` for anything else.
fn permuted_twin(query: &Query) -> Option<Query> {
    match query {
        Query::Surface {
            cache_size,
            axes,
            lo_bounds,
            hi_bounds,
        } if axes.len() >= 2 => {
            let mut axes = axes.clone();
            let mut lo = lo_bounds.clone();
            let mut hi = hi_bounds.clone();
            axes.swap(0, 1);
            lo.swap(0, 1);
            hi.swap(0, 1);
            Some(Query::Surface {
                cache_size: *cache_size,
                axes,
                lo_bounds: lo,
                hi_bounds: hi,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_workload() {
        let config = GeneratorConfig::default();
        let a = Workload::generate(&config);
        let b = Workload::generate(&config);
        assert_eq!(a.batches.len(), b.batches.len());
        for ((na, qa), (nb, qb)) in a.batches.iter().zip(&b.batches) {
            assert_eq!(na.bounds(), nb.bounds());
            assert_eq!(qa, qb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Workload::generate(&GeneratorConfig {
            seed: 1,
            ..GeneratorConfig::default()
        });
        let b = Workload::generate(&GeneratorConfig {
            seed: 2,
            ..GeneratorConfig::default()
        });
        let flat = |w: &Workload| {
            w.batches
                .iter()
                .flat_map(|(_, qs)| qs.clone())
                .collect::<Vec<_>>()
        };
        assert_ne!(flat(&a), flat(&b));
    }

    #[test]
    fn mixed_pattern_contains_twins_and_duplicates() {
        let w = Workload::generate(&GeneratorConfig {
            seed: 7,
            pattern: Pattern::Mixed,
            batches: 128,
            batch_size: 6,
        });
        let mut has_dup = false;
        let mut has_twin = false;
        for (_, qs) in &w.batches {
            for pair in qs.windows(2) {
                if pair[0] == pair[1] {
                    has_dup = true;
                }
                if let Some(twin) = permuted_twin(&pair[0]) {
                    if twin == pair[1] {
                        has_twin = true;
                    }
                }
            }
        }
        assert!(has_dup, "mixed workload should contain duplicate literals");
        assert!(has_twin, "mixed workload should contain surface twins");
    }
}
