//! Seeded inputs of the three workloads.
//!
//! Everything here is a pure function of the command-line seed: each
//! client derives its own stream from `(seed, client index)`, and the
//! service only ever sees the generated requests.

use projtile_core::engine::Query;
use projtile_lab::generate::{corpus, XorShift};
use projtile_lab::{GeneratorConfig, Pattern, Workload};
use projtile_loopnest::canon::permute_nest;
use projtile_loopnest::{builders, LoopNest};

/// Closed-loop client threads per workload (one `Client` each).
const CLIENTS: usize = 2;

/// Depths of the `cold_solves` nests, cycled request by request.
pub const COLD_DEPTHS: [usize; 3] = [7, 9, 11];

/// Fast-memory size of every `cold_solves` query.
pub const COLD_M: u64 = 64;

/// `cold_solves` requests generated per client during set-up; later ones
/// are generated between requests.
const COLD_PREFIX: usize = 2048;

/// Batches per client of the cycled `lab_mixed` stream.
const LAB_BATCHES: usize = 4096;

/// Depths of the `large_answers` nest pool, and nests per depth. Answer
/// size, and with it decode time, varies severalfold between random nests
/// of one depth, so the pool's programs are the same for every seed: the
/// seed relabels their loops and arrays and orders the requests.
const LARGE_DEPTHS: [usize; 3] = [8, 9, 10];
const LARGE_PER_DEPTH: usize = 16;
const LARGE_POOL_SEED: u64 = 0x1a29e;

/// Fast-memory size of every `large_answers` enumeration.
const LARGE_M: u64 = 64;

/// Passes per client over the `large_answers` pool, each in its own
/// seeded order.
const LARGE_PASSES: usize = 64;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The lab generator's `Pattern::Mixed` stream on a fresh server.
    LabMixed,
    /// `[LowerBound, OptimalTiling, Tightness]` on never-seen nests.
    ColdSolves,
    /// Warmed `EnumeratedBound` hits with 5–34 KB answers.
    LargeAnswers,
}

impl Kind {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "lab_mixed" => Some(Kind::LabMixed),
            "cold_solves" => Some(Kind::ColdSolves),
            "large_answers" => Some(Kind::LargeAnswers),
            _ => None,
        }
    }
}

/// One request: an index into its stream's nest table plus the batch.
#[derive(Debug, Clone)]
pub struct Request {
    pub nest: usize,
    pub queries: Vec<Query>,
}

/// Identifies a nest across clients: streams that share one nest table
/// use [`SHARED`] as their scope, fresh-nest streams their client index.
pub type NestKey = (u32, u32);

/// Scope of nest tables common to every client.
pub const SHARED: u32 = u32::MAX;

/// One client's request stream. Cycled streams repeat their requests;
/// the `cold_solves` stream grows a fresh nest per request, forever.
#[derive(Debug, Clone)]
pub struct Stream {
    pub nests: Vec<LoopNest>,
    requests: Vec<Request>,
    scope: u32,
    cold_seed: Option<u64>,
}

impl Stream {
    /// Makes sure request `seq` exists (only fresh-nest streams grow).
    pub fn ensure(&mut self, seq: usize) {
        if let Some(seed) = self.cold_seed {
            while self.requests.len() <= seq {
                let k = self.requests.len();
                self.nests.push(cold_nest(seed, k));
                self.requests.push(Request {
                    nest: k,
                    queries: cold_queries(),
                });
            }
        }
    }

    /// Request `seq` (after [`Stream::ensure`] for fresh-nest streams).
    pub fn get(&self, seq: usize) -> &Request {
        &self.requests[seq % self.requests.len()]
    }

    /// The oracle key of `request`'s nest.
    pub fn key(&self, request: &Request) -> NestKey {
        (self.scope, request.nest as u32)
    }
}

/// SplitMix64 finalizer: decorrelates derived seeds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-client seed.
fn client_seed(seed: u64, client: usize) -> u64 {
    mix(seed, 1 + client as u64)
}

/// The request streams of all clients.
pub fn streams(kind: Kind, seed: u64) -> Vec<Stream> {
    (0..CLIENTS)
        .map(|client| match kind {
            Kind::LabMixed => lab_stream(client_seed(seed, client)),
            Kind::ColdSolves => {
                let mut stream = Stream {
                    nests: Vec::new(),
                    requests: Vec::new(),
                    scope: client as u32,
                    cold_seed: Some(client_seed(seed, client)),
                };
                stream.ensure(COLD_PREFIX - 1);
                stream
            }
            Kind::LargeAnswers => large_stream(seed, client_seed(seed, client)),
        })
        .collect()
}

/// Requests sent once before the timed window (the workload's warm-up):
/// every `large_answers` enumeration, so the window sees only hits.
pub fn warmup(kind: Kind, seed: u64) -> Vec<(LoopNest, Vec<Query>)> {
    match kind {
        Kind::LargeAnswers => large_pool(seed)
            .into_iter()
            .map(|nest| (nest, large_queries()))
            .collect(),
        Kind::LabMixed | Kind::ColdSolves => Vec::new(),
    }
}

/// The first `per_depth` `cold_solves` nests of each depth of client 0,
/// with their depth's index in [`COLD_DEPTHS`]: the kernel reference
/// sample every traced run measures.
pub fn cold_reference(seed: u64, per_depth: usize) -> Vec<(usize, LoopNest)> {
    let client = client_seed(seed, 0);
    (0..per_depth * COLD_DEPTHS.len())
        .map(|k| (k % COLD_DEPTHS.len(), cold_nest(client, k)))
        .collect()
}

/// The distinct valid surface and slice queries of client 0's
/// `lab_mixed` stream, with their nests: the parametric reference sample.
pub fn lab_parametric_reference(seed: u64) -> Vec<(LoopNest, Query)> {
    let stream = lab_stream(client_seed(seed, 0));
    let mut seen: Vec<(usize, Query)> = Vec::new();
    for request in &stream.requests {
        for q in &request.queries {
            let parametric = matches!(q, Query::Surface { .. } | Query::Slice { .. });
            if parametric && q.cache_size() >= 2 && !seen.contains(&(request.nest, q.clone())) {
                seen.push((request.nest, q.clone()));
            }
        }
    }
    seen.into_iter()
        .map(|(nest, q)| (stream.nests[nest].clone(), q))
        .collect()
}

fn lab_stream(seed: u64) -> Stream {
    let nests = corpus();
    let generated = Workload::generate(&GeneratorConfig {
        seed,
        pattern: Pattern::Mixed,
        batches: LAB_BATCHES,
        batch_size: 6,
    });
    let requests = generated
        .batches
        .into_iter()
        .map(|(nest, queries)| Request {
            nest: nests
                .iter()
                .position(|c| *c == nest)
                .expect("lab generator draws from its corpus"),
            queries,
        })
        .collect();
    Stream {
        nests,
        requests,
        scope: SHARED,
        cold_seed: None,
    }
}

fn cold_nest(client_seed: u64, k: usize) -> LoopNest {
    let depth = COLD_DEPTHS[k % COLD_DEPTHS.len()];
    builders::random_projective(mix(client_seed, k as u64), depth, 4, (1, 256))
}

/// The batch every `cold_solves` request sends.
pub fn cold_queries() -> Vec<Query> {
    vec![
        Query::LowerBound { cache_size: COLD_M },
        Query::OptimalTiling { cache_size: COLD_M },
        Query::Tightness { cache_size: COLD_M },
    ]
}

/// The `large_answers` nest pool, common to both clients: fixed
/// programs, relabeled per seed (same canonical form, new literal).
fn large_pool(seed: u64) -> Vec<LoopNest> {
    let mut rng = XorShift::new(mix(seed, LARGE_POOL_SEED));
    LARGE_DEPTHS
        .iter()
        .flat_map(|&d| (0..LARGE_PER_DEPTH).map(move |j| (d, j)))
        .map(|(d, j)| {
            let nest = builders::random_projective(
                mix(LARGE_POOL_SEED, (d * 64 + j) as u64),
                d,
                4,
                (1, 256),
            );
            let loops = shuffled(&mut rng, nest.num_loops());
            let arrays = shuffled(&mut rng, nest.num_arrays());
            permute_nest(&nest, &loops, &arrays)
        })
        .collect()
}

/// A seeded Fisher–Yates permutation of `0..n`.
fn shuffled(rng: &mut XorShift, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

fn large_queries() -> Vec<Query> {
    vec![Query::EnumeratedBound {
        cache_size: LARGE_M,
    }]
}

fn large_stream(seed: u64, client_seed: u64) -> Stream {
    let nests = large_pool(seed);
    let mut rng = XorShift::new(client_seed);
    let mut requests = Vec::with_capacity(LARGE_PASSES * nests.len());
    for _ in 0..LARGE_PASSES {
        requests.extend(
            shuffled(&mut rng, nests.len())
                .into_iter()
                .map(|nest| Request {
                    nest,
                    queries: large_queries(),
                }),
        );
    }
    Stream {
        nests,
        requests,
        scope: SHARED,
        cold_seed: None,
    }
}
