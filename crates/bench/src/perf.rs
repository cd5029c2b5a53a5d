//! Wall-clock perf snapshots for the `report --bench` mode.
//!
//! This module and [`crate::service_perf`] are the repository's one timing
//! harness. [`default_workloads`] names every closure workload: the
//! multi-limb gcd, the Theorem-2 bound LP and the `2^d` subset enumeration,
//! the §7 parametric sweeps and surfaces, the engine's session paths, the
//! decode and the warm serve of one large answer and the full matmul
//! pipeline. [`measure_all`] times each one with a plain warm-up +
//! batched-samples loop, and
//! [`snapshot_json`] renders the machine-readable `BENCH_*.json` snapshot
//! successive PRs compare against. The protocol is in
//! `docs/benchmarking.md`.

use std::time::{Duration, Instant};

use projtile_arith::{reference, BigInt};
use projtile_core::engine::{AnalysisResult, Engine, Query};
use projtile_core::{
    bounds, check_tightness, communication_lower_bound, hbl, optimal_tiling, parametric,
};
use projtile_lab::generate::XorShift;
use projtile_loopnest::{builders, LoopNest};
use serde::{json, Deserialize, Serialize, Value};

/// Cache size for the bound-LP / subset-enumeration workloads (E6).
const BOUND_M: u64 = 1 << 6;

/// Cache size for the tightness workloads (E7).
const TIGHTNESS_M: u64 = 1 << 8;

/// `log2(M)` sweep of the matmul workloads (E1).
const MATMUL_LOG_MS: [u32; 3] = [8, 12, 16];

/// The parametric β-sweeps of the §7 analysis, as
/// `(name, nest, axis, m, hi_bound)`: the exponent-vs-β value function of
/// `nest` along loop `axis`, swept over bounds `1..=hi_bound`.
///
/// These exercise the warm-started right-hand-side sweeps of
/// `lp::parametric`; the matching `_cold` workloads time the same sweeps with
/// independent cold solves per probe, so a snapshot shows the warm-start
/// speedup directly. The swept ranges extend well past every crossover, and
/// the swept axes are ones whose value function actually has a breakpoint
/// (most axes of the random nests are flat — a sweep with nothing to find
/// ends after a handful of probes and times only fixed overhead).
fn parametric_sweep_cases() -> Vec<(String, LoopNest, usize, u64, u64)> {
    let mut cases = vec![(
        "matmul".to_string(),
        builders::matmul(1 << 9, 1 << 9, 1 << 9),
        2usize,
        1u64 << 10,
        1u64 << 10,
    )];
    for (d, axis) in [(9usize, 6usize), (11, 3)] {
        cases.push((
            format!("d{d}"),
            builders::random_projective(42, d, 4, (1, 256)),
            axis,
            BOUND_M,
            1u64 << 16,
        ));
    }
    cases
}

/// The multiparametric §7 surfaces of the `exponent_surface` analysis, as
/// `(name, nest, axes, m, hi_bound)`: the full value surface of `nest` over
/// the swept `axes`, each ranging over bounds `1..=hi_bound`.
///
/// These exercise the critical-region traversal of `lp::mplp`: every region
/// hop re-enters the warm dual simplex, and the matching `_cold` workloads
/// rebuild the tableau from scratch at every probe, so a snapshot shows the
/// warm-start speedup of the multi-axis analysis directly.
fn surface_cases() -> Vec<(String, LoopNest, Vec<usize>, u64, u64)> {
    vec![
        (
            "matmul3".to_string(),
            builders::matmul(1 << 9, 1 << 9, 1 << 9),
            vec![0, 1, 2],
            1u64 << 10,
            1u64 << 10,
        ),
        (
            "d7x2".to_string(),
            builders::random_projective(42, 7, 4, (1, 256)),
            vec![3, 6],
            BOUND_M,
            1u64 << 12,
        ),
    ]
}

/// The `arith/gcd/*` operand pairs as `(name, bits of a, bits of b)`: a
/// balanced pair as wide as the bound LP's large fractions, and an
/// unbalanced one whose smaller operand fits in one limb.
const GCD_CASES: [(&str, u32, u32); 2] =
    [("balanced_135", 135, 135), ("unbalanced_135x20", 135, 20)];

/// 1000 fixed operand pairs of the given widths, every operand drawn
/// uniformly with its top bit set.
fn gcd_pairs(a_bits: u32, b_bits: u32) -> Vec<(BigInt, BigInt)> {
    let mut rng = XorShift::new(0x6cd);
    let mut operand = |bits: u32| {
        let mut x = BigInt::one();
        let mut left = bits - 1;
        while left > 0 {
            let take = left.min(32);
            let scale = BigInt::from(1u64 << take);
            x = &(&x * &scale) + &BigInt::from(rng.next_u64() >> (64 - take));
            left -= take;
        }
        x
    };
    (0..1000)
        .map(|_| (operand(a_bits), operand(b_bits)))
        .collect()
}

/// The random nest of the tightness workloads with seed `seed`.
fn tightness_input(seed: u64) -> LoopNest {
    builders::random_projective(seed, 5, 4, (1, 512))
}

/// The large matmul nest of the `matmul/*` workloads (E1).
fn matmul_nest() -> LoopNest {
    builders::matmul(1 << 9, 1 << 9, 1 << 9)
}

/// One named, timed workload.
pub struct Workload {
    /// Stable snapshot key, e.g. `lower_bound/bound_lp/d7`.
    pub name: String,
    /// Runs the workload once.
    pub run: Box<dyn Fn()>,
}

/// A timing result for one workload.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload key.
    pub name: String,
    /// Median seconds per iteration.
    pub secs_per_iter: f64,
    /// Total iterations timed (across all samples).
    pub iters: u64,
}

/// The closure workload set snapshotted into `BENCH_*.json`: the multi-limb
/// gcd, the bound LP and subset enumeration, the §7 sweeps and surfaces, the
/// engine session paths and the full matmul pipeline. All but the gcd rows
/// bottom out in the exact simplex solver.
pub fn default_workloads() -> Vec<Workload> {
    let mut workloads: Vec<Workload> = Vec::new();

    // The multi-limb gcd behind every large-fraction normalization, and as
    // its in-snapshot twin the allocating Euclid loop it replaced, each over
    // the same 1000 operand pairs per iteration.
    for (name, a_bits, b_bits) in GCD_CASES {
        let pairs = gcd_pairs(a_bits, b_bits);
        let p = pairs.clone();
        workloads.push(Workload {
            name: format!("arith/gcd/{name}"),
            run: Box::new(move || {
                for (a, b) in &p {
                    std::hint::black_box(a.gcd(b));
                }
            }),
        });
        workloads.push(Workload {
            name: format!("arith/gcd_reference/{name}"),
            run: Box::new(move || {
                for (a, b) in &pairs {
                    std::hint::black_box(reference::euclid_gcd(a, b));
                }
            }),
        });
    }

    // Theorem-2 bound LP and subset enumeration (E6/E7).
    for d in [3usize, 5, 7, 9, 11] {
        let nest = builders::random_projective(42, d, 4, (1, 256));
        let n = nest.clone();
        workloads.push(Workload {
            name: format!("lower_bound/bound_lp/d{d}"),
            run: Box::new(move || {
                std::hint::black_box(bounds::arbitrary_bound_exponent(&n, BOUND_M));
            }),
        });
        let n = nest.clone();
        workloads.push(Workload {
            name: format!("lower_bound/subset_enumeration/d{d}"),
            run: Box::new(move || {
                std::hint::black_box(bounds::enumerated_exponent(&n, BOUND_M));
            }),
        });
        // Cold differential twin at the largest depths: times the
        // one-independent-solve-per-subset oracle on the same input, so the
        // warm-start speedup is visible within a single snapshot.
        if d >= 9 {
            let n = nest;
            workloads.push(Workload {
                name: format!("lower_bound/subset_enumeration_cold/d{d}"),
                run: Box::new(move || {
                    std::hint::black_box(bounds::enumerated_exponent_cold(&n, BOUND_M));
                }),
            });
        }
    }

    // Parametric β-sweeps (§7 / E9), warm-started and cold.
    for (name, nest, axis, m, hi) in parametric_sweep_cases() {
        let n = nest.clone();
        workloads.push(Workload {
            name: format!("parametric/exponent_vs_beta/{name}"),
            run: Box::new(move || {
                std::hint::black_box(
                    parametric::exponent_vs_beta(&n, m, axis, 1, hi).expect("sweep solves"),
                );
            }),
        });
        let n = nest;
        workloads.push(Workload {
            name: format!("parametric/exponent_vs_beta_cold/{name}"),
            run: Box::new(move || {
                std::hint::black_box(
                    parametric::exponent_vs_beta_cold(&n, m, axis, 1, hi).expect("sweep solves"),
                );
            }),
        });
    }
    // Multiparametric §7 surfaces, warm-started and cold.
    for (name, nest, axes, m, hi) in surface_cases() {
        let n = nest.clone();
        let ax = axes.clone();
        let lo = vec![1u64; axes.len()];
        let hi_bounds = vec![hi; axes.len()];
        let (lo2, hi2) = (lo.clone(), hi_bounds.clone());
        workloads.push(Workload {
            name: format!("parametric/exponent_surface/{name}"),
            run: Box::new(move || {
                std::hint::black_box(
                    parametric::exponent_surface(&n, m, &ax, &lo2, &hi2).expect("surface solves"),
                );
            }),
        });
        let n = nest;
        workloads.push(Workload {
            name: format!("parametric/exponent_surface_cold/{name}"),
            run: Box::new(move || {
                std::hint::black_box(
                    parametric::exponent_surface_cold(&n, m, &axes, &lo, &hi_bounds)
                        .expect("surface solves"),
                );
            }),
        });
    }
    for seed in [0u64, 1, 2] {
        let nest = tightness_input(seed);
        workloads.push(Workload {
            name: format!("lower_bound/check_tightness/seed{seed}"),
            run: Box::new(move || {
                std::hint::black_box(check_tightness(&nest, TIGHTNESS_M));
            }),
        });
    }

    // Engine session workloads (PR 4). The cold workload pays full session
    // start-up per query (fresh engine each iteration); the cache_hit
    // workload answers the identical query from a warmed engine's memo. Both
    // use the same input as `lower_bound/check_tightness/seed0`, so one
    // snapshot shows the free-function cost, the engine's cold overhead, and
    // the amortized repeated-query cost side by side.
    let tightness_nest = tightness_input(0);
    let tightness_query = Query::Tightness {
        cache_size: TIGHTNESS_M,
    };
    let n = tightness_nest.clone();
    let q = tightness_query.clone();
    workloads.push(Workload {
        name: "engine/cold/tightness_seed0".to_string(),
        run: Box::new(move || {
            let engine = Engine::new();
            std::hint::black_box(engine.analyze(&n, &q).expect("valid query"));
        }),
    });
    let n = tightness_nest.clone();
    let q = tightness_query.clone();
    let warmed = Engine::new();
    warmed
        .analyze(&tightness_nest, &tightness_query)
        .expect("valid query");
    workloads.push(Workload {
        name: "engine/cache_hit/tightness_seed0".to_string(),
        run: Box::new(move || {
            std::hint::black_box(warmed.analyze(&n, &q).expect("valid query"));
        }),
    });

    // Service-layer workloads (PR 5).
    //
    // engine/concurrent: four real threads per iteration hammering one
    // warmed Engine with the same tightness query — every answer is a
    // read-lock hit served through the lock-free peek path. The
    // measured time includes the per-iteration thread fan-out cost, which
    // is the realistic unit of a concurrent serving workload.
    let shared = Engine::new();
    shared
        .analyze(&tightness_nest, &tightness_query)
        .expect("valid query");
    let n = tightness_nest.clone();
    let q = tightness_query.clone();
    workloads.push(Workload {
        name: "engine/concurrent/tightness_hits_x4/seed0".to_string(),
        run: Box::new(move || {
            let results =
                projtile_par::fan_out(4, |_| shared.analyze(&n, &q).expect("valid query"));
            std::hint::black_box(results);
        }),
    });

    // engine/evicted_rewarm (a name kept for snapshot continuity): a
    // tightness report is never stored, so every tightness answer is
    // composed from its three resident components. The results budget
    // holds exactly those components plus the filler's tiling (a smaller
    // one would evict a component every cycle and time a recompute). The
    // priming cycle computes both; from then on each cycle is two
    // read-path hits and no eviction: the tightness query is composed
    // through `peek_cached` (three peeks and the certificate check, no LP
    // solve) and the filler query hits its resident tiling. Must beat the
    // cold free function by >= 10x.
    let filler_nest = projtile_loopnest::LoopNest::builder()
        .index("i", 2)
        .array("A", ["i"])
        .build()
        .expect("trivial filler nest is valid");
    let filler_query = Query::OptimalTiling { cache_size: 4 };
    let set_cost = {
        let sizing = Engine::new();
        sizing
            .analyze(&tightness_nest, &tightness_query)
            .expect("valid query");
        sizing.cache_metrics().results.cost
    };
    let filler_cost = {
        let sizing = Engine::new();
        sizing
            .analyze(&filler_nest, &filler_query)
            .expect("valid query");
        sizing.cache_metrics().results.cost
    };
    let evict_engine = Engine::with_config(projtile_core::engine::EngineConfig {
        results_capacity: set_cost + filler_cost,
        ..Default::default()
    });
    let n = tightness_nest.clone();
    let q = tightness_query.clone();
    let fnest = filler_nest.clone();
    let fquery = filler_query.clone();
    let run_cycle = move || {
        std::hint::black_box(evict_engine.analyze(&n, &q).expect("valid query"));
        evict_engine.analyze(&fnest, &fquery).expect("valid query");
    };
    run_cycle(); // prime: install the components and the filler
    workloads.push(Workload {
        name: "engine/evicted_rewarm/tightness_seed0".to_string(),
        run: Box::new(run_cycle),
    });

    // engine/snapshot_restore: parse + warm-restore a persisted session and
    // answer the tightness query from the restored cache, per iteration.
    let snapshot_text = {
        let warmed = Engine::new();
        warmed
            .analyze(&tightness_nest, &tightness_query)
            .expect("valid query");
        warmed.snapshot_json()
    };
    let n = tightness_nest.clone();
    let q = tightness_query.clone();
    workloads.push(Workload {
        name: "engine/snapshot_restore/tightness_seed0".to_string(),
        run: Box::new(move || {
            let restored = Engine::restore_json(&snapshot_text).expect("snapshot restores");
            std::hint::black_box(restored.analyze(&n, &q).expect("valid query"));
        }),
    });

    // The memoized exponent_at_bound path (JIT probe): cold oracle (one LP
    // solve per probe) vs engine (slice lookup after the first sweep).
    let probe_nest = matmul_nest();
    let probe_m = 1u64 << MATMUL_LOG_MS[0];
    let n = probe_nest.clone();
    workloads.push(Workload {
        name: "engine/cold/exponent_at_bound/matmul".to_string(),
        run: Box::new(move || {
            std::hint::black_box(parametric::exponent_at_bound_cold(&n, probe_m, 2, 37));
        }),
    });
    let n = probe_nest.clone();
    let warmed = Engine::new();
    warmed
        .exponent_at_bound(&probe_nest, probe_m, 2, 37)
        .expect("valid probe");
    workloads.push(Workload {
        name: "engine/cache_hit/exponent_at_bound/matmul".to_string(),
        run: Box::new(move || {
            std::hint::black_box(
                warmed
                    .exponent_at_bound(&n, probe_m, 2, 37)
                    .expect("valid probe"),
            );
        }),
    });

    // Decoding one depth-10 `EnumeratedBound` answer (1024 `(Q, k_Q)`
    // pairs): streamed by `json::from_str`, and through the retained tree
    // path (`json::parse` plus `deserialize`) as its in-snapshot twin.
    let d10 = builders::random_projective(42, 10, 4, (1, 256));
    let answer = json::to_string(&AnalysisResult::EnumeratedBound(
        bounds::enumerated_exponent(&d10, BOUND_M),
    ));
    let text = answer.clone();
    workloads.push(Workload {
        name: "wire/decode/enumerated_d10".to_string(),
        run: Box::new(move || {
            std::hint::black_box(
                json::from_str::<AnalysisResult>(&text).expect("the answer decodes"),
            );
        }),
    });
    workloads.push(Workload {
        name: "wire/decode_tree/enumerated_d10".to_string(),
        run: Box::new(move || {
            let tree = json::parse(&answer).expect("the answer parses");
            std::hint::black_box(AnalysisResult::deserialize(&tree).expect("the answer decodes"));
        }),
    });

    // Serving the same answer as a warm hit, body included: `answer_batch`
    // hands out the resident handle and the body copies its rendered text,
    // as the server's `/analyze` does. The twin is the typed path the
    // server ran before answers were shared: `analyze_batch` (a clone of
    // the resident value) and `write_json` of every rational.
    let served = [Query::EnumeratedBound {
        cache_size: BOUND_M,
    }];
    let warmed = || {
        let engine = Engine::new();
        engine.answer_batch(&d10, &served);
        engine
    };
    let (engine, n, q) = (warmed(), d10.clone(), served.clone());
    workloads.push(Workload {
        name: "wire/serve_hit/enumerated_d10".to_string(),
        run: Box::new(move || {
            let answers = engine.answer_batch(&n, &q);
            let answer = answers.first().expect("one query").as_ref();
            let text = answer.expect("valid query").json();
            let mut body = String::with_capacity(text.len() + 24);
            body.push_str("{\"results\":[{\"ok\":");
            body.push_str(text);
            body.push_str("}]}");
            std::hint::black_box(body);
        }),
    });
    let engine = warmed();
    workloads.push(Workload {
        name: "wire/serve_hit_typed/enumerated_d10".to_string(),
        run: Box::new(move || {
            let answers = engine.analyze_batch(&d10, &served);
            let answer = answers.first().expect("one query").as_ref();
            let mut body = String::from("{\"results\":[{\"ok\":");
            answer.expect("valid query").write_json(&mut body);
            body.push_str("}]}");
            std::hint::black_box(body);
        }),
    });

    // The full matmul pipeline (E1).
    let nest = matmul_nest();
    let n = nest.clone();
    workloads.push(Workload {
        name: "matmul/hbl_exponent".to_string(),
        run: Box::new(move || {
            std::hint::black_box(hbl::hbl_exponent(&n));
        }),
    });
    for log_m in MATMUL_LOG_MS {
        let m = 1u64 << log_m;
        let n = nest.clone();
        workloads.push(Workload {
            name: format!("matmul/lower_bound/logM{log_m}"),
            run: Box::new(move || {
                std::hint::black_box(communication_lower_bound(&n, m));
            }),
        });
        let n = nest.clone();
        workloads.push(Workload {
            name: format!("matmul/optimal_tiling/logM{log_m}"),
            run: Box::new(move || {
                std::hint::black_box(optimal_tiling(&n, m));
            }),
        });
    }
    workloads
}

/// Times one closure: warm up, then `samples` batched samples; returns the
/// median seconds/iteration and the total iteration count.
pub fn time_workload(run: &dyn Fn(), budget: Duration, samples: usize) -> (f64, u64) {
    // Warm-up & calibration: run until ~1/8 of the budget is spent.
    let calibration_budget = budget / 8;
    let start = Instant::now();
    let mut warm_iters = 0u64;
    while start.elapsed() < calibration_budget {
        run();
        warm_iters += 1;
    }
    let per_iter = start.elapsed().as_secs_f64() / warm_iters as f64;
    let sample_budget = budget.as_secs_f64() * 7.0 / 8.0 / samples as f64;
    let iters_per_sample = ((sample_budget / per_iter.max(1e-9)) as u64).clamp(1, 1 << 30);

    let mut medians: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters_per_sample {
            run();
        }
        medians.push(t.elapsed().as_secs_f64() / iters_per_sample as f64);
    }
    medians.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    (
        medians[medians.len() / 2],
        iters_per_sample * samples as u64 + warm_iters,
    )
}

/// Times every workload in `workloads` with the given per-workload budget.
pub fn measure_all(workloads: &[Workload], budget: Duration, samples: usize) -> Vec<Measurement> {
    workloads
        .iter()
        .map(|w| {
            let (secs_per_iter, iters) = time_workload(&*w.run, budget, samples);
            eprintln!("  {:<42} {:>12.3} µs/iter", w.name, secs_per_iter * 1e6);
            Measurement {
                name: w.name.clone(),
                secs_per_iter,
                iters,
            }
        })
        .collect()
}

/// Renders measurements as a snapshot's JSON object
/// `{name: {secs_per_iter, iters}}`, one row per line, with `secs_per_iter`
/// to 10 significant digits.
fn measurements_json(measurements: &[Measurement]) -> String {
    let mut out = String::from("{\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {}: {{\"secs_per_iter\": {:.9e}, \"iters\": {}}}{}\n",
            json::to_string(&m.name),
            m.secs_per_iter,
            m.iters,
            if i + 1 < measurements.len() { "," } else { "" },
        ));
    }
    out.push_str("  }");
    out
}

/// Renders the full snapshot document. `baseline`, when given (e.g. the
/// `current` rows of an earlier snapshot), is embedded under `"baseline"`
/// in the same layout as `"current"`.
pub fn snapshot_json(
    label: &str,
    measurements: &[Measurement],
    baseline: Option<&[Measurement]>,
) -> String {
    let baseline = baseline
        .map(|base| format!("  \"baseline\": {},\n", measurements_json(base)))
        .unwrap_or_default();
    format!(
        "{{\n  \"schema\": \"projtile-bench-v1\",\n  \"label\": {},\n{baseline}  \"current\": {}\n}}\n",
        json::to_string(label),
        measurements_json(measurements),
    )
}

/// One row of a snapshot's measurements object.
#[derive(Deserialize)]
struct Row {
    secs_per_iter: f64,
    iters: u64,
}

/// Reads the rows of a `--baseline` file: a [`snapshot_json`] document,
/// whose `current` rows are taken, or a bare measurements object.
pub fn parse_baseline(text: &str) -> Result<Vec<Measurement>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let rows = doc.field("current").unwrap_or(&doc);
    let Value::Object(rows) = rows else {
        return Err(format!(
            "expected a measurements object, found {}",
            rows.kind()
        ));
    };
    rows.iter()
        .map(|(name, row)| match json::from_value::<Row>(row) {
            Ok(Row {
                secs_per_iter,
                iters,
            }) if secs_per_iter.is_finite() => Ok(Measurement {
                name: name.clone(),
                secs_per_iter,
                iters,
            }),
            Ok(_) => Err(format!("row `{name}`: secs_per_iter is not finite")),
            Err(e) => Err(format!("row `{name}`: {e}")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_returns_positive_values() {
        let counter = std::cell::Cell::new(0u64);
        let (secs, iters) = time_workload(
            &|| counter.set(counter.get() + 1),
            Duration::from_millis(20),
            3,
        );
        assert!(secs >= 0.0);
        assert!(iters > 0);
        assert!(counter.get() >= iters);
    }

    /// Names and `iters` exactly, `secs_per_iter` to the 10 significant
    /// digits the writer prints.
    fn printed(rows: &[Measurement]) -> Vec<(String, u64, String)> {
        rows.iter()
            .map(|m| (m.name.clone(), m.iters, format!("{:.9e}", m.secs_per_iter)))
            .collect()
    }

    #[test]
    fn snapshot_json_shape() {
        let row = |name: &str, secs_per_iter: f64, iters: u64| Measurement {
            name: name.to_string(),
            secs_per_iter,
            iters,
        };
        let ms = [row("a/b", 1.25e-6, 100), row("c", 2.0, 3)];
        let base = [row("a/b", 1.0 / 3.0 * 1e-5, 7)];
        let label = "say \"hi\"\n";
        let doc = snapshot_json(label, &ms, Some(&base));
        assert!(doc.contains("\"schema\": \"projtile-bench-v1\""));
        assert!(doc.contains("\"a/b\""));
        assert!(doc.contains(
            "\"baseline\": {\n    \"a/b\": {\"secs_per_iter\": 3.333333333e-6, \"iters\": 7}\n  },"
        ));

        // The document parses, and both measurement objects read back.
        let parsed = json::parse(&doc).expect("a snapshot is valid JSON");
        assert_eq!(parsed.field("label"), Ok(&Value::String(label.into())));
        assert_eq!(
            printed(&parse_baseline(&doc).expect("current")),
            printed(&ms)
        );
        let embedded = json::to_string(parsed.field("baseline").expect("baseline"));
        let read = parse_baseline(&embedded).expect("baseline");
        assert_eq!(printed(&read), printed(&base));
    }

    #[test]
    fn baseline_reader_rejects_malformed_rows() {
        for bad in [
            "[]",
            "{\"a\": 1}",
            "{\"a\": {\"secs_per_iter\": \"1\", \"iters\": 1}}",
            "{\"a\": {\"secs_per_iter\": 1e999, \"iters\": 1}}",
            "{\"current\": {\"a\": {\"secs_per_iter\": 1.0, \"iters\": -1}}}",
        ] {
            assert!(parse_baseline(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn default_workloads_have_unique_names() {
        let w = default_workloads();
        let mut names: Vec<_> = w.iter().map(|x| x.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), w.len());
    }
}
