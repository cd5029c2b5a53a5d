//! Correctness checks run after every timed window: the bitwise oracle and
//! the `/metrics` accounting cross-check.

use std::collections::HashMap;

use projtile_core::engine::{AnalysisResult, Engine, Query};
use projtile_loopnest::LoopNest;
use serde::{json, Serialize};

use crate::inputs::{NestKey, SHARED};
use crate::window::{ClientLog, Counters};

type Served<'a> = (&'a (NestKey, Query), &'a Result<AnalysisResult, String>);

/// Compares every distinct `(nest, query)` served in the window bitwise
/// (as JSON) against a cold local [`Engine`], the oracle of
/// `projtile-query verify`, split over one engine per client thread.
/// Returns the number of distinct answers checked and one line per
/// mismatch (repeats that differed from their first answer included).
pub fn oracle(logs: &[ClientLog]) -> (usize, Vec<String>) {
    let mut problems = Vec::new();
    let mut distinct: HashMap<&(NestKey, Query), &Result<AnalysisResult, String>> = HashMap::new();
    for log in logs {
        if log.repeat_mismatches > 0 {
            problems.push(format!(
                "{} repeated requests were answered differently",
                log.repeat_mismatches
            ));
        }
        for (key, answer) in &log.served {
            match distinct.get(key) {
                Some(first) if *first != answer => {
                    problems.push(format!("clients got different answers for {key:?}"));
                }
                Some(_) => {}
                None => {
                    distinct.insert(key, answer);
                }
            }
        }
    }
    let nest = |key: NestKey| -> &LoopNest {
        let stream = &logs[if key.0 == SHARED { 0 } else { key.0 as usize }].stream;
        &stream.nests[key.1 as usize]
    };
    let mut work: Vec<Served> = distinct.into_iter().collect();
    // Deterministic order, so the per-thread split repeats across runs.
    work.sort_by_key(|((key, query), _)| (*key, format!("{query:?}")));
    let checked = work.len();
    let chunk = work.len().div_ceil(logs.len().max(1)).max(1);
    let mismatches: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut engine = Engine::new();
                    part.iter()
                        .filter_map(|((key, query), served)| {
                            let expected = engine.analyze(nest(*key), query);
                            compare(served, &expected.map_err(|e| e.to_string()))
                                .map(|why| format!("nest {key:?} query {query:?}: {why}"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    problems.extend(mismatches);
    (checked, problems)
}

fn compare(
    served: &Result<AnalysisResult, String>,
    expected: &Result<AnalysisResult, String>,
) -> Option<String> {
    match (served, expected) {
        (Ok(s), Ok(e)) => {
            let (s, e) = (
                json::to_string(&s.serialize()),
                json::to_string(&e.serialize()),
            );
            (s != e).then(|| format!("served {s} but the oracle answers {e}"))
        }
        (Err(s), Err(e)) => (s != e).then(|| format!("served error `{s}`, oracle error `{e}`")),
        (Ok(_), Err(e)) => Some(format!("served an answer, the oracle fails with `{e}`")),
        (Err(s), Ok(_)) => Some(format!("served error `{s}`, the oracle answers")),
    }
}

/// Reconciles the window's `/metrics` deltas with what the clients sent.
/// `delta` spans from the `GET /metrics` before the window (which the
/// server counts) to the one after it (which it does not count yet).
pub fn accounting(logs: &[ClientLog], delta: &Counters) -> Vec<String> {
    let sum = |f: fn(&ClientLog) -> u64| logs.iter().map(f).sum::<u64>() as i128;
    let requests = sum(|l| l.attempted());
    let queries = sum(|l| l.queries_sent);
    let valid = sum(|l| l.valid_sent);
    let repeats = sum(|l| l.repeated_literals);
    let mut problems = Vec::new();
    let mut expect = |what: &str, ok: bool, detail: String| {
        if !ok {
            problems.push(format!("accounting: {what}: {detail}"));
        }
    };
    expect(
        "engine queries = queries sent",
        delta.queries == queries,
        format!("{} vs {queries}", delta.queries),
    );
    let resolved = delta.hits + delta.misses;
    expect(
        "hits + misses = valid queries (less uncounted in-batch repeats)",
        resolved <= valid && resolved >= valid - repeats,
        format!("{resolved} vs {valid} valid, {repeats} in-batch repeats"),
    );
    expect(
        "completed = requests sent + the benchmark's GET",
        delta.completed == requests + 1,
        format!("{} vs {requests} + 1", delta.completed),
    );
    for (what, count) in [
        ("shed", delta.shed),
        ("panics", delta.panics),
        ("read timeouts", delta.read_timeouts),
        ("parse errors", delta.parse_errors),
    ] {
        expect(what, count == 0, format!("{count}"));
    }
    problems
}
