//! Snapshot lifecycle corpus: crash-safe publication, bounded retention,
//! and newest-valid-generation recovery of [`SnapshotStore`].
//!
//! The invariants under test mirror the service's crash model:
//! * a kill mid-snapshot (torn staging write) never clobbers a published
//!   generation;
//! * startup restore walks back to the newest generation that *validates*,
//!   past torn, truncated, and garbage files;
//! * every answer served from a recovered engine is bitwise-equal to the
//!   free-function oracle — corruption can cost freshness, never
//!   correctness.

use projtile_core::engine::{AnalysisResult, Engine, Query, SnapshotStore};
use projtile_core::tightness::check_tightness;
use projtile_loopnest::builders;

const M: u64 = 1 << 8;

/// A per-test temp directory, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("projtile-snapstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn warm_front(queries: usize) -> Engine {
    let front = Engine::new();
    let kernels = [
        builders::matmul(64, 64, 64),
        builders::nbody(32, 64),
        builders::matmul(128, 32, 16),
    ];
    for nest in kernels.iter().take(queries) {
        front
            .analyze(nest, &Query::Tightness { cache_size: M })
            .expect("valid query");
    }
    front
}

#[test]
fn publish_numbers_generations_and_restores_newest() {
    let tmp = TempDir::new("publish");
    let store = SnapshotStore::open(&tmp.0, 8).unwrap();
    assert!(store
        .restore_latest(Engine::restore_json)
        .unwrap()
        .is_none());

    for expected in 1..=3u64 {
        let front = warm_front(expected as usize);
        let generation = store.publish(&front.snapshot_json()).unwrap();
        assert_eq!(generation, expected);
    }
    let generations = store.generations().unwrap();
    assert_eq!(
        generations.iter().map(|(g, _)| *g).collect::<Vec<_>>(),
        vec![3, 2, 1],
        "newest first"
    );

    let (generation, restored) = store
        .restore_latest(Engine::restore_json)
        .unwrap()
        .expect("a valid generation exists");
    assert_eq!(generation, 3);
    // The newest generation saw three kernels; all three answer warm and
    // bitwise-equal to the cold oracle.
    let nest = builders::matmul(128, 32, 16);
    let answer = restored
        .analyze(&nest, &Query::Tightness { cache_size: M })
        .expect("restored front answers");
    let AnalysisResult::Tightness(report) = answer else {
        panic!("tightness query answers with a tightness report");
    };
    assert_eq!(report, check_tightness(&nest, M), "bitwise oracle equality");
    assert_eq!(restored.stats().misses, 0, "served from restored cache");
}

#[test]
fn gc_keeps_only_the_newest_k() {
    let tmp = TempDir::new("gc");
    let store = SnapshotStore::open(&tmp.0, 2).unwrap();
    let front = warm_front(1);
    let text = front.snapshot_json();
    for _ in 0..5 {
        store.publish(&text).unwrap();
    }
    let kept: Vec<u64> = store
        .generations()
        .unwrap()
        .iter()
        .map(|(g, _)| *g)
        .collect();
    assert_eq!(kept, vec![5, 4], "retention keeps the newest two");
}

#[test]
fn torn_staging_write_never_clobbers_published_generations() {
    let tmp = TempDir::new("torn");
    let store = SnapshotStore::open(&tmp.0, 8).unwrap();
    let front = warm_front(2);
    let text = front.snapshot_json();
    store.publish(&text).unwrap();
    let before = std::fs::read_to_string(store.generation_path(1)).unwrap();

    // Kill mid-snapshot at several cut points: only snap.tmp is disturbed.
    for cut in [0, 1, text.len() / 2, text.len() - 1] {
        store.torn_publish(&text, cut).unwrap();
        let after = std::fs::read_to_string(store.generation_path(1)).unwrap();
        assert_eq!(before, after, "published generation untouched at cut {cut}");
        let (generation, _) = store
            .restore_latest(Engine::restore_json)
            .unwrap()
            .expect("good generation still restorable");
        assert_eq!(generation, 1);
    }

    // The interrupted publication does not wedge the store: the next full
    // publish succeeds and becomes the newest generation.
    assert_eq!(store.publish(&text).unwrap(), 2);
}

#[test]
fn restore_walks_back_past_corrupt_generations() {
    let tmp = TempDir::new("walkback");
    let store = SnapshotStore::open(&tmp.0, 8).unwrap();
    let front = warm_front(2);
    let good = front.snapshot_json();
    store.publish(&good).unwrap();

    // Generation 2: truncated mid-document. Generation 3: garbage bytes.
    // Generation 4: valid JSON, hostile payload (version mismatch).
    store.publish(&good).unwrap();
    std::fs::write(store.generation_path(2), &good[..good.len() / 3]).unwrap();
    store.publish(&good).unwrap();
    std::fs::write(store.generation_path(3), b"\x00\xffnot json at all").unwrap();
    store.publish(&good).unwrap();
    std::fs::write(store.generation_path(4), r#"{"version":999}"#).unwrap();

    let (generation, restored) = store
        .restore_latest(Engine::restore_json)
        .unwrap()
        .expect("generation 1 is still good");
    assert_eq!(generation, 1, "newest *valid* generation wins");

    // Zero corrupt answers: the recovered front agrees with the oracle.
    let nest = builders::nbody(32, 64);
    let AnalysisResult::Tightness(report) = restored
        .analyze(&nest, &Query::Tightness { cache_size: M })
        .expect("recovered front answers")
    else {
        panic!("tightness query answers with a tightness report");
    };
    assert_eq!(report, check_tightness(&nest, M), "bitwise oracle equality");
}

#[test]
fn foreign_files_are_ignored() {
    let tmp = TempDir::new("foreign");
    let store = SnapshotStore::open(&tmp.0, 8).unwrap();
    std::fs::write(store.dir().join("README.txt"), "not a snapshot").unwrap();
    std::fs::write(store.dir().join("snap-abc.json"), "bad number").unwrap();
    std::fs::write(store.dir().join("snap.tmp"), "stray staging file").unwrap();
    assert!(store.generations().unwrap().is_empty());
    assert!(store
        .restore_latest(Engine::restore_json)
        .unwrap()
        .is_none());
    let front = warm_front(1);
    assert_eq!(store.publish(&front.snapshot_json()).unwrap(), 1);
}
