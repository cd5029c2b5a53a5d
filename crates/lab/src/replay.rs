//! Deterministic trace replay: push a recorded [`TraceDocument`] through
//! the engine's real memo cache, one [`BoundedLru`] per cache family per
//! shard, at any per-shard budgets.
//!
//! The replay reproduces the live `SharedEngine` resolution pipeline from
//! events alone — no nests, no solver, no payloads (entries are `()` at
//! their recorded costs):
//!
//! * events are regrouped by their `batch` id (one group per live
//!   `analyze`/`analyze_batch` call, contiguous in append order);
//! * each group runs the live phases in order: a **probe pass** (`peek`s in
//!   input order, skipping literals already found cached, with the
//!   tightness recompose path peeking component artifacts as it
//!   short-circuits), a **classification** (first uncached occurrence per
//!   cache-canonical family is the computing miss; repeated literals of it
//!   are duplicates; distinct literals of it are canonical twins, hits
//!   answered from the batch's own computation without touching a cache),
//!   an **orientation intern**, and an **install pass** in pending order
//!   making the live `contains` / `insert` / `get` calls at the recorded
//!   per-entry costs;
//! * the replayed shard is the recorded routing key modulo the shard count,
//!   so cross-shard isolation is reproduced too.
//!
//! Because replay and live front run the same cache code in the same call
//! order, a cold-start trace recorded under serialized traffic replays at
//! the recorded budgets to the **same class for every event** and the same
//! hit/miss totals — the keystone differential ([`check_live`]). At other
//! budgets the replay predicts what a live front with those budgets would
//! have done; entry costs for misses the recording never took are recovered
//! from a cost book learned from the trace's own miss events (from a cold
//! start, every installable entry's first live resolution is a recorded
//! miss).

use std::collections::{HashMap, HashSet};
use std::fmt;

use projtile_core::engine::{outcome, BoundedLru, BoundedLruStats, TraceDocument, TraceEvent};

/// A replayed cache key: the event's cache-canonical family hash plus a
/// small component tag (a tightness report and its four component artifacts
/// share a family but occupy distinct entries).
type SimKey = u128;

/// One replayed cache family: the live cache type, holding no payloads.
type Family = BoundedLru<SimKey, ()>;

/// Component tags distinguishing co-familial entries in the replayed
/// results family (the live `ResultKind`s).
mod tag {
    pub const BOUND: u8 = 1;
    pub const ENUMERATED: u8 = 2;
    pub const TILING: u8 = 3;
    pub const CERTIFICATE: u8 = 4;
    pub const REPORT: u8 = 5;
}

/// Install order of a tightness miss's component artifacts (before the
/// report), matching the live install pass and its recorded cost order.
const TIGHTNESS_COMPONENTS: [u8; 4] = [tag::TILING, tag::BOUND, tag::ENUMERATED, tag::CERTIFICATE];

fn key(fam: u64, t: u8) -> SimKey {
    ((fam as u128) << 8) | t as u128
}

/// Per-shard cost budgets for the three cache families `SharedEngine`
/// traffic exercises (the betas cache is only populated by single-session
/// engines and never appears in a front's trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budgets {
    /// Typed-results family budget (bounds, enumerations, tilings,
    /// tightness reports and certificates).
    pub results: u64,
    /// Slice value-function family budget.
    pub slices: u64,
    /// Surface family budget.
    pub surfaces: u64,
}

impl Budgets {
    /// The recorded per-shard budgets of the front that produced `doc`.
    pub fn from_document(doc: &TraceDocument) -> Budgets {
        Budgets {
            results: doc.shard_config.results_capacity,
            slices: doc.shard_config.slices_capacity,
            surfaces: doc.shard_config.surfaces_capacity,
        }
    }

    /// These budgets scaled by `num / den` (saturating, `den` clamped ≥ 1).
    pub fn scaled(&self, num: u64, den: u64) -> Budgets {
        let den = den.max(1);
        let s = |v: u64| v.saturating_mul(num) / den;
        Budgets {
            results: s(self.results),
            slices: s(self.slices),
            surfaces: s(self.surfaces),
        }
    }
}

/// How the replay resolved one event (recorded outcomes fold to the same
/// three classes for comparison: failed computations count as misses, and
/// canonical twins count as hits, exactly like the live counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Answered from a resident entry (or as a canonical twin of a query
    /// computed in the same batch).
    Hit,
    /// Would compute: first uncached occurrence of its family in the batch.
    Miss,
    /// Repeated literal of a computing query within one batch — neither hit
    /// nor miss, matching the live accounting.
    Duplicate,
}

impl fmt::Display for EventClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EventClass::Hit => "hit",
            EventClass::Miss => "miss",
            EventClass::Duplicate => "duplicate",
        })
    }
}

fn recorded_class(oc: u8) -> EventClass {
    match oc {
        outcome::HIT => EventClass::Hit,
        outcome::DUPLICATE => EventClass::Duplicate,
        _ => EventClass::Miss,
    }
}

/// One replay/recording divergence (a replay of a cold-start serialized
/// trace at its recorded budgets is expected to have none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mismatch {
    /// The diverging event's global ordinal.
    pub ordinal: u64,
    /// What the replay resolved.
    pub predicted: EventClass,
    /// What the live front recorded.
    pub recorded: EventClass,
}

/// The outcome of replaying one document at one set of budgets.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The per-shard budgets the replay ran at.
    pub budgets: Budgets,
    /// Events replayed.
    pub events: usize,
    /// Events the replay answered from cache (twins included).
    pub sim_hits: u64,
    /// Events the replay computed.
    pub sim_misses: u64,
    /// Intra-batch duplicate literals (neither hit nor miss).
    pub sim_duplicates: u64,
    /// The live front's hit counter over the recorded window.
    pub live_hits: u64,
    /// The live front's miss counter over the recorded window.
    pub live_misses: u64,
    /// Cost units served from cache (entry cost per hit).
    pub byte_hits: u64,
    /// Cost units requested overall (entry cost per hit or miss).
    pub byte_total: u64,
    /// Replayed misses that could not charge an install because the live
    /// trace never priced the entry (only failed computations qualify).
    pub unpriced_installs: u64,
    /// Results-family occupancy/evictions summed across shards.
    pub results: BoundedLruStats,
    /// Slice-family occupancy/evictions summed across shards.
    pub slices: BoundedLruStats,
    /// Surface-family occupancy/evictions summed across shards.
    pub surfaces: BoundedLruStats,
    /// Event-level divergences from the recording (first 8).
    pub mismatches: Vec<Mismatch>,
    /// Total number of diverging events.
    pub mismatch_count: u64,
    /// `true` iff every event matched its recorded class and the totals
    /// equal the live counters.
    pub matches_live: bool,
}

impl ReplayReport {
    /// Replayed hit rate in percent (0 when no hits or misses).
    pub fn hit_rate(&self) -> f64 {
        rate(self.sim_hits, self.sim_hits + self.sim_misses)
    }

    /// Replayed byte-hit rate in percent (cost-weighted hit rate).
    pub fn byte_hit_rate(&self) -> f64 {
        rate(self.byte_hits, self.byte_total)
    }

    /// Evictions summed across the three families.
    pub fn evictions(&self) -> u64 {
        self.results.evictions + self.slices.evictions + self.surfaces.evictions
    }
}

fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Why a differential replay refused or failed; see [`check_live`].
#[derive(Debug)]
pub enum ReplayError {
    /// The recorder was attached to a warm front (`warm_entries > 0`): a
    /// cold-start replay cannot reproduce its hits.
    WarmTrace(u64),
    /// The recorder overflowed (`dropped > 0`): the event stream is
    /// truncated, so totals cannot be reconciled.
    DroppedEvents(u64),
    /// The replay diverged from the recording (carries the full report; its
    /// `mismatches` lists the first diverging events).
    Diverged(Box<ReplayReport>),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::WarmTrace(n) => write!(
                f,
                "trace was recorded on a warm front ({n} resident entries); \
                 differential replay needs a cold start"
            ),
            ReplayError::DroppedEvents(n) => {
                write!(f, "trace dropped {n} events past its capacity")
            }
            ReplayError::Diverged(report) => write!(
                f,
                "replay diverged from the recording on {} of {} events \
                 (replay {}/{} vs live {}/{} hits/misses); first: {:?}",
                report.mismatch_count,
                report.events,
                report.sim_hits,
                report.sim_misses,
                report.live_hits,
                report.live_misses,
                report.mismatches.first()
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// One replayed shard: its interned orientations and one live-type cache
/// per family.
struct Shard {
    interned: HashSet<u64>,
    results: Family,
    slices: Family,
    surfaces: Family,
}

impl Shard {
    fn new(budgets: Budgets) -> Shard {
        Shard {
            interned: HashSet::new(),
            results: BoundedLru::new(budgets.results),
            slices: BoundedLru::new(budgets.slices),
            surfaces: BoundedLru::new(budgets.surfaces),
        }
    }

    fn family(&mut self, kind: u8) -> &mut Family {
        match kind {
            4 => &mut self.surfaces,
            5 => &mut self.slices,
            _ => &mut self.results,
        }
    }
}

/// The primary lookup key of an event (the entry its kind's peek answers
/// from — for tightness, the report).
fn primary_key(ev: &TraceEvent) -> SimKey {
    match ev.kind {
        0 => key(ev.fam, tag::BOUND),
        1 => key(ev.fam, tag::ENUMERATED),
        2 => key(ev.fam, tag::TILING),
        3 => key(ev.fam, tag::REPORT),
        _ => key(ev.fam, 0),
    }
}

/// The live read path for one event (`Engine::peek_cached`): peek the
/// primary entry; on a tightness report miss, peek the components in order,
/// short-circuiting at the first absence (an overall miss can still stamp
/// some components).
fn probe(shard: &mut Shard, ev: &TraceEvent) -> bool {
    let family = shard.family(ev.kind);
    if family.peek(&primary_key(ev)).is_some() {
        return true;
    }
    ev.kind == 3
        && TIGHTNESS_COMPONENTS
            .into_iter()
            .all(|t| family.peek(&key(ev.fam, t)).is_some())
}

/// The live install path for one computing miss (`Engine::install`), at the
/// recorded per-entry costs: typed results overwrite; tightness inserts its
/// components where absent, the report last, then `get`s the components
/// (the derived-last recency policy); surfaces and slices insert only where
/// absent.
fn install(shard: &mut Shard, ev: &TraceEvent, costs: &[u64]) {
    let at = |i: usize| costs.get(i).copied().unwrap_or(0);
    let family = shard.family(ev.kind);
    match ev.kind {
        3 => {
            for (i, t) in TIGHTNESS_COMPONENTS.into_iter().enumerate() {
                if !family.contains(&key(ev.fam, t)) {
                    family.insert(key(ev.fam, t), (), at(i));
                }
            }
            family.insert(primary_key(ev), (), at(4));
            for t in TIGHTNESS_COMPONENTS {
                family.get(&key(ev.fam, t));
            }
        }
        4 | 5 => {
            if !family.contains(&primary_key(ev)) {
                family.insert(primary_key(ev), (), at(0));
            }
        }
        _ => family.insert(primary_key(ev), (), at(0)),
    }
}

/// Replays `doc` at the given per-shard budgets. Processes events in append
/// order, so the replay is exact for serialized recordings (concurrent
/// recordings replay in commit order, which may legitimately diverge from
/// per-shard lock order).
pub fn replay_document(doc: &TraceDocument, budgets: Budgets) -> ReplayReport {
    let num_shards = (doc.num_shards as u64).max(1);
    let mut shards: Vec<Shard> = (0..num_shards).map(|_| Shard::new(budgets)).collect();

    // Cost book: every installable entry's first live resolution from a
    // cold start is a recorded miss, so recorded costs price the entries
    // for replays at other budgets too.
    let mut book: HashMap<(u8, u64), Vec<u64>> = HashMap::new();
    for ev in &doc.events {
        if ev.outcome == outcome::MISS && !ev.costs.is_empty() {
            book.entry((ev.kind, ev.fam))
                .or_insert_with(|| ev.costs.clone());
        }
    }
    // The cost an event's answer represents, for byte-rate accounting (the
    // report entry for tightness, the sole entry otherwise).
    let serve_cost = |ev: &TraceEvent| -> u64 {
        book.get(&(ev.kind, ev.fam))
            .map(|costs| {
                if ev.kind == 3 {
                    costs.get(4).copied().unwrap_or(0)
                } else {
                    costs.first().copied().unwrap_or(0)
                }
            })
            .unwrap_or(0)
    };

    let mut report = ReplayReport {
        budgets,
        events: doc.events.len(),
        sim_hits: 0,
        sim_misses: 0,
        sim_duplicates: 0,
        live_hits: doc.hits,
        live_misses: doc.misses,
        byte_hits: 0,
        byte_total: 0,
        unpriced_installs: 0,
        results: BoundedLruStats::default(),
        slices: BoundedLruStats::default(),
        surfaces: BoundedLruStats::default(),
        mismatches: Vec::new(),
        mismatch_count: 0,
        matches_live: false,
    };

    for batch in doc.events.chunk_by(|a, b| a.batch == b.batch) {
        let shard = &mut shards[(batch[0].sig % num_shards) as usize];

        // Probe pass: peeks in input order; literals already found cached
        // this batch are not re-peeked, while occurrences of missing
        // queries re-probe every time (partial tightness peeks included).
        let mut hit_lhash: HashSet<u64> = HashSet::new();
        let mut found = Vec::with_capacity(batch.len());
        for ev in batch {
            if hit_lhash.contains(&ev.lhash) {
                found.push(true);
                continue;
            }
            let f = shard.interned.contains(&ev.orient) && probe(shard, ev);
            if f {
                hit_lhash.insert(ev.lhash);
            }
            found.push(f);
        }

        // Classification: first uncached occurrence per cache-canonical
        // family computes; its literal repeats are duplicates; its distinct
        // literals (permuted-axes surface twins) are hits answered from the
        // batch's own computation.
        let mut first: HashMap<(u8, u64), u64> = HashMap::new();
        let classes: Vec<EventClass> = batch
            .iter()
            .zip(&found)
            .map(|(ev, &found)| {
                if found {
                    return EventClass::Hit;
                }
                match first.get(&(ev.kind, ev.fam)) {
                    None => {
                        first.insert((ev.kind, ev.fam), ev.lhash);
                        EventClass::Miss
                    }
                    Some(&rep) if rep == ev.lhash => EventClass::Duplicate,
                    Some(_) => EventClass::Hit,
                }
            })
            .collect();

        // Orientation intern: every live call that reached its write-lock
        // pass interned (idempotently); only a single-query computation
        // failure returns before interning.
        if batch
            .iter()
            .any(|ev| ev.outcome != outcome::FAILED_NO_INTERN)
        {
            shard.interned.insert(batch[0].orient);
        }

        // Install pass in pending order. Recorded misses charge their own
        // costs; misses the recording did not take (it hit at its budgets)
        // charge the book; failed computations install nothing, exactly
        // like live.
        for (ev, class) in batch.iter().zip(&classes) {
            if *class != EventClass::Miss {
                continue;
            }
            match ev.outcome {
                outcome::MISS => install(shard, ev, &ev.costs),
                outcome::FAILED | outcome::FAILED_NO_INTERN => {}
                _ => match book.get(&(ev.kind, ev.fam)) {
                    Some(costs) => install(shard, ev, costs),
                    None => report.unpriced_installs += 1,
                },
            }
        }

        // Accounting and recording comparison.
        for (ev, class) in batch.iter().zip(&classes) {
            match class {
                EventClass::Hit => {
                    report.sim_hits += 1;
                    report.byte_hits += serve_cost(ev);
                    report.byte_total += serve_cost(ev);
                }
                EventClass::Miss => {
                    report.sim_misses += 1;
                    report.byte_total += serve_cost(ev);
                }
                EventClass::Duplicate => report.sim_duplicates += 1,
            }
            let recorded = recorded_class(ev.outcome);
            if *class != recorded {
                report.mismatch_count += 1;
                if report.mismatches.len() < 8 {
                    report.mismatches.push(Mismatch {
                        ordinal: ev.ordinal,
                        predicted: *class,
                        recorded,
                    });
                }
            }
        }
    }

    for shard in &shards {
        for (acc, part) in [
            (&mut report.results, shard.results.stats()),
            (&mut report.slices, shard.slices.stats()),
            (&mut report.surfaces, shard.surfaces.stats()),
        ] {
            acc.entries += part.entries;
            acc.cost += part.cost;
            acc.capacity += part.capacity;
            acc.evictions += part.evictions;
        }
    }
    report.matches_live = report.mismatch_count == 0
        && report.sim_hits == doc.hits
        && report.sim_misses == doc.misses;
    report
}

/// The keystone differential: replays `doc` at the recorded budgets and
/// insists the replay reproduces the live front's resolution **event for
/// event** (and its hit/miss totals). Refuses traces a cold replay cannot
/// possibly reproduce — warm-start recordings and overflowed recorders.
pub fn check_live(doc: &TraceDocument) -> Result<ReplayReport, ReplayError> {
    if doc.warm_entries > 0 {
        return Err(ReplayError::WarmTrace(doc.warm_entries));
    }
    if doc.dropped > 0 {
        return Err(ReplayError::DroppedEvents(doc.dropped));
    }
    let report = replay_document(doc, Budgets::from_document(doc));
    if report.matches_live {
        Ok(report)
    } else {
        Err(ReplayError::Diverged(Box::new(report)))
    }
}
