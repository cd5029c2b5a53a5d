//! Deterministic trace replay: push a recorded [`TraceDocument`] through
//! the engine's real memo cache, one [`BoundedLru`] per cache family, at
//! any budgets.
//!
//! The replay reproduces the live `Engine` resolution pipeline from
//! events alone — no nests, no solver, no payloads (entries are `()` at
//! their recorded costs):
//!
//! * events are regrouped by their `batch` id (one group per live
//!   `analyze`/`analyze_batch` call, contiguous in append order);
//! * each group runs the live pipeline's phases in order: a **probe pass**
//!   (one `peek` per distinct literal in input order; a tightness probe
//!   peeks its three component entries, short-circuiting at the first
//!   absent one), a **classification** (first uncached occurrence per
//!   cache-canonical family is the computing miss; repeated literals of it
//!   are duplicates; distinct literals of it are canonical twins, hits
//!   answered from the batch's own computation without touching a cache),
//!   an **orientation intern**, and an **install pass** in pending order
//!   making the live `contains` / `insert` calls at the recorded per-entry
//!   costs.
//!
//! Because replay and live engine run the same cache code in the same call
//! order, a cold-start trace recorded under serialized traffic replays at
//! the recorded budgets to the **same class for every event** and the same
//! hit/miss totals — the keystone differential ([`check_live`]). At other
//! budgets the replay predicts what a live engine with those budgets would
//! have done; entry costs for misses the recording never took are recovered
//! from a cost book of per-entry costs learned from the trace's own miss
//! events (from a cold start, every entry is first installed by a recorded
//! miss).

use std::collections::{HashMap, HashSet};
use std::fmt;

use projtile_core::engine::{outcome, BoundedLru, BoundedLruStats, TraceDocument, TraceEvent};

/// A replayed cache entry: the event's cache-canonical family hash plus the
/// kind of query whose answer the entry holds (a tightness query's three
/// components share its family but occupy distinct entries).
type SimKey = u128;

/// One replayed cache family: the live cache type, holding no payloads.
type Family = BoundedLru<SimKey, ()>;

/// The query kinds a tightness query is composed from, in the live probe
/// and install order (and the order of a tightness miss's recorded costs):
/// tiling, bound, enumeration.
const TIGHTNESS_COMPONENTS: [u8; 3] = [2, 0, 1];

/// The kind index of a tightness query, which owns no entry of its own.
const TIGHTNESS: u8 = 3;

/// The entry kinds an event reads and installs, in order: its components
/// for a tightness event, its own kind otherwise.
fn entry_kinds(ev: &TraceEvent) -> &[u8] {
    if ev.kind == TIGHTNESS {
        &TIGHTNESS_COMPONENTS
    } else {
        std::slice::from_ref(&ev.kind)
    }
}

fn key(fam: u64, kind: u8) -> SimKey {
    ((fam as u128) << 8) | kind as u128
}

/// Cost budgets for the engine's three cache families (a whole front's,
/// like the [`projtile_core::engine::EngineConfig`] they are read from).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budgets {
    /// Typed-results family budget (bounds, enumerations, tilings).
    pub results: u64,
    /// Slice value-function family budget.
    pub slices: u64,
    /// Surface family budget.
    pub surfaces: u64,
}

impl Budgets {
    /// The recorded budgets of the front that produced `doc`.
    pub fn from_document(doc: &TraceDocument) -> Budgets {
        Budgets {
            results: doc.config.results_capacity,
            slices: doc.config.slices_capacity,
            surfaces: doc.config.surfaces_capacity,
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
    /// The budgets the replay ran at.
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
    /// Results-family occupancy and evictions.
    pub results: BoundedLruStats,
    /// Slice-family occupancy and evictions.
    pub slices: BoundedLruStats,
    /// Surface-family occupancy and evictions.
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

/// The replayed front: its interned nests and orientations, and one
/// live-type cache per family.
struct Front {
    signatures: HashSet<u64>,
    orientations: HashSet<u64>,
    results: Family,
    slices: Family,
    surfaces: Family,
}

impl Front {
    fn new(budgets: Budgets) -> Front {
        Front {
            signatures: HashSet::new(),
            orientations: HashSet::new(),
            results: BoundedLru::new(budgets.results),
            slices: BoundedLru::new(budgets.slices),
            surfaces: BoundedLru::new(budgets.surfaces),
        }
    }

    /// Whether the live read path could find `ev`'s cache entry at all:
    /// slices are keyed by nest, everything else by orientation.
    fn knows(&self, ev: &TraceEvent) -> bool {
        match ev.kind {
            5 => self.signatures.contains(&ev.sig),
            _ => self.orientations.contains(&ev.orient),
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

/// The live read path for one event (the engine's `peek_cached`): peek its
/// entries in order, short-circuiting at the first absence (a tightness
/// miss can still stamp some components).
fn probe(front: &mut Front, ev: &TraceEvent) -> bool {
    let family = front.family(ev.kind);
    entry_kinds(ev)
        .iter()
        .all(|&k| family.peek(&key(ev.fam, k)).is_some())
}

/// The live install path for one computing miss (the engine's `install`),
/// at the given per-entry costs: a bound, enumeration or tiling query
/// overwrites its entry; a tightness query inserts its components where
/// absent, and so do surfaces and slices.
fn install(front: &mut Front, ev: &TraceEvent, costs: &[u64]) {
    let family = front.family(ev.kind);
    for (&k, &cost) in entry_kinds(ev).iter().zip(costs) {
        let entry = key(ev.fam, k);
        if ev.kind < TIGHTNESS || !family.contains(&entry) {
            family.insert(entry, (), cost);
        }
    }
}

/// Replays `doc` at the given budgets. Processes events in append order,
/// so the replay is exact for serialized recordings (concurrent recordings
/// replay in commit order, which may legitimately diverge from lock order).
pub fn replay_document(doc: &TraceDocument, budgets: Budgets) -> ReplayReport {
    let mut front = Front::new(budgets);

    // Cost book: from a cold start every entry is first installed by a
    // recorded miss, so recorded costs price each entry for replays at
    // other budgets too.
    let mut book: HashMap<SimKey, u64> = HashMap::new();
    for ev in doc.events.iter().filter(|ev| ev.outcome == outcome::MISS) {
        for (&k, &cost) in entry_kinds(ev).iter().zip(&ev.costs) {
            book.entry(key(ev.fam, k)).or_insert(cost);
        }
    }
    // An event's entries priced from the book (`None` if any is unpriced).
    let priced = |ev: &TraceEvent| -> Option<Vec<u64>> {
        entry_kinds(ev)
            .iter()
            .map(|&k| book.get(&key(ev.fam, k)).copied())
            .collect()
    };
    // The cost an event's answer represents, for byte-rate accounting: the
    // sum of its entries (a tightness answer is composed from three).
    let serve_cost = |ev: &TraceEvent| -> u64 {
        entry_kinds(ev)
            .iter()
            .filter_map(|&k| book.get(&key(ev.fam, k)))
            .sum()
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
        // Probe pass: each distinct literal is peeked once, in input order
        // (partial tightness peeks included); its repeats share the result.
        let mut probed: HashMap<u64, bool> = HashMap::new();
        let found: Vec<bool> = batch
            .iter()
            .map(|ev| {
                *probed
                    .entry(ev.lhash)
                    .or_insert_with(|| front.knows(ev) && probe(&mut front, ev))
            })
            .collect();

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

        // Intern: exactly the live batches with something to compute intern
        // their nest and orientation (a batch of hits takes no write lock).
        if classes.contains(&EventClass::Miss) {
            front.signatures.insert(batch[0].sig);
            front.orientations.insert(batch[0].orient);
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
                outcome::MISS => install(&mut front, ev, &ev.costs),
                outcome::FAILED => {}
                _ => match priced(ev) {
                    Some(costs) => install(&mut front, ev, &costs),
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

    report.results = front.results.stats();
    report.slices = front.slices.stats();
    report.surfaces = front.surfaces.stats();
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
