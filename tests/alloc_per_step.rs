//! Allocation guard: what `ingest_batch` allocates follows the matches it
//! produces, not the work it rejects. Each scenario runs the same measured
//! batch twice — once behind `n` units of rejected work, once behind `2n`
//! — at an equal match count, and the two allocation counts must be equal:
//! no binding, region list or tally may be allocated per stack
//! pre-filtered, per candidate visited or per unsealed record checked.
//!
//! Beside it, the scaling guard: what an arrival costs follows the plan
//! nodes it changes, not the queries registered or the queries sharing a
//! node. Siblings whose event types the stream never carries, and siblings
//! whose shared prefix walk every arrival runs but whose final stacks stay
//! empty, add no allocation to an arrival (exact, any build) and next to no
//! time (release builds: the time is only meaningful there), and
//! registering them costs each the same.
//!
//! And the wire's decoder: an event is decoded straight into the record
//! the engine keeps.
//!
//! And the stack layer: a late insert costs what one chunk holds, not how
//! far below the top it lands (release builds), and neither a purge nor an
//! insert among the newest instances allocates.
//!
//! And negation: a walk visits no candidate a stored negative already
//! rules out (exact, any build).

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::{Duration as Wall, Instant};

use common::ev;
use sequin::engine::{DisorderPolicy, EngineConfig, MultiEngine, OutputKind};
use sequin::query::{parse, Query};
use sequin::runtime::AisStack;
use sequin::server::{decode_frame, encode_frame, Frame};
use sequin::types::{
    Duration, Event, EventId, EventRef, StreamItem, Timestamp, TypeRegistry, ValueKind,
};

/// Counts the calling thread's allocations (a host's evaluator runs on the
/// caller's thread; other tests' threads do not count).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // a thread past its teardown has nothing left to measure
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell<u64>` with constant initialisation, so touching it allocates
// nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator; the
        // caller's obligations for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn registry() -> TypeRegistry {
    let mut reg = TypeRegistry::new();
    for name in ["T0", "T1", "T2", "T3", "U0", "U1", "U2"] {
        reg.declare(name, &[("x", ValueKind::Int), ("tag", ValueKind::Int)])
            .unwrap();
    }
    reg
}

/// Registers `queries`, ingests `preload` unmeasured, then returns the
/// allocations of, and the (inserts, retractions) out of, one
/// `ingest_batch(measured)`.
fn measure(
    reg: &TypeRegistry,
    policy: DisorderPolicy,
    queries: &[String],
    preload: &[StreamItem],
    measured: &[StreamItem],
) -> (u64, (usize, usize)) {
    let config = EngineConfig {
        policy,
        ..EngineConfig::with_k(Duration::new(50_000))
    };
    let mut engine = MultiEngine::new(config);
    for text in queries {
        engine.register(parse(text, reg).unwrap(), policy);
    }
    engine.ingest_batch(preload);
    let before = ALLOCATIONS.with(Cell::get);
    let out = engine.ingest_batch(measured);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let of_kind = |kind| {
        let items = out.iter().flatten();
        items.filter(|(_, o)| o.kind == kind).count()
    };
    (
        allocations,
        (of_kind(OutputKind::Insert), of_kind(OutputKind::Retract)),
    )
}

fn events(reg: &TypeRegistry, ty: &str, ids: std::ops::Range<u64>, tag: i64) -> Vec<StreamItem> {
    ids.map(|i| StreamItem::Event(ev(reg, ty, i, i, &[0, tag])))
        .collect()
}

/// Sibling queries whose insert-time pre-filter rejects the arrival: each
/// adds a pooled stack to visit per `T2`, and nothing to allocate.
#[test]
fn rejecting_siblings_allocate_nothing() {
    let reg = registry();
    let run = |siblings: usize| {
        let band = |b: usize| {
            format!(
                "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE c.x >= {b} AND c.x < {} WITHIN 1000",
                b + 1
            )
        };
        let queries: Vec<String> = (0..siblings).map(band).collect();
        // every `x` is 0: band 0 accepts, every other band rejects
        let mut preload = events(&reg, "T0", 1..3, 0);
        preload.extend(events(&reg, "T1", 3..5, 0));
        preload.extend(events(&reg, "T2", 5..69, 0));
        let measured = events(&reg, "T2", 100..164, 0);
        measure(
            &reg,
            DisorderPolicy::Conservative,
            &queries,
            &preload,
            &measured,
        )
    };
    let (few, many) = (run(8), run(16));
    assert_eq!(few.1, (64 * 4, 0), "every T2 completes the four prefixes");
    assert_eq!(few.1, many.1, "equal match count");
    assert_eq!(few.0, many.0, "allocations grew with rejecting siblings");
}

/// A late prefix event walks every stored `T0`, and every complete partial
/// is forked to both members' final slots, where the spanning predicate
/// rejects all but one: the rejected partials allocate nothing.
#[test]
fn rejected_candidates_allocate_nothing() {
    let reg = registry();
    let run = |candidates: u64| {
        let member = |ty: &str| {
            format!("PATTERN SEQ(T0 a, T1 b, {ty} c) WHERE a.tag + 0 == c.tag WITHIN 40000")
        };
        let queries = [member("T2"), member("T3")];
        // the final slots first (tag 9), then the candidates: one T0 that
        // matches them and `candidates` that do not
        let mut preload = events(&reg, "T2", 30_000..30_001, 9);
        preload.extend(events(&reg, "T3", 30_001..30_002, 9));
        preload.extend(events(&reg, "T0", 1..2, 9));
        preload.extend(events(&reg, "T0", 2..2 + candidates, 1));
        preload.extend(events(&reg, "T1", 10_000..10_016, 0));
        let measured = events(&reg, "T1", 20_000..20_032, 0);
        measure(
            &reg,
            DisorderPolicy::Conservative,
            &queries,
            &preload,
            &measured,
        )
    };
    let (few, many) = (run(200), run(400));
    assert_eq!(few.1, (32 * 2, 0), "one match per member per T1");
    assert_eq!(few.1, many.1, "equal match count");
    assert_eq!(few.0, many.0, "allocations grew with rejected candidates");
}

/// A negative checks every emitted, still unsealed match; the ones it does
/// not invalidate allocate nothing.
#[test]
fn unsealed_records_a_negative_spares_allocate_nothing() {
    let reg = registry();
    let run = |spared: u64| {
        let queries =
            ["PATTERN SEQ(T0 a, !T1 n, T2 c) WHERE n.tag == a.tag WITHIN 40000".to_owned()];
        // `spared` + 1 matches emitted speculatively, all unsealed (K is
        // far away); the negatives carry the one tag that is not spared
        let mut preload = events(&reg, "T0", 1..2, 9);
        preload.extend(events(&reg, "T0", 2..2 + spared, 1));
        preload.extend(events(&reg, "T2", 30_000..30_001, 0));
        let measured = events(&reg, "T1", 10_000..10_008, 9);
        measure(
            &reg,
            DisorderPolicy::Speculative,
            &queries,
            &preload,
            &measured,
        )
    };
    let (few, many) = (run(100), run(200));
    assert_eq!(few.1, (0, 1), "the first negative retracts the tag-9 match");
    assert_eq!(few.1, many.1, "equal retraction count");
    assert_eq!(few.0, many.0, "allocations grew with spared records");
}

/// What a `T2` arrival visits and constructs for `SEQ(T0 a, !T1 n, T2 c)`,
/// with `n` `T0`s in its window and one `T1`, newer than every `T0`
/// (`t1_newest`) or older.
fn negated_arrival(n: u64, t1_newest: bool) -> (u64, u64) {
    let reg = registry();
    let config = EngineConfig::with_k(Duration::new(50_000));
    let mut engine = MultiEngine::new(config);
    let text = "PATTERN SEQ(T0 a, !T1 n, T2 c) WITHIN 40000";
    engine.register(parse(text, &reg).unwrap(), DisorderPolicy::Speculative);
    let t1 = if t1_newest { n + 1 } else { 0 };
    let mut preload = events(&reg, "T1", t1..t1 + 1, 0);
    preload.extend(events(&reg, "T0", 1..n + 1, 0));
    engine.ingest_batch(&preload);
    let before = engine.stats()[0];
    engine.ingest_batch(&events(&reg, "T2", n + 2..n + 3, 0));
    let after = engine.stats()[0];
    (
        after.dfs_steps - before.dfs_steps,
        after.matches_constructed - before.matches_constructed,
    )
}

/// A negated match is never built: behind the newest `T1`, a `T2`'s walk
/// visits none of the `T0`s in its window, however many there are.
#[test]
fn a_negated_arrival_visits_nothing() {
    for n in [10, 1_000] {
        assert_eq!(negated_arrival(n, false), (n, n), "{n} T0s, the T1 oldest");
        assert_eq!(negated_arrival(n, true), (0, 0), "{n} T0s, the T1 newest");
    }
}

/// The one query the scaling guard's stream completes, and `n` prefix
/// siblings `SEQ({prefix}, U2 c)` banded on `c.x` (each a pooled final
/// stack, a group member and a registered query more), whose final slot's
/// type the stream never carries.
fn with_siblings(prefix: &str, n: usize) -> Vec<String> {
    let reached =
        "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 100";
    let sibling = |i: usize| {
        format!(
            "PATTERN SEQ({prefix}, U2 c) WHERE c.x >= {i} AND c.x < {} WITHIN 100",
            i + 1
        )
    };
    let siblings = (0..n).map(sibling);
    std::iter::once(reached.to_owned())
        .chain(siblings)
        .collect()
}

/// Siblings no arrival reaches.
fn with_idle_siblings(n: usize) -> Vec<String> {
    with_siblings("U0 a, U1 b", n)
}

/// Siblings whose shared prefix stacks take every `T0` and `T1`, so their
/// group walks the prefix on each and forks its partials — to members
/// whose final stacks stay empty.
fn with_forked_siblings(n: usize) -> Vec<String> {
    with_siblings("T0 a, T1 b", n)
}

/// `n` in-order `T0`/`T1`/`T2` events over 50 tags, from id and tick `from`.
fn keyed_stream(reg: &TypeRegistry, from: u64, n: u64) -> Vec<StreamItem> {
    let event = |i: u64| {
        let ty = ["T0", "T1", "T2"][(i % 3) as usize];
        StreamItem::Event(ev(reg, ty, i, i, &[0, (i / 3 % 50) as i64]))
    };
    (from..from + n).map(event).collect()
}

/// What the keyed stream's second 3,000 arrivals allocate, and output,
/// beside 64 and beside 1,024 of `siblings`.
fn beside_few_and_many(siblings: fn(usize) -> Vec<String>) -> [(u64, (usize, usize)); 2] {
    let reg = registry();
    let (preload, measured) = (
        keyed_stream(&reg, 1, 3_000),
        keyed_stream(&reg, 3_001, 3_000),
    );
    [64, 1_024].map(|n| {
        let queries = siblings(n);
        let policy = DisorderPolicy::Conservative;
        measure(&reg, policy, &queries, &preload, &measured)
    })
}

/// Queries an arrival does not touch add nothing to what it allocates.
#[test]
fn idle_siblings_allocate_nothing_per_arrival() {
    let [few, many] = beside_few_and_many(with_idle_siblings);
    assert!(
        few.1 .0 > 500 && few.1 .1 == 0,
        "the reached query fires: {:?}",
        few.1
    );
    assert_eq!(few.1, many.1, "equal match count");
    assert_eq!(few.0, many.0, "allocations grew with idle siblings");
}

/// Members a shared prefix walk forks nothing to add nothing to what it
/// allocates.
#[test]
fn forked_siblings_allocate_nothing_per_arrival() {
    let [few, many] = beside_few_and_many(with_forked_siblings);
    assert!(few.1 .0 > 500, "the reached query fires: {:?}", few.1);
    assert_eq!(few.1, many.1, "equal match count");
    assert_eq!(few.0, many.0, "allocations grew with forked siblings");
}

/// An `EVENT_BATCH` decodes each event once, into the record the engine
/// keeps: its attribute vector and its `Arc`, and one vector for the batch.
#[test]
fn an_event_batch_decodes_each_event_once() {
    let reg = registry();
    let batch: Vec<_> = (0..64)
        .map(|i| {
            ev(
                &reg,
                ["T0", "T1"][i % 2],
                i as u64,
                i as u64,
                &[7, i as i64],
            )
        })
        .collect();
    let wire = encode_frame(&Frame::EventBatch(batch.clone()));
    let before = ALLOCATIONS.with(Cell::get);
    let decoded = decode_frame(&wire).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(decoded, Frame::EventBatch(batch));
    assert_eq!(allocations, 64 * 2 + 1);
}

fn parsed(reg: &TypeRegistry, texts: &[String]) -> Vec<Arc<Query>> {
    texts.iter().map(|t| parse(t, reg).unwrap()).collect()
}

/// A plan host with `queries` registered, and how long that took.
fn registered(queries: &[Arc<Query>]) -> (MultiEngine, Wall) {
    let config = EngineConfig::with_k(Duration::new(100));
    let mut engine = MultiEngine::new(config);
    let started = Instant::now();
    for q in queries {
        engine.register(Arc::clone(q), config.policy);
    }
    (engine, started.elapsed())
}

/// Held by a timing while it measures, so that the two do not measure
/// each other (the harness runs tests on parallel threads).
static TIMING: Mutex<()> = Mutex::new(());

/// The least of five timings of `run(few)` and of `run(many)`, taken in
/// turns, the larger first: whatever the process pays once (a heap grown
/// to size, caches) is then paid before either side's best run.
fn least_of_five(few: usize, many: usize, mut run: impl FnMut(usize) -> Wall) -> (Wall, Wall) {
    let _alone = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let mut least = (Wall::MAX, Wall::MAX);
    for _ in 0..5 {
        least.1 = least.1.min(run(many));
        least.0 = least.0.min(run(few));
    }
    least
}

/// The least of five timings of 50k keyed arrivals beside 64 and beside
/// 1,024 of `siblings`.
fn arrival_time_beside(siblings: fn(usize) -> Vec<String>) -> (Wall, Wall) {
    let reg = registry();
    let stream = keyed_stream(&reg, 1, 50_000);
    let queries = parsed(&reg, &siblings(1_024));
    least_of_five(64, 1_024, |siblings| {
        let (mut engine, _) = registered(&queries[..=siblings]);
        let started = Instant::now();
        let outputs = stream.chunks(256).map(|chunk| {
            let per_item = engine.ingest_batch(chunk);
            per_item.iter().map(Vec::len).sum::<usize>()
        });
        assert!(outputs.sum::<usize>() > 10_000, "the reached query fires");
        started.elapsed()
    })
}

/// Queries an arrival does not touch add next to nothing to its time: the
/// tail of an arrival visits the queries that hold a sealed record or got
/// an output, and a purge round the stacks that hold an instance, not
/// every registered query or stack.
#[test]
#[cfg_attr(debug_assertions, ignore = "a timing: release builds only")]
fn idle_siblings_cost_an_arrival_next_to_nothing() {
    let (few, many) = arrival_time_beside(with_idle_siblings);
    assert!(
        many.as_secs_f64() <= 1.3 * few.as_secs_f64(),
        "50k arrivals took {few:?} beside 64 siblings, {many:?} beside 1,024"
    );
}

/// Queries sharing the nodes an arrival changes add next to nothing to
/// its time: the shared stacks count once for all their readers, the
/// group's walk once for all its members, and a partial is forked to the
/// live members only.
#[test]
#[cfg_attr(debug_assertions, ignore = "a timing: release builds only")]
fn forked_siblings_cost_an_arrival_next_to_nothing() {
    let (few, many) = arrival_time_beside(with_forked_siblings);
    assert!(
        many.as_secs_f64() <= 1.3 * few.as_secs_f64(),
        "50k arrivals took {few:?} beside 64 siblings, {many:?} beside 1,024"
    );
}

/// Registering costs each query the same: twice the siblings take about
/// twice as long, where recompiling the plan per registration made it four
/// times.
#[test]
#[cfg_attr(debug_assertions, ignore = "a timing: release builds only")]
fn registration_time_is_linear_in_the_siblings() {
    let reg = registry();
    let queries = parsed(&reg, &with_idle_siblings(1_024));
    let (half, all) = least_of_five(512, 1_024, |siblings| registered(&queries[..=siblings]).1);
    assert!(
        all <= 3 * half,
        "512 siblings registered in {half:?}, 1,024 in {all:?}"
    );
}

/// `depth` in-order instances at the even ticks `0, 2, …`, id = position.
fn in_order(reg: &TypeRegistry, depth: u64) -> Vec<EventRef> {
    let ty = reg.lookup("T0").unwrap();
    let at = |i: u64| Event::builder(ty, Timestamp::new(2 * i)).id(EventId::new(i));
    (0..depth).map(|i| Arc::new(at(i).build())).collect()
}

/// A stack holding `events`, inserted in order.
fn stacked(events: &[EventRef]) -> AisStack {
    let mut stack = AisStack::new();
    for e in events {
        stack.insert(Arc::clone(e));
    }
    stack
}

/// Late instances at odd ticks: the `j`-th lands `displaced + step·j`
/// positions below the top of `in_order(depth)`.
fn late(reg: &TypeRegistry, depth: u64, displaced: u64, step: u64, n: u64) -> Vec<EventRef> {
    let ty = reg.lookup("T0").unwrap();
    let at = |j: u64| {
        let ts = 2 * (depth - displaced - step * j) - 1;
        Event::builder(ty, Timestamp::new(ts)).id(EventId::new(1_000_000 + j))
    };
    (0..n).map(|j| Arc::new(at(j).build())).collect()
}

/// A late insert costs what its chunk holds: 32 inserts landing ~5,000
/// positions deep in a 30k-deep stack take at most three times what 32
/// landing ~50 deep in a 300-deep stack do (under 2.2× on a 2-core x86-64
/// VM). A stack that moves every younger instance to make room, one flat
/// sorted vector, pays for the displacement: 5.7× on the same machine.
#[test]
#[cfg_attr(debug_assertions, ignore = "a timing: release builds only")]
fn a_late_insert_costs_the_same_however_deep_it_lands() {
    let reg = registry();
    let shallow = (in_order(&reg, 300), late(&reg, 300, 50, 1, 32));
    let deep = (in_order(&reg, 30_000), late(&reg, 30_000, 5_000, 1, 32));
    let (few, many) = least_of_five(300, 30_000, |depth| {
        let (base, late) = if depth == 300 { &shallow } else { &deep };
        let mut least = Wall::MAX;
        for _ in 0..20 {
            let mut stack = stacked(base);
            let late = late.clone();
            let started = Instant::now();
            for e in late {
                assert!(stack.insert(e).is_some());
            }
            least = least.min(started.elapsed());
        }
        least
    });
    assert!(
        many <= 3 * few,
        "32 late inserts took {few:?} ~50 deep in 300, {many:?} ~5,000 deep in 30,000"
    );
}

/// Purging a deep stack, part or all of it, allocates nothing; a late
/// insert among the newest instances allocates nothing either, unless it
/// overflows them into a new chunk (two buffers, one insert in many).
#[test]
fn stack_purge_and_near_top_inserts_allocate_nothing() {
    let reg = registry();
    let ty = reg.lookup("T0").unwrap();
    let mut stack = stacked(&in_order(&reg, 30_000));
    // the top shares its timestamp with every late instance, which sort
    // below it by id: each lands one position under the top
    let top_ts = Timestamp::new(60_000);
    let top = Event::builder(ty, top_ts).id(EventId::new(u64::MAX));
    stack.insert(Arc::new(top.build()));
    let mut spills = 0;
    for j in 0..1_000u64 {
        let late = Arc::new(Event::builder(ty, top_ts).id(EventId::new(j)).build());
        let before = ALLOCATIONS.with(Cell::get);
        assert_eq!(stack.insert(late), Some(false));
        match ALLOCATIONS.with(Cell::get) - before {
            0 => {}
            2 => spills += 1,
            n => panic!("a late insert near the top allocated {n} times"),
        }
    }
    assert!(spills <= 10, "{spills} of 1,000 near-top inserts allocated");
    let len = stack.len();
    for threshold in [30_000, 45_000, u64::MAX] {
        let before = ALLOCATIONS.with(Cell::get);
        stack.purge_before(Timestamp::new(threshold));
        assert_eq!(
            ALLOCATIONS.with(Cell::get) - before,
            0,
            "purge to {threshold}"
        );
    }
    assert!(len > 30_000 && stack.is_empty());
}
