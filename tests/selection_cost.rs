//! Candidate selection costs what it selects, not what the predicate holds.
//!
//! Every qualified fact lives in the one reified relation `h/5`, so a
//! range index over it keeps almost every clause on its unkeyed side: an
//! `any`-qualified fact has no instant for the `tat` path. A call whose
//! time slot is `any` still applies that index (it selects the unkeyed
//! clauses alone), and the selection must walk the small hash selection
//! against the borrowed unkeyed list rather than copy that list. Counted
//! here by allocation: a copy of 10⁵ positions is 400 KB.
//!
//! A lookup that names one object costs that object's facts, not its
//! relation's. In `p(v)(o)` the reified argument list is `[v, o]`, and the
//! kernel keys it by its second element as well as its first, so a call
//! that binds only the object selects by it. Counted here in steps, which
//! are deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gdp::core::{FactPat, Pat, Specification};
use gdp::engine::{BindStore, BoundSet, PredKey, Term};
use gdp::server::{ServeOptions, ServerState, Session};

// ----- allocation counting --------------------------------------------------

/// The system allocator, counting the bytes each thread asks for.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = ALLOCATED.try_with(|allocated| allocated.set(allocated.get() + size));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning its value and the bytes it allocated on this thread.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let value = f();
    (value, ALLOCATED.with(Cell::get) - before)
}

// ----- the guard ------------------------------------------------------------

#[test]
fn an_any_time_call_over_a_hundred_thousand_facts_copies_no_index_list() {
    let mut spec = Specification::new();
    for i in 0..100_000 {
        spec.assert_fact(
            FactPat::new("p")
                .arg(Pat::Atom(format!("k{}", i % 1_000)))
                .arg(Pat::Int(i)),
        )
        .expect("ground fact");
    }
    // What is measured is the indexed selection, whatever `GDP_INDEX`
    // says for the rest of the suite.
    spec.kb_mut().set_indexing(true);
    let kb = spec.kb();
    let key = PredKey::new("h", 5);
    assert!(kb.clauses_of(key).len() >= 100_000);
    // h(omega, any, any, p, [k42, _])
    let args = [
        Term::atom("omega"),
        Term::atom("any"),
        Term::atom("any"),
        Term::atom("p"),
        Term::list(vec![Term::atom("k42"), Term::var(0)]),
    ];
    let mut store = BindStore::new();
    store.ensure(0);
    let bounds = BoundSet::default();
    let (picked, bytes) = allocated_by(|| kb.candidates(key, &store, &args, &bounds).len());
    assert_eq!(picked, 100, "the facts about k42");
    assert!(
        bytes < 16 << 10,
        "selecting {picked} of {} clauses allocated {bytes} bytes",
        kb.clauses_of(key).len()
    );
}

// ----- lookups by object ----------------------------------------------------

/// A small world shaped like the benchmark's query world: 250 bridges with
/// three timed `status` readings each, 3,000 accuracy-qualified depth
/// soundings, and 300 bridges over 100 roads.
fn object_world() -> String {
    let mut world = String::from("#activate continuity_assumption.\n");
    for b in 0..250 {
        for (year, status) in [(1900, "open"), (1925, "closed"), (1950, "open")] {
            world.push_str(&format!("& {year} status({status})(b{b}).\n"));
        }
    }
    for s in 0..3_000 {
        let depth = 2.0 + (s % 97) as f64 / 4.0;
        let conf = 0.5 + (s % 41) as f64 / 100.0;
        world.push_str(&format!("%{conf:.2} depth({depth:.1})(s{s}).\n"));
    }
    for r in 0..100 {
        world.push_str(&format!("road(r{r}). connects(r{r}, c{r}, c{}).\n", r + 1));
    }
    for b in 0..300 {
        world.push_str(&format!("bridge(b{b}, r{}).\n", b % 100));
        if b % 7 != 0 {
            world.push_str(&format!("open(b{b}).\n"));
        }
    }
    world.push_str("open_road(X) :- road(X), forall(bridge(Y, X), open(Y)).\n");
    world
}

/// Run `query` and return its answers and the steps it took.
fn answer(session: &mut Session, query: &str) -> (String, u64) {
    let say = |session: &mut Session, line: &str| {
        let mut out = Vec::new();
        assert!(session.line(line, &mut out).expect("in-memory write"));
        String::from_utf8(out).expect("utf8")
    };
    let answers = say(session, query);
    let stats = say(session, ":stats");
    let steps = stats
        .lines()
        .find_map(|l| l.strip_prefix("last query: "))
        .and_then(|l| l.split(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("a step count");
    (answers, steps)
}

#[test]
fn a_lookup_by_object_costs_that_objects_facts() {
    let world = object_world();
    let open = |mode: &str| {
        let mut session =
            Session::new(ServerState::new().expect("state"), &ServeOptions::default());
        let mut out = Vec::new();
        session.block(&world, &mut out).expect("in-memory write");
        let out = String::from_utf8(out).expect("utf8");
        assert!(out.contains("committed as seq 1"), "{out}");
        session
            .line(mode, &mut Vec::new())
            .expect("in-memory write");
        session
    };
    let (mut indexed, mut plain) = (open(":index on"), open(":index off"));
    // Each statement names one object: 3 readings of 750, 1 sounding of
    // 3,000, 3 bridges of 300. The bounds sit just above what the object's
    // own facts cost (410, 9, 157 and 103 steps); keyed only by the list's
    // first element, the value, each scanned its whole relation.
    for (query, bound) in [
        ("?- & 1926 status(S)(b56).", 500),
        ("?- %A depth(Z)(s1734), A > 0.603.", 20),
        ("?- open_road(r37).", 200),
        ("?- open_road(r42).", 150),
    ] {
        let (got, steps) = answer(&mut indexed, query);
        let (want, plain_steps) = answer(&mut plain, query);
        assert_eq!(got, want, "{query}: indexed and unindexed answers differ");
        assert!(
            steps <= bound,
            "{query} took {steps} steps (bound {bound}; unindexed {plain_steps})"
        );
        assert!(!got.starts_with("error"), "{query}: {got}");
    }
}

// ----- every family ---------------------------------------------------------

/// A small geography shaped like the benchmark's query world: a 32 × 32
/// fine land-cover grid under an 8 × 8 coarse one, `cities` cities, roads
/// between them, bridges with timed status readings and accuracy-qualified
/// soundings. The first 120 cities sit inside the grids; the rest, which a
/// twin adds, sit beside them (x from 40), where no statement below looks.
fn geography(cities: u64) -> String {
    let mut world = String::from(
        "#grid fine square(0, 0, 1, 32, 32).\n\
         #grid coarse square(0, 0, 4, 8, 8).\n\
         #activate continuity_assumption.\n",
    );
    let covers = ["marsh", "water", "forest", "field"];
    for j in 0..32 {
        for i in 0..32 {
            let cover = covers[(i * 7 + j * 3) % 4];
            world.push_str(&format!("@u[fine] pt({i}.5, {j}.5) cover({cover}).\n"));
        }
    }
    for b in 0..8 {
        for a in 0..8 {
            let (x, y) = (a * 4 + 2, b * 4 + 2);
            world.push_str(&format!(
                "@u[coarse] pt({x}.0, {y}.0) landuse(u{}).\n",
                (a + b) % 3
            ));
        }
    }
    for c in 0..cities {
        let mix = (c % 120).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20;
        let (x, y) = (
            (mix % 3197) as f64 / 100.0,
            ((mix >> 12) % 3197) as f64 / 100.0,
        );
        let x = x + 40.0 * (c / 120) as f64;
        world.push_str(&format!("@ pt({x:.2}, {y:.2}) city(c{c}).\n"));
    }
    for r in 0..cities {
        world.push_str(&format!(
            "road(r{r}). connects(r{r}, c{r}, c{}).\n",
            (r + 1) % cities
        ));
    }
    for b in 0..cities {
        world.push_str(&format!("bridge(b{b}, r{}).\n", (b * 7) % cities));
        if b % 5 != 0 {
            world.push_str(&format!("open(b{b}).\n"));
        }
        for (year, status) in [(1900, "open"), (1925, "closed"), (1950, "open")] {
            world.push_str(&format!("& {year} status({status})(b{b}).\n"));
        }
    }
    for s in 0..300 {
        let depth = 2.0 + (s % 97) as f64 / 4.0;
        let conf = 0.5 + (s % 41) as f64 / 100.0;
        world.push_str(&format!("%{conf:.2} depth({depth:.1})(s{s}).\n"));
    }
    world.push_str(
        "open_road(X) :- road(X), forall(bridge(Y, X), open(Y)).\n\
         linked(A, B) :- connects(R, A, B), open_road(R).\n\
         linked(A, B) :- connects(R, B, A), open_road(R).\n",
    );
    world
}

/// One statement per family costs what it answers: each stays under a
/// step bound near its own answers' cost, and on a twin with twice the
/// cities the proximity and area-sampled statements, whose answers do not
/// change, take the same steps — the unindexed scan's grow with the count.
/// What is measured is selection on the untabled path, whatever
/// `GDP_TABLING` says for the rest of the suite: a tabled statement's
/// steps are the evaluation of its call's generic pattern.
#[test]
fn every_family_costs_what_it_answers() {
    let open = |cities: u64, mode: &str| {
        let mut session =
            Session::new(ServerState::new().expect("state"), &ServeOptions::default());
        let mut out = Vec::new();
        session
            .block(&geography(cities), &mut out)
            .expect("in-memory write");
        let out = String::from_utf8(out).expect("utf8");
        assert!(out.contains("committed as seq 1"), "{out}");
        for line in [mode, ":table off"] {
            session
                .line(line, &mut Vec::new())
                .expect("in-memory write");
        }
        session
    };
    let (mut indexed, mut plain) = (open(120, ":index on"), open(120, ":index off"));
    let (mut twin, mut plain_twin) = (open(240, ":index on"), open(240, ":index off"));
    for (query, bound, same_on_twin) in [
        ("?- connects(r17, A, B).", 20, false),
        ("?- @ pt(12.3, 17.8) cover(C).", 150, false),
        ("?- @ pt(12.3, 17.8) landuse(L).", 150, false),
        ("?- @s[coarse] pt(14.0, 18.0) city(C).", 400, true),
        (
            "?- @ P city(c7), @ Q city(C), dist(P, Q, D), D < 5.0.",
            200,
            true,
        ),
        ("?- open_road(r37).", 60, false),
        ("?- & 1926 status(S)(b56).", 200, false),
        ("?- %A depth(Z)(s180), A > 0.6.", 20, false),
    ] {
        let (got, steps) = answer(&mut indexed, query);
        let (want, plain_steps) = answer(&mut plain, query);
        assert_eq!(got, want, "{query}: indexed and unindexed answers differ");
        assert!(
            !got.starts_with("error") && got != "no.\n",
            "{query}: {got}"
        );
        assert!(
            steps <= bound,
            "{query} took {steps} steps (bound {bound}; unindexed {plain_steps})"
        );
        if same_on_twin {
            let (twin_got, twin_steps) = answer(&mut twin, query);
            let (_, plain_twin_steps) = answer(&mut plain_twin, query);
            assert_eq!(twin_got, got, "{query}: the twin's extra cities answered");
            assert_eq!(
                twin_steps, steps,
                "{query}: {steps} steps over 120 cities, {twin_steps} over 240"
            );
            assert!(
                plain_twin_steps > plain_steps,
                "{query}: the unindexed scan should grow with the cities"
            );
        }
    }
}
