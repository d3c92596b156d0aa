//! Candidate selection costs what it selects, not what the predicate holds.
//!
//! Every qualified fact lives in the one reified relation `h/5`, so a
//! range index over it keeps almost every clause on its unkeyed side: an
//! `any`-qualified fact has no instant for the `tat` path. A call whose
//! time slot is `any` still applies that index (it selects the unkeyed
//! clauses alone), and the selection must walk the small hash selection
//! against the borrowed unkeyed list rather than copy that list. Counted
//! here by allocation: a copy of 10⁵ positions is 400 KB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gdp::core::{FactPat, Pat, Specification};
use gdp::engine::{BindStore, BoundSet, PredKey, Term};

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
