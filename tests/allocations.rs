//! Allocation budgets for the executor's hot loops. A per-thread counting
//! global allocator measures every heap allocation (alloc, alloc_zeroed
//! and realloc) made while one plan of the `common` family drains
//! serially on the test thread over a fixed corpus, and each count must
//! stay at or under its pinned ceiling. An allocation added inside an
//! operator's per-tuple loop multiplies by the corpus size and breaks its
//! pin; one hoisted out of a loop lowers the count.
//!
//! The counts are exact: they repeat run to run, and debug and release
//! builds agree. A change may lower a pin freely; raising one needs a
//! stated reason.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::*;
use impliance::docmodel::{DocId, DocumentBuilder, SourceFormat, Value};
use impliance::query::{JoinAlgo, LogicalPlan};
use impliance::storage::{AggFunc, Predicate};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // a const-initialised Cell has no destructor, so this never fails
    // mid-teardown; `try_with` keeps it panic-free regardless
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Documents per collection.
const DOCS: u64 = 800;

/// `(plan, columnar, batch size, ceiling)`, measured at 800 documents
/// per collection.
const PINS: [(&str, bool, usize, u64); 16] = [
    ("filter_project", false, 64, 53_836),
    ("filter_project", false, 1024, 53_742),
    ("filter_project", true, 64, 52_633),
    ("filter_project", true, 1024, 52_280),
    ("group_agg", false, 64, 53_063),
    ("group_agg", false, 1024, 52_983),
    ("group_agg", true, 64, 51_873),
    ("group_agg", true, 1024, 51_533),
    ("hash_join", false, 64, 109_316),
    ("hash_join", false, 1024, 109_112),
    ("hash_join", true, 64, 109_316),
    ("hash_join", true, 1024, 109_112),
    ("sort_limit", false, 64, 52_258),
    ("sort_limit", false, 1024, 52_181),
    ("sort_limit", true, 64, 52_258),
    ("sort_limit", true, 1024, 52_181),
];

/// `c` rows with an amount and a group key; `l` and `r` rows sharing a
/// join key, every `l` row matching exactly one `r` row.
fn corpus() -> Fixture {
    let f = Fixture::new(4, 64);
    let put = |id: u64, collection: &str, fields: &[(&str, i64)]| {
        let mut b = DocumentBuilder::new(DocId(id), SourceFormat::Json, collection);
        for (name, value) in fields {
            b = b.field(name, *value);
        }
        f.put(&b.build());
    };
    for i in 0..DOCS {
        let n = i as i64;
        put(i, "c", &[("amount", n * 37 % 1000), ("g", n % 7)]);
        put(DOCS + i, "l", &[("k", n), ("v", n * 13 % 100)]);
        put(2 * DOCS + i, "r", &[("k", (n * 7) % DOCS as i64)]);
    }
    f
}

fn plan(name: &str) -> LogicalPlan {
    match name {
        "filter_project" => project(
            filter(
                scan("c"),
                "c",
                Predicate::Ge("amount".into(), Value::Int(500)),
            ),
            &["amount", "_id"],
        ),
        "group_agg" => group_agg(
            scan("c"),
            "g",
            vec![
                agg(AggFunc::Sum, Some("amount"), "total"),
                agg(AggFunc::Count, None, "n"),
            ],
        ),
        "hash_join" => join(scan("r"), JoinAlgo::Hash),
        _ => sort_limit("amount", true, 10),
    }
}

/// Allocations the calling thread makes while `plan` drains in `mode`.
fn allocations(f: &Fixture, plan: &LogicalPlan, mode: Mode) -> (u64, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let (out, _) = run(f, plan, mode, None);
    let made = ALLOCATIONS.with(Cell::get) - before;
    (made, render(&out).len())
}

#[test]
fn hot_loop_allocations_stay_under_their_pins() {
    let f = corpus();
    let mut report = Vec::new();
    let mut over = Vec::new();
    for (name, columnar, batch_size, pin) in PINS {
        let plan = plan(name);
        let mode = Mode {
            batch_size,
            columnar,
            ..REFERENCE
        };
        // the first drain registers metric handles and other lazy state
        let (_, warm_rows) = allocations(&f, &plan, mode);
        let (made, rows) = allocations(&f, &plan, mode);
        assert_eq!(rows, warm_rows, "{name}: answers differ between drains");
        assert!(rows > 0, "{name}: the plan answers nothing");
        report.push(format!(
            "    (\"{name}\", {columnar}, {batch_size}, {made}),"
        ));
        if made > pin {
            over.push(format!(
                "{name} columnar={columnar} batch={batch_size}: {made} > {pin}"
            ));
        }
    }
    assert!(
        over.is_empty(),
        "allocation pins exceeded:\n  {}\ncounts this run:\n{}",
        over.join("\n  "),
        report.join("\n")
    );
}
