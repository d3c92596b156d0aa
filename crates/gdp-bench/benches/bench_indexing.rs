//! B3 — first-argument indexing vs the unindexed scan (the 1986-Prolog
//! baseline). Who wins, by how much, and how the gap scales with the fact
//! base.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdp::prelude::*;
use gdp_bench::workloads::fact_base;

fn bench_indexed_vs_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("B3_indexing");
    for n in [100usize, 1_000, 10_000] {
        // Three regimes: full multi-argument indexing (this system),
        // classic first-argument indexing (useless on the reified h/5,
        // whose first argument is nearly always the default model ω), and
        // the unindexed scan (the 1986 Prolog baseline).
        for label in ["multi_arg", "first_arg_only", "unindexed"] {
            let mut spec = fact_base(n, label != "unindexed");
            if label == "first_arg_only" {
                spec.kb_mut().set_index_args(
                    gdp::engine::PredKey::new("h", 5),
                    &[gdp::engine::ArgPath::arg(0)],
                );
            }
            let probe = FactPat::new("site")
                .arg(Pat::Atom(format!("s{}", n - 1)))
                .arg(Pat::Int((n - 1) as i64));
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| assert!(spec.provable(probe.clone()).unwrap()))
            });
        }
    }
    group.finish();
}

fn bench_negative_lookup(c: &mut Criterion) {
    // Failing lookups are the worst case for the scan baseline.
    let mut group = c.benchmark_group("B3_negative_lookup");
    for (label, indexing) in [("indexed", true), ("unindexed", false)] {
        let spec = fact_base(10_000, indexing);
        let probe = FactPat::new("site").arg("missing").arg(Pat::Int(-1));
        group.bench_function(label, |b| {
            b.iter(|| assert!(!spec.provable(probe.clone()).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_indexed_vs_scan, bench_negative_lookup);
criterion_main!(benches);
