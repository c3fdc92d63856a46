//! Fig. 7(b) — SCAN operation, software vs hardware NDP, [1] vs ours.
//!
//! Criterion measures the harness cost of a scaled SCAN simulation; the
//! simulated device times (the figure's values) print once per case.

use bench::harness::Criterion;
use bench::{build_db, DbKind};
use bench::{criterion_group, criterion_main};
use ndp_pe::oracle::FilterRule;
use ndp_workload::spec::{paper_lanes, ref_lanes};
use nkv::Backend;
use std::hint::black_box;

const SCALE: f64 = 1.0 / 512.0;

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7b_scan");
    group.sample_size(10);
    for (kind, kname) in [(DbKind::Baseline, "base"), (DbKind::Ours, "ours")] {
        let mut ds = build_db(SCALE, kind);
        for (mode, mname) in [(Backend::Software, "sw"), (Backend::Hardware, "hw")] {
            let paper_rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2019 }];
            let ref_rules = [FilterRule { lane: ref_lanes::YEAR, op_code: 2, value: 1980 }];
            let p = ds.db.scan("papers", &paper_rules, mode).unwrap();
            let r = ds.db.scan("refs", &ref_rules, mode).unwrap();
            println!(
                "fig7b[{kname}/{mname}]: simulated {:.4} s at scale 1/512 \
                 ({} + {} matches)",
                (p.report.sim_ns + r.report.sim_ns) as f64 / 1e9,
                p.count,
                r.count
            );
            group.bench_function(format!("{kname}_{mname}"), |b| {
                b.iter(|| {
                    let s = ds.db.scan("refs", black_box(&ref_rules), mode).unwrap();
                    black_box(s.count)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scan);
criterion_main!(benches);
