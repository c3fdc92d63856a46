//! Fig. 7(a) — GET operation, software vs hardware NDP, [1] vs ours.
//!
//! Criterion measures the wall-clock cost of simulating one GET; the
//! figure's *simulated device times* are printed once per configuration
//! so a bench run also regenerates the figure's data points.

use bench::harness::Criterion;
use bench::{build_db, DbKind};
use bench::{criterion_group, criterion_main};
use ndp_workload::PaperGen;
use nkv::Backend;
use std::hint::black_box;

const SCALE: f64 = 1.0 / 512.0;

fn bench_get(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7a_get");
    group.sample_size(20);
    for (kind, kname) in [(DbKind::Baseline, "base"), (DbKind::Ours, "ours")] {
        let mut ds = build_db(SCALE, kind);
        for (mode, mname) in [(Backend::Software, "sw"), (Backend::Hardware, "hw")] {
            // Report the simulated device time once (the figure's value).
            let p = PaperGen::paper_at(&ds.cfg, ds.cfg.papers / 2);
            let (_, rep) = ds.db.get("papers", p.id, mode).unwrap();
            println!("fig7a[{kname}/{mname}]: simulated {:.3} ms/GET", rep.sim_ns as f64 / 1e6);

            let mut i = 0u64;
            group.bench_function(format!("{kname}_{mname}"), |b| {
                b.iter(|| {
                    i = (i + 7919) % ds.cfg.papers;
                    let p = PaperGen::paper_at(&ds.cfg, i);
                    let (rec, _) = ds.db.get("papers", black_box(p.id), mode).unwrap();
                    black_box(rec)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_get);
criterion_main!(benches);
