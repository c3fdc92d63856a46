//! Differential suite for the device-DRAM block cache.
//!
//! Contract: the cache changes *when* bytes arrive (a DRAM-port burst
//! instead of a flash read), never *which* bytes. Every backend —
//! software ARM walk, hardware PEs (serial and parallel dispatch), and
//! the hybrid pushdown split — must return byte-identical results with
//! the cache on and off, across clean and injected-fault weather and
//! under interleaved PUT/flush/compaction churn. Fault RNG draws
//! legitimately differ between the cached and uncached runs (a hit
//! skips the flash read that would have rolled the fault), so the suite
//! compares result *bytes*, never health counters or timings.

use cosmos_sim::faults::FaultPlan;
use ndp_ir::AggOp;
use ndp_pe::oracle::FilterRule;
use ndp_workload::spec::{paper_lanes, ref_lanes, PAPER_PE, PAPER_REF_SPEC, REF_PE};
use ndp_workload::{PaperGen, PubGraphConfig, RefGen};
use nkv::{Backend, LogicalOp, NkvDb, PlanOutcome, TableConfig};

const TABLE: &str = "papers";
/// The default device budget the acceptance gate measures at.
const CACHE_BUDGET: usize = 8 << 20;

/// The three weathers every comparison runs under.
fn weathers() -> Vec<(&'static str, Option<FaultPlan>)> {
    vec![
        ("clean", None),
        (
            "transient-read-faults",
            Some(FaultPlan { seed: 11, transient_read_p: 0.01, ..FaultPlan::default() }),
        ),
        ("pe-hang-storm", Some(FaultPlan { seed: 13, pe_hang_p: 1.0, ..FaultPlan::default() })),
    ]
}

/// A bulk-loaded papers table (4 PEs) with ~10 % PUT churn on top, the
/// cache optionally enabled before any data lands. With `two_tables`
/// the papers data arrives in two bulk loads and a bulk-loaded refs
/// table shares the device, so SST ids must be unique across tables
/// and bulk loads or the cache hands one SST's blocks to another's
/// reads; a refs scan right after a papers scan is checked against the
/// generator.
fn seeded_db(n_records: u64, cache: bool, two_tables: bool) -> (NkvDb, PubGraphConfig) {
    let module = ndp_spec::parse(PAPER_REF_SPEC).expect("reference spec parses");
    let pe = ndp_ir::elaborate(&module, PAPER_PE).expect("paper PE elaborates");
    let mut db = NkvDb::default_db();
    if cache {
        db.enable_cache(CACHE_BUDGET);
    }
    let mut cfg = TableConfig::new(pe);
    cfg.n_pes = 4;
    db.create_table(TABLE, cfg).expect("table");
    let mut wl = PubGraphConfig::scaled(1.0 / 4096.0);
    wl.papers = n_records;
    wl.refs = 20_000;
    let paper = |i| {
        let mut rec = Vec::with_capacity(80);
        PaperGen::paper_at(&wl, i).encode_into(&mut rec);
        rec
    };
    let split = if two_tables { wl.papers / 2 } else { wl.papers };
    db.bulk_load(TABLE, (0..split).map(paper)).expect("bulk load");
    if split < wl.papers {
        db.bulk_load(TABLE, (split..wl.papers).map(paper)).expect("second bulk load");
    }
    for i in (0..wl.papers).step_by(11) {
        let mut p = PaperGen::paper_at(&wl, i);
        p.n_cits = p.n_cits.wrapping_add(1_000);
        let mut rec = Vec::with_capacity(80);
        p.encode_into(&mut rec);
        db.put(TABLE, rec).expect("put");
    }
    if two_tables {
        let mut refs = TableConfig::new(ndp_ir::elaborate(&module, REF_PE).expect("ref PE"));
        refs.unique_keys = false;
        db.create_table("refs", refs).expect("refs table");
        let rows = RefGen::new(wl).take(wl.refs as usize);
        db.bulk_load(
            "refs",
            rows.map(|r| {
                let mut rec = Vec::with_capacity(20);
                r.encode_into(&mut rec);
                rec
            }),
        )
        .expect("refs bulk load");
        let want = RefGen::new(wl).take(wl.refs as usize).filter(|r| r.year == 1980).count();
        let rules = [FilterRule { lane: ref_lanes::YEAR, op_code: 2 /* eq */, value: 1980 }];
        db.scan(TABLE, &[year_rule(1900)], Backend::Software).expect("papers scan");
        let refs = db.scan("refs", &rules, Backend::Software).expect("refs scan");
        assert!(want > 0, "the refs predicate must match something");
        assert_eq!(refs.count as usize, want, "refs scan after a papers scan (cache={cache})");
    }
    (db, wl)
}

fn year_rule(value: u64) -> FilterRule {
    FilterRule { lane: paper_lanes::YEAR, op_code: 4, value }
}

/// Run the whole read mix — SCAN on every backend (serial + parallel
/// dispatch), RANGE_SCAN (hybrid split), GETs — twice (cold + warm) and
/// return the concatenated result bytes.
fn read_mix(db: &mut NkvDb, wl: &PubGraphConfig) -> Vec<u8> {
    let mut out = Vec::new();
    let rules = [year_rule(2005)];
    for _round in 0..2 {
        let sw = db.scan(TABLE, &rules, Backend::Software).expect("sw scan");
        out.extend_from_slice(&sw.records);
        for streams in [0usize, 2] {
            db.set_parallel_pes(TABLE, streams).expect("4 PEs configured");
            let hw = db.scan(TABLE, &rules, Backend::Hardware).expect("hw scan");
            out.extend_from_slice(&hw.records);
        }
        db.set_parallel_pes(TABLE, 0).expect("reset");
        let op = LogicalOp::Scan { rules: rules.to_vec() };
        match db.execute(TABLE, &op, Backend::Hybrid).expect("hybrid scan") {
            PlanOutcome::Records { records, .. } => out.extend_from_slice(&records),
            other => panic!("scan must produce records, got {other:?}"),
        }
        let lo = PaperGen::paper_at(wl, wl.papers / 4).id;
        let hi = PaperGen::paper_at(wl, 3 * wl.papers / 4).id;
        match db.execute(TABLE, &LogicalOp::RangeScan { lo, hi }, Backend::Hybrid).expect("range") {
            PlanOutcome::Records { records, .. } => out.extend_from_slice(&records),
            other => panic!("range scan must produce records, got {other:?}"),
        }
        for i in [0, wl.papers / 3, wl.papers - 1] {
            let key = PaperGen::paper_at(wl, i).id;
            for mode in [Backend::Software, Backend::Hardware] {
                let (rec, _) = db.get(TABLE, key, mode).expect("get");
                out.extend_from_slice(&rec.expect("loaded key must be found"));
            }
        }
    }
    out
}

#[test]
fn read_mix_is_byte_identical_with_and_without_cache_across_weathers() {
    let runs =
        [false, true].into_iter().flat_map(|two| weathers().into_iter().map(move |w| (two, w)));
    for (two_tables, (weather, plan)) in runs {
        let name = format!("{weather}, two_tables={two_tables}");
        let (mut plain, wl) = seeded_db(8_000, false, two_tables);
        let (mut cached, _) = seeded_db(8_000, true, two_tables);
        if let Some(p) = &plan {
            plain.platform_mut().install_faults(p);
            cached.platform_mut().install_faults(p);
        }
        let a = read_mix(&mut plain, &wl);
        let b = read_mix(&mut cached, &wl);
        assert_eq!(a, b, "cached read mix must be byte-identical under {name}");
        assert_eq!(plain.cache_stats(), None, "cache default-off");
        let s = cached.cache_stats().expect("cache enabled");
        assert_eq!(s.hits + s.misses, s.lookups, "counter conservation under {name}: {s:?}");
        assert!(s.hits > 0, "the warm round must hit under {name}: {s:?}");
        assert!(s.insertions > 0, "misses must admit under {name}: {s:?}");
    }
}

#[test]
fn warm_repeated_scans_reach_the_acceptance_hit_rate() {
    let (mut db, _) = seeded_db(8_000, true, false);
    let rules = [year_rule(2000)];
    let mut first = None;
    for _ in 0..4 {
        let s = db.scan(TABLE, &rules, Backend::Hardware).expect("hw scan");
        let first = first.get_or_insert_with(|| s.records.clone());
        assert_eq!(&s.records, first, "every repetition returns the same bytes");
    }
    let s = db.cache_stats().expect("cache enabled");
    assert!(s.hit_rate() >= 0.5, "repeated scans at the default budget must hit >= 50%: {s:?}");
}

#[test]
fn interleaved_puts_compactions_and_scans_stay_coherent() {
    // Tiny memtable + low C1 limit: the PUT stream below forces flushes
    // and multi-level compactions *between* scans, so the cache sees
    // constant SST retirement while it is being repopulated.
    let build = |cache: bool| {
        let module = ndp_spec::parse(PAPER_REF_SPEC).expect("reference spec parses");
        let pe = ndp_ir::elaborate(&module, PAPER_PE).expect("paper PE elaborates");
        let mut db = NkvDb::default_db();
        if cache {
            db.enable_cache(CACHE_BUDGET);
        }
        let mut cfg = TableConfig::new(pe);
        cfg.n_pes = 2;
        cfg.lsm.memtable_bytes = 8 * 1024;
        cfg.lsm.c1_sst_limit = 2;
        db.create_table(TABLE, cfg).expect("table");
        db
    };
    let mut plain = build(false);
    let mut cached = build(true);
    let wl = PubGraphConfig { papers: 1_500, refs: 1_500, seed: 29 };
    let rules = [year_rule(1900)]; // matches everything: full coherence check
    let mut written = 0u64;
    for (i, p) in PaperGen::new(wl).enumerate() {
        let mut rec = Vec::with_capacity(80);
        p.encode_into(&mut rec);
        plain.put(TABLE, rec.clone()).expect("plain put");
        cached.put(TABLE, rec).expect("cached put");
        written += 1;
        if i % 250 == 249 {
            let mode = if i % 500 == 499 { Backend::Hardware } else { Backend::Software };
            let a = plain.scan(TABLE, &rules, mode).expect("plain scan");
            let b = cached.scan(TABLE, &rules, mode).expect("cached scan");
            assert_eq!(a.records, b.records, "scan after {written} puts");
            assert_eq!(b.count, written, "no stale or lost records after {written} puts");
        }
    }
    let s = cached.cache_stats().expect("cache enabled");
    assert!(s.invalidations > 0, "compaction churn must invalidate cached blocks: {s:?}");
    assert_eq!(s.hits + s.misses, s.lookups, "counter conservation: {s:?}");
}

#[test]
fn aggregates_are_identical_with_and_without_cache() {
    let module = ndp_spec::parse(
        "/* @autogen define parser RefAgg with chunksize = 32,
            input = Ref, output = Ref, aggregate = { count, sum, min, max } */
         typedef struct { uint64_t src; uint64_t dst; uint32_t year; } Ref;",
    )
    .expect("aggregate spec parses");
    let pe = ndp_ir::elaborate(&module, "RefAgg").expect("RefAgg elaborates");
    let build = |cache: bool| {
        let mut db = NkvDb::default_db();
        if cache {
            db.enable_cache(CACHE_BUDGET);
        }
        let mut cfg = TableConfig::new(pe.clone());
        cfg.n_pes = 2;
        cfg.unique_keys = false;
        db.create_table("refs", cfg).expect("refs table");
        let mut wl = PubGraphConfig::scaled(1.0 / 4096.0);
        wl.refs = 12_000;
        db.bulk_load(
            "refs",
            RefGen::new(wl).take(wl.refs as usize).map(|r| {
                let mut rec = Vec::with_capacity(20);
                r.encode_into(&mut rec);
                rec
            }),
        )
        .expect("bulk load");
        db
    };
    let mut plain = build(false);
    let mut cached = build(true);
    let rules = [FilterRule { lane: ref_lanes::YEAR, op_code: 4, value: 2000 }];
    for agg in [AggOp::Count, AggOp::Sum, AggOp::Min, AggOp::Max] {
        for mode in [Backend::Software, Backend::Hardware] {
            for _round in 0..2 {
                let a = plain.scan_aggregate("refs", &rules, agg, ref_lanes::YEAR, mode);
                let b = cached.scan_aggregate("refs", &rules, agg, ref_lanes::YEAR, mode);
                let (av, aa, _) = a.expect("plain aggregate");
                let (bv, ba, _) = b.expect("cached aggregate");
                assert_eq!((av, aa), (bv, ba), "{agg:?} on {mode:?}");
            }
        }
    }
    let s = cached.cache_stats().expect("cache enabled");
    assert!(s.hits > 0, "repeated aggregate scans must hit: {s:?}");
    assert_eq!(s.hits + s.misses, s.lookups, "counter conservation: {s:?}");
}

#[test]
fn hostile_pe_hang_storm_degrades_gracefully_on_every_path() {
    // Regression for the watchdog claim path: a fault plan that hangs
    // every PE while blocks keep arriving used to be able to abort via
    // `expect` when no PE was selectable. It must degrade HW -> SW and
    // keep returning correct bytes — cached and uncached alike.
    for cache in [false, true] {
        let (mut db, wl) = seeded_db(4_000, cache, false);
        db.platform_mut().install_faults(&FaultPlan {
            seed: 41,
            pe_hang_p: 1.0,
            ..FaultPlan::default()
        });
        let want = db.scan(TABLE, &[year_rule(1900)], Backend::Software).expect("sw scan");
        // Serial and parallel hardware dispatch: every PE hangs on its
        // first claim, is retired, and the scans finish on the ARM.
        for streams in [0usize, 2, 4] {
            db.set_parallel_pes(TABLE, streams).expect("4 PEs configured");
            let hw = db.scan(TABLE, &[year_rule(1900)], Backend::Hardware).expect("degraded scan");
            assert_eq!(hw.records, want.records, "{streams} streams, cache={cache}");
        }
        let key = PaperGen::paper_at(&wl, wl.papers / 2).id;
        let (rec, _) = db.get(TABLE, key, Backend::Hardware).expect("degraded get");
        assert!(rec.is_some(), "degraded GET still finds the key");
        let health = db.table_health(TABLE).expect("table exists");
        assert!(health.watchdog_trips > 0, "the storm must trip the watchdog");
        assert!(health.sw_fallback_blocks > 0, "blocks must degrade to software");
    }
}
