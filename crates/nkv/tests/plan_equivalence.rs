//! Differential property suite for the planner/engine layer.
//!
//! Contract: a [`PhysicalPlan`] only decides *where* work runs —
//! software ARM walk, hardware PEs, hybrid pushdown split, or N
//! parallel PE job streams — never *what* it computes. Every plan for
//! the same logical op must return byte-identical results, equal to
//!
//! 1. an independent `BTreeMap` model of the table (last write wins,
//!    key order), and
//! 2. the legacy serial single-PE dispatch (`parallel_pes = 0`),
//!
//! across seeded datasets, overwrite churn, and injected fault weather
//! (transient reads, ECC degradation, PE hangs → HW→SW degradation).

use std::collections::BTreeMap;

use cosmos_sim::faults::FaultPlan;
use ndp_ir::AggOp;
use ndp_pe::oracle::FilterRule;
use ndp_workload::spec::{paper_lanes, ref_lanes, PAPER_PE, PAPER_REF_SPEC};
use ndp_workload::{PaperGen, PubGraphConfig, RefGen};
use nkv::{Backend, LogicalOp, NkvDb, OpKind, PlanOutcome, TableConfig};

const TABLE: &str = "papers";

/// The BTreeMap oracle: key → encoded record, last write wins.
type Model = BTreeMap<u64, Vec<u8>>;

/// Build a bulk-loaded papers table (4 PEs, so streams 1..=4 are all
/// legal) plus its model, then overwrite ~10 % of the keys through the
/// serial PUT path so reconciliation has real work to do.
fn seeded_db(seed: u64, n_records: u64) -> (NkvDb, Model, PubGraphConfig) {
    let module = ndp_spec::parse(PAPER_REF_SPEC).expect("reference spec parses");
    let pe = ndp_ir::elaborate(&module, PAPER_PE).expect("paper PE elaborates");
    let mut db = NkvDb::default_db();
    let mut cfg = TableConfig::new(pe);
    cfg.n_pes = 4;
    db.create_table(TABLE, cfg).expect("table");

    let mut wl = PubGraphConfig::scaled(1.0 / 4096.0);
    wl.papers = n_records;
    let mut model = Model::new();
    let records = (0..wl.papers).map(|i| {
        let mut rec = Vec::with_capacity(80);
        PaperGen::paper_at(&wl, i).encode_into(&mut rec);
        rec
    });
    db.bulk_load(TABLE, records.clone()).expect("bulk load");
    for rec in records {
        model.insert(u64::from_le_bytes(rec[..8].try_into().unwrap()), rec);
    }

    // Overwrites: bump n_cits on every (seed+10)-th paper. The same
    // mutation lands in the model, so both stay in lockstep.
    for i in (seed % 7..wl.papers).step_by(seed as usize + 10) {
        let mut p = PaperGen::paper_at(&wl, i);
        p.n_cits = p.n_cits.wrapping_add(1_000);
        let mut rec = Vec::with_capacity(80);
        p.encode_into(&mut rec);
        model.insert(p.id, rec.clone());
        db.put(TABLE, rec).expect("put");
    }
    (db, model, wl)
}

fn lane_val(rec: &[u8], lane: u32) -> u64 {
    let u32_at = |off: usize| u64::from(u32::from_le_bytes(rec[off..off + 4].try_into().unwrap()));
    match lane {
        l if l == paper_lanes::ID => u64::from_le_bytes(rec[..8].try_into().unwrap()),
        l if l == paper_lanes::YEAR => u32_at(8),
        l if l == paper_lanes::VENUE => u32_at(12),
        l if l == paper_lanes::N_CITS => u32_at(16),
        l if l == paper_lanes::N_REFS => u32_at(20),
        _ => panic!("model does not know lane {lane}"),
    }
}

fn passes(rec: &[u8], rules: &[FilterRule]) -> bool {
    rules.iter().all(|r| {
        let v = lane_val(rec, r.lane);
        match r.op_code {
            1 => v != r.value,
            2 => v == r.value,
            4 => v >= r.value,
            5 => v < r.value,
            other => panic!("model does not know op code {other}"),
        }
    })
}

/// Concatenated matching records in key order — what a scan must return
/// (after key-sorting: the device emits memtable records and block
/// records in scan order, not key order).
fn model_scan(model: &Model, rules: &[FilterRule]) -> (Vec<u8>, u64) {
    let mut out = Vec::new();
    let mut count = 0;
    for rec in model.values() {
        if passes(rec, rules) {
            out.extend_from_slice(rec);
            count += 1;
        }
    }
    (out, count)
}

/// Key-sort a scan's raw output so it can be compared to the BTreeMap
/// model. Raw (unsorted) bytes are still compared *across plans*, which
/// pins the deterministic merge order itself.
fn key_sorted(records: &[u8]) -> Vec<u8> {
    let mut recs: Vec<&[u8]> = records.chunks_exact(80).collect();
    assert_eq!(recs.len() * 80, records.len(), "whole records only");
    recs.sort_by_key(|r| u64::from_le_bytes(r[..8].try_into().unwrap()));
    recs.concat()
}

/// Run one rule chain through every plan the table supports and demand
/// byte-identical results everywhere. `hw_legal` is false for chains
/// longer than the PE's stage count (hardware rejects those; hybrid
/// splits them).
fn check_scan_plans(db: &mut NkvDb, model: &Model, rules: &[FilterRule], hw_legal: bool) {
    let (want, want_count) = model_scan(model, rules);

    let sw = db.scan(TABLE, rules, Backend::Software).expect("software scan");
    assert_eq!(key_sorted(&sw.records), want, "software scan vs model");
    assert_eq!(sw.count, want_count);

    let op = LogicalOp::Scan { rules: rules.to_vec() };
    match db.execute(TABLE, &op, Backend::Hybrid).expect("hybrid scan") {
        PlanOutcome::Records { records, count, .. } => {
            assert_eq!(records, sw.records, "hybrid scan vs software, raw merge order");
            assert_eq!(count, want_count);
        }
        other => panic!("scan must produce records, got {other:?}"),
    }

    if !hw_legal {
        assert!(db.scan(TABLE, rules, Backend::Hardware).is_err(), "hardware must reject");
        return;
    }
    // Legacy serial dispatch first, then every parallel stream count.
    for streams in [0usize, 1, 2, 3, 4] {
        db.set_parallel_pes(TABLE, streams).expect("4 PEs configured");
        let hw = db.scan(TABLE, rules, Backend::Hardware).expect("hardware scan");
        assert_eq!(hw.records, sw.records, "hardware ({streams} streams) vs software, raw order");
        assert_eq!(hw.count, want_count, "{streams} streams");
        let stats = db.parallel_scan_stats(TABLE).expect("table exists");
        match streams {
            0 => {} // serial dispatch leaves whatever ran before; not asserted
            n => {
                let s = stats.expect("parallel dispatch records stats");
                assert_eq!(s.workers, n);
                assert_eq!(s.blocks_per_worker.len(), n);
            }
        }
    }
    db.set_parallel_pes(TABLE, 0).expect("reset");
}

fn year_rule(value: u64) -> FilterRule {
    FilterRule { lane: paper_lanes::YEAR, op_code: 4, value }
}

#[test]
fn every_plan_matches_the_model_on_clean_hardware() {
    for seed in [0u64, 3] {
        let (mut db, model, _) = seeded_db(seed, 9_000 + seed * 2_000);
        check_scan_plans(&mut db, &model, &[], true);
        check_scan_plans(&mut db, &model, &[year_rule(2010)], true);
        check_scan_plans(
            &mut db,
            &model,
            &[FilterRule { lane: paper_lanes::ID, op_code: 5, value: 500_000 }],
            true,
        );
        // Two rules exceed the paper-PE's single filtering stage:
        // hardware rejects, hybrid pushes one and post-filters one.
        check_scan_plans(
            &mut db,
            &model,
            &[year_rule(2000), FilterRule { lane: paper_lanes::VENUE, op_code: 1, value: 3 }],
            false,
        );
    }
}

#[test]
fn every_plan_matches_the_model_under_fault_weather() {
    for (seed, plan) in [
        (1u64, FaultPlan { seed: 11, transient_read_p: 0.01, ..FaultPlan::default() }),
        // Mild ECC degradation + occasional PE hangs. The sweep runs
        // many scans back to back, so the correctable rate must stay
        // low enough that pages survive until the read-repair below.
        (2, FaultPlan { seed: 12, correctable_p: 0.04, pe_hang_p: 0.10, ..FaultPlan::default() }),
        // Every PE hangs: the watchdog retires them and the whole scan
        // degrades to the ARM — results must still be identical.
        (3, FaultPlan { seed: 13, pe_hang_p: 1.0, ..FaultPlan::default() }),
    ] {
        let (mut db, model, _) = seeded_db(seed, 8_000);
        db.platform_mut().install_faults(&plan);
        check_scan_plans(&mut db, &model, &[year_rule(2005)], true);
        // Heal and re-check: the healthy device agrees with the model
        // it agreed with while degraded.
        db.platform_mut().clear_faults();
        db.read_repair(1).expect("relocate degraded pages");
        db.reset_pes(TABLE).expect("reset PEs");
        check_scan_plans(&mut db, &model, &[year_rule(2005)], true);
    }
}

#[test]
fn gets_match_the_model_on_every_backend() {
    let (mut db, model, wl) = seeded_db(4, 7_000);
    let mut keys: Vec<u64> =
        (0..8).map(|i| PaperGen::paper_at(&wl, i * (wl.papers / 8)).id).collect();
    keys.push(u64::MAX); // guaranteed miss
    for key in keys {
        let want = model.get(&key).cloned();
        let (sw, _) = db.get(TABLE, key, Backend::Software).expect("sw get");
        let (hw, _) = db.get(TABLE, key, Backend::Hardware).expect("hw get");
        assert_eq!(sw, want, "software GET {key} vs model");
        assert_eq!(hw, want, "hardware GET {key} vs model");
        for backend in [Backend::Software, Backend::Hardware, Backend::Hybrid] {
            match db.execute(TABLE, &LogicalOp::Get { key }, backend).expect("planned get") {
                PlanOutcome::Point { record, .. } => {
                    assert_eq!(record, want, "planned GET {key} on {backend:?}")
                }
                other => panic!("GET must produce a point outcome, got {other:?}"),
            }
        }
    }
}

#[test]
fn range_scan_plans_match_the_model() {
    let (mut db, model, wl) = seeded_db(5, 7_000);
    let lo = PaperGen::paper_at(&wl, wl.papers / 4).id;
    let hi = PaperGen::paper_at(&wl, 3 * wl.papers / 4).id;
    let want: Vec<u8> = model.range(lo..hi).flat_map(|(_, rec)| rec.iter().copied()).collect();
    // The paper-PE has one stage, so the 2-rule range chain runs as a
    // software plan or a hybrid split — not pure hardware.
    let op = LogicalOp::RangeScan { lo, hi };
    for backend in [Backend::Software, Backend::Hybrid] {
        match db.execute(TABLE, &op, backend).expect("range scan") {
            PlanOutcome::Records { records, .. } => {
                assert_eq!(key_sorted(&records), want, "range scan on {backend:?} vs model")
            }
            other => panic!("range scan must produce records, got {other:?}"),
        }
    }
    assert!(db.execute(TABLE, &op, Backend::Hardware).is_err(), "2 rules > 1 stage");
}

#[test]
fn aggregate_plans_match_the_model_and_each_other() {
    // The paper tables' PEs carry no aggregate units; build the
    // aggregate-capable ref parser (count/sum/min/max) like the A3
    // ablation does.
    let module = ndp_spec::parse(
        "/* @autogen define parser RefAgg with chunksize = 32,
            input = Ref, output = Ref, aggregate = { count, sum, min, max } */
         typedef struct { uint64_t src; uint64_t dst; uint32_t year; } Ref;",
    )
    .expect("aggregate spec parses");
    let pe = ndp_ir::elaborate(&module, "RefAgg").expect("RefAgg elaborates");
    let mut db = NkvDb::default_db();
    let mut cfg = TableConfig::new(pe);
    cfg.n_pes = 4;
    cfg.unique_keys = false;
    db.create_table("refs", cfg).expect("refs table");

    let mut wl = PubGraphConfig::scaled(1.0 / 4096.0);
    wl.refs = 15_000;
    let rows: Vec<Vec<u8>> = RefGen::new(wl)
        .take(wl.refs as usize)
        .map(|r| {
            let mut rec = Vec::with_capacity(20);
            r.encode_into(&mut rec);
            rec
        })
        .collect();
    db.bulk_load("refs", rows.iter().cloned()).expect("bulk load");

    let rules = [FilterRule { lane: ref_lanes::YEAR, op_code: 4, value: 2000 }];
    let year_of = |rec: &Vec<u8>| u64::from(u32::from_le_bytes(rec[16..20].try_into().unwrap()));
    let matched: Vec<u64> = rows.iter().filter(|r| year_of(r) >= 2000).map(year_of).collect();
    assert!(!matched.is_empty(), "the dataset must exercise the reduction");

    for (agg, lane, want) in [
        (AggOp::Count, ref_lanes::YEAR, matched.len() as u64),
        (AggOp::Sum, ref_lanes::YEAR, matched.iter().fold(0u64, |a, v| a.wrapping_add(*v))),
        (AggOp::Min, ref_lanes::YEAR, *matched.iter().min().unwrap()),
        (AggOp::Max, ref_lanes::YEAR, *matched.iter().max().unwrap()),
    ] {
        let (sw, sw_any, _) =
            db.scan_aggregate("refs", &rules, agg, lane, Backend::Software).expect("sw agg");
        let (hw, hw_any, _) =
            db.scan_aggregate("refs", &rules, agg, lane, Backend::Hardware).expect("hw agg");
        assert_eq!(sw, want, "software {agg:?} vs model");
        assert_eq!(hw, want, "hardware {agg:?} vs model");
        assert!(sw_any && hw_any);
        let op = LogicalOp::ScanAggregate { rules: rules.to_vec(), agg, lane };
        match db.execute("refs", &op, Backend::Hardware).expect("planned agg") {
            PlanOutcome::Aggregate { value, any, .. } => {
                assert_eq!(value, want, "planned {agg:?} vs model");
                assert!(any);
            }
            other => panic!("aggregate must produce an aggregate outcome, got {other:?}"),
        }
    }
}

/// The clock and every per-op metric of two twin devices must agree.
fn assert_twins(typed: &NkvDb, planned: &NkvDb, ctx: &str) {
    assert_eq!(typed.clock(), planned.clock(), "{ctx}: device clock");
    let (a, b) = (typed.device_stats().metrics, planned.device_stats().metrics);
    for kind in OpKind::ALL {
        assert_eq!(a.op(kind), b.op(kind), "{ctx}: {} metrics", kind.name());
    }
}

/// Adapter ≡ `execute`: every typed read is a thin adapter over
/// [`NkvDb::execute`], so on twin fresh devices the typed call and
/// `execute` with the equivalent [`LogicalOp`] return identical bytes
/// and an identical [`SimReport`](nkv::SimReport), and advance the
/// clock and the per-op metrics identically — on every backend,
/// including the ones an op fails to lower on.
#[test]
fn typed_reads_are_execute_to_the_nanosecond() {
    let (mut typed, _, wl) = seeded_db(6, 6_000);
    let (mut planned, _, _) = seeded_db(6, 6_000);
    typed.enable_observability(1 << 16);
    planned.enable_observability(1 << 16);
    let key = |i: u64| PaperGen::paper_at(&wl, i).id;
    let rules = vec![year_rule(2008)];
    let (lo, hi) = (key(wl.papers / 4), key(wl.papers / 2));
    for backend in [Backend::Software, Backend::Hardware, Backend::Hybrid] {
        for k in [key(17), u64::MAX] {
            let a = typed.get(TABLE, k, backend);
            let b = planned.execute(TABLE, &LogicalOp::Get { key: k }, backend).map(|o| match o {
                PlanOutcome::Point { record, report } => (record, report),
                other => panic!("GET lowered to {other:?}"),
            });
            assert_eq!(a, b, "get({k}) on {backend:?}");
            assert_twins(&typed, &planned, &format!("get({k}) on {backend:?}"));
        }
        for keys in [vec![key(3), key(900), u64::MAX, key(40)], vec![key(5)]] {
            let a = typed.multi_get(TABLE, &keys, backend);
            let op = LogicalOp::MultiGet { keys: keys.clone() };
            let b = planned.execute(TABLE, &op, backend).map(|o| match o {
                PlanOutcome::Batch { results, report } => (results, report),
                PlanOutcome::Point { record, report } => (vec![Ok(record)], report),
                other => panic!("batched GET lowered to {other:?}"),
            });
            assert_eq!(a, b, "multi_get({} keys) on {backend:?}", keys.len());
            assert_twins(&typed, &planned, &format!("multi_get on {backend:?}"));
        }
        let scans = [
            (typed.scan(TABLE, &rules, backend), LogicalOp::Scan { rules: rules.clone() }),
            (typed.range_scan(TABLE, lo, hi, backend), LogicalOp::RangeScan { lo, hi }),
        ];
        for (a, op) in scans {
            let a = a.map(|s| (s.records, s.count, s.report));
            let b = planned.execute(TABLE, &op, backend).map(|o| match o {
                PlanOutcome::Records { records, count, report } => (records, count, report),
                other => panic!("scan lowered to {other:?}"),
            });
            assert_eq!(a, b, "{op:?} on {backend:?}");
        }
        assert_twins(&typed, &planned, &format!("scans on {backend:?}"));
        let a = typed.scan_aggregate(TABLE, &rules, AggOp::Count, paper_lanes::YEAR, backend);
        let op = LogicalOp::ScanAggregate {
            rules: rules.clone(),
            agg: AggOp::Count,
            lane: paper_lanes::YEAR,
        };
        let b = planned.execute(TABLE, &op, backend).map(|o| match o {
            PlanOutcome::Aggregate { value, any, report } => (value, any, report),
            other => panic!("aggregate lowered to {other:?}"),
        });
        assert_eq!(a, b, "scan_aggregate on {backend:?}");
        assert_twins(&typed, &planned, &format!("scan_aggregate on {backend:?}"));
    }
    assert!(typed.device_stats().metrics.op(OpKind::Scan).ops > 0, "the sweep ran scans");
}
