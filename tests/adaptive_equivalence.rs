//! Adaptive-planner differential suite: cost-based tier selection must
//! never change *what* a query returns, only which engine runs it.
//!
//! Contracts:
//!
//! 1. **equivalence**: for every logical op shape, the adaptive run's
//!    bytes match every forced tier that lowers (Software, Hardware,
//!    Hybrid) on an identical device — the tier choice is invisible in
//!    results;
//! 2. **promotion**: a repeated flash-heavy scan starts on the ARM
//!    (cold hardware estimate charges un-overlapped page reads) and
//!    flips SW → HW once the op class crosses the promotion threshold,
//!    with byte-identical results on both sides of the flip;
//! 3. **fault weather**: adaptive runs under transient/ECC flash faults
//!    and PE hangs return the fault-free bytes or the same typed errors
//!    any forced tier can surface — never a panic, never silent drift;
//! 4. **cluster**: a cluster-wide adaptive scan merges to the same
//!    bytes as forced fan-outs and reports one tier choice per shard;
//! 5. **explain**: `explain_adaptive` renders the chosen tier and the
//!    per-tier cost estimates the decision was made from.

use cosmos_sim::faults::FaultPlan;
use ndp_ir::elaborate;
use ndp_pe::oracle::FilterRule;
use ndp_workload::spec::{paper_lanes, PAPER_PE, PAPER_REF_SPEC};
use ndp_workload::{Paper, PaperGen, PubGraphConfig};
use nkv::{
    Backend, ClusterConfig, LogicalOp, NkvCluster, NkvDb, PlanOutcome, ReadPolicy, TableConfig,
    PROMOTE_AFTER,
};
use std::collections::BTreeMap;

fn encode(p: &Paper) -> Vec<u8> {
    let mut v = Vec::with_capacity(80);
    p.encode_into(&mut v);
    v
}

/// Tiny LSM thresholds so a few hundred records yield the multi-SST,
/// flash-resident shape whose tier choice is actually contested.
fn table_cfg() -> TableConfig {
    let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    let mut cfg = TableConfig::new(elaborate(&m, PAPER_PE).unwrap());
    cfg.lsm.memtable_bytes = 8 * 1024;
    cfg.lsm.c1_sst_limit = 4;
    cfg
}

fn record_for(key: u64) -> Vec<u8> {
    let gen_cfg = PubGraphConfig { papers: 200, refs: 0, seed: 1 };
    let mut p = PaperGen::paper_at(&gen_cfg, key % 200);
    p.id = key;
    encode(&p)
}

fn build_db(n: u64) -> (NkvDb, BTreeMap<u64, Vec<u8>>) {
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    let mut model = BTreeMap::new();
    for key in 1..=n {
        let r = record_for(key);
        db.put("papers", r.clone()).unwrap();
        model.insert(key, r);
        if key % 64 == 0 {
            db.flush("papers").unwrap();
        }
    }
    (db, model)
}

/// The op shapes the suite sweeps: point/absent GETs, batched GETs,
/// full and selective scans, a range scan and an aggregate.
fn op_suite() -> Vec<LogicalOp> {
    vec![
        LogicalOp::Get { key: 17 },
        LogicalOp::Get { key: 9_999 },
        LogicalOp::MultiGet { keys: vec![3, 77, 250, 9_999] },
        LogicalOp::Scan {
            rules: vec![FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 0 }],
        },
        LogicalOp::Scan {
            rules: vec![FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2015 }],
        },
        LogicalOp::RangeScan { lo: 50, hi: 150 },
        LogicalOp::ScanAggregate {
            rules: vec![FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2000 }],
            agg: ndp_ir::AggOp::Count,
            lane: paper_lanes::YEAR,
        },
    ]
}

/// Project an outcome down to its result bytes (reports carry timing,
/// which tiers legitimately change).
fn result_bytes(outcome: &PlanOutcome) -> Vec<u8> {
    match outcome {
        PlanOutcome::Records { records, count, .. } => {
            let mut v = count.to_le_bytes().to_vec();
            v.extend_from_slice(records);
            v
        }
        PlanOutcome::Aggregate { value, any, .. } => {
            let mut v = value.to_le_bytes().to_vec();
            v.push(u8::from(*any));
            v
        }
        PlanOutcome::Point { record, .. } => record.clone().unwrap_or_default(),
        PlanOutcome::Batch { results, .. } => {
            let mut v = Vec::new();
            for r in results {
                match r {
                    Ok(rec) => v.extend_from_slice(&rec.clone().unwrap_or_default()),
                    Err(e) => v.extend_from_slice(format!("<err {e}>").as_bytes()),
                }
            }
            v
        }
    }
}

#[test]
fn adaptive_matches_every_forced_tier_on_every_op_shape() {
    let (mut adaptive, _) = build_db(400);
    let mut forced: Vec<(Backend, NkvDb)> = [Backend::Software, Backend::Hardware, Backend::Hybrid]
        .into_iter()
        .map(|b| (b, build_db(400).0))
        .collect();
    // Two passes: the second runs with warmed-up feedback state, so the
    // adaptive planner may pick different tiers than the first — the
    // bytes must not care.
    let mut total_compared = 0;
    for pass in 0..2 {
        for (i, op) in op_suite().iter().enumerate() {
            let (outcome, report) = adaptive
                .execute_adaptive("papers", op)
                .unwrap_or_else(|e| panic!("pass {pass} op {i}: adaptive -> {e}"));
            let got = result_bytes(&outcome);
            let mut compared = 0;
            for (backend, db) in forced.iter_mut() {
                if db.plan("papers", op, *backend).is_err() {
                    continue; // tier doesn't lower this shape (e.g. deep chains)
                }
                let want = result_bytes(
                    &db.execute("papers", op, *backend)
                        .unwrap_or_else(|e| panic!("pass {pass} op {i} {backend:?}: {e}")),
                );
                assert_eq!(
                    got, want,
                    "pass {pass} op {i}: adaptive (chose {:?}) diverged from forced {backend:?}",
                    report.chosen
                );
                compared += 1;
            }
            assert!(compared >= 1, "pass {pass} op {i}: no forced tier lowered to compare");
            total_compared += compared;
        }
    }
    // The sweep must genuinely exercise multi-tier comparisons, not
    // degenerate to software-only.
    assert!(total_compared >= 30, "only {total_compared} forced comparisons ran");
}

#[test]
fn repeated_hot_scans_promote_from_software_to_hardware() {
    let (mut db, _) = build_db(400);
    let rules = vec![FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 0 }];
    let mut choices = Vec::new();
    let mut first_bytes: Option<Vec<u8>> = None;
    for i in 0..8u64 {
        let (summary, cost) =
            db.scan_adaptive("papers", &rules).unwrap_or_else(|e| panic!("scan {i}: {e}"));
        let bytes = (summary.count, summary.records);
        let flat = format!("{bytes:?}").into_bytes();
        match &first_bytes {
            None => first_bytes = Some(flat),
            Some(want) => assert_eq!(&flat, want, "scan {i}: bytes changed across the tier flip"),
        }
        choices.push(cost.chosen);
        assert_eq!(cost.hot, i >= PROMOTE_AFTER, "scan {i}: promotion state");
    }
    assert!(
        choices[..PROMOTE_AFTER as usize].iter().all(|&b| b == Backend::Software),
        "cold sightings must stay on the ARM path: {choices:?}"
    );
    assert!(
        choices[PROMOTE_AFTER as usize..].contains(&Backend::Hardware),
        "a hot flash-heavy scan must promote to hardware: {choices:?}"
    );
}

#[test]
fn adaptive_gets_match_the_model_under_fault_weather() {
    let (mut db, model) = build_db(400);
    db.enable_observability(1 << 14);
    db.platform_mut().install_faults(&FaultPlan {
        seed: 0xADA7,
        transient_read_p: 0.05,
        correctable_p: 0.10,
        pe_hang_p: 0.10,
        ..FaultPlan::default()
    });
    let rules = vec![FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 0 }];
    // Fault-free reference bytes for the repeated scan.
    let (reference, _) = build_db(400).0.scan_adaptive("papers", &rules).unwrap();
    for i in 0..40u64 {
        let key = 1 + (i * 11) % 400;
        match db.execute_adaptive("papers", &LogicalOp::Get { key }) {
            Ok((PlanOutcome::Point { record, .. }, _)) => {
                assert_eq!(
                    record,
                    model.get(&key).cloned(),
                    "get({key}) diverged under fault weather"
                )
            }
            Ok((other, _)) => panic!("get({key}) -> non-point outcome {other:?}"),
            Err(
                nkv::NkvError::RetriesExhausted { .. }
                | nkv::NkvError::Flash(_)
                | nkv::NkvError::PeTimeout { .. },
            ) => {}
            Err(e) => panic!("get({key}) -> unexpected {e}"),
        }
        if i % 8 == 0 {
            match db.scan_adaptive("papers", &rules) {
                Ok((summary, _)) => {
                    assert_eq!(summary.count, reference.count, "scan {i} count drifted");
                    assert_eq!(summary.records, reference.records, "scan {i} bytes drifted");
                }
                Err(
                    nkv::NkvError::RetriesExhausted { .. }
                    | nkv::NkvError::Flash(_)
                    | nkv::NkvError::PeTimeout { .. },
                ) => {}
                Err(e) => panic!("scan {i} -> unexpected {e}"),
            }
        }
    }
    let health = db.health_report();
    assert!(
        health.flash.transient_failures + health.flash.correctable_hits + health.pe_hangs_injected
            > 0,
        "the campaign never injected a fault"
    );
}

#[test]
fn cluster_adaptive_scan_merges_like_forced_fanouts_and_reports_tiers() {
    let build = || {
        let mut cluster = NkvCluster::new(ClusterConfig {
            devices: 3,
            read_policy: ReadPolicy::Strict,
            ..ClusterConfig::default()
        })
        .unwrap();
        cluster.create_table("papers", table_cfg()).unwrap();
        cluster.bulk_load("papers", (1..=400).map(record_for).collect::<Vec<_>>()).unwrap();
        cluster
    };
    let rules = vec![FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 0 }];
    let mut adaptive = build();
    // Warm the per-shard feedback past the promotion threshold so the
    // router exercises heterogeneous tier choices too.
    for _ in 0..=PROMOTE_AFTER {
        let (scan, tiers) = adaptive.scan_adaptive("papers", &rules).unwrap();
        assert!(scan.missing_shards.is_empty());
        assert_eq!(tiers.len(), 3, "one tier choice per serving shard: {tiers:?}");
        assert!(tiers.iter().enumerate().all(|(i, &(s, _))| s == i), "shard order: {tiers:?}");
        for backend in [Backend::Software, Backend::Hardware] {
            let forced = build().scan("papers", &rules, backend).unwrap();
            assert_eq!(scan.count, forced.count, "{backend:?}");
            assert_eq!(scan.records, forced.records, "{backend:?}: cluster merge bytes diverged");
        }
    }
    // After warm-up every flash-heavy shard should have left the ARM
    // path (Hardware or its Hybrid pushdown twin — observed feedback
    // legitimately ping-pongs between the two near-equal tiers).
    let (_, tiers) = adaptive.scan_adaptive("papers", &rules).unwrap();
    assert!(
        tiers.iter().all(|&(_, b)| b != Backend::Software),
        "hot flash-heavy shards should promote off the ARM: {tiers:?}"
    );
}

#[test]
fn explain_adaptive_renders_tier_and_cost_estimates() {
    let (db, _) = build_db(400);
    let op = LogicalOp::Scan {
        rules: vec![FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2010 }],
    };
    let text = db.explain_adaptive("papers", &op).unwrap();
    assert!(text.contains("PLAN SCAN ON papers"), "{text}");
    assert!(text.contains("  cost: software "), "{text}");
    assert!(text.contains("hardware "), "{text}");
    assert!(text.contains("adaptive: chose "), "{text}");
    assert!(text.contains("cold after 0 sightings"), "{text}");
}
