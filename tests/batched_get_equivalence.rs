//! Batched-GET differential suite: key-list batching must never change
//! *what* a GET returns, only how much configuration traffic it costs.
//!
//! Every test drives the same key schedule through batched key lists
//! and checks the per-key outcomes against a `BTreeMap` model (and,
//! where it matters, against the legacy per-key path on an identical
//! device):
//!
//! 1. **equivalence**: every PE operator set x backend x batch size
//!    {1, 2, 16, 64} returns byte-identical records for present keys
//!    and `Ok(None)` for absent ones — or, on a PE generated without
//!    `eq`, a typed `NkvError::Config` from every hardware GET;
//! 2. **batch-of-1 is the legacy path**: a singleton key list folds to
//!    the point-lookup plan and reproduces `get`'s record *and* its
//!    simulated nanoseconds exactly, on every operator set;
//! 3. **fault weather**: transient/correctable flash faults and PE
//!    hangs mid-batch degrade exactly like the per-key path — typed
//!    errors attributed to the right key, never a panic, never silent
//!    wrong data;
//! 4. **descriptor contract at the API**: empty, duplicate and
//!    over-capacity key lists are `NkvError::Config`, before any
//!    device work;
//! 5. **cluster split/merge**: a cluster batch splits per shard and
//!    re-merges to the same bytes as an unbatched per-key fan-out,
//!    and a shard-level hang/power-cut mid-batch names the hole
//!    (`Available`) or fails typed (`Strict`) without disturbing the
//!    other shards' keys.

use cosmos_sim::faults::FaultPlan;
use cosmos_sim::{DeviceFaultKind, DeviceFaultPlan};
use ndp_ir::elaborate;
use ndp_workload::spec::{PAPER_PE, PAPER_REF_SPEC};
use ndp_workload::{Paper, PaperGen, PubGraphConfig, SplitMix64};
use nkv::{
    Backend, ClusterConfig, LogicalOp, NkvCluster, NkvDb, NkvError, ReadPolicy, TableConfig,
};
use std::collections::BTreeMap;

const BATCHES: [usize; 4] = [1, 2, 16, 64];

fn encode(p: &Paper) -> Vec<u8> {
    let mut v = Vec::with_capacity(80);
    p.encode_into(&mut v);
    v
}

/// Operator requests the GET checks generate the paper PE with: the
/// standard set (`eq` = 2), `{ eq, ne }` (encodings follow the request
/// order, so `eq` = 1 and `ne` = 2), and a set without `eq`.
const OPERATOR_SETS: [&str; 3] = ["", ", operators = { eq, ne }", ", operators = { lt }"];

fn table_cfg() -> TableConfig {
    table_cfg_with("")
}

/// Tiny LSM thresholds so a few hundred records produce the multi-SST
/// shape whose index walks batching actually shares; `ops` is appended
/// to the paper PE's annotation.
fn table_cfg_with(ops: &str) -> TableConfig {
    let spec = PAPER_REF_SPEC.replace("output = Paper */", &format!("output = Paper{ops} */"));
    let m = ndp_spec::parse(&spec).unwrap();
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

/// A store with `n` records spread across the memtable and several
/// overlapping SSTs, plus its model.
fn build_db(n: u64) -> (NkvDb, BTreeMap<u64, Vec<u8>>) {
    build_db_with("", n)
}

fn build_db_with(ops: &str, n: u64) -> (NkvDb, BTreeMap<u64, Vec<u8>>) {
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg_with(ops)).unwrap();
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

/// The seeded key schedule: mostly present keys, a sprinkle of absent
/// ones, no duplicates within any `max_batch`-sized window (a key list
/// rejects duplicates by contract).
fn key_schedule(seed: u64, n_keys: u64, len: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut keys = Vec::with_capacity(len);
    while keys.len() < len {
        let k = if rng.gen_bool(0.85) {
            1 + rng.gen_u64(n_keys)
        } else {
            n_keys + 1_000 + rng.gen_u64(500)
        };
        let window = keys.len().saturating_sub(63);
        if !keys[window..].contains(&k) {
            keys.push(k);
        }
    }
    keys
}

/// Whether a hardware GET must be refused: the PE has no `eq`.
fn lacks_eq(ops: &str, mode: Backend) -> bool {
    mode != Backend::Software && table_cfg_with(ops).pe.op_code("eq").is_none()
}

fn assert_refused<T: std::fmt::Debug>(res: Result<T, NkvError>, what: &str) {
    match res {
        Err(NkvError::Config(msg)) => assert!(msg.contains("`eq`"), "{what}: {msg}"),
        other => panic!("{what}: a PE without `eq` must refuse with NkvError::Config: {other:?}"),
    }
}

#[test]
fn every_backend_and_batch_size_matches_the_model() {
    let schedule = key_schedule(0xBA7C, 400, 128);
    for ops in OPERATOR_SETS {
        for mode in [Backend::Hardware, Backend::Software] {
            for batch in BATCHES {
                let (mut db, model) = build_db_with(ops, 400);
                let ctx = format!("ops=[{ops}] mode={mode:?} batch={batch}");
                for chunk in schedule.chunks(batch) {
                    let res = db.multi_get("papers", chunk, mode);
                    if lacks_eq(ops, mode) {
                        assert_refused(res, &ctx);
                        continue;
                    }
                    let (results, report) =
                        res.unwrap_or_else(|e| panic!("{ctx}: multi_get -> {e}"));
                    assert_eq!(results.len(), chunk.len(), "{ctx}");
                    assert!(report.sim_ns > 0, "{ctx}");
                    for (key, res) in chunk.iter().zip(results) {
                        let got = res.unwrap_or_else(|e| panic!("{ctx}: get({key}) -> {e}"));
                        assert_eq!(
                            got,
                            model.get(key).cloned(),
                            "{ctx}: get({key}) diverged from the model"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn batch_of_one_is_the_legacy_path_to_the_nanosecond() {
    for ops in OPERATOR_SETS {
        let (mut legacy, model) = build_db_with(ops, 300);
        let (mut batched, _) = build_db_with(ops, 300);
        for mode in [Backend::Hardware, Backend::Software] {
            for key in [1u64, 77, 150, 299, 300, 9_999] {
                let ctx = format!("ops=[{ops}] mode={mode:?} key={key}");
                if lacks_eq(ops, mode) {
                    assert_refused(legacy.get("papers", key, mode), &ctx);
                    assert_refused(batched.multi_get("papers", &[key], mode), &ctx);
                    continue;
                }
                let (want, want_rep) = legacy.get("papers", key, mode).unwrap();
                assert_eq!(want, model.get(&key).cloned(), "{ctx}: get diverged from the model");
                let (results, got_rep) = batched.multi_get("papers", &[key], mode).unwrap();
                let [got] = <[_; 1]>::try_from(results).unwrap();
                assert_eq!(got.unwrap(), want, "{ctx}");
                assert_eq!(
                    got_rep.sim_ns, want_rep.sim_ns,
                    "{ctx}: a singleton batch must cost exactly the legacy path"
                );
            }
        }
    }
}

#[test]
fn adaptive_planner_prices_hardware_gets_without_eq_as_infeasible() {
    for ops in OPERATOR_SETS {
        let (db, _) = build_db_with(ops, 64);
        for op in [LogicalOp::Get { key: 5 }, LogicalOp::MultiGet { keys: vec![5, 9] }] {
            let (chosen, report) = db.choose_backend("papers", &op).unwrap();
            for tier in report.tiers {
                let infeasible = lacks_eq(ops, tier.backend);
                assert_eq!(tier.cost_ns.is_none(), infeasible, "ops=[{ops}] {op:?} {tier:?}");
            }
            assert!(!lacks_eq(ops, chosen), "ops=[{ops}] {op:?}: chose {chosen:?}");
        }
    }
}

#[test]
fn descriptor_shape_violations_are_typed_config_errors() {
    let (mut db, _) = build_db(64);
    let cases: [(&str, Vec<u64>); 3] =
        [("empty", vec![]), ("duplicate", vec![1, 2, 3, 2]), ("over-capacity", (0..600).collect())];
    for (name, keys) in cases {
        match db.multi_get("papers", &keys, Backend::Hardware) {
            Err(NkvError::Config(msg)) => {
                assert!(msg.contains("papers"), "{name}: Config error should name the table: {msg}")
            }
            other => panic!("{name} key list must be NkvError::Config, got {other:?}"),
        }
    }
    // Shape checks happen before any device work: a valid follow-up
    // batch still runs on the same handle.
    let (results, _) = db.multi_get("papers", &[1, 2, 3], Backend::Hardware).unwrap();
    assert_eq!(results.len(), 3);
}

/// Transient + correctable flash weather: the retry/read-repair layers
/// absorb it, so every batched result still matches the model; the only
/// permissible failures are the same typed errors the per-key path can
/// surface, attributed to the exact key that hit them.
#[test]
fn transient_ecc_weather_never_changes_bytes() {
    let mut injected = 0u64;
    for batch in [2usize, 16, 64] {
        let (mut db, model) = build_db(400);
        db.enable_observability(1 << 14);
        db.platform_mut().install_faults(&FaultPlan {
            seed: 0xECC0 + batch as u64,
            transient_read_p: 0.05,
            correctable_p: 0.10,
            ..FaultPlan::default()
        });
        let schedule = key_schedule(0x5EED + batch as u64, 400, 128);
        for chunk in schedule.chunks(batch) {
            match db.multi_get("papers", chunk, Backend::Hardware) {
                Ok((results, _)) => {
                    for (key, res) in chunk.iter().zip(results) {
                        match res {
                            Ok(got) => assert_eq!(
                                got,
                                model.get(key).cloned(),
                                "batch={batch}: get({key}) diverged under ECC weather"
                            ),
                            Err(NkvError::RetriesExhausted { .. } | NkvError::Flash(_)) => {}
                            Err(e) => panic!("batch={batch}: get({key}) -> unexpected {e}"),
                        }
                    }
                }
                // A whole-batch failure may only be the same typed
                // infra errors (e.g. the shared index walk failed).
                Err(NkvError::RetriesExhausted { .. } | NkvError::Flash(_)) => {}
                Err(e) => panic!("batch={batch}: multi_get -> unexpected {e}"),
            }
        }
        // Batch sharing legitimately shrinks the flash-read count (and
        // with it the fault-roll count), so injection is asserted over
        // the whole campaign, not per batch size.
        let health = db.health_report();
        injected += health.flash.transient_failures + health.flash.correctable_hits;
    }
    assert!(injected > 0, "the campaign never injected a fault");
}

/// PE hangs firing mid-batch: the watchdog retires the PE and the walk
/// falls back to software for the remaining keys — same bytes, typed
/// health counters, no panic.
#[test]
fn pe_hang_mid_batch_falls_back_without_corruption() {
    for batch in [2usize, 16, 64] {
        let (mut db, model) = build_db(400);
        db.enable_observability(1 << 14);
        db.platform_mut().install_faults(&FaultPlan {
            seed: 0x4A6 + batch as u64,
            pe_hang_p: 0.25,
            ..FaultPlan::default()
        });
        let schedule = key_schedule(0xF00D, 400, 96);
        for chunk in schedule.chunks(batch) {
            let (results, _) = db
                .multi_get("papers", chunk, Backend::Hardware)
                .unwrap_or_else(|e| panic!("batch={batch}: multi_get -> {e}"));
            for (key, res) in chunk.iter().zip(results) {
                let got = res.unwrap_or_else(|e| panic!("batch={batch}: get({key}) -> {e}"));
                assert_eq!(
                    got,
                    model.get(key).cloned(),
                    "batch={batch}: get({key}) diverged across a PE hang"
                );
            }
        }
        let health = db.health_report();
        assert!(health.pe_hangs_injected > 0, "batch={batch}: the campaign never hung a PE");
        assert!(
            health.watchdog_trips > 0 || health.sw_fallback_blocks > 0,
            "batch={batch}: a hang must surface in the health counters"
        );
    }
}

// ------------------------------------------------------------- cluster

fn build_cluster(
    devices: usize,
    policy: ReadPolicy,
    n: u64,
) -> (NkvCluster, BTreeMap<u64, Vec<u8>>) {
    let mut cluster =
        NkvCluster::new(ClusterConfig { devices, read_policy: policy, ..ClusterConfig::default() })
            .unwrap();
    cluster.create_table("papers", table_cfg()).unwrap();
    let records: Vec<Vec<u8>> = (1..=n).map(record_for).collect();
    let model: BTreeMap<u64, Vec<u8>> = (1..=n).map(|k| (k, record_for(k))).collect();
    cluster.bulk_load("papers", records).unwrap();
    cluster.persist().unwrap();
    (cluster, model)
}

#[test]
fn cluster_batches_split_per_shard_and_merge_like_unbatched_fanout() {
    let schedule = key_schedule(0xC1u64, 400, 128);
    for batch in BATCHES {
        let (mut batched, model) = build_cluster(4, ReadPolicy::Available, 400);
        let (mut fanout, _) = build_cluster(4, ReadPolicy::Available, 400);
        for chunk in schedule.chunks(batch) {
            let got = batched.multi_get("papers", chunk, Backend::Hardware).unwrap();
            assert!(got.missing_shards.is_empty(), "batch={batch}");
            assert_eq!(got.results.len(), chunk.len(), "batch={batch}");
            for (key, res) in chunk.iter().zip(got.results) {
                let rec = res.unwrap_or_else(|e| panic!("batch={batch}: get({key}) -> {e}"));
                // Model equivalence and per-key fan-out equivalence.
                assert_eq!(rec, model.get(key).cloned(), "batch={batch}: get({key})");
                let single = fanout.get("papers", *key, Backend::Hardware).unwrap();
                assert_eq!(
                    rec, single.record,
                    "batch={batch}: get({key}) diverged from the unbatched fan-out"
                );
            }
        }
    }
}

#[test]
fn shard_fault_mid_batch_names_the_hole_or_fails_typed() {
    for kind in [DeviceFaultKind::Hang, DeviceFaultKind::PowerCut] {
        // Available: victim keys read Ok(None) + missing_shards names
        // the victim; other shards' keys are untouched.
        let (mut cluster, model) = build_cluster(4, ReadPolicy::Available, 400);
        let victim = 2usize;
        cluster.install_device_fault(victim, DeviceFaultPlan { kind, after_ops: 0 }).unwrap();
        let keys: Vec<u64> = (1..=64).collect();
        let mut saw_missing = false;
        for _ in 0..6 {
            let got = cluster.multi_get("papers", &keys, Backend::Hardware).unwrap();
            for (key, res) in keys.iter().zip(&got.results) {
                let rec = res.as_ref().unwrap_or_else(|e| panic!("{kind:?}: get({key}) -> {e}"));
                if cluster.shard_for_key(*key) == victim && !got.missing_shards.is_empty() {
                    assert_eq!(*rec, None, "{kind:?}: victim key {key} must read as a hole");
                } else {
                    assert_eq!(
                        *rec,
                        model.get(key).cloned(),
                        "{kind:?}: surviving key {key} diverged"
                    );
                }
            }
            if !got.missing_shards.is_empty() {
                assert_eq!(got.missing_shards, vec![victim], "{kind:?}");
                saw_missing = true;
            }
        }
        assert!(saw_missing, "{kind:?}: the shard fault never surfaced on the batch");

        // Strict: the same batch is a typed error naming the victim.
        let (mut strict, _) = build_cluster(4, ReadPolicy::Strict, 400);
        strict.install_device_fault(victim, DeviceFaultPlan { kind, after_ops: 0 }).unwrap();
        let mut failed = false;
        for _ in 0..6 {
            match strict.multi_get("papers", &keys, Backend::Hardware) {
                Ok(_) => {}
                Err(NkvError::ShardUnavailable { shard, .. }) => {
                    assert_eq!(shard, victim, "{kind:?}");
                    failed = true;
                    break;
                }
                Err(e) => panic!("{kind:?}: strict multi_get -> unexpected {e}"),
            }
        }
        assert!(failed, "{kind:?}: strict policy must surface the dead shard");
    }
}
