//! Cluster chaos suite: fleet-level fault domains under seeded
//! campaigns, checked against a `BTreeMap` model and a per-shard byte
//! reference.
//!
//! The single-device chaos suite (`tests/chaos.rs`) proves one device
//! degrades safely; this suite proves the *router* does, across N
//! simulated Cosmos+ devices:
//!
//! 1. **pass-through**: with one device, every cluster operation is
//!    byte-identical to calling the [`NkvDb`] directly — same records,
//!    same simulated nanoseconds, same queue report;
//! 2. **survivor correctness**: with a device killed/hung/power-cut
//!    mid-run, `Available`-policy reads return exactly the surviving
//!    shards' bytes (model minus the dead shard), never torn or
//!    reordered, and name the hole in `missing_shards`;
//! 3. **strictness**: `Strict`-policy reads fail with a typed
//!    [`NkvError::ShardUnavailable`] instead;
//! 4. **health FSM**: under sustained faults a shard's state walks the
//!    severity ladder monotonically (`Healthy → Degraded → Quarantined
//!    → Dead`), quarantined shards keep probing, dead shards stay dead
//!    until an explicit heal, and healing re-converges the cluster;
//! 5. **gray failure**: a slow-but-alive device changes *when*, never
//!    *what* — identical bytes, stretched simulated time.

use cosmos_sim::{DeviceFaultKind, DeviceFaultPlan, RouterSpanKind};
use ndp_ir::{elaborate, AggOp};
use ndp_pe::oracle::FilterRule;
use ndp_workload::spec::{paper_lanes, PAPER_PE, PAPER_REF_SPEC};
use ndp_workload::{Paper, PaperGen, PubGraphConfig, SplitMix64};
use nkv::{
    Backend, ClientScript, ClusterConfig, LogicalOp, NkvCluster, NkvDb, NkvError, PlanOutcome,
    QueueRunConfig, QueuedOp, ReadPolicy, ShardState, TableConfig,
};
use std::collections::BTreeMap;

fn encode(p: &Paper) -> Vec<u8> {
    let mut v = Vec::with_capacity(80);
    p.encode_into(&mut v);
    v
}

/// The papers table with `n_pes` PEs and the chaos suite's tiny LSM
/// thresholds.
fn table_cfg(n_pes: usize) -> TableConfig {
    let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    let mut cfg = TableConfig::new(elaborate(&m, PAPER_PE).unwrap());
    cfg.n_pes = n_pes;
    cfg.lsm.memtable_bytes = 8 * 1024;
    cfg.lsm.c1_sst_limit = 2;
    cfg
}

fn record_for(key: u64) -> Vec<u8> {
    let gen_cfg = PubGraphConfig { papers: 200, refs: 0, seed: 1 };
    let mut p = PaperGen::paper_at(&gen_cfg, key % 200);
    p.id = key;
    encode(&p)
}

/// Keys 1..=n with deterministic payloads, in bulk-load order.
fn dataset(n: u64) -> Vec<(u64, Vec<u8>)> {
    (1..=n).map(|k| (k, record_for(k))).collect()
}

/// Match-everything predicate (year < 3000).
fn all_rules() -> Vec<FilterRule> {
    vec![FilterRule { lane: paper_lanes::YEAR, op_code: 5, value: 3000 }]
}

/// A loaded, persisted cluster: `devices` shards, `streams` parallel PE
/// job streams per shard table.
fn build_cluster(
    devices: usize,
    policy: ReadPolicy,
    n_pes: usize,
    streams: usize,
    records: &[(u64, Vec<u8>)],
) -> NkvCluster {
    let mut cluster =
        NkvCluster::new(ClusterConfig { devices, read_policy: policy, ..ClusterConfig::default() })
            .unwrap();
    cluster.create_table("papers", table_cfg(n_pes)).unwrap();
    cluster.bulk_load("papers", records.iter().map(|(_, r)| r.clone()).collect()).unwrap();
    cluster.persist().unwrap();
    cluster.set_parallel_pes("papers", streams).unwrap();
    cluster
}

/// One shard's full-scan bytes through `backend`, straight off its
/// device — the byte reference cluster merges must reproduce.
fn shard_scan_bytes(cluster: &mut NkvCluster, shard: usize, backend: Backend) -> (Vec<u8>, u64) {
    let db = cluster.shard_db(shard).unwrap();
    match db.execute("papers", &LogicalOp::Scan { rules: all_rules() }, backend).unwrap() {
        PlanOutcome::Records { records, count, .. } => (records, count),
        other => panic!("scan lowered to {other:?}"),
    }
}

/// One seeded mid-run device-fault campaign: load, capture the per-shard
/// byte reference, trip `kind` on one device, drive reads through
/// `backend` while asserting survivor byte-identity and FSM
/// monotonicity, then heal and assert re-convergence.
fn fault_campaign(kind: DeviceFaultKind, backend: Backend, streams: usize) {
    let ctx = format!("kind={kind:?} backend={backend:?} streams={streams}");
    let records = dataset(400);
    let model: BTreeMap<u64, Vec<u8>> = records.iter().cloned().collect();
    let mut cluster = build_cluster(4, ReadPolicy::Available, 4, streams, &records);
    let victim = 1usize;

    let per_shard: Vec<(Vec<u8>, u64)> =
        (0..4).map(|s| shard_scan_bytes(&mut cluster, s, backend)).collect();
    let full: Vec<u8> = per_shard.iter().flat_map(|(r, _)| r.clone()).collect();
    let pre = cluster.scan("papers", &all_rules(), backend).unwrap();
    assert_eq!(pre.records, full, "{ctx}: clean cluster scan must concat shard scans in order");
    assert_eq!(pre.count, 400, "{ctx}");
    assert!(pre.missing_shards.is_empty(), "{ctx}");

    cluster.install_device_fault(victim, DeviceFaultPlan { kind, after_ops: 0 }).unwrap();

    let mut last_severity = cluster.shard_state(victim).unwrap().severity();
    let mut saw_missing_get = false;
    let mut saw_missing_scan = false;
    for step in 0..80u64 {
        let key = 1 + (step * 7) % 400;
        let owner = cluster.shard_for_key(key);
        let got = cluster.get("papers", key, backend).unwrap();
        if got.missing_shards.is_empty() {
            assert_eq!(
                got.record,
                model.get(&key).cloned(),
                "{ctx} step {step}: surviving get({key}) diverged"
            );
        } else {
            assert_eq!(got.missing_shards, vec![victim], "{ctx} step {step}");
            assert_eq!(owner, victim, "{ctx} step {step}: only the victim may go missing");
            assert_eq!(got.record, None, "{ctx} step {step}");
            saw_missing_get = true;
        }
        let severity = cluster.shard_state(victim).unwrap().severity();
        assert!(
            severity >= last_severity,
            "{ctx} step {step}: severity regressed {last_severity} -> {severity} without a heal"
        );
        last_severity = severity;

        if step % 10 == 9 {
            let scan = cluster.scan("papers", &all_rules(), backend).unwrap();
            let expected: Vec<u8> = (0..4usize)
                .filter(|s| !scan.missing_shards.contains(s))
                .flat_map(|s| per_shard[s].0.clone())
                .collect();
            assert_eq!(
                scan.records, expected,
                "{ctx} step {step}: survivors must be byte-identical to the reference"
            );
            if !scan.missing_shards.is_empty() {
                assert_eq!(scan.missing_shards, vec![victim], "{ctx} step {step}");
                saw_missing_scan = true;
            }
        }
    }
    assert!(saw_missing_get, "{ctx}: the fault never surfaced on the GET path");
    assert!(saw_missing_scan, "{ctx}: the fault never surfaced on the SCAN path");
    assert_eq!(
        cluster.shard_state(victim).unwrap(),
        ShardState::Dead,
        "{ctx}: sustained rejection must walk the victim to Dead"
    );
    let probes = cluster.cluster_health().shards[victim].probes_sent;
    assert!(probes >= 3, "{ctx}: quarantine must have probed (got {probes})");

    // Operator repair: the shard rejoins and the namespace re-converges.
    cluster.heal_shard(victim).unwrap();
    assert_eq!(cluster.shard_state(victim).unwrap(), ShardState::Recovered, "{ctx}");
    for (key, record) in model.iter().filter(|(k, _)| *k % 5 == 0) {
        let got = cluster.get("papers", *key, backend).unwrap();
        assert!(got.missing_shards.is_empty(), "{ctx}: post-heal get({key}) still degraded");
        assert_eq!(got.record, Some(record.clone()), "{ctx}: post-heal get({key}) diverged");
    }
    let post = cluster.scan("papers", &all_rules(), backend).unwrap();
    assert!(post.missing_shards.is_empty(), "{ctx}: post-heal scan still degraded");
    assert_eq!(post.count, 400, "{ctx}: post-heal scan count");
    if kind != DeviceFaultKind::PowerCut {
        // Hang/link-loss leave device state intact, so even the byte
        // order is exactly the pre-fault reference. (A power cut rebuilds
        // from flash; contents re-converge — asserted above — but SST ids
        // differ.)
        assert_eq!(post.records, full, "{ctx}: post-heal scan bytes");
    }
    assert_eq!(
        cluster.shard_state(victim).unwrap(),
        ShardState::Healthy,
        "{ctx}: successful post-heal traffic must promote the shard back to Healthy"
    );
}

/// The ISSUE's core matrix: kill (link loss), hang and power-cut one
/// device mid-run, for every backend and both dispatch styles (serial
/// and 2 parallel PE job streams).
#[test]
fn seeded_device_fault_campaigns_every_backend_and_stream_count() {
    for kind in [DeviceFaultKind::Hang, DeviceFaultKind::PowerCut, DeviceFaultKind::LinkLoss] {
        for backend in [Backend::Software, Backend::Hardware, Backend::Hybrid] {
            for streams in [0, 2] {
                fault_campaign(kind, backend, streams);
            }
        }
    }
}

/// With one device the cluster is a pass-through: identical bytes,
/// identical simulated time, identical queue report.
#[test]
fn single_device_cluster_is_byte_identical_to_a_standalone_db() {
    let records = dataset(300);
    for backend in [Backend::Software, Backend::Hardware] {
        for streams in [0, 2] {
            let ctx = format!("backend={backend:?} streams={streams}");
            let mut solo = NkvDb::default_db();
            solo.create_table("papers", table_cfg(4)).unwrap();
            solo.bulk_load("papers", records.iter().map(|(_, r)| r.clone())).unwrap();
            solo.persist().unwrap();
            solo.set_parallel_pes("papers", streams).unwrap();
            let mut cluster = build_cluster(1, ReadPolicy::Strict, 4, streams, &records);

            for key in [1u64, 57, 170, 299, 100_000] {
                let (solo_rec, solo_ns) =
                    match solo.execute("papers", &LogicalOp::Get { key }, backend).unwrap() {
                        PlanOutcome::Point { record, report } => (record, report.sim_ns),
                        other => panic!("{ctx}: GET lowered to {other:?}"),
                    };
                let got = cluster.get("papers", key, backend).unwrap();
                assert_eq!(got.record, solo_rec, "{ctx}: get({key}) bytes");
                assert_eq!(got.sim_ns, solo_ns, "{ctx}: get({key}) time");
                assert!(got.missing_shards.is_empty(), "{ctx}");
            }

            let op = LogicalOp::Scan { rules: all_rules() };
            let (solo_recs, solo_count, solo_ns) = match solo
                .execute("papers", &op, backend)
                .unwrap()
            {
                PlanOutcome::Records { records, count, report } => (records, count, report.sim_ns),
                other => panic!("{ctx}: SCAN lowered to {other:?}"),
            };
            let scan = cluster.scan("papers", &all_rules(), backend).unwrap();
            assert_eq!(scan.records, solo_recs, "{ctx}: scan bytes");
            assert_eq!(scan.count, solo_count, "{ctx}: scan count");
            assert_eq!(scan.sim_ns, solo_ns, "{ctx}: scan time");

            // RANGE_SCAN is a 2-stage predicate chain; the paper PE has
            // one filtering stage, so the range path runs software (the
            // cluster and the standalone db must agree on that too).
            let op = LogicalOp::RangeScan { lo: 50, hi: 150 };
            let (solo_recs, solo_count, solo_ns) = match solo
                .execute("papers", &op, Backend::Software)
                .unwrap()
            {
                PlanOutcome::Records { records, count, report } => (records, count, report.sim_ns),
                other => panic!("{ctx}: RANGE_SCAN lowered to {other:?}"),
            };
            let range = cluster.range_scan("papers", 50, 150, Backend::Software).unwrap();
            assert_eq!(range.records, solo_recs, "{ctx}: range bytes");
            assert_eq!(range.count, solo_count, "{ctx}: range count");
            assert_eq!(range.sim_ns, solo_ns, "{ctx}: range time");

            let op =
                LogicalOp::ScanAggregate { rules: all_rules(), agg: ndp_ir::AggOp::Count, lane: 0 };
            let (solo_value, solo_any, solo_ns) =
                match solo.execute("papers", &op, Backend::Software).unwrap() {
                    PlanOutcome::Aggregate { value, any, report } => (value, any, report.sim_ns),
                    other => panic!("{ctx}: aggregate lowered to {other:?}"),
                };
            let agg = cluster
                .scan_aggregate("papers", &all_rules(), ndp_ir::AggOp::Count, 0, Backend::Software)
                .unwrap();
            assert_eq!((agg.value, agg.any, agg.sim_ns), (solo_value, solo_any, solo_ns), "{ctx}");

            // The queued engine: same scripts, same report — on the
            // legacy path and through the auto-batching fold alike.
            let scripts: Vec<ClientScript> = (0..3u64)
                .map(|c| ClientScript {
                    ops: (0..20u64)
                        .map(|i| match (c + i) % 6 {
                            0 => QueuedOp::Scan { rules: all_rules() },
                            1 => QueuedOp::Put { record: record_for(500 + c * 20 + i) },
                            _ => QueuedOp::Get { key: 1 + (c * 37 + i * 11) % 300 },
                        })
                        .collect(),
                    ..Default::default()
                })
                .collect();
            for batch in [1u32, 8] {
                let qcfg = QueueRunConfig { batch, ..QueueRunConfig::default() };
                let solo_report = solo.run_queued("papers", &scripts, &qcfg).unwrap();
                let report = cluster.run_queued("papers", &scripts, &qcfg).unwrap();
                assert_eq!(report.logical_ops, 60, "{ctx} batch={batch}");
                assert_eq!(
                    report.completions,
                    solo_report.ops(),
                    "{ctx} batch={batch}: queued completions"
                );
                assert_eq!(
                    report.span_ns,
                    solo_report.finished_ns - solo_report.started_ns,
                    "{ctx} batch={batch}: queued span"
                );
                assert_eq!(
                    report.latency, solo_report.latency,
                    "{ctx} batch={batch}: queued latency histogram"
                );
                assert_eq!(report.shard_spans, vec![report.span_ns], "{ctx} batch={batch}");
            }
        }
    }
}

/// Batched queued runs split per shard and re-merge to the same bytes
/// as the unbatched fan-out: the router partitions each client's script
/// by key ownership, every shard folds its own GET runs, and the merged
/// result — completion counts during the run, and the full cross-shard
/// byte image after it — is identical to batch 1.
#[test]
fn batched_queued_runs_split_per_shard_and_rejoin_the_unbatched_bytes() {
    let records = dataset(300);
    let scripts: Vec<ClientScript> = (0..3u64)
        .map(|c| ClientScript {
            ops: (0..24u64)
                .map(|i| match (c + i) % 8 {
                    0 => QueuedOp::Put { record: record_for(600 + c * 24 + i) },
                    _ => QueuedOp::Get { key: 1 + (c * 41 + i * 13) % 300 },
                })
                .collect(),
            ..Default::default()
        })
        .collect();
    let run = |batch: u32| {
        let mut cluster = build_cluster(4, ReadPolicy::Available, 4, 0, &records);
        let report = cluster
            .run_queued("papers", &scripts, &QueueRunConfig { batch, ..QueueRunConfig::default() })
            .unwrap();
        let scan = cluster.scan("papers", &all_rules(), Backend::Software).unwrap();
        assert!(scan.missing_shards.is_empty(), "batch {batch}");
        (report, scan)
    };
    let (base, base_scan) = run(1);
    assert_eq!(base.logical_ops, 72);
    assert_eq!(base.completions, 72, "every op routes to exactly one shard");
    for batch in [2u32, 16] {
        let (b, scan) = run(batch);
        assert_eq!(b.logical_ops, base.logical_ops, "batch {batch}");
        assert_eq!(b.completions, base.completions, "batch {batch}: merged completion count");
        assert_eq!(scan.count, base_scan.count, "batch {batch}: post-run record count");
        assert_eq!(
            scan.records, base_scan.records,
            "batch {batch}: post-run cross-shard bytes diverged from the unbatched fan-out"
        );
    }
}

/// `Strict` reads fail loudly: a killed shard is a typed
/// [`NkvError::ShardUnavailable`] on both the point and fan-out paths,
/// while keys owned by survivors keep serving.
#[test]
fn strict_policy_turns_a_killed_shard_into_typed_errors() {
    let records = dataset(200);
    let model: BTreeMap<u64, Vec<u8>> = records.iter().cloned().collect();
    let mut cluster = build_cluster(4, ReadPolicy::Strict, 1, 0, &records);
    let victim = 2usize;
    cluster
        .install_device_fault(victim, DeviceFaultPlan { kind: DeviceFaultKind::Hang, after_ops: 0 })
        .unwrap();

    let victim_key = (1..=200u64).find(|k| cluster.shard_for_key(*k) == victim).unwrap();
    let survivor_key = (1..=200u64).find(|k| cluster.shard_for_key(*k) != victim).unwrap();

    match cluster.get("papers", victim_key, Backend::Hardware) {
        Err(NkvError::ShardUnavailable { shard, reason }) => {
            assert_eq!(shard, victim);
            assert!(reason.contains("hang"), "reason should name the fault: {reason}");
        }
        other => panic!("strict get on a hung shard: {other:?}"),
    }
    match cluster.scan("papers", &all_rules(), Backend::Hardware) {
        Err(NkvError::ShardUnavailable { shard, .. }) => assert_eq!(shard, victim),
        other => panic!("strict scan with a hung shard: {other:?}"),
    }
    let got = cluster.get("papers", survivor_key, Backend::Hardware).unwrap();
    assert_eq!(got.record, model.get(&survivor_key).cloned());
    assert!(got.missing_shards.is_empty());

    // Writes are strict under either policy; the victim's keys bounce.
    match cluster.put("papers", record_for(victim_key)) {
        Err(NkvError::ShardUnavailable { shard, .. }) => assert_eq!(shard, victim),
        other => panic!("write to a hung shard: {other:?}"),
    }
    cluster.put("papers", record_for(survivor_key)).unwrap();
}

/// Property: under a sustained fault (no successful op, probe or heal),
/// the victim's severity is non-decreasing at every single step, across
/// seeded op mixes; and it always ends Dead with probes on record.
#[test]
fn shard_state_is_monotone_under_sustained_faults() {
    let records = dataset(150);
    for seed in 0..8u64 {
        let mut cluster = build_cluster(4, ReadPolicy::Available, 1, 0, &records);
        let victim = (seed % 4) as usize;
        cluster
            .install_device_fault(
                victim,
                DeviceFaultPlan { kind: DeviceFaultKind::LinkLoss, after_ops: 0 },
            )
            .unwrap();
        let mut rng = SplitMix64::new(0xC1A0_5EED ^ seed);
        let mut last = cluster.shard_state(victim).unwrap().severity();
        for step in 0..120u32 {
            let key = rng.gen_range_u64(1, 151);
            if rng.gen_bool(0.8) {
                cluster.get("papers", key, Backend::Hardware).unwrap();
            } else {
                cluster.scan("papers", &all_rules(), Backend::Software).unwrap();
            }
            let severity = cluster.shard_state(victim).unwrap().severity();
            assert!(
                severity >= last,
                "seed {seed} step {step}: severity regressed {last} -> {severity}"
            );
            last = severity;
        }
        assert_eq!(cluster.shard_state(victim).unwrap(), ShardState::Dead, "seed {seed}");
        assert!(cluster.cluster_health().shards[victim].probes_sent > 0, "seed {seed}");
    }
}

/// A quarantined shard keeps probing on foreground traffic, and the
/// first probe after the fault clears brings it back — no operator
/// action, no restart.
#[test]
fn quarantined_shard_reprobes_and_recovers_when_the_fault_clears() {
    let records = dataset(200);
    let mut cluster = build_cluster(4, ReadPolicy::Available, 1, 0, &records);
    let victim = 3usize;
    cluster
        .install_device_fault(victim, DeviceFaultPlan { kind: DeviceFaultKind::Hang, after_ops: 0 })
        .unwrap();
    let victim_key = (1..=200u64).find(|k| cluster.shard_for_key(*k) == victim).unwrap();
    let survivor_key = (1..=200u64).find(|k| cluster.shard_for_key(*k) != victim).unwrap();

    // Drive victim traffic until the FSM quarantines it.
    let mut quarantined = false;
    for _ in 0..40 {
        cluster.get("papers", victim_key, Backend::Hardware).unwrap();
        if cluster.shard_state(victim).unwrap() == ShardState::Quarantined {
            quarantined = true;
            break;
        }
    }
    assert!(quarantined, "sustained errors must quarantine the shard");
    let probes_before = cluster.cluster_health().shards[victim].probes_sent;

    // The cable is reseated: clear the device fault out from under the
    // router. Only survivor traffic flows; probes must ride on it.
    cluster.shard_db(victim).unwrap().platform_mut().clear_device_fault();
    let mut recovered = false;
    for _ in 0..20 {
        cluster.get("papers", survivor_key, Backend::Hardware).unwrap();
        if cluster.shard_state(victim).unwrap() == ShardState::Recovered {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "a probe must observe the cleared fault and recover the shard");
    assert!(
        cluster.cluster_health().shards[victim].probes_sent > probes_before,
        "recovery must come from probing, not from routed traffic"
    );
    // And the shard serves again, correct bytes included.
    let got = cluster.get("papers", victim_key, Backend::Hardware).unwrap();
    assert!(got.missing_shards.is_empty());
    assert_eq!(got.record, Some(record_for(victim_key)));
}

/// Dead is sticky: once probes exhaust, even a cleared fault does not
/// revive the shard — only an explicit heal does.
#[test]
fn dead_shard_stays_dead_until_explicitly_healed() {
    let records = dataset(200);
    let mut cluster = build_cluster(4, ReadPolicy::Available, 1, 0, &records);
    let victim = 0usize;
    cluster
        .install_device_fault(
            victim,
            DeviceFaultPlan { kind: DeviceFaultKind::LinkLoss, after_ops: 0 },
        )
        .unwrap();
    let victim_key = (1..=200u64).find(|k| cluster.shard_for_key(*k) == victim).unwrap();
    for _ in 0..80 {
        cluster.get("papers", victim_key, Backend::Software).unwrap();
        if cluster.shard_state(victim).unwrap() == ShardState::Dead {
            break;
        }
    }
    assert_eq!(cluster.shard_state(victim).unwrap(), ShardState::Dead);

    cluster.shard_db(victim).unwrap().platform_mut().clear_device_fault();
    for _ in 0..30 {
        let got = cluster.get("papers", victim_key, Backend::Software).unwrap();
        assert_eq!(got.missing_shards, vec![victim], "a dead shard must not serve");
    }
    assert_eq!(cluster.shard_state(victim).unwrap(), ShardState::Dead);

    cluster.heal_shard(victim).unwrap();
    assert_eq!(cluster.shard_state(victim).unwrap(), ShardState::Recovered);
    let got = cluster.get("papers", victim_key, Backend::Software).unwrap();
    assert!(got.missing_shards.is_empty());
    assert_eq!(got.record, Some(record_for(victim_key)));
}

/// Gray failure: a slow-but-alive device returns identical bytes with
/// stretched simulated time, and is never treated as failed.
#[test]
fn gray_slow_device_stretches_time_but_not_results() {
    let records = dataset(200);
    let mut clean = build_cluster(4, ReadPolicy::Available, 1, 0, &records);
    let mut slow = build_cluster(4, ReadPolicy::Available, 1, 0, &records);
    let victim = 1usize;
    slow.install_device_fault(
        victim,
        DeviceFaultPlan { kind: DeviceFaultKind::Slow { factor_x10: 30 }, after_ops: 0 },
    )
    .unwrap();

    let victim_key = (1..=200u64).find(|k| clean.shard_for_key(*k) == victim).unwrap();
    let clean_get = clean.get("papers", victim_key, Backend::Hardware).unwrap();
    let slow_get = slow.get("papers", victim_key, Backend::Hardware).unwrap();
    assert_eq!(slow_get.record, clean_get.record, "gray failure changed bytes");
    assert!(slow_get.missing_shards.is_empty(), "a slow shard is not missing");
    assert_eq!(slow_get.sim_ns, clean_get.sim_ns * 3, "factor 3.0x must stretch time exactly");

    let clean_scan = clean.scan("papers", &all_rules(), Backend::Hardware).unwrap();
    let slow_scan = slow.scan("papers", &all_rules(), Backend::Hardware).unwrap();
    assert_eq!(slow_scan.records, clean_scan.records, "gray failure changed scan bytes");
    assert!(slow_scan.missing_shards.is_empty());
    assert!(
        slow_scan.sim_ns > clean_scan.sim_ns,
        "the slowed shard must dominate the device-parallel span \
         ({} !> {})",
        slow_scan.sim_ns,
        clean_scan.sim_ns
    );
    assert_eq!(slow.shard_state(victim).unwrap(), ShardState::Healthy, "slow is not sick");
    let stats = slow.device_fault_stats(victim).unwrap().unwrap();
    assert!(stats.ops_slowed > 0, "the gray fault must account its slowdowns");
}

/// The health renderings operators grep are stable: the cluster report
/// names every FSM state with fixed wording, and the single-device
/// [`nkv::HealthReport`] text is unchanged by the cluster work.
#[test]
fn health_renderings_are_stable_across_the_new_states() {
    let records = dataset(120);
    let mut cluster = build_cluster(4, ReadPolicy::Available, 1, 0, &records);
    // The virgin rendering, before any routed op has been scored.
    let fresh = NkvCluster::new(ClusterConfig::default()).unwrap().cluster_health().to_string();
    assert!(
        fresh.starts_with(
            "cluster: 4 shards (4 serving) — 4 healthy, 0 degraded, 0 quarantined, 0 dead, 0 recovered"
        ),
        "fresh cluster header drifted:\n{fresh}"
    );
    assert!(
        fresh.contains("  shard 0: healthy (ops 0, errors 0, probes 0, transitions 0)"),
        "fresh shard line drifted:\n{fresh}"
    );
    assert!(
        fresh.ends_with("  router: 0 retries (+0 ns backoff)"),
        "router line drifted:\n{fresh}"
    );

    // Walk shard 1 to Dead and shard 2 to Degraded, then check the
    // rendering names both.
    cluster
        .install_device_fault(1, DeviceFaultPlan { kind: DeviceFaultKind::Hang, after_ops: 0 })
        .unwrap();
    let k1 = (1..=120u64).find(|k| cluster.shard_for_key(*k) == 1).unwrap();
    for _ in 0..80 {
        cluster.get("papers", k1, Backend::Software).unwrap();
        if cluster.shard_state(1).unwrap() == ShardState::Dead {
            break;
        }
    }
    cluster
        .install_device_fault(2, DeviceFaultPlan { kind: DeviceFaultKind::LinkLoss, after_ops: 0 })
        .unwrap();
    let k2 = (1..=120u64).find(|k| cluster.shard_for_key(*k) == 2).unwrap();
    cluster.get("papers", k2, Backend::Software).unwrap();
    assert_eq!(cluster.shard_state(1).unwrap(), ShardState::Dead);
    assert_eq!(cluster.shard_state(2).unwrap(), ShardState::Degraded);

    let report = cluster.cluster_health();
    let text = report.to_string();
    assert!(text.starts_with("cluster: 4 shards (3 serving) —"), "serving count drifted:\n{text}");
    assert!(text.contains("1 degraded"), "{text}");
    assert!(text.contains("1 dead"), "{text}");
    assert!(text.contains("  shard 1: dead ("), "{text}");
    assert!(text.contains("  shard 2: degraded ("), "{text}");
    assert!(report.router_retries > 0, "rejections must be counted as router retries");

    // The device-level health text predates the cluster layer and must
    // not have moved: byte-exact for a fresh device.
    let device = NkvDb::default_db().health_report().to_string();
    assert_eq!(
        device,
        "health: injected 0 transient flash, 0 ecc-corrected, 0 grown-bad, 0 torn, \
         0 dram stalls (+0 ns), 0 pe hangs\n        reacted 0 retries (+0 ns backoff), \
         0 reads failed, 0 watchdog trips, 0 sw-fallback blocks, 0 PEs retired, 0 pages repaired"
    );
}

/// Range sharding keeps contiguous key ranges per device and prunes
/// RANGE_SCAN fan-out: a scan inside one shard's interval touches only
/// that shard, even with the rest of the fleet dead.
#[test]
fn range_sharding_prunes_range_scans_to_owning_shards() {
    let records = dataset(300);
    let mut cluster = NkvCluster::new(ClusterConfig {
        devices: 3,
        strategy: nkv::ShardStrategy::Range { boundaries: vec![101, 201] },
        read_policy: ReadPolicy::Strict,
        ..ClusterConfig::default()
    })
    .unwrap();
    cluster.create_table("papers", table_cfg(1)).unwrap();
    cluster.bulk_load("papers", records.iter().map(|(_, r)| r.clone()).collect()).unwrap();
    cluster.persist().unwrap();

    // Kill shards 1 and 2; a range entirely inside shard 0 still works —
    // under Strict policy — because pruning proves the others hold
    // nothing.
    for s in [1usize, 2] {
        cluster
            .install_device_fault(s, DeviceFaultPlan { kind: DeviceFaultKind::Hang, after_ops: 0 })
            .unwrap();
    }
    let scan = cluster.range_scan("papers", 10, 101, Backend::Software).unwrap();
    assert_eq!(scan.count, 91, "keys 10..=100 live on shard 0");
    assert!(scan.missing_shards.is_empty());
    // A range crossing into shard 1 must hit the hung device and fail
    // strictly.
    match cluster.range_scan("papers", 50, 150, Backend::Software) {
        Err(NkvError::ShardUnavailable { shard: 1, .. }) => {}
        other => panic!("cross-shard range over a hung device: {other:?}"),
    }
}

/// A 4-shard cluster under `policy` whose shard `victim` a link loss
/// has driven all the way to `Dead`, with router tracing switched on
/// afterwards and the trace drained.
fn cluster_with_dead_shard(policy: ReadPolicy, victim: usize) -> NkvCluster {
    let mut cluster = build_cluster(4, policy, 1, 0, &dataset(200));
    cluster
        .install_device_fault(
            victim,
            DeviceFaultPlan { kind: DeviceFaultKind::LinkLoss, after_ops: 0 },
        )
        .unwrap();
    let victim_key = (1..=200u64).find(|k| cluster.shard_for_key(*k) == victim).unwrap();
    for _ in 0..80 {
        // Strict fails every call; Available reports the hole. Either
        // way the FSM scores the fault.
        let _ = cluster.get("papers", victim_key, Backend::Software);
        if cluster.shard_state(victim).unwrap() == ShardState::Dead {
            break;
        }
    }
    assert_eq!(cluster.shard_state(victim).unwrap(), ShardState::Dead);
    cluster.enable_observability(1 << 12);
    let _ = cluster.take_cluster_trace();
    cluster
}

/// Shards the router waited on since the last drain, in span order.
fn router_waits(cluster: &mut NkvCluster) -> Vec<u32> {
    let (_, router) = cluster.take_cluster_trace();
    router
        .iter()
        .filter_map(|s| match s.kind {
            RouterSpanKind::ShardWait { shard } => Some(shard),
            _ => None,
        })
        .collect()
}

/// The one read fan-out's degraded-mode contract, pinned on all six
/// cluster read methods with one shard dead: under `Available` the dead
/// shard is listed as missing and the router waits exactly once on
/// every surviving participant (a GET whose only shard is dead records
/// no fan-out at all); under `Strict` every read is a typed
/// `ShardUnavailable` naming the dead shard.
#[test]
fn every_read_method_shares_the_degraded_fan_out_semantics() {
    let victim = 2usize;
    let survivors: Vec<u32> = (0..4u32).filter(|&s| s != victim as u32).collect();
    let rules = all_rules();
    let mut cluster = cluster_with_dead_shard(ReadPolicy::Available, victim);
    let victim_key = (1..=200u64).find(|k| cluster.shard_for_key(*k) == victim).unwrap();
    let survivor_key = (1..=200u64).find(|k| cluster.shard_for_key(*k) != victim).unwrap();
    // One key per shard, so the batched GET's participants are all four.
    let spread: Vec<u64> =
        (0..4).map(|s| (1..=200u64).find(|k| cluster.shard_for_key(*k) == s).unwrap()).collect();

    let got = cluster.get("papers", victim_key, Backend::Software).unwrap();
    assert_eq!((got.record, got.missing_shards, got.sim_ns), (None, vec![victim], 0));
    let (_, router) = cluster.take_cluster_trace();
    assert!(router.is_empty(), "a GET on a dead shard fans out to nobody: {router:?}");

    let got = cluster.get("papers", survivor_key, Backend::Software).unwrap();
    assert!(got.missing_shards.is_empty());
    let owner = cluster.shard_for_key(survivor_key) as u32;
    assert_eq!(router_waits(&mut cluster), vec![owner], "get on a survivor");

    let multi = cluster.multi_get("papers", &spread, Backend::Software).unwrap();
    assert_eq!(multi.missing_shards, vec![victim], "multi_get");
    assert_eq!(multi.results[victim].as_ref().unwrap(), &None, "the hole reads as a miss");
    assert_eq!(router_waits(&mut cluster), survivors, "multi_get");

    let scan = cluster.scan("papers", &rules, Backend::Software).unwrap();
    assert_eq!(scan.missing_shards, vec![victim], "scan");
    assert_eq!(router_waits(&mut cluster), survivors, "scan");

    let (adaptive, tiers) = cluster.scan_adaptive("papers", &rules).unwrap();
    assert_eq!(adaptive.missing_shards, vec![victim], "scan_adaptive");
    assert_eq!(adaptive.records, scan.records, "scan_adaptive bytes");
    let tier_shards: Vec<u32> = tiers.iter().map(|&(s, _)| s as u32).collect();
    assert_eq!(tier_shards, survivors, "scan_adaptive tiers");
    assert_eq!(router_waits(&mut cluster), survivors, "scan_adaptive");

    let range = cluster.range_scan("papers", 1, 201, Backend::Software).unwrap();
    assert_eq!(range.missing_shards, vec![victim], "range_scan");
    assert_eq!(range.records.len(), scan.records.len(), "range_scan covers every key");
    assert_eq!(router_waits(&mut cluster), survivors, "range_scan");

    let agg = cluster
        .scan_aggregate("papers", &rules, AggOp::Count, paper_lanes::YEAR, Backend::Software)
        .unwrap();
    assert_eq!(agg.missing_shards, vec![victim], "scan_aggregate");
    assert_eq!((agg.value, agg.any), (scan.count, true), "scan_aggregate counts the survivors");
    assert_eq!(router_waits(&mut cluster), survivors, "scan_aggregate");

    let mut strict = cluster_with_dead_shard(ReadPolicy::Strict, victim);
    let unavailable = |res: Result<(), NkvError>, what: &str| match res {
        Err(NkvError::ShardUnavailable { shard, .. }) => assert_eq!(shard, victim, "{what}"),
        other => panic!("strict {what} with a dead shard: {other:?}"),
    };
    let sw = Backend::Software;
    unavailable(strict.get("papers", victim_key, sw).map(drop), "get");
    unavailable(strict.multi_get("papers", &spread, sw).map(drop), "multi_get");
    unavailable(strict.scan("papers", &rules, sw).map(drop), "scan");
    unavailable(strict.scan_adaptive("papers", &rules).map(drop), "scan_adaptive");
    unavailable(strict.range_scan("papers", 1, 201, sw).map(drop), "range_scan");
    let agg = strict.scan_aggregate("papers", &rules, AggOp::Count, paper_lanes::YEAR, sw);
    unavailable(agg.map(drop), "scan_aggregate");
}
