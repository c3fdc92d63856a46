//! Chaos suite: seeded fault campaigns against a model-checked store.
//!
//! Every round drives random PUT/DELETE/GET/SCAN traffic through a
//! database whose platform has a [`FaultPlan`] installed — transient
//! read failures, correctable-ECC degradation, DRAM stall bursts and PE
//! hangs all firing at once — and checks three properties:
//!
//! 1. **no panics**: every operation returns `Ok` or a typed
//!    [`NkvError`]; nothing unwinds;
//! 2. **correctness under degradation**: once the fault campaign ends,
//!    the store's contents match a `BTreeMap` model of the acknowledged
//!    operations exactly — retries, HW→SW fallback and read-repair must
//!    never change *what* is read, only *when*;
//! 3. **observability**: the injected faults show up in the
//!    [`HealthReport`] counters.
//!
//! Plans are seeded, so any failure replays from the printed seed.

use cosmos_sim::faults::{FaultPlan, FlashFaultKind, ScheduledFault};
use cosmos_sim::PhysAddr;
use ndp_ir::elaborate;
use ndp_pe::oracle::FilterRule;
use ndp_workload::spec::{paper_lanes, PAPER_PE, PAPER_REF_SPEC};
use ndp_workload::{Paper, PaperGen, PubGraphConfig, SplitMix64};
use nkv::{Backend, NkvDb, NkvError, TableConfig};
use std::collections::BTreeMap;

fn encode(p: &Paper) -> Vec<u8> {
    let mut v = Vec::with_capacity(80);
    p.encode_into(&mut v);
    v
}

/// Table with a tiny memtable and an aggressive compaction trigger so a
/// few hundred operations exercise flush + compaction under faults.
fn table_cfg() -> TableConfig {
    let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    let mut cfg = TableConfig::new(elaborate(&m, PAPER_PE).unwrap());
    cfg.lsm.memtable_bytes = 8 * 1024;
    cfg.lsm.c1_sst_limit = 2;
    cfg
}

fn record(cfg: &PubGraphConfig, key: u64, step: u32) -> Vec<u8> {
    let mut p = PaperGen::paper_at(cfg, key % cfg.papers);
    p.id = key;
    p.year = 1900 + (step % 120);
    encode(&p)
}

/// Count of model records matching `year < bound` (mirrors the scan
/// predicate pushed to the device).
fn model_matches(model: &BTreeMap<u64, Vec<u8>>, bound: u32) -> u64 {
    model.values().filter(|r| Paper::decode(r).year < bound).count() as u64
}

/// One seeded chaos round; returns the device-wide health counters so
/// the caller can assert the campaign actually injected faults.
fn chaos_round(seed: u64) -> nkv::HealthReport {
    let plan = FaultPlan {
        seed,
        transient_read_p: 0.02,
        correctable_p: 0.05,
        dram_stall_p: 0.01,
        dram_stall_ns: (5_000, 50_000),
        pe_hang_p: 0.02,
        // Pin one low hot-class page to correctable-ECC so read-repair
        // has a deterministic target once scans degrade it.
        schedule: vec![ScheduledFault {
            addr: PhysAddr { channel: 0, lun: 0, page: 2 },
            kind: FlashFaultKind::Correctable,
        }],
        ..FaultPlan::default()
    };
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    db.enable_observability(1 << 14);
    db.platform_mut().install_faults(&plan);

    let gen_cfg = PubGraphConfig { papers: 200, refs: 0, seed: 1 };
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut rng = SplitMix64::new(seed ^ 0x00C0_FFEE);
    for step in 0..400u32 {
        let key = rng.gen_range_u64(1, 250);
        let roll = rng.gen_range_u64(0, 100);
        let mode = if rng.gen_bool(0.5) { Backend::Hardware } else { Backend::Software };
        if roll < 55 {
            let r = record(&gen_cfg, key, step);
            match db.put("papers", r.clone()) {
                Ok(()) => {
                    model.insert(key, r);
                }
                Err(e) => panic!("seed {seed}: put({key}) -> {e}"),
            }
        } else if roll < 70 {
            match db.delete("papers", key) {
                Ok(()) => {
                    model.remove(&key);
                }
                Err(e) => panic!("seed {seed}: delete({key}) -> {e}"),
            }
        } else if roll < 90 {
            // Reads may legitimately fail while faults fire; only the
            // error *type* is constrained (never a panic, never silent
            // wrong data).
            match db.get("papers", key, mode) {
                Ok((got, _)) => assert_eq!(
                    got,
                    model.get(&key).cloned(),
                    "seed {seed} step {step}: get({key}) diverged"
                ),
                Err(NkvError::RetriesExhausted { .. } | NkvError::Flash(_)) => {}
                Err(e) => panic!("seed {seed}: get({key}) -> unexpected {e}"),
            }
        } else if roll < 97 {
            let bound = 1900 + (step % 120);
            let rules =
                [FilterRule { lane: paper_lanes::YEAR, op_code: 5, value: u64::from(bound) }];
            match db.scan("papers", &rules, mode) {
                Ok(s) => assert_eq!(
                    s.count,
                    model_matches(&model, bound),
                    "seed {seed} step {step}: scan(year<{bound}) diverged"
                ),
                Err(NkvError::RetriesExhausted { .. } | NkvError::Flash(_)) => {}
                Err(e) => panic!("seed {seed}: scan -> unexpected {e}"),
            }
        } else {
            // Maintenance traffic: relocate degrading pages and bring
            // watchdog-retired PEs back into rotation.
            db.read_repair(3).unwrap_or_else(|e| panic!("seed {seed}: repair -> {e}"));
            db.reset_pes("papers").unwrap();
        }
    }

    let health = db.health_report();
    // Observability: the operator-facing `DeviceStats` snapshot carries
    // the same health counters the campaign accumulated, and the ops
    // that provoked them are accounted in the metrics registry.
    let stats = db.device_stats();
    assert_eq!(stats.health, health, "seed {seed}: DeviceStats diverges from health_report");
    assert!(stats.metrics.total_ops() > 0, "seed {seed}: no ops recorded");
    // End of campaign: with injection off (no persistent damage was
    // planned) the store must agree with the model on every key.
    db.platform_mut().clear_faults();
    db.reset_pes("papers").unwrap();
    for key in 1..250u64 {
        let (got, _) = db
            .get("papers", key, Backend::Software)
            .unwrap_or_else(|e| panic!("seed {seed}: final get({key}) -> {e}"));
        assert_eq!(got, model.get(&key).cloned(), "seed {seed}: final state, key {key}");
    }
    let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 5, value: 3000 }];
    let s = db.scan("papers", &rules, Backend::Hardware).unwrap();
    assert_eq!(s.count, model.len() as u64, "seed {seed}: final scan count");
    health
}

#[test]
fn thirty_two_seeded_fault_campaigns_preserve_the_model() {
    let mut total = nkv::HealthReport::default();
    for seed in 0..32u64 {
        let h = chaos_round(0xBAD5_EED0 + seed);
        total.flash.transient_failures += h.flash.transient_failures;
        total.flash.correctable_hits += h.flash.correctable_hits;
        total.dram.stalls += h.dram.stalls;
        total.pe_hangs_injected += h.pe_hangs_injected;
        total.read_retries += h.read_retries;
        total.watchdog_trips += h.watchdog_trips;
        total.sw_fallback_blocks += h.sw_fallback_blocks;
        total.pages_repaired += h.pages_repaired;
    }
    // The campaigns must actually have exercised every fault class and
    // every resilience reaction (rates are high enough that a silent
    // no-op injector cannot pass).
    assert!(total.flash.transient_failures > 0, "no transient faults fired");
    assert!(total.flash.correctable_hits > 0, "no correctable-ECC events");
    assert!(total.dram.stalls > 0, "no DRAM stalls");
    assert!(total.pe_hangs_injected > 0, "no PE hangs");
    assert!(total.read_retries > 0, "resilience layer never retried");
    assert!(total.watchdog_trips > 0, "watchdog never tripped");
    assert!(total.sw_fallback_blocks > 0, "HW never degraded to SW");
}

/// Every fault class a plan injects is visible in the single
/// [`DeviceStats`](nkv::DeviceStats) snapshot an operator would pull:
/// the health block equals `health_report()` and the rendered text
/// carries the exact counters — injection can never be silent.
#[test]
fn every_injected_fault_is_visible_in_device_stats() {
    let plan = FaultPlan {
        seed: 0xD1A6,
        transient_read_p: 0.05,
        correctable_p: 0.2,
        dram_stall_p: 0.05,
        dram_stall_ns: (5_000, 50_000),
        pe_hang_p: 0.2,
        schedule: vec![ScheduledFault {
            addr: PhysAddr { channel: 0, lun: 0, page: 2 },
            kind: FlashFaultKind::Correctable,
        }],
        ..FaultPlan::default()
    };
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    db.enable_observability(1 << 16);
    db.platform_mut().install_faults(&plan);

    let gen_cfg = PubGraphConfig { papers: 200, refs: 0, seed: 2 };
    for step in 0..120u32 {
        let key = u64::from(step % 60) + 1;
        db.put("papers", record(&gen_cfg, key, step)).unwrap();
    }
    // Push everything to flash so reads actually face the fault plan.
    db.flush("papers").unwrap();
    let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 5, value: 3000 }];
    for _ in 0..10 {
        let _ = db.scan("papers", &rules, Backend::Hardware);
        db.reset_pes("papers").unwrap();
    }
    for key in 1..40u64 {
        let _ = db.get("papers", key, Backend::Software);
    }
    db.read_repair(2).unwrap();

    let stats = db.device_stats();
    assert_eq!(stats.health, db.health_report(), "one snapshot, one truth");
    let h = stats.health;
    assert!(h.flash.transient_failures > 0, "transient faults invisible");
    assert!(h.flash.correctable_hits > 0, "correctable-ECC hits invisible");
    assert!(h.dram.stalls > 0, "DRAM stalls invisible");
    assert!(h.pe_hangs_injected > 0, "PE hangs invisible");
    assert!(h.read_retries > 0, "retry reaction invisible");
    assert!(h.watchdog_trips > 0, "watchdog reaction invisible");
    assert!(h.sw_fallback_blocks > 0, "HW->SW degradation invisible");
    assert!(h.pages_repaired > 0, "read-repair invisible");

    let rendered = stats.to_string();
    for needle in [
        format!("injected {} transient flash", h.flash.transient_failures),
        format!("{} ecc-corrected", h.flash.correctable_hits),
        format!("{} dram stalls", h.dram.stalls),
        format!("{} pe hangs", h.pe_hangs_injected),
        format!("{} watchdog trips", h.watchdog_trips),
        format!("{} pages repaired", h.pages_repaired),
    ] {
        assert!(rendered.contains(&needle), "stats text missing `{needle}`:\n{rendered}");
    }
    // The ops that provoked the faults are accounted too.
    assert_eq!(stats.metrics.op(nkv::OpKind::Put).ops, 120);
    assert!(stats.metrics.op(nkv::OpKind::Get).ops > 0);
    assert!(stats.metrics.op(nkv::OpKind::ReadRepair).ops > 0);
}

#[test]
fn retry_backoff_costs_simulated_time() {
    let plan = FaultPlan { seed: 7, transient_read_p: 0.2, ..FaultPlan::default() };
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    let gen_cfg = PubGraphConfig { papers: 2000, refs: 0, seed: 2 };
    db.bulk_load("papers", PaperGen::new(gen_cfg).map(|p| encode(&p))).unwrap();
    db.platform_mut().install_faults(&plan);
    let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 5, value: 3000 }];
    db.scan("papers", &rules, Backend::Software).unwrap();
    let h = db.table_health("papers").unwrap();
    assert!(h.read_retries > 0);
    assert!(
        h.retry_backoff_ns >= h.read_retries * 50_000,
        "exponential backoff must charge at least the base per retry"
    );
    assert_eq!(h.reads_failed, 0, "0.2 transient rate must not exhaust 3 retries");
}

#[test]
fn pe_hang_mid_scan_degrades_to_software_with_identical_results() {
    let gen_cfg = PubGraphConfig { papers: 3000, refs: 0, seed: 3 };
    let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 5, value: 1980 }];

    // Reference: a clean database, hardware scan.
    let mut clean = NkvDb::default_db();
    clean.create_table("papers", table_cfg()).unwrap();
    clean.bulk_load("papers", PaperGen::new(gen_cfg).map(|p| encode(&p))).unwrap();
    let reference = clean.scan("papers", &rules, Backend::Hardware).unwrap();

    // Faulty: every PE block job hangs, so the watchdog retires the PE
    // on its first block and the rest of the scan runs on the ARM core.
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    db.bulk_load("papers", PaperGen::new(gen_cfg).map(|p| encode(&p))).unwrap();
    db.platform_mut().install_faults(&FaultPlan {
        seed: 9,
        pe_hang_p: 1.0,
        ..FaultPlan::default()
    });
    let degraded = db.scan("papers", &rules, Backend::Hardware).unwrap();

    assert_eq!(degraded.records, reference.records, "degradation changed results");
    assert_eq!(degraded.count, reference.count);
    let h = db.table_health("papers").unwrap();
    assert_eq!(h.watchdog_trips, 1, "one trip retires the only PE");
    assert!(h.sw_fallback_blocks > 0, "remaining blocks must run in software");
    let report = db.health_report();
    assert_eq!(report.pes_failed, 1);
    assert!(report.pe_hangs_injected >= 1);

    // A PL reconfiguration brings the PE back.
    db.reset_pes("papers").unwrap();
    assert_eq!(db.health_report().pes_failed, 0);
}

#[test]
fn pe_hang_without_fallback_is_a_typed_timeout() {
    let gen_cfg = PubGraphConfig { papers: 500, refs: 0, seed: 4 };
    let mut cfg = table_cfg();
    cfg.resilience.hw_fallback_to_sw = false;
    let mut db = NkvDb::default_db();
    db.create_table("papers", cfg).unwrap();
    db.bulk_load("papers", PaperGen::new(gen_cfg).map(|p| encode(&p))).unwrap();
    db.platform_mut().install_faults(&FaultPlan {
        seed: 11,
        pe_hang_p: 1.0,
        ..FaultPlan::default()
    });
    let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 5, value: 3000 }];
    match db.scan("papers", &rules, Backend::Hardware) {
        Err(NkvError::PeTimeout { watchdog_ns, .. }) => {
            assert_eq!(watchdog_ns, 1_000_000, "default watchdog budget");
        }
        other => panic!("expected PeTimeout, got {other:?}"),
    }
}

#[test]
fn read_repair_relocates_degrading_pages_and_survives_recovery() {
    let gen_cfg = PubGraphConfig { papers: 1500, refs: 0, seed: 5 };
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    db.bulk_load("papers", PaperGen::new(gen_cfg).map(|p| encode(&p))).unwrap();
    db.persist().unwrap();
    // Every read is a correctable-ECC event: pages degrade fast.
    db.platform_mut().install_faults(&FaultPlan {
        seed: 13,
        correctable_p: 1.0,
        ..FaultPlan::default()
    });
    let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 5, value: 3000 }];
    for _ in 0..3 {
        db.scan("papers", &rules, Backend::Software).unwrap();
    }
    let moved = db.read_repair(3).unwrap();
    assert!(moved > 0, "three full scans must push data pages past the threshold");
    assert_eq!(db.health_report().pages_repaired, moved);
    // Repaired pages start fresh; a second pass finds nothing at the
    // same threshold.
    assert_eq!(db.read_repair(u32::MAX).unwrap(), 0);

    // Contents are unchanged and the rewired metadata survives a power
    // cycle (read-repair re-persisted the manifest).
    db.platform_mut().clear_faults();
    let count = db.scan("papers", &rules, Backend::Hardware).unwrap().count;
    assert_eq!(count, gen_cfg.papers);
    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = db.platform_mut().flash.clone();
    let mut rec = NkvDb::recover(fresh, vec![("papers".into(), table_cfg())]).unwrap();
    assert_eq!(rec.scan("papers", &rules, Backend::Hardware).unwrap().count, count);
}

#[test]
fn power_cut_recovery_yields_a_consistent_prefix_of_acknowledged_flushes() {
    // Acknowledged state = model snapshot taken after each successful
    // flush + persist. A power cut strikes during some later batch; the
    // recovered device must match either the last *acknowledged*
    // snapshot or the single *in-flight* one (a persist interrupted by
    // the cut may still have become durable — standard crash semantics)
    // — never a torn half-state, never a resurrected older one, and an
    // acknowledged snapshot must never be lost.
    let gen_cfg = PubGraphConfig { papers: 200, refs: 0, seed: 6 };
    for cut_at in [40u64, 170, 260, 900] {
        let mut db = NkvDb::default_db();
        db.create_table("papers", table_cfg()).unwrap();
        db.platform_mut().install_faults(&FaultPlan {
            seed: 17,
            power_cut_at_write: Some(cut_at),
            ..FaultPlan::default()
        });
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut acked: Option<BTreeMap<u64, Vec<u8>>> = None;
        let mut in_flight: Option<BTreeMap<u64, Vec<u8>>> = None;
        let mut acked_batches = 0u32;
        'batches: for batch in 0..200u32 {
            for i in 0..40u64 {
                let key = 1 + (u64::from(batch) * 7 + i) % 300;
                let r = record(&gen_cfg, key, batch);
                match db.put("papers", r.clone()) {
                    Ok(()) => {
                        model.insert(key, r);
                    }
                    Err(NkvError::Flash(cosmos_sim::FlashError::PowerCut)) => break 'batches,
                    Err(e) => panic!("unexpected error before the cut: {e}"),
                }
            }
            match db.flush("papers").and_then(|()| db.persist()) {
                Ok(()) => {
                    acked = Some(model.clone());
                    acked_batches = batch + 1;
                }
                Err(NkvError::Flash(cosmos_sim::FlashError::PowerCut)) => {
                    in_flight = Some(model.clone());
                    break 'batches;
                }
                Err(e) => panic!("unexpected error before the cut: {e}"),
            }
        }
        let stats = db.platform_mut().flash.fault_stats();
        assert_eq!(stats.torn_writes, 1, "cut_at={cut_at}: exactly one torn program");
        assert!(acked_batches < 200, "cut_at={cut_at}: the cut must strike mid-run");

        // Reboot: only the flash image survives; power comes back on.
        let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
        fresh.flash = db.platform_mut().flash.clone();
        fresh.flash.reboot();
        let mut rec = match NkvDb::recover(fresh, vec![("papers".into(), table_cfg())]) {
            Ok(rec) => rec,
            Err(e) => {
                assert!(acked.is_none(), "cut_at={cut_at}: acknowledged state lost: {e}");
                continue;
            }
        };
        let mut state: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for key in 1..=300u64 {
            let (got, _) = rec.get("papers", key, Backend::Software).unwrap();
            if let Some(r) = got {
                state.insert(key, r);
            }
        }
        let candidates = [acked.unwrap_or_default(), in_flight.unwrap_or_default()];
        assert!(
            candidates.contains(&state),
            "cut_at={cut_at}: recovered state ({} keys) is neither the \
             acknowledged snapshot nor the in-flight one",
            state.len()
        );
    }
}
