//! Register conservation: the PE register traffic the device is charged
//! for is the traffic the generated driver really performs.
//!
//! One protocol function in `ndp_swgen::driver` lists the register
//! accesses of a job launch and its readback. `PeDriver` performs them
//! as MMIO; `ndp_swgen::job_io` only counts them, and the engine's fast
//! path, the cost model and the Fig. 7(b) anchor all charge that count.
//! This suite holds the two sides together:
//!
//! 1. **driver level** — for every profile × invoke kind × aggregate,
//!    `job_io` equals what a real `PeDriver` counts on the same job;
//! 2. **engine level** — twin devices, one driving the tick-level PE
//!    through the driver (`cycle_accurate`) and one on the analytic
//!    fast path, report identical `SimReport` register traffic across
//!    PE shapes, both profiles and every hardware op shape;
//! 3. **the Fig. 7(b) anchor** — the per-block counts for \[1\] and ours
//!    come from `job_io`, and with them the calibrated flash bandwidth
//!    lands on the paper's 5.512 s / 5.530 s and its +0.018 s delta.

use cosmos_sim::timing::{cfg_overhead_ns, FLASH_AGGREGATE_BW};
use ndp_ir::{elaborate, AggOp, PeConfig};
use ndp_pe::oracle::FilterRule;
use ndp_pe::template::PeVariant;
use ndp_pe::{MemBus, PeSim, VecMem};
use ndp_swgen::{job_io, DriverProfile, FilterJob, Invoke, IoStats, PeDriver};
use ndp_workload::spec::{ref_lanes, PAPER_REF_SPEC, REF_PE};
use ndp_workload::Ref;
use nkv::{Backend, NkvDb, SimReport, TableConfig};

const PROFILES: [DriverProfile; 2] = [DriverProfile::Generated, DriverProfile::Baseline];

/// A 16-byte record PE: key, two value lanes.
fn rec_pe(annotation: &str) -> PeConfig {
    let src = format!(
        "/* @autogen define parser R with input = Rec, output = Rec, {annotation} */
         typedef struct {{ uint64_t key; uint32_t a; uint32_t b; }} Rec;"
    );
    elaborate(&ndp_spec::parse(&src).unwrap(), "R").unwrap()
}

fn ref_pe() -> PeConfig {
    elaborate(&ndp_spec::parse(PAPER_REF_SPEC).unwrap(), REF_PE).unwrap()
}

// ---------------------------------------------------------------- driver

#[test]
fn job_io_counts_what_the_driver_performs() {
    let mut mem = VecMem::new(1 << 16);
    let data: Vec<u8> = (0u64..64).flat_map(rec_record).collect();
    mem.write_bytes(0, &data);
    for stages in [1u32, 3] {
        let cfg = rec_pe(&format!("stages = {stages}, aggregate = {{ sum, count }}"));
        let ge = cfg.op_code("ge").unwrap();
        for profile in PROFILES {
            for aggregate in [None, Some((AggOp::Sum, 1)), Some((AggOp::Count, 0))] {
                for n_rules in [0, 1, stages as usize] {
                    let rules: Vec<FilterRule> = (0..n_rules)
                        .map(|i| FilterRule { lane: 1, op_code: ge, value: 10 + i as u64 })
                        .collect();
                    let job = FilterJob {
                        src: 0,
                        len: data.len() as u32,
                        dst: 0x8000,
                        capacity: 0x4000,
                        rules: rules.clone(),
                        aggregate,
                    };
                    // Keyed and warm launches follow the cold one that
                    // configured the PE, as in the engine.
                    let mut drv = PeDriver::new(PeSim::new(cfg.clone()), profile);
                    for invoke in [Invoke::Cold, Invoke::Warm, Invoke::Keyed, Invoke::Warm] {
                        let handle = drv.launch(&job, invoke);
                        let res = drv.complete(&mut mem, handle);
                        let counted = job_io(profile, stages, &rules, aggregate, invoke);
                        assert_eq!(
                            res.io, counted,
                            "{profile:?} stages={stages} rules={n_rules} {aggregate:?} {invoke:?}"
                        );
                        assert_eq!(res.aggregate.is_some(), aggregate.is_some());
                    }
                    assert!(drv.total_io.reg_writes > 0);
                }
            }
        }
    }
}

// ---------------------------------------------------------------- engine

/// One PE shape under one profile, with a records generator and the
/// scan predicate its ops use.
struct Shape {
    name: &'static str,
    pe: PeConfig,
    variant: PeVariant,
    records: fn(u64) -> Vec<u8>,
    rules: Vec<FilterRule>,
}

fn ref_record(key: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(20);
    Ref { src: key, dst: key * 7, year: 1950 + (key % 70) as u32 }.encode_into(&mut v);
    v
}

fn rec_record(key: u64) -> Vec<u8> {
    let mut v = key.to_le_bytes().to_vec();
    v.extend_from_slice(&((key % 97) as u32).to_le_bytes());
    v.extend_from_slice(&((key % 13) as u32).to_le_bytes());
    v
}

fn shapes() -> Vec<Shape> {
    let refs = ref_pe();
    let year =
        FilterRule { lane: ref_lanes::YEAR, op_code: refs.op_code("ge").unwrap(), value: 2000 };
    let multi = rec_pe("stages = 3");
    let multi_rule = FilterRule { lane: 1, op_code: multi.op_code("lt").unwrap(), value: 40 };
    let agg = rec_pe("aggregate = { sum, count }");
    let agg_rule = FilterRule { lane: 2, op_code: agg.op_code("ne").unwrap(), value: 5 };
    vec![
        Shape {
            name: "1-stage refs, generated",
            pe: refs.clone(),
            variant: PeVariant::Generated,
            records: ref_record,
            rules: vec![year],
        },
        Shape {
            name: "1-stage refs, baseline [1]",
            pe: refs,
            variant: PeVariant::HandCrafted,
            records: ref_record,
            rules: vec![year],
        },
        Shape {
            name: "3-stage, one rule and two nop-filled stages",
            pe: multi,
            variant: PeVariant::Generated,
            records: rec_record,
            rules: vec![multi_rule],
        },
        Shape {
            name: "aggregate PE",
            pe: agg,
            variant: PeVariant::Generated,
            records: rec_record,
            rules: vec![agg_rule],
        },
    ]
}

fn device(shape: &Shape, cycle_accurate: bool) -> NkvDb {
    let mut cfg = TableConfig::new(shape.pe.clone());
    cfg.variant = shape.variant;
    cfg.cycle_accurate = cycle_accurate;
    cfg.n_pes = 2;
    let mut db = NkvDb::default_db();
    db.create_table("t", cfg).unwrap();
    db.bulk_load("t", (1..=6_000).map(shape.records)).unwrap();
    db
}

/// Every hardware op shape, in order, with the register traffic each
/// one was charged.
fn traffic(db: &mut NkvDb, shape: &Shape) -> Vec<(&'static str, u64, u64)> {
    let hw = Backend::Hardware;
    let io = |r: &SimReport| (r.reg_writes, r.reg_reads);
    let mut out = Vec::new();
    let mut note = |op: &'static str, (w, r): (u64, u64)| out.push((op, w, r));
    note("cold GET", io(&db.get("t", 4_321, hw).unwrap().1));
    note("warm scan", io(&db.scan("t", &shape.rules, hw).unwrap().report));
    db.set_parallel_pes("t", 2).unwrap();
    note("parallel-PE scan", io(&db.scan("t", &shape.rules, hw).unwrap().report));
    db.set_parallel_pes("t", 0).unwrap();
    note("batched multi-get", io(&db.multi_get("t", &[17, 4_000, 999, 5_999], hw).unwrap().1));
    note("interleaved GET", io(&db.get("t", 2_500, hw).unwrap().1));
    note("interleaved scan", io(&db.scan("t", &shape.rules, hw).unwrap().report));
    note("interleaved GET again", io(&db.get("t", 100, hw).unwrap().1));
    out
}

#[test]
fn charged_register_traffic_equals_the_cycle_accurate_driver() {
    for shape in shapes() {
        let fast = traffic(&mut device(&shape, false), &shape);
        let accurate = traffic(&mut device(&shape, true), &shape);
        for (f, a) in fast.iter().zip(&accurate) {
            assert_eq!(f, a, "{}: {} (fast, accurate)", shape.name, f.0);
            assert!(f.1 > 0 && f.2 > 0, "{}: {} charged no traffic", shape.name, f.0);
        }
        assert_eq!(fast.len(), accurate.len());
    }
}

// ------------------------------------------------------ Fig. 7(b) anchor

/// Per-block register accesses of a steady-state single-stage scan
/// block under `profile`, as the generated driver issues them.
fn warm_block_io(profile: DriverProfile) -> IoStats {
    let rule = FilterRule { lane: ref_lanes::YEAR, op_code: 4, value: 2000 };
    job_io(profile, 1, &[rule], None, Invoke::Warm)
}

/// The derivation chain of `cosmos_sim::timing`'s module docs: dataset
/// volume at the calibrated bandwidth plus per-block configuration
/// overheads must land on the paper's 5.512 s / 5.530 s anchors.
#[test]
fn fig7b_anchor_derivation() {
    let bytes: f64 = 3_775_161.0 * 80.0 + 40_128_663.0 * 20.0;
    assert_eq!(bytes, 1_104_586_140.0);
    let blocks = (bytes / 32_768.0).ceil();
    assert_eq!(blocks, 33_710.0);

    let block_s = |io: IoStats| cfg_overhead_ns(io.reg_writes, io.reg_reads) as f64 * 1e-9;
    let flash_s = bytes / FLASH_AGGREGATE_BW;
    let base_s = flash_s + blocks * block_s(warm_block_io(DriverProfile::Baseline));
    let ours_s = flash_s + blocks * block_s(warm_block_io(DriverProfile::Generated));
    assert!((base_s - 5.512).abs() < 0.005, "base anchor drifted: {base_s}");
    assert!((ours_s - 5.530).abs() < 0.005, "ours anchor drifted: {ours_s}");
    // The paper's headline delta: ~0.018 s.
    assert!(((ours_s - base_s) - 0.018).abs() < 0.001);
}

#[test]
fn config_overhead_counts() {
    let base = warm_block_io(DriverProfile::Baseline);
    let ours = warm_block_io(DriverProfile::Generated);
    assert_eq!(cfg_overhead_ns(base.reg_writes, base.reg_reads), 5 * 150 + 234);
    assert_eq!(cfg_overhead_ns(ours.reg_writes, ours.reg_reads), 7 * 150 + 2 * 234);
}
