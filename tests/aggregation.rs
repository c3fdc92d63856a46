//! The aggregation extension end to end (the paper's outlook: using the
//! NDP architecture for "more compute-intensive tasks"): spec annotation
//! → generated hardware + header → driver protocol → device-level
//! aggregate SCAN pushdown.

use ndp_core::generate;
use ndp_ir::{elaborate, AggOp};
use ndp_pe::oracle::FilterRule;
use ndp_pe::MemBus;
use ndp_pe::{PeSim, VecMem};
use ndp_swgen::{DriverProfile, FilterJob, PeDriver};
use nkv::{Backend, NkvDb, NkvError, TableConfig};

const SENSOR_SPEC: &str = "
    /* @autogen define parser Agg with input = R, output = R,
       aggregate = { count, sum, min, max } */
    typedef struct { uint64_t id; int32_t temp; uint32_t n; } R;
";

fn record(id: u64, temp: i32, n: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&id.to_le_bytes());
    v.extend_from_slice(&temp.to_le_bytes());
    v.extend_from_slice(&n.to_le_bytes());
    v
}

fn driver_with_data() -> (PeDriver<PeSim>, VecMem, u32) {
    let arts = generate(SENSOR_SPEC).unwrap();
    let pe = arts.pe("Agg").unwrap();
    let sim = pe.simulator();
    let mut mem = VecMem::new(1 << 16);
    let mut bytes = Vec::new();
    for (id, temp, n) in [(1u64, -5i32, 10u32), (2, 3, 20), (3, -9, 30), (4, 7, 40), (5, 0, 50)] {
        bytes.extend_from_slice(&record(id, temp, n));
    }
    mem.write_bytes(0, &bytes);
    (PeDriver::new(sim, DriverProfile::Generated), mem, bytes.len() as u32)
}

fn run_agg(
    drv: &mut PeDriver<PeSim>,
    mem: &mut VecMem,
    len: u32,
    rules: Vec<FilterRule>,
    agg: (AggOp, u32),
) -> u64 {
    let job = FilterJob { src: 0, len, dst: 0x8000, capacity: 4096, rules, aggregate: Some(agg) };
    drv.filter_sync(mem, &job).aggregate.expect("aggregate requested")
}

#[test]
fn count_sum_min_max_through_the_generated_interface() {
    let (mut drv, mut mem, len) = driver_with_data();
    // COUNT over all records.
    assert_eq!(run_agg(&mut drv, &mut mem, len, vec![], (AggOp::Count, 0)), 5);
    // SUM of n.
    assert_eq!(run_agg(&mut drv, &mut mem, len, vec![], (AggOp::Sum, 2)), 150);
    // MIN/MAX of the *signed* temp lane: type-aware ordering.
    assert_eq!(run_agg(&mut drv, &mut mem, len, vec![], (AggOp::Min, 1)) as u32 as i32, -9);
    assert_eq!(run_agg(&mut drv, &mut mem, len, vec![], (AggOp::Max, 1)) as u32 as i32, 7);
}

#[test]
fn aggregation_composes_with_filtering() {
    let (mut drv, mut mem, len) = driver_with_data();
    // Only records with temp >= 0 (ids 2, 4, 5): sum of n = 110.
    let ge = 4u32;
    let rules = vec![FilterRule { lane: 1, op_code: ge, value: 0 }];
    assert_eq!(run_agg(&mut drv, &mut mem, len, rules.clone(), (AggOp::Sum, 2)), 110);
    assert_eq!(run_agg(&mut drv, &mut mem, len, rules, (AggOp::Count, 0)), 3);
}

#[test]
fn generated_header_exposes_aggregation_api() {
    let arts = generate(SENSOR_SPEC).unwrap();
    let h = &arts.pe("Agg").unwrap().c_header;
    for item in [
        "#define AGG_AGGOP_COUNT 1",
        "#define AGG_AGGOP_SUM 2",
        "#define AGG_AGGOP_MIN 3",
        "#define AGG_AGGOP_MAX 4",
        "AGG_AGG_FIELD",
        "AGG_AGG_RESULT_LO",
        "agg_set_aggregate",
        "agg_read_aggregate",
    ] {
        assert!(h.contains(item), "`{item}` missing from generated header");
    }
    // A PE without aggregates has none of this.
    let plain = generate(
        "/* @autogen define parser P with input = T, output = T */
         typedef struct { uint32_t x; } T;",
    )
    .unwrap();
    assert!(!plain.pes[0].c_header.contains("AGG_OP"));
}

#[test]
fn aggregation_unit_costs_a_small_slice_premium() {
    let with = generate(SENSOR_SPEC).unwrap();
    let without = generate(
        "/* @autogen define parser Agg with input = R, output = R */
         typedef struct { uint64_t id; int32_t temp; uint32_t n; } R;",
    )
    .unwrap();
    let (a, b) = (with.pes[0].report.slices_in_context, without.pes[0].report.slices_in_context);
    assert!(a > b, "aggregation hardware is not free");
    assert!(f64::from(a - b) / f64::from(b) < 0.15, "premium should be small: {a} vs {b}");
    // ... and the Verilog contains the unit.
    assert!(with.pes[0].verilog.contains("aggregate_unit_w64_ops4_l3"));
}

#[test]
fn db_level_aggregate_pushdown_matches_software() {
    let m = ndp_spec::parse(
        "/* @autogen define parser P with input = Rec, output = Rec,
            aggregate = { count, sum, min, max } */
         typedef struct { uint64_t key; uint32_t year; uint32_t cites; } Rec;",
    )
    .unwrap();
    let pe = elaborate(&m, "P").unwrap();
    let mut db = NkvDb::default_db();
    db.create_table("t", TableConfig::new(pe)).unwrap();
    let mut recs = Vec::new();
    for k in 1..=5000u64 {
        let mut r = k.to_le_bytes().to_vec();
        r.extend_from_slice(&(1950 + (k % 70) as u32).to_le_bytes());
        r.extend_from_slice(&((k * 3 % 997) as u32).to_le_bytes());
        recs.push(r);
    }
    db.bulk_load("t", recs.clone()).unwrap();

    let rules = [FilterRule { lane: 1, op_code: 4 /* ge */, value: 2000 }];
    let (hw_sum, hw_any, hw_rep) =
        db.scan_aggregate("t", &rules, AggOp::Sum, 2, Backend::Hardware).unwrap();
    let (sw_sum, sw_any, _) =
        db.scan_aggregate("t", &rules, AggOp::Sum, 2, Backend::Software).unwrap();
    assert!(hw_any && sw_any);
    assert_eq!(hw_sum, sw_sum);
    // Independent expectation from the raw records.
    let expected: u64 =
        (1..=5000u64).filter(|k| 1950 + (k % 70) >= 2000).map(|k| k * 3 % 997).sum();
    assert_eq!(hw_sum, expected);
    // The pushdown's point: only 8 result bytes leave the device.
    assert_eq!(hw_rep.result_bytes, 8);

    // The full filtering scan would have moved every matching record.
    let full = db.scan("t", &rules, Backend::Hardware).unwrap();
    assert!(full.report.result_bytes > 1000 * 16);
}

#[test]
fn hardware_aggregate_requires_generated_support() {
    let m = ndp_spec::parse(
        "/* @autogen define parser P with input = Rec, output = Rec,
            aggregate = { count } */
         typedef struct { uint64_t key; uint32_t v; } Rec;",
    )
    .unwrap();
    let pe = elaborate(&m, "P").unwrap();
    let mut db = NkvDb::default_db();
    db.create_table("t", TableConfig::new(pe)).unwrap();
    db.bulk_load("t", vec![record(1, 0, 0)[..12].to_vec()]).unwrap();
    // Sum was not generated: hardware mode refuses, software works.
    match db.scan_aggregate("t", &[], AggOp::Sum, 1, Backend::Hardware) {
        Err(NkvError::Config(msg)) => assert!(msg.contains("sum")),
        other => panic!("expected config error, got {other:?}"),
    }
    let (v, any, _) = db.scan_aggregate("t", &[], AggOp::Sum, 1, Backend::Software).unwrap();
    assert!(any);
    assert_eq!(v, 0);
}

#[test]
fn baseline_pes_reject_aggregation_configs() {
    let m = ndp_spec::parse(SENSOR_SPEC).unwrap();
    let pe = elaborate(&m, "Agg").unwrap();
    assert!(ndp_pe::BaselinePe::new(pe).is_err());
}

#[test]
fn unknown_aggregate_name_fails_elaboration() {
    let m = ndp_spec::parse(
        "/* @autogen define parser P with input = T, output = T,
            aggregate = { median } */
         typedef struct { uint32_t x; } T;",
    )
    .unwrap();
    assert!(elaborate(&m, "P").is_err());
}
