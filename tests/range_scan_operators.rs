//! Range scans run in the table's own operator encoding.
//!
//! `LogicalOp::RangeScan` lowers to the chain `lane0 >= lo`,
//! `lane0 < hi`. Operator register codes belong to the PE
//! configuration — the generator numbers the requested operators in
//! request order — and every backend, the ARM software walk and the
//! hybrid residual included, evaluates rules through the table's
//! operator table. So:
//!
//! 1. under the standard operator set and under reordered sets, a
//!    range scan returns exactly the model's key range on the
//!    software, hardware and hybrid backends (and adaptively);
//! 2. a table generated without `ge` or without `lt` refuses a range
//!    scan on every backend, the adaptive planner included, with a
//!    typed `NkvError::Config`.

use ndp_ir::elaborate;
use ndp_workload::spec::{PAPER_PE, PAPER_REF_SPEC};
use ndp_workload::{Paper, PaperGen, PubGraphConfig};
use nkv::{Backend, LogicalOp, NkvDb, NkvError, PlanOutcome, TableConfig};
use std::collections::BTreeMap;

const BACKENDS: [Backend; 3] = [Backend::Software, Backend::Hardware, Backend::Hybrid];

/// Operator requests that carry both `ge` and `lt`: the standard set
/// (`ge` = 4, `lt` = 5), `{ lt, ge }` (`lt` = 1, `ge` = 2) and
/// `{ eq, lt, ne, ge }` (`lt` = 2, `ge` = 4).
const WITH_RANGE: [&str; 3] = ["", ", operators = { lt, ge }", ", operators = { eq, lt, ne, ge }"];

/// Operator requests missing `ge` or `lt`.
const WITHOUT_RANGE: [&str; 3] =
    [", operators = { lt }", ", operators = { ge, eq }", ", operators = { eq, ne }"];

const PAPERS: u64 = 600;

fn encode(p: &Paper) -> Vec<u8> {
    let mut v = Vec::with_capacity(80);
    p.encode_into(&mut v);
    v
}

/// A papers table whose PE has `stages` filtering stages and the
/// operators `ops` (appended to the annotation), bulk-loaded and then
/// overwritten in part (a flushed SST plus a live memtable), with its
/// key → record model.
fn build_db(ops: &str, stages: u32) -> (NkvDb, BTreeMap<u64, Vec<u8>>) {
    let spec = PAPER_REF_SPEC
        .replace("output = Paper */", &format!("output = Paper, stages = {stages}{ops} */"));
    let m = ndp_spec::parse(&spec).unwrap();
    let pe = elaborate(&m, PAPER_PE).unwrap();
    let mut db = NkvDb::default_db();
    db.create_table("papers", TableConfig::new(pe)).unwrap();
    let cfg = PubGraphConfig { papers: PAPERS, refs: 0, seed: 5 };
    let mut model = BTreeMap::new();
    let records: Vec<Vec<u8>> = PaperGen::new(cfg).map(|p| encode(&p)).collect();
    for r in &records {
        model.insert(Paper::decode(r).id, r.clone());
    }
    db.bulk_load("papers", records).unwrap();
    for (i, id) in (3..PAPERS).step_by(37).enumerate() {
        let mut p = PaperGen::paper_at(&cfg, id - 1);
        p.year = 1900 + i as u32;
        let r = encode(&p);
        db.put("papers", r.clone()).unwrap();
        model.insert(p.id, r);
        if i == 4 {
            db.flush("papers").unwrap();
        }
    }
    (db, model)
}

/// The model's records with `lo <= key < hi`, sorted.
fn expected(model: &BTreeMap<u64, Vec<u8>>, lo: u64, hi: u64) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = model.range(lo..hi).map(|(_, r)| r.clone()).collect();
    v.sort();
    v
}

fn sorted_records(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = bytes.chunks_exact(80).map(<[u8]>::to_vec).collect();
    v.sort();
    v
}

const RANGES: [(u64, u64); 4] = [(1, 2), (40, 260), (590, 700), (300, 300)];

#[test]
fn range_scans_match_the_model_under_every_operator_order_and_backend() {
    for ops in WITH_RANGE {
        for stages in [1, 2] {
            let (mut db, model) = build_db(ops, stages);
            for (lo, hi) in RANGES {
                let want = expected(&model, lo, hi);
                for backend in BACKENDS {
                    let what = format!("ops=[{ops}] stages={stages} {backend:?} {lo}..{hi}");
                    let res = db.range_scan("papers", lo, hi, backend);
                    if backend == Backend::Hardware && stages < 2 {
                        // Two rules need two stages in hardware; the
                        // hybrid plan post-filters the second on the ARM.
                        assert!(matches!(res, Err(NkvError::Config(_))), "{what}: {res:?}");
                        continue;
                    }
                    let s = res.unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(s.count, want.len() as u64, "{what}");
                    assert_eq!(sorted_records(&s.records), want, "{what}");
                }
                let op = LogicalOp::RangeScan { lo, hi };
                let (outcome, _) = db.execute_adaptive("papers", &op).unwrap();
                let PlanOutcome::Records { records, .. } = outcome else {
                    panic!("ops=[{ops}] adaptive range scan returned {outcome:?}");
                };
                assert_eq!(sorted_records(&records), want, "ops=[{ops}] adaptive {lo}..{hi}");
            }
        }
    }
}

#[test]
fn tables_without_ge_or_lt_refuse_range_scans_on_every_backend() {
    for ops in WITHOUT_RANGE {
        let (mut db, _) = build_db(ops, 2);
        let refused = |res: Result<(), NkvError>, what: &str| match res {
            Err(NkvError::Config(msg)) => assert!(msg.contains("`ge`"), "{what}: {msg}"),
            other => panic!("{what}: expected NkvError::Config, got {other:?}"),
        };
        for backend in BACKENDS {
            refused(
                db.range_scan("papers", 10, 20, backend).map(drop),
                &format!("{ops} {backend:?}"),
            );
        }
        // Every tier fails to lower, so the adaptive planner has nothing
        // feasible to price and surfaces the same typed error.
        let op = LogicalOp::RangeScan { lo: 10, hi: 20 };
        refused(db.choose_backend("papers", &op).map(drop), &format!("{ops} choose"));
        refused(db.execute_adaptive("papers", &op).map(drop), &format!("{ops} adaptive"));
    }
}
