//! Query planning: logical ops lowered into physical execution plans.
//!
//! The paper's PEs are "1..N filtering units" deployed per table, and
//! nKV dispatches every GET/SCAN either to the ARM software path or to
//! a hardware PE. This module makes that decision *explicit* and
//! *inspectable*: a [`LogicalOp`] describes what the host asked for, a
//! [`PhysicalPlan`] describes how the device will run it — which
//! predicates are pushed into PE register programming, which remain as
//! a software post-filter, and how many PE job streams a scan fans out
//! to — and [`PhysicalPlan::explain`] renders the plan for debugging.
//!
//! Lowering rules (see DESIGN.md §11):
//!
//! * every predicate lane must exist in the table's input layout;
//! * **software** plans evaluate the whole chain on the ARM;
//! * **hardware** plans push the whole chain into the PE's filtering
//!   stages and reject chains longer than the stage count (the legacy
//!   contract, unchanged);
//! * **hybrid** plans push the first `stages` predicates and keep the
//!   rest as a residual ARM post-filter over the PE's output — only
//!   legal when the PE's transformation is the identity (otherwise the
//!   residual lanes no longer exist in the output tuples);
//! * hardware and hybrid GETs push the key-equality rule `lane0 == key`
//!   into PE stage 0, encoded with the PE's own `eq` code; a PE
//!   generated without `eq` rejects them;
//! * aggregates stay register-resident on the PE, so a hybrid
//!   aggregate with a residual is rejected (there is no output stream
//!   to post-filter);
//! * a filter scan on a hardware-capable backend fans out to the
//!   table's configured `parallel_pes` job streams (0 = the legacy
//!   serial dispatch).

use crate::error::{NkvError, NkvResult};
use ndp_pe::oracle::{FilterRule, OpTable};

/// What the host asked for, before any execution decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicalOp {
    /// Point lookup by key.
    Get { key: u64 },
    /// Batched point lookup: N keys served by one PE configuration via
    /// a key-list DMA descriptor (see `cosmos_sim::batch`).
    MultiGet { keys: Vec<u64> },
    /// Full scan with a conjunctive predicate chain.
    Scan { rules: Vec<FilterRule> },
    /// Key-range scan: `lo <= key < hi`.
    RangeScan { lo: u64, hi: u64 },
    /// Aggregate pushdown: reduce `lane` over records matching `rules`.
    ScanAggregate { rules: Vec<FilterRule>, agg: ndp_ir::AggOp, lane: u32 },
}

/// Which execution path carries the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// ARM software NDP (the paper's "SW" bars).
    Software,
    /// FPGA PEs through the generated interface (the "HW" bars).
    Hardware,
    /// PE filtering for the first `stages` predicates, ARM post-filter
    /// for the rest.
    Hybrid,
}

impl Backend {
    /// Stable display name (EXPLAIN renderings and cost reports).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Software => "software",
            Backend::Hardware => "hardware",
            Backend::Hybrid => "hybrid",
        }
    }
}

/// What a table's executor can do — the planner's view of the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCaps {
    /// Chained filtering stages per PE.
    pub stages: u32,
    /// Lanes of the input tuple layout.
    pub lanes: usize,
    /// PEs attached to the table.
    pub n_pes: usize,
    /// Configured parallel scan streams (0 = serial legacy dispatch).
    pub parallel_pes: usize,
    /// Aggregation reductions the PEs were generated with.
    pub aggregates: Vec<ndp_ir::AggOp>,
    /// Whether the PE's transformation is the identity (output tuples
    /// are byte-for-byte the input tuples). Gates hybrid residuals.
    pub identity_transform: bool,
    /// The PEs' `eq` operator encoding (`None` when the PEs were
    /// generated without `eq`, which leaves GETs software-only).
    pub eq_code: Option<u32>,
}

/// The physical operator at the root of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysOp {
    /// Memtable probe, then bloom-pruned index walk + one block search.
    PointLookup { key: u64 },
    /// One key-list descriptor DMA, one PE configuration, N streamed
    /// point lookups. Keys are validated against the descriptor's
    /// shape rules (non-empty, ≤ capacity, no duplicates) at lowering.
    BatchedGet { keys: Vec<u64> },
    /// Filter every data block, reconcile versions, return records.
    FilterScan,
    /// Filter every data block into a register-resident reduction.
    AggregateScan { agg: ndp_ir::AggOp, lane: u32 },
}

/// A lowered, executable plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalPlan {
    pub op: PhysOp,
    pub backend: Backend,
    /// Predicates pushed into PE register programming (for a software
    /// backend: the chain the ARM walk evaluates).
    pub pushed: Vec<FilterRule>,
    /// Predicates evaluated by the ARM over the PE's output stream.
    pub residual: Vec<FilterRule>,
    /// Parallel PE job streams a filter scan fans out to (0 = serial).
    pub parallel_pes: usize,
}

impl PhysicalPlan {
    /// Lower `op` for a table with capabilities `caps`. Every read runs
    /// through here (`NkvDb::execute_at`), so validation errors are the
    /// same whichever typed method, queue command or cluster fan-out
    /// issued the op.
    pub fn lower(
        op: &LogicalOp,
        backend: Backend,
        caps: &PlanCaps,
        table: &str,
    ) -> NkvResult<PhysicalPlan> {
        match op {
            LogicalOp::Get { key } => Ok(PhysicalPlan {
                op: PhysOp::PointLookup { key: *key },
                backend,
                pushed: Self::key_rule(*key, backend, caps, table)?,
                residual: Vec::new(),
                parallel_pes: 0,
            }),
            LogicalOp::MultiGet { keys } => {
                // A batch of one folds to the legacy point lookup, so
                // every serial timing/result stays byte-identical.
                if let [key] = keys[..] {
                    return Self::lower(&LogicalOp::Get { key }, backend, caps, table);
                }
                // Validate batch shape through the descriptor itself:
                // the planner rejects exactly what the device would.
                cosmos_sim::KeyListDescriptor::new(keys)
                    .map_err(|e| NkvError::Config(format!("batched GET on `{table}`: {e}")))?;
                Ok(PhysicalPlan {
                    op: PhysOp::BatchedGet { keys: keys.clone() },
                    backend,
                    pushed: Self::key_rule(keys[0], backend, caps, table)?,
                    residual: Vec::new(),
                    parallel_pes: 0,
                })
            }
            LogicalOp::Scan { rules } => Self::lower_scan(rules, backend, caps, table),
            LogicalOp::RangeScan { lo, hi } => {
                // The paper's 2-stage showcase: `lo <= key < hi` on lane 0.
                let rules = vec![
                    FilterRule { lane: 0, op_code: 4 /* ge */, value: *lo },
                    FilterRule { lane: 0, op_code: 5 /* lt */, value: *hi },
                ];
                Self::lower_scan(&rules, backend, caps, table)
            }
            LogicalOp::ScanAggregate { rules, agg, lane } => {
                if backend != Backend::Software && !caps.aggregates.contains(agg) {
                    return Err(NkvError::Config(format!(
                        "table `{table}`'s PEs were not generated with the `{}` aggregate",
                        agg.name()
                    )));
                }
                if backend != Backend::Software && rules.len() > caps.stages as usize {
                    // The reduction lives in a PE register; there is no
                    // output stream a residual could post-filter.
                    return Err(NkvError::Config(format!(
                        "predicate chain of {} rules exceeds the PE's {} filtering stage(s) \
                         and an aggregate has no output stream for a residual filter",
                        rules.len(),
                        caps.stages
                    )));
                }
                Ok(PhysicalPlan {
                    op: PhysOp::AggregateScan { agg: *agg, lane: *lane },
                    backend,
                    pushed: rules.clone(),
                    residual: Vec::new(),
                    parallel_pes: 0,
                })
            }
        }
    }

    /// The key-equality rule a hardware GET pushes into PE stage 0 (a
    /// batch pushes its first key's; the key-list walker re-points it
    /// per key). Software GETs push nothing.
    fn key_rule(
        key: u64,
        backend: Backend,
        caps: &PlanCaps,
        table: &str,
    ) -> NkvResult<Vec<FilterRule>> {
        if backend == Backend::Software {
            return Ok(Vec::new());
        }
        let op_code = caps.eq_code.ok_or_else(|| {
            NkvError::Config(format!(
                "table `{table}`'s PEs were not generated with the `eq` operator, \
                 so a {} GET cannot match keys on them",
                backend.name()
            ))
        })?;
        Ok(vec![FilterRule { lane: 0, op_code, value: key }])
    }

    fn lower_scan(
        rules: &[FilterRule],
        backend: Backend,
        caps: &PlanCaps,
        table: &str,
    ) -> NkvResult<PhysicalPlan> {
        for r in rules {
            if r.lane as usize >= caps.lanes {
                return Err(NkvError::InvalidLane { table: table.to_string(), lane: r.lane });
            }
        }
        let stages = caps.stages as usize;
        let (pushed, residual) = match backend {
            Backend::Software => (rules.to_vec(), Vec::new()),
            Backend::Hardware => {
                if rules.len() > stages {
                    return Err(NkvError::Config(format!(
                        "predicate chain of {} rules exceeds the PE's {} filtering stage(s)",
                        rules.len(),
                        caps.stages
                    )));
                }
                (rules.to_vec(), Vec::new())
            }
            Backend::Hybrid => {
                let cut = rules.len().min(stages);
                let (push, rest) = rules.split_at(cut);
                if !rest.is_empty() && !caps.identity_transform {
                    return Err(NkvError::Config(format!(
                        "hybrid plan needs {} residual predicate(s) but the PE's \
                         transformation is not the identity, so the residual lanes \
                         do not exist in the output tuples",
                        rest.len()
                    )));
                }
                (push.to_vec(), rest.to_vec())
            }
        };
        let parallel = if backend == Backend::Software { 0 } else { caps.parallel_pes };
        Ok(PhysicalPlan {
            op: PhysOp::FilterScan,
            backend,
            pushed,
            residual,
            parallel_pes: parallel,
        })
    }

    /// Render the plan for debugging (`repro explain`). `ops` supplies
    /// the table's operator encodings (they are per-PE-config, not
    /// global), so predicates print as `lane1 >= 2015`.
    pub fn explain(&self, table: &str, ops: &OpTable) -> String {
        let mut s = String::new();
        let rule = |r: &FilterRule| format!("lane{} {} {}", r.lane, ops.symbol(r.op_code), r.value);
        match &self.op {
            PhysOp::PointLookup { key } => {
                s.push_str(&format!("PLAN GET ON {table} (backend: {})\n", self.backend.name()));
                s.push_str("  memtable probe -> bloom-pruned index walk -> one block search\n");
                match self.backend {
                    Backend::Software => {
                        s.push_str(&format!("  ARM block search: key == {key}\n"));
                    }
                    _ => {
                        s.push_str(&format!("  pushed -> PE 0 stage: lane0 == {key}\n"));
                    }
                }
            }
            PhysOp::BatchedGet { keys } => {
                s.push_str(&format!(
                    "PLAN BATCHED-GET ON {table} (backend: {}, batch: {})\n",
                    self.backend.name(),
                    keys.len()
                ));
                s.push_str(
                    "  one key-list descriptor DMA -> shared index walk -> per-key block search\n",
                );
                match self.backend {
                    Backend::Software => {
                        s.push_str("  ARM block search per key (no PE configuration at all)\n");
                    }
                    _ => {
                        s.push_str(
                            "  pushed -> PE 0, configured once; key-list walker re-points \
                             lane0 == key per entry\n",
                        );
                    }
                }
                s.push_str("  then: per-key result stream over NVMe, in key order\n");
            }
            PhysOp::FilterScan => {
                s.push_str(&format!("PLAN SCAN ON {table} (backend: {})\n", self.backend.name()));
                if self.backend == Backend::Software {
                    s.push_str("  ARM filter pass:\n");
                } else {
                    s.push_str("  pushed -> PE filtering stages:\n");
                }
                for (i, r) in self.pushed.iter().enumerate() {
                    s.push_str(&format!("    [{i}] {}\n", rule(r)));
                }
                if self.pushed.is_empty() {
                    s.push_str("    (none: every tuple passes)\n");
                }
                if !self.residual.is_empty() {
                    s.push_str("  residual -> ARM post-filter over PE output:\n");
                    for (i, r) in self.residual.iter().enumerate() {
                        s.push_str(&format!("    [{}] {}\n", i + self.pushed.len(), rule(r)));
                    }
                }
                match self.parallel_pes {
                    0 => s.push_str("  dispatch: serial block stream (legacy)\n"),
                    n => s.push_str(&format!(
                        "  dispatch: {n} parallel PE job stream(s) over flash-channel groups, \
                         merged in (component, block) order\n"
                    )),
                }
                s.push_str("  then: version reconciliation + NVMe result transfer\n");
            }
            PhysOp::AggregateScan { agg, lane } => {
                s.push_str(&format!(
                    "PLAN SCAN-AGGREGATE ON {table} (backend: {})\n",
                    self.backend.name()
                ));
                s.push_str(&format!("  reduce: {}(lane{lane})\n", agg.name()));
                if self.backend == Backend::Software {
                    s.push_str("  ARM filter pass:\n");
                } else {
                    s.push_str("  pushed -> PE filtering stages:\n");
                }
                for (i, r) in self.pushed.iter().enumerate() {
                    s.push_str(&format!("    [{i}] {}\n", rule(r)));
                }
                if self.pushed.is_empty() {
                    s.push_str("    (none: every tuple passes)\n");
                }
                s.push_str("  then: 8-byte accumulator over NVMe\n");
            }
        }
        s
    }
}

/// What executing a plan produced (see `NkvDb::execute`).
#[derive(Debug, Clone)]
pub enum PlanOutcome {
    /// A filter scan's reconciled records.
    Records { records: Vec<u8>, count: u64, report: crate::exec::SimReport },
    /// An aggregate scan's accumulator (`any` = matched at least once).
    Aggregate { value: u64, any: bool, report: crate::exec::SimReport },
    /// A point lookup's record, if found.
    Point { record: Option<Vec<u8>>, report: crate::exec::SimReport },
    /// A batched lookup's per-key outcomes, in key-list order. Each
    /// slot is independently attributed: a fault on one key's walk
    /// surfaces as that slot's typed error while the rest of the batch
    /// completes.
    Batch { results: Vec<NkvResult<Option<Vec<u8>>>>, report: crate::exec::SimReport },
}

impl PlanOutcome {
    /// The simulation report, whatever shape the outcome took (the
    /// adaptive planner reads `sim_ns` off it for latency feedback).
    pub fn report(&self) -> &crate::exec::SimReport {
        match self {
            PlanOutcome::Records { report, .. }
            | PlanOutcome::Aggregate { report, .. }
            | PlanOutcome::Point { report, .. }
            | PlanOutcome::Batch { report, .. } => report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps(stages: u32, identity: bool, parallel: usize) -> PlanCaps {
        PlanCaps {
            stages,
            lanes: 3,
            n_pes: 4,
            parallel_pes: parallel,
            aggregates: vec![ndp_ir::AggOp::Sum],
            identity_transform: identity,
            eq_code: Some(2),
        }
    }

    fn rule(lane: u32, op_code: u32, value: u64) -> FilterRule {
        FilterRule { lane, op_code, value }
    }

    #[test]
    fn hardware_rejects_overlong_chains_hybrid_splits_them() {
        let c = caps(1, true, 0);
        let op = LogicalOp::Scan { rules: vec![rule(0, 4, 10), rule(0, 5, 20)] };
        let hw = PhysicalPlan::lower(&op, Backend::Hardware, &c, "t");
        assert!(matches!(hw, Err(NkvError::Config(_))));
        let hy = PhysicalPlan::lower(&op, Backend::Hybrid, &c, "t").unwrap();
        assert_eq!(hy.pushed.len(), 1);
        assert_eq!(hy.residual.len(), 1);
    }

    #[test]
    fn hybrid_residual_requires_identity_transform() {
        let c = caps(1, false, 0);
        let op = LogicalOp::Scan { rules: vec![rule(0, 4, 10), rule(1, 5, 20)] };
        assert!(matches!(
            PhysicalPlan::lower(&op, Backend::Hybrid, &c, "t"),
            Err(NkvError::Config(_))
        ));
        // A chain that fits the stages needs no residual and is fine.
        let op1 = LogicalOp::Scan { rules: vec![rule(0, 4, 10)] };
        let p = PhysicalPlan::lower(&op1, Backend::Hybrid, &c, "t").unwrap();
        assert!(p.residual.is_empty());
    }

    #[test]
    fn lane_validation_matches_legacy() {
        let c = caps(2, true, 0);
        let op = LogicalOp::Scan { rules: vec![rule(7, 4, 10)] };
        assert!(matches!(
            PhysicalPlan::lower(&op, Backend::Software, &c, "t"),
            Err(NkvError::InvalidLane { lane: 7, .. })
        ));
    }

    #[test]
    fn parallel_streams_only_apply_to_hardware_filter_scans() {
        let c = caps(2, true, 4);
        let op = LogicalOp::Scan { rules: vec![rule(0, 4, 10)] };
        let sw = PhysicalPlan::lower(&op, Backend::Software, &c, "t").unwrap();
        assert_eq!(sw.parallel_pes, 0);
        let hw = PhysicalPlan::lower(&op, Backend::Hardware, &c, "t").unwrap();
        assert_eq!(hw.parallel_pes, 4);
        let agg = LogicalOp::ScanAggregate {
            rules: vec![rule(0, 4, 10)],
            agg: ndp_ir::AggOp::Sum,
            lane: 1,
        };
        let ap = PhysicalPlan::lower(&agg, Backend::Hardware, &c, "t").unwrap();
        assert_eq!(ap.parallel_pes, 0);
    }

    #[test]
    fn aggregate_capability_and_stage_checks() {
        let c = caps(1, true, 0);
        let bad_agg = LogicalOp::ScanAggregate { rules: vec![], agg: ndp_ir::AggOp::Max, lane: 1 };
        assert!(matches!(
            PhysicalPlan::lower(&bad_agg, Backend::Hardware, &c, "t"),
            Err(NkvError::Config(_))
        ));
        // Software has no capability requirement.
        assert!(PhysicalPlan::lower(&bad_agg, Backend::Software, &c, "t").is_ok());
        let long = LogicalOp::ScanAggregate {
            rules: vec![rule(0, 4, 1), rule(1, 5, 2)],
            agg: ndp_ir::AggOp::Sum,
            lane: 1,
        };
        assert!(matches!(
            PhysicalPlan::lower(&long, Backend::Hybrid, &c, "t"),
            Err(NkvError::Config(_))
        ));
    }

    #[test]
    fn multi_get_lowers_to_batched_get_and_folds_singletons() {
        let c = caps(1, true, 0);
        let p = PhysicalPlan::lower(
            &LogicalOp::MultiGet { keys: vec![5, 9, 1] },
            Backend::Hardware,
            &c,
            "t",
        )
        .unwrap();
        assert_eq!(p.op, PhysOp::BatchedGet { keys: vec![5, 9, 1] });
        // Batch of one is the legacy point lookup, bit for bit.
        let one =
            PhysicalPlan::lower(&LogicalOp::MultiGet { keys: vec![5] }, Backend::Hardware, &c, "t")
                .unwrap();
        let get =
            PhysicalPlan::lower(&LogicalOp::Get { key: 5 }, Backend::Hardware, &c, "t").unwrap();
        assert_eq!(one, get);
    }

    #[test]
    fn multi_get_rejects_descriptor_shape_violations_as_config_errors() {
        let c = caps(1, true, 0);
        for keys in [vec![], vec![3, 4, 3], (0..600).collect::<Vec<u64>>()] {
            let err =
                PhysicalPlan::lower(&LogicalOp::MultiGet { keys }, Backend::Hardware, &c, "t")
                    .unwrap_err();
            assert!(matches!(err, NkvError::Config(_)), "{err:?}");
        }
    }

    #[test]
    fn hardware_gets_push_the_pes_own_eq_code_or_are_refused() {
        let mut c = caps(1, true, 0);
        c.eq_code = Some(1);
        for backend in [Backend::Hardware, Backend::Hybrid] {
            let get = PhysicalPlan::lower(&LogicalOp::Get { key: 7 }, backend, &c, "t").unwrap();
            assert_eq!(get.pushed, vec![rule(0, 1, 7)]);
            let batch = LogicalOp::MultiGet { keys: vec![9, 3] };
            assert_eq!(PhysicalPlan::lower(&batch, backend, &c, "t").unwrap().pushed[0].op_code, 1);
        }
        c.eq_code = None;
        for op in [LogicalOp::Get { key: 7 }, LogicalOp::MultiGet { keys: vec![9, 3] }] {
            for backend in [Backend::Hardware, Backend::Hybrid] {
                let err = PhysicalPlan::lower(&op, backend, &c, "t").unwrap_err();
                assert!(matches!(&err, NkvError::Config(m) if m.contains("`eq`")), "{err:?}");
            }
            let sw = PhysicalPlan::lower(&op, Backend::Software, &c, "t").unwrap();
            assert!(sw.pushed.is_empty());
        }
    }

    #[test]
    fn range_scan_lowers_to_a_two_stage_key_chain() {
        let c = caps(2, true, 0);
        let p = PhysicalPlan::lower(
            &LogicalOp::RangeScan { lo: 100, hi: 200 },
            Backend::Hardware,
            &c,
            "t",
        )
        .unwrap();
        assert_eq!(p.pushed.len(), 2);
        assert_eq!(p.pushed[0], rule(0, 4, 100));
        assert_eq!(p.pushed[1], rule(0, 5, 200));
    }
}
