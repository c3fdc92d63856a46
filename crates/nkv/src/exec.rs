//! The hybrid NDP executor state.
//!
//! "For both operations the execution is implemented in a hybrid way,
//! where the software executes a very general algorithm and exploits the
//! hardware whenever datablocks have to be filtered or transformed"
//! (paper, Sec. V). This module holds the *state* of that firmware
//! algorithm — [`TableExec`], the per-table executor with its PEs,
//! drivers, fault policy and health counters — plus the [`SimReport`]
//! every operation returns.
//!
//! The execution loops themselves live in [`crate::engine`], driven by
//! an explicit [`crate::plan::PhysicalPlan`] that `NkvDb::execute_at`
//! lowers and dispatches — the one execution path of every read.
//! `Backend::Software` runs the shared byte-level oracle on the ARM
//! core; `Backend::Hardware` stages blocks in DRAM and dispatches them
//! to the PEs through the *generated driver* (`ndp-swgen`), in either
//! fidelity (`cycle_accurate` tick-level model or the validated analytic
//! fast path).
//!
//! # Resilience
//!
//! The executor runs *below* the host's error-handling stack, so it owns
//! the device-side fault policy ([`ResilienceConfig`]):
//!
//! * **retry with backoff** — transient page-read failures are retried a
//!   bounded number of times, each attempt delayed by an exponentially
//!   growing amount of *simulated* time; exhaustion surfaces as the typed
//!   [`NkvError::RetriesExhausted`](crate::error::NkvError::RetriesExhausted);
//! * **watchdog + HW→SW degradation** — if a PE never raises DONE, the
//!   firmware's DONE poll times out after `watchdog_ns`, the PE is marked
//!   failed for the rest of the session, and the block is re-processed by
//!   the ARM software oracle (results stay identical, only time is lost).
//!   With `hw_fallback_to_sw` disabled the op fails with
//!   [`NkvError::PeTimeout`](crate::error::NkvError::PeTimeout) instead;
//! * **health accounting** — every retry, watchdog trip and fallback is
//!   counted in [`HealthCounters`], surfaced device-wide through
//!   `NkvDb::health_report`.

use crate::engine::ParallelScanStats;
use crate::plan::PlanCaps;
use cosmos_sim::{Server, SimNs};
use ndp_ir::CmpOp;
use ndp_pe::oracle::{BlockProcessor, OpTable};
use ndp_pe::{MemBus, PeDevice};
use ndp_swgen::{DriverProfile, IoStats, PeDriver};

/// Simulated-time and traffic report of one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Simulated duration of the operation in nanoseconds.
    pub sim_ns: SimNs,
    /// Data blocks read from flash.
    pub blocks: u64,
    /// Bytes of table data scanned.
    pub bytes_scanned: u64,
    /// Result payload bytes.
    pub result_bytes: u64,
    /// Tuples inspected / passed.
    pub tuples_in: u64,
    pub tuples_out: u64,
    /// PE control-register traffic.
    pub reg_writes: u64,
    pub reg_reads: u64,
    /// Extra block reads spent confirming bloom-filter hits during the
    /// scan shadow check.
    pub shadow_confirm_reads: u64,
}

impl SimReport {
    /// Add one PE job's register traffic.
    pub(crate) fn add_io(&mut self, io: IoStats) {
        self.reg_writes += io.reg_writes;
        self.reg_reads += io.reg_reads;
    }
}

/// Memory-bus adapter exposing the platform DRAM to PE devices.
pub struct DramBus<'a>(pub &'a mut cosmos_sim::Dram);

impl MemBus for DramBus<'_> {
    fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) {
        self.0.read(addr, buf);
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        self.0.write(addr, data);
    }
}

/// Device-side fault policy of one table's executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Retries after the first failed block read (0 = fail fast).
    pub max_read_retries: u32,
    /// Backoff before retry `n` is `backoff_base_ns << (n - 1)`
    /// (simulated time; the firmware busy-waits the flash controller).
    pub backoff_base_ns: SimNs,
    /// How long the firmware polls a PE's DONE flag before declaring it
    /// hung. Charged in full on every watchdog trip.
    pub watchdog_ns: SimNs,
    /// Degrade a hung PE's work to the ARM software oracle (results stay
    /// identical) instead of failing the operation with
    /// [`NkvError::PeTimeout`](crate::error::NkvError::PeTimeout).
    pub hw_fallback_to_sw: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            max_read_retries: 3,
            backoff_base_ns: 50_000,
            watchdog_ns: 1_000_000,
            hw_fallback_to_sw: true,
        }
    }
}

/// Error/degradation counters of one table's executor (monotonic since
/// table creation; see `NkvDb::health_report` for the device-wide view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Block/page reads that were retried after a transient failure.
    pub read_retries: u64,
    /// Simulated time spent in retry backoff.
    pub retry_backoff_ns: SimNs,
    /// Reads abandoned after exhausting the retry budget.
    pub reads_failed: u64,
    /// Watchdog timeouts on a PE DONE poll (one per hang observed).
    pub watchdog_trips: u64,
    /// Blocks processed by the ARM oracle because no healthy PE was
    /// available (includes the block of each watchdog trip).
    pub sw_fallback_blocks: u64,
}

/// Execution state for one table's PEs.
pub struct TableExec {
    /// The table's precompiled functional semantics.
    pub processor: BlockProcessor,
    /// Operator dispatch table.
    pub ops: OpTable,
    /// PE drivers (one per attached PE; blocks round-robin over them).
    pub drivers: Vec<PeDriver<Box<dyn PeDevice>>>,
    /// Per-PE timing servers (a PE can only process one block at a time).
    pub pe_servers: Vec<Server>,
    /// Register protocol in use.
    pub profile: DriverProfile,
    /// Filtering stages the PEs provide.
    pub stages: u32,
    /// Drive the tick-level PE model instead of the fast path.
    pub cycle_accurate: bool,
    /// Full-block payload size (whole records per 32 KiB block).
    pub full_block_payload: u32,
    /// Chunk (block) size in bytes.
    pub chunk_bytes: u32,
    /// Run the post-filter shadow check. Disabled for multi-record-key
    /// (duplicate-key) tables, where a key match in a newer component
    /// does not imply version shadowing.
    pub reconcile: bool,
    /// Aggregation reductions the attached PEs were generated with.
    pub aggregates: Vec<ndp_ir::AggOp>,
    /// Fault policy (retry budget, watchdog, degradation switch).
    pub resilience: ResilienceConfig,
    /// Error/degradation counters since table creation.
    pub health: HealthCounters,
    /// PEs declared hung by the watchdog (skipped until
    /// [`TableExec::reset_failed_pes`]).
    pub pe_failed: Vec<bool>,
    /// Parallel PE job streams a hardware scan fans out to (0 = the
    /// legacy serial dispatch; see `crate::plan`).
    pub parallel_pes: usize,
    /// Statistics of the most recent parallel scan phase (None after a
    /// serial scan).
    pub last_parallel_scan: Option<ParallelScanStats>,
}

impl TableExec {
    /// Bring watchdog-failed PEs back into rotation (a device reset /
    /// PL reconfiguration in the real system).
    pub fn reset_failed_pes(&mut self) {
        self.pe_failed.iter_mut().for_each(|f| *f = false);
    }

    /// Number of PEs currently marked failed.
    pub fn failed_pes(&self) -> usize {
        self.pe_failed.iter().filter(|&&f| f).count()
    }

    /// Planner-visible capabilities of this table's executor.
    pub fn caps(&self) -> PlanCaps {
        PlanCaps {
            stages: self.stages,
            lanes: self.processor.lanes(),
            n_pes: self.pe_servers.len(),
            parallel_pes: self.parallel_pes,
            aggregates: self.aggregates.clone(),
            identity_transform: self.processor.identity_transform(),
            eq_code: self.ops.code(CmpOp::Eq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NkvResult;
    use crate::lsm::{LsmConfig, LsmTree};
    use crate::placement::PageAllocator;
    use crate::plan::{Backend, LogicalOp, PhysicalPlan};
    use cosmos_sim::dram::DramClient;
    use cosmos_sim::{timing, CosmosConfig, CosmosPlatform};
    use ndp_ir::elaborate;
    use ndp_pe::oracle::FilterRule;
    use ndp_pe::{BaselinePe, PeSim};
    use ndp_spec::parse;
    use ndp_workload::spec::{ref_lanes, PAPER_REF_SPEC, REF_PE};
    use ndp_workload::{PubGraphConfig, Ref, RefGen};

    /// Lower `op` against the bare executor and run it on the engine —
    /// `NkvDb::execute_at` without a table around it.
    fn lowered(exec: &TableExec, op: LogicalOp, backend: Backend) -> NkvResult<PhysicalPlan> {
        PhysicalPlan::lower(&op, backend, &exec.caps(), "refs")
    }

    fn scan(
        platform: &mut CosmosPlatform,
        lsm: &LsmTree,
        exec: &mut TableExec,
        rules: &[FilterRule],
        backend: Backend,
        now: SimNs,
    ) -> NkvResult<(Vec<u8>, SimReport)> {
        let plan = lowered(exec, LogicalOp::Scan { rules: rules.to_vec() }, backend)?;
        crate::engine::run_scan(platform, lsm, exec, &plan, now)
    }

    fn get(
        platform: &mut CosmosPlatform,
        lsm: &LsmTree,
        exec: &mut TableExec,
        key: u64,
        backend: Backend,
        now: SimNs,
    ) -> NkvResult<(Option<Vec<u8>>, SimReport)> {
        let plan = lowered(exec, LogicalOp::Get { key }, backend)?;
        crate::engine::run_get(platform, lsm, exec, &plan, now)
    }

    fn make_exec(n_pes: usize, baseline: bool, cycle_accurate: bool) -> TableExec {
        let m = parse(PAPER_REF_SPEC).unwrap();
        let cfg = elaborate(&m, REF_PE).unwrap();
        let processor = BlockProcessor::new(&cfg);
        let ops = OpTable::from_config(&cfg);
        let full_block_payload = (cfg.chunk_bytes / 20) * 20;
        let mut drivers: Vec<PeDriver<Box<dyn PeDevice>>> = Vec::new();
        for _ in 0..n_pes {
            let dev: Box<dyn PeDevice> = if baseline {
                Box::new(BaselinePe::new(cfg.clone()).unwrap())
            } else {
                Box::new(PeSim::new(cfg.clone()))
            };
            drivers.push(PeDriver::new(
                dev,
                if baseline { DriverProfile::Baseline } else { DriverProfile::Generated },
            ));
        }
        TableExec {
            processor,
            ops,
            drivers,
            pe_servers: vec![Server::new(); n_pes],
            profile: if baseline { DriverProfile::Baseline } else { DriverProfile::Generated },
            stages: cfg.stages,
            cycle_accurate,
            full_block_payload,
            chunk_bytes: cfg.chunk_bytes,
            reconcile: true,
            aggregates: cfg.aggregates.clone(),
            resilience: ResilienceConfig::default(),
            health: HealthCounters::default(),
            pe_failed: vec![false; n_pes],
            parallel_pes: 0,
            last_parallel_scan: None,
        }
    }

    /// Load refs with unique `src` fields (the record key must be its
    /// first 8 bytes); returns the tree and the load-completion time.
    fn loaded_lsm(
        platform: &mut CosmosPlatform,
        alloc: &mut PageAllocator,
        n_refs: u64,
    ) -> (LsmTree, u64) {
        let mut lsm = LsmTree::new("refs", 20, LsmConfig::default(), 3);
        let cfg = PubGraphConfig { papers: n_refs / 10 + 1, refs: n_refs, seed: 11 };
        let mut buf = Vec::new();
        let mut done = 0u64;
        for (i, mut r) in RefGen::new(cfg).enumerate() {
            r.src = i as u64 + 1; // unique key in the record's first field
            buf.clear();
            r.encode_into(&mut buf);
            lsm.put(r.src, buf.clone());
            if lsm.should_flush() {
                done = done.max(lsm.flush(&mut platform.flash, alloc, 0).unwrap());
            }
        }
        done = done.max(lsm.flush(&mut platform.flash, alloc, 0).unwrap());
        (lsm, done)
    }

    fn scan_year_rules(exec: &TableExec, year: u64) -> Vec<FilterRule> {
        let _ = exec;
        vec![FilterRule { lane: ref_lanes::YEAR, op_code: 4 /* ge */, value: year }]
    }

    #[test]
    fn sw_and_hw_scans_return_identical_results() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let (lsm, t0) = loaded_lsm(&mut platform, &mut alloc, 5_000);
        let mut exec = make_exec(2, false, false);
        let rules = scan_year_rules(&exec, 2000);

        let (sw, rep_sw) =
            scan(&mut platform, &lsm, &mut exec, &rules, Backend::Software, t0).unwrap();
        let (hw, rep_hw) =
            scan(&mut platform, &lsm, &mut exec, &rules, Backend::Hardware, t0 + rep_sw.sim_ns)
                .unwrap();
        assert_eq!(sw, hw);
        assert!(!sw.is_empty());
        assert_eq!(rep_sw.tuples_out, rep_hw.tuples_out);
        // Every result record satisfies the predicate.
        for rec in sw.chunks_exact(20) {
            assert!(Ref::decode(rec).year >= 2000);
        }
    }

    #[test]
    fn hw_scan_is_faster_than_sw_scan() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let (lsm, t0) = loaded_lsm(&mut platform, &mut alloc, 20_000);
        let mut exec = make_exec(4, false, false);
        let rules = scan_year_rules(&exec, 1990);

        let mut p1 = CosmosPlatform::new(CosmosConfig::default());
        p1.flash = platform.flash.clone();
        let (_, sw) = scan(&mut p1, &lsm, &mut exec, &rules, Backend::Software, t0).unwrap();
        let mut p2 = CosmosPlatform::new(CosmosConfig::default());
        p2.flash = platform.flash.clone();
        let (_, hw) = scan(&mut p2, &lsm, &mut exec, &rules, Backend::Hardware, t0).unwrap();
        assert!(hw.sim_ns < sw.sim_ns, "HW {} ns should beat SW {} ns", hw.sim_ns, sw.sim_ns);
    }

    #[test]
    fn cycle_accurate_and_fast_hw_agree() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let (lsm, t0) = loaded_lsm(&mut platform, &mut alloc, 3_000);
        let rules = vec![FilterRule { lane: ref_lanes::YEAR, op_code: 4, value: 1995 }];

        let mut fast = make_exec(2, false, false);
        let mut acc = make_exec(2, false, true);
        let mut p1 = CosmosPlatform::new(CosmosConfig::default());
        p1.flash = platform.flash.clone();
        let (r_fast, rep_fast) =
            scan(&mut p1, &lsm, &mut fast, &rules, Backend::Hardware, t0).unwrap();
        let mut p2 = CosmosPlatform::new(CosmosConfig::default());
        p2.flash = platform.flash.clone();
        let (r_acc, rep_acc) =
            scan(&mut p2, &lsm, &mut acc, &rules, Backend::Hardware, t0).unwrap();

        assert_eq!(r_fast, r_acc, "functional results must be identical");
        assert_eq!(rep_fast.tuples_in, rep_acc.tuples_in);
        assert_eq!(rep_fast.tuples_out, rep_acc.tuples_out);
        assert_eq!(rep_fast.reg_writes, rep_acc.reg_writes);
        assert_eq!(rep_fast.reg_reads, rep_acc.reg_reads);
        let dt = rep_fast.sim_ns.abs_diff(rep_acc.sim_ns) as f64;
        assert!(
            dt / (rep_acc.sim_ns as f64) < 0.05,
            "fast {} vs accurate {}",
            rep_fast.sim_ns,
            rep_acc.sim_ns
        );
    }

    #[test]
    fn baseline_hw_matches_generated_results_with_more_write_traffic() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let (lsm, t0) = loaded_lsm(&mut platform, &mut alloc, 8_000);
        let rules = vec![FilterRule { lane: ref_lanes::YEAR, op_code: 4, value: 2000 }];

        let mut ours = make_exec(2, false, false);
        let mut base = make_exec(2, true, false);
        let mut p1 = CosmosPlatform::new(CosmosConfig::default());
        p1.flash = platform.flash.clone();
        let (r1, _) = scan(&mut p1, &lsm, &mut ours, &rules, Backend::Hardware, t0).unwrap();
        let pe_store_ours = p1.dram.traffic_of(DramClient::PeStore);
        let mut p2 = CosmosPlatform::new(CosmosConfig::default());
        p2.flash = platform.flash.clone();
        let (r2, _) = scan(&mut p2, &lsm, &mut base, &rules, Backend::Hardware, t0).unwrap();
        let pe_store_base = p2.dram.traffic_of(DramClient::PeStore);

        assert_eq!(r1, r2);
        assert!(
            pe_store_base > pe_store_ours,
            "fixed 32 KiB write-back must cause more DRAM traffic \
             ({pe_store_base} vs {pe_store_ours})"
        );
    }

    #[test]
    fn scan_reconciles_shadowed_versions() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let mut lsm = LsmTree::new("refs", 20, LsmConfig::default(), 3);
        // Old version of key 100 matches the predicate... (the record's
        // first field IS the key, per the nKV record model)
        let old = Ref { src: 100, dst: 1, year: 2010 };
        let mut buf = Vec::new();
        old.encode_into(&mut buf);
        lsm.put(old.src, buf.clone());
        lsm.flush(&mut platform.flash, &mut alloc, 0).unwrap();
        // ... the newer version does NOT match.
        let newer = Ref { src: 100, dst: 1, year: 1960 };
        buf.clear();
        newer.encode_into(&mut buf);
        lsm.put(newer.src, buf.clone());
        lsm.flush(&mut platform.flash, &mut alloc, 0).unwrap();
        // And key 200's newest version matches.
        let live = Ref { src: 200, dst: 2, year: 2015 };
        buf.clear();
        live.encode_into(&mut buf);
        lsm.put(live.src, buf.clone());
        lsm.flush(&mut platform.flash, &mut alloc, 0).unwrap();

        let mut exec = make_exec(1, false, false);
        let rules = vec![FilterRule { lane: ref_lanes::YEAR, op_code: 4, value: 2000 }];
        let (res, rep) =
            scan(&mut platform, &lsm, &mut exec, &rules, Backend::Software, 0).unwrap();
        // Only key 200's record: key 100's matching version is shadowed.
        assert_eq!(res.len(), 20);
        assert_eq!(Ref::decode(&res).year, 2015);
        assert_eq!(rep.tuples_out, 1);
        assert!(rep.shadow_confirm_reads > 0, "bloom hit on key 100 must be confirmed");
    }

    #[test]
    fn scan_includes_memtable_and_respects_its_tombstones() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let mut lsm = LsmTree::new("refs", 20, LsmConfig::default(), 3);
        let mut buf = Vec::new();
        Ref { src: 1, dst: 9, year: 2005 }.encode_into(&mut buf);
        lsm.put(1, buf.clone());
        lsm.flush(&mut platform.flash, &mut alloc, 0).unwrap();
        // Unflushed matching record in the memtable...
        buf.clear();
        Ref { src: 2, dst: 9, year: 2012 }.encode_into(&mut buf);
        lsm.put(2, buf.clone());
        // ... and delete the flushed one.
        lsm.delete(1);

        let mut exec = make_exec(1, false, false);
        let rules = vec![FilterRule { lane: ref_lanes::YEAR, op_code: 4, value: 2000 }];
        let (res, _) = scan(&mut platform, &lsm, &mut exec, &rules, Backend::Software, 0).unwrap();
        assert_eq!(res.len(), 20);
        assert_eq!(Ref::decode(&res).year, 2012);
    }

    #[test]
    fn get_finds_and_misses_in_both_modes() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let (lsm, t0) = loaded_lsm(&mut platform, &mut alloc, 5_000);
        let mut exec = make_exec(1, false, false);
        // Pick an existing key from the data.
        let sst = &lsm.all_ssts()[0];
        let key = sst.blocks[0].first_key;
        let (sw, rep_sw) = get(&mut platform, &lsm, &mut exec, key, Backend::Software, t0).unwrap();
        let (hw, rep_hw) =
            get(&mut platform, &lsm, &mut exec, key, Backend::Hardware, t0 + rep_sw.sim_ns)
                .unwrap();
        assert!(sw.is_some());
        assert_eq!(sw, hw);
        assert!(rep_sw.sim_ns > 0 && rep_hw.sim_ns > 0);

        let (miss, _) =
            get(&mut platform, &lsm, &mut exec, u64::MAX - 1, Backend::Software, t0).unwrap();
        assert_eq!(miss, None);
    }

    #[test]
    fn get_hw_does_not_profit_over_sw() {
        // Fig. 7(a): configuration overhead eats the PE's advantage.
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let (lsm, t0) = loaded_lsm(&mut platform, &mut alloc, 20_000);
        let sst = &lsm.all_ssts()[0];
        let key = sst.blocks[1].first_key;

        let mut exec = make_exec(1, false, false);
        let mut p1 = CosmosPlatform::new(CosmosConfig::default());
        p1.flash = platform.flash.clone();
        let (_, sw) = get(&mut p1, &lsm, &mut exec, key, Backend::Software, t0).unwrap();
        let mut p2 = CosmosPlatform::new(CosmosConfig::default());
        p2.flash = platform.flash.clone();
        let (_, hw) = get(&mut p2, &lsm, &mut exec, key, Backend::Hardware, t0).unwrap();
        let ratio = hw.sim_ns as f64 / sw.sim_ns as f64;
        assert!(
            (0.8..1.5).contains(&ratio),
            "GET HW/SW ratio {ratio:.2} should be near 1 (no real benefit)"
        );
    }

    #[test]
    fn firmware_era_adds_op_overhead() {
        let mut loaded = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(loaded.flash.config());
        let (lsm, t0) = loaded_lsm(&mut loaded, &mut alloc, 5_000);
        let mut original = CosmosPlatform::new(CosmosConfig {
            firmware: cosmos_sim::FirmwareEra::Original,
            ..CosmosConfig::default()
        });
        original.flash = loaded.flash.clone();
        let mut updated = CosmosPlatform::new(CosmosConfig::default());
        updated.flash = loaded.flash.clone();
        let sst = &lsm.all_ssts()[0];
        let key = sst.blocks[0].first_key;
        let mut exec = make_exec(1, false, false);
        let (_, rep_orig) =
            get(&mut original, &lsm, &mut exec, key, Backend::Software, t0).unwrap();
        let (_, rep_upd) = get(&mut updated, &lsm, &mut exec, key, Backend::Software, t0).unwrap();
        assert_eq!(
            rep_upd.sim_ns - rep_orig.sim_ns,
            timing::FIRMWARE_OP_OVERHEAD_NS,
            "updated firmware charges exactly the per-op overhead"
        );
    }

    #[test]
    fn parallel_scan_matches_serial_scan_exactly() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let (lsm, t0) = loaded_lsm(&mut platform, &mut alloc, 20_000);
        let rules = vec![FilterRule { lane: ref_lanes::YEAR, op_code: 4, value: 1990 }];

        let mut serial = make_exec(4, false, false);
        let mut p1 = CosmosPlatform::new(CosmosConfig::default());
        p1.flash = platform.flash.clone();
        let (r_serial, rep_serial) =
            scan(&mut p1, &lsm, &mut serial, &rules, Backend::Hardware, t0).unwrap();
        assert!(serial.last_parallel_scan.is_none());

        let mut par = make_exec(4, false, false);
        par.parallel_pes = 4;
        let mut p2 = CosmosPlatform::new(CosmosConfig::default());
        p2.flash = platform.flash.clone();
        let (r_par, rep_par) =
            scan(&mut p2, &lsm, &mut par, &rules, Backend::Hardware, t0).unwrap();

        assert_eq!(r_serial, r_par, "merge order must reproduce the serial result bytes");
        assert_eq!(rep_serial.tuples_out, rep_par.tuples_out);
        assert_eq!(rep_serial.blocks, rep_par.blocks);
        let stats = par.last_parallel_scan.as_ref().expect("parallel stats recorded");
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.blocks_per_worker.iter().sum::<u64>(), rep_par.blocks);
        assert_eq!(stats.job_latency.count(), rep_par.blocks);
    }

    #[test]
    fn parallel_scan_with_more_workers_is_faster() {
        let mut platform = CosmosPlatform::new(CosmosConfig::default());
        let mut alloc = PageAllocator::new(platform.flash.config());
        let (lsm, t0) = loaded_lsm(&mut platform, &mut alloc, 20_000);
        let rules = vec![FilterRule { lane: ref_lanes::YEAR, op_code: 4, value: 1990 }];

        let mut one = make_exec(4, false, false);
        one.parallel_pes = 1;
        let mut p1 = CosmosPlatform::new(CosmosConfig::default());
        p1.flash = platform.flash.clone();
        let (r1, rep1) = scan(&mut p1, &lsm, &mut one, &rules, Backend::Hardware, t0).unwrap();

        let mut four = make_exec(4, false, false);
        four.parallel_pes = 4;
        let mut p4 = CosmosPlatform::new(CosmosConfig::default());
        p4.flash = platform.flash.clone();
        let (r4, rep4) = scan(&mut p4, &lsm, &mut four, &rules, Backend::Hardware, t0).unwrap();

        assert_eq!(r1, r4);
        assert!(
            (rep4.sim_ns as f64) < 0.8 * rep1.sim_ns as f64,
            "4 streams ({} ns) should clearly beat 1 stream ({} ns)",
            rep4.sim_ns,
            rep1.sim_ns
        );
    }
}
