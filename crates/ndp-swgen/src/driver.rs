//! The Rust twin of the generated C interface.
//!
//! One function, `job_protocol`, lists every register access of a job
//! launch and its readback. Everything that needs those accesses reads
//! them from there:
//!
//! * [`PeDriver`] performs each one as MMIO on a [`PeDevice`] and counts
//!   it ([`IoStats`]);
//! * [`job_io`] only counts them — the figure the platform simulator
//!   turns into PS↔PL configuration time (what makes the GET operation
//!   *not* profit from hardware in Fig. 7(a)), and the figure the cost
//!   model and the Fig. 7(b) anchor derivation price.
//!
//! Under [`DriverProfile::Generated`] the protocol is the one the
//! generated header's `set_filter`/`set_aggregate`/`filter_async`
//! functions perform, with two differences: the twin also reads
//! `TUPLES_OUT` back (the header's `filter_sync` returns `RESULT_BYTES`
//! only), and it does not model the header's `STATUS` poll — the PE
//! runs to completion in between, with no register traffic charged.
//!
//! The [`DriverProfile`] distinguishes that generated firmware protocol
//! (flexible lengths, 64-bit reference values, result-size readback)
//! from the leaner fixed-function protocol of \[1\].

use ndp_ir::AggOp;
use ndp_pe::oracle::FilterRule;
use ndp_pe::regs::{agg_offsets, offsets, perf_offsets};
use ndp_pe::{BlockResult, MemBus, PeDevice};

/// Which firmware register protocol to speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverProfile {
    /// This work: writes SRC_LEN, DST_CAPACITY and 64-bit reference
    /// values; reads back RESULT_BYTES (partial blocks have variable
    /// result sizes).
    Generated,
    /// \[1\]: fixed 32 KiB blocks — no length/capacity configuration, only
    /// 32-bit reference values, result size derived from the counter.
    Baseline,
}

/// How a job launch configures the PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invoke {
    /// Full configuration: every filter stage (unused ones set to nop)
    /// and the aggregation unit, then the descriptor and START.
    Cold,
    /// Steady state: the configuration is already in the registers;
    /// only the descriptor and START are written.
    Warm,
    /// A batched-GET key after the batch's cold first key: the PL
    /// key-list walker re-points stage 0 and the descriptor itself and
    /// reads the result back (charged to [`PeDriver::walker_io`]); the
    /// ARM writes a single START strobe and reads nothing.
    Keyed,
}

/// One filtering job: a source block, a destination buffer, and the
/// predicate chain.
#[derive(Debug, Clone)]
pub struct FilterJob {
    pub src: u64,
    pub len: u32,
    pub dst: u64,
    pub capacity: u32,
    pub rules: Vec<FilterRule>,
    /// Optional aggregation `(op, lane)` computed over the passing
    /// tuples (requires a PE generated with `aggregate = {...}`).
    pub aggregate: Option<(AggOp, u32)>,
}

impl FilterJob {
    /// Point an existing job descriptor at a new source block, keeping
    /// rules/destination/capacity. Firmware reuses one descriptor per
    /// stream this way instead of rebuilding it per block, which is what
    /// keeps the driver's configuration cache warm across a scan.
    pub fn retarget(&mut self, src: u64, len: u32) {
        self.src = src;
        self.len = len;
    }
}

/// Register-access counters (inputs to the platform timing model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    pub reg_writes: u64,
    pub reg_reads: u64,
}

impl std::ops::AddAssign for IoStats {
    fn add_assign(&mut self, rhs: IoStats) {
        self.reg_writes += rhs.reg_writes;
        self.reg_reads += rhs.reg_reads;
    }
}

/// Who issues a register access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Issuer {
    /// The ARM firmware, across the PS↔PL bridge the timing model prices.
    Arm,
    /// The PL-side key-list walker, at fabric speed.
    Walker,
}

/// Receiver of the register accesses [`job_protocol`] emits.
pub(crate) trait RegSink {
    fn write(&mut self, by: Issuer, off: u32, val: u32);
    fn read(&mut self, by: Issuer, off: u32) -> u32;
    /// The PE runs the launched job to completion.
    fn wait(&mut self);
}

/// What a job's readback returned.
pub(crate) struct Readback {
    /// RESULT_BYTES (`None` under \[1\], which derives the size from the
    /// pass counter).
    pub result_bytes: Option<u32>,
    pub tuples_out: u32,
    pub aggregate: Option<u64>,
}

/// The register protocol of one job: configuration (on a cold launch),
/// descriptor, START, completion, readback. The only code that lists
/// job-path PE registers; `window` is `(src, len, dst, capacity)`.
pub(crate) fn job_protocol(
    sink: &mut impl RegSink,
    profile: DriverProfile,
    stages: u32,
    rules: &[FilterRule],
    aggregate: Option<(AggOp, u32)>,
    (src, len, dst, capacity): (u64, u32, u64, u32),
    invoke: Invoke,
) -> Readback {
    assert!(
        rules.len() <= stages as usize,
        "job has {} rules but the PE provides {stages} stages",
        rules.len()
    );
    let generated = profile == DriverProfile::Generated;
    let counter = offsets::STAGE_BASE + stages * offsets::STAGE_STRIDE;
    let (by, configured) = match invoke {
        Invoke::Cold => (Issuer::Arm, rules),
        Invoke::Warm => (Issuer::Arm, &rules[..0]),
        Invoke::Keyed => (Issuer::Walker, &rules[..rules.len().min(1)]),
    };
    for (s, r) in configured.iter().enumerate() {
        let group = offsets::STAGE_BASE + s as u32 * offsets::STAGE_STRIDE;
        sink.write(by, group + offsets::STAGE_FIELD, r.lane);
        sink.write(by, group + offsets::STAGE_OP, r.op_code);
        sink.write(by, group + offsets::STAGE_VAL_LO, r.value as u32);
        if generated {
            sink.write(by, group + offsets::STAGE_VAL_HI, (r.value >> 32) as u32);
        }
    }
    if invoke == Invoke::Cold {
        for s in rules.len() as u32..stages {
            let group = offsets::STAGE_BASE + s * offsets::STAGE_STRIDE;
            sink.write(by, group + offsets::STAGE_OP, 0); // unused stages pass everything
        }
        if let Some((op, lane)) = aggregate {
            sink.write(by, counter + agg_offsets::AGG_FIELD, lane);
            sink.write(by, counter + agg_offsets::AGG_OP, op.code());
        }
    }
    sink.write(by, offsets::SRC_ADDR_LO, src as u32);
    sink.write(by, offsets::SRC_ADDR_HI, (src >> 32) as u32);
    sink.write(by, offsets::DST_ADDR_LO, dst as u32);
    sink.write(by, offsets::DST_ADDR_HI, (dst >> 32) as u32);
    if generated {
        sink.write(by, offsets::SRC_LEN, len);
        sink.write(by, offsets::DST_CAPACITY, capacity);
    }
    sink.write(Issuer::Arm, offsets::START, 1);
    sink.wait();
    // A keyed job's result sizes ride the result stream itself (the
    // walker prefixes each record with its length): the walker reads.
    let aggregate = aggregate.map(|_| {
        let lo = u64::from(sink.read(by, counter + agg_offsets::AGG_RESULT_LO));
        let hi = u64::from(sink.read(by, counter + agg_offsets::AGG_RESULT_HI));
        lo | (hi << 32)
    });
    let (result_bytes, tuples_out) = if generated {
        (Some(sink.read(by, offsets::RESULT_BYTES)), sink.read(by, offsets::TUPLES_OUT))
    } else {
        // [1] derives the result size from the pass counter (fixed-size
        // tuples): one register read.
        (None, sink.read(by, counter))
    };
    Readback { result_bytes, tuples_out, aggregate }
}

/// Register accesses of one job, by issuer.
#[derive(Debug, Default)]
struct Tally {
    arm: IoStats,
    walker: IoStats,
}

impl Tally {
    fn of(&mut self, by: Issuer) -> &mut IoStats {
        match by {
            Issuer::Arm => &mut self.arm,
            Issuer::Walker => &mut self.walker,
        }
    }
}

impl RegSink for Tally {
    fn write(&mut self, by: Issuer, _: u32, _: u32) {
        self.of(by).reg_writes += 1;
    }

    fn read(&mut self, by: Issuer, _: u32) -> u32 {
        self.of(by).reg_reads += 1;
        0
    }

    fn wait(&mut self) {}
}

/// The ARM-side register accesses of one job under `invoke` — what
/// [`PeDriver`] charges to [`JobResult::io`] for the same job, without a
/// device.
pub fn job_io(
    profile: DriverProfile,
    stages: u32,
    rules: &[FilterRule],
    aggregate: Option<(AggOp, u32)>,
    invoke: Invoke,
) -> IoStats {
    let mut tally = Tally::default();
    job_protocol(&mut tally, profile, stages, rules, aggregate, (0, 0, 0, 0), invoke);
    tally.arm
}

/// A [`PeDevice`] as a protocol sink: every access is MMIO, and the PE
/// executes on completion.
struct Device<'a, P: PeDevice> {
    pe: &'a mut P,
    mem: &'a mut dyn MemBus,
    tally: Tally,
    block: BlockResult,
}

impl<P: PeDevice> RegSink for Device<'_, P> {
    fn write(&mut self, by: Issuer, off: u32, val: u32) {
        self.tally.write(by, off, val);
        self.pe.mmio_write(off, val);
    }

    fn read(&mut self, by: Issuer, off: u32) -> u32 {
        self.tally.read(by, off);
        self.pe.mmio_read(off)
    }

    fn wait(&mut self) {
        self.block = self.pe.execute(self.mem);
    }
}

/// A job started with [`PeDriver::launch`]; consumed by
/// [`PeDriver::complete`].
#[derive(Debug)]
#[must_use = "a launched job must be completed"]
pub struct JobHandle {
    job: FilterJob,
    invoke: Invoke,
}

/// Result of a completed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobResult {
    /// The PE-level execution statistics.
    pub block: BlockResult,
    /// Result bytes as reported through the register interface.
    pub result_bytes: u32,
    /// Tuples that passed, as reported through the register interface.
    pub tuples_out: u32,
    /// Aggregation accumulator (None if no aggregate was requested).
    pub aggregate: Option<u64>,
    /// ARM register accesses this job cost (configuration + readback).
    pub io: IoStats,
}

/// Snapshot of the PE's hardware performance counters (the Rust twin of
/// the header's `<pe>_perf_counters_t` + `<pe>_read_perf_counters`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfReadout {
    pub tuples_in: u32,
    pub tuples_out: u32,
    pub in_stall: u32,
    pub out_stall: u32,
    pub active: u32,
    pub idle: u32,
    pub load_beats: u32,
    pub store_beats: u32,
    /// Tuples dropped per filtering stage, index = stage.
    pub stage_drops: Vec<u32>,
}

/// Driver for one PE instance.
pub struct PeDriver<P: PeDevice> {
    pe: P,
    profile: DriverProfile,
    /// Lifetime ARM register-access counters of the job path.
    pub total_io: IoStats,
    /// Register accesses spent on perf-counter readback/reset, tracked
    /// separately so observability never changes job-path costs.
    pub perf_io: IoStats,
    /// Register accesses performed by the PL-side key-list walker during
    /// keyed invocations. The walker works PL→PL at fabric speed, so
    /// this traffic never crosses the PS↔PL bridge the timing model
    /// prices — it is tracked here, apart from
    /// [`total_io`](Self::total_io).
    pub walker_io: IoStats,
    /// The job whose filter rules and aggregate were configured last
    /// (dirty tracking: an identical configuration is not rewritten,
    /// like firmware that caches its last configuration).
    config: Option<FilterJob>,
}

impl<P: PeDevice> PeDriver<P> {
    /// Wrap a PE device.
    pub fn new(pe: P, profile: DriverProfile) -> Self {
        Self {
            pe,
            profile,
            total_io: IoStats::default(),
            perf_io: IoStats::default(),
            walker_io: IoStats::default(),
            config: None,
        }
    }

    /// Access the wrapped device.
    pub fn device(&mut self) -> &mut P {
        &mut self.pe
    }

    /// Profile in use.
    pub fn profile(&self) -> DriverProfile {
        self.profile
    }

    /// Launch a job. An [`Invoke::Warm`] launch whose rules or aggregate
    /// differ from the cached configuration is promoted to
    /// [`Invoke::Cold`]. In simulation the PE only samples its registers
    /// when it executes, so the accesses themselves are issued by
    /// [`complete`](Self::complete).
    pub fn launch(&mut self, job: &FilterJob, invoke: Invoke) -> JobHandle {
        let cached = self
            .config
            .as_ref()
            .is_some_and(|c| c.rules == job.rules && c.aggregate == job.aggregate);
        let invoke = if invoke == Invoke::Warm && !cached { Invoke::Cold } else { invoke };
        match invoke {
            Invoke::Cold => self.config = Some(job.clone()),
            // The walker rewrote stage 0: keep the cache coherent with
            // the registers, so a later warm launch dirty-tracks right.
            Invoke::Keyed => {
                let stage0 = self.config.as_mut().and_then(|c| c.rules.first_mut());
                if let (Some(cached), Some(r0)) = (stage0, job.rules.first()) {
                    *cached = *r0;
                }
            }
            Invoke::Warm => {}
        }
        JobHandle { job: job.clone(), invoke }
    }

    /// Complete a job started with [`launch`](Self::launch): perform its
    /// register protocol, run the PE, read the results back.
    pub fn complete(&mut self, mem: &mut dyn MemBus, handle: JobHandle) -> JobResult {
        let JobHandle { job, invoke } = handle;
        let stages = self.pe.stages();
        let mut dev = Device {
            pe: &mut self.pe,
            mem,
            tally: Tally::default(),
            block: BlockResult::default(),
        };
        let window = (job.src, job.len, job.dst, job.capacity);
        let rb =
            job_protocol(&mut dev, self.profile, stages, &job.rules, job.aggregate, window, invoke);
        let Device { tally, block, .. } = dev;
        self.total_io += tally.arm;
        self.walker_io += tally.walker;
        JobResult {
            block,
            result_bytes: rb.result_bytes.unwrap_or(block.result_bytes),
            tuples_out: rb.tuples_out,
            aggregate: rb.aggregate,
            io: tally.arm,
        }
    }

    /// Synchronous filtering (the header's `filter_sync`): a warm launch
    /// that configures only what changed, then completion.
    pub fn filter_sync(&mut self, mem: &mut dyn MemBus, job: &FilterJob) -> JobResult {
        let handle = self.launch(job, Invoke::Warm);
        self.complete(mem, handle)
    }

    /// Forget the cached configuration (e.g. after device reset).
    pub fn invalidate_config_cache(&mut self) {
        self.config = None;
    }

    /// Read the hardware performance counters (the header's
    /// `read_perf_counters`). Register accesses are charged to
    /// [`perf_io`](Self::perf_io), not the job path.
    pub fn read_perf_counters(&mut self) -> PerfReadout {
        let fc = offsets::STAGE_BASE + self.pe.stages() * offsets::STAGE_STRIDE;
        let rd = |drv: &mut Self, rel: u32| {
            drv.perf_io.reg_reads += 1;
            drv.pe.mmio_read(fc + rel)
        };
        PerfReadout {
            tuples_in: rd(self, perf_offsets::CNT_TUPLES_IN),
            tuples_out: rd(self, perf_offsets::CNT_TUPLES_OUT),
            in_stall: rd(self, perf_offsets::CNT_IN_STALL),
            out_stall: rd(self, perf_offsets::CNT_OUT_STALL),
            active: rd(self, perf_offsets::CNT_ACTIVE),
            idle: rd(self, perf_offsets::CNT_IDLE),
            load_beats: rd(self, perf_offsets::CNT_LOAD_BEATS),
            store_beats: rd(self, perf_offsets::CNT_STORE_BEATS),
            stage_drops: (0..self.pe.stages())
                .map(|s| rd(self, perf_offsets::CNT_STAGE_DROP_BASE + 4 * s))
                .collect(),
        }
    }

    /// Clear the hardware performance counters (the header's
    /// `reset_perf_counters`: write-1-to-clear on CNT_CTRL).
    pub fn reset_perf_counters(&mut self) {
        let fc = offsets::STAGE_BASE + self.pe.stages() * offsets::STAGE_STRIDE;
        self.pe.mmio_write(fc + perf_offsets::CNT_CTRL, 1);
        self.perf_io.reg_writes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_ir::{elaborate, CmpOp};
    use ndp_pe::{BaselinePe, PeSim, VecMem};
    use ndp_spec::parse;

    const REFS: &str = "
        /* @autogen define parser RefPe with input = Ref, output = Ref */
        typedef struct { uint64_t src; uint64_t dst; uint32_t weight; } Ref;
    ";

    fn ref_block(n: u64) -> Vec<u8> {
        let mut v = Vec::new();
        for i in 0..n {
            v.extend_from_slice(&i.to_le_bytes());
            v.extend_from_slice(&(i * 2).to_le_bytes());
            v.extend_from_slice(&((i % 100) as u32).to_le_bytes());
        }
        v
    }

    fn setup() -> (PeDriver<PeSim>, VecMem, u32) {
        let cfg = elaborate(&parse(REFS).unwrap(), "RefPe").unwrap();
        let eq_ge = cfg.op_code("ge").unwrap();
        let pe = PeSim::new(cfg);
        let mut mem = VecMem::new(1 << 20);
        let data = ref_block(500);
        mem.write_bytes(0, &data);
        (PeDriver::new(pe, DriverProfile::Generated), mem, eq_ge)
    }

    #[test]
    fn filter_sync_runs_and_reports() {
        let (mut drv, mut mem, ge) = setup();
        let job = FilterJob {
            src: 0,
            len: 500 * 20,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 50 }],
            aggregate: None,
        };
        let res = drv.filter_sync(&mut mem, &job);
        assert_eq!(res.block.tuples_in, 500);
        assert_eq!(res.tuples_out, 250); // weight = i % 100 >= 50
        assert_eq!(res.result_bytes, 250 * 20);
        assert_eq!(res.result_bytes, res.block.result_bytes);
    }

    #[test]
    fn generated_profile_register_counts_match_timing_model() {
        // 11 writes + 2 reads cold, 7 + 2 warm: the counts the Fig. 7(b)
        // anchor derivation prices.
        let (mut drv, mut mem, ge) = setup();
        let job = FilterJob {
            src: 0,
            len: 100 * 20,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 50 }],
            aggregate: None,
        };
        let first = drv.filter_sync(&mut mem, &job);
        // First block: rules + addresses + start = 4 + 7 writes.
        assert_eq!(first.io.reg_writes, 11);
        assert_eq!(first.io.reg_reads, 2);
        // Steady state (same rules, next block): rules are cached, but
        // addresses, len, capacity and start are rewritten.
        let next = drv.filter_sync(&mut mem, &job);
        assert_eq!(next.io.reg_writes, 7);
        assert_eq!(next.io.reg_reads, 2);
    }

    #[test]
    fn baseline_profile_issues_fewer_register_accesses() {
        let cfg = elaborate(&parse(REFS).unwrap(), "RefPe").unwrap();
        let ge = cfg.op_code("ge").unwrap();
        let base = BaselinePe::new(cfg).unwrap();
        let mut drv = PeDriver::new(base, DriverProfile::Baseline);
        let mut mem = VecMem::new(1 << 20);
        let data = ref_block(1638); // ~one 32 KiB block of 20 B tuples
        mem.write_bytes(0, &data);
        let job = FilterJob {
            src: 0,
            len: 32768,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 50 }],
            aggregate: None,
        };
        let res = drv.filter_sync(&mut mem, &job);
        // 3 rule writes (no VAL_HI) + 4 addresses + start = 8 writes,
        // 1 counter read.
        assert_eq!(res.io.reg_writes, 8);
        assert_eq!(res.io.reg_reads, 1);
        assert!(res.tuples_out > 0);
    }

    #[test]
    fn warm_launch_then_complete_runs_the_job() {
        let (mut drv, mut mem, ge) = setup();
        let job = FilterJob {
            src: 0,
            len: 200 * 20,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 10 }],
            aggregate: None,
        };
        let handle = drv.launch(&job, Invoke::Warm);
        let res = drv.complete(&mut mem, handle);
        assert_eq!(res.block.tuples_in, 200);
        assert_eq!(res.tuples_out, 180);
    }

    #[test]
    fn keyed_invocation_costs_one_strobe_and_matches_cold_results() {
        let (mut drv, mut mem, ge) = setup();
        let cold = FilterJob {
            src: 0,
            len: 500 * 20,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 50 }],
            aggregate: None,
        };
        // The batch's first key configures the datapath the normal way.
        let first = drv.filter_sync(&mut mem, &cold);
        assert_eq!(first.io.reg_writes, 11);
        // Subsequent keys: the walker re-points the descriptor; the ARM
        // pays exactly one START strobe and reads nothing.
        let keyed = FilterJob {
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 90 }],
            ..cold.clone()
        };
        let walker_before = drv.walker_io;
        let handle = drv.launch(&keyed, Invoke::Keyed);
        let res = drv.complete(&mut mem, handle);
        assert_eq!((res.io.reg_writes, res.io.reg_reads), (1, 0));
        assert!(drv.walker_io.reg_writes > walker_before.reg_writes);
        assert!(drv.walker_io.reg_reads > walker_before.reg_reads);
        // Results are byte-for-byte what a cold launch would compute.
        let mut check = PeDriver::new(
            PeSim::new(elaborate(&parse(REFS).unwrap(), "RefPe").unwrap()),
            DriverProfile::Generated,
        );
        let reference = check.filter_sync(&mut mem, &keyed);
        assert_eq!(res.tuples_out, reference.tuples_out);
        assert_eq!(res.result_bytes, reference.result_bytes);
        // The rule cache stayed coherent: relaunching the keyed rules
        // cold skips reconfiguration (steady-state 7 writes).
        let steady = drv.filter_sync(&mut mem, &keyed);
        assert_eq!(steady.io.reg_writes, 7, "keyed launch kept the rule cache in sync");
    }

    #[test]
    fn rule_cache_invalidation_rewrites_rules() {
        let (mut drv, mut mem, ge) = setup();
        let job = FilterJob {
            src: 0,
            len: 100 * 20,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 50 }],
            aggregate: None,
        };
        let _ = drv.filter_sync(&mut mem, &job);
        drv.invalidate_config_cache();
        let res = drv.filter_sync(&mut mem, &job);
        assert_eq!(res.io.reg_writes, 11, "invalidation forces full reconfiguration");
    }

    #[test]
    fn changing_rules_reconfigures_and_nops_unused_stages() {
        let src = "
            /* @autogen define parser R with input = T, output = T, stages = 2 */
            typedef struct { uint32_t v, w; } T;
        ";
        let cfg = elaborate(&parse(src).unwrap(), "R").unwrap();
        let lt = cfg.op_code("lt").unwrap();
        let pe = PeSim::new(cfg);
        let mut drv = PeDriver::new(pe, DriverProfile::Generated);
        let mut mem = VecMem::new(1 << 16);
        let mut data = Vec::new();
        for i in 0u32..10 {
            data.extend_from_slice(&i.to_le_bytes());
            data.extend_from_slice(&(100 - i).to_le_bytes());
        }
        mem.write_bytes(0, &data);
        // One rule on a two-stage PE: stage 1 must be set to nop.
        let job = FilterJob {
            src: 0,
            len: data.len() as u32,
            dst: 0x8000,
            capacity: 4096,
            rules: vec![FilterRule { lane: 0, op_code: lt, value: 5 }],
            aggregate: None,
        };
        let res = drv.filter_sync(&mut mem, &job);
        assert_eq!(res.tuples_out, 5);
        // Rewriting with a different predicate takes effect.
        let job2 = FilterJob { rules: vec![FilterRule { lane: 0, op_code: lt, value: 2 }], ..job };
        let res2 = drv.filter_sync(&mut mem, &job2);
        assert_eq!(res2.tuples_out, 2);
    }

    #[test]
    #[should_panic(expected = "rules")]
    fn too_many_rules_panics() {
        let (mut drv, mut mem, ge) = setup();
        let job = FilterJob {
            src: 0,
            len: 20,
            dst: 0x40000,
            capacity: 4096,
            rules: vec![
                FilterRule { lane: 0, op_code: ge, value: 0 },
                FilterRule { lane: 1, op_code: ge, value: 0 },
            ],
            aggregate: None,
        };
        let _ = drv.filter_sync(&mut mem, &job);
    }

    #[test]
    fn perf_readback_matches_job_and_leaves_job_io_untouched() {
        let (mut drv, mut mem, ge) = setup();
        let job = FilterJob {
            src: 0,
            len: 500 * 20,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 50 }],
            aggregate: None,
        };
        let res = drv.filter_sync(&mut mem, &job);
        let job_io = drv.total_io;
        let perf = drv.read_perf_counters();
        assert_eq!(perf.tuples_in, res.block.tuples_in);
        assert_eq!(perf.tuples_out, res.tuples_out);
        assert_eq!(perf.stage_drops, vec![res.block.tuples_in - res.tuples_out]);
        assert_eq!(perf.active + perf.idle, res.block.cycles as u32);
        // Observability cost is accounted separately from the job path.
        assert_eq!(drv.total_io, job_io);
        assert_eq!(drv.perf_io.reg_reads, 9);
        drv.reset_perf_counters();
        assert_eq!(drv.perf_io.reg_writes, 1);
        let cleared = drv.read_perf_counters();
        assert_eq!(cleared, PerfReadout { stage_drops: vec![0], ..PerfReadout::default() });
    }

    #[test]
    fn retargeted_job_reuses_the_descriptor_and_rule_cache() {
        let (mut drv, mut mem, ge) = setup();
        // Second block of refs further up in memory.
        let second = ref_block(300);
        mem.write_bytes(0x20000, &second);
        let mut job = FilterJob {
            src: 0,
            len: 500 * 20,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 50 }],
            aggregate: None,
        };
        let first = drv.filter_sync(&mut mem, &job);
        assert_eq!(first.block.tuples_in, 500);
        // Stream the next block through the same descriptor.
        job.retarget(0x20000, 300 * 20);
        let next = drv.filter_sync(&mut mem, &job);
        assert_eq!(next.block.tuples_in, 300);
        assert_eq!(next.tuples_out, 150);
        // Rules were cached: only addresses/len/capacity/start rewritten.
        assert_eq!(next.io.reg_writes, 7);
    }

    #[test]
    fn launch_complete_equals_filter_sync() {
        let (mut drv, mut mem, ge) = setup();
        let job = FilterJob {
            src: 0,
            len: 500 * 20,
            dst: 0x40000,
            capacity: 1 << 18,
            rules: vec![FilterRule { lane: 2, op_code: ge, value: 50 }],
            aggregate: None,
        };
        let handle = drv.launch(&job, Invoke::Cold);
        let res = drv.complete(&mut mem, handle);
        drv.invalidate_config_cache();
        let sync = drv.filter_sync(&mut mem, &job);
        assert_eq!(res, sync);
    }

    #[test]
    fn aggregate_unit_is_configured_once_like_the_rules() {
        let src = "
            /* @autogen define parser A with input = T, output = T, aggregate = { sum } */
            typedef struct { uint64_t k; uint32_t v; } T;
        ";
        let cfg = elaborate(&parse(src).unwrap(), "A").unwrap();
        let ge = cfg.op_code("ge").unwrap();
        let mut drv = PeDriver::new(PeSim::new(cfg), DriverProfile::Generated);
        let mut mem = VecMem::new(1 << 16);
        let data: Vec<u8> = (0u64..10)
            .flat_map(|k| k.to_le_bytes().into_iter().chain((k as u32).to_le_bytes()))
            .collect();
        mem.write_bytes(0, &data);
        let job = FilterJob {
            src: 0,
            len: data.len() as u32,
            dst: 0x8000,
            capacity: 4096,
            rules: vec![FilterRule { lane: 1, op_code: ge, value: 4 }],
            aggregate: Some((AggOp::Sum, 1)),
        };
        // Cold: rule (4) + AGG_FIELD/AGG_OP (2) + descriptor (6) + START;
        // the accumulator halves ride every readback.
        let first = drv.filter_sync(&mut mem, &job);
        assert_eq!((first.io.reg_writes, first.io.reg_reads), (13, 4));
        let next = drv.filter_sync(&mut mem, &job);
        assert_eq!((next.io.reg_writes, next.io.reg_reads), (7, 4));
        assert_eq!(first.aggregate, Some(4 + 5 + 6 + 7 + 8 + 9));
        assert_eq!(next.aggregate, first.aggregate);
        // A different reduction is a different configuration.
        let count = FilterJob { aggregate: Some((AggOp::Count, 0)), ..job };
        assert_eq!(drv.filter_sync(&mut mem, &count).io.reg_writes, 13);
    }

    #[test]
    fn nop_semantics_equal_cmp_nop() {
        // The driver's implicit nop for unused stages matches CmpOp::Nop.
        assert!(CmpOp::Nop.eval(ndp_spec::PrimTy::U32, 1, 2));
    }
}
