//! The plan-driven execution engine.
//!
//! Every backend of a [`crate::plan::PhysicalPlan`] — software,
//! hardware, hybrid, and the parallel-PE scan — runs through the four
//! entry points here (`run_scan`, `run_scan_aggregate`, `run_get`,
//! `run_batched_get`), which `NkvDb::execute_at` alone dispatches to.
//!
//! The shared plumbing all of them need — retrying flash reads with
//! backoff, claiming a healthy PE under the watchdog/degradation
//! policy, dispatching one block job to a PE (ARM register
//! configuration + PE streaming + DRAM traffic), and falling back to
//! the ARM oracle when no PE is available — lives here exactly once.
//!
//! # Parallel scan
//!
//! A plan with `parallel_pes = n >= 1` splits a scan's block list into
//! `n` per-worker streams by flash-channel group (every block's pages
//! live on one channel; see `placement::worker_for_channel`). Each
//! worker owns one PE and one staging buffer and processes its stream
//! *strictly serially* — block `k+1` is issued only once block `k` is
//! consumed — so the streams model bounded per-worker staging rather
//! than the serial path's idealized issue-everything-at-start firmware
//! loop. That bound costs time: the serial dispatch keeps every flash
//! read in flight at once and finishes ahead of every stream count the
//! benchmarks sweep. The worker chains are expanded one after another
//! in host order and overlap in simulated time on the shared timelines
//! (flash controllers, DRAM port, ARM); every timeline is gap-aware
//! (`cosmos_sim::Server`), so a later chain's job fits in front of an
//! earlier chain's later reservation. Results merge deterministically
//! in global (component, block) order before the shared reconciliation
//! pass, so a parallel scan returns exactly the serial plan's bytes.

use crate::error::{NkvError, NkvResult};
use crate::exec::{DramBus, HealthCounters, ResilienceConfig, SimReport, TableExec};
use crate::lsm::LsmTree;
use crate::memtable::Entry;
use crate::metrics::LatencyHistogram;
use crate::placement::worker_for_channel;
use crate::plan::{Backend, PhysOp, PhysicalPlan};
use crate::sst::{read_block, search_block, SstMeta};
use cosmos_sim::dram::DramClient;
use cosmos_sim::{timing, CosmosPlatform, FlashArray, SimNs};
use ndp_pe::oracle::FilterRule;
use ndp_pe::pipeline::estimate_block_cycles;
use ndp_swgen::{job_io, DriverProfile, FilterJob, Invoke, IoStats};
use std::collections::HashMap;

/// Per-driver DRAM staging layout: input buffer then output buffer.
const STAGE_STRIDE: u64 = 256 * 1024;
const STAGE_OUT_OFF: u64 = 128 * 1024;

/// Backoff charged before retry `attempt` (1-based):
/// `backoff_base_ns << (attempt - 1)`, shift capped so a hostile retry
/// budget cannot overflow. One definition shared by the block-read
/// retry loop below and the cluster router's per-shard retry wrapper.
pub(crate) fn backoff_before_retry(res: &ResilienceConfig, attempt: u32) -> SimNs {
    res.backoff_base_ns << attempt.saturating_sub(1).min(16)
}

/// Run `attempt_read` at increasing simulated times until it succeeds,
/// fails non-retryably, or exhausts the retry budget. Backoff before
/// retry `n` is `backoff_base_ns << (n - 1)` (capped shift); every
/// retry and the backoff time are accounted in `health`. Exhaustion
/// surfaces as [`NkvError::RetriesExhausted`] with the given identity.
pub(crate) fn retry_read<T>(
    res: &ResilienceConfig,
    health: &mut HealthCounters,
    sst_id: u64,
    block: usize,
    now: SimNs,
    mut attempt_read: impl FnMut(SimNs) -> NkvResult<T>,
) -> NkvResult<T> {
    let mut at = now;
    let mut attempt = 0u32;
    loop {
        match attempt_read(at) {
            Err(NkvError::Flash(e)) if e.is_retryable() => {
                attempt += 1;
                if attempt > res.max_read_retries {
                    health.reads_failed += 1;
                    return Err(NkvError::RetriesExhausted { sst_id, block, attempts: attempt });
                }
                health.read_retries += 1;
                let backoff = backoff_before_retry(res, attempt);
                health.retry_backoff_ns += backoff;
                at += backoff;
            }
            other => return other,
        }
    }
}

/// Retrying wrapper around [`read_block`]: transient failures back off
/// in simulated time and retry; budget exhaustion becomes the typed
/// [`NkvError::RetriesExhausted`]. Non-retryable errors pass through.
pub(crate) fn read_block_resilient(
    flash: &mut FlashArray,
    res: &ResilienceConfig,
    health: &mut HealthCounters,
    sst: &SstMeta,
    block_idx: usize,
    now: SimNs,
) -> NkvResult<(SimNs, Vec<u8>)> {
    retry_read(res, health, sst.id, block_idx, now, |at| read_block(flash, sst, block_idx, at))
}

/// Retrying read of an SST's index page (same policy as data blocks;
/// the page content is already cached in the metadata, only the flash
/// time matters). Returns the read-completion time.
pub(crate) fn read_index_page_resilient(
    platform: &mut CosmosPlatform,
    res: &ResilienceConfig,
    health: &mut HealthCounters,
    sst_id: u64,
    page: cosmos_sim::PhysAddr,
    now: SimNs,
) -> NkvResult<SimNs> {
    // `usize::MAX` marks the index page (not a data block) in the error.
    let flash = &mut platform.flash;
    retry_read(res, health, sst_id, usize::MAX, now, |at| {
        flash.read_page(page, at).map(|(done, _)| done).map_err(NkvError::from)
    })
}

/// Cache-aware staged read of one SST data block. On a device-DRAM
/// block-cache hit the block bursts from DRAM into the staging buffer
/// over the shared port — no flash traffic, no flash-DMA transfer — and
/// a `cache_hit` span is traced. On a miss the resilient flash read
/// runs exactly as before, the flash DMA stages the block, and the
/// block is admitted to the cache. With the cache disabled (the
/// default) this is the legacy read + stage path bit for bit. Returns
/// the staging-complete time and the block bytes.
pub(crate) fn staged_block_read(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    sst: &SstMeta,
    block_idx: usize,
    now: SimNs,
) -> NkvResult<(SimNs, Vec<u8>)> {
    let hit = platform.cache_mut().and_then(|c| c.lookup(sst.id, block_idx)).map(|d| d.to_vec());
    if let Some(data) = hit {
        let staged = platform.dram.timed_transfer(DramClient::CacheHit, data.len() as u64, now);
        platform.trace_cache_hit(sst.id, block_idx as u64, data.len() as u64, now, staged - now);
        return Ok((staged, data));
    }
    let (flash_done, data) = read_block_resilient(
        &mut platform.flash,
        &exec.resilience,
        &mut exec.health,
        sst,
        block_idx,
        now,
    )?;
    let staged = platform.dram.timed_transfer(DramClient::FlashDma, data.len() as u64, flash_done);
    if let Some(c) = platform.cache_mut() {
        c.insert(sst.id, block_idx, data.clone());
    }
    Ok((staged, data))
}

/// Cache-aware read of one SST block for the reconciliation shadow
/// check. The ARM consumes the block in place, so — unlike
/// [`staged_block_read`] — a miss keeps the legacy timing exactly (the
/// resilient flash read alone, no staging transfer); a hit is one
/// DRAM-port burst. Misses still admit the block.
pub(crate) fn confirm_block_read(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    sst: &SstMeta,
    block_idx: usize,
    now: SimNs,
) -> NkvResult<(SimNs, Vec<u8>)> {
    let hit = platform.cache_mut().and_then(|c| c.lookup(sst.id, block_idx)).map(|d| d.to_vec());
    if let Some(data) = hit {
        let done = platform.dram.timed_transfer(DramClient::CacheHit, data.len() as u64, now);
        platform.trace_cache_hit(sst.id, block_idx as u64, data.len() as u64, now, done - now);
        return Ok((done, data));
    }
    let (done, data) = read_block_resilient(
        &mut platform.flash,
        &exec.resilience,
        &mut exec.health,
        sst,
        block_idx,
        now,
    )?;
    if let Some(c) = platform.cache_mut() {
        c.insert(sst.id, block_idx, data.clone());
    }
    Ok((done, data))
}

/// Cache-aware read of an SST's index page, keyed
/// `(sst_id, INDEX_BLOCK)`. The page *content* already lives in the SST
/// metadata — only the timing and the cache-budget occupancy of one
/// flash page are modeled — so a hit is a page-sized DRAM burst and a
/// miss is the legacy resilient flash-page read plus admission.
pub(crate) fn index_page_read(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    sst_id: u64,
    page: cosmos_sim::PhysAddr,
    now: SimNs,
) -> NkvResult<SimNs> {
    let bytes = u64::from(platform.flash.config().page_bytes);
    let hit =
        platform.cache_mut().is_some_and(|c| c.lookup(sst_id, cosmos_sim::INDEX_BLOCK).is_some());
    if hit {
        let done = platform.dram.timed_transfer(DramClient::CacheHit, bytes, now);
        platform.trace_cache_hit(sst_id, u64::MAX, bytes, now, done - now);
        return Ok(done);
    }
    let done =
        read_index_page_resilient(platform, &exec.resilience, &mut exec.health, sst_id, page, now)?;
    if let Some(c) = platform.cache_mut() {
        c.insert(sst_id, cosmos_sim::INDEX_BLOCK, vec![0u8; bytes as usize]);
    }
    Ok(done)
}

/// Next non-failed PE in round-robin order, advancing `rr` past it;
/// `None` once every PE has been marked failed.
pub(crate) fn next_healthy_pe(failed: &[bool], n_pes: usize, rr: &mut usize) -> Option<usize> {
    let n = n_pes.max(1);
    for _ in 0..n {
        let d = *rr % n;
        *rr += 1;
        if !failed.get(d).copied().unwrap_or(false) {
            return Some(d);
        }
    }
    None
}

/// Where one block runs after the PE claim is resolved.
pub(crate) enum PeGrant {
    /// Dispatch to this PE index.
    Hw(usize),
    /// Process on the ARM; `hung` is set when a fresh watchdog trip led
    /// here (the caller charges `watchdog_ns` before resuming).
    Sw { hung: bool },
}

/// Claim `candidate` for one block job: roll the platform's hang fault,
/// account watchdog trips and software fallbacks, and decide where the
/// block runs. A hung PE is retired for the session; with
/// `hw_fallback_to_sw` disabled the hang fails the operation with
/// [`NkvError::PeTimeout`] instead of degrading. `count_fallback` is
/// false for blocks that were never HW-eligible (the fixed-block
/// baseline's software tail block).
pub(crate) fn claim_pe(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    candidate: Option<usize>,
    count_fallback: bool,
) -> NkvResult<PeGrant> {
    // Watchdog: a hung PE never raises DONE; the firmware's poll times
    // out, the PE is retired and the block degrades to software. The
    // hang fault is rolled only when a PE was actually selected — the
    // RNG draw order matches the paired no-fault run — and the hang is
    // handled inside the same `if let`, so no unwrap can abort the
    // device when a hostile fault plan fires with no PE left.
    let mut hung = false;
    if let Some(d) = candidate {
        if platform.roll_pe_hang() {
            hung = true;
            exec.health.watchdog_trips += 1;
            if let Some(f) = exec.pe_failed.get_mut(d) {
                *f = true;
            }
            if !exec.resilience.hw_fallback_to_sw {
                return Err(NkvError::PeTimeout {
                    pe: d,
                    watchdog_ns: exec.resilience.watchdog_ns,
                });
            }
        }
    }
    match candidate {
        Some(d) if !hung => Ok(PeGrant::Hw(d)),
        _ => {
            if count_fallback {
                exec.health.sw_fallback_blocks += 1;
            }
            Ok(PeGrant::Sw { hung })
        }
    }
}

/// The time a degraded block resumes on the ARM: after the watchdog
/// timeout on a fresh hang, immediately otherwise.
pub(crate) fn sw_resume_at(exec: &TableExec, staged: SimNs, hung: bool) -> SimNs {
    if hung {
        staged + exec.resilience.watchdog_ns
    } else {
        staged
    }
}

/// Charge the ARM for one software filter pass over `bytes` of staged
/// data, starting no earlier than `resume`; returns the finish time.
pub(crate) fn arm_filter(platform: &mut CosmosPlatform, resume: SimNs, bytes: u64) -> SimNs {
    let (_, t) = platform.arm.schedule(resume, platform.arm_filter_ns(bytes));
    t
}

/// Schedule one hardware block job on PE `d`: the ARM writes the config
/// registers at `staged`, the PE streams the block for `cycles`, and
/// the PE's DRAM traffic rides the shared port — a load of `load_bytes`
/// at config-done (when given) and a store of `store_bytes` at PE-done
/// (when given). Returns the job's completion time: the store's finish
/// when it stores, the PE's finish otherwise. GET/SCAN/aggregate differ
/// only in which sides of the DRAM traffic exist.
#[allow(clippy::too_many_arguments)]
pub(crate) fn schedule_hw_job(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    d: usize,
    staged: SimNs,
    cycles: u64,
    io: IoStats,
    load_bytes: Option<u64>,
    store_bytes: Option<u64>,
) -> SimNs {
    let cfg_ns = platform.mmio_cost_ns(io.reg_writes, io.reg_reads);
    let (cfg_start, cfg_done) = platform.arm.schedule(staged, cfg_ns);
    platform.trace_reg_access(d as u32, cfg_start, cfg_ns, io.reg_writes, io.reg_reads);
    let (pe_start, pe_done) = exec.pe_servers[d].schedule(cfg_done, cycles * timing::PL_CLK_NS);
    platform.trace_pe_job(d as u32, pe_start, pe_done - pe_start, cycles);
    if let Some(bytes) = load_bytes {
        let _ = platform.dram.timed_transfer(DramClient::PeLoad, bytes, cfg_done);
    }
    match store_bytes {
        Some(bytes) => platform.dram.timed_transfer(DramClient::PeStore, bytes, pe_done),
        None => pe_done,
    }
}

/// One block's worth of hardware filtering (shared by GET and SCAN).
/// Returns `(tuples_in, tuples_out, pe_cycles, register_io,
/// bytes_written)`; the register I/O comes from the generated driver's
/// protocol, performed (cycle-accurate) or counted (fast path).
fn hw_filter_block(
    exec: &mut TableExec,
    dram: &mut cosmos_sim::Dram,
    data: &[u8],
    rules: &[FilterRule],
    driver_idx: usize,
    invoke: Invoke,
    out: &mut Vec<u8>,
) -> (u64, u64, u64, IoStats, u64) {
    if exec.cycle_accurate {
        let in_addr = driver_idx as u64 * STAGE_STRIDE;
        let out_addr = in_addr + STAGE_OUT_OFF;
        dram.write(in_addr, data);
        let drv = &mut exec.drivers[driver_idx];
        let job = FilterJob {
            src: in_addr,
            len: data.len() as u32,
            dst: out_addr,
            capacity: (STAGE_STRIDE - STAGE_OUT_OFF) as u32,
            rules: rules.to_vec(),
            aggregate: None,
        };
        let handle = drv.launch(&job, invoke);
        let res = drv.complete(&mut DramBus(dram), handle);
        let start = out.len();
        out.resize(start + res.result_bytes as usize, 0);
        dram.read(out_addr, &mut out[start..]);
        (
            u64::from(res.block.tuples_in),
            u64::from(res.tuples_out),
            res.block.cycles,
            res.io,
            u64::from(res.block.bytes_written),
        )
    } else {
        let stats = exec.processor.process_block(data, rules, &exec.ops, out);
        let bytes_written = match exec.profile {
            // The fixed-block baseline always writes whole blocks back.
            DriverProfile::Baseline => u64::from(exec.chunk_bytes),
            DriverProfile::Generated => u64::from(stats.bytes_out),
        };
        let cycles = estimate_block_cycles(
            data.len() as u64,
            u64::from(stats.tuples_in),
            bytes_written,
            exec.stages,
        );
        let io = job_io(exec.profile, exec.stages, rules, None, invoke);
        (u64::from(stats.tuples_in), u64::from(stats.tuples_out), cycles, io, bytes_written)
    }
}

/// ARM post-filter over the PE's output tuples in `out[before..]` (the
/// hybrid plan's residual stage). Only lowered when the transformation
/// is the identity, so input-lane offsets are valid on output tuples.
/// Returns the number of tuples dropped.
fn apply_residual(
    exec: &TableExec,
    residual: &[FilterRule],
    out: &mut Vec<u8>,
    before: usize,
) -> u64 {
    let ts = exec.processor.out_tuple_bytes().max(1);
    let mut kept = Vec::with_capacity(out.len() - before);
    let mut dropped = 0u64;
    for tup in out[before..].chunks_exact(ts) {
        if exec.processor.tuple_passes(tup, residual, &exec.ops) {
            kept.extend_from_slice(tup);
        } else {
            dropped += 1;
        }
    }
    out.truncate(before);
    out.extend_from_slice(&kept);
    dropped
}

/// Run one staged scan block on the plan's backend, appending passing
/// (transformed) tuples to `out` and returning the block's completion
/// time. `candidate`/`count_fallback` carry the caller's PE choice
/// (round-robin for the serial path, pinned for a parallel worker);
/// `configured[pe]` tracks whether the PE's rule registers are warm.
#[allow(clippy::too_many_arguments)]
fn scan_block_job(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    all_rules: &[FilterRule],
    data: &[u8],
    staged: SimNs,
    candidate: Option<usize>,
    count_fallback: bool,
    configured: &mut [bool],
    out: &mut Vec<u8>,
    report: &mut SimReport,
) -> NkvResult<SimNs> {
    if plan.backend == Backend::Software {
        let stats = exec.processor.process_block(data, all_rules, &exec.ops, out);
        report.tuples_in += u64::from(stats.tuples_in);
        report.tuples_out += u64::from(stats.tuples_out);
        return Ok(arm_filter(platform, staged, data.len() as u64));
    }
    match claim_pe(platform, exec, candidate, count_fallback)? {
        PeGrant::Hw(d) => {
            let before = out.len();
            let (tin, tout, cycles, io, bytes_written) = hw_filter_block(
                exec,
                &mut platform.dram,
                data,
                &plan.pushed,
                d,
                if configured[d] { Invoke::Warm } else { Invoke::Cold },
                out,
            );
            configured[d] = true;
            report.tuples_in += tin;
            report.tuples_out += tout;
            report.add_io(io);
            // ARM configures the PE, then the PE streams the block;
            // load + store both ride the DRAM port.
            let mut done = schedule_hw_job(
                platform,
                exec,
                d,
                staged,
                cycles,
                io,
                Some(data.len() as u64),
                Some(bytes_written),
            );
            if !plan.residual.is_empty() {
                // Hybrid residual: the ARM re-filters the PE's output
                // stream (it is in DRAM already) before reconciliation.
                let produced = (out.len() - before) as u64;
                done = arm_filter(platform, done, produced);
                report.tuples_out -= apply_residual(exec, &plan.residual, out, before);
            }
            Ok(done)
        }
        PeGrant::Sw { hung } => {
            // Baseline tail block, a just-hung PE, or no healthy PE
            // left: one ARM pass over the *combined* chain (pushed +
            // residual), so the degraded block needs no residual pass.
            let stats = exec.processor.process_block(data, all_rules, &exec.ops, out);
            report.tuples_in += u64::from(stats.tuples_in);
            report.tuples_out += u64::from(stats.tuples_out);
            Ok(arm_filter(platform, sw_resume_at(exec, staged, hung), data.len() as u64))
        }
    }
}

/// Decode the keys of the tuples appended at `results[from..]` into the
/// reconciliation worklist. A result buffer too short for a whole key
/// means a PE wrote garbage — surfaced as a typed error, not a panic.
fn decode_matched_keys(
    exec: &TableExec,
    results: &[u8],
    from: usize,
    rank: usize,
    matched_keys: &mut Vec<(u64, usize, usize)>,
) -> NkvResult<()> {
    let mut off = from;
    while off < results.len() {
        let key = results
            .get(off..off + 8)
            .and_then(|s| <[u8; 8]>::try_from(s).ok())
            .map(u64::from_le_bytes)
            .ok_or(NkvError::ResultDecode { offset: off, need: 8, len: results.len() })?;
        matched_keys.push((key, rank, off));
        off += exec.processor.out_tuple_bytes();
    }
    Ok(())
}

/// The ARM's memtable pass: probe plus a per-byte filter walk.
fn memtable_pass_done(platform: &mut CosmosPlatform, lsm: &LsmTree, start: SimNs) -> SimNs {
    let (_, t) = platform.arm.schedule(
        start,
        timing::ARM_MEMTABLE_PROBE_NS
            + lsm.memtable().len() as u64
                * timing::ARM_FILTER_PS_PER_BYTE
                * lsm.record_bytes() as u64
                / 1000,
    );
    t
}

/// Per-scan statistics of the parallel block phase (see
/// `NkvDb::parallel_scan_stats`).
#[derive(Debug, Clone)]
pub struct ParallelScanStats {
    /// Worker streams the scan fanned out to.
    pub workers: usize,
    /// Blocks processed by each worker.
    pub blocks_per_worker: Vec<u64>,
    /// Per-block job latency (issue → block done), folded over every
    /// worker via [`LatencyHistogram::merge`].
    pub job_latency: LatencyHistogram,
}

/// The parallel block phase: partition blocks into per-worker streams
/// by flash-channel group, expand each worker's strictly-serial chain,
/// then merge per-job outputs back in global (component, block) order.
#[allow(clippy::too_many_arguments)]
fn run_parallel_scan_blocks(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    all_rules: &[FilterRule],
    ssts: &[SstMeta],
    start: SimNs,
    results: &mut Vec<u8>,
    matched_keys: &mut Vec<(u64, usize, usize)>,
    report: &mut SimReport,
) -> NkvResult<SimNs> {
    let n_pes = exec.pe_servers.len().max(1);
    let workers = plan.parallel_pes.min(n_pes).max(1);
    let channels = platform.flash.config().channels;
    // Global (component, block) order: defines both the deterministic
    // result merge and each worker's in-stream issue order.
    let mut jobs: Vec<(usize, usize, usize)> = Vec::new(); // (rank, sst idx, block idx)
    for (si, sst) in ssts.iter().enumerate() {
        for bi in 0..sst.blocks.len() {
            jobs.push((si + 1, si, bi));
        }
    }
    let mut streams: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for (j, &(_, si, bi)) in jobs.iter().enumerate() {
        let ch = ssts[si].blocks[bi].pages.first().map_or(0, |p| p.channel);
        streams[worker_for_channel(ch, channels, workers)].push(j);
    }
    let (outs, op_end) = parallel_scan_streams(
        platform, exec, plan, all_rules, ssts, start, &jobs, &streams, report,
    )?;
    for (j, out) in outs.iter().enumerate() {
        let (rank, _, _) = jobs[j];
        let before = results.len();
        results.extend_from_slice(out);
        decode_matched_keys(exec, results, before, rank, matched_keys)?;
    }
    Ok(op_end)
}

/// Expand every worker's serial block chain (the streaming firmware
/// loop: read block, stage, filter, only then issue the next read).
#[allow(clippy::too_many_arguments)]
fn parallel_scan_streams(
    platform: &mut CosmosPlatform,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    all_rules: &[FilterRule],
    ssts: &[SstMeta],
    start: SimNs,
    jobs: &[(usize, usize, usize)],
    streams: &[Vec<usize>],
    report: &mut SimReport,
) -> NkvResult<(Vec<Vec<u8>>, SimNs)> {
    let n_pes = exec.pe_servers.len().max(1);
    let mut outs: Vec<Vec<u8>> = vec![Vec::new(); jobs.len()];
    let mut configured = vec![false; n_pes];
    let mut blocks_per_worker = vec![0u64; streams.len()];
    let mut job_latency = LatencyHistogram::new();
    let mut op_end = start;
    for (w, stream) in streams.iter().enumerate() {
        let pe = w % n_pes;
        let mut hist = LatencyHistogram::new();
        let mut t_next = start;
        for &j in stream {
            let (_, si, bi) = jobs[j];
            let sst = &ssts[si];
            let issue = t_next;
            let (staged, data) = staged_block_read(platform, exec, sst, bi, issue)?;
            report.blocks += 1;
            report.bytes_scanned += data.len() as u64;
            let partial = (data.len() as u32) < exec.full_block_payload;
            let baseline_tail = exec.profile == DriverProfile::Baseline && partial;
            let down = exec.pe_failed.get(pe).copied().unwrap_or(false);
            let candidate = if baseline_tail || down { None } else { Some(pe) };
            let done = scan_block_job(
                platform,
                exec,
                plan,
                all_rules,
                &data,
                staged,
                candidate,
                !baseline_tail,
                &mut configured,
                &mut outs[j],
                report,
            )?;
            t_next = done;
            op_end = op_end.max(done);
            hist.record(done.saturating_sub(issue));
            blocks_per_worker[w] += 1;
        }
        job_latency.merge(&hist);
    }
    exec.last_parallel_scan =
        Some(ParallelScanStats { workers: streams.len(), blocks_per_worker, job_latency });
    Ok((outs, op_end))
}

/// Execute a lowered filter-scan plan: memtable pass, per-block
/// filtering on the plan's backend (serial or parallel), version
/// reconciliation, NVMe result transfer.
pub(crate) fn run_scan(
    platform: &mut CosmosPlatform,
    lsm: &LsmTree,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    now: SimNs,
) -> NkvResult<(Vec<u8>, SimReport)> {
    let mut report = SimReport::default();
    let mut results: Vec<u8> = Vec::new();
    let mut matched_keys: Vec<(u64, usize, usize)> = Vec::new(); // (key, rank, result offset)
    let record_bytes = lsm.record_bytes();
    let start = now + platform.firmware.op_overhead_ns();
    let mut op_end = start;
    exec.last_parallel_scan = None;
    // The functional filter is always the whole conjunction; the split
    // into pushed/residual only decides where each predicate runs.
    let all_rules: Vec<FilterRule> =
        plan.pushed.iter().chain(plan.residual.iter()).copied().collect();

    // --- C0: the memtable participates in every scan (ARM-side); its
    // matches go through the same transformation as the PE path.
    for (key, entry) in lsm.memtable().iter() {
        if let Entry::Value(rec) = entry {
            report.tuples_in += 1;
            if exec.processor.tuple_passes(rec, &all_rules, &exec.ops) {
                matched_keys.push((key, 0, results.len()));
                exec.processor.transform_into(rec, &mut results);
                report.tuples_out += 1;
            }
        }
    }
    op_end = op_end.max(memtable_pass_done(platform, lsm, start));

    // --- Persistent components: filter every data block.
    let ssts: Vec<SstMeta> = lsm.all_ssts().into_iter().cloned().collect();
    if plan.backend != Backend::Software && plan.parallel_pes >= 1 {
        let t = run_parallel_scan_blocks(
            platform,
            exec,
            plan,
            &all_rules,
            &ssts,
            start,
            &mut results,
            &mut matched_keys,
            &mut report,
        )?;
        op_end = op_end.max(t);
    } else {
        // Serial legacy dispatch: every flash read issues at `start`
        // (the firmware queues reads across channels); the flash model
        // serializes per resource.
        let mut driver_rr = 0usize;
        let mut configured = vec![false; exec.pe_servers.len().max(1)];
        for (rank, sst) in ssts.iter().enumerate() {
            let rank = rank + 1; // memtable is rank 0
            for bi in 0..sst.blocks.len() {
                let (staged, data) = staged_block_read(platform, exec, sst, bi, start)?;
                report.blocks += 1;
                report.bytes_scanned += data.len() as u64;
                let before = results.len();
                // The fixed-block baseline cannot express partial
                // blocks; its firmware handles the tail block in
                // software (see DESIGN.md).
                let (candidate, count_fallback) = if plan.backend == Backend::Software {
                    (None, false)
                } else {
                    let partial = (data.len() as u32) < exec.full_block_payload;
                    let baseline_tail = exec.profile == DriverProfile::Baseline && partial;
                    let healthy = if baseline_tail {
                        None
                    } else {
                        next_healthy_pe(&exec.pe_failed, exec.pe_servers.len(), &mut driver_rr)
                    };
                    (healthy, !baseline_tail)
                };
                let done = scan_block_job(
                    platform,
                    exec,
                    plan,
                    &all_rules,
                    &data,
                    staged,
                    candidate,
                    count_fallback,
                    &mut configured,
                    &mut results,
                    &mut report,
                )?;
                op_end = op_end.max(done);
                decode_matched_keys(exec, &results, before, rank, &mut matched_keys)?;
            }
        }
    }

    // --- Post-filter reconciliation (shadow check).
    let mut keep = vec![true; matched_keys.len()];
    for (i, &(key, rank, _)) in matched_keys.iter().enumerate() {
        if !exec.reconcile || rank == 0 {
            continue; // memtable is always newest
        }
        if lsm.memtable_get(key).is_some() {
            keep[i] = false;
            continue;
        }
        for newer in lsm.ssts_newer_than(rank - 1) {
            if newer.is_tombstoned(key) {
                keep[i] = false;
                break;
            }
            if newer.may_contain(key) {
                // Bloom hit: confirm with a block read.
                if let Some(bi) = newer.block_for(key) {
                    let (t, data) = confirm_block_read(platform, exec, newer, bi, op_end)?;
                    report.shadow_confirm_reads += 1;
                    op_end = op_end.max(t);
                    if search_block(&data, record_bytes, key)?.is_some() {
                        keep[i] = false;
                        break;
                    }
                }
            }
        }
    }
    let out_bytes = exec.processor.out_tuple_bytes();
    let mut reconciled = Vec::with_capacity(results.len());
    for (i, &(_, _rank, off)) in matched_keys.iter().enumerate() {
        if keep[i] {
            reconciled.extend_from_slice(&results[off..off + out_bytes]);
        }
    }
    report.tuples_out = keep.iter().filter(|&&k| k).count() as u64;

    // --- Host transfer of the result set over NVMe.
    let (nv_start, host_done) = platform.nvme.transfer(op_end, reconciled.len() as u64);
    platform.trace_nvme(nv_start, host_done - nv_start, reconciled.len() as u64);
    op_end = host_done;

    report.result_bytes = reconciled.len() as u64;
    report.sim_ns = op_end - now;
    Ok((reconciled, report))
}

/// Execute a lowered aggregate-scan plan: one register-resident
/// reduction over every matching record; only the 8-byte accumulator
/// crosses the NVMe link.
pub(crate) fn run_scan_aggregate(
    platform: &mut CosmosPlatform,
    lsm: &LsmTree,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    now: SimNs,
) -> NkvResult<(u64, bool, SimReport)> {
    let PhysOp::AggregateScan { agg, lane } = plan.op else {
        unreachable!("run_scan_aggregate requires an AggregateScan plan");
    };
    let rules: &[FilterRule] = &plan.pushed;
    let mut report = SimReport::default();
    let start = now + platform.firmware.op_overhead_ns();
    let mut op_end = start;
    let mut acc = crate::oracle_acc(&exec.processor, agg, lane)
        .ok_or_else(|| NkvError::InvalidLane { table: "<aggregate>".into(), lane })?;

    // Memtable contribution (ARM-side, like run_scan()).
    for (_, entry) in lsm.memtable().iter() {
        if let Entry::Value(rec) = entry {
            report.tuples_in += 1;
            if exec.processor.tuple_passes(rec, rules, &exec.ops) {
                report.tuples_out += 1;
                if let Some(v) = exec.processor.lane_value(rec, lane) {
                    acc.update(v);
                }
            }
        }
    }
    op_end = op_end.max(memtable_pass_done(platform, lsm, start));

    let ssts: Vec<SstMeta> = lsm.all_ssts().into_iter().cloned().collect();
    let mut driver_rr = 0usize;
    let mut configured = vec![false; exec.pe_servers.len().max(1)];
    for sst in &ssts {
        for bi in 0..sst.blocks.len() {
            let (staged, data) = staged_block_read(platform, exec, sst, bi, start)?;
            report.blocks += 1;
            report.bytes_scanned += data.len() as u64;
            let done = if plan.backend == Backend::Software {
                for tuple in data.chunks_exact(exec.processor.in_tuple_bytes()) {
                    report.tuples_in += 1;
                    if exec.processor.tuple_passes(tuple, rules, &exec.ops) {
                        report.tuples_out += 1;
                        if let Some(v) = exec.processor.lane_value(tuple, lane) {
                            acc.update(v);
                        }
                    }
                }
                arm_filter(platform, staged, data.len() as u64)
            } else {
                // Functional result via the shared accumulator; counts
                // and timing like the filtering path, but with zero
                // result write-back (the aggregate stays in a register).
                let mut tin = 0u64;
                let mut tout = 0u64;
                for tuple in data.chunks_exact(exec.processor.in_tuple_bytes()) {
                    tin += 1;
                    if exec.processor.tuple_passes(tuple, rules, &exec.ops) {
                        tout += 1;
                        if let Some(v) = exec.processor.lane_value(tuple, lane) {
                            acc.update(v);
                        }
                    }
                }
                report.tuples_in += tin;
                report.tuples_out += tout;
                let healthy =
                    next_healthy_pe(&exec.pe_failed, exec.pe_servers.len(), &mut driver_rr);
                match claim_pe(platform, exec, healthy, true)? {
                    PeGrant::Hw(d) => {
                        let invoke = if configured[d] { Invoke::Warm } else { Invoke::Cold };
                        configured[d] = true;
                        let io =
                            job_io(exec.profile, exec.stages, rules, Some((agg, lane)), invoke);
                        report.add_io(io);
                        let cycles = estimate_block_cycles(data.len() as u64, tin, 0, exec.stages);
                        // Aggregates never store: the result stays in a
                        // register, so the job ends at PE-done.
                        schedule_hw_job(
                            platform,
                            exec,
                            d,
                            staged,
                            cycles,
                            io,
                            Some(data.len() as u64),
                            None,
                        )
                    }
                    PeGrant::Sw { hung } => {
                        // Hung or exhausted PEs: the ARM re-reduces the
                        // staged block (the accumulator above is already
                        // correct — only time differs).
                        arm_filter(platform, sw_resume_at(exec, staged, hung), data.len() as u64)
                    }
                }
            };
            op_end = op_end.max(done);
        }
    }

    // Only the accumulator travels to the host.
    let (nv_start, host_done) = platform.nvme.transfer(op_end, 8);
    platform.trace_nvme(nv_start, host_done - nv_start, 8);
    report.result_bytes = 8;
    report.sim_ns = host_done - now;
    Ok((acc.value(), acc.any(), report))
}

/// Look `key` up in one staged block: an ARM binary search on the
/// software backend, else PE 0 filtering with the plan's key-equality
/// rule re-pointed at `key` — launched cold, or keyed once an earlier
/// key of the batch has `configured` the PE. A retired or freshly hung
/// PE 0 degrades the search to the ARM, like the SCAN path. Returns the
/// record (if found) and the finish time.
#[allow(clippy::too_many_arguments)]
fn search_staged_block(
    platform: &mut CosmosPlatform,
    lsm: &LsmTree,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    key: u64,
    data: &[u8],
    staged: SimNs,
    configured: &mut bool,
    report: &mut SimReport,
) -> NkvResult<(Option<Vec<u8>>, SimNs)> {
    let grant = if plan.backend == Backend::Software {
        PeGrant::Sw { hung: false }
    } else {
        // One block, no parallelism to exploit: always PE 0.
        let pe_down = exec.pe_failed.first().copied().unwrap_or(false);
        claim_pe(platform, exec, if pe_down { None } else { Some(0) }, true)?
    };
    match grant {
        PeGrant::Sw { hung } => {
            let rec = search_block(data, lsm.record_bytes(), key)?.map(<[u8]>::to_vec);
            let resume = sw_resume_at(exec, staged, hung);
            let (_, done) = platform.arm.schedule(resume, timing::ARM_BLOCK_SEARCH_NS);
            Ok((rec, done))
        }
        PeGrant::Hw(d) => {
            let invoke = if *configured { Invoke::Keyed } else { Invoke::Cold };
            *configured = true;
            // Lowering pushes exactly the key-equality rule.
            let rules = [FilterRule { value: key, ..plan.pushed[0] }];
            let mut out = Vec::new();
            let (tin, tout, cycles, io, bytes_written) =
                hw_filter_block(exec, &mut platform.dram, data, &rules, d, invoke, &mut out);
            report.tuples_in += tin;
            report.tuples_out += tout;
            report.add_io(io);
            // GET has no PE load phase in the model (the block is
            // already staged for the search); only the one-record store
            // rides the DRAM port.
            let done =
                schedule_hw_job(platform, exec, d, staged, cycles, io, None, Some(bytes_written));
            let n = lsm.record_bytes();
            let rec = match out.len() {
                0 => None,
                len => Some(
                    out.get(..n)
                        .ok_or(NkvError::ResultDecode { offset: 0, need: n, len })?
                        .to_vec(),
                ),
            };
            Ok((rec, done))
        }
    }
}

/// Execute a lowered point-lookup plan: memtable probe, then the
/// bloom-pruned index walk with one block search per candidate.
pub(crate) fn run_get(
    platform: &mut CosmosPlatform,
    lsm: &LsmTree,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    now: SimNs,
) -> NkvResult<(Option<Vec<u8>>, SimReport)> {
    let PhysOp::PointLookup { key } = plan.op else {
        unreachable!("run_get requires a PointLookup plan");
    };
    let mut report = SimReport::default();
    let mut t = now + platform.firmware.op_overhead_ns();

    // C0 probe.
    let (_, tt) = platform.arm.schedule(t, timing::ARM_MEMTABLE_PROBE_NS);
    t = tt;
    match lsm.memtable_get(key) {
        Some(Entry::Value(v)) => {
            report.sim_ns = t - now;
            return Ok((Some(v.clone()), report));
        }
        Some(Entry::Tombstone) => {
            report.sim_ns = t - now;
            return Ok((None, report));
        }
        None => {}
    }

    // Persistent components: index walk is sequential (the next lookup
    // target depends on the previous miss).
    let candidates: Vec<SstMeta> = lsm.candidate_ssts(key).into_iter().cloned().collect();
    for sst in &candidates {
        // Index block read + parse on the ARM (same retry policy as data
        // blocks; the page content is already cached in `sst`).
        if let Some(&page) = sst.index_pages.first() {
            let idx_done = index_page_read(platform, exec, sst.id, page, t)?;
            let (_, parsed) = platform.arm.schedule(idx_done, timing::ARM_INDEX_PARSE_NS);
            t = parsed;
        }
        if sst.is_tombstoned(key) {
            report.sim_ns = t - now;
            return Ok((None, report));
        }
        if !sst.may_contain(key) {
            continue;
        }
        let Some(bi) = sst.block_for(key) else { continue };
        let (staged, data) = staged_block_read(platform, exec, sst, bi, t)?;
        report.blocks += 1;
        report.bytes_scanned += data.len() as u64;

        let (found, done) = search_staged_block(
            platform,
            lsm,
            exec,
            plan,
            key,
            &data,
            staged,
            &mut false,
            &mut report,
        )?;
        t = done;
        if let Some(rec) = found {
            let (nv_start, host) = platform.nvme.transfer(t, rec.len() as u64);
            platform.trace_nvme(nv_start, host - nv_start, rec.len() as u64);
            report.sim_ns = host - now;
            return Ok((Some(rec), report));
        }
    }
    report.sim_ns = t - now;
    Ok((None, report))
}

/// Per-batch shared state: the first key of a batch to touch an index
/// page or a data block pays its flash read; later keys reuse the
/// in-DRAM copy (waiting until it is ready when they get there first).
/// This is what makes batching beat N serial GETs on the flash-bound
/// walk — every key of a batch probes the same L0/L1 index pages.
#[derive(Default)]
struct BatchShared {
    /// `sst.id` → time its index page is read + parsed.
    index_parsed: HashMap<u64, SimNs>,
    /// `(sst.id, block)` → (staged-complete time, block bytes).
    blocks: HashMap<(u64, usize), (SimNs, Vec<u8>)>,
}

/// One key's lookup inside a batched GET: [`run_get`]'s walk with three
/// batch twists — index pages and staged blocks are shared through
/// `shared`, the PE is configured cold only by the batch's first
/// hardware block (`batch_configured`; every later key is an
/// [`Invoke::Keyed`] strobe re-pointing the plan's key rule), and the
/// per-key NVMe result transfer is left to the caller so results stream
/// back in key order.
#[allow(clippy::too_many_arguments)]
fn batched_key_walk(
    platform: &mut CosmosPlatform,
    lsm: &LsmTree,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    key: u64,
    start: SimNs,
    shared: &mut BatchShared,
    batch_configured: &mut bool,
    report: &mut SimReport,
) -> NkvResult<(Option<Vec<u8>>, SimNs)> {
    let (_, mut t) = platform.arm.schedule(start, timing::ARM_MEMTABLE_PROBE_NS);
    match lsm.memtable_get(key) {
        Some(Entry::Value(v)) => return Ok((Some(v.clone()), t)),
        Some(Entry::Tombstone) => return Ok((None, t)),
        None => {}
    }
    let candidates: Vec<SstMeta> = lsm.candidate_ssts(key).into_iter().cloned().collect();
    for sst in &candidates {
        if let Some(&page) = sst.index_pages.first() {
            t = match shared.index_parsed.get(&sst.id) {
                // A batch-mate already read + parsed this index page:
                // reuse the in-DRAM parse, waiting for it if needed.
                Some(&parsed) => t.max(parsed),
                None => {
                    let idx_done = index_page_read(platform, exec, sst.id, page, t)?;
                    let (_, parsed) = platform.arm.schedule(idx_done, timing::ARM_INDEX_PARSE_NS);
                    shared.index_parsed.insert(sst.id, parsed);
                    parsed
                }
            };
        }
        if sst.is_tombstoned(key) {
            return Ok((None, t));
        }
        if !sst.may_contain(key) {
            continue;
        }
        let Some(bi) = sst.block_for(key) else { continue };
        let (staged, data) = match shared.blocks.get(&(sst.id, bi)) {
            Some((s, d)) => ((*s).max(t), d.clone()),
            None => {
                let (s, d) = staged_block_read(platform, exec, sst, bi, t)?;
                report.blocks += 1;
                report.bytes_scanned += d.len() as u64;
                shared.blocks.insert((sst.id, bi), (s, d.clone()));
                (s, d)
            }
        };

        let (found, done) = search_staged_block(
            platform,
            lsm,
            exec,
            plan,
            key,
            &data,
            staged,
            batch_configured,
            report,
        )?;
        t = done;
        if let Some(rec) = found {
            return Ok((Some(rec), t));
        }
    }
    Ok((None, t))
}

/// Execute a lowered batched-GET plan: one key-list descriptor DMA, one
/// PE configuration, N streamed point lookups.
///
/// Per-key outcomes are independently attributed — a fault on one key's
/// walk lands as that slot's typed error while the rest of the batch
/// completes — and per-key completion times are monotone in key order
/// (results stream back in list order, so a key's completion never
/// precedes its predecessor's). The per-key chains expand from a common
/// start and overlap on the shared timelines, exactly like the parallel
/// scan's worker streams.
pub(crate) fn run_batched_get(
    platform: &mut CosmosPlatform,
    lsm: &LsmTree,
    exec: &mut TableExec,
    plan: &PhysicalPlan,
    now: SimNs,
) -> NkvResult<(crate::db::MultiGetResults, Vec<SimNs>, SimReport)> {
    let PhysOp::BatchedGet { keys } = &plan.op else {
        unreachable!("run_batched_get requires a BatchedGet plan");
    };
    let mut report = SimReport::default();
    let t0 = now + platform.firmware.op_overhead_ns();

    // Host DMAs the key-list descriptor; the ARM validates its header.
    let desc = cosmos_sim::KeyListDescriptor::new(keys)
        .map_err(|e| NkvError::Config(format!("batched GET: {e}")))?;
    let (nv_start, dma_done) = platform.nvme.transfer(t0, desc.dma_bytes() as u64);
    platform.trace_nvme(nv_start, dma_done - nv_start, desc.dma_bytes() as u64);
    let (_, t_start) = platform.arm.schedule(dma_done, timing::ARM_BATCH_HEADER_PARSE_NS);

    let mut shared = BatchShared::default();
    let mut batch_configured = false;
    let mut results = Vec::with_capacity(keys.len());
    let mut dones = Vec::with_capacity(keys.len());
    let mut last_done = t_start;
    for &key in keys {
        match batched_key_walk(
            platform,
            lsm,
            exec,
            plan,
            key,
            t_start,
            &mut shared,
            &mut batch_configured,
            &mut report,
        ) {
            Ok((rec, t_key)) => {
                // Results stream back in key order: this key's record
                // rides the NVMe link no earlier than its predecessor's
                // completion.
                let mut host = t_key.max(last_done);
                if let Some(r) = &rec {
                    let (nv_s, h) = platform.nvme.transfer(host, r.len() as u64);
                    platform.trace_nvme(nv_s, h - nv_s, r.len() as u64);
                    report.result_bytes += r.len() as u64;
                    host = h;
                }
                last_done = host;
                results.push(Ok(rec));
                dones.push(host);
            }
            Err(e) => {
                // Typed error attributed to this key's slot; the rest
                // of the batch continues, and the error completion
                // still posts in order.
                results.push(Err(e));
                dones.push(last_done);
            }
        }
    }

    report.sim_ns = last_done.saturating_sub(now);
    Ok((results, dones, report))
}
