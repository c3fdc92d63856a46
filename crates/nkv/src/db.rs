//! The nKV database facade.
//!
//! Ties the platform, the per-table LSM trees and the NDP execution
//! engine together behind the operations the paper evaluates: PUT,
//! DELETE, GET, SCAN (value predicates) and RANGE_SCAN (the 2-stage
//! showcase of the multi-stage filtering extension). Every operation
//! advances the device's simulated clock and returns a [`SimReport`].

use crate::cost::{AdaptState, CostInputs, CostReport};
use crate::engine::{self, ParallelScanStats};
use crate::error::{NkvError, NkvResult};
use crate::exec::{HealthCounters, ResilienceConfig, SimReport, TableExec};
use crate::lsm::{LsmConfig, LsmTree};
use crate::metrics::{fmt_ns, DeviceStats, MetricsRegistry, OpKind};
use crate::placement::PageAllocator;
use crate::plan::{Backend, LogicalOp, PhysOp, PhysicalPlan, PlanOutcome};
use crate::sst::SstBuilder;
use cosmos_sim::faults::{DramFaultStats, FlashFaultStats};
use cosmos_sim::{CosmosConfig, CosmosPlatform, Server, SimNs, TraceEvent};
use ndp_ir::PeConfig;
use ndp_pe::oracle::{BlockProcessor, FilterRule, OpTable};
use ndp_pe::template::PeVariant;
use ndp_pe::{BaselinePe, PeDevice, PeSim};
use ndp_swgen::{DriverProfile, PeDriver};
use std::collections::HashMap;
use std::fmt;

/// Per-key outcomes of a batched GET, in key order: slot *i* answers
/// `keys[i]`, independently attributed (see [`NkvDb::multi_get`] and
/// DESIGN.md §15).
pub type MultiGetResults = Vec<NkvResult<Option<Vec<u8>>>>;

/// Per-table configuration.
#[derive(Clone)]
pub struct TableConfig {
    /// Elaborated PE configuration (defines the record format too).
    pub pe: PeConfig,
    /// Number of PEs attached to this table (the paper uses 1 paper-PE
    /// and 7 ref-PEs).
    pub n_pes: usize,
    /// Generated PEs (this work) or hand-crafted baseline PEs \[1\].
    pub variant: PeVariant,
    /// Drive the tick-level PE model (slow, exact) instead of the
    /// validated fast path.
    pub cycle_accurate: bool,
    /// Whether keys are unique (one record per key). Multi-record
    /// tables (e.g. edge lists keyed by source) set this to false:
    /// bulk loads may then contain duplicate keys, GET returns the
    /// first match, and SCAN skips version reconciliation.
    pub unique_keys: bool,
    /// LSM tuning.
    pub lsm: LsmConfig,
    /// Device-side fault policy (retry budget, PE watchdog, HW→SW
    /// degradation switch).
    pub resilience: ResilienceConfig,
    /// Parallel PE job streams a hardware scan fans out to: the scan's
    /// blocks are partitioned by flash-channel group, one strictly
    /// serial stream per worker, merged deterministically. `0` (the
    /// default) keeps the legacy serial dispatch. Must not exceed
    /// `n_pes`.
    pub parallel_pes: usize,
}

impl TableConfig {
    /// Sensible defaults: one generated PE, fast fidelity.
    pub fn new(pe: PeConfig) -> Self {
        Self {
            pe,
            n_pes: 1,
            variant: PeVariant::Generated,
            cycle_accurate: false,
            unique_keys: true,
            lsm: LsmConfig::default(),
            resilience: ResilienceConfig::default(),
            parallel_pes: 0,
        }
    }
}

pub(crate) struct Table {
    pub(crate) lsm: LsmTree,
    pub(crate) exec: TableExec,
    pub(crate) unique_keys: bool,
    /// Adaptive-planner feedback: per-op-class sighting counters and
    /// observed-latency EWMAs (see [`crate::cost`]).
    pub(crate) adapt: AdaptState,
}

/// Summary of a SCAN (results plus the simulation report).
#[derive(Debug, Clone)]
pub struct ScanSummary {
    /// Matched records, reconciled to newest versions, in component
    /// recency order.
    pub records: Vec<u8>,
    /// Number of matched records.
    pub count: u64,
    pub report: SimReport,
}

/// Device-wide health summary: injected-fault counters from the
/// platform plus the resilience layer's reaction counters, aggregated
/// over every table (see [`HealthCounters`] for the per-table view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use = "a health snapshot is only useful when inspected"]
pub struct HealthReport {
    /// Flash-level fault counters (transient/correctable/grown-bad/torn).
    pub flash: FlashFaultStats,
    /// DRAM-port stall counters.
    pub dram: DramFaultStats,
    /// PE hangs injected by the platform's fault plan.
    pub pe_hangs_injected: u64,
    /// Reads retried after transient failures.
    pub read_retries: u64,
    /// Simulated time spent in retry backoff.
    pub retry_backoff_ns: SimNs,
    /// Reads abandoned after the retry budget.
    pub reads_failed: u64,
    /// Watchdog timeouts on PE DONE polls.
    pub watchdog_trips: u64,
    /// Blocks degraded to the ARM software oracle.
    pub sw_fallback_blocks: u64,
    /// PEs currently retired by the watchdog.
    pub pes_failed: u64,
    /// Degrading pages relocated by [`NkvDb::read_repair`].
    pub pages_repaired: u64,
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "health: injected {} transient flash, {} ecc-corrected, {} grown-bad, \
             {} torn, {} dram stalls (+{}), {} pe hangs",
            self.flash.transient_failures,
            self.flash.correctable_hits,
            self.flash.grown_bad_pages,
            self.flash.torn_writes,
            self.dram.stalls,
            fmt_ns(self.dram.stall_ns_total),
            self.pe_hangs_injected,
        )?;
        write!(
            f,
            "        reacted {} retries (+{} backoff), {} reads failed, \
             {} watchdog trips, {} sw-fallback blocks, {} PEs retired, {} pages repaired",
            self.read_retries,
            fmt_ns(self.retry_backoff_ns),
            self.reads_failed,
            self.watchdog_trips,
            self.sw_fallback_blocks,
            self.pes_failed,
            self.pages_repaired,
        )
    }
}

/// The device-level database.
pub struct NkvDb {
    pub(crate) platform: CosmosPlatform,
    pub(crate) alloc: PageAllocator,
    pub(crate) tables: HashMap<String, Table>,
    pub(crate) clock: SimNs,
    /// Epoch of the newest persisted manifest (0 = never persisted).
    manifest_epoch: u64,
    /// Pages relocated by read-repair since creation/recovery.
    pages_repaired: u64,
    /// Tables created so far: the next table's SST-id namespace (see
    /// [`LsmTree::set_id_namespace`]).
    tables_created: u64,
    /// Op-level metrics; `None` (the default) costs one branch per
    /// operation and changes nothing else.
    metrics: Option<MetricsRegistry>,
    /// Spans drained from the platform after each observed operation,
    /// kept for [`NkvDb::take_trace`] (empty while tracing is off).
    trace_log: Vec<TraceEvent>,
}

/// A record's embedded key: its first 8 bytes, little endian (`None`
/// when the record is too short to carry one). The one key decoder of
/// the write, bulk-load, queued-PUT and cluster-routing paths.
pub(crate) fn record_key(record: &[u8]) -> Option<u64> {
    record.get(..8)?.try_into().ok().map(u64::from_le_bytes)
}

impl Table {
    /// Validate `record` against the table's fixed record size and
    /// decode its key, as a typed error instead of a panic: the write
    /// paths are reachable from the cluster router's shard calls, where
    /// a panic would take down the whole fleet simulation.
    pub(crate) fn checked_key(&self, table: &str, record: &[u8]) -> NkvResult<u64> {
        let expected = self.lsm.record_bytes();
        let mismatch = |expected| NkvError::RecordSizeMismatch {
            table: table.to_string(),
            expected,
            got: record.len(),
        };
        if record.len() != expected {
            return Err(mismatch(expected));
        }
        record_key(record).ok_or_else(|| mismatch(8))
    }
}

/// The error of a typed read whose plan produced another outcome shape
/// (unreachable while `PhysicalPlan::lower` maps each op to its shape).
pub(crate) fn off_plan(table: &str, op: &str) -> NkvError {
    NkvError::Config(format!("{op} on `{table}` lowered to a plan of another shape"))
}

/// A filter scan's outcome as a [`ScanSummary`].
fn scan_summary(table: &str, outcome: PlanOutcome) -> NkvResult<ScanSummary> {
    match outcome {
        PlanOutcome::Records { records, count, report } => {
            Ok(ScanSummary { records, count, report })
        }
        _ => Err(off_plan(table, "SCAN")),
    }
}

impl NkvDb {
    /// Create a database on a platform built from `cfg`.
    pub fn new(cfg: CosmosConfig) -> Self {
        let platform = CosmosPlatform::new(cfg);
        let alloc = PageAllocator::new(platform.flash.config());
        Self {
            platform,
            alloc,
            tables: HashMap::new(),
            clock: 0,
            manifest_epoch: 0,
            pages_repaired: 0,
            tables_created: 0,
            metrics: None,
            trace_log: Vec::new(),
        }
    }

    /// Create a database with default platform configuration.
    pub fn default_db() -> Self {
        Self::new(CosmosConfig::default())
    }

    /// Current simulated device time.
    pub fn clock(&self) -> SimNs {
        self.clock
    }

    /// Access the underlying platform (diagnostics, fault injection).
    pub fn platform_mut(&mut self) -> &mut CosmosPlatform {
        &mut self.platform
    }

    /// Turn on op-level metrics (latency histograms + throughput
    /// counters). Breakdowns stay zero unless tracing is also enabled.
    pub fn enable_metrics(&mut self) {
        self.metrics.get_or_insert_with(MetricsRegistry::new);
    }

    /// Turn on the full observability stack: op metrics plus device-wide
    /// event tracing (each ring holds up to `trace_capacity` spans).
    pub fn enable_observability(&mut self, trace_capacity: usize) {
        self.enable_metrics();
        self.platform.enable_tracing(trace_capacity);
    }

    /// Whether op-level metrics are being collected.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Turn on the device-DRAM block cache with a budget of
    /// `budget_bytes`. Repeated SST block and index-page reads are then
    /// served by a DRAM-port burst instead of flash; writes invalidate
    /// through flush/compaction retirement and read-repair relocation,
    /// so results are byte-identical to the uncached device.
    pub fn enable_cache(&mut self, budget_bytes: usize) {
        self.platform.enable_cache(budget_bytes);
    }

    /// Drop the block cache (contents and statistics).
    pub fn disable_cache(&mut self) {
        self.platform.disable_cache();
    }

    /// Whether the block cache is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.platform.cache_enabled()
    }

    /// Block-cache counters (`None` while the cache is disabled).
    pub fn cache_stats(&self) -> Option<cosmos_sim::CacheStats> {
        self.platform.cache_stats()
    }

    /// Device-wide observability snapshot: per-op metrics (empty while
    /// metrics are disabled) plus the [`HealthReport`].
    #[must_use = "a device-stats snapshot is only useful when inspected"]
    pub fn device_stats(&self) -> DeviceStats {
        DeviceStats {
            metrics: self.metrics.clone().unwrap_or_default(),
            health: self.health_report(),
            cache: self.platform.cache_stats(),
            dropped_spans: self.platform.trace_dropped(),
        }
    }

    /// Take every trace span buffered so far (per-op drained spans plus
    /// anything still in the platform rings), sorted by start time.
    /// Empty while tracing is disabled.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        let mut evs = std::mem::take(&mut self.trace_log);
        evs.extend(self.platform.drain_trace());
        evs.sort_by_key(|e| (e.start, e.dur));
        evs
    }

    /// Fold one finished operation into the metrics registry and move
    /// its trace spans into the session log. One branch when both
    /// metrics and tracing are off.
    pub(crate) fn observe(&mut self, kind: OpKind, latency_ns: SimNs, bytes: u64) {
        if self.metrics.is_none() && !self.platform.tracing_enabled() {
            return;
        }
        let spans = self.platform.drain_trace();
        if let Some(m) = &mut self.metrics {
            m.record(kind, latency_ns, bytes);
            m.attribute(kind, &spans);
        }
        self.trace_log.extend(spans);
    }

    /// Device-wide health summary: injected faults plus the resilience
    /// layer's reactions, aggregated over all tables.
    #[must_use = "a health snapshot is only useful when inspected"]
    pub fn health_report(&self) -> HealthReport {
        let mut r = HealthReport {
            flash: self.platform.flash.fault_stats(),
            dram: self.platform.dram.fault_stats(),
            pe_hangs_injected: self.platform.pe_hangs(),
            pages_repaired: self.pages_repaired,
            ..HealthReport::default()
        };
        for t in self.tables.values() {
            let h = t.exec.health;
            r.read_retries += h.read_retries;
            r.retry_backoff_ns += h.retry_backoff_ns;
            r.reads_failed += h.reads_failed;
            r.watchdog_trips += h.watchdog_trips;
            r.sw_fallback_blocks += h.sw_fallback_blocks;
            r.pes_failed += t.exec.failed_pes() as u64;
        }
        r
    }

    /// Per-table resilience counters.
    pub fn table_health(&self, table: &str) -> NkvResult<HealthCounters> {
        let t = self.tables.get(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        Ok(t.exec.health)
    }

    /// Bring a table's watchdog-retired PEs back into rotation (models a
    /// PL reconfiguration of the hung accelerators).
    pub fn reset_pes(&mut self, table: &str) -> NkvResult<()> {
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        t.exec.reset_failed_pes();
        Ok(())
    }

    /// Read-repair: relocate every page whose ECC-correction count
    /// reached `threshold` before it degrades into a grown bad page.
    /// Each page's (still correctable) content is copied to a freshly
    /// allocated page, all SST metadata references are rewired, affected
    /// index blocks are rewritten, and the manifest is re-persisted so
    /// the relocation survives a power cycle. Returns the number of
    /// pages relocated.
    pub fn read_repair(&mut self, threshold: u32) -> NkvResult<u64> {
        let degrading = self.platform.flash.degrading_pages(threshold);
        if degrading.is_empty() {
            return Ok(0);
        }
        let t0 = self.clock;
        let mut moved = 0u64;
        let mut repaired_bytes = 0u64;
        let mut stale_indexes: Vec<(String, u64)> = Vec::new();
        for addr in degrading {
            let referenced = self.tables.values().any(|t| t.lsm.references_page(addr));
            if !referenced {
                // Not table data (e.g. a manifest page rewritten in place
                // on every persist): refreshing the cells is enough.
                self.platform.flash.mark_repaired(addr);
                continue;
            }
            // The page is degrading but still correctable: copy it out.
            let (t_read, data) = match self.platform.flash.read_page(addr, self.clock) {
                Ok((t, d)) => (t, d.to_vec()),
                Err(_) => continue, // already unreadable; repair cannot help
            };
            let new = self.alloc.alloc_block(0, 1).ok_or(NkvError::OutOfSpace)?[0];
            let t_prog = self.platform.flash.program_page(new, &data, t_read)?;
            self.clock = self.clock.max(t_prog);
            for (name, table) in self.tables.iter_mut() {
                for id in table.lsm.relocate_page(addr, new) {
                    stale_indexes.push((name.clone(), id));
                }
            }
            self.platform.flash.mark_repaired(addr);
            self.pages_repaired += 1;
            repaired_bytes += data.len() as u64;
            moved += 1;
        }
        // Data pages moved: the on-flash index blocks listing them are
        // stale. Rewrite them and re-point the manifest.
        if !stale_indexes.is_empty() {
            stale_indexes.sort();
            stale_indexes.dedup();
            for (name, id) in stale_indexes {
                let now = self.clock;
                let t = self
                    .tables
                    .get_mut(&name)
                    .ok_or_else(|| NkvError::UnknownTable(name.clone()))?;
                let done =
                    t.lsm.rewrite_index(&mut self.platform.flash, &mut self.alloc, id, now)?;
                self.clock = self.clock.max(done);
                // Conservative: the relocated SST's cached blocks are
                // dropped even though the copied payload is identical.
                self.platform.cache_evict_sst(id);
            }
            self.persist()?;
        }
        self.observe(OpKind::ReadRepair, self.clock.saturating_sub(t0), repaired_bytes);
        Ok(moved)
    }

    /// Create a table driven by the given PE configuration.
    pub fn create_table(&mut self, name: &str, cfg: TableConfig) -> NkvResult<()> {
        if cfg.parallel_pes > cfg.n_pes.max(1) {
            return Err(NkvError::Config(format!(
                "table `{name}`: parallel_pes = {} exceeds the table's {} PE(s)",
                cfg.parallel_pes,
                cfg.n_pes.max(1)
            )));
        }
        let record_bytes = cfg.pe.input.tuple_bytes() as usize;
        // The key is the first 8 bytes of every record; a narrower tuple
        // would make every key extraction slice out of bounds. Validate
        // once here so the PUT/bulk-load/queue paths can never panic.
        if record_bytes < 8 {
            return Err(NkvError::Config(format!(
                "table `{name}`: records are {record_bytes} bytes but the key \
                 occupies the first 8 — widen the PE input tuple"
            )));
        }
        let processor = BlockProcessor::new(&cfg.pe);
        let ops = OpTable::from_config(&cfg.pe);
        let profile = match cfg.variant {
            PeVariant::Generated => DriverProfile::Generated,
            PeVariant::HandCrafted => DriverProfile::Baseline,
        };
        let mut drivers: Vec<PeDriver<Box<dyn PeDevice>>> = Vec::with_capacity(cfg.n_pes);
        for _ in 0..cfg.n_pes.max(1) {
            let dev: Box<dyn PeDevice> = match cfg.variant {
                PeVariant::Generated => Box::new(PeSim::new(cfg.pe.clone())),
                PeVariant::HandCrafted => Box::new(BaselinePe::new(cfg.pe.clone())?),
            };
            drivers.push(PeDriver::new(dev, profile));
        }
        let n = drivers.len();
        let full_block_payload = (cfg.pe.chunk_bytes / record_bytes as u32) * record_bytes as u32;
        let mut table = Table {
            unique_keys: cfg.unique_keys,
            adapt: AdaptState::default(),
            lsm: LsmTree::new(
                name,
                record_bytes,
                cfg.lsm.clone(),
                0x6e4b ^ u64::from(cfg.pe.chunk_bytes),
            ),
            exec: TableExec {
                processor,
                ops,
                drivers,
                pe_servers: vec![Server::new(); n],
                profile,
                stages: match cfg.variant {
                    PeVariant::Generated => cfg.pe.stages,
                    PeVariant::HandCrafted => 1,
                },
                cycle_accurate: cfg.cycle_accurate,
                full_block_payload,
                chunk_bytes: cfg.pe.chunk_bytes,
                reconcile: cfg.unique_keys,
                aggregates: cfg.pe.aggregates.clone(),
                resilience: cfg.resilience,
                health: HealthCounters::default(),
                pe_failed: vec![false; n],
                parallel_pes: cfg.parallel_pes,
                last_parallel_scan: None,
            },
        };
        table.lsm.set_id_namespace(self.tables_created);
        self.tables_created += 1;
        self.tables.insert(name.to_string(), table);
        Ok(())
    }

    /// Insert or update a record (key = first 8 bytes, little endian).
    /// Flushes and compacts as thresholds are crossed.
    pub fn put(&mut self, table: &str, record: Vec<u8>) -> NkvResult<()> {
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        let key = t.checked_key(table, &record)?;
        let bytes = record.len() as u64;
        let t0 = self.clock;
        t.lsm.put(key, record);
        self.maintain(table)?;
        // The memtable insert itself is free in simulated time; a PUT's
        // latency is whatever flush/compaction it triggered.
        self.observe(OpKind::Put, self.clock - t0, bytes);
        Ok(())
    }

    /// Delete a key (tombstone).
    pub fn delete(&mut self, table: &str, key: u64) -> NkvResult<()> {
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        t.lsm.delete(key);
        self.maintain(table)
    }

    /// Run flush/compaction if thresholds are exceeded.
    fn maintain(&mut self, table: &str) -> NkvResult<()> {
        let done = self.maintain_at(table, self.clock)?;
        self.clock = self.clock.max(done);
        Ok(())
    }

    /// Flush/compact a table as of simulated time `now`, returning when
    /// the maintenance finishes (`now` if nothing was due). The queued
    /// scheduler calls this at each command's fetch time; the serial
    /// path wraps it with the device clock.
    pub(crate) fn maintain_at(&mut self, table: &str, now: SimNs) -> NkvResult<SimNs> {
        let mut end = now;
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        if t.lsm.should_flush() {
            let done = t.lsm.flush(&mut self.platform.flash, &mut self.alloc, now)?;
            end = end.max(done);
            self.observe(OpKind::Flush, done.saturating_sub(now), 0);
        }
        let mut level = 0;
        loop {
            let t =
                self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
            if !t.lsm.should_compact(level) {
                break;
            }
            let done = t.lsm.compact(&mut self.platform.flash, &mut self.alloc, level, now)?;
            end = end.max(done);
            self.observe(OpKind::Compaction, done.saturating_sub(now), 0);
            level += 1;
        }
        // Compaction retired its input SSTs: evict their blocks (data
        // and index) from the device cache before any read can see the
        // stale copies. Flushes create fresh ids, so they need nothing.
        let retired = self
            .tables
            .get_mut(table)
            .ok_or_else(|| NkvError::UnknownTable(table.into()))?
            .lsm
            .take_retired();
        for id in retired {
            self.platform.cache_evict_sst(id);
        }
        Ok(end)
    }

    /// Force-flush a table's memtable.
    pub fn flush(&mut self, table: &str) -> NkvResult<()> {
        let now = self.clock;
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        let done = t.lsm.flush(&mut self.platform.flash, &mut self.alloc, now)?;
        self.clock = self.clock.max(done);
        self.observe(OpKind::Flush, done.saturating_sub(now), 0);
        Ok(())
    }

    /// Bulk-load sorted records directly into a fresh `C2` SST run
    /// (the standard way to ingest a benchmark dataset; bypasses the
    /// memtable, requires strictly ascending keys).
    pub fn bulk_load<I>(&mut self, table: &str, records: I) -> NkvResult<u64>
    where
        I: IntoIterator<Item = Vec<u8>>,
    {
        let now = self.clock;
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        let record_bytes = t.lsm.record_bytes();
        let block_bytes = t.lsm.block_bytes();
        let max_per_sst = (block_bytes / record_bytes).max(1) * 2048;
        let mut loaded = 0u64;
        let mut done = now;
        let mut builder: Option<SstBuilder> = None;
        let mut in_current = 0usize;
        for record in records {
            let key = t.checked_key(table, &record)?;
            let allow_dups = !t.unique_keys;
            let b = builder.get_or_insert_with(|| {
                let id = t.lsm.alloc_bulk_sst_id();
                let b = SstBuilder::new(id, 2, record_bytes, block_bytes, table);
                if allow_dups {
                    b.allow_duplicate_keys()
                } else {
                    b
                }
            });
            b.add_record(key, &record)?;
            loaded += 1;
            in_current += 1;
            if in_current >= max_per_sst {
                let (meta, t_done) = builder
                    .take()
                    .ok_or_else(|| {
                        NkvError::Config(format!(
                            "bulk load into `{table}` lost its SST builder mid-stream"
                        ))
                    })?
                    .finish(&mut self.platform.flash, &mut self.alloc, now)?;
                done = done.max(t_done);
                t.lsm.install_bulk_sst(meta);
                in_current = 0;
            }
        }
        if let Some(b) = builder {
            let (meta, t_done) = b.finish(&mut self.platform.flash, &mut self.alloc, now)?;
            done = done.max(t_done);
            t.lsm.install_bulk_sst(meta);
        }
        self.clock = self.clock.max(done);
        Ok(loaded)
    }

    /// Point lookup.
    pub fn get(
        &mut self,
        table: &str,
        key: u64,
        mode: Backend,
    ) -> NkvResult<(Option<Vec<u8>>, SimReport)> {
        match self.execute(table, &LogicalOp::Get { key }, mode)? {
            PlanOutcome::Point { record, report } => Ok((record, report)),
            _ => Err(off_plan(table, "GET")),
        }
    }

    /// Batched point lookup: N keys served through one key-list DMA
    /// descriptor and one PE configuration (see `cosmos_sim::batch` and
    /// DESIGN.md §15). Returns per-key outcomes in key order — each
    /// slot independently attributed, so a fault on one key's walk is
    /// that slot's typed error while the rest of the batch completes —
    /// plus the whole batch's [`SimReport`]. A batch of one lowers to
    /// the plain point lookup, bit for bit.
    pub fn multi_get(
        &mut self,
        table: &str,
        keys: &[u64],
        mode: Backend,
    ) -> NkvResult<(MultiGetResults, SimReport)> {
        match self.execute(table, &LogicalOp::MultiGet { keys: keys.to_vec() }, mode)? {
            PlanOutcome::Batch { results, report } => Ok((results, report)),
            PlanOutcome::Point { record, report } => Ok((vec![Ok(record)], report)),
            _ => Err(off_plan(table, "batched GET")),
        }
    }

    /// Full SCAN with a chain of value predicates.
    pub fn scan(
        &mut self,
        table: &str,
        rules: &[FilterRule],
        mode: Backend,
    ) -> NkvResult<ScanSummary> {
        let outcome = self.execute(table, &LogicalOp::Scan { rules: rules.to_vec() }, mode)?;
        scan_summary(table, outcome)
    }

    /// Aggregate SCAN pushdown: compute `agg` over `lane` of every record
    /// matching `rules`; only the 64-bit result leaves the device.
    /// Returns `(value, any_rows, report)`. In hardware mode the table's
    /// PEs must have been generated with `aggregate = {...}`.
    pub fn scan_aggregate(
        &mut self,
        table: &str,
        rules: &[FilterRule],
        agg: ndp_ir::AggOp,
        lane: u32,
        mode: Backend,
    ) -> NkvResult<(u64, bool, SimReport)> {
        let op = LogicalOp::ScanAggregate { rules: rules.to_vec(), agg, lane };
        match self.execute(table, &op, mode)? {
            PlanOutcome::Aggregate { value, any, report } => Ok((value, any, report)),
            _ => Err(off_plan(table, "aggregate SCAN")),
        }
    }

    /// Lower a logical operation against a table into its physical plan
    /// (without executing it).
    pub fn plan(&self, table: &str, op: &LogicalOp, backend: Backend) -> NkvResult<PhysicalPlan> {
        let t = self.tables.get(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        PhysicalPlan::lower(op, backend, &t.exec.caps(), table)
    }

    /// `EXPLAIN`: render the physical plan a logical operation lowers to,
    /// using the table's operator symbols.
    pub fn explain(&self, table: &str, op: &LogicalOp, backend: Backend) -> NkvResult<String> {
        let t = self.tables.get(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        let plan = PhysicalPlan::lower(op, backend, &t.exec.caps(), table)?;
        let mut text = plan.explain(table, &t.exec.ops);
        // The cache line appears only when the cache is on, keeping the
        // default rendering byte-identical to the pre-cache device.
        if let Some(c) = self.platform.cache() {
            text.push_str(&format!(
                "  cache=device-DRAM segmented-LRU, budget {} KiB\n",
                c.budget_bytes() / 1024
            ));
        }
        Ok(text)
    }

    /// Plan and execute a logical operation on the chosen backend,
    /// advancing the device clock and recording the op's metrics. Every
    /// typed read ([`get`](Self::get), [`multi_get`](Self::multi_get),
    /// [`scan`](Self::scan), [`range_scan`](Self::range_scan),
    /// [`scan_aggregate`](Self::scan_aggregate)) is a thin adapter over
    /// this call, and it is the only entry point for the
    /// [`Backend::Hybrid`] pushdown split.
    pub fn execute(
        &mut self,
        table: &str,
        op: &LogicalOp,
        backend: Backend,
    ) -> NkvResult<PlanOutcome> {
        let (outcome, _) = self.execute_at(table, op, backend, self.clock)?;
        let report = *outcome.report();
        let (kind, bytes) = match &outcome {
            PlanOutcome::Point { record, .. } => {
                (OpKind::Get, record.as_ref().map_or(0, |r| r.len() as u64))
            }
            PlanOutcome::Batch { .. } => (OpKind::Get, report.result_bytes),
            PlanOutcome::Records { .. } | PlanOutcome::Aggregate { .. } => {
                (OpKind::Scan, report.result_bytes)
            }
        };
        self.clock += report.sim_ns;
        self.observe(kind, report.sim_ns, bytes);
        Ok(outcome)
    }

    /// The one execution path: look `table` up, lower `op` for `backend`
    /// and run the plan on the engine as of simulated time `now`. No
    /// clock or metrics side effects — [`execute`](Self::execute) and
    /// the queue engine add those. A batched GET also returns each key's
    /// absolute completion time, monotone in key order (the queue engine
    /// turns those into per-command CQEs); other outcomes return none.
    pub(crate) fn execute_at(
        &mut self,
        table: &str,
        op: &LogicalOp,
        backend: Backend,
        now: SimNs,
    ) -> NkvResult<(PlanOutcome, Vec<SimNs>)> {
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        let plan = PhysicalPlan::lower(op, backend, &t.exec.caps(), table)?;
        let (platform, lsm, exec) = (&mut self.platform, &t.lsm, &mut t.exec);
        Ok(match plan.op {
            PhysOp::PointLookup { .. } => {
                let (record, report) = engine::run_get(platform, lsm, exec, &plan, now)?;
                (PlanOutcome::Point { record, report }, Vec::new())
            }
            PhysOp::BatchedGet { .. } => {
                let (results, dones, report) =
                    engine::run_batched_get(platform, lsm, exec, &plan, now)?;
                (PlanOutcome::Batch { results, report }, dones)
            }
            PhysOp::FilterScan => {
                let (records, report) = engine::run_scan(platform, lsm, exec, &plan, now)?;
                let count = records.len() as u64 / exec.processor.out_tuple_bytes().max(1) as u64;
                (PlanOutcome::Records { records, count, report }, Vec::new())
            }
            PhysOp::AggregateScan { .. } => {
                let (value, any, report) =
                    engine::run_scan_aggregate(platform, lsm, exec, &plan, now)?;
                (PlanOutcome::Aggregate { value, any, report }, Vec::new())
            }
        })
    }

    /// Capture the table-shape inputs the adaptive cost model prices
    /// against: flash-resident blocks/bytes, memtable occupancy and the
    /// current DRAM-cache hit rate (0.0 while the cache is off).
    fn cost_inputs(&self, table: &str, op: &LogicalOp) -> NkvResult<CostInputs> {
        let t = self.tables.get(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        let mut blocks = 0u64;
        let mut bytes = 0u64;
        for sst in t.lsm.all_ssts() {
            blocks += sst.blocks.len() as u64;
            bytes += sst.blocks.iter().map(|b| u64::from(b.bytes)).sum::<u64>();
        }
        let batch_keys = match op {
            LogicalOp::MultiGet { keys } => keys.len() as u64,
            _ => 1,
        };
        Ok(CostInputs {
            flash_blocks: blocks,
            flash_bytes: bytes,
            memtable_records: t.lsm.memtable().len() as u64,
            record_bytes: t.lsm.record_bytes() as u64,
            cache_hit_rate: self.platform.cache_stats().map_or(0.0, |s| s.hit_rate()),
            batch_keys,
            profile: t.exec.profile,
            stages: t.exec.stages,
        })
    }

    /// Cost-based tier selection: price `op` on every tier that lowers
    /// (Software → Hardware → Hybrid, strict-min cost, ties to the
    /// earlier candidate) using the table's shape, the DRAM-cache hit
    /// rate and the table's adaptive feedback state. Pure — executing
    /// nothing, recording nothing — so `EXPLAIN` and tests can consult
    /// it freely. Results are tier-invariant by construction, so the
    /// choice only ever changes simulated time, never bytes.
    pub fn choose_backend(&self, table: &str, op: &LogicalOp) -> NkvResult<(Backend, CostReport)> {
        let t = self.tables.get(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        let caps = t.exec.caps();
        let inputs = self.cost_inputs(table, op)?;
        let report = crate::cost::choose(&t.adapt, op, inputs, |b| {
            PhysicalPlan::lower(op, b, &caps, table).is_ok()
        });
        if report.tiers.iter().all(|tc| tc.cost_ns.is_none()) {
            // Nothing lowers: surface the software tier's lowering error
            // (tier-independent validation, e.g. an unknown lane).
            PhysicalPlan::lower(op, Backend::Software, &caps, table)?;
        }
        Ok((report.chosen, report))
    }

    /// Plan and execute `op` on whichever tier
    /// [`choose_backend`](Self::choose_backend) picks, then feed the
    /// observed latency back into the table's adaptive state so repeated
    /// shapes are re-costed (SW→HW promotion for hot flash-heavy scans).
    pub fn execute_adaptive(
        &mut self,
        table: &str,
        op: &LogicalOp,
    ) -> NkvResult<(PlanOutcome, CostReport)> {
        let (backend, report) = self.choose_backend(table, op)?;
        let outcome = self.execute(table, op, backend)?;
        let observed = outcome.report().sim_ns;
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        t.adapt.record(report.class, backend, observed);
        Ok((outcome, report))
    }

    /// Adaptive SCAN: [`scan`](Self::scan) with the tier chosen by the
    /// cost model. Returns the summary plus the decision record.
    pub fn scan_adaptive(
        &mut self,
        table: &str,
        rules: &[FilterRule],
    ) -> NkvResult<(ScanSummary, CostReport)> {
        let op = LogicalOp::Scan { rules: rules.to_vec() };
        let (outcome, cost) = self.execute_adaptive(table, &op)?;
        Ok((scan_summary(table, outcome)?, cost))
    }

    /// `EXPLAIN` for the adaptive planner: the chosen tier's plan plus
    /// the per-tier cost estimates and the promotion state that drove
    /// the decision.
    pub fn explain_adaptive(&self, table: &str, op: &LogicalOp) -> NkvResult<String> {
        let (backend, report) = self.choose_backend(table, op)?;
        let mut text = self.explain(table, op, backend)?;
        text.push_str(&report.render());
        Ok(text)
    }

    /// Change how many parallel PE job streams a table's hardware scans
    /// fan out to (0 = legacy serial dispatch). Bounded by the table's
    /// PE count, like [`TableConfig::parallel_pes`] at creation.
    pub fn set_parallel_pes(&mut self, table: &str, n: usize) -> NkvResult<()> {
        let t = self.tables.get_mut(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        let pes = t.exec.pe_servers.len().max(1);
        if n > pes {
            return Err(NkvError::Config(format!(
                "table `{table}`: parallel_pes = {n} exceeds the table's {pes} PE(s)"
            )));
        }
        t.exec.parallel_pes = n;
        Ok(())
    }

    /// Statistics of the table's most recent parallel scan phase
    /// (`None` if the last scan ran the serial dispatch).
    pub fn parallel_scan_stats(&self, table: &str) -> NkvResult<Option<ParallelScanStats>> {
        let t = self.tables.get(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        Ok(t.exec.last_parallel_scan.clone())
    }

    /// RANGE_SCAN on the key: `lo <= key < hi`, expressed as a 2-stage
    /// predicate chain (the paper: "especially the 2-staged ones are
    /// interesting, since they could be used to implement RANGE_SCANs").
    pub fn range_scan(
        &mut self,
        table: &str,
        lo: u64,
        hi: u64,
        mode: Backend,
    ) -> NkvResult<ScanSummary> {
        let outcome = self.execute(table, &LogicalOp::RangeScan { lo, hi }, mode)?;
        scan_summary(table, outcome)
    }

    /// Persist the device manifest so [`NkvDb::recover`] can rebuild the
    /// store after a power cycle. Unflushed memtable contents are
    /// volatile by design — flush first if they must survive.
    ///
    /// Persistence is power-cut-atomic: manifests carry a monotonically
    /// increasing epoch and alternate between two flash slots, and the
    /// previous epoch's slot is untouched while the new one is written —
    /// a cut mid-persist leaves the old manifest valid (recovery picks
    /// the newest slot whose CRC verifies).
    pub fn persist(&mut self) -> NkvResult<()> {
        let manifest = crate::recovery::Manifest {
            epoch: self.manifest_epoch + 1,
            tables: self
                .tables
                .iter()
                .map(|(name, t)| {
                    crate::recovery::manifest_entry(
                        name,
                        t.lsm.record_bytes(),
                        t.unique_keys,
                        t.lsm.levels(),
                    )
                })
                .collect(),
        };
        let done =
            crate::recovery::write_manifest(&mut self.platform.flash, &manifest, self.clock)?;
        self.manifest_epoch = manifest.epoch;
        self.clock = self.clock.max(done);
        Ok(())
    }

    /// Rebuild a database from a flash image (after a simulated power
    /// cycle): reads the manifest, re-parses every SST index block and
    /// reconstructs trees, blooms, tombstones and allocator watermarks.
    /// `table_configs` re-supplies the PE configurations (formats live in
    /// the data catalog / specification, not in flash).
    pub fn recover(
        platform: CosmosPlatform,
        table_configs: Vec<(String, TableConfig)>,
    ) -> NkvResult<Self> {
        let mut db = Self {
            alloc: PageAllocator::new(platform.flash.config()),
            platform,
            tables: HashMap::new(),
            clock: 0,
            manifest_epoch: 0,
            pages_repaired: 0,
            tables_created: 0,
            metrics: None,
            trace_log: Vec::new(),
        };
        let (manifest, t_manifest) = crate::recovery::read_manifest(&mut db.platform.flash, 0)?;
        db.clock = t_manifest;
        db.manifest_epoch = manifest.epoch;
        for entry in &manifest.tables {
            let (_, cfg) =
                table_configs.iter().find(|(n, _)| n == &entry.name).ok_or_else(|| {
                    NkvError::Config(format!(
                        "no table configuration supplied for recovered table `{}`",
                        entry.name
                    ))
                })?;
            if cfg.pe.input.tuple_bytes() != u64::from(entry.record_bytes) {
                return Err(NkvError::Config(format!(
                    "table `{}`: manifest records are {} bytes but the supplied                      format is {} bytes",
                    entry.name,
                    entry.record_bytes,
                    cfg.pe.input.tuple_bytes()
                )));
            }
            db.create_table(&entry.name, cfg.clone())?;
            let (recovered, t) =
                crate::recovery::recover_table_ssts(&mut db.platform.flash, entry, db.clock)?;
            db.clock = db.clock.max(t);
            for (_, meta) in &recovered {
                for block in &meta.blocks {
                    for &p in &block.pages {
                        db.alloc.mark_used(p);
                    }
                }
                for &p in &meta.index_pages {
                    db.alloc.mark_used(p);
                }
            }
            let t = db.tables.get_mut(&entry.name).ok_or_else(|| {
                NkvError::Config(format!(
                    "recovered table `{}` vanished after create_table",
                    entry.name
                ))
            })?;
            t.lsm = crate::lsm::LsmTree::from_recovered(
                &entry.name,
                entry.record_bytes as usize,
                cfg.lsm.clone(),
                0x6e4b ^ u64::from(cfg.pe.chunk_bytes),
                recovered,
            );
        }
        // Recovered trees resume the id namespace their SSTs carry; trees
        // without SSTs take fresh namespaces past all of those.
        let mut names: Vec<String> = db.tables.keys().cloned().collect();
        names.sort();
        let empty = |t: &Table| t.lsm.all_ssts().is_empty();
        let in_use = db.tables.values().filter(|t| !empty(t)).map(|t| t.lsm.id_namespace() + 1);
        db.tables_created = in_use.max().unwrap_or(0);
        for name in names {
            if let Some(t) = db.tables.get_mut(&name).filter(|t| empty(t)) {
                t.lsm.set_id_namespace(db.tables_created);
                db.tables_created += 1;
            }
        }
        Ok(db)
    }

    /// Level occupancy of a table (diagnostics).
    pub fn level_sizes(&self, table: &str) -> NkvResult<Vec<usize>> {
        let t = self.tables.get(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        Ok(t.lsm.level_sizes())
    }

    /// Total persistent records of a table (including shadowed versions).
    pub fn persistent_records(&self, table: &str) -> NkvResult<u64> {
        let t = self.tables.get(table).ok_or_else(|| NkvError::UnknownTable(table.into()))?;
        Ok(t.lsm.persistent_records())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndp_ir::elaborate;
    use ndp_spec::parse;
    use ndp_workload::spec::{paper_lanes, PAPER_PE, PAPER_REF_SPEC};
    use ndp_workload::{Paper, PaperGen, PubGraphConfig};

    fn paper_db(n_pes: usize, variant: PeVariant) -> NkvDb {
        let m = parse(PAPER_REF_SPEC).unwrap();
        let pe = elaborate(&m, PAPER_PE).unwrap();
        let mut db = NkvDb::default_db();
        let mut cfg = TableConfig::new(pe);
        cfg.n_pes = n_pes;
        cfg.variant = variant;
        db.create_table("papers", cfg).unwrap();
        db
    }

    fn encode(p: &Paper) -> Vec<u8> {
        let mut v = Vec::with_capacity(80);
        p.encode_into(&mut v);
        v
    }

    #[test]
    fn put_get_delete_lifecycle() {
        let mut db = paper_db(1, PeVariant::Generated);
        let cfg = PubGraphConfig { papers: 10, refs: 10, seed: 1 };
        let p = PaperGen::paper_at(&cfg, 3);
        db.put("papers", encode(&p)).unwrap();
        let (got, rep) = db.get("papers", p.id, Backend::Software).unwrap();
        assert_eq!(got, Some(encode(&p)));
        assert!(rep.sim_ns > 0);
        db.delete("papers", p.id).unwrap();
        let (gone, _) = db.get("papers", p.id, Backend::Software).unwrap();
        assert_eq!(gone, None);
        assert!(db.clock() > 0);
    }

    #[test]
    fn bulk_load_then_get_both_modes() {
        let mut db = paper_db(1, PeVariant::Generated);
        let cfg = PubGraphConfig { papers: 3000, refs: 3000, seed: 9 };
        let n = db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        assert_eq!(n, 3000);
        let p = PaperGen::paper_at(&cfg, 1234);
        let (sw, _) = db.get("papers", p.id, Backend::Software).unwrap();
        let (hw, _) = db.get("papers", p.id, Backend::Hardware).unwrap();
        assert_eq!(sw, Some(encode(&p)));
        assert_eq!(sw, hw);
    }

    #[test]
    fn scan_filters_by_year_in_both_modes() {
        let mut db = paper_db(2, PeVariant::Generated);
        let cfg = PubGraphConfig { papers: 5000, refs: 5000, seed: 5 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2015 }];
        let sw = db.scan("papers", &rules, Backend::Software).unwrap();
        let hw = db.scan("papers", &rules, Backend::Hardware).unwrap();
        assert_eq!(sw.records, hw.records);
        assert!(sw.count > 0);
        // Oracle cross-check against the generator.
        let expected = PaperGen::new(cfg).filter(|p| p.year >= 2015).count() as u64;
        assert_eq!(sw.count, expected);
    }

    #[test]
    fn scan_sees_unflushed_and_updated_records() {
        let mut db = paper_db(1, PeVariant::Generated);
        let cfg = PubGraphConfig { papers: 100, refs: 100, seed: 2 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        // Update one paper's year in place (newer version shadows).
        let mut p = PaperGen::paper_at(&cfg, 50);
        p.year = 1900;
        db.put("papers", encode(&p)).unwrap();
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 5 /* lt */, value: 1950 }];
        let s = db.scan("papers", &rules, Backend::Software).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(Paper::decode(&s.records).year, 1900);
        assert_eq!(Paper::decode(&s.records).id, p.id);
    }

    #[test]
    fn range_scan_uses_two_stages() {
        let m = parse(PAPER_REF_SPEC).unwrap();
        let mut pe = elaborate(&m, PAPER_PE).unwrap();
        pe.stages = 2; // the RANGE_SCAN configuration
        let mut db = NkvDb::default_db();
        db.create_table("papers", TableConfig::new(pe)).unwrap();
        let cfg = PubGraphConfig { papers: 2000, refs: 2000, seed: 3 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        let s = db.range_scan("papers", 100, 200, Backend::Hardware).unwrap();
        assert_eq!(s.count, 100);
        for rec in s.records.chunks_exact(80) {
            let p = Paper::decode(rec);
            assert!((100..200).contains(&p.id));
        }
    }

    #[test]
    fn range_scan_needs_enough_stages_in_hardware() {
        // A single-stage PE cannot run a 2-rule chain in hardware...
        let mut db = paper_db(1, PeVariant::Generated);
        let cfg = PubGraphConfig { papers: 100, refs: 100, seed: 3 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        assert!(matches!(
            db.range_scan("papers", 10, 20, Backend::Hardware),
            Err(NkvError::Config(_))
        ));
        // ... but software NDP has no stage limit.
        let s = db.range_scan("papers", 10, 20, Backend::Software).unwrap();
        assert_eq!(s.count, 10);
    }

    #[test]
    fn baseline_variant_produces_identical_scan_results() {
        let mut ours = paper_db(1, PeVariant::Generated);
        let mut base = paper_db(1, PeVariant::HandCrafted);
        let cfg = PubGraphConfig { papers: 3000, refs: 3000, seed: 7 };
        for db in [&mut ours, &mut base] {
            db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        }
        let rules = [FilterRule { lane: paper_lanes::VENUE, op_code: 5, value: 100 }];
        let a = ours.scan("papers", &rules, Backend::Hardware).unwrap();
        let b = base.scan("papers", &rules, Backend::Hardware).unwrap();
        assert_eq!(a.records, b.records);
        assert!(a.count > 0);
    }

    #[test]
    fn unknown_table_and_bad_record_are_errors() {
        let mut db = paper_db(1, PeVariant::Generated);
        assert!(matches!(db.get("nope", 1, Backend::Software), Err(NkvError::UnknownTable(_))));
        assert!(matches!(
            db.put("papers", vec![0u8; 10]),
            Err(NkvError::RecordSizeMismatch { expected: 80, got: 10, .. })
        ));
    }

    #[test]
    fn narrow_record_table_is_rejected_at_creation() {
        // Regression: a tuple narrower than the 8-byte key used to slip
        // through table creation and panic the first key extraction
        // (`record[..8]`) on the PUT and queued-PUT paths. It must be a
        // typed configuration error instead.
        let spec = "
/* @autogen define parser TinyPe with
   chunksize = 32, input = Tiny, output = Tiny */
typedef struct {
    uint32_t tag;
} Tiny;
";
        let m = parse(spec).unwrap();
        let pe = elaborate(&m, "TinyPe").unwrap();
        assert_eq!(pe.input.tuple_bytes(), 4);
        let mut db = NkvDb::default_db();
        match db.create_table("tiny", TableConfig::new(pe)) {
            Err(NkvError::Config(msg)) => {
                assert!(msg.contains("8"), "message names the key width: {msg}")
            }
            other => panic!("expected a Config error, got {other:?}"),
        }
        assert!(db.tables.is_empty(), "rejected table must not be installed");
    }

    #[test]
    fn cache_keeps_results_identical_and_counts_hits() {
        let cfg = PubGraphConfig { papers: 1500, refs: 1500, seed: 21 };
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2010 }];
        let run = |cache: bool| {
            let mut db = paper_db(2, PeVariant::Generated);
            if cache {
                db.enable_cache(8 << 20);
            }
            db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
            let cold = db.scan("papers", &rules, Backend::Hardware).unwrap();
            let warm = db.scan("papers", &rules, Backend::Hardware).unwrap();
            assert_eq!(cold.records, warm.records);
            (cold.records, warm.report.sim_ns, db.cache_stats())
        };
        let (plain, t_plain, no_stats) = run(false);
        let (cached, t_cached, stats) = run(true);
        assert_eq!(plain, cached, "cached results must be byte-identical");
        assert_eq!(no_stats, None);
        let s = stats.expect("cache enabled");
        assert_eq!(s.hits + s.misses, s.lookups, "counter conservation");
        assert!(s.hits > 0, "second scan must hit: {s:?}");
        assert!(
            t_cached < t_plain,
            "warm scan from DRAM ({t_cached} ns) must beat flash ({t_plain} ns)"
        );
    }

    #[test]
    fn compaction_evicts_retired_ssts_from_the_cache() {
        let m = parse(PAPER_REF_SPEC).unwrap();
        let pe = elaborate(&m, PAPER_PE).unwrap();
        let mut db = NkvDb::default_db();
        db.enable_cache(8 << 20);
        let mut cfg = TableConfig::new(pe);
        cfg.lsm.memtable_bytes = 8 * 1024; // tiny, to force flush/compaction
        cfg.lsm.c1_sst_limit = 2;
        db.create_table("papers", cfg).unwrap();
        let gen_cfg = PubGraphConfig { papers: 1200, refs: 1200, seed: 17 };
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 1900 }];
        let mut model = std::collections::BTreeMap::new();
        for (i, p) in PaperGen::new(gen_cfg).enumerate() {
            db.put("papers", encode(&p)).unwrap();
            model.insert(p.id, encode(&p));
            if i % 300 == 299 {
                // Scans interleaved with the PUT churn populate the
                // cache while compactions retire SSTs under it.
                let s = db.scan("papers", &rules, Backend::Software).unwrap();
                assert_eq!(s.count as usize, model.len(), "cache must never serve stale blocks");
            }
        }
        let s = db.cache_stats().expect("cache enabled");
        assert!(s.invalidations > 0, "compaction churn must invalidate: {s:?}");
    }

    #[test]
    fn invalid_lane_is_rejected() {
        let mut db = paper_db(1, PeVariant::Generated);
        let rules = [FilterRule { lane: 99, op_code: 2, value: 0 }];
        assert!(matches!(
            db.scan("papers", &rules, Backend::Software),
            Err(NkvError::InvalidLane { lane: 99, .. })
        ));
    }

    #[test]
    fn many_puts_trigger_flush_and_compaction() {
        let m = parse(PAPER_REF_SPEC).unwrap();
        let pe = elaborate(&m, PAPER_PE).unwrap();
        let mut db = NkvDb::default_db();
        let mut cfg = TableConfig::new(pe);
        cfg.lsm.memtable_bytes = 8 * 1024; // tiny, to force activity
        cfg.lsm.c1_sst_limit = 2;
        db.create_table("papers", cfg).unwrap();
        let gen_cfg = PubGraphConfig { papers: 2000, refs: 2000, seed: 4 };
        for p in PaperGen::new(gen_cfg) {
            db.put("papers", encode(&p)).unwrap();
        }
        let sizes = db.level_sizes("papers").unwrap();
        assert!(sizes[1] > 0, "compaction should have populated C2: {sizes:?}");
        // All records remain reachable.
        let p = PaperGen::paper_at(&gen_cfg, 999);
        let (got, _) = db.get("papers", p.id, Backend::Software).unwrap();
        assert_eq!(got, Some(encode(&p)));
    }

    #[test]
    fn observability_records_metrics_breakdowns_and_traces() {
        let mut db = paper_db(1, PeVariant::Generated);
        db.enable_observability(1 << 16);
        let cfg = PubGraphConfig { papers: 2000, refs: 2000, seed: 6 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        let p = PaperGen::paper_at(&cfg, 10);
        db.get("papers", p.id, Backend::Hardware).unwrap();
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2010 }];
        db.scan("papers", &rules, Backend::Hardware).unwrap();

        let stats = db.device_stats();
        let get = stats.metrics.op(crate::metrics::OpKind::Get);
        let scan = stats.metrics.op(crate::metrics::OpKind::Scan);
        assert_eq!(get.ops, 1);
        assert_eq!(get.bytes, 80);
        assert!(get.hist.max() > 0);
        assert_eq!(scan.ops, 1);
        assert!(scan.breakdown.flash_ns > 0, "SCAN reads flash");
        assert!(scan.breakdown.pe_ns > 0, "HW SCAN runs PE jobs");
        // Fig. 7(a)'s explanation, measured: a GET spends more time on
        // PE config registers than moving its 80-byte result.
        assert!(
            get.breakdown.cfg_ns >= get.breakdown.nvme_ns,
            "cfg {} < data {}",
            get.breakdown.cfg_ns,
            get.breakdown.nvme_ns
        );

        let trace = db.take_trace();
        assert!(!trace.is_empty());
        assert!(trace.windows(2).all(|w| w[0].start <= w[1].start), "sorted by start");
        assert!(db.take_trace().is_empty(), "take_trace drains");

        let text = format!("{}", db.device_stats());
        assert!(text.contains("GET"), "{text}");
        assert!(text.contains("SCAN"), "{text}");
        assert!(text.contains("health:"), "{text}");
    }

    /// Satellite regression: a trace ring that overflows must count the
    /// evicted spans (surfaced as `DeviceStats::dropped_spans`), never
    /// panic, and never lose the counter across `take_trace` drains.
    #[test]
    fn trace_ring_overflow_is_counted_not_panicked() {
        let mut db = paper_db(1, PeVariant::Generated);
        db.enable_observability(4); // tiny rings: every op overflows
        let cfg = PubGraphConfig { papers: 2000, refs: 2000, seed: 6 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2010 }];
        db.scan("papers", &rules, Backend::Hardware).unwrap();
        let stats = db.device_stats();
        assert!(stats.dropped_spans > 0, "tiny ring must report drops");
        let text = format!("{stats}");
        assert!(text.contains("trace: dropped_spans="), "{text}");
        // Draining the rings must not reset the cumulative counter.
        let _ = db.take_trace();
        assert!(db.device_stats().dropped_spans >= stats.dropped_spans);
        // A roomy ring on the same workload reports zero and stays
        // silent in the rendering.
        let mut roomy = paper_db(1, PeVariant::Generated);
        roomy.enable_observability(1 << 20);
        roomy.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        roomy.scan("papers", &rules, Backend::Hardware).unwrap();
        let clean = roomy.device_stats();
        assert_eq!(clean.dropped_spans, 0);
        assert!(!format!("{clean}").contains("dropped_spans"));
    }

    #[test]
    fn observability_is_timing_invisible() {
        // The zero-cost idiom, asserted end to end: identical ops on an
        // observed and an unobserved database take identical simulated
        // time and return identical results.
        let cfg = PubGraphConfig { papers: 1500, refs: 1500, seed: 12 };
        let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 2005 }];
        let run = |observe: bool| {
            let mut db = paper_db(2, PeVariant::Generated);
            if observe {
                db.enable_observability(4096);
            }
            db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
            let s = db.scan("papers", &rules, Backend::Hardware).unwrap();
            (s.records, s.report.sim_ns, db.clock())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn puts_record_flush_and_compaction_metrics() {
        let m = parse(PAPER_REF_SPEC).unwrap();
        let pe = elaborate(&m, PAPER_PE).unwrap();
        let mut db = NkvDb::default_db();
        db.enable_metrics();
        let mut cfg = TableConfig::new(pe);
        cfg.lsm.memtable_bytes = 8 * 1024;
        cfg.lsm.c1_sst_limit = 2;
        db.create_table("papers", cfg).unwrap();
        for p in PaperGen::new(PubGraphConfig { papers: 1500, refs: 1500, seed: 4 }) {
            db.put("papers", encode(&p)).unwrap();
        }
        let stats = db.device_stats();
        use crate::metrics::OpKind;
        assert_eq!(stats.metrics.op(OpKind::Put).ops, 1500);
        assert_eq!(stats.metrics.op(OpKind::Put).bytes, 1500 * 80);
        assert!(stats.metrics.op(OpKind::Flush).ops > 0, "tiny memtable must flush");
        assert!(stats.metrics.op(OpKind::Compaction).ops > 0, "c1 limit must compact");
        // Breakdowns stay zero without tracing.
        assert_eq!(stats.metrics.op(OpKind::Flush).breakdown, crate::metrics::Breakdown::default());
    }

    #[test]
    fn simulated_clock_advances_monotonically() {
        let mut db = paper_db(1, PeVariant::Generated);
        let cfg = PubGraphConfig { papers: 500, refs: 500, seed: 8 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        let t0 = db.clock();
        db.get("papers", 5, Backend::Software).unwrap();
        let t1 = db.clock();
        db.scan(
            "papers",
            &[FilterRule { lane: paper_lanes::YEAR, op_code: 4, value: 1990 }],
            Backend::Hardware,
        )
        .unwrap();
        let t2 = db.clock();
        assert!(t0 < t1 && t1 < t2);
    }

    /// Every SST id on the device, sorted.
    fn sst_ids(db: &NkvDb) -> Vec<u64> {
        let mut ids: Vec<u64> =
            db.tables.values().flat_map(|t| t.lsm.all_ssts()).map(|s| s.id).collect();
        ids.sort_unstable();
        ids
    }

    /// Regression: every table numbered its SSTs from 1 and every bulk
    /// load restarted at 1_000_001, so the block cache (keyed on
    /// `(sst_id, block)`) could serve one table's blocks to another.
    /// Ids must be device-unique across tables, repeated bulk loads and
    /// recovery, and the first table keeps its bare ids.
    #[test]
    fn sst_ids_are_device_unique_across_tables_bulk_loads_and_recovery() {
        let m = parse(PAPER_REF_SPEC).unwrap();
        let cfg = TableConfig::new(elaborate(&m, PAPER_PE).unwrap());
        let configs: Vec<(String, TableConfig)> =
            ["a", "b", "c"].iter().map(|n| (n.to_string(), cfg.clone())).collect();
        let gen = PubGraphConfig { papers: 1000, refs: 0, seed: 5 };
        let load = |db: &mut NkvDb, table: &str, range: std::ops::Range<u64>| {
            db.bulk_load(table, range.map(|i| encode(&PaperGen::paper_at(&gen, i)))).unwrap();
        };
        let flush_one = |db: &mut NkvDb, table: &str, i: u64| {
            db.put(table, encode(&PaperGen::paper_at(&gen, i))).unwrap();
            db.flush(table).unwrap();
        };
        let mut db = NkvDb::default_db();
        for (name, cfg) in &configs {
            db.create_table(name, cfg.clone()).unwrap();
        }
        load(&mut db, "a", 0..300);
        load(&mut db, "a", 300..600);
        flush_one(&mut db, "a", 5);
        load(&mut db, "b", 0..300);
        flush_one(&mut db, "b", 5);
        assert_eq!(
            db.tables["a"].lsm.all_ssts().iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![1, 1_000_001, 1_000_002],
            "the first table keeps its ids"
        );
        let before = sst_ids(&db);
        assert!(before.windows(2).all(|w| w[0] < w[1]), "unique before recovery: {before:?}");

        db.persist().unwrap();
        let mut fresh = CosmosPlatform::default_platform();
        fresh.flash = db.platform_mut().flash.clone();
        fresh.flash.reboot();
        let mut db = NkvDb::recover(fresh, configs).unwrap();
        assert_eq!(sst_ids(&db), before, "recovery keeps every id");
        for table in ["a", "b", "c"] {
            load(&mut db, table, 600..700);
            flush_one(&mut db, table, 800);
        }
        let after = sst_ids(&db);
        assert_eq!(after.len(), before.len() + 6);
        assert!(after.windows(2).all(|w| w[0] < w[1]), "unique after recovery: {after:?}");
    }

    /// Regression: `maintain_at` used to `expect` the table's presence,
    /// panicking on a name no caller verified. Reachable from the
    /// cluster router's shard calls, it must be a typed error.
    #[test]
    fn maintenance_on_an_unknown_table_is_a_typed_error() {
        let mut db = paper_db(1, PeVariant::Generated);
        let err = db.maintain_at("no-such-table", 0).unwrap_err();
        assert_eq!(err, NkvError::UnknownTable("no-such-table".into()));
    }

    /// Regression: the recover path near the old `expect("just
    /// created")` site must reject a manifest entry with no supplied
    /// configuration with a typed error, not a panic — this is exactly
    /// what a cluster heal with a stale table list hits.
    #[test]
    fn recover_without_the_tables_config_is_a_typed_error() {
        let mut db = paper_db(1, PeVariant::Generated);
        let cfg = PubGraphConfig { papers: 200, refs: 200, seed: 11 };
        db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
        db.persist().unwrap();
        let mut fresh = CosmosPlatform::default_platform();
        fresh.flash = db.platform_mut().flash.clone();
        fresh.flash.reboot();
        let err = match NkvDb::recover(fresh, Vec::new()) {
            Err(e) => e,
            Ok(_) => panic!("recover without any table config must fail"),
        };
        assert!(
            matches!(err, NkvError::Config(ref msg) if msg.contains("papers")),
            "want a typed Config error naming the table, got {err:?}"
        );
    }
}
