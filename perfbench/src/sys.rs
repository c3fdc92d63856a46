//! The system under test, as one device ([`NkvDb`]) or a sharded fleet
//! ([`NkvCluster`]), behind the handful of calls the workloads make.
//! Only public API is used.

use cosmos_sim::SimNs;
use ndp_pe::oracle::FilterRule;
use nkv::{
    Backend, ExecMode, LogicalOp, MultiGetResults, NkvCluster, NkvDb, NkvError, NkvResult, OpKind,
    PlanOutcome, SimReport,
};

/// Span ring capacity per device while the traced run observes it.
const TRACE_RING: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Sw,
    Hw,
    Adaptive,
}

impl Tier {
    pub const ALL: [Tier; 3] = [Tier::Sw, Tier::Hw, Tier::Adaptive];

    pub fn name(self) -> &'static str {
        match self {
            Tier::Sw => "sw",
            Tier::Hw => "hw",
            Tier::Adaptive => "adaptive",
        }
    }
}

// One system lives at a time, so the variants' size difference is moot.
#[allow(clippy::large_enum_variant)]
pub enum Sys {
    Db(NkvDb),
    Cluster(NkvCluster),
}

/// One SCAN's outcome on either shape.
pub struct ScanOut {
    pub records: Vec<u8>,
    pub count: u64,
    pub sim_ns: SimNs,
    /// The device's report (single device only; the router returns
    /// times, not reports).
    pub report: Option<SimReport>,
    /// Adaptive decisions that picked the PEs, out of `picks`.
    pub hw_picks: u64,
    pub picks: u64,
}

/// Device counters summed over every device of the system.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub pages_read: u64,
    pub pages_programmed: u64,
    pub controller_busy_ns: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub cache_evictions: u64,
    pub cache_invalidations: u64,
    pub read_retries: u64,
    pub backoff_ns: u64,
    /// The rest need op metrics (traced run only).
    pub flushes: u64,
    pub compactions: u64,
    pub compaction_ns: u64,
    pub get_cfg_ns: u64,
    pub pe_ns: u64,
    pub dram_ns: u64,
}

impl Counters {
    /// Field-wise `self - earlier`.
    pub fn since(self, e: Counters) -> Counters {
        Counters {
            pages_read: self.pages_read - e.pages_read,
            pages_programmed: self.pages_programmed - e.pages_programmed,
            controller_busy_ns: self.controller_busy_ns - e.controller_busy_ns,
            cache_lookups: self.cache_lookups - e.cache_lookups,
            cache_hits: self.cache_hits - e.cache_hits,
            cache_evictions: self.cache_evictions - e.cache_evictions,
            cache_invalidations: self.cache_invalidations - e.cache_invalidations,
            read_retries: self.read_retries - e.read_retries,
            backoff_ns: self.backoff_ns - e.backoff_ns,
            flushes: self.flushes - e.flushes,
            compactions: self.compactions - e.compactions,
            compaction_ns: self.compaction_ns - e.compaction_ns,
            get_cfg_ns: self.get_cfg_ns - e.get_cfg_ns,
            pe_ns: self.pe_ns - e.pe_ns,
            dram_ns: self.dram_ns - e.dram_ns,
        }
    }
}

fn backend(tier: Tier) -> Backend {
    match tier {
        Tier::Sw => Backend::Software,
        _ => Backend::Hardware,
    }
}

impl Sys {
    pub fn devices(&self) -> usize {
        match self {
            Sys::Db(_) => 1,
            Sys::Cluster(c) => c.devices(),
        }
    }

    pub fn device(&mut self, i: usize) -> &mut NkvDb {
        match self {
            Sys::Db(db) => db,
            Sys::Cluster(c) => c.shard_db(i).expect("shard index in range"),
        }
    }

    /// Whether `key` lives on device 0, the device queued runs drive.
    pub fn on_queue_device(&self, key: u64) -> bool {
        match self {
            Sys::Db(_) => true,
            Sys::Cluster(c) => c.shard_for_key(key) == 0,
        }
    }

    pub fn api(&self) -> &'static str {
        match self {
            Sys::Db(_) => "nkv::db",
            Sys::Cluster(_) => "nkv::cluster",
        }
    }

    pub fn enable_observability(&mut self) {
        match self {
            Sys::Db(db) => db.enable_observability(TRACE_RING),
            Sys::Cluster(c) => c.enable_observability(TRACE_RING),
        }
    }

    /// Drop the device spans buffered so far; the op metrics keep their
    /// attribution. Returns the spans dropped by ring overflow.
    pub fn drain_traces(&mut self) -> u64 {
        match self {
            Sys::Db(db) => {
                let lost = db.device_stats().dropped_spans;
                drop(db.take_trace());
                lost
            }
            Sys::Cluster(c) => {
                let (devices, _router) = c.take_cluster_trace();
                devices.iter().map(|d| d.dropped_spans).sum()
            }
        }
    }

    pub fn scan(&mut self, table: &str, rules: &[FilterRule], tier: Tier) -> NkvResult<ScanOut> {
        match self {
            Sys::Db(db) => {
                let (s, hw) = match tier {
                    Tier::Sw => (db.scan(table, rules, ExecMode::Software)?, None),
                    Tier::Hw => (db.scan(table, rules, ExecMode::Hardware)?, None),
                    Tier::Adaptive => {
                        let (s, cost) = db.scan_adaptive(table, rules)?;
                        (s, Some(cost.chosen == Backend::Hardware))
                    }
                };
                Ok(ScanOut {
                    sim_ns: s.report.sim_ns,
                    count: s.count,
                    records: s.records,
                    report: Some(s.report),
                    hw_picks: u64::from(hw == Some(true)),
                    picks: u64::from(hw.is_some()),
                })
            }
            Sys::Cluster(c) => {
                let (s, tiers) = match tier {
                    Tier::Adaptive => c.scan_adaptive(table, rules)?,
                    t => (c.scan(table, rules, backend(t))?, Vec::new()),
                };
                Ok(ScanOut {
                    sim_ns: s.sim_ns,
                    count: s.count,
                    records: s.records,
                    report: None,
                    hw_picks: tiers.iter().filter(|(_, b)| *b == Backend::Hardware).count() as u64,
                    picks: tiers.len() as u64,
                })
            }
        }
    }

    pub fn get(
        &mut self,
        table: &str,
        key: u64,
        tier: Tier,
    ) -> NkvResult<(Option<Vec<u8>>, SimNs)> {
        match self {
            Sys::Db(db) => match db.execute(table, &LogicalOp::Get { key }, backend(tier))? {
                PlanOutcome::Point { record, report } => Ok((record, report.sim_ns)),
                _ => Err(NkvError::Config("GET lowered to a non-point plan".into())),
            },
            Sys::Cluster(c) => {
                let g = c.get(table, key, backend(tier))?;
                Ok((g.record, g.sim_ns))
            }
        }
    }

    pub fn multi_get(&mut self, table: &str, keys: &[u64]) -> NkvResult<(MultiGetResults, SimNs)> {
        match self {
            Sys::Db(db) => {
                let (results, report) = db.multi_get(table, keys, ExecMode::Hardware)?;
                Ok((results, report.sim_ns))
            }
            Sys::Cluster(c) => {
                let m = c.multi_get(table, keys, Backend::Hardware)?;
                Ok((m.results, m.sim_ns))
            }
        }
    }

    pub fn counters(&mut self) -> Counters {
        let mut c = Counters::default();
        for i in 0..self.devices() {
            let db = self.device(i);
            let stats = db.device_stats();
            let p = db.platform_mut();
            let (reads, writes) = p.flash.op_counts();
            c.pages_read += reads;
            c.pages_programmed += writes;
            c.controller_busy_ns += p.flash.controller_busy_ns();
            if let Some(cache) = stats.cache {
                c.cache_lookups += cache.lookups;
                c.cache_hits += cache.hits;
                c.cache_evictions += cache.evictions;
                c.cache_invalidations += cache.invalidations;
            }
            c.read_retries += stats.health.read_retries;
            c.backoff_ns += stats.health.retry_backoff_ns;
            let m = &stats.metrics;
            c.flushes += m.op(OpKind::Flush).ops;
            c.compactions += m.op(OpKind::Compaction).ops;
            c.compaction_ns += m.op(OpKind::Compaction).hist.sum();
            c.get_cfg_ns += m.op(OpKind::Get).breakdown.cfg_ns;
            let total = m.total_breakdown();
            c.pe_ns += total.pe_ns;
            c.dram_ns += total.dram_ns;
        }
        c
    }

    /// Router retries and max/median shard busy time (cluster only).
    pub fn router(&self) -> (u64, f64) {
        match self {
            Sys::Db(_) => (0, 0.0),
            Sys::Cluster(c) => {
                let s = c.cluster_stats();
                (s.router_retries, s.busy_skew)
            }
        }
    }

    /// Flash controllers per device (their busy times add up).
    pub fn controllers(&mut self) -> f64 {
        f64::from(self.device(0).platform_mut().flash.config().controllers)
    }

    pub fn page_bytes(&mut self) -> u64 {
        u64::from(self.device(0).platform_mut().flash.config().page_bytes)
    }
}
