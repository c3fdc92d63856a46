//! The three workloads: one measured round of fixed size (every
//! simulated-time metric comes from it, so they repeat exactly per
//! seed), and a host-timed loop of the workload's own operation on a
//! fresh system of its own.
//!
//! Every workload reports every end-to-end metric. Its own traffic is
//! its operation (SCAN pairs, Zipf GETs or the queued mix); the same
//! round also runs the other two operation kinds at a fixed size on its
//! system, so each metric is defined on every workload.

use crate::data::{self, GenCounts, KeyGen, Model, ScanQuery};
use crate::stats::{self, Quantile};
use crate::sys::{Sys, Tier};
use crate::trace::Tracer;
use ndp_workload::{PaperGen, PubGraphConfig};
use nkv::{ClientScript, NkvError, OpKind, Priority, QueueRunConfig, QueuedOp};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Repetitions of the SCAN set per tier in the round.
const SCAN_REPS: usize = 5;
/// Single-key GETs in the round (alternating PEs and ARM).
const SINGLE_GETS: usize = 10_000;
/// Batched GETs in the round, of `BATCH_DRAWS` Zipf draws each.
const BATCHES: usize = 1_500;
const BATCH_DRAWS: usize = 16;
/// Single GETs and batches per host-timed chunk on get-zipf.
const CHUNK_GETS: usize = 100;
const CHUNK_BATCHES: usize = 10;

/// Client counts and script lengths of one queued run.
#[derive(Clone, Copy)]
struct Mix {
    high_gets: usize,
    writer_ops: usize,
    bulk_ops: usize,
}

/// 4 x 9,000 High GETs, 3 x 10,080 PUTs and 30 SCANs: the slowest 1 %
/// of GETs and of PUTs each hold hundreds of samples, spread over
/// dozens of scan collisions, flushes and compactions.
const ROUND_MIX: Mix = Mix { high_gets: 9_000, writer_ops: 12_600, bulk_ops: 3_000 };
/// One queued run of the timed loop writes about five memtables, one
/// compaction cycle.
const TIMED_MIX: Mix = Mix { high_gets: 600, writer_ops: 840, bulk_ops: 400 };
const HIGH_CLIENTS: usize = 4;
const WRITERS: usize = 3;
/// Every `SCAN_EVERY`-th Bulk command is a selective SCAN.
const SCAN_EVERY: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanAnalytics,
    GetZipf,
    MixedQueue,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scan-analytics" => Some(Self::ScanAnalytics),
            "get-zipf" => Some(Self::GetZipf),
            "mixed-queue" => Some(Self::MixedQueue),
            _ => None,
        }
    }

    pub fn with_refs(self) -> bool {
        self == Self::ScanAnalytics
    }

    /// Round phases: the workload's own traffic first, on the state
    /// set-up left, then the other operation kinds.
    fn phases(self) -> [Phase; 4] {
        match self {
            Self::ScanAnalytics => [Phase::Scan, Phase::Get, Phase::MultiGet, Phase::Mixed],
            Self::GetZipf => [Phase::Get, Phase::MultiGet, Phase::Scan, Phase::Mixed],
            Self::MixedQueue => [Phase::Mixed, Phase::Scan, Phase::Get, Phase::MultiGet],
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    Scan,
    Get,
    MultiGet,
    Mixed,
}

/// Operation and check outcomes. Any failure fails the run.
#[derive(Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Check {
    /// Count one operation; `ok` says it succeeded with the right result.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("CHECK FAILED: {}", what());
            }
        }
    }

    /// A check that is not an operation (equality of tiers, of runs).
    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.violations.push(msg);
        }
    }

    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// What one measured round produced.
pub struct RoundOut {
    /// End-to-end simulated-time metrics.
    pub sim: Vec<Metric>,
    /// Per-layer metrics measured in the round.
    pub layer: Vec<Metric>,
    /// Sample counts beside each percentile, for the report.
    pub samples: Vec<String>,
    pub host_s: f64,
}

#[derive(Default)]
struct ScanStats {
    scans: u64,
    blocks: u64,
    shadow_reads: u64,
    hw_scans: u64,
    tuples_in: u64,
    tuples_out: u64,
    reg_writes: u64,
    hw_sim_ns: u64,
    hw_busy_ns: u64,
    hw_picks: u64,
    picks: u64,
    /// Refs HW-scan bytes, for the parallel-stream comparison.
    refs_hw: Option<Vec<u8>>,
}

/// What a queued command must return.
enum Expect {
    Get(Option<Vec<u8>>),
    Scan(u64),
    Put,
}

struct Scripts {
    scripts: Vec<ClientScript>,
    expect: Vec<Vec<Expect>>,
    /// The writes, in the order the model applies them.
    puts: Vec<(u64, Vec<u8>)>,
}

struct MixedOut {
    completions: u64,
    span_ns: u64,
    high_get_ns: Vec<f64>,
    put_ns: Vec<f64>,
    wait_ns: Vec<f64>,
    exec_ns: Vec<f64>,
    queue: cosmos_sim::QueueStats,
    puts: u64,
    host_s: f64,
}

/// The system plus everything the workloads check it against.
pub struct Bench<'t> {
    pub sys: Sys,
    cfg: PubGraphConfig,
    pub check: Check,
    tr: &'t mut Tracer,
    scans: Vec<ScanQuery>,
    model: Model,
    keys: KeyGen,
    /// Matches of the papers SCAN on the device queued runs drive.
    queued_scan_expected: u64,
    /// Device spans lost to ring overflow (traced run).
    pub lost_spans: u64,
}

fn scan_span(api: &str, tier: Tier) -> &'static str {
    match (api, tier) {
        ("nkv::db", Tier::Sw) => "nkv::db.scan.sw",
        ("nkv::db", Tier::Hw) => "nkv::db.scan.hw",
        ("nkv::db", Tier::Adaptive) => "nkv::db.scan_adaptive",
        (_, Tier::Sw) => "nkv::cluster.scan.sw",
        (_, Tier::Hw) => "nkv::cluster.scan.hw",
        (_, Tier::Adaptive) => "nkv::cluster.scan_adaptive",
    }
}

fn get_span(api: &str) -> (&'static str, &'static str) {
    if api == "nkv::db" {
        ("nkv::db.get", "nkv::db.multi_get")
    } else {
        ("nkv::cluster.get", "nkv::cluster.multi_get")
    }
}

/// The scan-tier name a span belongs to, for the host per-tier metric.
pub fn scan_spans(tier: Tier) -> [&'static str; 2] {
    [scan_span("nkv::db", tier), scan_span("nkv::cluster", tier)]
}

/// One latency sample set, summarised from the per-operation simulated
/// times: mean, mean of the slowest `share`, and the exact percentiles.
struct Latency {
    name: &'static str,
    n: usize,
    mean_us: f64,
    tail_us: f64,
    tail_n: usize,
    share: f64,
    p50: Quantile,
    ptail: Quantile,
}

impl Latency {
    fn of(name: &'static str, ns: &[f64], share: f64) -> Self {
        let (tail, tail_n) = stats::tail_mean(ns, share);
        Self {
            name,
            n: ns.len(),
            mean_us: stats::mean(ns) / 1e3,
            tail_us: tail / 1e3,
            tail_n,
            share,
            p50: stats::quantile(ns, 0.5),
            ptail: stats::quantile(ns, 1.0 - share),
        }
    }

    fn describe(&self) -> String {
        format!(
            "{}: n={}, mean {:.3} us, tail = mean of slowest {} ({} %) {:.3} us; exact p50 {:.3} us, p{} {:.3} us ({} beyond)",
            self.name,
            self.n,
            self.mean_us,
            self.tail_n,
            self.share * 100.0,
            self.tail_us,
            self.p50.value / 1e3,
            (1.0 - self.share) * 100.0,
            self.ptail.value / 1e3,
            self.ptail.beyond
        )
    }
}

impl<'t> Bench<'t> {
    pub fn new(
        sys: Sys,
        cfg: PubGraphConfig,
        counts: &GenCounts,
        with_refs: bool,
        tr: &'t mut Tracer,
    ) -> Self {
        let queued_scan_expected = match &sys {
            Sys::Db(_) => counts.papers_recent,
            Sys::Cluster(_) => PaperGen::new(cfg)
                .filter(|p| p.year >= 2019 && sys.on_queue_device(p.id))
                .count() as u64,
        };
        Self {
            queued_scan_expected,
            sys,
            cfg,
            check: Check::default(),
            tr,
            scans: data::scan_set(counts, with_refs),
            model: Model::new(cfg),
            keys: KeyGen::new(&cfg, 1),
            lost_spans: 0,
        }
    }

    fn drain(&mut self) {
        if self.tr.enabled() {
            self.lost_spans += self.sys.drain_traces();
        }
    }

    /// Run the SCAN set once per tier; returns each tier's summed
    /// simulated time. Every tier must return the SW tier's bytes, and
    /// the match count must equal the generator's.
    fn scan_rotation(&mut self, st: &mut ScanStats) -> [u64; 3] {
        let mut pair = [0u64; 3];
        let mut reference: Vec<Option<Vec<u8>>> = vec![None; self.scans.len()];
        for (ti, tier) in Tier::ALL.into_iter().enumerate() {
            self.tr.request();
            for (qi, seen) in reference.iter_mut().enumerate() {
                let (table, expected) = (self.scans[qi].table, self.scans[qi].expected);
                let before = (tier == Tier::Hw).then(|| self.sys.counters());
                let g = self.tr.enter(scan_span(self.sys.api(), tier));
                let res = self.sys.scan(table, &self.scans[qi].rules, tier);
                self.tr.exit(g);
                let out = match res {
                    Ok(out) => out,
                    Err(e) => {
                        self.check.op(false, || format!("{} scan of {table}: {e}", tier.name()));
                        continue;
                    }
                };
                let same = match seen {
                    None => {
                        *seen = Some(out.records.clone());
                        true
                    }
                    Some(r) => *r == out.records,
                };
                self.check.op(out.count == expected && same, || {
                    format!(
                        "{} scan of {table}: {} matches (generator: {expected}), bytes equal to SW: {same}",
                        tier.name(),
                        out.count
                    )
                });
                pair[ti] += out.sim_ns;
                st.scans += 1;
                st.hw_picks += out.hw_picks;
                st.picks += out.picks;
                if let Some(r) = &out.report {
                    st.blocks += r.blocks;
                    st.shadow_reads += r.shadow_confirm_reads;
                }
                if let Some(before) = before {
                    let d = self.sys.counters().since(before);
                    st.hw_scans += 1;
                    st.hw_sim_ns += out.sim_ns;
                    st.hw_busy_ns += d.controller_busy_ns;
                    if let Some(r) = &out.report {
                        st.tuples_in += r.tuples_in;
                        st.tuples_out += r.tuples_out;
                        st.reg_writes += r.reg_writes;
                    }
                    if table == "refs" {
                        st.refs_hw = Some(out.records);
                    }
                }
                self.drain();
            }
        }
        pair
    }

    /// One single-key GET, checked against the model; returns its
    /// simulated time.
    fn single_get(&mut self, tier: Tier) -> Option<u64> {
        let key = self.keys.lookup();
        let name = get_span(self.sys.api()).0;
        self.tr.request();
        let g = self.tr.enter(name);
        let res = self.sys.get("papers", key, tier);
        self.tr.exit(g);
        match res {
            Ok((rec, ns)) => {
                let ok = rec == self.model.get(key);
                self.check.op(ok, || format!("{} GET {key} returned a wrong record", tier.name()));
                Some(ns)
            }
            Err(e) => {
                self.check.op(false, || format!("{} GET {key}: {e}", tier.name()));
                None
            }
        }
    }

    /// One batched GET of `BATCH_DRAWS` Zipf draws, deduplicated first
    /// (a key list must not repeat a key). Returns (sim ns, keys sent,
    /// duplicates removed).
    fn batch_get(&mut self) -> (Option<u64>, usize, usize) {
        let mut keys: Vec<u64> = Vec::with_capacity(BATCH_DRAWS);
        for _ in 0..BATCH_DRAWS {
            let k = self.keys.lookup();
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let dups = BATCH_DRAWS - keys.len();
        let name = get_span(self.sys.api()).1;
        self.tr.request();
        let g = self.tr.enter(name);
        let res = self.sys.multi_get("papers", &keys);
        self.tr.exit(g);
        match res {
            Ok((results, ns)) => {
                let ok = results.len() == keys.len()
                    && results.iter().zip(&keys).all(|(r, &k)| match r {
                        Ok(rec) => *rec == self.model.get(k),
                        Err(_) => false,
                    });
                self.check.op(ok, || {
                    let bad: Vec<String> = results
                        .iter()
                        .zip(&keys)
                        .filter(|(r, &k)| !matches!(r, Ok(rec) if *rec == self.model.get(k)))
                        .map(|(r, k)| match r {
                            Ok(rec) => format!(
                                "key {k}: got {} bytes, want {:?}",
                                rec.as_ref().map_or(0, Vec::len),
                                self.model.get(*k).map(|w| w.len())
                            ),
                            Err(e) => format!("key {k}: {e}"),
                        })
                        .collect();
                    format!("batched GET of {} keys: {}", keys.len(), bad.join("; "))
                });
                (Some(ns), keys.len(), dups)
            }
            Err(e) => {
                self.check.op(false, || format!("batched GET: {e}"));
                (None, keys.len(), dups)
            }
        }
    }

    /// A key list that repeats a key must be refused with a typed
    /// `Config` error.
    fn duplicate_key_list_is_refused(&mut self) {
        let k = self.keys.present();
        let res = self.sys.multi_get("papers", &[k, k]);
        self.check.ensure(matches!(res, Err(NkvError::Config(_))), || {
            format!("multi_get with a repeated key returned {:?}", res.map(|r| r.0.len()))
        });
    }

    /// Scripts for one queued run: 4 High GET clients on a read-only key
    /// partition, 3 Normal writers (80 % PUT) each owning a disjoint
    /// partition, 1 Bulk client (GETs, a selective SCAN every 100 ops).
    /// Keys live on the device the run drives.
    fn mixed_scripts(&mut self, mix: Mix, version: u32) -> Scripts {
        let n = self.cfg.papers;
        let sys = &self.sys;
        let owned = |k: u64| sys.on_queue_device(k);
        let keys = &mut self.keys;
        let mut read_key = || loop {
            let k = keys.lookup();
            if owned(k) && (k > n || k.is_multiple_of(4)) {
                return k;
            }
        };
        let mut scripts = Vec::new();
        let mut expect = Vec::new();
        for _ in 0..HIGH_CLIENTS {
            let ks: Vec<u64> = (0..mix.high_gets).map(|_| read_key()).collect();
            expect.push(ks.iter().map(|&k| Expect::Get(self.model.get(k))).collect());
            scripts.push(ClientScript {
                ops: ks.into_iter().map(|key| QueuedOp::Get { key }).collect(),
                priority: Priority::High,
            });
        }
        let mut bulk = (ClientScript { ops: Vec::new(), priority: Priority::Bulk }, Vec::new());
        for i in 0..mix.bulk_ops {
            if i % SCAN_EVERY == SCAN_EVERY - 1 {
                bulk.0.ops.push(QueuedOp::Scan { rules: self.scans[0].rules.clone() });
                bulk.1.push(Expect::Scan(self.queued_scan_expected));
            } else {
                let key = read_key();
                bulk.0.ops.push(QueuedOp::Get { key });
                bulk.1.push(Expect::Get(self.model.get(key)));
            }
        }
        let mut puts = Vec::new();
        for w in 1..=WRITERS as u64 {
            // A client's in-flight commands may execute in any order (as
            // on NVMe), so a writer writes each key at most once per run
            // and reads only keys it does not write in that run.
            let n_puts = (0..mix.writer_ops).filter(|i| i % 5 != 4).count();
            let mut mine: BTreeSet<u64> = BTreeSet::new();
            let mut put_keys = Vec::with_capacity(n_puts);
            while put_keys.len() < n_puts {
                let k = keys.present_where(|k| owned(k) && k % 4 == w);
                if mine.insert(k) {
                    put_keys.push(k);
                }
            }
            let mut s = ClientScript { ops: Vec::new(), priority: Priority::Normal };
            let mut e = Vec::new();
            let mut next_put = put_keys.into_iter();
            for i in 0..mix.writer_ops {
                if i % 5 == 4 {
                    let key = keys.present_where(|k| owned(k) && k % 4 == w && !mine.contains(&k));
                    s.ops.push(QueuedOp::Get { key });
                    e.push(Expect::Get(self.model.get(key)));
                } else {
                    let key = next_put.next().expect("one key per PUT");
                    let rec = data::rewritten_paper(&self.cfg, key, version + i as u32);
                    puts.push((key, rec.clone()));
                    s.ops.push(QueuedOp::Put { record: rec });
                    e.push(Expect::Put);
                }
            }
            scripts.push(s);
            expect.push(e);
        }
        scripts.push(bulk.0);
        expect.push(bulk.1);
        Scripts { scripts, expect, puts }
    }

    /// Run the scripts through the NVMe queue engine at depth 4 with
    /// auto-batching of 8, check every completion, then apply the
    /// writes to the model.
    fn run_mixed(&mut self, s: Scripts) -> MixedOut {
        let cfg = QueueRunConfig { depth: 4, batch: 8, ..QueueRunConfig::default() };
        self.tr.request();
        let g = self.tr.enter("nkv::queue.run_queued");
        let t0 = Instant::now();
        let res = self.sys.device(0).run_queued("papers", &s.scripts, &cfg);
        let host_s = t0.elapsed().as_secs_f64();
        self.tr.exit(g);
        let total: usize = s.scripts.iter().map(|c| c.ops.len()).sum();
        let mut out = MixedOut {
            completions: 0,
            span_ns: 0,
            high_get_ns: Vec::new(),
            put_ns: Vec::new(),
            wait_ns: Vec::new(),
            exec_ns: Vec::new(),
            queue: cosmos_sim::QueueStats::default(),
            puts: s.puts.len() as u64,
            host_s,
        };
        let report = match res {
            Ok(r) => r,
            Err(e) => {
                for _ in 0..total {
                    self.check.op(false, || format!("queued run: {e}"));
                }
                return out;
            }
        };
        out.completions = report.ops();
        out.span_ns = report.finished_ns - report.started_ns;
        out.queue = report.queue;
        self.check.ensure(report.completions.len() == total, || {
            format!("queued run completed {} of {total} commands", report.completions.len())
        });
        for c in &report.completions {
            let latency = (c.complete_ns - c.submit_ns) as f64;
            out.wait_ns.push((c.fetch_ns - c.submit_ns) as f64);
            out.exec_ns.push(c.exec_ns as f64);
            let client = c.client as usize;
            let ok = match s.expect[client].get(c.seq as usize) {
                Some(Expect::Get(want)) => {
                    if client < HIGH_CLIENTS {
                        out.high_get_ns.push(latency);
                    }
                    c.kind == OpKind::Get
                        && match want {
                            Some(r) => c.payload == *r,
                            None => c.payload.is_empty(),
                        }
                }
                Some(Expect::Scan(n)) => {
                    c.kind == OpKind::Scan && c.payload.len() as u64 == n * data::PAPER_BYTES as u64
                }
                Some(Expect::Put) => {
                    out.put_ns.push(latency);
                    c.kind == OpKind::Put
                }
                None => false,
            };
            self.check.op(ok, || {
                format!(
                    "queued {:?} (client {}, seq {}) returned a wrong result",
                    c.kind, c.client, c.seq
                )
            });
        }
        for (k, rec) in s.puts {
            self.model.overrides.insert(k, rec);
        }
        self.drain();
        out
    }

    /// After writes: the queued device's papers table must equal the
    /// model exactly (full read, sorted by key).
    fn check_table(&mut self) {
        let sys = &self.sys;
        let want = self.model.table(|k| sys.on_queue_device(k));
        let g = self.tr.enter("bench.check_table");
        let res =
            self.sys.device(0).scan("papers", &data::all_papers_rule(), nkv::ExecMode::Software);
        self.tr.exit(g);
        match res {
            Ok(s) => {
                let got = data::sort_records(&s.records, data::PAPER_BYTES);
                self.check.ensure(got == want, || {
                    format!(
                        "papers table differs from the model ({} vs {} bytes)",
                        got.len(),
                        want.len()
                    )
                });
            }
            Err(e) => self.check.ensure(false, || format!("model check scan: {e}")),
        }
        self.drain();
    }

    /// The measured round. Fixed size, so every simulated metric it
    /// yields repeats exactly for a seed.
    pub fn round(&mut self, w: Workload, parallel_probe: bool) -> RoundOut {
        let t0 = Instant::now();
        let g = self.tr.enter("bench.round");
        let c0 = self.sys.counters();
        let mut st = ScanStats::default();
        let mut tiers: [Vec<f64>; 3] = Default::default();
        let mut singles = Vec::with_capacity(SINGLE_GETS);
        let mut batches = Vec::with_capacity(BATCHES);
        let (mut batch_keys, mut dups) = (0, 0);
        let mut mixed = None;
        let (mut gets, mut batched, mut mixed_c) = Default::default();
        for phase in w.phases() {
            let before = self.sys.counters();
            match phase {
                Phase::Scan => {
                    for _ in 0..SCAN_REPS {
                        let pair = self.scan_rotation(&mut st);
                        for (t, ns) in pair.iter().enumerate() {
                            tiers[t].push(*ns as f64);
                        }
                    }
                }
                Phase::Get => {
                    for i in 0..SINGLE_GETS {
                        let tier = if i % 2 == 0 { Tier::Hw } else { Tier::Sw };
                        singles.extend(self.single_get(tier).map(|ns| ns as f64));
                    }
                    self.drain();
                    gets = self.sys.counters().since(before);
                }
                Phase::MultiGet => {
                    self.duplicate_key_list_is_refused();
                    for _ in 0..BATCHES {
                        let (ns, n, d) = self.batch_get();
                        batches.extend(ns.map(|ns| ns as f64));
                        batch_keys += n;
                        dups += d;
                    }
                    self.drain();
                    batched = self.sys.counters().since(before);
                }
                Phase::Mixed => {
                    let scripts = self.mixed_scripts(ROUND_MIX, 0);
                    mixed = Some(self.run_mixed(scripts));
                    mixed_c = self.sys.counters().since(before);
                    self.check_table();
                }
            }
        }
        let mixed = mixed.expect("every round runs the queued mix");
        let end = self.sys.counters();
        self.tr.exit(g);
        let host_s = t0.elapsed().as_secs_f64();

        let scan_ms: Vec<f64> = tiers.iter().map(|t| stats::median(t) / 1e6).collect();
        let get = Latency::of("get", &singles, 0.01);
        let mg = Latency::of("multiget", &batches, 0.01);
        let mget = Latency::of("mixed_get", &mixed.high_get_ns, 0.01);
        let mput = Latency::of("mixed_put", &mixed.put_ns, 0.01);
        let mixed_ops = stats::ratio(mixed.completions as f64, mixed.span_ns as f64 / 1e9);
        let sim = vec![
            metric("scan_sw_ms", scan_ms[0], "ms"),
            metric("scan_hw_ms", scan_ms[1], "ms"),
            metric("scan_adaptive_ms", scan_ms[2], "ms"),
            metric("get_mean_us", get.mean_us, "us"),
            metric("multiget_mean_us", mg.mean_us, "us"),
            metric("mixed_ops_per_s", mixed_ops, "ops/s"),
            metric("mixed_get_mean_us", mget.mean_us, "us"),
            metric("mixed_get_tail_us", mget.tail_us, "us"),
            metric("mixed_put_mean_us", mput.mean_us, "us"),
        ];
        let samples = vec![
            format!("scan_*_ms: median of {SCAN_REPS} SCAN sets per tier"),
            get.describe(),
            mg.describe(),
            mget.describe(),
            mput.describe(),
            format!("multiget: {batch_keys} keys sent, {dups} duplicate draws removed"),
        ];

        let round = end.since(c0);
        let ops = st.scans as f64
            + singles.len() as f64
            + batches.len() as f64
            + mixed.completions as f64;
        let hw_gets = SINGLE_GETS.div_ceil(2) as f64;
        let page_bytes = self.sys.page_bytes() as f64;
        let (router_retries, busy_skew) = self.sys.router();
        let best_forced = scan_ms[0].min(scan_ms[1]);
        let mut layer = vec![
            // Serial GETs on an idle device take a handful of discrete
            // service times, so their tails are constants of the model
            // that do not vary across seeds; they are reported here.
            metric("get_tail_us", get.tail_us, "us"),
            metric("multiget_tail_us", mg.tail_us, "us"),
            // The slowest PUTs are the few that met a compaction; too few
            // per round for a steady end-to-end figure.
            metric("mixed_put_tail_us", mput.tail_us, "us"),
            metric("cosmos-sim.flash.pages_programmed", end.pages_programmed as f64, "count"),
            metric("nkv.lsm.flushes", mixed_c.flushes as f64, "count"),
            metric("nkv.lsm.compactions", mixed_c.compactions as f64, "count"),
            metric("nkv.lsm.compaction_ms", mixed_c.compaction_ns as f64 / 1e6, "ms"),
            metric(
                "nkv.lsm.write_amp",
                stats::ratio(
                    mixed_c.pages_programmed as f64 * page_bytes,
                    (mixed.puts as usize * data::PAPER_BYTES) as f64,
                ),
                "ratio",
            ),
            metric("nkv.cost.hw_share", stats::ratio(st.hw_picks as f64, st.picks as f64), "ratio"),
            metric("nkv.cost.regret", stats::ratio(scan_ms[2], best_forced), "ratio"),
            metric(
                "nkv.engine.blocks_per_scan",
                stats::ratio(st.blocks as f64, st.scans as f64),
                "count",
            ),
            metric("nkv.engine.shadow_confirm_reads", st.shadow_reads as f64, "count"),
            metric("ndp-pe.tuples_in", st.tuples_in as f64, "count"),
            metric("ndp-pe.tuples_out", st.tuples_out as f64, "count"),
            metric("ndp-pe.busy_ms", round.pe_ns as f64 / 1e6, "ms"),
            metric(
                "ndp-swgen.reg_writes_per_scan",
                stats::ratio(st.reg_writes as f64, st.hw_scans as f64),
                "count",
            ),
            metric(
                "ndp-swgen.cfg_us_per_get",
                stats::ratio(gets.get_cfg_ns as f64, hw_gets) / 1e3,
                "us",
            ),
            metric(
                "ndp-swgen.cfg_us_per_batched_key",
                stats::ratio(batched.get_cfg_ns as f64, batch_keys as f64) / 1e3,
                "us",
            ),
            metric(
                "cosmos-sim.flash.pages_read_per_op",
                stats::ratio(round.pages_read as f64, ops),
                "count",
            ),
            metric(
                "cosmos-sim.flash.occupancy",
                stats::ratio(st.hw_busy_ns as f64, st.hw_sim_ns as f64 * self.sys.controllers()),
                "ratio",
            ),
            metric(
                "cosmos-sim.cache.hit_rate",
                stats::ratio(round.cache_hits as f64, round.cache_lookups as f64),
                "ratio",
            ),
            metric("cosmos-sim.cache.lookups", round.cache_lookups as f64, "count"),
            metric("cosmos-sim.cache.evictions", round.cache_evictions as f64, "count"),
            metric("cosmos-sim.cache.invalidations", round.cache_invalidations as f64, "count"),
            metric("cosmos-sim.dram_ms", round.dram_ns as f64 / 1e6, "ms"),
            metric("nkv.queue.wait_us_p50", stats::quantile(&mixed.wait_ns, 0.5).value / 1e3, "us"),
            metric(
                "nkv.queue.wait_us_p99",
                stats::quantile(&mixed.wait_ns, 0.99).value / 1e3,
                "us",
            ),
            metric("nkv.queue.exec_us_p50", stats::quantile(&mixed.exec_ns, 0.5).value / 1e3, "us"),
            metric(
                "nkv.queue.exec_us_p99",
                stats::quantile(&mixed.exec_ns, 0.99).value / 1e3,
                "us",
            ),
            metric("cosmos-sim.queue.full_stalls", mixed.queue.full_stalls as f64, "count"),
            metric(
                "cosmos-sim.queue.coalesced_doorbells",
                mixed.queue.coalesced_doorbells as f64,
                "count",
            ),
            metric("cosmos-sim.queue.max_inflight", mixed.queue.max_inflight as f64, "count"),
            metric("nkv.queue.run_host_s", mixed.host_s, "s"),
            metric("nkv.cluster.busy_skew", busy_skew, "ratio"),
            metric("nkv.cluster.router_retries", router_retries as f64, "count"),
            metric("nkv.health.read_retries", round.read_retries as f64, "count"),
            metric("nkv.health.backoff_us", round.backoff_ns as f64 / 1e3, "us"),
        ];
        layer.push(metric(
            "nkv.engine.parallel4_ms",
            self.parallel_probe(parallel_probe, st.refs_hw),
            "ms",
        ));
        RoundOut { sim, layer, samples, host_s }
    }

    /// Refs HW scan over 4 parallel PE streams (traced run only, after
    /// every round metric is taken); must match the serial bytes.
    fn parallel_probe(&mut self, run: bool, serial: Option<Vec<u8>>) -> f64 {
        let (Some(serial), true, Sys::Db(db)) = (serial, run, &mut self.sys) else {
            return 0.0;
        };
        let q = &self.scans[1];
        db.set_parallel_pes("refs", 4).expect("refs has 7 PEs");
        let res = db.scan("refs", &q.rules, nkv::ExecMode::Hardware);
        db.set_parallel_pes("refs", 0).expect("back to serial dispatch");
        match res {
            Ok(s) => {
                self.check
                    .op(s.records == serial, || "4-stream refs scan differs from serial".into());
                s.report.sim_ns as f64 / 1e6
            }
            Err(e) => {
                self.check.op(false, || format!("4-stream refs scan: {e}"));
                0.0
            }
        }
    }

    /// Repeat the workload's own operation until `seconds` have passed;
    /// returns (operations, host seconds).
    pub fn timed(&mut self, w: Workload, seconds: f64) -> (u64, f64) {
        let g = self.tr.enter("bench.timed");
        let t0 = Instant::now();
        let budget = Duration::from_secs_f64(seconds);
        let mut ops = 0u64;
        let mut version = 1_000_000u32;
        while t0.elapsed() < budget {
            ops += match w {
                Workload::ScanAnalytics => {
                    self.scan_rotation(&mut ScanStats::default());
                    3 * self.scans.len() as u64
                }
                Workload::GetZipf => {
                    for i in 0..CHUNK_GETS {
                        self.single_get(if i % 2 == 0 { Tier::Hw } else { Tier::Sw });
                    }
                    for _ in 0..CHUNK_BATCHES {
                        self.batch_get();
                    }
                    self.drain();
                    (CHUNK_GETS + CHUNK_BATCHES) as u64
                }
                Workload::MixedQueue => {
                    let scripts = self.mixed_scripts(TIMED_MIX, version);
                    version += 10_000;
                    self.run_mixed(scripts).completions
                }
            };
        }
        let elapsed = t0.elapsed().as_secs_f64();
        self.tr.exit(g);
        if w == Workload::MixedQueue {
            self.check_table();
        }
        (ops, elapsed)
    }
}
