//! Inputs: the publication graph at 1/16 scale, table configurations,
//! Zipf key draws and the reference model results are checked against.
//! Everything derives from the workload seed.

use ndp_ir::PeConfig;
use ndp_pe::oracle::FilterRule;
use ndp_pe::template::PeVariant;
use ndp_workload::spec::{paper_lanes, ref_lanes, PAPER_PE, PAPER_REF_SPEC, REF_PE};
use ndp_workload::{PaperGen, PubGraphConfig, RefGen, SplitMix64};
use nkv::TableConfig;
use std::collections::BTreeMap;

/// Dataset scale: 235,947 papers x 80 B and 2,508,041 refs x 20 B.
pub const SCALE: f64 = 1.0 / 16.0;
/// Zipf exponent of the GET key popularity.
pub const ZIPF_S: f64 = 0.99;
/// Share of GET keys that name no record.
pub const ABSENT_SHARE: f64 = 0.05;
pub const PAPER_BYTES: usize = 80;

pub fn graph(seed: u64) -> PubGraphConfig {
    PubGraphConfig { seed, ..PubGraphConfig::scaled(SCALE) }
}

fn pe_config(parser: &str) -> PeConfig {
    let module = ndp_spec::parse(PAPER_REF_SPEC).expect("bundled spec parses");
    ndp_ir::elaborate(&module, parser).expect("bundled spec elaborates")
}

/// The papers table of this work's device: one generated paper-PE and a
/// 32 KiB memtable, so the queued writes flush and compact often on every
/// workload.
pub fn papers_table() -> TableConfig {
    let mut cfg = TableConfig::new(pe_config(PAPER_PE));
    cfg.n_pes = 1;
    cfg.variant = PeVariant::Generated;
    cfg.lsm.memtable_bytes = 32 * 1024;
    cfg
}

/// The refs table: seven generated ref-PEs, duplicate source keys.
pub fn refs_table() -> TableConfig {
    let mut cfg = TableConfig::new(pe_config(REF_PE));
    cfg.n_pes = 7;
    cfg.variant = PeVariant::Generated;
    cfg.unique_keys = false;
    cfg
}

/// One SCAN of the workload's scan set.
pub struct ScanQuery {
    pub table: &'static str,
    pub rules: Vec<FilterRule>,
    /// Matches counted from the generator.
    pub expected: u64,
}

fn rule(pe: &PeConfig, lane: u32, op: &str, value: u64) -> FilterRule {
    FilterRule { lane, op_code: pe.op_code(op).expect("operator exists"), value }
}

/// The paper's SCAN pair: papers `year >= 2019`, and refs
/// `year == 1980` when the workload loads refs.
pub fn scan_set(counts: &GenCounts, with_refs: bool) -> Vec<ScanQuery> {
    let paper = pe_config(PAPER_PE);
    let mut set = vec![ScanQuery {
        table: "papers",
        rules: vec![rule(&paper, paper_lanes::YEAR, "ge", 2019)],
        expected: counts.papers_recent,
    }];
    if with_refs {
        let r = pe_config(REF_PE);
        set.push(ScanQuery {
            table: "refs",
            rules: vec![rule(&r, ref_lanes::YEAR, "eq", 1980)],
            expected: counts.refs_1980,
        });
    }
    set
}

/// A predicate every paper passes (`year >= 0`): a full-table read.
pub fn all_papers_rule() -> Vec<FilterRule> {
    vec![rule(&pe_config(PAPER_PE), paper_lanes::YEAR, "ge", 0)]
}

/// Counts derived from one generator-only pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenCounts {
    pub papers_recent: u64,
    pub refs_1980: u64,
}

/// Generate and encode every record the workload loads, without
/// loading it, and count the scan set's matches. Timed as the
/// generator's share of set-up.
pub fn generator_pass(cfg: PubGraphConfig, with_refs: bool) -> GenCounts {
    let mut c = GenCounts::default();
    let mut buf = Vec::with_capacity(PAPER_BYTES);
    for p in PaperGen::new(cfg) {
        buf.clear();
        p.encode_into(&mut buf);
        c.papers_recent += u64::from(p.year >= 2019);
    }
    if with_refs {
        for r in RefGen::new(cfg) {
            buf.clear();
            r.encode_into(&mut buf);
            c.refs_1980 += u64::from(r.year == 1980);
        }
    }
    std::hint::black_box(&buf);
    c
}

pub fn encode_paper(cfg: &PubGraphConfig, index: u64) -> Vec<u8> {
    let mut rec = Vec::with_capacity(PAPER_BYTES);
    PaperGen::paper_at(cfg, index).encode_into(&mut rec);
    rec
}

/// The papers table as the benchmark expects it: the generator's
/// records plus every PUT the benchmark issued.
pub struct Model {
    pub cfg: PubGraphConfig,
    pub overrides: BTreeMap<u64, Vec<u8>>,
}

impl Model {
    pub fn new(cfg: PubGraphConfig) -> Self {
        Self { cfg, overrides: BTreeMap::new() }
    }

    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        if let Some(r) = self.overrides.get(&key) {
            return Some(r.clone());
        }
        (1..=self.cfg.papers).contains(&key).then(|| encode_paper(&self.cfg, key - 1))
    }

    /// Every record whose key satisfies `owned`, in key order.
    pub fn table(&self, owned: impl Fn(u64) -> bool) -> Vec<u8> {
        let mut out = Vec::new();
        for key in (1..=self.cfg.papers).filter(|&k| owned(k)) {
            match self.overrides.get(&key) {
                Some(r) => out.extend_from_slice(r),
                None => PaperGen::paper_at(&self.cfg, key - 1).encode_into(&mut out),
            }
        }
        out
    }
}

/// A paper record rewritten by a PUT: the generator's record with a new
/// citation count. The year is kept, so the scan set's counts hold.
pub fn rewritten_paper(cfg: &PubGraphConfig, key: u64, version: u32) -> Vec<u8> {
    let mut p = PaperGen::paper_at(cfg, key - 1);
    p.n_cits = 10_000 + version;
    let mut rec = Vec::with_capacity(PAPER_BYTES);
    p.encode_into(&mut rec);
    rec
}

/// Sort a buffer of fixed-size records by their leading `u64` key.
pub fn sort_records(bytes: &[u8], width: usize) -> Vec<u8> {
    let mut recs: Vec<&[u8]> = bytes.chunks_exact(width).collect();
    recs.sort_by_key(|r| u64::from_le_bytes(r[..8].try_into().expect("8-byte key")));
    recs.concat()
}

/// Zipf(s) popularity over the table's keys. Ranks map to keys through
/// a seeded affine permutation, so the hot keys spread over the key
/// range (and over shards).
pub struct KeyGen {
    cdf: Vec<f64>,
    n: u64,
    stride: u64,
    offset: u64,
    rng: SplitMix64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl KeyGen {
    pub fn new(cfg: &PubGraphConfig, stream: u64) -> Self {
        let n = cfg.papers;
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(ZIPF_S);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut setup = SplitMix64::for_record(cfg.seed, 0x21ff, stream);
        let mut stride = 2_654_435_761 % n;
        while gcd(stride, n) != 1 {
            stride += 1;
        }
        let offset = setup.gen_u64(n);
        Self { cdf, n, stride, offset, rng: SplitMix64::for_record(cfg.seed, 0x2100 + stream, 0) }
    }

    /// A Zipf-popular key that exists.
    pub fn present(&mut self) -> u64 {
        let u = self.rng.f64_unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64;
        (rank * self.stride + self.offset) % self.n + 1
    }

    /// A present key satisfying `owned`.
    pub fn present_where(&mut self, owned: impl Fn(u64) -> bool) -> u64 {
        loop {
            let k = self.present();
            if owned(k) {
                return k;
            }
        }
    }

    /// A GET key: present with probability `1 - ABSENT_SHARE`, else a
    /// key above the table's range.
    pub fn lookup(&mut self) -> u64 {
        if self.rng.gen_bool(ABSENT_SHARE) {
            self.n + 1 + self.rng.gen_u64(self.n)
        } else {
            self.present()
        }
    }
}
