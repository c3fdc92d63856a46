//! Set-up of each workload's system: generate, create tables, load,
//! churn and warm up. Everything here counts toward `setup_s`.

use crate::data::{self, KeyGen};
use crate::sys::{Sys, Tier};
use crate::trace::Tracer;
use crate::workload::Workload;
use cosmos_sim::faults::FaultPlan;
use cosmos_sim::{CosmosConfig, FirmwareEra};
use ndp_workload::{PaperGen, PubGraphConfig, RefGen};
use nkv::{ClusterConfig, NkvCluster, NkvDb, ShardStrategy};
use std::sync::mpsc::sync_channel;

const MIB: usize = 1 << 20;
/// Churn rounds on the get-zipf fleet: one overlapping C1 SST per shard
/// per round (the Fig. 7a shape).
const CHURN_SSTS: u64 = 7;
/// Keys re-put per churn round, spread over the whole key range.
const CHURN_KEYS: u64 = 64;
/// Zipf GETs that warm the get-zipf caches before measuring.
const WARM_GETS: u64 = 2_000;

fn platform() -> CosmosConfig {
    CosmosConfig { firmware: FirmwareEra::Updated, ..CosmosConfig::default() }
}

/// Build one workload's system from scratch.
pub fn build(w: Workload, cfg: PubGraphConfig, tr: &mut Tracer) -> Sys {
    match w {
        Workload::ScanAnalytics => {
            let mut db = NkvDb::new(platform());
            db.create_table("papers", data::papers_table()).expect("papers table is valid");
            db.create_table("refs", data::refs_table()).expect("refs table is valid");
            stream_load(&mut db, "papers", cfg, tr);
            stream_load(&mut db, "refs", cfg, tr);
            db.enable_cache(8 * MIB);
            Sys::Db(db)
        }
        Workload::GetZipf => build_fleet(cfg, tr),
        Workload::MixedQueue => {
            let mut db = NkvDb::new(platform());
            db.create_table("papers", data::papers_table()).expect("papers table is valid");
            stream_load(&mut db, "papers", cfg, tr);
            db.enable_cache(32 * MIB);
            // Warm-up: one full read pulls the whole table into the cache.
            let g = tr.enter("bench.warm_up");
            let warm = db.scan("papers", &data::all_papers_rule(), nkv::ExecMode::Software);
            tr.exit(g);
            assert_eq!(warm.expect("warm-up scan succeeds").count, cfg.papers);
            Sys::Db(db)
        }
    }
}

/// Stream-generate one table on a producer thread and bulk-load it
/// through a bounded channel, the way the repository's loaders do.
fn stream_load(db: &mut NkvDb, table: &str, cfg: PubGraphConfig, tr: &mut Tracer) {
    let (tx, rx) = sync_channel::<Vec<u8>>(4096);
    let papers = table == "papers";
    let g = tr.enter("nkv::db.bulk_load");
    let loaded = std::thread::scope(|s| {
        s.spawn(move || {
            let mut buf = Vec::with_capacity(data::PAPER_BYTES);
            let send = |buf: &Vec<u8>| tx.send(buf.clone()).is_ok();
            if papers {
                for p in PaperGen::new(cfg) {
                    buf.clear();
                    p.encode_into(&mut buf);
                    if !send(&buf) {
                        return;
                    }
                }
            } else {
                for r in RefGen::new(cfg) {
                    buf.clear();
                    r.encode_into(&mut buf);
                    if !send(&buf) {
                        return;
                    }
                }
            }
        });
        db.bulk_load(table, rx).expect("bulk load succeeds")
    });
    tr.exit(g);
    let expected = if papers { cfg.papers } else { cfg.refs };
    assert_eq!(loaded, expected, "the loader ingests the whole stream");
}

/// The get-zipf fleet: two hash-sharded devices holding papers, churned
/// into overlapping C1 SSTs, 4 MiB cache and light flash fault weather
/// per shard, caches warmed with Zipf GETs.
fn build_fleet(cfg: PubGraphConfig, tr: &mut Tracer) -> Sys {
    let fleet = ClusterConfig {
        devices: 2,
        strategy: ShardStrategy::Hash,
        platform: platform(),
        ..ClusterConfig::default()
    };
    let mut c = NkvCluster::new(fleet).expect("fleet config is valid");
    let mut table = data::papers_table();
    // C1 holds exactly the churned SSTs; the first flush compacts. The
    // shard takes the queued writes alone, so a smaller memtable gives it
    // as many flush and compaction stalls as the single devices see.
    table.lsm.c1_sst_limit = CHURN_SSTS as usize;
    table.lsm.memtable_bytes = 16 * 1024;
    // Six retries: at this fault weather a read then fails for good about
    // once per 10^13 block reads, so no run loses an operation.
    table.resilience.max_read_retries = 6;
    c.create_table("papers", table).expect("papers table is valid");
    let g = tr.enter("ndp-workload.generate");
    let records: Vec<Vec<u8>> = (0..cfg.papers).map(|i| data::encode_paper(&cfg, i)).collect();
    tr.exit(g);
    let g = tr.enter("nkv::cluster.bulk_load");
    let loaded = c.bulk_load("papers", records).expect("bulk load succeeds");
    tr.exit(g);
    assert_eq!(loaded, cfg.papers);
    // Churn: re-put unchanged records spanning the key range, then
    // flush, so every C1 SST's range covers every lookup.
    for _ in 0..CHURN_SSTS {
        for j in 0..CHURN_KEYS {
            let idx = j * (cfg.papers - 1) / (CHURN_KEYS - 1);
            let g = tr.enter("nkv::cluster.put");
            c.put("papers", data::encode_paper(&cfg, idx)).expect("churn put succeeds");
            tr.exit(g);
        }
        let g = tr.enter("nkv::cluster.flush");
        c.flush("papers").expect("churn flush succeeds");
        tr.exit(g);
    }
    for shard in 0..c.devices() {
        let db = c.shard_db(shard).expect("shard index in range");
        db.platform_mut().install_faults(&FaultPlan {
            transient_read_p: 1e-3,
            correctable_p: 1e-3,
            ..FaultPlan::quiet(cfg.seed ^ (0xfa17 + shard as u64))
        });
        db.enable_cache(4 * MIB);
    }
    let mut sys = Sys::Cluster(c);
    let mut keys = KeyGen::new(&cfg, 99);
    let g = tr.enter("bench.warm_up");
    for _ in 0..WARM_GETS {
        let key = keys.present();
        let (rec, _) = sys.get("papers", key, Tier::Hw).expect("warm-up get succeeds");
        assert!(rec.is_some(), "warm-up key {key} exists");
    }
    tr.exit(g);
    sys
}
