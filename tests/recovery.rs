//! Power-cycle recovery: persist, drop the in-memory state, rebuild from
//! the flash image, and verify reads and scans are unchanged.

use ndp_ir::elaborate;
use ndp_pe::oracle::FilterRule;
use ndp_workload::spec::{paper_lanes, PAPER_PE, PAPER_REF_SPEC};
use ndp_workload::{Paper, PaperGen, PubGraphConfig};
use nkv::{Backend, NkvDb, NkvError, TableConfig};

fn encode(p: &Paper) -> Vec<u8> {
    let mut v = Vec::with_capacity(80);
    p.encode_into(&mut v);
    v
}

fn table_cfg() -> TableConfig {
    let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    TableConfig::new(elaborate(&m, PAPER_PE).unwrap())
}

#[test]
fn recovery_preserves_reads_scans_and_tombstones() {
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    let cfg = PubGraphConfig { papers: 3000, refs: 3000, seed: 21 };
    db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
    // Some churn: updates, deletes, flush so everything is persistent.
    let mut upd = PaperGen::paper_at(&cfg, 100);
    upd.year = 1900;
    db.put("papers", encode(&upd)).unwrap();
    db.delete("papers", 200).unwrap();
    db.flush("papers").unwrap();
    db.persist().unwrap();

    let rules = [FilterRule { lane: paper_lanes::YEAR, op_code: 5, value: 1950 }];
    let before = db.scan("papers", &rules, Backend::Hardware).unwrap();
    let (g_before, _) = db.get("papers", 500, Backend::Software).unwrap();

    // Power cycle: only the flash array survives.
    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = db.platform_mut().flash.clone();
    let mut recovered = NkvDb::recover(fresh, vec![("papers".into(), table_cfg())]).unwrap();

    let after = recovered.scan("papers", &rules, Backend::Hardware).unwrap();
    assert_eq!(after.records, before.records);
    assert_eq!(after.count, before.count);
    let (g_after, _) = recovered.get("papers", 500, Backend::Software).unwrap();
    assert_eq!(g_after, g_before);
    // The tombstone survived recovery.
    let (gone, _) = recovered.get("papers", 200, Backend::Software).unwrap();
    assert_eq!(gone, None);
    // The updated version still shadows the bulk one.
    let (u, _) = recovered.get("papers", upd.id, Backend::Software).unwrap();
    assert_eq!(Paper::decode(&u.unwrap()).year, 1900);
}

#[test]
fn recovery_then_write_path_does_not_clobber_recovered_data() {
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    let cfg = PubGraphConfig { papers: 1000, refs: 1000, seed: 22 };
    db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
    db.persist().unwrap();

    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = db.platform_mut().flash.clone();
    let mut rec = NkvDb::recover(fresh, vec![("papers".into(), table_cfg())]).unwrap();

    // New writes after recovery must not overwrite recovered pages
    // (allocator watermarks were advanced).
    for i in 0..500u64 {
        let mut p = PaperGen::paper_at(&cfg, i % cfg.papers);
        p.venue = 9999;
        rec.put("papers", encode(&p)).unwrap();
    }
    rec.flush("papers").unwrap();
    // Untouched keys still read their original values.
    let p = PaperGen::paper_at(&cfg, 700);
    let (got, _) = rec.get("papers", p.id, Backend::Software).unwrap();
    assert_eq!(got, Some(encode(&p)));
    // Updated keys read the new version.
    let (got, _) = rec.get("papers", 5, Backend::Software).unwrap();
    assert_eq!(Paper::decode(&got.unwrap()).venue, 9999);
}

#[test]
fn recovery_without_manifest_fails_cleanly() {
    let platform = cosmos_sim::CosmosPlatform::default_platform();
    let err = NkvDb::recover(platform, vec![("papers".into(), table_cfg())]);
    assert!(err.is_err());
}

#[test]
fn recovery_rejects_mismatched_format() {
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    let cfg = PubGraphConfig { papers: 100, refs: 100, seed: 23 };
    db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
    db.persist().unwrap();
    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = db.platform_mut().flash.clone();
    // Supply the 20-byte Ref format for the 80-byte papers table.
    let m = ndp_spec::parse(PAPER_REF_SPEC).unwrap();
    let wrong = TableConfig::new(elaborate(&m, ndp_workload::REF_PE).unwrap());
    match NkvDb::recover(fresh, vec![("papers".into(), wrong)]) {
        Err(NkvError::Config(msg)) => assert!(msg.contains("80")),
        Err(other) => panic!("expected format mismatch, got {other:?}"),
        Ok(_) => panic!("expected format mismatch, got a recovered database"),
    }
}

#[test]
fn recovery_requires_a_config_for_every_table() {
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    let cfg = PubGraphConfig { papers: 50, refs: 50, seed: 24 };
    db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
    db.persist().unwrap();
    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = db.platform_mut().flash.clone();
    match NkvDb::recover(fresh, vec![]) {
        Err(NkvError::Config(msg)) => assert!(msg.contains("papers")),
        Err(other) => panic!("expected missing-config error, got {other:?}"),
        Ok(_) => panic!("expected missing-config error, got a recovered database"),
    }
}

#[test]
fn torn_manifest_slot_recovers_the_previous_epoch() {
    // Two persists land in alternating slots. Tearing the newer slot
    // (as a power cut mid-manifest-write would) must make recovery fall
    // back to the older epoch's state — not fail, not mix the two.
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    let cfg = PubGraphConfig { papers: 500, refs: 500, seed: 26 };
    db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
    db.persist().unwrap(); // epoch 1 -> slot 1
    let mut extra = PaperGen::paper_at(&cfg, 0);
    extra.id = 90_000;
    db.put("papers", encode(&extra)).unwrap();
    db.flush("papers").unwrap();
    db.persist().unwrap(); // epoch 2 -> slot 0

    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = db.platform_mut().flash.clone();
    // Tear epoch 2's slot: corrupt the first page of slot 0 (the
    // topmost page of channel 0 / LUN 0).
    let top = fresh.flash.config().pages_per_lun - 1;
    let addr = cosmos_sim::PhysAddr { channel: 0, lun: 0, page: top };
    let mut torn = fresh.flash.read_page(addr, 0).unwrap().1.to_vec();
    torn.truncate(16); // only the header reached the cells
    fresh.flash.program_page(addr, &torn, 0).unwrap();

    let mut rec = NkvDb::recover(fresh, vec![("papers".into(), table_cfg())]).unwrap();
    // Epoch 1 state: the bulk data is there, the later put is not.
    let p = PaperGen::paper_at(&cfg, 123);
    let (got, _) = rec.get("papers", p.id, Backend::Software).unwrap();
    assert_eq!(got, Some(encode(&p)));
    let (gone, _) = rec.get("papers", 90_000, Backend::Software).unwrap();
    assert_eq!(gone, None, "the torn epoch's writes must not surface");
}

#[test]
fn half_written_index_fails_with_a_typed_error() {
    // A manifest that points at an index block whose pages never got
    // (fully) written — the half-written-index crash window. Recovery
    // must fail with a typed error, never panic or half-load the table.
    use nkv::recovery::{write_manifest, Manifest, TableManifest};
    let mut flash = cosmos_sim::FlashArray::new(cosmos_sim::FlashConfig::default());
    let garbage = cosmos_sim::PhysAddr { channel: 3, lun: 1, page: 10 };
    flash.program_page(garbage, &[0xAB; 64], 0).unwrap();
    let unwritten = cosmos_sim::PhysAddr { channel: 3, lun: 1, page: 11 };
    for bad_pages in [vec![garbage], vec![unwritten]] {
        let manifest = Manifest {
            epoch: 1,
            tables: vec![TableManifest {
                name: "papers".into(),
                record_bytes: 80,
                unique_keys: true,
                ssts: vec![(0, bad_pages)],
            }],
        };
        write_manifest(&mut flash, &manifest, 0).unwrap();
        let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
        fresh.flash = flash.clone();
        match NkvDb::recover(fresh, vec![("papers".into(), table_cfg())]) {
            Err(NkvError::Config(msg)) => assert!(msg.contains("index")),
            Err(NkvError::Flash(_)) => {} // unwritten index page
            Err(other) => panic!("expected a typed index error, got {other:?}"),
            Ok(_) => panic!("recovery must not succeed from a half-written index"),
        }
    }
}

#[test]
fn unflushed_memtable_data_is_volatile() {
    // Documented LSM-without-WAL semantics: unflushed writes are lost.
    let mut db = NkvDb::default_db();
    db.create_table("papers", table_cfg()).unwrap();
    let cfg = PubGraphConfig { papers: 100, refs: 100, seed: 25 };
    db.bulk_load("papers", PaperGen::new(cfg).map(|p| encode(&p))).unwrap();
    let mut extra = PaperGen::paper_at(&cfg, 0);
    extra.id = 90_000; // beyond the bulk range, memtable only
    db.put("papers", encode(&extra)).unwrap();
    db.persist().unwrap(); // no flush!
    let mut fresh = cosmos_sim::CosmosPlatform::default_platform();
    fresh.flash = db.platform_mut().flash.clone();
    let mut rec = NkvDb::recover(fresh, vec![("papers".into(), table_cfg())]).unwrap();
    let (gone, _) = rec.get("papers", 90_000, Backend::Software).unwrap();
    assert_eq!(gone, None, "memtable contents do not survive a power cycle");
}
