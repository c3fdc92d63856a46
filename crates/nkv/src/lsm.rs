//! The LSM tree: components `C0..Ck` over flash-resident SSTs.
//!
//! Mirrors the paper's description (Sec. III-A):
//!
//! * all writes go to the memtable (`C0`);
//! * when `C0` reaches its size threshold it is **flushed** into a new
//!   SST of `C1` *without compaction* ("for performance, no compaction
//!   takes place during the flush"), so `C1` holds multiple, possibly
//!   overlapping SSTs and several versions of one key may coexist;
//! * background **compaction** merges a level into the next, purging
//!   outdated pairs and (at the bottom level) tombstones;
//! * GET therefore probes the memtable, *every* SST of `C1`
//!   (newest-first), and one SST per deeper level.

use crate::error::{NkvError, NkvResult};
use crate::memtable::{Entry, MemTable};
use crate::placement::PageAllocator;
use crate::sst::{read_block, serialize_index, SstBuilder, SstMeta};
use cosmos_sim::{FlashArray, PhysAddr, SimNs};

/// Tuning knobs of one LSM tree.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Memtable flush threshold in bytes.
    pub memtable_bytes: usize,
    /// Data block size (the paper's 32 KiB processing granularity).
    pub block_bytes: usize,
    /// Maximum SST count in `C1` before compaction into `C2`.
    pub c1_sst_limit: usize,
    /// Size ratio between consecutive levels.
    pub level_fanout: usize,
    /// Maximum number of persistent levels (`C1..Ck`).
    pub max_levels: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self {
            memtable_bytes: 4 << 20,
            block_bytes: 32 * 1024,
            c1_sst_limit: 4,
            level_fanout: 10,
            max_levels: 7,
        }
    }
}

/// SST ids are device-unique, because the device block cache keys on
/// them: `namespace << SST_ID_NAMESPACE_SHIFT | local`, where the
/// namespace is the table's creation index on its device (0 for the
/// first table, whose ids are the bare local ids). Flush and compaction
/// ids count up from local 1, bulk-load ids from `BULK_SST_ID_BASE + 1`,
/// across every bulk load into the tree.
const SST_ID_NAMESPACE_SHIFT: u32 = 40;
const BULK_SST_ID_BASE: u64 = 1_000_000;

/// One LSM tree (one table / column family).
pub struct LsmTree {
    table: String,
    record_bytes: usize,
    cfg: LsmConfig,
    memtable: MemTable,
    /// `levels[0]` = `C1` (newest SST first); deeper levels hold
    /// non-overlapping runs sorted by key range.
    levels: Vec<Vec<SstMeta>>,
    next_sst_id: u64,
    next_bulk_sst_id: u64,
    seed: u64,
    /// SST ids retired since the last [`Self::take_retired`] drain:
    /// compaction inputs whose pages may still sit in the device block
    /// cache. SSTs are immutable and the bump allocator never reuses
    /// pages, so retirement is the only way block *content* goes stale.
    retired: Vec<u64>,
}

impl LsmTree {
    /// Create an empty tree.
    pub fn new(table: &str, record_bytes: usize, cfg: LsmConfig, seed: u64) -> Self {
        let max_levels = cfg.max_levels;
        Self {
            table: table.to_string(),
            record_bytes,
            cfg,
            memtable: MemTable::new(seed),
            levels: vec![Vec::new(); max_levels],
            next_sst_id: 1,
            next_bulk_sst_id: BULK_SST_ID_BASE + 1,
            seed,
            retired: Vec::new(),
        }
    }

    /// Move an empty tree's SST ids into `namespace` (see
    /// [`SST_ID_NAMESPACE_SHIFT`]).
    pub(crate) fn set_id_namespace(&mut self, namespace: u64) {
        let base = namespace << SST_ID_NAMESPACE_SHIFT;
        self.next_sst_id = base + 1;
        self.next_bulk_sst_id = base + BULK_SST_ID_BASE + 1;
    }

    /// The namespace this tree's SST ids live in.
    pub(crate) fn id_namespace(&self) -> u64 {
        self.next_sst_id >> SST_ID_NAMESPACE_SHIFT
    }

    /// The next bulk-load SST id.
    pub(crate) fn alloc_bulk_sst_id(&mut self) -> u64 {
        let id = self.next_bulk_sst_id;
        self.next_bulk_sst_id += 1;
        id
    }

    /// Fixed record size of this table.
    pub fn record_bytes(&self) -> usize {
        self.record_bytes
    }

    /// Data block size.
    pub fn block_bytes(&self) -> usize {
        self.cfg.block_bytes
    }

    /// The in-memory component.
    pub fn memtable(&self) -> &MemTable {
        &self.memtable
    }

    /// Insert or update a record (key = first 8 bytes, validated by the
    /// caller-facing layer).
    pub fn put(&mut self, key: u64, record: Vec<u8>) {
        self.memtable.put(key, record);
    }

    /// Delete a key (tombstone).
    pub fn delete(&mut self, key: u64) {
        self.memtable.delete(key);
    }

    /// Should the memtable be flushed?
    pub fn should_flush(&self) -> bool {
        self.memtable.approximate_bytes() >= self.cfg.memtable_bytes
    }

    /// Should `level` be compacted into `level + 1`?
    pub fn should_compact(&self, level: usize) -> bool {
        if level == 0 {
            self.levels[0].len() > self.cfg.c1_sst_limit
        } else if level + 1 < self.levels.len() {
            let limit = self.cfg.c1_sst_limit * self.cfg.level_fanout.pow(level as u32);
            self.levels[level].len() > limit
        } else {
            false
        }
    }

    /// Flush `C0` into a fresh `C1` SST (no compaction, per the paper).
    /// Returns the completion time; no-op on an empty memtable.
    pub fn flush(
        &mut self,
        flash: &mut FlashArray,
        alloc: &mut PageAllocator,
        now: SimNs,
    ) -> NkvResult<SimNs> {
        if self.memtable.is_empty() {
            return Ok(now);
        }
        let id = self.next_sst_id;
        self.next_sst_id += 1;
        let mut b = SstBuilder::new(id, 1, self.record_bytes, self.cfg.block_bytes, &self.table);
        for (key, entry) in self.memtable.iter() {
            match entry {
                Entry::Value(rec) => b.add_record(key, rec)?,
                Entry::Tombstone => b.add_tombstone(key),
            }
        }
        let (meta, done) = b.finish(flash, alloc, now)?;
        self.levels[0].insert(0, meta); // newest first
        self.memtable = MemTable::new(self.seed ^ id);
        Ok(done)
    }

    /// Compact `level` into `level + 1`: k-way merge with newest-wins
    /// semantics; tombstones are purged when the output is the bottom
    /// populated level. Returns the completion time.
    pub fn compact(
        &mut self,
        flash: &mut FlashArray,
        alloc: &mut PageAllocator,
        level: usize,
        now: SimNs,
    ) -> NkvResult<SimNs> {
        assert!(level + 1 < self.levels.len(), "cannot compact the bottom level");
        if self.levels[level].is_empty() {
            return Ok(now);
        }
        // Inputs: all SSTs of `level` (priority = recency order) plus all
        // SSTs of `level + 1` (older than anything above).
        let upper: Vec<SstMeta> = std::mem::take(&mut self.levels[level]);
        let lower: Vec<SstMeta> = std::mem::take(&mut self.levels[level + 1]);
        self.retired.extend(upper.iter().chain(lower.iter()).map(|s| s.id));
        let bottom = self.levels[level + 2..].iter().all(Vec::is_empty);

        // Materialize per-source entry streams (records + tombstones).
        let mut sources: Vec<Vec<(u64, Option<Vec<u8>>)>> = Vec::new();
        let mut read_done = now;
        for sst in upper.iter().chain(lower.iter()) {
            let (t, entries) = load_entries(flash, sst, now)?;
            read_done = read_done.max(t);
            sources.push(entries);
        }

        // K-way merge, lower source index = newer version wins.
        let mut cursors = vec![0usize; sources.len()];
        let merged_cap: usize = sources.iter().map(Vec::len).sum();
        let mut merged: Vec<(u64, Option<Vec<u8>>)> = Vec::with_capacity(merged_cap);
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (i, src) in sources.iter().enumerate() {
                if let Some(&(k, _)) = src.get(cursors[i]) {
                    best = match best {
                        None => Some((k, i)),
                        Some((bk, _)) if k < bk => Some((k, i)),
                        // Equal keys: keep the earlier (newer) source.
                        Some((bk, bi)) if k == bk && i < bi => Some((k, bi.min(i))),
                        keep => keep,
                    };
                }
            }
            let Some((key, winner)) = best else { break };
            for (i, src) in sources.iter().enumerate() {
                if src.get(cursors[i]).is_some_and(|&(k, _)| k == key) {
                    if i == winner {
                        let (_, entry) = &src[cursors[i]];
                        merged.push((key, entry.clone()));
                    }
                    cursors[i] += 1;
                }
            }
        }

        // Emit the merged run, splitting into bounded SSTs.
        let out_level = level + 1;
        let max_records_per_sst = (self.cfg.block_bytes / self.record_bytes).max(1) * 64;
        let mut out_ssts = Vec::new();
        let mut builder: Option<SstBuilder> = None;
        let mut in_current = 0usize;
        let mut done = read_done;
        for (key, entry) in merged {
            match entry {
                Some(rec) => {
                    let b = builder.get_or_insert_with(|| {
                        let id = self.next_sst_id;
                        self.next_sst_id += 1;
                        SstBuilder::new(
                            id,
                            out_level + 1, // placement level (1-based)
                            self.record_bytes,
                            self.cfg.block_bytes,
                            &self.table,
                        )
                    });
                    b.add_record(key, &rec)?;
                    in_current += 1;
                }
                None => {
                    if !bottom {
                        let b = builder.get_or_insert_with(|| {
                            let id = self.next_sst_id;
                            self.next_sst_id += 1;
                            SstBuilder::new(
                                id,
                                out_level + 1,
                                self.record_bytes,
                                self.cfg.block_bytes,
                                &self.table,
                            )
                        });
                        b.add_tombstone(key);
                        in_current += 1;
                    }
                    // At the bottom level tombstones are purged.
                }
            }
            if in_current >= max_records_per_sst {
                // `in_current > 0` implies a builder was just inserted
                // above; losing it here is an internal invariant break,
                // surfaced as a typed error rather than a panic mid-
                // compaction.
                let b = builder.take().ok_or_else(|| {
                    NkvError::Config(format!(
                        "compaction of `{}` L{level} lost its SST builder mid-merge",
                        self.table
                    ))
                })?;
                let (meta, t) = b.finish(flash, alloc, read_done)?;
                done = done.max(t);
                out_ssts.push(meta);
                in_current = 0;
            }
        }
        if let Some(b) = builder {
            let (meta, t) = b.finish(flash, alloc, read_done)?;
            done = done.max(t);
            out_ssts.push(meta);
        }
        self.levels[out_level] = out_ssts;
        Ok(done)
    }

    /// Per-level SST metadata (read-only view for persistence).
    pub fn levels(&self) -> &[Vec<SstMeta>] {
        &self.levels
    }

    /// Drain the SST ids retired by compactions since the last drain.
    /// The caller (the DB maintenance loop) evicts them from the device
    /// block cache; the list is empty when nothing was retired.
    pub fn take_retired(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.retired)
    }

    /// Rebuild a tree from recovered SST metadata (`(level, meta)` pairs
    /// in recency order per level; the memtable starts empty — volatile
    /// state does not survive a power cycle).
    pub fn from_recovered(
        table: &str,
        record_bytes: usize,
        cfg: LsmConfig,
        seed: u64,
        recovered: Vec<(u32, SstMeta)>,
    ) -> Self {
        let mut tree = Self::new(table, record_bytes, cfg, seed);
        if let Some((_, first)) = recovered.first() {
            tree.set_id_namespace(first.id >> SST_ID_NAMESPACE_SHIFT);
        }
        for (level, meta) in recovered {
            let bulk = meta.id & ((1 << SST_ID_NAMESPACE_SHIFT) - 1) > BULK_SST_ID_BASE;
            let next = if bulk { &mut tree.next_bulk_sst_id } else { &mut tree.next_sst_id };
            *next = (*next).max(meta.id + 1);
            let level = (level as usize).min(tree.levels.len() - 1);
            tree.levels[level].push(meta);
        }
        tree
    }

    /// Install a bulk-loaded SST directly into `C2` (sorted ingest path;
    /// the caller guarantees keys do not overlap previously installed
    /// bulk SSTs, which the strictly-ascending builder enforces within
    /// one load).
    pub fn install_bulk_sst(&mut self, meta: SstMeta) {
        self.levels[1].push(meta);
    }

    /// Memtable lookup.
    pub fn memtable_get(&self, key: u64) -> Option<&Entry> {
        self.memtable.get(key)
    }

    /// SSTs a GET for `key` must consult, in recency order: every
    /// matching `C1` SST (newest first), then at most one per deeper
    /// level.
    pub fn candidate_ssts(&self, key: u64) -> Vec<&SstMeta> {
        let mut out = Vec::new();
        for sst in &self.levels[0] {
            if key >= sst.min_key && key <= sst.max_key {
                out.push(sst);
            }
        }
        for level in &self.levels[1..] {
            if let Some(sst) = level.iter().find(|s| key >= s.min_key && key <= s.max_key) {
                out.push(sst);
            }
        }
        out
    }

    /// All SSTs in recency order (for SCAN).
    pub fn all_ssts(&self) -> Vec<&SstMeta> {
        let mut out: Vec<&SstMeta> = self.levels[0].iter().collect();
        for level in &self.levels[1..] {
            out.extend(level.iter());
        }
        out
    }

    /// SSTs strictly newer than `rank` in the recency order of
    /// [`Self::all_ssts`] (used by the scan shadow check).
    pub fn ssts_newer_than(&self, rank: usize) -> Vec<&SstMeta> {
        self.all_ssts().into_iter().take(rank).collect()
    }

    /// Number of SSTs per level (diagnostics).
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(Vec::len).collect()
    }

    /// Total records across all SSTs (including shadowed versions).
    pub fn persistent_records(&self) -> u64 {
        self.levels.iter().flatten().map(|s| s.n_records).sum()
    }

    /// True if any live SST references physical page `addr` — as a data
    /// page or as an index page. Used by read-repair to decide whether a
    /// degrading page still holds reachable data.
    pub fn references_page(&self, addr: PhysAddr) -> bool {
        self.levels.iter().flatten().any(|sst| {
            sst.index_pages.contains(&addr) || sst.blocks.iter().any(|b| b.pages.contains(&addr))
        })
    }

    /// Rewire every reference to page `old` so it points at `new`
    /// (read-repair relocation after the payload was copied). Returns the
    /// ids of SSTs whose *data-block* page lists changed — those SSTs'
    /// on-flash index blocks are now stale and must be rewritten via
    /// [`Self::rewrite_index`]. Index-page moves only touch in-memory
    /// metadata (and the manifest, which the caller re-persists).
    pub fn relocate_page(&mut self, old: PhysAddr, new: PhysAddr) -> Vec<u64> {
        let mut stale = Vec::new();
        for sst in self.levels.iter_mut().flatten() {
            let mut data_changed = false;
            for block in &mut sst.blocks {
                for p in &mut block.pages {
                    if *p == old {
                        *p = new;
                        data_changed = true;
                    }
                }
            }
            for p in &mut sst.index_pages {
                if *p == old {
                    *p = new;
                }
            }
            if data_changed {
                stale.push(sst.id);
            }
        }
        stale
    }

    /// Re-serialize the index block of SST `sst_id` to freshly allocated
    /// pages (the bump allocator never reuses pages, so the old index
    /// stays readable until the manifest is re-persisted). No-op for an
    /// unknown id. Returns the completion time.
    pub fn rewrite_index(
        &mut self,
        flash: &mut FlashArray,
        alloc: &mut PageAllocator,
        sst_id: u64,
        now: SimNs,
    ) -> NkvResult<SimNs> {
        let page_bytes = flash.config().page_bytes as usize;
        let Some(sst) = self.levels.iter_mut().flatten().find(|s| s.id == sst_id) else {
            return Ok(now);
        };
        let bytes = serialize_index(sst);
        let n_pages = bytes.len().div_ceil(page_bytes).max(1);
        let pages = alloc.alloc_block(sst.level, n_pages).ok_or(NkvError::OutOfSpace)?;
        let mut done = now;
        for (i, &p) in pages.iter().enumerate() {
            let start = i * page_bytes;
            let end = (start + page_bytes).min(bytes.len());
            let slice = if start < bytes.len() { &bytes[start..end] } else { &[][..] };
            done = done.max(flash.program_page(p, slice, now)?);
        }
        sst.index_pages = pages;
        Ok(done)
    }
}

/// Entry stream of one SST: `(key, record-or-tombstone)` in key order.
type EntryStream = Vec<(u64, Option<Vec<u8>>)>;

/// Load all entries of an SST in key order (records + tombstones merged).
fn load_entries(
    flash: &mut FlashArray,
    sst: &SstMeta,
    now: SimNs,
) -> NkvResult<(SimNs, EntryStream)> {
    let mut recs: Vec<(u64, Option<Vec<u8>>)> = Vec::with_capacity(sst.n_records as usize);
    let mut done = now;
    for i in 0..sst.blocks.len() {
        // Transient read faults must not abort a flush/compaction merge
        // (which has already detached its input levels) — retry a few
        // times; anything persistent still propagates.
        let mut attempt = 0u32;
        let (t, data) = loop {
            match read_block(flash, sst, i, now) {
                Ok(x) => break x,
                Err(NkvError::Flash(e)) if e.is_retryable() && attempt < 4 => attempt += 1,
                Err(e) => return Err(e),
            }
        };
        done = done.max(t);
        for chunk in data.chunks_exact(sst.record_bytes) {
            let key = crate::util::le_u64(chunk, 0, "SST record key during merge")?;
            recs.push((key, Some(chunk.to_vec())));
        }
    }
    // Merge tombstones (both lists are sorted; an SST never holds both a
    // record and a tombstone for the same key — the memtable collapses
    // them before flush).
    let mut out = Vec::with_capacity(recs.len() + sst.tombstones.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < recs.len() || j < sst.tombstones.len() {
        let take_rec = match (recs.get(i), sst.tombstones.get(j)) {
            (Some((rk, _)), Some(tk)) => rk < tk,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_rec {
            out.push(recs[i].clone());
            i += 1;
        } else {
            out.push((sst.tombstones[j], None));
            j += 1;
        }
    }
    Ok((done, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sst::search_block;
    use cosmos_sim::FlashConfig;

    const REC: usize = 20;

    fn rec(key: u64, tag: u8) -> Vec<u8> {
        let mut v = key.to_le_bytes().to_vec();
        v.resize(REC, tag);
        v
    }

    struct Fixture {
        flash: FlashArray,
        alloc: PageAllocator,
        lsm: LsmTree,
    }

    fn fixture() -> Fixture {
        let flash = FlashArray::new(FlashConfig::default());
        let alloc = PageAllocator::new(flash.config());
        let cfg = LsmConfig { memtable_bytes: 16 * 1024, ..LsmConfig::default() };
        let lsm = LsmTree::new("t", REC, cfg, 7);
        Fixture { flash, alloc, lsm }
    }

    /// Full GET through the fixture (memtable, then SSTs in recency
    /// order) — the reference read path used by these tests.
    fn get(fx: &mut Fixture, key: u64) -> Option<Vec<u8>> {
        match fx.lsm.memtable_get(key) {
            Some(Entry::Value(v)) => return Some(v.clone()),
            Some(Entry::Tombstone) => return None,
            None => {}
        }
        let ssts: Vec<SstMeta> = fx.lsm.candidate_ssts(key).into_iter().cloned().collect();
        for sst in ssts {
            if sst.is_tombstoned(key) {
                return None;
            }
            if !sst.may_contain(key) {
                continue;
            }
            if let Some(bi) = sst.block_for(key) {
                let (_, data) = read_block(&mut fx.flash, &sst, bi, 0).unwrap();
                if let Some(r) = search_block(&data, REC, key).unwrap() {
                    return Some(r.to_vec());
                }
            }
        }
        None
    }

    #[test]
    fn put_get_through_memtable() {
        let mut fx = fixture();
        fx.lsm.put(42, rec(42, 1));
        assert_eq!(get(&mut fx, 42), Some(rec(42, 1)));
        assert_eq!(get(&mut fx, 43), None);
    }

    #[test]
    fn flush_moves_data_to_c1_and_preserves_gets() {
        let mut fx = fixture();
        for k in 1..=500u64 {
            fx.lsm.put(k, rec(k, 1));
        }
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        assert_eq!(fx.lsm.memtable().len(), 0);
        assert_eq!(fx.lsm.level_sizes()[0], 1);
        for k in [1u64, 250, 500] {
            assert_eq!(get(&mut fx, k), Some(rec(k, 1)));
        }
        assert_eq!(get(&mut fx, 501), None);
    }

    #[test]
    fn newer_flush_shadows_older_version() {
        let mut fx = fixture();
        fx.lsm.put(7, rec(7, 1));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.put(7, rec(7, 2));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        // Two SSTs in C1, both holding key 7; the newest version wins.
        assert_eq!(fx.lsm.level_sizes()[0], 2);
        assert_eq!(get(&mut fx, 7), Some(rec(7, 2)));
        assert_eq!(fx.lsm.persistent_records(), 2, "no compaction on flush");
    }

    #[test]
    fn tombstone_shadows_flushed_value() {
        let mut fx = fixture();
        fx.lsm.put(9, rec(9, 1));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.delete(9);
        assert_eq!(get(&mut fx, 9), None, "memtable tombstone shadows");
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        assert_eq!(get(&mut fx, 9), None, "flushed tombstone shadows");
    }

    #[test]
    fn should_flush_reflects_memtable_size() {
        let mut fx = fixture();
        assert!(!fx.lsm.should_flush());
        for k in 0..2000u64 {
            fx.lsm.put(k, rec(k, 0));
        }
        assert!(fx.lsm.should_flush());
    }

    #[test]
    fn compaction_merges_newest_wins_and_purges() {
        let mut fx = fixture();
        // Three generations of key 5, latest deleted.
        fx.lsm.put(5, rec(5, 1));
        fx.lsm.put(6, rec(6, 1));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.put(5, rec(5, 2));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.delete(6);
        fx.lsm.put(8, rec(8, 3));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();

        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 0, 0).unwrap();
        assert_eq!(fx.lsm.level_sizes()[0], 0);
        assert_eq!(fx.lsm.level_sizes()[1], 1);
        // Outdated version of 5 purged; 6's tombstone purged at bottom.
        assert_eq!(fx.lsm.persistent_records(), 2); // keys 5 and 8
        assert_eq!(get(&mut fx, 5), Some(rec(5, 2)));
        assert_eq!(get(&mut fx, 6), None);
        assert_eq!(get(&mut fx, 8), Some(rec(8, 3)));
    }

    #[test]
    fn compaction_above_populated_levels_keeps_tombstones() {
        let mut fx = fixture();
        // Seed the bottom: key 6 lives in level 2 (via two compactions).
        fx.lsm.put(6, rec(6, 1));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 0, 0).unwrap();
        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 1, 0).unwrap();
        assert_eq!(fx.lsm.level_sizes()[2], 1);
        // Now delete 6 and compact only C1 into C2.
        fx.lsm.delete(6);
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 0, 0).unwrap();
        // The tombstone must survive in level 1 to shadow level 2.
        assert_eq!(get(&mut fx, 6), None);
        // ... and a further compaction to the bottom purges everything.
        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 1, 0).unwrap();
        assert_eq!(get(&mut fx, 6), None);
        assert_eq!(fx.lsm.persistent_records(), 0);
    }

    #[test]
    fn compaction_splits_oversized_merges_without_losing_the_builder() {
        // Regression for the split point in `compact`: it used to
        // `unwrap()` the SST builder when an output run crossed the
        // per-SST record cap (now a typed invariant error). Drive a
        // merge across several split boundaries and verify the
        // multi-SST output serves every record.
        let mut fx = fixture();
        // 64-byte blocks -> 3 records per block -> 192 records per
        // output SST, so 500 records split into three SSTs.
        let cfg = LsmConfig { memtable_bytes: 16 * 1024, block_bytes: 64, ..LsmConfig::default() };
        fx.lsm = LsmTree::new("t", REC, cfg, 7);
        for k in 1..=500u64 {
            fx.lsm.put(k, rec(k, 1));
        }
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 0, 0).unwrap();
        assert!(
            fx.lsm.level_sizes()[1] >= 3,
            "merge must split into multiple SSTs: {:?}",
            fx.lsm.level_sizes()
        );
        for k in [1u64, 192, 193, 384, 385, 500] {
            assert_eq!(get(&mut fx, k), Some(rec(k, 1)), "key {k}");
        }
    }

    #[test]
    fn compaction_retires_its_input_ssts() {
        let mut fx = fixture();
        fx.lsm.put(1, rec(1, 1));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.put(2, rec(2, 1));
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        let mut inputs: Vec<u64> = fx.lsm.all_ssts().iter().map(|s| s.id).collect();
        inputs.sort_unstable();
        assert!(fx.lsm.take_retired().is_empty(), "flush retires nothing");
        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 0, 0).unwrap();
        let mut retired = fx.lsm.take_retired();
        retired.sort_unstable();
        assert_eq!(retired, inputs, "both compaction inputs are retired");
        assert!(fx.lsm.take_retired().is_empty(), "drain empties the list");
    }

    #[test]
    fn candidate_ssts_orders_by_recency() {
        let mut fx = fixture();
        for gen in 0..3u8 {
            fx.lsm.put(10, rec(10, gen));
            fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        }
        let cands = fx.lsm.candidate_ssts(10);
        assert_eq!(cands.len(), 3);
        // Newest flush has the highest SST id and must come first.
        assert!(cands[0].id > cands[1].id && cands[1].id > cands[2].id);
    }

    #[test]
    fn random_workload_matches_btreemap_model() {
        let mut rng = ndp_workload::SplitMix64::new(0xFEED);
        let mut fx = fixture();
        let mut model = std::collections::BTreeMap::new();
        for step in 0..3000u32 {
            let key = rng.gen_range_u64(1, 200);
            if rng.gen_bool(0.8) {
                let r = rec(key, (step % 251) as u8);
                fx.lsm.put(key, r.clone());
                model.insert(key, r);
            } else {
                fx.lsm.delete(key);
                model.remove(&key);
            }
            if fx.lsm.should_flush() {
                fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
            }
            if fx.lsm.should_compact(0) {
                fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 0, 0).unwrap();
            }
        }
        for key in 1..200u64 {
            assert_eq!(get(&mut fx, key), model.get(&key).cloned(), "key {key}");
        }
    }

    #[test]
    fn all_ssts_recency_covers_every_level() {
        let mut fx = fixture();
        for k in 1..=100u64 {
            fx.lsm.put(k, rec(k, 1));
        }
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        fx.lsm.compact(&mut fx.flash, &mut fx.alloc, 0, 0).unwrap();
        for k in 101..=200u64 {
            fx.lsm.put(k, rec(k, 2));
        }
        fx.lsm.flush(&mut fx.flash, &mut fx.alloc, 0).unwrap();
        let all = fx.lsm.all_ssts();
        assert_eq!(all.len(), 2);
        assert!(all[0].level <= 1, "C1 SSTs come before deeper levels");
        assert_eq!(fx.lsm.ssts_newer_than(1).len(), 1);
        assert_eq!(fx.lsm.ssts_newer_than(0).len(), 0);
    }
}
