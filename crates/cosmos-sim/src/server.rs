//! Queueing primitives: gap-aware servers and bandwidth links.
//!
//! All platform resources (flash LUNs, channel buses, controller
//! queues, the DRAM port, the ARM core, the NVMe link, the PEs) are
//! modeled as single servers with a gap-aware resource timeline:
//! reservations are kept as disjoint busy intervals, and a job arriving
//! at `t` starts at the first point at or after `t` where the resource
//! is free for its whole service time. This is the classic "resource
//! timeline" discrete-event style — deterministic and exact for the
//! pipelined bulk transfers that dominate the paper's workloads.
//!
//! There is one scheduling rule for every caller. Gaps matter whenever
//! jobs are *expanded* out of arrival order, which happens on the
//! serial path as well as under queued load:
//! - a serial hardware scan issues every flash read at op start, so
//!   block `k+1`'s DRAM staging arrives at the DRAM port before block
//!   `k`'s PE store does; the store fits in the idle gap in front of
//!   the staging transfer instead of queueing behind it;
//! - parallel PE streams and batched GETs expand per-worker / per-key
//!   chains one after another that overlap in simulated time;
//! - queued commands touch the ARM core at op start (memtable probe)
//!   and again at PE configuration, so command N+1's probe must be able
//!   to run before command N's later configuration write.
//!
//! A strict `max(arrival, busy_until)` conveyor would idle the resource
//! in each of those gaps.

use crate::SimNs;
use std::collections::VecDeque;

/// Cap on remembered busy intervals per server. When exceeded, the
/// oldest interval is folded into a "no job before here" floor — the
/// distant past is treated as solid, which only forbids backfilling
/// into gaps nobody will reach and keeps memory bounded on long runs.
const MAX_TRACKED_INTERVALS: usize = 512;

/// A single resource with a gap-aware, first-fit timeline.
#[derive(Debug, Clone, Default)]
pub struct Server {
    /// Disjoint busy intervals `(start, end)`, sorted by start and
    /// coalesced when abutting.
    reserved: VecDeque<(SimNs, SimNs)>,
    /// No job may be placed before this time (pruned-history horizon).
    floor: SimNs,
    /// Total busy time accumulated (for utilization reporting).
    busy_total: SimNs,
}

impl Server {
    /// A server idle since time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a job arriving at `arrival` with the given service
    /// `duration`: the job starts at the first instant `>= arrival`
    /// where the resource is continuously free for `duration`.
    /// Returns `(start, finish)`.
    pub fn schedule(&mut self, arrival: SimNs, duration: SimNs) -> (SimNs, SimNs) {
        let mut start = arrival.max(self.floor);
        // The intervals are sorted and disjoint, so their ends are
        // sorted too: skip every reservation over by `start` in
        // O(log n), then walk forward only past those the job
        // overlaps.
        let mut idx = self.reserved.partition_point(|&(_, e)| e <= start);
        while let Some(&(s, e)) = self.reserved.get(idx) {
            if start + duration <= s {
                break;
            }
            start = e;
            idx += 1;
        }
        let finish = start + duration;
        self.insert_at(idx, start, finish);
        self.busy_total += duration;
        while self.reserved.len() > MAX_TRACKED_INTERVALS {
            if let Some((_, e)) = self.reserved.pop_front() {
                self.floor = e;
            }
        }
        (start, finish)
    }

    /// Insert `(start, finish)` before index `idx`, coalescing with
    /// abutting neighbors so dense timelines stay short.
    fn insert_at(&mut self, idx: usize, start: SimNs, finish: SimNs) {
        if start == finish {
            return; // zero-length jobs reserve nothing
        }
        let joins_prev = idx > 0 && self.reserved[idx - 1].1 == start;
        let joins_next = idx < self.reserved.len() && self.reserved[idx].0 == finish;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.reserved[idx - 1].1 = self.reserved[idx].1;
                self.reserved.remove(idx);
            }
            (true, false) => self.reserved[idx - 1].1 = finish,
            (false, true) => self.reserved[idx].0 = start,
            (false, false) => self.reserved.insert(idx, (start, finish)),
        }
    }

    /// Total time this server has been busy.
    pub fn busy_total(&self) -> SimNs {
        self.busy_total
    }

    /// Utilization over the horizon `[0, now]`.
    pub fn utilization(&self, now: SimNs) -> f64 {
        if now == 0 {
            0.0
        } else {
            self.busy_total as f64 / now as f64
        }
    }
}

/// A server whose service time is proportional to the transferred bytes.
#[derive(Debug, Clone)]
pub struct BandwidthLink {
    server: Server,
    /// Picoseconds per byte (ps keeps sub-ns rates exact in integers).
    ps_per_byte: u64,
    bytes_total: u64,
}

impl BandwidthLink {
    /// Create a link with the given throughput in bytes per second.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0);
        Self {
            server: Server::new(),
            ps_per_byte: (1e12 / bytes_per_sec).round() as u64,
            bytes_total: 0,
        }
    }

    /// Service duration for `bytes`.
    pub fn duration_for(&self, bytes: u64) -> SimNs {
        (bytes * self.ps_per_byte).div_ceil(1000)
    }

    /// Schedule a transfer of `bytes` arriving at `arrival`;
    /// returns `(start, finish)`.
    pub fn transfer(&mut self, arrival: SimNs, bytes: u64) -> (SimNs, SimNs) {
        self.bytes_total += bytes;
        let d = self.duration_for(bytes);
        self.server.schedule(arrival, d)
    }

    /// Total bytes moved over this link.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }

    /// Total time this link has been busy serving transfers.
    pub fn busy_total(&self) -> SimNs {
        self.server.busy_total()
    }

    /// Link utilization over `[0, now]`.
    pub fn utilization(&self, now: SimNs) -> f64 {
        self.server.utilization(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultRng;

    #[test]
    fn fcfs_back_to_back() {
        let mut s = Server::new();
        assert_eq!(s.schedule(0, 10), (0, 10));
        assert_eq!(s.schedule(3, 5), (10, 15), "second job queues behind the first");
        assert_eq!(s.schedule(100, 5), (100, 105), "idle gap is not consumed");
        assert_eq!(s.busy_total(), 20);
    }

    #[test]
    fn backfill_uses_idle_gaps_between_reservations() {
        let mut s = Server::new();
        s.schedule(0, 15); // [0, 15)
        s.schedule(100, 5); // [100, 105)
                            // A job arriving in the gap fits there instead of queueing
                            // behind the future reservation.
        assert_eq!(s.schedule(16, 2), (16, 18), "gap accepts the job");
        // One that does not fit before the next reservation queues
        // behind it.
        assert_eq!(s.schedule(20, 90), (105, 195), "oversized job skips the gap");
        assert_eq!(s.busy_total(), 15 + 5 + 2 + 90);
    }

    #[test]
    fn abutting_reservations_coalesce() {
        let mut s = Server::new();
        for i in 0..10 * MAX_TRACKED_INTERVALS as u64 {
            s.schedule(i * 10, 10);
        }
        // Back-to-back jobs merge into one interval, so dense timelines
        // never hit the pruning cap.
        let end = 10 * MAX_TRACKED_INTERVALS as u64 * 10;
        assert_eq!(s.reserved.len(), 1);
        assert_eq!(s.schedule(3, 4), (end, end + 4));
    }

    #[test]
    fn pruning_bounds_memory_and_stays_causal() {
        let mut s = Server::new();
        // Sparse jobs (gaps never abut) force interval growth past the
        // cap; the oldest gaps become unusable but scheduling after the
        // horizon is unaffected.
        for i in 0..2 * MAX_TRACKED_INTERVALS as u64 {
            s.schedule(i * 100, 1);
        }
        assert_eq!(s.reserved.len(), MAX_TRACKED_INTERVALS);
        let floor = s.floor;
        assert!(floor > 50);
        assert_eq!(s.schedule(50, 1), (floor, floor + 1), "pruned gaps are solid");
        let tail = s.reserved.back().map_or(s.floor, |&(_, e)| e);
        let (start, finish) = s.schedule(tail + 50, 1);
        assert_eq!((start, finish), (tail + 50, tail + 51));
    }

    /// Brute-force first fit: tries every candidate start (the arrival
    /// and every reservation end after it) in order against every
    /// reservation, then re-sorts and re-coalesces the whole list. Same
    /// placement rule and pruning floor as [`Server`], none of its
    /// index arithmetic.
    #[derive(Default)]
    struct Reference {
        reserved: Vec<(SimNs, SimNs)>,
        floor: SimNs,
        busy_total: SimNs,
    }

    impl Reference {
        fn schedule(&mut self, arrival: SimNs, duration: SimNs) -> (SimNs, SimNs) {
            let lo = arrival.max(self.floor);
            let mut candidates: Vec<SimNs> =
                self.reserved.iter().map(|&(_, e)| e).filter(|&e| e > lo).collect();
            candidates.insert(0, lo);
            let fits = |c: SimNs| self.reserved.iter().all(|&(s, e)| c + duration <= s || e <= c);
            let start = candidates.into_iter().find(|&c| fits(c)).expect("the tail always fits");
            let finish = start + duration;
            if duration > 0 {
                self.reserved.push((start, finish));
                self.reserved.sort_unstable();
                let mut merged: Vec<(SimNs, SimNs)> = Vec::new();
                for &(s, e) in &self.reserved {
                    match merged.last_mut() {
                        Some(last) if last.1 == s => last.1 = e,
                        _ => merged.push((s, e)),
                    }
                }
                self.reserved = merged;
            }
            while self.reserved.len() > MAX_TRACKED_INTERVALS {
                self.floor = self.reserved.remove(0).1;
            }
            self.busy_total += duration;
            (start, finish)
        }
    }

    /// Seeded property: `schedule` equals the brute-force reference job
    /// for job — placement, interval list, floor and busy total — over
    /// non-monotone arrivals, zero-length jobs, gap-filling jobs that
    /// coalesce both neighbours, and runs long enough to prune past the
    /// interval cap.
    #[test]
    fn prop_schedule_matches_first_fit_reference() {
        let (mut backfilled, mut zero, mut bridged, mut pruned) = (0, 0, 0, 0);
        for seed in 0..24u64 {
            let mut rng = FaultRng::stream(seed, 0x5e7);
            let mut server = Server::new();
            let mut model = Reference::default();
            // Every eighth run is long and sparse enough to outgrow
            // the interval cap; the rest are dense and gap-heavy.
            let (jobs, step) = if seed % 8 == 0 { (3_000, 200) } else { (300, 50) };
            let mut cursor: SimNs = 0;
            for job in 0..jobs {
                cursor += rng.gen_u64(step);
                // Arrivals wander up to 400 ns behind the cursor, so
                // later jobs often arrive before earlier reservations.
                let mut arrival = cursor.saturating_sub(rng.gen_u64(400));
                let mut duration = match rng.gen_u64(8) {
                    0 => 0,
                    _ => 1 + rng.gen_u64(40),
                };
                // Every fourth job (when a gap exists) exactly fills
                // the gap after a random reservation.
                if rng.gen_u64(4) == 0 && model.reserved.len() >= 2 {
                    let i = rng.gen_u64(model.reserved.len() as u64 - 1) as usize;
                    arrival = model.reserved[i].1;
                    duration = model.reserved[i + 1].0 - arrival;
                }
                let tail = model.reserved.last().map_or(0, |&(_, e)| e);
                let before = model.reserved.len();
                let got = server.schedule(arrival, duration);
                let want = model.schedule(arrival, duration);
                assert_eq!(got, want, "seed {seed} job {job}: arrival {arrival} +{duration}");
                assert_eq!(
                    server.reserved.iter().copied().collect::<Vec<_>>(),
                    model.reserved,
                    "seed {seed} job {job}: interval lists diverge"
                );
                assert_eq!(server.floor, model.floor, "seed {seed} job {job}");
                assert_eq!(server.busy_total(), model.busy_total, "seed {seed} job {job}");
                assert!(got.0 >= arrival, "no job starts before it arrives");
                zero += usize::from(duration == 0);
                backfilled += usize::from(duration > 0 && got.1 <= tail);
                bridged += usize::from(duration > 0 && model.reserved.len() + 1 == before);
            }
            pruned += usize::from(model.floor > 0);
        }
        assert!(backfilled > 100, "only {backfilled} jobs landed in gaps");
        assert!(zero > 100, "only {zero} zero-length jobs");
        assert!(bridged > 100, "only {bridged} jobs coalesced both neighbours");
        assert!(pruned >= 3, "only {pruned} runs pruned past the interval cap");
    }

    #[test]
    fn utilization_accounts_busy_fraction() {
        let mut s = Server::new();
        s.schedule(0, 50);
        assert!((s.utilization(100) - 0.5).abs() < 1e-12);
        assert_eq!(s.utilization(0), 0.0);
    }

    #[test]
    fn bandwidth_link_duration_is_proportional() {
        let mut l = BandwidthLink::new(200e6); // 200 MB/s
        assert_eq!(l.duration_for(200_000_000), 1_000_000_000);
        let (s0, f0) = l.transfer(0, 32 * 1024);
        assert_eq!(s0, 0);
        assert_eq!(f0, 163_840); // 32 KiB at 5 ns/B
        let (s1, _) = l.transfer(0, 1);
        assert_eq!(s1, f0, "transfers serialize on the link");
        assert_eq!(l.bytes_total(), 32 * 1024 + 1);
    }

    #[test]
    fn sub_ns_rates_accumulate_without_drift() {
        // 1.6 GB/s → 0.625 ns per byte; 8-byte beats must not round to 0.
        let mut l = BandwidthLink::new(1.6e9);
        let (_, f) = l.transfer(0, 8);
        assert_eq!(f, 5);
    }
}
