//! Multi-tenant queued command execution.
//!
//! The serial [`NkvDb`] API issues one operation at a time: each op
//! starts at the device clock and the clock jumps to its end, so two
//! clients can never overlap on the device — the "millions of users"
//! regime the paper's near-data PEs exist for has no code path. This
//! module adds it: [`NkvDb::run_queued`] admits a *window* of in-flight
//! GET/SCAN/PUT commands per client through the platform's NVMe queue
//! pairs ([`cosmos_sim::queue`]) and dispatches them onto the shared
//! FCFS resource timelines (flash channels/LUNs, PE pool, ARM, DRAM
//! port, NVMe link). Commands that touch disjoint resources overlap and
//! may complete out of submission order; commands that contend queue up
//! exactly as the hardware would.
//!
//! The engine is a closed-loop scheduler in simulated time. Every
//! client starts with `depth` commands outstanding; when one completes,
//! the client submits its next. Dispatch order is a deterministic
//! min-heap on `(submit_ns, client, seq)`, and because each command is
//! expanded on the timeline the moment it is popped, submission times
//! seen by the FCFS servers are monotonically non-decreasing — the run
//! is exactly reproducible for a given database state and script set.
//!
//! With one client at depth 1 the engine degenerates to the serial
//! path: every command begins after the previous one fully completed,
//! so per-command execution times equal the serial API's `SimReport`
//! times exactly (asserted in `tests/queue_engine.rs`).

use crate::db::{off_plan, NkvDb};
use crate::error::{NkvError, NkvResult};
use crate::metrics::{LatencyHistogram, OpKind};
use crate::plan::{Backend, LogicalOp, PlanOutcome};
use cosmos_sim::queue::{NvmeQueueConfig, QueueStats};
use cosmos_sim::{ns_to_secs, SimNs};
use ndp_pe::oracle::FilterRule;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One queued command.
#[derive(Debug, Clone)]
pub enum QueuedOp {
    /// Point lookup.
    Get { key: u64 },
    /// Predicate SCAN over the whole table.
    Scan { rules: Vec<FilterRule> },
    /// Insert/update one record (key = first 8 bytes, little endian).
    Put { record: Vec<u8> },
}

/// Scheduling class of one client's commands (QoS). Dispatch is a
/// deterministic min-heap on `(submit_ns, priority rank, client, seq)`:
/// among commands ready at the same instant, a higher class is expanded
/// onto the device timelines first, so latency-sensitive GETs overtake
/// bulk analytics scans *at dispatch* while per-client FIFO order (the
/// class is per client) and seeded determinism are untouched. A run
/// whose clients are all [`Priority::Normal`] orders exactly like the
/// pre-QoS engine, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive foreground work (point lookups).
    High,
    /// The default class; alone, it reproduces the legacy FIFO order.
    #[default]
    Normal,
    /// Background/bulk analytics that may yield to the other classes.
    Bulk,
}

impl Priority {
    /// Heap rank: lower dispatches first at equal submit times.
    pub(crate) fn rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Bulk => 2,
        }
    }

    /// Render name (bench tables).
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Bulk => "bulk",
        }
    }
}

/// The ordered command list one client will issue.
#[derive(Debug, Clone, Default)]
pub struct ClientScript {
    pub ops: Vec<QueuedOp>,
    /// QoS class applied to every command of this client.
    pub priority: Priority,
}

/// Parameters of one queued run.
#[derive(Debug, Clone)]
pub struct QueueRunConfig {
    /// Per-client window: commands kept in flight by each client.
    pub depth: u32,
    /// Execution mode for GET/SCAN (hardware PEs or ARM software).
    pub mode: Backend,
    /// NVMe queue geometry exposed by the controller for the run.
    pub queues: NvmeQueueConfig,
    /// Auto-batching limit: up to this many *adjacent* queued GETs of
    /// one client are folded into a single batched-GET physical op (one
    /// key-list descriptor, one PE configuration, coalesced doorbells).
    /// `1` (the default) disables folding — the run takes the legacy
    /// per-command code path, bit for bit.
    pub batch: u32,
}

impl Default for QueueRunConfig {
    fn default() -> Self {
        Self { depth: 8, mode: Backend::Hardware, queues: NvmeQueueConfig::default(), batch: 1 }
    }
}

/// Everything known about one completed command.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandRecord {
    pub client: u32,
    /// Index into the client's script.
    pub seq: u32,
    /// Queue pair the command went through.
    pub qid: u16,
    pub kind: OpKind,
    /// When the client rang the SQ doorbell (after any full-queue stall).
    pub submit_ns: SimNs,
    /// When the controller finished fetching the SQE (execution start).
    pub fetch_ns: SimNs,
    /// When the command's device-side execution finished.
    pub exec_done_ns: SimNs,
    /// When the host observed the completion entry.
    pub complete_ns: SimNs,
    /// Device-side execution time (`exec_done_ns - fetch_ns`).
    pub exec_ns: SimNs,
    /// Result size (GET/SCAN payload or PUT record size).
    pub result_bytes: u64,
    /// GET: the matched record (empty on miss); SCAN: matched records;
    /// PUT: empty.
    pub payload: Vec<u8>,
}

/// Outcome of one [`NkvDb::run_queued`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueRunReport {
    /// Every command, in completion order (ties broken by client, seq).
    pub completions: Vec<CommandRecord>,
    /// Device clock when the run began.
    pub started_ns: SimNs,
    /// Completion time of the last command (equals `started_ns` for an
    /// empty run).
    pub finished_ns: SimNs,
    /// Submit→complete latency across all commands.
    pub latency: LatencyHistogram,
    /// Queue-pair counters summed over the run.
    pub queue: QueueStats,
}

impl QueueRunReport {
    /// Commands completed.
    pub fn ops(&self) -> u64 {
        self.completions.len() as u64
    }

    /// Completed commands per second of simulated time.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        let span = self.finished_ns.saturating_sub(self.started_ns);
        if span == 0 {
            0.0
        } else {
            self.ops() as f64 / ns_to_secs(span)
        }
    }

    /// `(client, seq)` pairs in completion order — the out-of-order
    /// witness used by the determinism tests.
    pub fn completion_order(&self) -> Vec<(u32, u32)> {
        self.completions.iter().map(|c| (c.client, c.seq)).collect()
    }
}

impl NkvDb {
    /// Run every client's script to completion through the NVMe queue
    /// engine, keeping up to `cfg.depth` commands in flight per client.
    /// Returns per-command records merged across clients in completion
    /// order; the device clock advances to the last completion.
    ///
    /// Queue state is created for the run and dropped afterwards, so
    /// serial operations before and after are untouched.
    pub fn run_queued(
        &mut self,
        table: &str,
        scripts: &[ClientScript],
        cfg: &QueueRunConfig,
    ) -> NkvResult<QueueRunReport> {
        if cfg.depth == 0 {
            return Err(NkvError::Config("queue run depth must be at least 1".into()));
        }
        if cfg.batch == 0 {
            return Err(NkvError::Config("queue run batch must be at least 1".into()));
        }
        // A batch larger than one key-list DMA page is legal: the fold
        // clamps each descriptor at the page capacity and the heap's
        // adjacency rule starts the next descriptor where the previous
        // one stopped, byte-identically (see `batch_fold_splits_...`).
        if !self.tables.contains_key(table) {
            return Err(NkvError::UnknownTable(table.into()));
        }
        self.platform.enable_queues(cfg.queues);
        self.set_pe_backfill(table, true);
        let out = self.run_queued_inner(table, scripts, cfg);
        self.set_pe_backfill(table, false);
        self.platform.disable_queues();
        out
    }

    /// Match the table's PE pool to the platform's scheduling mode for
    /// the duration of a queued run (see
    /// `cosmos_sim::Server::set_backfill`).
    fn set_pe_backfill(&mut self, table: &str, on: bool) {
        let t = self.tables.get_mut(table).expect("validated by run_queued");
        for pe in &mut t.exec.pe_servers {
            pe.set_backfill(on);
        }
    }

    fn run_queued_inner(
        &mut self,
        table: &str,
        scripts: &[ClientScript],
        cfg: &QueueRunConfig,
    ) -> NkvResult<QueueRunReport> {
        let started = self.clock;
        // Commands ready to submit: min-heap on (submit time, priority
        // rank, client, seq) — deterministic dispatch, earliest first;
        // at equal times the QoS class breaks the tie, then client and
        // seq keep the order total. All-Normal scripts reduce the key
        // to the legacy (time, client, seq) order.
        let mut ready: BinaryHeap<Reverse<(SimNs, u8, u32, u32)>> = BinaryHeap::new();
        let mut next_seq: Vec<usize> = Vec::with_capacity(scripts.len());
        let rank: Vec<u8> = scripts.iter().map(|s| s.priority.rank()).collect();
        for (c, s) in scripts.iter().enumerate() {
            let window = (cfg.depth as usize).min(s.ops.len());
            for i in 0..window {
                ready.push(Reverse((started, rank[c], c as u32, i as u32)));
            }
            next_seq.push(window);
        }
        let mut completions = Vec::new();
        let mut latency = LatencyHistogram::new();
        let mut cid: u16 = 0;
        while let Some(Reverse((at, prio, client, seq))) = ready.pop() {
            // Auto-batching: fold the client's *adjacent* ready GETs —
            // consecutive seqs, same submit time, distinct keys — into
            // one batched-GET physical op. With `batch == 1` this whole
            // branch is skipped and the run is the legacy path, bit for
            // bit. Adjacency in the heap preserves per-client order: a
            // non-GET, a duplicate key, or a later submit time ends the
            // fold rather than being skipped over.
            if cfg.batch > 1 {
                if let QueuedOp::Get { key } = scripts[client as usize].ops[seq as usize] {
                    let mut seqs = vec![seq];
                    let mut keys = vec![key];
                    // One descriptor never exceeds its DMA page; a
                    // larger `cfg.batch` splits into several folds.
                    let fold_cap =
                        (cfg.batch as usize).min(cosmos_sim::KeyListDescriptor::MAX_KEYS);
                    while keys.len() < fold_cap {
                        let Some(&last_seq) = seqs.last() else { break };
                        let expect = (at, prio, client, last_seq + 1);
                        match ready.peek() {
                            Some(Reverse(e)) if *e == expect => {}
                            _ => break,
                        }
                        let QueuedOp::Get { key: k } =
                            scripts[client as usize].ops[expect.3 as usize]
                        else {
                            break;
                        };
                        if keys.contains(&k) {
                            break;
                        }
                        ready.pop();
                        seqs.push(expect.3);
                        keys.push(k);
                    }
                    if keys.len() > 1 {
                        let n = keys.len();
                        let first_cid = cid;
                        let (qid, submit, fetch) =
                            self.platform.queue_submit_batch(client, first_cid, n as u16, at);
                        cid = cid.wrapping_add(n as u16);
                        let op = LogicalOp::MultiGet { keys };
                        let (PlanOutcome::Batch { results, .. }, dones) =
                            self.execute_at(table, &op, cfg.mode, fetch)?
                        else {
                            return Err(off_plan(table, "batched GET"));
                        };
                        let mut batch_complete = fetch;
                        for (i, (res, exec_done)) in results.into_iter().zip(dones).enumerate() {
                            // A typed per-key error aborts the run, like
                            // the unbatched path's `?` on run_command.
                            let rec = res?;
                            let payload = rec.unwrap_or_default();
                            let complete = self.platform.queue_complete_batched(
                                qid,
                                first_cid.wrapping_add(i as u16),
                                exec_done,
                                i + 1 == n,
                            );
                            self.observe(OpKind::Get, complete - submit, payload.len() as u64);
                            latency.record(complete - submit);
                            completions.push(CommandRecord {
                                client,
                                seq: seqs[i],
                                qid,
                                kind: OpKind::Get,
                                submit_ns: submit,
                                fetch_ns: fetch,
                                exec_done_ns: exec_done,
                                complete_ns: complete,
                                exec_ns: exec_done - fetch,
                                result_bytes: payload.len() as u64,
                                payload,
                            });
                            batch_complete = complete;
                        }
                        // Refill the whole window the batch consumed, at
                        // the batch's last completion — the host drains
                        // the CQ burst at the coalesced doorbell, so the
                        // refills share one submit time and can fold
                        // again next round.
                        let c = client as usize;
                        for _ in 0..n {
                            if next_seq[c] < scripts[c].ops.len() {
                                ready.push(Reverse((
                                    batch_complete,
                                    prio,
                                    client,
                                    next_seq[c] as u32,
                                )));
                                next_seq[c] += 1;
                            }
                        }
                        continue;
                    }
                }
            }
            let op = &scripts[client as usize].ops[seq as usize];
            let (qid, submit, fetch) = self.platform.queue_submit(client, cid, at);
            cid = cid.wrapping_add(1);
            let (kind, exec_done, payload) = self.run_command(table, op, cfg.mode, fetch)?;
            let result_bytes = match op {
                QueuedOp::Put { record } => record.len() as u64,
                _ => payload.len() as u64,
            };
            let complete = self.platform.queue_complete(qid, cid.wrapping_sub(1), exec_done);
            self.observe(kind, complete - submit, result_bytes);
            latency.record(complete - submit);
            completions.push(CommandRecord {
                client,
                seq,
                qid,
                kind,
                submit_ns: submit,
                fetch_ns: fetch,
                exec_done_ns: exec_done,
                complete_ns: complete,
                exec_ns: exec_done - fetch,
                result_bytes,
                payload,
            });
            let c = client as usize;
            if next_seq[c] < scripts[c].ops.len() {
                ready.push(Reverse((complete, prio, client, next_seq[c] as u32)));
                next_seq[c] += 1;
            }
        }
        completions.sort_by_key(|r| (r.complete_ns, r.client, r.seq));
        let finished = completions.last().map_or(started, |r| r.complete_ns);
        self.clock = self.clock.max(finished);
        let queue = self.platform.queues().expect("enabled by run_queued").stats_total();
        Ok(QueueRunReport {
            completions,
            started_ns: started,
            finished_ns: finished,
            latency,
            queue,
        })
    }

    /// Execute one command on the device starting at `now`, returning
    /// `(op kind, device-side end time, result payload)`. Reads go
    /// through [`NkvDb::execute_at`], so validation errors are identical
    /// to the serial path's.
    fn run_command(
        &mut self,
        table: &str,
        op: &QueuedOp,
        mode: Backend,
        now: SimNs,
    ) -> NkvResult<(OpKind, SimNs, Vec<u8>)> {
        let logical = match op {
            QueuedOp::Get { key } => LogicalOp::Get { key: *key },
            QueuedOp::Scan { rules } => LogicalOp::Scan { rules: rules.clone() },
            QueuedOp::Put { record } => {
                let t = self.tables.get_mut(table).expect("validated by run_queued");
                let key = t.checked_key(table, record)?;
                t.lsm.put(key, record.clone());
                // Like the serial path: the memtable insert is free in
                // simulated time, a PUT costs whatever flush/compaction
                // it triggers.
                let done = self.maintain_at(table, now)?;
                return Ok((OpKind::Put, done, Vec::new()));
            }
        };
        match self.execute_at(table, &logical, mode, now)?.0 {
            PlanOutcome::Point { record, report } => {
                Ok((OpKind::Get, now + report.sim_ns, record.unwrap_or_default()))
            }
            PlanOutcome::Records { records, report, .. } => {
                Ok((OpKind::Scan, now + report.sim_ns, records))
            }
            _ => Err(off_plan(table, "queued read")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_zero_is_rejected() {
        let mut db = NkvDb::default_db();
        let cfg = QueueRunConfig { depth: 0, ..QueueRunConfig::default() };
        assert!(db.run_queued("t", &[], &cfg).is_err());
    }

    #[test]
    fn batch_bounds_are_validated() {
        let mut db = NkvDb::default_db();
        db.create_table("t", crate::db::TableConfig::new(test_pe())).unwrap();
        let zero = QueueRunConfig { batch: 0, ..QueueRunConfig::default() };
        assert!(matches!(db.run_queued("t", &[], &zero), Err(NkvError::Config(_))));
        let max = QueueRunConfig { batch: 510, ..QueueRunConfig::default() };
        assert!(max.batch as usize == cosmos_sim::KeyListDescriptor::MAX_KEYS);
        assert!(db.run_queued("t", &[], &max).is_ok());
        // Past the key-list descriptor's single-DMA-page capacity is
        // legal now: the fold splits into multiple descriptors.
        let over = QueueRunConfig { batch: 511, ..QueueRunConfig::default() };
        assert!(db.run_queued("t", &[], &over).is_ok());
    }

    #[test]
    fn unknown_table_is_rejected() {
        let mut db = NkvDb::default_db();
        let cfg = QueueRunConfig::default();
        assert!(matches!(
            db.run_queued("missing", &[], &cfg),
            Err(NkvError::UnknownTable(t)) if t == "missing"
        ));
    }

    #[test]
    fn empty_scripts_produce_empty_stable_report() {
        let mut db = NkvDb::default_db();
        db.create_table("t", crate::db::TableConfig::new(test_pe())).unwrap();
        let r = db.run_queued("t", &[], &QueueRunConfig::default()).unwrap();
        assert_eq!(r.ops(), 0);
        assert_eq!(r.started_ns, r.finished_ns);
        assert_eq!(r.latency.percentile_summary(), "n=0");
        assert_eq!(r.throughput_ops_per_sec(), 0.0);
        assert!(db.platform_mut().queues().is_none(), "queue state is per-run");
    }

    fn test_pe() -> ndp_ir::PeConfig {
        let m = ndp_spec::parse(ndp_workload::spec::PAPER_REF_SPEC).unwrap();
        ndp_ir::elaborate(&m, ndp_workload::spec::PAPER_PE).unwrap()
    }
}
