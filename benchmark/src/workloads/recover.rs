//! `recover_replay`: the read side of `durability` — checkpoint decode
//! plus `recover` over a journal written by the single-writer
//! `OnlineMonitor` logged path. Writes beside reads: `occ_durable`
//! appends, this replays.

use std::hint::black_box;
use std::time::Instant;

use pwsr_core::ids::TxnId;
use pwsr_core::monitor::journal::MonitorJournal;
use pwsr_core::monitor::{OnlineMonitor, Verdict};
use pwsr_core::state::ItemSet;
use pwsr_durability::{
    advance_frontier, recover, scan, state_hash, Checkpoint, SharedWal, StateHash, SyncPolicy, Wal,
    WalRecord,
};

use crate::gen::{ops_fingerprint, stream_lanes, stream_scopes, Size};
use crate::harness::{Config, Failures, Kind, Layers, Round, Timing, Workload};
use crate::trace::{Budget, Probe, ThreadTrace};

/// Every this many transactions the set-up run retracts the
/// transaction it just journaled and pushes it again.
const RETRACT_EVERY: usize = 16;

pub struct Recover {
    scopes: Vec<ItemSet>,
    ckp_bytes: Vec<u8>,
    wal_bytes: Vec<u8>,
    /// Transactions the live monitor had finished when it compacted.
    finished: Vec<TxnId>,
    /// What the live monitor looked like when journaling ended.
    live_verdict: Verdict,
    live_floor: usize,
    live_hash: StateHash,
    fingerprint: u64,
    wal_records: usize,
    epoch: Instant,
}

impl Recover {
    /// Generate the stream and journal it — the set-up run.
    pub fn build(cfg: &Config, layers: &mut Layers) -> Recover {
        let t0 = Instant::now();
        let txns = if cfg.size == Size::Full { 6_000 } else { 400 };
        let lane = stream_lanes(cfg.seed, true, txns, 1).remove(0);
        let scopes = stream_scopes();
        layers.sample("gen.build_ms", t0.elapsed().as_secs_f64() * 1e3);

        std::fs::create_dir_all(&cfg.out_dir).expect("create the benchmark's scratch directory");
        let wal_path = cfg.out_dir.join("recover_replay.wal");
        let ckp_path = cfg.out_dir.join("recover_replay.ckp");
        let wal = Wal::create(&wal_path, SyncPolicy::Off).expect("create the journal file");
        let wal = SharedWal::new(wal);
        let mut journal = wal.clone();
        let mut monitor = OnlineMonitor::new(scopes.clone());
        let mut finished = Vec::new();
        let mut frontier_ns = 0u128;
        let t_journal = Instant::now();
        for (j, txn) in lane.iter().enumerate() {
            monitor
                .push_batch_logged(txn)
                .expect("generated transactions are well-formed");
            journal.appended_batch(txn);
            if j % RETRACT_EVERY == RETRACT_EVERY - 1 {
                let keep = monitor.len() - txn.len();
                monitor.truncate_to(keep);
                journal.truncated(keep);
                monitor
                    .push_batch_logged(txn)
                    .expect("re-push of a retracted transaction");
                journal.appended_batch(txn);
            }
            if j + 1 == lane.len() / 2 {
                // Midpoint: everything so far is final. Raise the
                // floor, then checkpoint + restart the WAL + compact.
                for t in &lane[..=j] {
                    monitor.finish_txn(t[0].txn);
                    finished.push(t[0].txn);
                }
                let floor = monitor.checkpoint(monitor.len());
                journal.floor_raised(floor);
                let t_frontier = Instant::now();
                let (ckp, _) = advance_frontier(&mut monitor, &wal, None);
                std::fs::write(&ckp_path, ckp.to_bytes()).expect("write the checkpoint file");
                frontier_ns = t_frontier.elapsed().as_nanos();
            }
        }
        wal.sync();
        let journal_ns = t_journal.elapsed().as_nanos() - frontier_ns;
        layers.sample("durability.advance_frontier_ms", frontier_ns as f64 / 1e6);
        layers.sample(
            "durability.journal_ns_per_op",
            journal_ns as f64 / monitor.len().max(1) as f64,
        );
        let stats = wal.stats();
        layers.sample("durability.io_errors", stats.io_errors as f64);
        layers.sample("durability.retries", stats.retries as f64);
        layers.sample("durability.dropped_records", stats.dropped_records as f64);
        drop((journal, wal));
        let wal_bytes = std::fs::read(&wal_path).expect("read the journal back");
        Recover {
            scopes,
            // Read back from disk: the bytes a round recovers from
            // have been through the filesystem.
            ckp_bytes: std::fs::read(&ckp_path).expect("read the checkpoint back"),
            wal_records: scan(&wal_bytes).records.len(),
            wal_bytes,
            finished,
            live_verdict: monitor.verdict(),
            live_floor: monitor.log_floor(),
            live_hash: state_hash(&monitor),
            fingerprint: ops_fingerprint(lane.iter().flatten()),
            epoch: Instant::now(),
        }
    }

    /// The layers of one recovery, each on its own.
    fn replay_layers(&self, tr: &mut ThreadTrace, layers: &mut Layers, secs: f64, decode_ns: u64) {
        let ops = self.live_verdict.len as f64;
        let t0 = tr.now();
        let scanned = tr.span(
            "durability.scan",
            |s: &pwsr_durability::WalScan| s.records.len() as u32,
            |_| scan(&self.wal_bytes),
        );
        let scan_ns = tr.now() - t0;
        let ckp = Checkpoint::from_bytes(&self.ckp_bytes).expect("checkpoint decoded in the round");

        // The monitor work `recover` does: the checkpoint prefix, then
        // every decoded record through its entry point.
        let mut m = OnlineMonitor::new(self.scopes.clone());
        let t0 = tr.now();
        tr.span(
            "core.monitor.replay_prefix",
            |_| ckp.ops.len() as u32,
            |_| {
                for op in &ckp.ops {
                    black_box(
                        m.push_logged(op.clone())
                            .expect("checkpoint prefix replays"),
                    );
                }
                m.checkpoint(ckp.floor);
            },
        );
        let t1 = tr.now();
        black_box(tr.span("durability.state_hash", |_| 0, |_| state_hash(&m)));
        let t2 = tr.now();
        tr.span(
            "core.monitor.replay_tail",
            |_| scanned.records.len() as u32,
            |_| {
                for rec in &scanned.records {
                    match rec {
                        WalRecord::Op(op) => {
                            black_box(m.push_logged(op.clone()).expect("journaled op replays"));
                        }
                        WalRecord::OpBatch(ops) => {
                            black_box(m.push_batch_logged(ops).expect("journaled batch replays"));
                        }
                        WalRecord::Truncate(n) => {
                            m.truncate_to(*n as usize);
                        }
                        WalRecord::Floor(f) => {
                            m.checkpoint(*f as usize);
                        }
                        WalRecord::Reset => m = OnlineMonitor::new(self.scopes.clone()),
                    }
                }
            },
        );
        let t3 = tr.now();
        let (hash_ns, replay_ns) = (t2 - t1, (t1 - t0) + (t3 - t2));

        layers.sample("durability.recover_ns_per_op", secs * 1e9 / ops);
        layers.sample(
            "durability.scan_ns_per_record",
            scan_ns as f64 / scanned.records.len().max(1) as f64,
        );
        layers.sample("durability.checkpoint_decode_ms", decode_ns as f64 / 1e6);
        layers.sample("durability.state_hash_ms", hash_ns as f64 / 1e6);
        layers.sample("core.monitor.replay_ns_per_op", replay_ns as f64 / ops);
        layers.sample(
            "durability.records_per_kop",
            scanned.records.len() as f64 * 1e3 / ops,
        );
        layers.sample("durability.bytes_per_op", self.wal_bytes.len() as f64 / ops);
    }
}

impl Recover {
    /// The round (decode + `recover`) per recovered operation, split
    /// into what the replays measured; the remainder is `recover`'s
    /// own glue. Built from medians, so it adds up as reported.
    fn split(&self, layers: &Layers) -> Budget {
        let ops = self.live_verdict.len as f64;
        let records = self.wal_records as f64;
        Budget {
            total: layers.median("durability.recover_ns_per_op"),
            parts: vec![
                (
                    "durability.checkpoint_decode",
                    layers.median("durability.checkpoint_decode_ms") * 1e6 / ops,
                ),
                (
                    "durability.scan",
                    layers.median("durability.scan_ns_per_record") * records / ops,
                ),
                (
                    "durability.state_hash",
                    layers.median("durability.state_hash_ms") * 1e6 / ops,
                ),
                (
                    "core.monitor.replay",
                    layers.median("core.monitor.replay_ns_per_op"),
                ),
            ],
        }
    }
}

impl Workload for Recover {
    fn cycle(&self, trace: bool) -> &'static [Kind] {
        if trace {
            &[Kind::Plain, Kind::Traced]
        } else {
            &[Kind::Plain]
        }
    }

    fn ops_per_round(&self) -> u64 {
        self.live_verdict.len as u64
    }

    fn round(&mut self, kind: Kind, index: u32, layers: &mut Layers) -> Round {
        let mut tr = ThreadTrace::new(self.epoch, index, 0);
        let traced = kind == Kind::Traced;
        let mut decode_ns = 0;
        let t0 = Instant::now();
        let recovered = if traced {
            tr.span(
                "bench.round",
                |_| 0,
                |tr| {
                    let d0 = tr.now();
                    let ckp = tr.span(
                        "durability.checkpoint_decode",
                        |_| 0,
                        |_| Checkpoint::from_bytes(&self.ckp_bytes),
                    );
                    decode_ns = tr.now() - d0;
                    ckp.map_err(|_| "checkpoint_decode").and_then(|ckp| {
                        tr.span(
                            "durability.recover",
                            |_| 0,
                            |_| recover(self.scopes.clone(), Some(&ckp), &self.wal_bytes),
                        )
                        .map_err(|_| "recover_err")
                    })
                },
            )
        } else {
            Checkpoint::from_bytes(&self.ckp_bytes)
                .map_err(|_| "checkpoint_decode")
                .and_then(|ckp| {
                    recover(self.scopes.clone(), Some(&ckp), &self.wal_bytes)
                        .map_err(|_| "recover_err")
                })
        };
        let secs = t0.elapsed().as_secs_f64();
        let mut rec = match recovered {
            Ok(rec) => rec,
            Err(name) => {
                return Round {
                    failures: vec![name],
                    ..Round::default()
                }
            }
        };

        // Oracle: the recovered monitor is the live one — directly,
        // and again after taking the same compaction the live one took.
        let mut failures = Failures::default();
        failures.fail_if(rec.corruption.is_some(), "wal_corruption");
        failures.fail_if(
            rec.monitor.verdict() != self.live_verdict,
            "recovered_verdict",
        );
        failures.fail_if(rec.monitor.len() != self.live_verdict.len, "recovered_len");
        failures.fail_if(
            rec.monitor.log_floor() != self.live_floor,
            "recovered_floor",
        );
        for t in &self.finished {
            rec.monitor.finish_txn(*t);
        }
        rec.monitor.compact();
        failures.fail_if(state_hash(&rec.monitor) != self.live_hash, "state_hash");
        // Freed before the replays build their own monitor, so that
        // they run at the round's memory footprint.
        drop(rec);

        if traced && failures.0.is_empty() {
            tr.span(
                "bench.layer_replays",
                |_| 0,
                |tr| self.replay_layers(tr, layers, secs, decode_ns),
            );
            layers.absorb(tr.into_spans());
        }
        Round {
            secs,
            ops: self.live_verdict.len as u64,
            failures: failures.0,
        }
    }

    fn finish(&self, _: &Timing, layers: &mut Layers) {
        let budget = self.split(layers);
        if budget.total > 0.0 {
            layers.sample("durability.recover_self_ns_per_op", budget.remainder());
        }
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn budget(&self, layers: &Layers) -> Option<(&'static str, Budget)> {
        Some(("durability.recover_self", self.split(layers)))
    }
}
