//! REC-1: the recoverability hierarchy on histories with explicit
//! commits. REC-2: crash recovery of the durable admission path.
//!
//! The paper's model drops commit records and replaces ACA with DR
//! (§3.2). REC-1 works in the *extended* model
//! ([`pwsr_core::history`]): random executions get their commit events
//! placed at random legal positions, and the population is classified
//! into strict ⊆ ACA ⊆ RC ⊆ all. Expected shape: the hierarchy nests
//! (no class count exceeds its superset), every class is inhabited, and
//! ACA histories' committed projections are always DR schedules — the
//! bridge the paper's §3.2 rests on.
//!
//! REC-2 crashes a WAL-journaled execution at seeded byte positions
//! (clean boundaries, torn frames, bit-flipped checksums, and a
//! checkpoint-plus-tail leg) and demands every recovery land
//! byte-identical — state hash, verdict ladder, floor — on the oracle
//! prefix. (What replay and journaling cost is `benchmark/`'s
//! `recover_replay` and `occ_durable`.)

use crate::report::Table;
use pwsr_core::dr::is_delayed_read;
use pwsr_core::history::{Event, History, HistoryClass};
use pwsr_core::monitor::{AdmissionLevel, OnlineMonitor, Verdict};
use pwsr_core::state::ItemSet;
use pwsr_durability::checkpoint::{state_hash, Checkpoint, StateHash};
use pwsr_durability::recover::recover;
use pwsr_durability::wal::{scan, SharedWal, SyncPolicy, Wal, WalRecord};
use pwsr_gen::chaos::random_execution;
use pwsr_gen::workloads::{random_workload, Workload, WorkloadConfig};
use pwsr_scheduler::exec::{run_workload, ExecConfig};
use pwsr_scheduler::policy::PolicySpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build a history from a schedule by inserting each transaction's
/// commit at a uniformly random position after its last operation.
pub fn randomly_committed(schedule: &pwsr_core::schedule::Schedule, rng: &mut StdRng) -> History {
    let mut events: Vec<Event> = schedule.ops().iter().cloned().map(Event::Op).collect();
    // Insert commits one txn at a time; each insertion position is
    // anywhere from just-after-last-op to the very end.
    for &t in schedule.txn_ids() {
        let last_op_pos = events
            .iter()
            .rposition(|e| matches!(e, Event::Op(o) if o.txn == t))
            .expect("txn has ops");
        let pos = rng.random_range(last_op_pos + 1..=events.len());
        events.insert(pos, Event::Commit(t));
    }
    History::new(events).expect("construction is legal")
}

/// Run the classification experiment.
pub fn rec1(trials: u64, seed: u64) -> (bool, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = [0u64; 4]; // strict, aca, rc, unrecoverable
    let mut aca_projections_dr = true;
    let mut nesting_ok = true;
    let mut total = 0u64;
    for _ in 0..trials {
        let w = random_workload(
            &mut rng,
            &WorkloadConfig {
                conjuncts: 2,
                items_per_conjunct: 2,
                n_background: 4,
                cross_read_prob: 0.6,
                fixed_only: false,
                gadgets: 0,
                domain_width: 40,
            },
        );
        let Ok(s) = random_execution(&w.programs, &w.catalog, &w.initial, &mut rng) else {
            continue;
        };
        if s.is_empty() {
            continue;
        }
        let h = randomly_committed(&s, &mut rng);
        total += 1;
        // Nesting is definitional per classify; verify the raw
        // predicates nest too.
        if h.is_strict() && !h.is_aca() {
            nesting_ok = false;
        }
        if h.is_aca() && !h.is_recoverable() {
            nesting_ok = false;
        }
        if h.is_aca() && !is_delayed_read(&h.committed_projection()) {
            aca_projections_dr = false;
        }
        match h.recoverability() {
            HistoryClass::Strict => counts[0] += 1,
            HistoryClass::Aca => counts[1] += 1,
            HistoryClass::Recoverable => counts[2] += 1,
            HistoryClass::Unrecoverable => counts[3] += 1,
        }
    }
    let all_inhabited = counts.iter().all(|&c| c > 0);
    let ok = nesting_ok && aca_projections_dr && all_inhabited && total > 0;
    let mut t = Table::new(
        "REC-1  Recoverability hierarchy with explicit commits",
        &["class", "count", "note"],
    );
    t.row(&["strict".into(), counts[0].to_string(), "⊆ ACA".into()]);
    t.row(&[
        "ACA (not strict)".into(),
        counts[1].to_string(),
        "⊆ RC; projection always DR".into(),
    ]);
    t.row(&[
        "RC (not ACA)".into(),
        counts[2].to_string(),
        "dirty reads, safe commit order".into(),
    ]);
    t.row(&[
        "unrecoverable".into(),
        counts[3].to_string(),
        "reader commits first".into(),
    ]);
    t.row(&[
        "invariants".into(),
        total.to_string(),
        format!(
            "nesting={nesting_ok}, ACA⇒DR-projection={aca_projections_dr}, all inhabited={all_inhabited}"
        ),
    ]);
    (ok, t.render())
}

/// Outcome of the REC-2 crash sweep, by leg.
#[derive(Clone, Debug)]
pub struct RecoveryStats {
    /// Total injected crash points (cuts + flips + checkpoint legs).
    pub crash_points: u64,
    /// Crash points whose cut landed mid-frame (torn header/payload).
    pub torn_tail_points: u64,
    /// Crash points injected as a checksum-breaking bit flip.
    pub corrupt_checksum_points: u64,
    /// Crash points recovered from a hashed checkpoint plus WAL tail.
    pub checkpoint_points: u64,
    /// Crash points whose recovery was byte-identical to the oracle.
    pub recovered_ok: u64,
    /// Logical records in the full (uncrashed) WAL.
    pub wal_records: u64,
}

impl RecoveryStats {
    /// Did every injected crash recover byte-identically?
    pub fn all_recovered(&self) -> bool {
        self.crash_points > 0 && self.recovered_ok == self.crash_points
    }
}

/// Oracle for one WAL byte stream: per-record frame boundaries and the
/// live monitor's (state hash, verdict) after each record — computed by
/// applying the journal language directly, independently of
/// `pwsr_durability::recover`, so crashed recoveries are checked
/// against a second implementation rather than against themselves.
struct WalOracle {
    /// `bounds[i]` = byte offset just after record `i` (`bounds[0] = 0`).
    bounds: Vec<usize>,
    /// `(state hash, verdict, floor, len)` after the first `i` records.
    snaps: Vec<(StateHash, Verdict, usize, usize)>,
    records: Vec<WalRecord>,
}

impl WalOracle {
    fn build(scopes: &[ItemSet], bytes: &[u8]) -> WalOracle {
        let s = scan(bytes);
        assert!(s.corruption.is_none(), "executor WAL must scan clean");
        let mut monitor = OnlineMonitor::new(scopes.to_vec());
        let mut bounds = vec![0usize];
        let mut snaps = vec![(state_hash(&monitor), monitor.verdict(), 0, 0)];
        for rec in &s.records {
            apply(&mut monitor, scopes, rec);
            bounds.push(bounds.last().unwrap() + rec.encode_frame().len());
            snaps.push((
                state_hash(&monitor),
                monitor.verdict(),
                monitor.log_floor(),
                monitor.len(),
            ));
        }
        assert_eq!(
            *bounds.last().unwrap(),
            bytes.len(),
            "frame bounds tile the log"
        );
        WalOracle {
            bounds,
            snaps,
            records: s.records,
        }
    }

    /// Index of the last record wholly durable at byte `cut`.
    fn prefix_at(&self, cut: usize) -> usize {
        self.bounds.iter().rposition(|&b| b <= cut).unwrap()
    }

    /// Record indices where the monitor was quiescent (floor == len):
    /// the only points a checkpoint can stand in for the whole log
    /// prefix, so the WAL below them truncates.
    fn quiescent_points(&self) -> Vec<usize> {
        (0..self.snaps.len())
            .filter(|&i| self.snaps[i].2 == self.snaps[i].3)
            .collect()
    }

    /// A live monitor positioned after the first `i` records (for
    /// checkpoint capture).
    fn monitor_at(&self, scopes: &[ItemSet], i: usize) -> OnlineMonitor {
        let mut monitor = OnlineMonitor::new(scopes.to_vec());
        for rec in &self.records[..i] {
            apply(&mut monitor, scopes, rec);
        }
        monitor
    }
}

/// Apply one record of the journal language to `monitor` — the
/// oracle's own replay step, written apart from `recover`'s.
fn apply(monitor: &mut OnlineMonitor, scopes: &[ItemSet], rec: &WalRecord) {
    match rec {
        WalRecord::Op(op) => drop(monitor.push_logged(op.clone()).expect("oracle replay")),
        WalRecord::OpBatch(ops) => drop(monitor.push_batch_logged(ops).expect("oracle replay")),
        WalRecord::Truncate(n) => drop(monitor.truncate_to(*n as usize)),
        WalRecord::Floor(f) => drop(monitor.checkpoint(*f as usize)),
        WalRecord::Reset => *monitor = OnlineMonitor::new(scopes.to_vec()),
    }
}

/// One recovered monitor checked against the oracle snapshot `i`.
fn matches_oracle(rec: &pwsr_durability::recover::Recovered, oracle: &WalOracle, i: usize) -> bool {
    let (hash, verdict, floor, _) = &oracle.snaps[i];
    state_hash(&rec.monitor) == *hash
        && rec.monitor.verdict() == *verdict
        && rec.monitor.log_floor() == *floor
}

/// A workload execution journaled into a real temp-file WAL (the bytes
/// the crash sweep cuts into have round-tripped through the
/// filesystem, not just a memory buffer); retried over seeds until the
/// log is interesting (enough records to cut into).
fn journaled_execution(seed: u64) -> (Workload, Vec<ItemSet>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let path = std::env::temp_dir().join(format!("pwsr_rec2_{}_{seed:x}.wal", std::process::id()));
    for _ in 0..50 {
        let w = random_workload(
            &mut rng,
            &WorkloadConfig {
                conjuncts: 2,
                items_per_conjunct: 3,
                n_background: 8,
                cross_read_prob: 0.7,
                fixed_only: false,
                gadgets: 0,
                domain_width: 40,
            },
        );
        let wal = SharedWal::new(
            Wal::create(&path, SyncPolicy::Batched(32)).expect("create temp WAL file"),
        );
        let policy = PolicySpec::predicate_wise_2pl(&w.ic)
            .monitor_admission(&w.ic, AdmissionLevel::Pwsr)
            .durable(wal.clone());
        if run_workload(
            &w.programs,
            &w.catalog,
            &w.initial,
            &policy,
            &ExecConfig::default(),
        )
        .is_err()
        {
            continue;
        }
        let scopes = w.ic.scopes();
        wal.sync();
        let bytes = std::fs::read(&path).expect("read temp WAL back");
        if scan(&bytes).records.len() >= 40 {
            // The checkpoint leg needs interior quiescent points
            // (floor == len) to capture at.
            let oracle = WalOracle::build(&scopes, &bytes);
            let n = oracle.snaps.len();
            if oracle
                .quiescent_points()
                .iter()
                .any(|&i| i > 0 && i + 1 < n)
            {
                let _ = std::fs::remove_file(&path);
                return (w, scopes, bytes);
            }
        }
    }
    let _ = std::fs::remove_file(&path);
    panic!("no workload produced a journal with >= 40 records and interior quiescent points");
}

/// Crash points per category — fixed (not scaled by `--smoke`): the
/// acceptance bar is "every injected crash recovers", which only means
/// something at full count ([`REC2_FLOOR`]).
const REC2_CUTS: usize = 80;
const REC2_FLIPS: usize = 32;
const REC2_CKPS: usize = 16;
/// The fewest crash points a sweep may inject and still count.
const REC2_FLOOR: u64 = 100;

/// Run the crash-injection sweep (fixed-size: 128 points).
pub fn rec2(seed: u64) -> (bool, String, RecoveryStats) {
    let (_w, scopes, bytes) = journaled_execution(seed);
    let oracle = WalOracle::build(&scopes, &bytes);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC2);

    let mut crash_points = 0u64;
    let mut torn = 0u64;
    let mut flips = 0u64;
    let mut ckps = 0u64;
    let mut ok_points = 0u64;

    // Leg 1: byte cuts — the crash tears the log at an arbitrary byte.
    for _ in 0..REC2_CUTS {
        let cut = rng.random_range(0..=bytes.len());
        let i = oracle.prefix_at(cut);
        crash_points += 1;
        let mid_frame = cut != oracle.bounds[i];
        if mid_frame {
            torn += 1;
        }
        match recover(scopes.clone(), None, &bytes[..cut]) {
            Ok(rec) => {
                if rec.records_applied == i
                    && rec.valid_bytes == oracle.bounds[i]
                    && rec.corruption.is_some() == mid_frame
                    && matches_oracle(&rec, &oracle, i)
                {
                    ok_points += 1;
                } else {
                    eprintln!(
                        "CUT fail: cut={cut} i={i} applied={} valid={} (want {}) corr={:?} mid={mid_frame} oracle_match={}",
                        rec.records_applied, rec.valid_bytes, oracle.bounds[i], rec.corruption, matches_oracle(&rec, &oracle, i)
                    );
                }
            }
            Err(e) => eprintln!("CUT err: cut={cut} i={i}: {e}"),
        }
    }

    // Leg 2: bit flips — one bit of one durable byte is corrupted; the
    // checksum must stop replay before the damaged frame.
    for _ in 0..REC2_FLIPS {
        let pos = rng.random_range(0..bytes.len());
        let bit = rng.random_range(0..8u8);
        let mut damaged = bytes.clone();
        damaged[pos] ^= 1 << bit;
        let i = oracle.prefix_at(pos);
        crash_points += 1;
        flips += 1;
        match recover(scopes.clone(), None, &damaged) {
            Ok(rec) => {
                if rec.records_applied == i
                    && rec.corruption.is_some()
                    && matches_oracle(&rec, &oracle, i)
                {
                    ok_points += 1;
                } else {
                    eprintln!(
                        "FLIP fail: pos={pos} bit={bit} i={i} applied={} corr={:?} oracle_match={}",
                        rec.records_applied,
                        rec.corruption,
                        matches_oracle(&rec, &oracle, i)
                    );
                }
            }
            Err(e) => eprintln!("FLIP err: pos={pos} bit={bit} i={i}: {e}"),
        }
    }

    // Leg 3: hashed checkpoint + torn tail — a checkpoint captured at
    // a quiescent point (floor == len, so the prefix is the whole
    // state and the WAL below it truncates); the log below the
    // checkpoint is gone, and recovery replays the checkpoint prefix
    // plus the surviving tail records.
    let quiescent = oracle.quiescent_points();
    for _ in 0..REC2_CKPS {
        let i = quiescent[rng.random_range(0..quiescent.len())];
        let ckp = Checkpoint::capture(&oracle.monitor_at(&scopes, i), None);
        let cut = rng.random_range(oracle.bounds[i]..=bytes.len());
        let j = oracle.prefix_at(cut);
        crash_points += 1;
        ckps += 1;
        if cut != oracle.bounds[j] {
            torn += 1;
        }
        match recover(scopes.clone(), Some(&ckp), &bytes[oracle.bounds[i]..cut]) {
            Ok(rec) => {
                if rec.records_applied == j - i && matches_oracle(&rec, &oracle, j) {
                    ok_points += 1;
                } else {
                    eprintln!(
                        "CKP fail: i={i} cut={cut} j={j} applied={} oracle_match={}",
                        rec.records_applied,
                        matches_oracle(&rec, &oracle, j)
                    );
                }
            }
            Err(e) => eprintln!("CKP err: i={i} cut={cut} j={j}: {e}"),
        }
    }

    let stats = RecoveryStats {
        crash_points,
        torn_tail_points: torn,
        corrupt_checksum_points: flips,
        checkpoint_points: ckps,
        recovered_ok: ok_points,
        wal_records: oracle.records.len() as u64,
    };
    let ok =
        stats.all_recovered() && crash_points >= REC2_FLOOR && torn > 0 && flips > 0 && ckps > 0;
    let mut t = Table::new(
        "REC-2  Crash recovery: seeded WAL crash-injection sweep",
        &["leg", "points", "note"],
    );
    t.row(&[
        "byte cuts".into(),
        REC2_CUTS.to_string(),
        format!("{torn} torn mid-frame (incl. checkpoint-leg tails)"),
    ]);
    t.row(&[
        "bit flips".into(),
        flips.to_string(),
        "checksum stops replay before damage".into(),
    ]);
    t.row(&[
        "checkpoint+tail".into(),
        ckps.to_string(),
        "hashed checkpoint, WAL below floor dropped".into(),
    ]);
    t.row(&[
        "recovered".into(),
        format!("{ok_points}/{crash_points}"),
        "state hash + verdict + floor all byte-identical".into(),
    ]);
    t.row(&[
        "log".into(),
        stats.wal_records.to_string(),
        "records in the uncrashed log".into(),
    ]);
    (ok, t.render(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rec1_matches_prediction() {
        let (ok, text) = rec1(400, 800);
        assert!(ok, "{text}");
    }

    #[test]
    fn rec2_every_crash_recovers() {
        let (ok, text, stats) = rec2(801);
        assert!(ok, "{text}");
        assert!(stats.crash_points >= 100, "{}", stats.crash_points);
        assert!(stats.all_recovered(), "{text}");
        assert!(stats.torn_tail_points > 0 && stats.corrupt_checksum_points > 0);
    }
}
