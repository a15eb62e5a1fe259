//! `stream_local` and `stream_cross`: `workers` threads admit their
//! own transactions into one shared `ShardedMonitor` — `core.monitor`
//! alone; `tplang`, `scheduler` and `durability` are bypassed.

use std::hint::black_box;
use std::time::Instant;

use pwsr_core::error::CoreError;
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::OnlineMonitor;
use pwsr_core::op::Operation;
use pwsr_core::state::ItemSet;

use crate::gen::{ops_fingerprint, stream_lanes, stream_scopes, Size};
use crate::harness::{Config, Failures, Kind, Layers, Round, Timing, Workload};
use crate::stats::{median, quantile};
use crate::trace::{merge, Probe, Span, ThreadTrace};

/// Finished transactions of one lane between `compact()` calls.
const COMPACT_EVERY: usize = 256;
/// Every this many compactions a traced lane samples the monitor's
/// resident estimate just before sweeping (the local peak). Sampling
/// quiesces the pipeline, so it is rare and never done untraced.
const RESIDENT_EVERY: usize = 16;

type Lane = Vec<Vec<Operation>>;

pub struct Stream {
    scopes: Vec<ItemSet>,
    lanes: Vec<Lane>,
    ops: u64,
    epoch: Instant,
}

impl Stream {
    pub fn build(cfg: &Config, cross: bool, layers: &mut Layers) -> Stream {
        let t0 = Instant::now();
        let txns = if cfg.size == Size::Full { 8_000 } else { 1_200 };
        let lanes = stream_lanes(cfg.seed, cross, txns, cfg.workers);
        let ops = lanes.iter().flatten().map(|t| t.len() as u64).sum();
        layers.sample("gen.build_ms", t0.elapsed().as_secs_f64() * 1e3);
        Stream {
            scopes: stream_scopes(),
            lanes,
            ops,
            epoch: Instant::now(),
        }
    }
}

/// Admit one transaction and declare it finished.
#[inline]
fn admit<P: Probe>(m: &ShardedMonitor, txn: &[Operation], p: &mut P) -> Result<(), CoreError> {
    let t0 = p.now();
    black_box(m.push_batch(txn)?);
    let t1 = p.now();
    p.leaf("core.monitor.push_batch", t0, t1, txn.len() as u32);
    m.finish_txn(txn[0].txn);
    p.leaf("core.monitor.finish_txn", t1, p.now(), 1);
    Ok(())
}

/// Sweep the committed prefix; a traced lane first samples the
/// resident estimate now and then.
fn sweep<P: Probe>(m: &ShardedMonitor, sweeps: &mut usize, p: &mut P) {
    if P::ON && sweeps.is_multiple_of(RESIDENT_EVERY) {
        p.gauge(m.resident_bytes_estimate());
    }
    *sweeps += 1;
    let t0 = p.now();
    let reclaimed = m.compact().ops_reclaimed;
    p.leaf("core.monitor.compact", t0, p.now(), reclaimed as u32);
}

/// One worker's loop over its own lane.
fn drive_lane<P: Probe>(
    m: &ShardedMonitor,
    lane: &Lane,
    compacting: bool,
    p: &mut P,
) -> Result<(), CoreError> {
    let mut sweeps = 0;
    for (j, txn) in lane.iter().enumerate() {
        admit(m, txn, p)?;
        if compacting && (j + 1).is_multiple_of(COMPACT_EVERY) {
            sweep(m, &mut sweeps, p);
        }
    }
    Ok(())
}

/// One thread per lane, each with its own probe; the probes come back
/// with what they recorded.
fn drive_threads<P: Probe + Send>(
    m: &ShardedMonitor,
    lanes: &[Lane],
    compacting: bool,
    probes: Vec<P>,
) -> (Result<(), CoreError>, Vec<P>) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .zip(probes)
            .map(|(lane, mut p)| {
                scope.spawn(move || {
                    let res = p.scope("bench.worker", lane.len() as u32, |p| {
                        drive_lane(m, lane, compacting, p)
                    });
                    (res, p)
                })
            })
            .collect();
        let mut pushed = Ok(());
        let mut probes = Vec::new();
        for h in handles {
            let (res, p) = h.join().expect("stream worker panicked");
            pushed = pushed.and(res);
            probes.push(p);
        }
        (pushed, probes)
    })
}

/// The same stream on the calling thread: lanes taken round-robin.
fn drive_solo(m: &ShardedMonitor, lanes: &[Lane]) -> Result<(), CoreError> {
    let longest = lanes.iter().map(Vec::len).max().unwrap_or(0);
    let (mut done, mut sweeps) = (0usize, 0);
    for j in 0..longest {
        for txn in lanes.iter().filter_map(|lane| lane.get(j)) {
            admit(m, txn, &mut ())?;
            done += 1;
            if done.is_multiple_of(COMPACT_EVERY) {
                sweep(m, &mut sweeps, &mut ());
            }
        }
    }
    Ok(())
}

/// Per-operation cost of a lane's late `push_batch` calls over its
/// early ones (last tenth ÷ first tenth, medians).
fn late_over_early(calls: &[&Span]) -> Option<f64> {
    let tenth = calls.len() / 10;
    if tenth == 0 {
        return None;
    }
    let cost = |part: &[&Span]| {
        let v: Vec<f64> = part
            .iter()
            .map(|s| s.dur_ns() as f64 / f64::from(s.count.max(1)))
            .collect();
        median(&v)
    };
    let early = cost(&calls[..tenth]);
    (early > 0.0).then(|| cost(&calls[calls.len() - tenth..]) / early)
}

impl Stream {
    /// Turn one traced round's spans into per-layer samples.
    fn digest(&self, spans: &[Span], layers: &mut Layers) {
        let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
        let calls: Vec<&Span> = named("core.monitor.push_batch").collect();
        let per_op: Vec<f64> = calls
            .iter()
            .map(|s| s.dur_ns() as f64 / f64::from(s.count.max(1)))
            .collect();
        let call_us: Vec<f64> = calls.iter().map(|s| s.dur_ns() as f64 / 1e3).collect();
        layers.sample("core.monitor.push_batch_ns_per_op", median(&per_op));
        layers.sample(
            "core.monitor.push_batch_call_us_p99",
            quantile(&call_us, 0.99),
        );
        let finish: Vec<f64> = named("core.monitor.finish_txn")
            .map(|s| s.dur_ns() as f64)
            .collect();
        layers.sample("core.monitor.finish_ns_per_txn", median(&finish));
        let ratios: Vec<f64> = (1..=self.lanes.len() as u16)
            .filter_map(|t| {
                let lane: Vec<&Span> = calls.iter().copied().filter(|s| s.thread == t).collect();
                late_over_early(&lane)
            })
            .collect();
        if !ratios.is_empty() {
            layers.sample("core.monitor.late_over_early", median(&ratios));
        }
        let sweeps: Vec<f64> = named("core.monitor.compact")
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        if !sweeps.is_empty() {
            layers.sample("core.monitor.compact_ms_p50", median(&sweeps));
            layers.sample("core.monitor.compact_ms_max", quantile(&sweeps, 1.0));
        }
        let busy: f64 = named("bench.worker").map(|s| s.dur_ns() as f64).sum();
        if busy > 0.0 {
            layers.sample(
                "core.monitor.compact_share",
                sweeps.iter().sum::<f64>() * 1e6 / busy,
            );
        }
    }
}

impl Workload for Stream {
    fn cycle(&self, trace: bool) -> &'static [Kind] {
        use Kind::{Audit, Plain as P, Solo as S, Traced as T};
        if trace {
            &[P, T, S, P, T, S, P, T, S, Audit]
        } else {
            &[P, P, P, P, P, P, P, P, P, Audit]
        }
    }

    fn ops_per_round(&self) -> u64 {
        self.ops
    }

    fn round(&mut self, kind: Kind, index: u32, layers: &mut Layers) -> Round {
        let mut monitor = ShardedMonitor::new(self.scopes.clone());
        if kind == Kind::Traced {
            monitor = monitor.with_serial_timing();
        }
        let monitor = monitor;
        let compacting = kind != Kind::Audit;
        let mut spans = Vec::new();
        let mut resident_peak = 0;
        let t0 = Instant::now();
        let pushed = match kind {
            Kind::Solo => drive_solo(&monitor, &self.lanes),
            Kind::Traced => {
                let mut main = ThreadTrace::new(self.epoch, index, 0);
                let probes = (1..=self.lanes.len() as u16)
                    .map(|t| ThreadTrace::new(self.epoch, index, t))
                    .collect();
                let (pushed, probes) = main.span(
                    "bench.round",
                    |_| 0,
                    |_| drive_threads(&monitor, &self.lanes, true, probes),
                );
                resident_peak = probes.iter().map(|p| p.gauge_max).max().unwrap_or(0);
                let buffers = probes.into_iter().map(ThreadTrace::into_spans).collect();
                spans = merge(main.into_spans(), 0, buffers);
                pushed
            }
            Kind::Plain | Kind::Audit => {
                let probes = vec![(); self.lanes.len()];
                drive_threads(&monitor, &self.lanes, compacting, probes).0
            }
        };
        let secs = t0.elapsed().as_secs_f64();
        if pushed.is_err() {
            return Round {
                failures: vec!["push_err"],
                ..Round::default()
            };
        }

        if kind == Kind::Traced {
            // The monitor as the round left it, before the oracle's
            // own sweep below.
            self.digest(&spans, layers);
            layers.sample(
                "core.monitor.seq_stage_ns_per_op",
                monitor.serial_ns_per_op(),
            );
            let resident_end = monitor.resident_bytes_estimate();
            layers.sample("core.monitor.resident_bytes_end", resident_end as f64);
            layers.sample(
                "core.monitor.resident_bytes_peak",
                resident_peak.max(resident_end) as f64,
            );
            layers.sample(
                "core.monitor.ops_reclaimed_share",
                monitor.ops_reclaimed() as f64 / self.ops as f64,
            );
            layers.sample("core.monitor.compactions", monitor.compactions() as f64);
            layers.absorb(spans);
        }

        // Oracle.
        let verdict = monitor.verdict();
        let mut failures = Failures::default();
        failures.fail_if(!verdict.pwsr(), "verdict_not_pwsr");
        failures.fail_if(verdict.len as u64 != self.ops, "verdict_len");
        if kind == Kind::Audit {
            let mut replay = OnlineMonitor::new(self.scopes.clone());
            let recorded = monitor.snapshot_schedule();
            let ok = recorded
                .ops()
                .iter()
                .all(|op| replay.push(op.clone()).is_ok());
            failures.fail_if(!ok || replay.verdict() != verdict, "single_writer_replay");
        } else {
            // How much the sweeps reclaimed while lanes were in flight
            // is a matter of scheduling (a lane preempted inside a
            // transaction holds the frontier back), so that share is
            // reported, not judged. What must hold is that one more
            // sweep at quiescence leaves nothing behind.
            monitor.compact();
            failures.fail_if(monitor.ops_reclaimed() != self.ops, "compaction_incomplete");
        }
        Round {
            secs,
            ops: self.ops,
            failures: failures.0,
        }
    }

    fn finish(&self, timing: &Timing, layers: &mut Layers) {
        if timing.solo_ns_per_op > 0.0 {
            layers.sample(
                "core.monitor.single_thread_ns_per_op",
                timing.solo_ns_per_op,
            );
            layers.sample(
                "core.monitor.contention_factor",
                timing.plain_ns_per_op * self.lanes.len() as f64 / timing.solo_ns_per_op,
            );
        }
    }

    fn fingerprint(&self) -> u64 {
        ops_fingerprint(self.lanes.iter().flatten().flatten())
    }
}
