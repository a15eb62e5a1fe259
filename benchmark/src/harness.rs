//! The closed-loop round driver shared by all workloads: repeated
//! set-up, the round cycle, warm-up trimming, failure accounting and
//! the end-to-end metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::gen::Size;
use crate::stats::{median, quantile, trim_warmup};
use crate::trace::{self_times, Budget, Span};

/// How one round of the cycle is run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `workers` threads, no spans: the only kind the end-to-end
    /// metrics are computed from.
    Plain,
    /// `workers` threads with spans, followed by the layer replays.
    Traced,
    /// The same input on one thread, no spans.
    Solo,
    /// An oracle-only round (not a timing sample).
    Audit,
}

#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    /// Rounds to run, all kinds together: fixed, so that both sides
    /// of a comparison take the same samples.
    pub rounds: usize,
    pub trace: bool,
    pub workers: usize,
    pub size: Size,
    /// Scratch directory for WAL files and traces.
    pub out_dir: PathBuf,
}

/// `min(nproc, 4)`: the closed loop's client count.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4)
}

/// The oracle's findings for one round: failed conditions, by name.
#[derive(Clone, Debug, Default)]
pub struct Failures(pub Vec<&'static str>);

impl Failures {
    /// Record `name` as failed when `bad` holds.
    pub fn fail_if(&mut self, bad: bool, name: &'static str) {
        if bad {
            self.0.push(name);
        }
    }
}

/// What one round reports back to the driver.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Length of the timed section.
    pub secs: f64,
    /// Operations committed / admitted / recovered.
    pub ops: u64,
    /// Conditions the oracle found violated, by name (empty = pass).
    pub failures: Vec<&'static str>,
}

/// Per-layer samples and the spans kept for the trace file.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Raw spans of the first [`ROUNDS_WITH_SPANS`] traced rounds.
    pub spans: Vec<Span>,
    /// Per span name over every traced round: calls, total and self
    /// nanoseconds.
    pub span_totals: BTreeMap<&'static str, (u64, u64, u64)>,
    rounds_with_spans: usize,
}

/// Rounds whose raw spans go to the trace file; later rounds only
/// contribute to the per-name totals (a `stream_*` round alone is
/// ~45 k spans).
const ROUNDS_WITH_SPANS: usize = 2;

impl Layers {
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the samples of `name` (0 when there are none).
    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    /// Fold one traced round's spans into the per-name totals and
    /// keep the raw spans of the first few rounds.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        for (s, own) in spans.iter().zip(self_times(&spans)) {
            let t = self.span_totals.entry(s.name).or_default();
            t.0 += 1;
            t.1 += s.dur_ns();
            t.2 += own;
        }
        if self.rounds_with_spans < ROUNDS_WITH_SPANS {
            self.rounds_with_spans += 1;
            let offset = self.spans.len() as u32;
            self.spans.extend(spans.into_iter().map(|mut s| {
                if s.parent != crate::trace::NO_PARENT {
                    s.parent += offset;
                }
                s
            }));
        }
    }
}

/// Median round times of the three timed kinds, after warm-up
/// trimming.
#[derive(Clone, Debug, Default)]
pub struct Timing {
    pub plain_ns_per_op: f64,
    pub traced_ns_per_op: f64,
    pub solo_ns_per_op: f64,
    pub plain_round_ms: Vec<f64>,
}

/// One benchmark workload.
pub trait Workload {
    /// The kinds of round, in the order they repeat.
    fn cycle(&self, trace: bool) -> &'static [Kind];
    /// Operations a round processes — what a round that returns an
    /// error is charged with.
    fn ops_per_round(&self) -> u64;
    /// Run one round: prepare (untimed), run the timed section, check
    /// the output (untimed) and, for [`Kind::Traced`], replay the
    /// output through the layers.
    fn round(&mut self, kind: Kind, index: u32, layers: &mut Layers) -> Round;
    /// Add the per-layer samples that combine several kinds of round.
    fn finish(&self, timing: &Timing, layers: &mut Layers);
    /// Fingerprint of the generated input.
    fn fingerprint(&self) -> u64;
    /// The additive budget of a traced run and the name of its
    /// remainder, for workloads whose timed call is opaque.
    fn budget(&self, _layers: &Layers) -> Option<(&'static str, Budget)> {
        None
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct RunRecord {
    pub setup_s: f64,
    pub setup_reps: usize,
    pub ops_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed condition → rounds it failed in.
    pub failures: BTreeMap<&'static str, u64>,
    /// Rounds run, by kind, before warm-up trimming.
    pub rounds: BTreeMap<&'static str, usize>,
    pub timed_rounds: usize,
    /// Round times behind `ops_per_s` (plain rounds after warm-up),
    /// in run order.
    pub round_ms: Vec<f64>,
    pub layers: Layers,
}

/// Builds a workload; what `setup_s` times.
pub type Build<'a> = dyn FnMut(&mut Layers) -> Box<dyn Workload> + 'a;

/// Set-up is timed in this many bursts spread evenly over the run,
/// each repeating the build until this much time has passed, and the
/// fastest build is reported. On the reference host a single-threaded
/// build runs in one of two speed modes, 1.5 to 1.8 times apart, for
/// tens of milliseconds to minutes at a time; the median flips with
/// the share of each (it read up to 53 % apart between two sets of
/// runs of one commit), while the fast mode is visited in every run.
const SETUP_BURSTS: usize = 10;
const SETUP_BURST_SECS: f64 = 0.04;

fn timed_build(build: &mut Build, layers: &mut Layers, times: &mut Vec<f64>) -> Box<dyn Workload> {
    let t0 = Instant::now();
    let w = build(layers);
    times.push(t0.elapsed().as_secs_f64());
    w
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Plain => "plain",
        Kind::Traced => "traced",
        Kind::Solo => "solo",
        Kind::Audit => "audit",
    }
}

/// The quantile of round time `ops_per_s` is computed from: the
/// round 15 % of the way up from the fastest, not the median. On the
/// reference host a thread runs in one of two speed modes 1.5 to 1.8
/// times apart for seconds at a time, so a single-threaded run can
/// spend anything from none to four fifths of its rounds in the slow
/// one, and the median flips with that share (40 % quartile spread on
/// `recover_replay` over ten runs where this quantile spread 8 %).
/// The fastest tenth fails the other way: in the multi-threaded
/// workloads those are rounds in which a lane was kept off its core
/// and the other ran without contention. README, "Steadiness", has
/// the numbers.
pub const THROUGHPUT_QUANTILE: f64 = 0.15;

/// Nanoseconds per operation over `(secs, ops)` rounds after warm-up,
/// at quantile `q` of round time.
fn ns_per_op(rounds: &[(f64, u64)], q: f64) -> f64 {
    let kept = trim_warmup(rounds);
    let secs: Vec<f64> = kept.iter().map(|r| r.0).collect();
    let ops: Vec<f64> = kept.iter().map(|r| r.1 as f64).collect();
    if kept.is_empty() || median(&ops) == 0.0 {
        0.0
    } else {
        quantile(&secs, q) * 1e9 / median(&ops)
    }
}

/// Build the workload and drive it through its cycle for the
/// configured number of rounds, timing more builds on the way.
pub fn run(cfg: &Config, build: &mut Build) -> (RunRecord, Box<dyn Workload>) {
    let mut rec = RunRecord::default();
    let mut setup = Vec::new();
    let mut w = timed_build(build, &mut rec.layers, &mut setup);
    let setup_every = cfg.rounds.div_ceil(SETUP_BURSTS).max(1);
    let cycle = w.cycle(cfg.trace);
    let mut timed: BTreeMap<&'static str, Vec<(f64, u64)>> = BTreeMap::new();
    for index in 0..cfg.rounds {
        if index.is_multiple_of(setup_every) {
            let burst = Instant::now();
            while burst.elapsed().as_secs_f64() < SETUP_BURST_SECS {
                timed_build(build, &mut rec.layers, &mut setup);
            }
        }
        let kind = cycle[index % cycle.len()];
        let round = w.round(kind, index as u32, &mut rec.layers);
        *rec.rounds.entry(kind_name(kind)).or_default() += 1;
        if round.failures.is_empty() {
            rec.attempted += round.ops;
            if kind != Kind::Audit {
                timed
                    .entry(kind_name(kind))
                    .or_default()
                    .push((round.secs, round.ops));
            }
        } else {
            // A failed round is charged its whole input and gives no
            // timing sample: a wrong answer has no latency.
            let charged = round.ops.max(w.ops_per_round());
            rec.attempted += charged;
            rec.failed += charged;
            for f in round.failures {
                *rec.failures.entry(f).or_default() += 1;
            }
        }
    }
    let of = |kind| timed.get(kind_name(kind)).map_or(&[][..], Vec::as_slice);
    let plain = trim_warmup(of(Kind::Plain));
    rec.timed_rounds = plain.len();
    // Ratios between kinds compare medians of interleaved rounds,
    // which the host's modes hit alike; only the end-to-end figure
    // needs the steadier quantile.
    let timing = Timing {
        plain_ns_per_op: ns_per_op(of(Kind::Plain), 0.5),
        traced_ns_per_op: ns_per_op(of(Kind::Traced), 0.5),
        solo_ns_per_op: ns_per_op(of(Kind::Solo), 0.5),
        plain_round_ms: plain.iter().map(|r| r.0 * 1e3).collect(),
    };
    let fast_ns_per_op = ns_per_op(of(Kind::Plain), THROUGHPUT_QUANTILE);
    if fast_ns_per_op > 0.0 {
        rec.ops_per_s = 1e9 / fast_ns_per_op;
    }
    rec.setup_s = quantile(&setup, 0.0);
    rec.setup_reps = setup.len();
    rec.layers
        .sample("bench.round_ms_p50", median(&timing.plain_round_ms));
    rec.layers
        .sample("bench.round_ms_p90", quantile(&timing.plain_round_ms, 0.9));
    w.finish(&timing, &mut rec.layers);
    if timing.plain_ns_per_op > 0.0 && timing.traced_ns_per_op > 0.0 {
        rec.layers.sample(
            "bench.trace_overhead_share",
            (timing.traced_ns_per_op - timing.plain_ns_per_op) / timing.plain_ns_per_op,
        );
    }
    rec.layers.sample("bench.workers", cfg.workers as f64);
    rec.layers.sample("bench.rounds", cfg.rounds as f64);
    rec.layers.sample("bench.peak_rss_mb", peak_rss_mb());
    rec.round_ms = timing.plain_round_ms;
    (rec, w)
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose rounds take scripted times and fail on cue.
    struct Scripted {
        fail_on: u32,
    }

    impl Workload for Scripted {
        fn cycle(&self, trace: bool) -> &'static [Kind] {
            if trace {
                &[Kind::Plain, Kind::Traced, Kind::Solo]
            } else {
                &[Kind::Plain]
            }
        }
        fn ops_per_round(&self) -> u64 {
            100
        }
        fn round(&mut self, kind: Kind, index: u32, _: &mut Layers) -> Round {
            if index == self.fail_on {
                return Round {
                    failures: vec!["verdict_not_pwsr", "verdict_len"],
                    ..Round::default()
                };
            }
            Round {
                // The first (warm-up) round is an outlier.
                secs: match (index, kind) {
                    (0, _) => 9.0,
                    (_, Kind::Traced) => 0.0011,
                    (_, Kind::Solo) => 0.0005,
                    _ => 0.001,
                },
                ops: 100,
                ..Round::default()
            }
        }
        fn finish(&self, _: &Timing, _: &mut Layers) {}
        fn fingerprint(&self) -> u64 {
            0
        }
    }

    fn cfg(trace: bool, rounds: usize) -> Config {
        Config {
            seed: 1,
            rounds,
            trace,
            workers: 2,
            size: Size::Tiny,
            out_dir: PathBuf::new(),
        }
    }

    #[test]
    fn a_failed_round_is_charged_and_named_and_later_rounds_still_run() {
        let (rec, _) = run(&cfg(false, 20), &mut |_| Box::new(Scripted { fail_on: 5 }));
        assert_eq!(rec.attempted, 2000);
        assert_eq!(rec.failed, 100);
        assert_eq!(rec.failures.get("verdict_not_pwsr"), Some(&1));
        assert_eq!(rec.failures.get("verdict_len"), Some(&1));
        assert_eq!(rec.rounds.get("plain"), Some(&20));
        // 19 good samples, the first two are warm-up.
        assert_eq!(rec.timed_rounds, 17);
        assert!((rec.ops_per_s - 100_000.0).abs() < 1e-6);
        assert!((rec.layers.get("bench.round_ms_p90")[0] - 1.0).abs() < 1e-9);
        // One build for the rounds, then at least one in each burst.
        assert!(rec.setup_reps > SETUP_BURSTS && rec.setup_s >= 0.0);
    }

    #[test]
    fn throughput_reads_a_fast_quantile_and_ratios_read_the_median() {
        // Three warm-up rounds, then 1..=21 ms: the median is 11 ms,
        // the 0.15-quantile is the fourth value.
        let rounds: Vec<(f64, u64)> = [(9.0, 100); 3]
            .into_iter()
            .chain((1..=21).rev().map(|ms| (f64::from(ms) / 1e3, 100)))
            .collect();
        assert!((ns_per_op(&rounds, 0.5) - 110_000.0).abs() < 1e-6);
        assert!((ns_per_op(&rounds, THROUGHPUT_QUANTILE) - 40_000.0).abs() < 1e-6);
        assert_eq!(ns_per_op(&[], 0.5), 0.0);
    }

    #[test]
    fn the_traced_cycle_yields_overhead_from_interleaved_rounds() {
        let (rec, _) = run(&cfg(true, 60), &mut |_| {
            Box::new(Scripted { fail_on: u32::MAX })
        });
        assert_eq!(rec.rounds.get("traced"), Some(&20));
        assert_eq!(rec.failed, 0);
        let overhead = rec.layers.get("bench.trace_overhead_share")[0];
        assert!((overhead - 0.1).abs() < 1e-9, "{overhead}");
        assert_eq!(rec.layers.get("bench.rounds"), &[60.0]);
    }
}
