//! Regenerate every example, figure and theorem of the paper.
//!
//! ```text
//! experiments [all|<group>|<id>] [--trials N] [--smoke]
//! ```
//!
//! Groups and ids are the rows of [`REGISTRY`] (`experiments nope`
//! prints them). Every experiment prints a paper-vs-measured table and
//! decides for itself whether the outcome has the paper's predicted
//! shape; the exit status is the verdict — 0 every selected experiment
//! matched, 1 some experiment deviated, 2 the command line selected
//! nothing. That status is all CI reads.
//!
//! `--smoke` caps every per-experiment trial default at a small constant
//! so the full sweep finishes in a couple of seconds — the CI entry
//! point (`experiments all --smoke`) that keeps every experiment's code
//! path *and* its shape check exercised without paying for full
//! statistical power. An explicit `--trials` overrides the cap.
//!
//! No experiment reads a clock: speed is `benchmark/run.sh`'s question.

use pwsr_bench::{
    analysis_exp, bank_exp, base_exp, chaos_exp, compact_exp, examples_exp, exhaustive_exp,
    lemmas_exp, monitor_exp, perf_exp, recovery_exp, theorems_exp,
};

/// Trial cap applied by `--smoke` to every per-experiment default.
const SMOKE_TRIALS: u64 = 8;

/// How many trials an experiment should run, given its own default.
#[derive(Clone, Copy, Default)]
struct Trials {
    /// `--trials N`; 0 = per-experiment default.
    explicit: u64,
    smoke: bool,
}

impl Trials {
    fn or(self, default: u64) -> u64 {
        if self.explicit != 0 {
            self.explicit
        } else if self.smoke {
            default.min(SMOKE_TRIALS)
        } else {
            default
        }
    }
}

/// One experiment: its id, the group it belongs to, and how to run it.
/// `run` returns whether the outcome matched the paper's shape, and
/// the table to print.
type Row = (&'static str, &'static str, fn(Trials) -> (bool, String));

/// Drop the counts an experiment hands its unit tests.
fn shape<S>((ok, text, _): (bool, String, S)) -> (bool, String) {
    (ok, text)
}

/// Every experiment, in the order `all` runs them.
const REGISTRY: &[Row] = &[
    ("ex1", "examples", |_| examples_exp::ex1()),
    ("ex2", "examples", |_| examples_exp::ex2()),
    ("ex3", "examples", |_| examples_exp::ex3()),
    ("ex4", "examples", |_| examples_exp::ex4()),
    ("ex5", "examples", |_| examples_exp::ex5()),
    ("fig3", "examples", |_| examples_exp::fig3()),
    ("lemma1", "lemmas", |n| {
        let (o, t) = lemmas_exp::lemma1(n.or(2_000), 11);
        (o.clean(), t)
    }),
    ("viewsets", "lemmas", |n| {
        let (l2, l6, t) = lemmas_exp::viewset_lemmas(n.or(150), 12);
        let ok = l2.clean() && l6.clean() && l2.checks > 0 && l6.checks > 0;
        (ok, t)
    }),
    ("lemma3", "lemmas", |n| {
        let (fixed, _ctrl, t) = lemmas_exp::lemma3(n.or(200), 13);
        (fixed.clean() && fixed.checks > 0, t)
    }),
    ("lemma4", "lemmas", |n| {
        let (l4, l8, t) = lemmas_exp::lemma4_and_8(n.or(60), 14);
        let ok = l4.clean() && l8.clean() && l4.checks > 0 && l8.checks > 0;
        (ok, t)
    }),
    ("lemma7", "lemmas", |n| {
        let (o, t) = lemmas_exp::lemma7(n.or(500), 15);
        (o.clean() && o.checks > 0, t)
    }),
    ("thm1", "theorems", |n| theorem(1, n, 101)),
    ("thm2", "theorems", |n| theorem(2, n, 102)),
    ("thm3", "theorems", |n| theorem(3, n, 103)),
    ("perf1", "perf", |n| perf_exp::perf1(n.or(24), 400)),
    ("perf2", "perf", |_| perf_exp::perf2(401)),
    ("perf3", "perf", |n| perf_exp::perf3(n.or(5), 402)),
    ("perf4", "perf", |n| perf_exp::perf4(n.or(8), 403)),
    ("perf5", "perf", |n| perf_exp::perf5(n.or(10), 404)),
    ("base1", "base", |n| base_exp::base1(n.or(80), 600)),
    ("bank1", "bank", |n| bank_exp::bank1(n.or(200), 700)),
    ("rec1", "recovery", |n| recovery_exp::rec1(n.or(600), 800)),
    ("rec2", "recovery", |_| shape(recovery_exp::rec2(801))),
    ("exh1", "exhaustive", |_| exhaustive_exp::exh1()),
    ("mon1", "monitor", |_| monitor_exp::mon1()),
    ("mon2", "monitor", |n| monitor_exp::mon2(n.or(5))),
    ("mon3", "monitor", |n| monitor_exp::mon3(n.or(5), 902)),
    ("mon4", "monitor", |n| monitor_exp::mon4(n.or(5))),
    ("an1", "analysis", |n| {
        shape(analysis_exp::an1(n.or(5), 0xA11))
    }),
    ("cmp1", "compact", |n| {
        shape(compact_exp::cmp1(n.or(10), 0xC01))
    }),
    ("cha1", "chaos", |n| shape(chaos_exp::cha1(n.or(2), 0xC4A1))),
];

fn theorem(which: u8, n: Trials, seed: u64) -> (bool, String) {
    let (o, t) = theorems_exp::theorem(which, n.or(30), 8, seed);
    (o.matches_paper(), t)
}

/// What the command line may select, read off the registry.
fn usage(rows: &[Row]) -> String {
    let mut groups: Vec<&str> = rows.iter().map(|r| r.1).collect();
    groups.dedup();
    let ids: Vec<&str> = rows.iter().map(|r| r.0).collect();
    let head = "usage: experiments [all|<group>|<id>] [--trials N] [--smoke]";
    let (groups, ids) = (groups.join(" "), ids.join(" "));
    format!("{head}\ngroups: {groups}\nids: {ids}")
}

/// Parse `args`, run every row the selection names (in registry order,
/// past any that deviate) and return the process exit status: 0 all
/// matched, 1 a deviation, 2 a command line that selects nothing.
fn run(args: &[&str], rows: &[Row]) -> i32 {
    let usage_error = |what: String| {
        eprintln!("{what}\n{}", usage(rows));
        2
    };
    let mut what = "all";
    let mut trials = Trials::default();
    let mut args = args.iter();
    while let Some(&arg) = args.next() {
        match arg {
            "--smoke" => trials.smoke = true,
            "--trials" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => trials.explicit = n,
                None => return usage_error("--trials needs a number".to_owned()),
            },
            flag if flag.starts_with("--") => {
                return usage_error(format!("unknown option {flag:?}"));
            }
            selection => what = selection,
        }
    }
    let selected: Vec<&Row> = rows
        .iter()
        .filter(|(id, group, _)| what == "all" || what == *id || what == *group)
        .collect();
    if selected.is_empty() {
        return usage_error(format!("unknown experiment {what:?}"));
    }
    let mut status = 0;
    for (id, _, run) in selected {
        let (ok, text) = run(trials);
        println!("{text}");
        if !ok {
            eprintln!("!! {id}: deviation from the paper's predicted shape\n");
            status = 1;
        }
    }
    status
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    std::process::exit(run(&args, REGISTRY));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn registry_ids_are_unique_and_every_group_is_inhabited() {
        for (k, (id, group, _)) in REGISTRY.iter().enumerate() {
            assert!(!id.is_empty() && !group.is_empty() && *id != "all");
            assert!(REGISTRY[..k].iter().all(|r| r.0 != *id), "duplicate {id}");
            // An id that is also a group name would select both.
            assert!(REGISTRY.iter().all(|r| r.1 != *id), "{id} names a group");
        }
    }

    /// Every word the usage text offers selects something: `run` gets
    /// past selection (status 0 or 1, not 2) on a registry with the
    /// same names and instant bodies.
    #[test]
    fn every_listed_group_and_id_resolves() {
        let names: Vec<Row> = REGISTRY
            .iter()
            .map(|&(id, group, _)| -> Row { (id, group, |_| (true, String::new())) })
            .collect();
        let text = usage(REGISTRY);
        let listed = text.lines().skip(1);
        let listed: Vec<&str> = listed.flat_map(|l| l.split_whitespace().skip(1)).collect();
        assert!(listed.len() > REGISTRY.len(), "{text}");
        for name in listed {
            assert_eq!(run(&[name], &names), 0, "{name}");
        }
        assert_eq!(run(&[], &names), 0);
        assert_eq!(run(&["all", "--smoke", "--trials", "3"], &names), 0);
    }

    /// A deviating row fails the run but does not stop it.
    #[test]
    fn one_deviation_exits_1_and_later_rows_still_run() {
        static RAN: AtomicU32 = AtomicU32::new(0);
        fn pass(_: Trials) -> (bool, String) {
            RAN.fetch_add(1, Ordering::Relaxed);
            (true, String::new())
        }
        let rows: &[Row] = &[
            ("a", "g", pass),
            ("b", "g", |_| (false, "deviates".to_owned())),
            ("c", "g", pass),
            ("d", "other", pass),
        ];
        assert_eq!(run(&["g"], rows), 1);
        assert_eq!(RAN.load(Ordering::Relaxed), 2, "a and c, not d");
        assert_eq!(run(&["b"], rows), 1);
        assert_eq!(run(&["d"], rows), 0);
    }

    #[test]
    fn selecting_nothing_exits_2_and_runs_nothing() {
        let rows: &[Row] = &[("a", "g", |_| unreachable!("a usage error runs nothing"))];
        for args in [
            &["nope"][..],
            &["scale1"],
            &["all", "--json", "smoke.json"],
            &["--json"],
            &["--trials"],
            &["--trials", "many"],
        ] {
            assert_eq!(run(args, rows), 2, "{args:?}");
        }
    }
}
