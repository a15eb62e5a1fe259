//! Unconstrained executions: every interleaving is possible.
//!
//! The "chaos scheduler" applies no concurrency control: in one stepping
//! loop, the live program a [`Pick`] chooses performs its next operation
//! on the evolving database. [`random_execution`] passes a seeded draw
//! (the theorem experiments' populations); [`enumerate_executions`] runs
//! the loop once per path of an [`Explore`], replaying from the initial
//! state instead of cloning sessions (PERF-2's exact counts); and
//! [`execute_with_picks`] follows one given interleaving, e.g. Example 2.

use pwsr_core::catalog::Catalog;
use pwsr_core::error::CoreError;
use pwsr_core::ids::TxnId;
use pwsr_core::pick::{Explore, Pick};
use pwsr_core::schedule::Schedule;
use pwsr_core::state::DbState;
use pwsr_tplang::ast::Program;
use pwsr_tplang::error::Result;
use pwsr_tplang::session::{Pending, ProgramSession};
use rand::Rng;

/// The stepping loop: until every program is done, `picks` chooses
/// among the live transactions which one performs its next operation
/// (program `k` runs as transaction `k+1`).
fn interleave(
    programs: &[Program],
    catalog: &Catalog,
    initial: &DbState,
    picks: &mut impl Pick<TxnId>,
) -> Result<Schedule> {
    let mut sessions: Vec<ProgramSession<'_>> = programs
        .iter()
        .enumerate()
        .map(|(k, p)| ProgramSession::new(p, catalog, TxnId(k as u32 + 1)))
        .collect();
    let mut live: Vec<TxnId> = sessions.iter().map(ProgramSession::txn).collect();
    // Drop sessions that are done before emitting anything.
    let mut i = 0;
    while i < live.len() {
        if sessions[live[i].0 as usize - 1].is_done()? {
            live.swap_remove(i);
        } else {
            i += 1;
        }
    }
    let mut db = initial.clone();
    let mut trace = Vec::new();
    while !live.is_empty() {
        let li = picks.pick(&live);
        let session = &mut sessions[live[li].0 as usize - 1];
        match session.pending()? {
            Pending::NeedRead(item) => trace.push(session.feed_read(db.require(item)?.clone())?),
            Pending::Write(op) => {
                db.set(op.item, op.value.clone());
                session.advance_write()?;
                trace.push(op);
            }
            Pending::Done => unreachable!("only live sessions step"),
        }
        if session.is_done()? {
            live.swap_remove(li);
        }
    }
    Ok(Schedule::new(trace)?)
}

/// Execute the programs under a uniformly random interleaving (program
/// `k` runs as transaction `k+1`).
pub fn random_execution<R: Rng>(
    programs: &[Program],
    catalog: &Catalog,
    initial: &DbState,
    rng: &mut R,
) -> Result<Schedule> {
    let mut draw = |n| rng.random_range(0..n);
    interleave(programs, catalog, initial, &mut draw)
}

/// A pick sequence, followed while it can be; `strayed` says where it
/// first could not be, and the loop then runs on with choice 0.
#[derive(Default)]
struct Script<'a> {
    picks: &'a [TxnId],
    next: usize,
    strayed: Option<String>,
}

fn not_running(k: usize, t: &TxnId) -> String {
    format!("pick {k} names {t}, which is not running")
}

impl Pick<TxnId> for Script<'_> {
    fn pick(&mut self, live: &[TxnId]) -> usize {
        let (k, t) = (self.next, self.picks.get(self.next));
        self.next += 1;
        let at = t.and_then(|t| live.iter().position(|l| l == t));
        if at.is_none() && self.strayed.is_none() {
            let unfinished = format!("{live:?} unfinished after the last pick");
            self.strayed = Some(t.map_or(unfinished, |t| not_running(k, t)));
        }
        at.unwrap_or(0)
    }
}

/// Execute one specific interleaving given as a pick sequence (each
/// entry: which transaction performs its next operation). A pick of a
/// transaction that is not running, or a transaction left unfinished,
/// is a [`CoreError::MalformedSchedule`] naming it.
pub fn execute_with_picks(
    programs: &[Program],
    catalog: &Catalog,
    initial: &DbState,
    picks: &[TxnId],
) -> Result<Schedule> {
    let mut script = Script {
        picks,
        ..Script::default()
    };
    let run = interleave(programs, catalog, initial, &mut script);
    if let (None, Ok(_), Some(t)) = (&script.strayed, &run, picks.get(script.next)) {
        script.strayed = Some(not_running(script.next, t));
    }
    match script.strayed {
        Some(msg) => Err(CoreError::MalformedSchedule(msg).into()),
        None => run,
    }
}

/// Enumerate **every** interleaving of the programs (up to `cap`
/// schedules), in lexicographic order of their pick sequences. The
/// number of interleavings is the multinomial coefficient of the op
/// counts, so keep instances tiny. Returns `None` if the cap is hit.
pub fn enumerate_executions(
    programs: &[Program],
    catalog: &Catalog,
    initial: &DbState,
    cap: usize,
) -> Result<Option<Vec<Schedule>>> {
    let mut explore = Explore::default();
    let mut out = Vec::new();
    loop {
        let schedule = interleave(programs, catalog, initial, &mut explore)?;
        if out.len() >= cap {
            return Ok(None);
        }
        out.push(schedule);
        if !explore.advance() {
            return Ok(Some(out));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_core::value::{Domain, Value};
    use pwsr_tplang::error::TpError;
    use pwsr_tplang::parser::parse_program;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Catalog, DbState, Vec<Program>) {
        let mut cat = Catalog::new();
        let a = cat.add_item("a", Domain::int_range(-100, 100));
        let b = cat.add_item("b", Domain::int_range(-100, 100));
        let initial = DbState::from_pairs([(a, Value::Int(0)), (b, Value::Int(0))]);
        let programs = vec![
            parse_program("T1", "a := a + 1;").unwrap(),
            parse_program("T2", "b := a;").unwrap(),
        ];
        (cat, initial, programs)
    }

    #[test]
    fn random_executions_are_coherent() {
        let (cat, initial, programs) = setup();
        let mut rng = StdRng::seed_from_u64(123);
        for _ in 0..50 {
            let s = random_execution(&programs, &cat, &initial, &mut rng).unwrap();
            s.check_read_coherence(&initial).unwrap();
            assert_eq!(s.len(), 4);
        }
    }

    #[test]
    fn enumeration_counts_interleavings() {
        // T1 has 2 ops, T2 has 2 ops: C(4,2) = 6 interleavings.
        let (cat, initial, programs) = setup();
        let all = enumerate_executions(&programs, &cat, &initial, 1000)
            .unwrap()
            .unwrap();
        assert_eq!(all.len(), 6);
        // All coherent, all distinct.
        for s in &all {
            s.check_read_coherence(&initial).unwrap();
        }
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j]);
            }
        }
    }

    #[test]
    fn enumeration_cap_returns_none() {
        let (cat, initial, programs) = setup();
        assert!(enumerate_executions(&programs, &cat, &initial, 3)
            .unwrap()
            .is_none());
    }

    #[test]
    fn branching_programs_enumerate_correctly() {
        // T2's op count depends on what it reads: interleavings where
        // T1's write lands first give T2 an extra write.
        let mut cat = Catalog::new();
        let a = cat.add_item("a", Domain::int_range(-10, 10));
        let b = cat.add_item("b", Domain::int_range(-10, 10));
        let initial = DbState::from_pairs([(a, Value::Int(0)), (b, Value::Int(0))]);
        let programs = vec![
            parse_program("T1", "a := 1;").unwrap(),
            parse_program("T2", "if (a > 0) then b := 7;").unwrap(),
        ];
        let all = enumerate_executions(&programs, &cat, &initial, 1000)
            .unwrap()
            .unwrap();
        // Schedules: [w1 r2 w2], [r2 w1], [r2 w1]… picks differ but some
        // yield identical op sequences; just require ≥2 distinct lengths.
        let mut lens: Vec<usize> = all.iter().map(Schedule::len).collect();
        lens.sort_unstable();
        lens.dedup();
        assert!(lens.contains(&2) && lens.contains(&3), "{lens:?}");
    }

    #[test]
    fn picks_replay_specific_interleavings() {
        let (cat, initial, programs) = setup();
        let s = execute_with_picks(
            &programs,
            &cat,
            &initial,
            &[TxnId(2), TxnId(1), TxnId(1), TxnId(2)],
        )
        .unwrap();
        // T2 read a before T1's increment: b := 0.
        assert_eq!(s.ops()[3].value, Value::Int(0));
        // A pick that strays, or a transaction left unfinished, is a
        // malformed schedule naming it.
        let full = [TxnId(1), TxnId(1), TxnId(2), TxnId(2)];
        for (picks, named) in [
            (&[TxnId(9)][..], "pick 0 names T9, which is not running"),
            (
                &[&full[..], &[TxnId(1)]].concat(),
                "pick 4 names T1, which is not running",
            ),
            (&full[..2], "[T2] unfinished after the last pick"),
        ] {
            match execute_with_picks(&programs, &cat, &initial, picks) {
                Err(TpError::Core(CoreError::MalformedSchedule(msg))) => {
                    assert!(msg.contains(named), "{picks:?}: {msg}")
                }
                other => panic!("{picks:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_seeded_draw_answers_random_range() {
        // One `random_range(0..live)` per operation, so a seed lands on
        // the same transactions however the loop is written.
        let (cat, initial, programs) = setup();
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut widths = Vec::new();
            let mut draw = |n: usize| {
                widths.push(n);
                rng.random_range(0..n)
            };
            let s = interleave(&programs, &cat, &initial, &mut draw).unwrap();
            let live_at = |i: usize| {
                let mut txns: Vec<TxnId> = s.ops()[i..].iter().map(|o| o.txn).collect();
                txns.sort_unstable();
                txns.dedup();
                txns.len()
            };
            assert_eq!(widths, (0..s.len()).map(live_at).collect::<Vec<_>>());
            let mut rng = StdRng::seed_from_u64(seed);
            assert_eq!(
                random_execution(&programs, &cat, &initial, &mut rng).unwrap(),
                s
            );
        }
    }

    #[test]
    fn empty_program_list() {
        let (cat, initial, _) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        let s = random_execution(&[], &cat, &initial, &mut rng).unwrap();
        assert!(s.is_empty());
        let all = enumerate_executions(&[], &cat, &initial, 10)
            .unwrap()
            .unwrap();
        assert_eq!(all.len(), 1);
    }
}
