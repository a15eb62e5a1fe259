//! **Turns**: a component's real threads, run one at a time.
//!
//! [`run`] starts each worker on a thread of its own. A worker runs
//! until the component's code calls a hook — [`park`], [`lock`] or
//! [`wait`] — and there hands control back; a pick then chooses the
//! next among the workers that can go on. One thread running at a time
//! makes a run as deterministic as one thread would, and what runs is
//! the component's own control flow, not a driver's copy of it.
//!
//! A parked worker can go on
//! - from its start, or from a [`park`] (a window where another worker
//!   may run first);
//! - from a [`lock`], once no other worker holds the key; it then
//!   holds it until its [`unlock`];
//! - from a [`wait`], once a [`notify`] of its key came after it
//!   parked — or at any pick, by timing out: the driver's clock
//!   ([`now`]) then moves on to the wait's deadline. Nothing else moves
//!   that clock, so a deadline passes at a chosen step, never because
//!   the host is slow.
//!
//! None able to go on while one is unfinished is a **deadlock**; a
//! worker's panic ends the run too. Both come back as an error beside
//! the step log, never as a hang. The hooks do nothing on a thread that
//! is not a worker of a run, so a library calls them from `#[cfg(test)]`
//! code and depends on this crate only for its tests.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long the driver waits for the running worker to hand over before
/// it reports the worker blocked where no hook sees it.
const STUCK: Duration = Duration::from_secs(60);

/// What a parked worker waits for.
enum Gate {
    Start,
    /// Nothing: a window.
    Site,
    /// No other worker holding the key.
    Lock(u64),
    /// A notify of `key` after the park, or the driver's clock at
    /// `deadline`.
    Wait {
        key: u64,
        woken: bool,
        deadline: Duration,
    },
}

enum At {
    Running,
    Parked(Gate, Box<dyn Any + Send>),
    Done,
}

struct State {
    at: Vec<At>,
    running: Option<usize>,
    /// `(key, worker)` per lock a worker holds.
    held: Vec<(u64, usize)>,
    /// The driver's clock, from the run's start.
    now: Duration,
    /// What the picked worker's `wait` returns.
    timed_out: bool,
    /// The run is over: parked workers unwind.
    abort: bool,
    panic: Option<String>,
}

struct Ctl {
    state: Mutex<State>,
    /// The driver waits here for the running worker to park.
    driver: Condvar,
    /// Worker `w` waits on `wake[w]` to be picked.
    wake: Vec<Condvar>,
    epoch: Instant,
}

impl Ctl {
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What a parked worker unwinds with once the run is over.
struct Aborted;

/// Ends the run when the driver returns or panics.
struct AbortOnDrop<'a>(&'a Ctl);

impl Drop for AbortOnDrop<'_> {
    fn drop(&mut self) {
        self.0.state().abort = true;
        self.0.wake.iter().for_each(Condvar::notify_one);
    }
}

thread_local! {
    /// The run this thread works for, and its index there; unset on
    /// every other thread, where the hooks do nothing.
    static WORKER: RefCell<Option<(Arc<Ctl>, usize)>> = const { RefCell::new(None) };
}

fn worker() -> Option<(Arc<Ctl>, usize)> {
    WORKER.with(|w| w.borrow().clone())
}

/// Hand control to the driver at `site` and wait to be picked; `true`
/// if the pick timed a [`wait`] out.
fn hand_over(mut gate: Gate, site: Box<dyn Any + Send>) -> bool {
    let Some((ctl, me)) = worker() else {
        return false;
    };
    let mut st = ctl.state();
    if let Gate::Wait { deadline, .. } = &mut gate {
        *deadline += st.now;
    }
    (st.at[me], st.running) = (At::Parked(gate, site), None);
    ctl.driver.notify_one();
    while st.running != Some(me) && !st.abort {
        st = ctl.wake[me]
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner);
    }
    if st.abort {
        drop(st);
        resume_unwind(Box::new(Aborted));
    }
    st.timed_out
}

/// The component's site behind a parked worker's type-erased one.
fn site<S: Any>(site: &(dyn Any + Send)) -> &S {
    site.downcast_ref().expect("a site of the run's type")
}

/// Hook: hand over at `site`, a window in which another worker may run
/// first.
pub fn park<S: Any + Send>(site: S) {
    hand_over(Gate::Site, Box::new(site));
}

/// Hook: hand over at `site`, before taking the lock `key`.
pub fn lock<S: Any + Send>(key: u64, site: S) {
    hand_over(Gate::Lock(key), Box::new(site));
}

/// Hook: the lock `key` was released (no hand-over).
pub fn unlock(key: u64) {
    if let Some((ctl, me)) = worker() {
        ctl.state().held.retain(|&h| h != (key, me));
    }
}

/// Hook: hand over at `site` to wait for a [`notify`] of `key`, or for
/// `timeout` on the driver's clock; `true` if it timed out.
pub fn wait<S: Any + Send>(key: u64, timeout: Duration, site: S) -> bool {
    let gate = Gate::Wait {
        key,
        woken: false,
        deadline: timeout,
    };
    hand_over(gate, Box::new(site))
}

/// Hook: wake every worker waiting on `key` (no hand-over).
pub fn notify(key: u64) {
    if let Some((ctl, _)) = worker() {
        for at in &mut ctl.state().at {
            if let At::Parked(Gate::Wait { key: k, woken, .. }, _) = at {
                *woken |= *k == key;
            }
        }
    }
}

/// The driver's clock, on a worker thread: the run's start plus every
/// timeout it fired. `None` on any other thread.
pub fn now() -> Option<Instant> {
    worker().map(|(ctl, _)| ctl.epoch + ctl.state().now)
}

/// Is this thread a worker of a run?
pub fn driven() -> bool {
    worker().is_some()
}

/// The choice at a hand-over: given the workers that can go on and a
/// way to ask where the `i`-th of them would go on from, the index of
/// the one to run.
pub(crate) type Choose<'p> = dyn FnMut(&[usize], &dyn Fn(usize) -> String) -> usize + 'p;

/// Run each of `workers` on a thread of its own, one at a time. At
/// every hand-over `pick` gets the workers that can go on, in index
/// order, and a way to ask where the `i`-th would go on from (as
/// `describe` puts its site, with `start`, and `, woken` or
/// `, timed out` after a [`wait`]), and returns the index of the one
/// to run. Returns the steps taken (`worker 1: lock sequence`) and,
/// unless every worker finished, what went wrong: a deadlock, naming
/// each worker's site and why it cannot go on, or a worker's panic.
pub fn run<'a, S: Any>(
    workers: Vec<Box<dyn FnOnce() + Send + 'a>>,
    describe: &dyn Fn(&S) -> String,
    pick: &mut Choose<'_>,
) -> (Vec<String>, Result<(), String>) {
    let ctl = Arc::new(Ctl {
        state: Mutex::new(State {
            at: workers.iter().map(|_| At::Running).collect(),
            running: None,
            held: Vec::new(),
            now: Duration::ZERO,
            timed_out: false,
            abort: false,
            panic: None,
        }),
        driver: Condvar::new(),
        wake: workers.iter().map(|_| Condvar::new()).collect(),
        epoch: Instant::now(),
    });
    let mut steps = Vec::new();
    let result = std::thread::scope(|scope| {
        for (me, work) in workers.into_iter().enumerate() {
            let ctl = Arc::clone(&ctl);
            scope.spawn(move || {
                WORKER.with(|w| *w.borrow_mut() = Some((Arc::clone(&ctl), me)));
                let out = catch_unwind(AssertUnwindSafe(|| {
                    hand_over(Gate::Start, Box::new(()));
                    work();
                }));
                WORKER.with(|w| w.borrow_mut().take());
                let mut st = ctl.state();
                if let Some(p) = out.err().filter(|p| !p.is::<Aborted>()) {
                    let text = p.downcast_ref::<&str>().map(|s| s.to_string());
                    st.panic = text.or(p.downcast_ref::<String>().cloned());
                    st.panic.get_or_insert_default();
                }
                (st.at[me], st.running) = (At::Done, None);
                ctl.driver.notify_one();
            });
        }
        let _abort = AbortOnDrop(&ctl);
        let mut st = ctl.state();
        loop {
            while let Some(w) = st.at.iter().position(|at| matches!(at, At::Running)) {
                let (next, waited) =
                    (ctl.driver.wait_timeout(st, STUCK)).unwrap_or_else(PoisonError::into_inner);
                st = next;
                if waited.timed_out() && matches!(st.at[w], At::Running) {
                    return Err(format!("worker {w} ran {STUCK:?} without handing over"));
                }
            }
            if let Some(panic) = st.panic.take() {
                return Err(format!("a worker panicked: {panic}"));
            }
            let parked = |w: usize| match &st.at[w] {
                At::Parked(gate, site) => Some((gate, &**site)),
                _ => None,
            };
            // Why worker `w` cannot go on yet, if it cannot.
            let why = |w: usize| match parked(w)? {
                (Gate::Start | Gate::Site | Gate::Wait { .. }, _) => None,
                (Gate::Lock(key), _) => (st.held.iter())
                    .find(|&&(k, o)| k == *key && o != w)
                    .map(|(_, o)| format!(", held by worker {o}")),
            };
            // Where worker `w` would go on from.
            let from = |w: usize| match parked(w).expect("parked") {
                (Gate::Start, _) => "start".to_string(),
                (Gate::Site | Gate::Lock(_), s) => describe(site(s)),
                (Gate::Wait { woken, .. }, s) => {
                    let how = if *woken { "woken" } else { "timed out" };
                    format!("{}, {how}", describe(site(s)))
                }
            };
            let waiting = (0..st.at.len()).filter(|&w| parked(w).is_some());
            let (runnable, stuck): (Vec<usize>, Vec<usize>) =
                waiting.partition(|&w| why(w).is_none());
            if stuck.is_empty() && runnable.is_empty() {
                return Ok(());
            }
            if runnable.is_empty() {
                let each =
                    |&w: &usize| format!("worker {w}: {}{}", from(w), why(w).unwrap_or_default());
                return Err(format!(
                    "deadlock: {}",
                    stuck.iter().map(each).collect::<Vec<_>>().join("; ")
                ));
            }
            let i = pick(&runnable, &|i| from(runnable[i]));
            let w = runnable[i];
            steps.push(format!("worker {w}: {}", from(w)));
            match std::mem::replace(&mut st.at[w], At::Running) {
                At::Parked(Gate::Lock(key), _) => st.held.push((key, w)),
                At::Parked(
                    Gate::Wait {
                        woken, deadline, ..
                    },
                    _,
                ) => {
                    st.timed_out = !woken;
                    if !woken {
                        st.now = st.now.max(deadline);
                    }
                }
                _ => {}
            }
            st.running = Some(w);
            ctl.wake[w].notify_one();
        }
    });
    (steps, result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    type Work<'a> = Box<dyn FnOnce() + Send + 'a>;

    /// Run `workers`, whose sites are plain names, always picking the
    /// candidate `pick` names by index.
    fn go(
        workers: Vec<Work<'_>>,
        mut pick: impl FnMut(&[usize]) -> usize,
    ) -> (Vec<String>, Result<(), String>) {
        let describe = |s: &&str| s.to_string();
        run(
            workers,
            &describe,
            &mut |w: &[usize], _: &dyn Fn(usize) -> String| pick(w),
        )
    }

    #[test]
    fn the_step_log_lists_every_pick_with_its_site() {
        let two = |name: &'static str| -> Work<'static> {
            Box::new(move || {
                park(name);
                park("end");
            })
        };
        // Always the last candidate: worker 1 runs ahead of worker 0.
        let (steps, result) = go(vec![two("a"), two("b")], |w| w.len() - 1);
        assert_eq!(result, Ok(()));
        let want = [
            "worker 1: start",
            "worker 1: b",
            "worker 1: end",
            "worker 0: start",
            "worker 0: a",
            "worker 0: end",
        ];
        assert_eq!(steps, want);
    }

    #[test]
    fn two_locks_taken_in_opposite_orders_deadlock() {
        let both = |first: u64, second: u64| -> Work<'static> {
            Box::new(move || {
                lock(first, format!("lock {first}"));
                lock(second, format!("lock {second}"));
                unlock(second);
                unlock(first);
            })
        };
        let describe = |s: &String| s.clone();
        // Worker 0 starts and takes lock 1, then worker 1 runs on.
        let mut order = [0, 0, 1, 1].into_iter();
        let mut pick = |w: &[usize], _: &dyn Fn(usize) -> String| {
            let next = order.next().unwrap_or(0);
            w.iter().position(|&c| c == next).expect("a candidate")
        };
        let workers = vec![both(1, 2), both(2, 1)];
        let (steps, result) = run(workers, &describe, &mut pick);
        assert_eq!(steps.last().map(String::as_str), Some("worker 1: lock 2"));
        let want =
            "deadlock: worker 0: lock 2, held by worker 1; worker 1: lock 1, held by worker 0";
        assert_eq!(result, Err(want.to_string()));
    }

    #[test]
    fn a_panic_ends_the_run_and_the_other_workers_unwind() {
        let unwound = AtomicBool::new(true);
        let workers: Vec<Work<'_>> = vec![
            Box::new(|| {
                park("before");
                panic!("boom");
            }),
            Box::new(|| {
                park("waiting");
                unwound.store(false, Ordering::Relaxed);
            }),
        ];
        let (steps, result) = go(workers, |_| 0);
        assert_eq!(result, Err("a worker panicked: boom".to_string()));
        assert_eq!(steps, ["worker 0: start", "worker 0: before"]);
        assert!(unwound.load(Ordering::Relaxed), "worker 1 never ran on");
    }

    #[test]
    fn a_wait_goes_on_when_notified_or_when_the_driver_times_it_out() {
        assert_eq!(now(), None, "no clock off a run");
        for notified in [false, true] {
            let seen = Mutex::new(None);
            let workers: Vec<Work<'_>> = vec![
                Box::new(|| {
                    let start = now().expect("a worker reads the driver's clock");
                    let timed_out = wait(7, Duration::from_millis(5), "wait");
                    *seen.lock().unwrap() = Some((timed_out, now().unwrap() - start));
                }),
                Box::new(|| {
                    park("notify");
                    notify(7);
                }),
            ];
            // The first candidate, except that a notified run leaves
            // worker 0's wait alone while worker 1 can go on.
            let mut pick = |w: &[usize], from: &dyn Fn(usize) -> String| match notified {
                true => (0..w.len())
                    .position(|i| from(i) != "wait, timed out")
                    .unwrap_or(0),
                false => 0,
            };
            let describe = |s: &&str| s.to_string();
            let (steps, result) = run(workers, &describe, &mut pick);
            assert_eq!(result, Ok(()));
            let (timed_out, waited) = seen.into_inner().unwrap().expect("worker 0 ran");
            let step =
                ["worker 0: wait, timed out", "worker 0: wait, woken"][usize::from(notified)];
            assert!(steps.iter().any(|s| s == step), "{steps:?}");
            assert_eq!(timed_out, !notified);
            assert_eq!(waited, Duration::from_millis(if notified { 0 } else { 5 }));
        }
    }
}
