//! Outside-in tracing: spans recorded by the harness around its calls
//! into a layer, kept in per-thread buffers and merged when a round
//! ends, plus the additive layer budget for code that is opaque from
//! here (the executor).
//!
//! Nothing in `crates/` is instrumented; probes inside the crates are
//! a later change (ROADMAP's stage-probe plane).

use std::time::Instant;

use crate::json::Json;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list, or [`NO_PARENT`].
    pub parent: u32,
    pub round: u32,
    pub thread: u16,
    /// Units of work done inside (operations in a `push_batch` call,
    /// records in a scan …); 0 when the span has no natural unit.
    pub count: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("start_ns", Json::num(self.start_ns as f64)),
            ("end_ns", Json::num(self.end_ns as f64)),
            (
                "parent",
                if self.parent == NO_PARENT {
                    Json::Null
                } else {
                    Json::num(f64::from(self.parent))
                },
            ),
            ("round", Json::num(f64::from(self.round))),
            ("thread", Json::num(f64::from(self.thread))),
            ("count", Json::num(f64::from(self.count))),
        ])
    }
}

/// What a measured loop needs from the tracer. The unit type is the
/// untraced implementation: it compiles to nothing, so the untraced
/// and the traced round run the same loop.
pub trait Probe: Sized {
    /// Is anything recorded? Lets a loop skip work that only feeds
    /// the probe (sampling a gauge quiesces the monitor).
    const ON: bool;
    /// Nanoseconds since the epoch (0 when off).
    fn now(&self) -> u64;
    /// Record a finished childless span under the innermost open one.
    fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64, count: u32);
    /// Run `f` inside a span of `count` units of work.
    fn scope<R>(&mut self, name: &'static str, count: u32, f: impl FnOnce(&mut Self) -> R) -> R;
    /// Record a gauge reading; the maximum is kept.
    fn gauge(&mut self, value: usize);
}

impl Probe for () {
    const ON: bool = false;
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn leaf(&mut self, _: &'static str, _: u64, _: u64, _: u32) {}
    #[inline(always)]
    fn scope<R>(&mut self, _: &'static str, _: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
    #[inline(always)]
    fn gauge(&mut self, _: usize) {}
}

/// One thread's span buffer. Only its owner touches it, so recording
/// a span takes no lock and the probe does not become the contention.
#[derive(Debug)]
pub struct ThreadTrace {
    epoch: Instant,
    round: u32,
    thread: u16,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Largest [`Probe::gauge`] reading.
    pub gauge_max: usize,
}

impl ThreadTrace {
    pub fn new(epoch: Instant, round: u32, thread: u16) -> ThreadTrace {
        ThreadTrace {
            epoch,
            round,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            gauge_max: 0,
        }
    }

    /// Run `f` inside a new span; spans `f` records nest under it.
    /// `count` is computed from `f`'s result once it is known.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        count: impl FnOnce(&R) -> u32,
        f: impl FnOnce(&mut ThreadTrace) -> R,
    ) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round: self.round,
            thread: self.thread,
            count: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.count = count(&out);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

impl Probe for ThreadTrace {
    const ON: bool = true;

    fn scope<R>(&mut self, name: &'static str, count: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        self.span(name, |_| count, f)
    }

    fn gauge(&mut self, value: usize) {
        self.gauge_max = self.gauge_max.max(value);
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64, count: u32) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            round: self.round,
            thread: self.thread,
            count,
        });
    }
}

/// Append worker-thread buffers to the spawning thread's list. A
/// worker's root spans become children of `attach_to` (the span that
/// was open on the spawning thread while the workers ran).
pub fn merge(mut main: Vec<Span>, attach_to: u32, workers: Vec<Vec<Span>>) -> Vec<Span> {
    for buf in workers {
        let offset = main.len() as u32;
        main.extend(buf.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                attach_to
            } else {
                s.parent + offset
            };
            s
        }));
    }
    main
}

/// Self time of every span: its duration minus the part of that
/// interval its child spans cover (children on different threads may
/// overlap each other; covered time is counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// The outside-in budget of one opaque call: a total, the named parts
/// measured by replaying the call's output through each layer on its
/// own, and the remainder — which is whatever the parts leave, never
/// clamped, so `parts + remainder == total` by construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Budget {
    pub total: f64,
    pub parts: Vec<(&'static str, f64)>,
}

impl Budget {
    pub fn remainder(&self) -> f64 {
        self.total - self.parts.iter().map(|(_, v)| v).sum::<f64>()
    }

    /// Remainder as a share of the total (0 for an empty budget).
    pub fn remainder_share(&self) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.remainder() / self.total
        }
    }

    pub fn to_json(&self, remainder_name: &str) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![("total".into(), Json::num(self.total))];
        pairs.extend(self.parts.iter().map(|(k, v)| ((*k).into(), Json::num(*v))));
        pairs.push((remainder_name.into(), Json::num(self.remainder())));
        Json::Obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, thread: u16) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 0,
            thread,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("round", 0, 100, NO_PARENT, 0),
            // Two workers overlapping in [20, 60): covered = [10, 90).
            span("worker", 10, 60, 0, 1),
            span("worker", 20, 90, 0, 2),
            // Children of worker 1: [15,25) and [40,50); a nested
            // grandchild must not be subtracted from the grandparent.
            span("push_batch", 15, 25, 1, 1),
            span("push_batch", 40, 50, 1, 1),
            span("inner", 42, 48, 4, 1),
            // A child that sticks out of its parent is clipped.
            span("late", 85, 120, 2, 2),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 80);
        assert_eq!(st[1], 50 - 20);
        assert_eq!(st[2], 70 - 5);
        assert_eq!(st[3], 10);
        assert_eq!(st[4], 10 - 6);
        assert_eq!(st[5], 6);
        assert_eq!(st[6], 35);
    }

    #[test]
    fn nesting_and_merge_link_parents() {
        let epoch = Instant::now();
        let mut main = ThreadTrace::new(epoch, 7, 0);
        let mut worker = ThreadTrace::new(epoch, 7, 1);
        main.span(
            "round",
            |_| 0,
            |tr| {
                tr.span("call", |n: &u32| *n, |_| 3);
                worker.span(
                    "worker",
                    |_| 0,
                    |w| {
                        let t0 = w.now();
                        w.leaf("push_batch", t0, t0 + 5, 8);
                    },
                );
            },
        );
        let spans = merge(main.into_spans(), 0, vec![worker.into_spans()]);
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("round", NO_PARENT),
                ("call", 0),
                ("worker", 0),
                ("push_batch", 2)
            ]
        );
        assert_eq!(spans[1].count, 3);
        assert_eq!(spans[3].count, 8);
        assert!(spans.iter().all(|s| s.round == 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn budget_adds_up_and_keeps_a_negative_remainder() {
        let b = Budget {
            total: 6000.0,
            parts: vec![("tplang.step", 900.0), ("core.monitor.admit", 460.5)],
        };
        assert_eq!(
            b.parts.iter().map(|(_, v)| v).sum::<f64>() + b.remainder(),
            b.total
        );
        let over = Budget {
            total: 100.0,
            parts: vec![("a", 80.0), ("b", 45.0)],
        };
        assert_eq!(over.remainder(), -25.0);
        assert_eq!(over.remainder_share(), -0.25);
        assert_eq!(Budget::default().remainder_share(), 0.0);
    }
}
