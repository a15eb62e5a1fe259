//! The admission paths' **allocation budget**, and the resident
//! estimate held against what an allocator sees.
//!
//! A counting `#[global_allocator]` (this test binary only) counts the
//! calls and the live bytes of the *calling thread* — the test harness
//! runs every test on its own thread, so the tests do not see each
//! other — and the tests below hold, after warm-up, on a 16-conjunct ×
//! 16-item catalog with 8-operation transactions:
//!
//! | path | allocations per operation |
//! |---|---|
//! | `OnlineMonitor::push_batch_logged` | ≤ 0.5 |
//! | `ShardedMonitor::push_batch`, unlogged | ≤ 0.5 |
//! | `ShardedMonitor::push_batch`, logged | ≤ 1.0 |
//! | `truncate_to` of an admitted suffix, both monitors | 0 |
//!
//! The returned `Vec` of verdicts or outcomes counts (1/8 per
//! operation); the rest of the allowance covers the amortized doubling
//! of the tables that grow with the stream and the two §2.2 totals of
//! each new transaction, whose bitsets spill to the heap for items
//! ≥ 64 unless a retired row is at hand. Both monitors run the same
//! stage code over the same journals, so they read alike: measured on
//! the stream that only grows, 0.427 (single writer), 0.423 (sharded)
//! and 0.428 (sharded, logged); swept, 0.129 / 0.128 / 0.129.

use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::OnlineMonitor;
use pwsr_core::op::Operation;
use pwsr_core::state::ItemSet;
use pwsr_core::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocator calls that obtained memory, on this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes obtained minus bytes returned, on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

// SAFETY: every request is passed to `System` unchanged and its result
// returned unchanged, so `System`'s guarantees carry over; the counters
// are `const`-initialized thread-locals without destructors, so
// touching them neither allocates nor runs after thread teardown
// (`try_with` covers the teardown window anyway).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = LIVE.try_with(|b| b.set(b.get() + layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|b| b.set(b.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = LIVE.try_with(|b| b.set(b.get() + new_size as i64 - layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Allocator calls `f` makes on this thread.
fn calls_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = calls();
    let out = f();
    (calls() - before, out)
}

const CONJUNCTS: u32 = 16;
const ITEMS_PER_CONJUNCT: u32 = 16;

fn scopes(conjuncts: u32) -> Vec<ItemSet> {
    (0..conjuncts)
        .map(|k| {
            ItemSet::from_iter((0..ITEMS_PER_CONJUNCT).map(|i| ItemId(k * ITEMS_PER_CONJUNCT + i)))
        })
        .collect()
}

/// `n` transactions of eight operations: each reads four distinct
/// items of one conjunct and then writes them; every eighth first
/// reads an item of the next conjunct instead of its own first item
/// (so the data access graph and the global graph get cross-conjunct
/// edges). Deterministic.
fn transactions(n: usize, conjuncts: u32) -> Vec<Vec<Operation>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|j| {
            let txn = TxnId(j as u32 + 1);
            let k = (next() % conjuncts as u64) as u32;
            let first = (next() % ITEMS_PER_CONJUNCT as u64) as u32;
            let items: Vec<ItemId> = (0..4)
                .map(|i| ItemId(k * ITEMS_PER_CONJUNCT + (first + 3 * i) % ITEMS_PER_CONJUNCT))
                .collect();
            let mut ops: Vec<Operation> = items
                .iter()
                .map(|&x| Operation::read(txn, x, Value::Int(j as i64)))
                .collect();
            if j % 8 == 7 {
                let other = (k + 1) % conjuncts * ITEMS_PER_CONJUNCT + first;
                ops[0] = Operation::read(txn, ItemId(other), Value::Int(0));
                ops.extend(
                    items[1..]
                        .iter()
                        .map(|&x| Operation::write(txn, x, Value::Int(j as i64 + 1))),
                );
                ops.push(Operation::write(txn, items[0], Value::Int(j as i64 + 1)));
            } else {
                ops.extend(
                    items
                        .iter()
                        .map(|&x| Operation::write(txn, x, Value::Int(j as i64 + 1))),
                );
            }
            assert_eq!(ops.len(), 8);
            ops
        })
        .collect()
}

/// How a stream treats what it has admitted.
#[derive(Clone, Copy, PartialEq)]
enum Upkeep {
    /// Nothing is ever declared finished: every table only grows.
    Grow,
    /// Every `SWEEP` transactions: all finished, floor raised, swept.
    Sweep,
}

const SWEEP: usize = 64;

/// Drive `txns` through a single-writer monitor's logged batch path;
/// returns the allocator calls made by the `push_batch_logged` calls
/// alone (upkeep is not admission).
fn stream_online(m: &mut OnlineMonitor, txns: &[Vec<Operation>], upkeep: Upkeep) -> u64 {
    let mut spent = 0;
    for (j, txn) in txns.iter().enumerate() {
        let (n, verdicts) = calls_in(|| m.push_batch_logged(txn).unwrap());
        spent += n;
        drop(verdicts);
        if upkeep == Upkeep::Sweep {
            m.finish_txn(txn[0].txn);
            if j % SWEEP == SWEEP - 1 {
                m.checkpoint(m.len());
                m.compact();
            }
        }
    }
    spent
}

/// The same for a sharded monitor's `push_batch`.
fn stream_sharded(m: &ShardedMonitor, txns: &[Vec<Operation>], upkeep: Upkeep) -> u64 {
    let mut spent = 0;
    for (j, txn) in txns.iter().enumerate() {
        let (n, outcomes) = calls_in(|| m.push_batch(txn).unwrap());
        spent += n;
        drop(outcomes);
        if upkeep == Upkeep::Sweep {
            m.finish_txn(txn[0].txn);
            if j % SWEEP == SWEEP - 1 {
                m.checkpoint([]);
                m.compact();
            }
        }
    }
    spent
}

const WARM_UP: usize = 512;
const MEASURED: usize = 2048;

fn per_op(calls: u64) -> f64 {
    calls as f64 / (8 * MEASURED) as f64
}

#[test]
fn online_logged_batches_stay_within_one_allocation_per_operation() {
    let txns = transactions(WARM_UP + MEASURED, CONJUNCTS);
    for upkeep in [Upkeep::Sweep, Upkeep::Grow] {
        let mut m = OnlineMonitor::new(scopes(CONJUNCTS));
        stream_online(&mut m, &txns[..WARM_UP], upkeep);
        let spent = stream_online(&mut m, &txns[WARM_UP..], upkeep);
        // Measured: 0.427 on the stream that only grows, 0.129 swept.
        assert!(
            per_op(spent) <= 0.5,
            "push_batch_logged: {:.3} allocations per operation ({spent} calls)",
            per_op(spent)
        );
        assert_eq!(m.len(), 8 * txns.len());
    }
}

#[test]
fn sharded_batches_stay_within_their_budgets() {
    let txns = transactions(WARM_UP + MEASURED, CONJUNCTS);
    for (logged, budget) in [(false, 0.5), (true, 1.0)] {
        for upkeep in [Upkeep::Sweep, Upkeep::Grow] {
            let m = if logged {
                ShardedMonitor::new_logged(scopes(CONJUNCTS))
            } else {
                ShardedMonitor::new(scopes(CONJUNCTS))
            };
            stream_sharded(&m, &txns[..WARM_UP], upkeep);
            let spent = stream_sharded(&m, &txns[WARM_UP..], upkeep);
            assert!(
                per_op(spent) <= budget,
                "push_batch (logged: {logged}): {:.3} allocations per operation ({spent} calls)",
                per_op(spent)
            );
            assert_eq!(m.len(), 8 * txns.len());
        }
    }
}

/// Retracting what was just admitted gives nothing back to the
/// allocator and takes nothing from it: the popped rows go to the
/// monitors' own spares.
#[test]
fn truncating_an_admitted_suffix_allocates_nothing() {
    let txns = transactions(WARM_UP, CONJUNCTS);
    let (settled, rest) = txns.split_at(WARM_UP / 2);

    let mut online = OnlineMonitor::new(scopes(CONJUNCTS));
    stream_online(&mut online, settled, Upkeep::Sweep);
    let sharded = ShardedMonitor::new_logged(scopes(CONJUNCTS));
    stream_sharded(&sharded, settled, Upkeep::Sweep);
    for (round, pair) in rest.chunks(2).enumerate() {
        let floor = online.len();
        for txn in pair {
            online.push_batch_logged(txn).unwrap();
            sharded.push_batch(txn).unwrap();
        }
        let (on_online, undone) = calls_in(|| online.truncate_to(floor));
        assert_eq!(undone, 16);
        let (on_sharded, undone) = calls_in(|| sharded.truncate_to(floor));
        assert_eq!(undone, 16);
        // The first rounds size the spares.
        if round >= 4 {
            assert_eq!((on_online, on_sharded), (0, 0), "round {round}");
        }
    }
}

/// A compaction sweep condenses every graph in its own storage and
/// works in tables the monitor keeps, so what it asks of the allocator
/// does not grow with the number of shards it walks: once the buffers
/// have reached their working size, a sweep over 64 shards makes a
/// handful of calls (the list of summarized transactions, the odd
/// late doubling), like a sweep over 4 — not several per shard.
#[test]
fn a_sweep_allocates_no_more_for_sixty_four_shards_than_for_four() {
    const SWEEPS: usize = 96;
    const TAIL: usize = 16;
    let calls_in_last_sweeps = |conjuncts: u32| {
        let txns = transactions(SWEEPS * SWEEP, conjuncts);
        let mut online = OnlineMonitor::new(scopes(conjuncts));
        let sharded = ShardedMonitor::new_logged(scopes(conjuncts));
        let mut tail = (0, 0);
        for (j, txn) in txns.iter().enumerate() {
            online.push_batch_logged(txn).unwrap();
            sharded.push_batch(txn).unwrap();
            online.finish_txn(txn[0].txn);
            sharded.finish_txn(txn[0].txn);
            if j % SWEEP == SWEEP - 1 {
                online.checkpoint(online.len());
                sharded.checkpoint([]);
                let (a, stats) = calls_in(|| online.compact());
                assert_eq!(stats.txns_summarized, SWEEP);
                let (b, stats) = calls_in(|| sharded.compact());
                assert_eq!(stats.txns_summarized, SWEEP);
                if j / SWEEP >= SWEEPS - TAIL {
                    tail = (tail.0 + a, tail.1 + b);
                }
            }
        }
        tail
    };
    for conjuncts in [4, 64] {
        let (online, sharded) = calls_in_last_sweeps(conjuncts);
        let ceiling = 4 * TAIL as u64;
        assert!(
            online <= ceiling && sharded <= ceiling,
            "{conjuncts} shards: {online} (single-writer) and {sharded} (sharded) calls \
             in the last {TAIL} sweeps"
        );
    }
}

/// `resident_bytes_estimate` against the allocator's live bytes after
/// a 10 000-operation stream: within a factor of two either way, on
/// both monitors, for a stream that only grows and — at its high-water
/// mark, just before a sweep is due — for one that is swept.
#[test]
fn resident_estimate_is_within_a_factor_of_two_of_live_bytes() {
    let txns = transactions(10_000 / 8, CONJUNCTS);
    let check = |what: &str, estimate: usize, held: i64| {
        let ratio = estimate as f64 / held as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "{what}: estimate {estimate} B vs {held} B live (ratio {ratio:.2})"
        );
    };
    for upkeep in [Upkeep::Grow, Upkeep::Sweep] {
        let tag = if upkeep == Upkeep::Grow {
            "grown"
        } else {
            "swept"
        };
        // The stream ends one transaction short of the next sweep.
        let n = txns.len() / SWEEP * SWEEP - 1;

        let before = live();
        let mut online = OnlineMonitor::new(scopes(CONJUNCTS));
        stream_online(&mut online, &txns[..n], upkeep);
        let held = live() - before;
        check(
            &format!("single-writer, {tag}"),
            online.resident_bytes_estimate(),
            held,
        );

        for logged in [false, true] {
            let before = live();
            let sharded = if logged {
                ShardedMonitor::new_logged(scopes(CONJUNCTS))
            } else {
                ShardedMonitor::new(scopes(CONJUNCTS))
            };
            stream_sharded(&sharded, &txns[..n], upkeep);
            let held = live() - before;
            check(
                &format!("sharded (logged: {logged}), {tag}"),
                sharded.resident_bytes_estimate(),
                held,
            );
        }
    }
}
