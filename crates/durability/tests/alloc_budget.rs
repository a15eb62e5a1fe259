//! The WAL append path's **allocation budget**.
//!
//! A counting `#[global_allocator]` (this test binary only) counts the
//! allocator calls of the *calling thread* — the test harness runs
//! every test on its own thread, and the WAL's sync thread is not
//! counted — and the tests below hold, on a file sink under
//! `Batched(8)` after warm-up (the sync thread started, the WAL's frame
//! buffer grown to the largest record):
//!
//! | call | allocations per record |
//! |---|---|
//! | `Wal::append_batch` | 0 |
//! | `Wal::append_op` | 0 |
//! | `Wal::append` of `Truncate` or `Floor` | 0 |
//!
//! Every record is framed straight from its operations into the one
//! buffer the WAL keeps, so a record costs no `Vec` of its own.

use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::op::Operation;
use pwsr_core::value::Value;
use pwsr_durability::wal::{SyncPolicy, Wal, WalRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Allocator calls that obtained memory, on this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every request is passed to `System` unchanged and its result
// returned unchanged, so `System`'s guarantees carry over; the counter
// is a `const`-initialized thread-local without a destructor, so
// touching it neither allocates nor runs after thread teardown
// (`try_with` covers the teardown window anyway).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM_UP: u64 = 64;
const RECORDS: u64 = 1_024;

/// A run of eight operations, two of each value kind and a long string.
fn run(txn: u32) -> Vec<Operation> {
    let t = TxnId(txn);
    let s = |v: &str| Value::Str(Arc::from(v));
    vec![
        Operation::read(t, ItemId(0), Value::Int(-3)),
        Operation::read(t, ItemId(1), Value::Bool(true)),
        Operation::read(t, ItemId(2), s("")),
        Operation::read(t, ItemId(3), s("a longer value that spans some bytes")),
        Operation::write(t, ItemId(0), Value::Int(i64::MAX)),
        Operation::write(t, ItemId(1), Value::Bool(false)),
        Operation::write(t, ItemId(2), s("x")),
        Operation::write(t, ItemId(3), s("y")),
    ]
}

/// Allocator calls per record that `append` makes on a file WAL, after
/// warm-up; `append(wal, i)` appends record `i`.
fn calls_per_record(name: &str, mut append: impl FnMut(&mut Wal, u64)) -> f64 {
    let path = std::env::temp_dir().join(format!("pwsr_alloc_{}_{name}.wal", std::process::id()));
    let mut wal = Wal::create(&path, SyncPolicy::Batched(8)).expect("create the WAL file");
    (0..WARM_UP).for_each(|i| append(&mut wal, i));
    let before = CALLS.with(Cell::get);
    (WARM_UP..WARM_UP + RECORDS).for_each(|i| append(&mut wal, i));
    let calls = CALLS.with(Cell::get) - before;
    wal.sync();
    assert!(wal.io_error().is_none());
    assert_eq!(wal.stats().appends, WARM_UP + RECORDS);
    drop(wal);
    std::fs::remove_file(&path).expect("remove the WAL file");
    calls as f64 / RECORDS as f64
}

#[test]
fn append_batch_allocates_nothing_per_record() {
    let runs: Vec<_> = (1..=4).map(run).collect();
    let per_record = calls_per_record("batch", |wal, i| wal.append_batch(&runs[i as usize % 4]));
    assert_eq!(per_record, 0.0, "append_batch");
}

#[test]
fn append_op_allocates_nothing_per_record() {
    let ops = run(1);
    let per_record = calls_per_record("op", |wal, i| wal.append_op(&ops[i as usize % 8]));
    assert_eq!(per_record, 0.0, "append_op");
}

#[test]
fn append_of_a_truncation_or_a_floor_allocates_nothing_per_record() {
    let per_record = calls_per_record("marks", |wal, i| match i % 2 {
        0 => wal.append(&WalRecord::Truncate(i)),
        _ => wal.append(&WalRecord::Floor(i)),
    });
    assert_eq!(per_record, 0.0, "append of Truncate or Floor");
}
