//! Online-monitor bench: amortized per-operation cost of the live
//! verdict path vs full batch re-verification, at the PR-2 tiers
//! (571 ops / 2 conjuncts, 2488 ops / 4 conjuncts).
//!
//! `push_replay/N` streams all N operations through an
//! [`OnlineMonitor`] — divide by N for the per-op cost a scheduler
//! pays. `batch_reverify/N` is ONE batch verification of the full
//! prefix (schedule build + serializability + PWSR + DR) — the cost a
//! naive design pays per arriving operation. The acceptance bar for
//! the online path: `push_replay/N ÷ N` at least 10× below
//! `batch_reverify/N` at the 2488-op tier.
//!
//! `abort_resync_undo` / `abort_resync_rebuild` price the
//! single-writer undo-log against the full-replay abort path, and
//! `occ_abort_retract` / `occ_abort_txn` price the *sharded*
//! retraction (`truncate_to` / `retract_txn` + re-push) behind the
//! OCC-certified threaded executor — the acceptance shape for both is
//! flat across tiers: suffix-length-proportional, not
//! schedule-length-proportional.
//!
//! Tiers, workloads and the batch-verdict body are shared with the
//! `mon1` experiment (`pwsr_bench::monitor_exp`) so the numbers line
//! up by construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pwsr_bench::monitor_exp::{batch_verdict, tier_workload, TIERS};
use pwsr_core::monitor::sharded::ShardedMonitor;
use pwsr_core::monitor::OnlineMonitor;
use std::hint::black_box;

fn bench_monitor(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor");
    for (target, conjuncts, seed_base) in TIERS {
        let (s, scopes) = tier_workload(target, conjuncts, seed_base).expect("workload executes");
        let n = s.len();

        group.bench_with_input(BenchmarkId::new("push_replay", n), &s, |b, s| {
            b.iter(|| {
                let mut m = OnlineMonitor::new(scopes.clone());
                for op in s.ops() {
                    black_box(m.push(op.clone()).expect("valid schedule"));
                }
                black_box(m.verdict())
            })
        });
        group.bench_with_input(BenchmarkId::new("batch_reverify", n), &s, |b, s| {
            b.iter(|| black_box(batch_verdict(s.ops(), &scopes)))
        });
        // Abort re-sync, the undo-log way: retract the last 16 ops
        // through `truncate_to` and re-push them — the steady-state
        // cost of an abort that rewrote a short suffix. Compare with
        // `abort_resync_rebuild`, the old path: a full from-scratch
        // replay of all N ops. The gap is the O(n) → O(ops undone)
        // claim, measured.
        const UNDONE: usize = 16;
        group.bench_with_input(BenchmarkId::new("abort_resync_undo", n), &s, |b, s| {
            let mut m = OnlineMonitor::new(scopes.clone());
            for op in s.ops() {
                m.push_logged(op.clone()).expect("valid schedule");
            }
            let tail: Vec<_> = s.ops()[s.len() - UNDONE..].to_vec();
            b.iter(|| {
                m.truncate_to(s.len() - UNDONE);
                for op in &tail {
                    black_box(m.push_logged(op.clone()).expect("valid tail"));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("abort_resync_rebuild", n), &s, |b, s| {
            b.iter(|| {
                let mut m = OnlineMonitor::new(scopes.clone());
                for op in s.ops() {
                    black_box(m.push(op.clone()).expect("valid schedule"));
                }
                m.len()
            })
        });
        // OCC abort on the *sharded* monitor: retract a 16-op suffix
        // through the per-stage undo journals (`truncate_to`) and
        // re-push it — the per-abort retraction cost the optimistic
        // threaded executor pays. The acceptance shape: flat across
        // tiers (suffix-length-proportional, NOT schedule-length-
        // proportional), like `abort_resync_undo` vs `_rebuild` above.
        group.bench_with_input(BenchmarkId::new("occ_abort_retract", n), &s, |b, s| {
            let m = ShardedMonitor::new_logged(scopes.clone());
            for op in s.ops() {
                m.push(op.clone()).expect("valid schedule");
            }
            let tail: Vec<_> = s.ops()[s.len() - UNDONE..].to_vec();
            b.iter(|| {
                m.truncate_to(s.len() - UNDONE);
                for op in &tail {
                    black_box(m.push(op.clone()).expect("valid tail"));
                }
            })
        });
        // The full abort primitive: `retract_txn` of the transaction
        // owning the schedule's last operation, then re-push its ops.
        // After the first round the victim's operations sit at the
        // tail, so the steady-state cost is again suffix-proportional.
        group.bench_with_input(BenchmarkId::new("occ_abort_txn", n), &s, |b, s| {
            let m = ShardedMonitor::new_logged(scopes.clone());
            for op in s.ops() {
                m.push(op.clone()).expect("valid schedule");
            }
            let victim = s.ops().last().expect("nonempty").txn;
            let mine: Vec<_> = s.transaction(victim).ops().to_vec();
            b.iter(|| {
                black_box(m.retract_txn(victim).expect("victim is live"));
                for op in &mine {
                    black_box(m.push(op.clone()).expect("valid re-push"));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_monitor);
criterion_main!(benches);
