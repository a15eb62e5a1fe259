//! The seeded executors are deterministic, so what they commit is a
//! function of (programs, seed): this pins `exec.rs` (all three
//! deadlock policies, strict and early-release locking), `occ.rs` and
//! `sgt.rs` to the **byte-identical schedules and WALs** they committed
//! before the tplang interpreter became a compiled machine — seeds 1–5
//! over every `tplang::programs` scenario and two `random_workload`
//! inputs. A fingerprint is FNV-1a over the encoded operations (and, for
//! the journaling executor, over the WAL's bytes); `Err` runs are
//! fingerprinted by their `Debug` text. On a mismatch the test prints
//! the whole table it computed. Two differences are intended and listed
//! apart: see [`SET_RETRACTION_WALS`] and [`OCC_EARLY_PUBLISH`].

use pwsr::core::monitor::AdmissionLevel;
use pwsr::durability::wal::{encode_op_into, SharedWal, SyncPolicy};
use pwsr::gen::workloads::{random_workload, WorkloadConfig};
use pwsr::prelude::*;
use pwsr::scheduler::exec::{run_workload, DeadlockPolicy, ExecConfig, ExecOutcome};
use pwsr::scheduler::occ::run_occ;
use pwsr::scheduler::policy::PolicySpec;
use pwsr::scheduler::sgt::run_sgt;
use pwsr::tplang::programs;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Input {
    name: &'static str,
    catalog: Catalog,
    ic: IntegrityConstraint,
    programs: Vec<Program>,
    initial: DbState,
}

fn inputs() -> Vec<Input> {
    let scenarios = [
        ("example1", programs::example1()),
        ("example2", programs::example2()),
        ("example2'", programs::example2_with_tp1_prime()),
        ("example3", programs::example3()),
        ("example4", programs::example4()),
        ("example5", programs::example5()),
    ];
    let mut out: Vec<Input> = scenarios
        .into_iter()
        .map(|(name, sc)| Input {
            name,
            catalog: sc.catalog,
            ic: sc.ic,
            programs: sc.programs,
            initial: sc.initial,
        })
        .collect();
    // One mixed input (an Example-2 gadget, unbalanced templates) and
    // one hot one (20 transactions on four items: waits, deadlocks,
    // wounds and certification aborts on every seed).
    let random = [
        ("random", 7, 3, 14, false, 1),
        ("random_hot", 11, 2, 20, true, 0),
    ];
    for (name, seed, items_per_conjunct, n_background, fixed_only, gadgets) in random {
        let w = random_workload(
            &mut StdRng::seed_from_u64(seed),
            &WorkloadConfig {
                conjuncts: 2,
                items_per_conjunct,
                n_background,
                cross_read_prob: 0.5,
                fixed_only,
                gadgets,
                domain_width: 50,
            },
        );
        out.push(Input {
            name,
            catalog: w.catalog,
            ic: w.ic,
            programs: w.programs,
            initial: w.initial,
        });
    }
    out
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator, so that concatenations do not collide.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn eat_schedule(&mut self, schedule: &Schedule) {
        let mut buf = Vec::new();
        for op in schedule.ops() {
            encode_op_into(&mut buf, op);
        }
        self.eat(&buf);
    }

    /// The schedule plus how the run got there: the counters the
    /// experiment tables print, and the DAG guard's rejections.
    fn eat_outcome(&mut self, out: &ExecOutcome) {
        self.eat_schedule(&out.schedule);
        let m = &out.metrics;
        let how = (m.steps, m.waits, m.deadlocks, m.aborts, m.restarts);
        self.eat(format!("{how:?} {:?}", out.rejected).as_bytes());
    }
}

fn cfg(seed: u64, deadlock: DeadlockPolicy) -> ExecConfig {
    ExecConfig {
        seed,
        deadlock,
        ..ExecConfig::default()
    }
}

/// `(label, schedule fingerprint, WAL fingerprint)` rows, seeds 1–5
/// folded into each.
fn table() -> Vec<(String, u64, u64)> {
    let mut rows = Vec::new();
    for input in inputs() {
        let Input {
            name,
            catalog,
            ic,
            programs,
            initial,
        } = &input;
        // The journaling lock-based executor: two lock layouts × three
        // deadlock policies, monitor admission at PWSR+DR over a WAL.
        type Layout = fn(&IntegrityConstraint) -> PolicySpec;
        let layouts: [(&str, Layout); 2] = [
            ("strict", PolicySpec::predicate_wise_2pl),
            ("early", PolicySpec::predicate_wise_2pl_early),
        ];
        for (layout, build) in layouts {
            for deadlock in [
                DeadlockPolicy::Detect,
                DeadlockPolicy::WaitDie,
                DeadlockPolicy::WoundWait,
            ] {
                let (mut sched, mut log) = (Fnv::new(), Fnv::new());
                for seed in 1..=5 {
                    let wal = SharedWal::in_memory(SyncPolicy::PerRecord);
                    let policy = build(ic)
                        .monitor_admission(ic, AdmissionLevel::PwsrDr)
                        .durable(wal.clone());
                    match run_workload(programs, catalog, initial, &policy, &cfg(seed, deadlock)) {
                        Ok(out) => sched.eat_schedule(&out.schedule),
                        Err(e) => sched.eat(format!("{e:?}").as_bytes()),
                    }
                    log.eat(&wal.dump_bytes().expect("in-memory WAL"));
                }
                rows.push((format!("{name}/exec/{layout}/{deadlock:?}"), sched.0, log.0));
            }
        }
        let policy = PolicySpec::predicate_wise_2pl_early(ic);
        let (mut occ, mut sgt) = (Fnv::new(), Fnv::new());
        for seed in 1..=5 {
            let cfg = cfg(seed, DeadlockPolicy::Detect);
            match run_occ(programs, catalog, initial, &policy, &cfg) {
                Ok(out) => occ.eat_schedule(&out.schedule),
                Err(e) => occ.eat(format!("{e:?}").as_bytes()),
            }
            match run_sgt(programs, catalog, initial, &policy, &cfg) {
                Ok(out) => sgt.eat_schedule(&out.schedule),
                Err(e) => sgt.eat(format!("{e:?}").as_bytes()),
            }
        }
        rows.push((format!("{name}/occ"), occ.0, 0));
        rows.push((format!("{name}/sgt"), sgt.0, 0));
    }
    rows
}

/// What [`table`] leaves out, same inputs and seeds: validation and
/// certification that hold everything to the end (`predicate_wise_2pl`:
/// one validation at `Done`) and over one global space, and the locking
/// executor blocking dirty reads and under the runtime DAG guard. These
/// rows fingerprint the whole outcome ([`Fnv::eat_outcome`]: steps,
/// waits, deadlocks, aborts, restarts and the guard's `rejected` list
/// beside the schedule). No WAL in any of them (the third column
/// stays 0).
fn wider_table() -> Vec<(String, u64, u64)> {
    let mut rows = Vec::new();
    for input in inputs() {
        let Input {
            name,
            catalog,
            ic,
            programs,
            initial,
        } = &input;
        let spaces = [
            ("strict", PolicySpec::predicate_wise_2pl(ic)),
            ("global", PolicySpec::global_2pl()),
        ];
        for (layout, policy) in &spaces {
            let (mut occ, mut sgt) = (Fnv::new(), Fnv::new());
            for seed in 1..=5 {
                let cfg = cfg(seed, DeadlockPolicy::Detect);
                match run_occ(programs, catalog, initial, policy, &cfg) {
                    Ok(out) => occ.eat_outcome(&out),
                    Err(e) => occ.eat(format!("{e:?}").as_bytes()),
                }
                match run_sgt(programs, catalog, initial, policy, &cfg) {
                    Ok(out) => sgt.eat_outcome(&out),
                    Err(e) => sgt.eat(format!("{e:?}").as_bytes()),
                }
            }
            rows.push((format!("{name}/occ/{layout}"), occ.0, 0));
            rows.push((format!("{name}/sgt/{layout}"), sgt.0, 0));
        }
        let guards = [
            ("dr", PolicySpec::predicate_wise_2pl_early(ic).dr_blocking()),
            (
                "dag",
                PolicySpec::predicate_wise_2pl_early(ic).dag_guarded(ic),
            ),
        ];
        for (guard, policy) in &guards {
            for deadlock in [
                DeadlockPolicy::Detect,
                DeadlockPolicy::WaitDie,
                DeadlockPolicy::WoundWait,
            ] {
                let mut sched = Fnv::new();
                for seed in 1..=5 {
                    match run_workload(programs, catalog, initial, policy, &cfg(seed, deadlock)) {
                        Ok(out) => sched.eat_outcome(&out),
                        Err(e) => sched.eat(format!("{e:?}").as_bytes()),
                    }
                }
                rows.push((format!("{name}/exec/{guard}/{deadlock:?}"), sched.0, 0));
            }
        }
    }
    rows
}

/// Recorded at commit `ba784ad` (the parent of the one seeded runner),
/// by running this very file there.
#[rustfmt::skip]
const WIDER: &[(&str, u64, u64)] = &[
    ("example1/occ/strict", 0x23a71289d51d0b16, 0x0000000000000000),
    ("example1/sgt/strict", 0x6ef6efc23c2838fe, 0x0000000000000000),
    ("example1/occ/global", 0x23a71289d51d0b16, 0x0000000000000000),
    ("example1/sgt/global", 0x6ef6efc23c2838fe, 0x0000000000000000),
    ("example1/exec/dr/Detect", 0x6ef6efc23c2838fe, 0x0000000000000000),
    ("example1/exec/dr/WaitDie", 0x6ef6efc23c2838fe, 0x0000000000000000),
    ("example1/exec/dr/WoundWait", 0x6ef6efc23c2838fe, 0x0000000000000000),
    ("example1/exec/dag/Detect", 0x6ef6efc23c2838fe, 0x0000000000000000),
    ("example1/exec/dag/WaitDie", 0x6ef6efc23c2838fe, 0x0000000000000000),
    ("example1/exec/dag/WoundWait", 0x6ef6efc23c2838fe, 0x0000000000000000),
    ("example2/occ/strict", 0xdffc49b4886fc295, 0x0000000000000000),
    ("example2/sgt/strict", 0x86a1031a76b51d2b, 0x0000000000000000),
    ("example2/occ/global", 0xdffc49b4886fc295, 0x0000000000000000),
    ("example2/sgt/global", 0x86a1031a76b51d2b, 0x0000000000000000),
    ("example2/exec/dr/Detect", 0x4f1dc364fa4d4b87, 0x0000000000000000),
    ("example2/exec/dr/WaitDie", 0x0b2531e20951cb4d, 0x0000000000000000),
    ("example2/exec/dr/WoundWait", 0x4f1dc364fa4d4b87, 0x0000000000000000),
    ("example2/exec/dag/Detect", 0x93e1e9cdde3c5946, 0x0000000000000000),
    ("example2/exec/dag/WaitDie", 0x44cd7196a60f3e0c, 0x0000000000000000),
    ("example2/exec/dag/WoundWait", 0x93e1e9cdde3c5946, 0x0000000000000000),
    ("example2'/occ/strict", 0xdffc49b4886fc295, 0x0000000000000000),
    ("example2'/sgt/strict", 0x86a1031a76b51d2b, 0x0000000000000000),
    ("example2'/occ/global", 0xdffc49b4886fc295, 0x0000000000000000),
    ("example2'/sgt/global", 0x86a1031a76b51d2b, 0x0000000000000000),
    ("example2'/exec/dr/Detect", 0x08602863588c98a3, 0x0000000000000000),
    ("example2'/exec/dr/WaitDie", 0x0b2531e20951cb4d, 0x0000000000000000),
    ("example2'/exec/dr/WoundWait", 0x08602863588c98a3, 0x0000000000000000),
    ("example2'/exec/dag/Detect", 0x93e1e9cdde3c5946, 0x0000000000000000),
    ("example2'/exec/dag/WaitDie", 0x44cd7196a60f3e0c, 0x0000000000000000),
    ("example2'/exec/dag/WoundWait", 0x93e1e9cdde3c5946, 0x0000000000000000),
    ("example3/occ/strict", 0xdffc49b4886fc295, 0x0000000000000000),
    ("example3/sgt/strict", 0x86a1031a76b51d2b, 0x0000000000000000),
    ("example3/occ/global", 0xdffc49b4886fc295, 0x0000000000000000),
    ("example3/sgt/global", 0x86a1031a76b51d2b, 0x0000000000000000),
    ("example3/exec/dr/Detect", 0x4f1dc364fa4d4b87, 0x0000000000000000),
    ("example3/exec/dr/WaitDie", 0x0b2531e20951cb4d, 0x0000000000000000),
    ("example3/exec/dr/WoundWait", 0x4f1dc364fa4d4b87, 0x0000000000000000),
    ("example3/exec/dag/Detect", 0x93e1e9cdde3c5946, 0x0000000000000000),
    ("example3/exec/dag/WaitDie", 0x44cd7196a60f3e0c, 0x0000000000000000),
    ("example3/exec/dag/WoundWait", 0x93e1e9cdde3c5946, 0x0000000000000000),
    ("example4/occ/strict", 0xce8efd2f10e0ccc4, 0x0000000000000000),
    ("example4/sgt/strict", 0xce8efd2f10e0ccc4, 0x0000000000000000),
    ("example4/occ/global", 0xce8efd2f10e0ccc4, 0x0000000000000000),
    ("example4/sgt/global", 0xce8efd2f10e0ccc4, 0x0000000000000000),
    ("example4/exec/dr/Detect", 0xce8efd2f10e0ccc4, 0x0000000000000000),
    ("example4/exec/dr/WaitDie", 0xce8efd2f10e0ccc4, 0x0000000000000000),
    ("example4/exec/dr/WoundWait", 0xce8efd2f10e0ccc4, 0x0000000000000000),
    ("example4/exec/dag/Detect", 0xce8efd2f10e0ccc4, 0x0000000000000000),
    ("example4/exec/dag/WaitDie", 0xce8efd2f10e0ccc4, 0x0000000000000000),
    ("example4/exec/dag/WoundWait", 0xce8efd2f10e0ccc4, 0x0000000000000000),
    ("example5/occ/strict", 0x6d87273a6e8a0f33, 0x0000000000000000),
    ("example5/sgt/strict", 0xfe51d6eea033bc0b, 0x0000000000000000),
    ("example5/occ/global", 0x6d87273a6e8a0f33, 0x0000000000000000),
    ("example5/sgt/global", 0xfe51d6eea033bc0b, 0x0000000000000000),
    ("example5/exec/dr/Detect", 0x4fd4945751672ddb, 0x0000000000000000),
    ("example5/exec/dr/WaitDie", 0x3391e61a946f73bc, 0x0000000000000000),
    ("example5/exec/dr/WoundWait", 0x004173d0d9800387, 0x0000000000000000),
    ("example5/exec/dag/Detect", 0xc2db5fb4c9c08147, 0x0000000000000000),
    ("example5/exec/dag/WaitDie", 0xc2db5fb4c9c08147, 0x0000000000000000),
    ("example5/exec/dag/WoundWait", 0x60bb7f4e86a96d3e, 0x0000000000000000),
    ("random/occ/strict", 0x5c98b621e3e3cda3, 0x0000000000000000),
    ("random/sgt/strict", 0xbc8aa11d4b3f4b17, 0x0000000000000000),
    ("random/occ/global", 0x8a7566c9b523bca3, 0x0000000000000000),
    ("random/sgt/global", 0xbc8aa11d4b3f4b17, 0x0000000000000000),
    ("random/exec/dr/Detect", 0x3cda9ba465d4466f, 0x0000000000000000),
    ("random/exec/dr/WaitDie", 0x4540e69a07c9c349, 0x0000000000000000),
    ("random/exec/dr/WoundWait", 0x1f5cc615e1888a76, 0x0000000000000000),
    ("random/exec/dag/Detect", 0xfa52a9a2ee04db5e, 0x0000000000000000),
    ("random/exec/dag/WaitDie", 0xea5a47392a46c7ae, 0x0000000000000000),
    ("random/exec/dag/WoundWait", 0x4ab92e57ad4d0d97, 0x0000000000000000),
    ("random_hot/occ/strict", 0x5d0ba5a69b84af42, 0x0000000000000000),
    ("random_hot/sgt/strict", 0x0e665c59229426b9, 0x0000000000000000),
    ("random_hot/occ/global", 0x5ae5804a17d978a4, 0x0000000000000000),
    ("random_hot/sgt/global", 0xe69a1eb428324d5c, 0x0000000000000000),
    ("random_hot/exec/dr/Detect", 0x41ddb167c95226a8, 0x0000000000000000),
    ("random_hot/exec/dr/WaitDie", 0x455f089b4ce3ec0d, 0x0000000000000000),
    ("random_hot/exec/dr/WoundWait", 0x3a1913b24619413d, 0x0000000000000000),
    ("random_hot/exec/dag/Detect", 0x8059a6df4ab5386d, 0x0000000000000000),
    ("random_hot/exec/dag/WaitDie", 0xa34255f041b7db51, 0x0000000000000000),
    ("random_hot/exec/dag/WoundWait", 0x723e9dda03ed236b, 0x0000000000000000),
];

/// Recorded at the parent of the compiled-machine change (commit
/// `9b00224`), by running this very file there.
#[rustfmt::skip]
const RECORDED: &[(&str, u64, u64)] = &[
    ("example1/exec/strict/Detect", 0x5d61f80420774231, 0x76bbc76d0663070b),
    ("example1/exec/strict/WaitDie", 0x5d61f80420774231, 0x76bbc76d0663070b),
    ("example1/exec/strict/WoundWait", 0x5d61f80420774231, 0x76bbc76d0663070b),
    ("example1/exec/early/Detect", 0x5d61f80420774231, 0x76bbc76d0663070b),
    ("example1/exec/early/WaitDie", 0x5d61f80420774231, 0x76bbc76d0663070b),
    ("example1/exec/early/WoundWait", 0x5d61f80420774231, 0x76bbc76d0663070b),
    ("example1/occ", 0x27f9f4f2be763189, 0x0000000000000000),
    ("example1/sgt", 0x5d61f80420774231, 0x0000000000000000),
    ("example2/exec/strict/Detect", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example2/exec/strict/WaitDie", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example2/exec/strict/WoundWait", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example2/exec/early/Detect", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example2/exec/early/WaitDie", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example2/exec/early/WoundWait", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example2/occ", 0x1ed8b4316157f874, 0x0000000000000000),
    ("example2/sgt", 0x0fc658d749d47b64, 0x0000000000000000),
    ("example2'/exec/strict/Detect", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example2'/exec/strict/WaitDie", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example2'/exec/strict/WoundWait", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example2'/exec/early/Detect", 0x974ab962bc82ecb5, 0x6195fd770156e5be),
    ("example2'/exec/early/WaitDie", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example2'/exec/early/WoundWait", 0x974ab962bc82ecb5, 0x6195fd770156e5be),
    ("example2'/occ", 0x1ed8b4316157f874, 0x0000000000000000),
    ("example2'/sgt", 0x0fc658d749d47b64, 0x0000000000000000),
    ("example3/exec/strict/Detect", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example3/exec/strict/WaitDie", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example3/exec/strict/WoundWait", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example3/exec/early/Detect", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example3/exec/early/WaitDie", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example3/exec/early/WoundWait", 0x974ab962bc82ecb5, 0x5397fca33de11efa),
    ("example3/occ", 0x1ed8b4316157f874, 0x0000000000000000),
    ("example3/sgt", 0x0fc658d749d47b64, 0x0000000000000000),
    ("example4/exec/strict/Detect", 0xc4500f1c07c21fc3, 0x1640224c94b6c0ac),
    ("example4/exec/strict/WaitDie", 0xc4500f1c07c21fc3, 0x1640224c94b6c0ac),
    ("example4/exec/strict/WoundWait", 0xc4500f1c07c21fc3, 0x1640224c94b6c0ac),
    ("example4/exec/early/Detect", 0xc4500f1c07c21fc3, 0x1640224c94b6c0ac),
    ("example4/exec/early/WaitDie", 0xc4500f1c07c21fc3, 0x1640224c94b6c0ac),
    ("example4/exec/early/WoundWait", 0xc4500f1c07c21fc3, 0x1640224c94b6c0ac),
    ("example4/occ", 0xc4500f1c07c21fc3, 0x0000000000000000),
    ("example4/sgt", 0xc4500f1c07c21fc3, 0x0000000000000000),
    ("example5/exec/strict/Detect", 0x9c03f2abf7153b47, 0x6ff8ee8a324c4d6f),
    ("example5/exec/strict/WaitDie", 0x67325295c3e28957, 0x89b40644fe7ee7b3),
    ("example5/exec/strict/WoundWait", 0x15f235b6d89ecb3f, 0x5cae8c6a55fc4835),
    ("example5/exec/early/Detect", 0x5e52d801fa15aa2f, 0xc310a0d87fbd5a40),
    ("example5/exec/early/WaitDie", 0x5e52d801fa15aa2f, 0xc310a0d87fbd5a40),
    ("example5/exec/early/WoundWait", 0x4d214997c630b03f, 0x44d93eccb602bfa3),
    ("example5/occ", 0x136623503b823717, 0x0000000000000000),
    ("example5/sgt", 0xe175e4504f5bfc9f, 0x0000000000000000),
    ("random/exec/strict/Detect", 0xc6b7735b1f407436, 0x768f62d86666f5bb),
    ("random/exec/strict/WaitDie", 0xde78a41ab88d7333, 0xcbe707de9081238d),
    ("random/exec/strict/WoundWait", 0x2d649427e29063c9, 0x817358f0318b660b),
    ("random/exec/early/Detect", 0xb4837a16ce685543, 0x00d48224cbac81f8),
    ("random/exec/early/WaitDie", 0x67bdbee5b69c02a9, 0x1059e14ca34ef249),
    ("random/exec/early/WoundWait", 0xf811a8c7b88a2231, 0x7ba2605f8d184938),
    ("random/occ", 0x3e38ab3fcdaa5246, 0x0000000000000000),
    ("random/sgt", 0xd2cabf736cee073c, 0x0000000000000000),
    ("random_hot/exec/strict/Detect", 0x4c56e3e943f0619d, 0xc1e1f8b60fb77db4),
    ("random_hot/exec/strict/WaitDie", 0x316a65ea610dfb54, 0x4a6eadc66b6e5557),
    ("random_hot/exec/strict/WoundWait", 0xd898f2a2eedade60, 0xdeacf8fe9c73dcb9),
    ("random_hot/exec/early/Detect", 0x435c6562b32226dd, 0x22f5be976cba8141),
    ("random_hot/exec/early/WaitDie", 0xffa363147b666047, 0x1aa4a7410eecfd37),
    ("random_hot/exec/early/WoundWait", 0xe4370f05d51c29b0, 0x98b545fde4a7775e),
    ("random_hot/occ", 0x5a1bb1541a64f325, 0x0000000000000000),
    ("random_hot/sgt", 0x21af5cfa4682d460, 0x0000000000000000),
];

/// The one intended difference: a WoundWait step that wounds several
/// holders now hands the admission the whole set, so it journals one
/// retraction where the parent journaled one per victim. The four runs
/// where that happens commit the parent's schedule byte for byte (their
/// rows above still hold) over a shorter log; these are its
/// fingerprints. With the per-victim loop put back, the new
/// interpreter reproduces all 64 parent rows, WALs included.
const SET_RETRACTION_WALS: &[(&str, u64)] = &[
    ("random/exec/strict/WoundWait", 0xe038763577716082),
    ("random/exec/early/WoundWait", 0x8520a8d10c47aadf),
    ("random_hot/exec/strict/WoundWait", 0x401008ec563e4878),
    ("random_hot/exec/early/WoundWait", 0xa1a061e9ef42877c),
];

/// The second intended difference, `*/occ` rows only: early
/// validate-and-publish used to switch itself off half-way through a
/// transaction — its guard counted every buffered write twice, so a
/// space finished after reads + 2·writes passed the plan's length was
/// published only at `Done` (`occ.rs`'
/// `early_validation_publishes_each_space_as_its_plan_leaves_it` pins
/// the trace that shows it). With progress read from the one
/// `spaces_ahead` helper these four inputs commit other (still PWSR,
/// still strongly correct) schedules; the other four `*/occ` rows, all
/// `*/exec/*` and `*/sgt` rows, and the whole [`WIDER`] table (nothing
/// there validates early) stand as recorded.
const OCC_EARLY_PUBLISH: &[(&str, u64)] = &[
    ("example1/occ", 0xe74710b3eab11bf1),
    ("example5/occ", 0x4d214997c630b03f),
    ("random/occ", 0x6dfc5b7ed48476e2),
    ("random_hot/occ", 0xbb3010f64c62374d),
];

/// Compare a computed table with its recorded one (`schedules` and
/// `wals` replacing a column where they name the row); on a mismatch
/// print what was computed, ready to paste.
fn assert_recorded(
    computed: &[(String, u64, u64)],
    recorded: &[(&str, u64, u64)],
    schedules: &[(&str, u64)],
    wals: &[(&str, u64)],
) {
    let over = |list: &[(&str, u64)], name: &str, recorded: u64| {
        let named = list.iter().find(|(n, _)| *n == name);
        named.map_or(recorded, |(_, intended)| *intended)
    };
    let same = computed.len() == recorded.len()
        && computed
            .iter()
            .zip(recorded)
            .all(|((n, s, w), (rn, rs, rw))| {
                n == rn && *s == over(schedules, rn, *rs) && *w == over(wals, rn, *rw)
            });
    if !same {
        for (n, s, w) in computed {
            println!("    (\"{n}\", {s:#018x}, {w:#018x}),");
        }
        panic!("fingerprints differ from the recorded table (computed table printed above)");
    }
}

#[test]
fn seeded_executors_commit_the_recorded_schedules_and_wals() {
    assert_recorded(&table(), RECORDED, OCC_EARLY_PUBLISH, SET_RETRACTION_WALS);
}

#[test]
fn seeded_executors_commit_the_recorded_outcomes_of_the_wider_table() {
    assert_recorded(&wider_table(), WIDER, &[], &[]);
}
