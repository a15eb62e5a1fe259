//! Banking: conserved-sum invariants, lost updates, and the diagnosis
//! API.
//!
//! Three branches, each with the invariant "account balances sum to
//! 300"; overdraft-guarded transfers and read-only audits. Without
//! concurrency control, interleavings lose updates and break the sum —
//! and `pwsr::diagnosis::diagnose` pinpoints exactly which conjunct's
//! projection has the conflict cycle. Under per-branch optimistic
//! concurrency control the same workload is PWSR and correct.
//!
//! ```sh
//! cargo run --example banking
//! ```

use pwsr::gen::chaos::random_execution;
use pwsr::gen::constraints::BankConfig;
use pwsr::gen::workloads::banking_workload;
use pwsr::prelude::*;
use pwsr::scheduler::exec::ExecConfig;
use pwsr::scheduler::occ::run_occ;
use pwsr::scheduler::policy::PolicySpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(9);
    let bank = BankConfig {
        branches: 3,
        accounts_per_branch: 3,
        opening_balance: 100,
    };
    let w = banking_workload(&mut rng, &bank, 3, 2, true, false);
    println!("== Banking: 3 branches × 3 accounts, sum-per-branch = 300 ==");
    for p in &w.programs {
        print!("{p}");
    }

    // 1. Chaos: find a violating interleaving and diagnose it.
    let mut found = None;
    for _ in 0..500 {
        let s = random_execution(&w.programs, &w.catalog, &w.initial, &mut rng)
            .expect("workload executes");
        let d = diagnose(&s, &w.ic, &w.catalog, Some(&w.programs), Some(&w.initial));
        if !d.correct() {
            found = Some((s, d));
            break;
        }
    }
    let (schedule, diagnosis) = found.expect("uncontrolled chaos loses updates quickly");
    println!("\n== An uncontrolled interleaving that breaks a branch invariant ==");
    println!("S: {}\n", schedule.display(&w.catalog));
    println!("{diagnosis}");
    assert!(
        !diagnosis.verdict.pwsr.ok(),
        "violations come from non-PWSR runs"
    );

    // 2. The same workload under per-branch OCC: always PWSR + correct.
    println!("== Same workload under per-branch optimistic concurrency control ==");
    let mut restarts = 0;
    for seed in 0..20u64 {
        let cfg = ExecConfig {
            seed,
            ..ExecConfig::default()
        };
        let out = run_occ(
            &w.programs,
            &w.catalog,
            &w.initial,
            &PolicySpec::predicate_wise_2pl_early(&w.ic),
            &cfg,
        )
        .expect("occ completes");
        let d = diagnose(
            &out.schedule,
            &w.ic,
            &w.catalog,
            Some(&w.programs),
            Some(&w.initial),
        );
        assert!(d.verdict.pwsr.ok() && d.correct(), "seed {seed}:\n{d}");
        restarts += out.metrics.restarts;
    }
    println!(
        "20/20 OCC runs were PWSR and strongly correct ({restarts} optimistic restarts in total).\n\
         Every violating interleaving was non-PWSR — the invariant only needs\n\
         per-branch serializability, exactly the paper's criterion."
    );
}
