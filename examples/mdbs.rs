//! The §4 multidatabase scenario: autonomous sites, global PWSR.
//!
//! Two autonomous sites, each a DBMS running local strict 2PL with a
//! purely local chain constraint, plus background local transactions.
//! Two *global* transactions access both sites in opposite orders —
//! with no global concurrency control, their interleavings can make
//! the global schedule non-serializable. Every local schedule stays
//! serializable, so the global schedule is PWSR over the site
//! partition, and (all programs being fixed-structure) Theorem 1 keeps
//! it strongly correct. The gap between "globally PWSR" (always) and
//! "globally serializable" (sometimes) is the autonomy dividend the
//! paper describes.
//!
//! ```sh
//! cargo run --example mdbs
//! ```

use pwsr::core::solver::Solver;
use pwsr::core::strong::check_strong_correctness;
use pwsr::gen::workloads::mdbs_workload;
use pwsr::scheduler::exec::ExecConfig;
use pwsr::scheduler::mdbs::{is_globally_pwsr, run_mdbs, Site};
use pwsr::tplang::parser::parse_program;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(44);
    // Two sites of two items each; locals only from the generator.
    let (mut w, site_sets) = mdbs_workload(&mut rng, 2, 2, 4, 0, 0);
    // Hand-crafted cross-site globals with opposite access orders:
    //   GA grows site-0's top, then reads site-1's bottom;
    //   GB shrinks site-1's bottom, then reads site-0's top.
    // Both are order-safe (correct) and fixed-structure, and they
    // conflict on x0_1 and x1_0 in opposite directions.
    w.programs
        .push(parse_program("GA", "x0_1 := x0_1 + 1; touch x1_0;").expect("GA parses"));
    w.programs
        .push(parse_program("GB", "x1_0 := x1_0 - 1; touch x0_1;").expect("GB parses"));
    let sites: Vec<Site> = site_sets.iter().cloned().map(Site::new).collect();
    println!("== MDBS (§4): 2 autonomous sites, 4 local + 2 global transactions ==\n");

    let solver = Solver::new(&w.catalog, &w.ic);
    let mut global_csr = 0;
    let mut runs = 0;
    for seed in 0..40u64 {
        let cfg = ExecConfig {
            seed,
            ..ExecConfig::default()
        };
        let out = run_mdbs(&w.programs, &w.catalog, &w.initial, &sites, true, &cfg)
            .expect("mdbs completes");
        runs += 1;
        assert!(
            out.all_locals_serializable(),
            "site autonomy: each local schedule is serializable"
        );
        assert!(
            is_globally_pwsr(&out, &w.ic),
            "local SR at every site ⇒ global schedule PWSR"
        );
        let report = check_strong_correctness(&out.exec.schedule, &solver, &w.initial);
        assert!(
            report.ok(),
            "strong correctness (Theorem 1: fixed programs)"
        );
        if out.globally_serializable {
            global_csr += 1;
        }
        if seed == 0 {
            println!(
                "seed 0 metrics: {} (schedule length {})",
                out.exec.metrics,
                out.exec.schedule.len()
            );
        }
    }
    println!(
        "\n{runs}/{runs} runs: locals serializable, global PWSR, strongly correct.\n\
         Only {global_csr}/{runs} runs were globally serializable —\n\
         the gap is the autonomy the paper's criterion buys."
    );
    assert!(
        global_csr < runs,
        "expected some non-serializable global runs"
    );
}
