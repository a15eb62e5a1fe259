//! The online verdict monitor, live on the paper's Example 2.
//!
//! Streams the PWSR-but-inconsistent interleaving through an
//! [`OnlineMonitor`] one operation at a time, printing the verdict
//! ladder as it degrades (Serializable → PWSR, with the exact offending
//! positions); then replays the same stream through monitor-backed
//! admission at two levels, showing the scheduler *reject* the
//! operation that would close the cycle / materialize the dirty read —
//! the paper's verdicts driving scheduling decisions instead of
//! describing finished histories. A final act journals the admitted
//! prefix into a real on-disk write-ahead log and rebuilds a
//! byte-identical monitor from the file — the durability layer on its
//! default file-backed path, not the in-memory test double.
//!
//! ```sh
//! cargo run --example online_monitor
//! ```

use pwsr::core::monitor::{AdmissionLevel, OnlineMonitor};
use pwsr::durability::checkpoint::state_hash;
use pwsr::durability::recover::recover;
use pwsr::durability::wal::{SharedWal, SyncPolicy, Wal};
use pwsr::prelude::*;
use pwsr::scheduler::policy::{MonitorAdmission, MonitorSpec};

/// Example 2's schedule: w1(a,1), r2(a,1), r2(b,−1), w2(c,−1), r1(c,−1).
fn example2_ops() -> (Catalog, IntegrityConstraint, Vec<Operation>) {
    let mut catalog = Catalog::new();
    let a = catalog.add_item("a", Domain::int_range(-10, 10));
    let b = catalog.add_item("b", Domain::int_range(-10, 10));
    let c = catalog.add_item("c", Domain::int_range(-10, 10));
    let ic = IntegrityConstraint::new(vec![
        Conjunct::new(
            0,
            Formula::implies(
                Formula::gt(Term::var(a), Term::int(0)),
                Formula::gt(Term::var(b), Term::int(0)),
            ),
        ),
        Conjunct::new(1, Formula::gt(Term::var(c), Term::int(0))),
    ])
    .expect("disjoint conjuncts");
    let ops = vec![
        Operation::write(TxnId(1), a, Value::Int(1)),
        Operation::read(TxnId(2), a, Value::Int(1)),
        Operation::read(TxnId(2), b, Value::Int(-1)),
        Operation::write(TxnId(2), c, Value::Int(-1)),
        Operation::read(TxnId(1), c, Value::Int(-1)),
    ];
    (catalog, ic, ops)
}

fn main() {
    let (catalog, ic, ops) = example2_ops();

    println!("== Live verdicts, operation by operation (Example 2) ==");
    let mut monitor = OnlineMonitor::for_constraint(&ic);
    for op in &ops {
        let v = monitor.push(op.clone()).expect("valid schedule");
        println!(
            "  push {:<12} -> {:?}  (serializable={}, dr={}, Lemma2={}, Lemma6={})",
            op.display(&catalog),
            v.level,
            v.serializable,
            v.dr,
            v.lemma2_certified,
            v.lemma6_certified,
        );
    }
    let v = monitor.verdict();
    println!(
        "  first non-serializable prefix: {:?}; first non-DR prefix: {:?}",
        v.first_non_serializable, v.first_non_dr
    );
    println!(
        "  batch audit of the incremental certificates: {}\n",
        monitor.certify_prefix()
    );

    println!("== Monitor-backed admission: level Serializable ==");
    let spec = |level| MonitorSpec::new(ic.scopes(), level);
    let mut adm = MonitorAdmission::new(&spec(AdmissionLevel::Serializable));
    stream(&catalog, &mut adm, &ops);
    println!("\n== Monitor-backed admission: level PWSR+DR ==");
    let mut adm = MonitorAdmission::new(&spec(AdmissionLevel::PwsrDr));
    stream(&catalog, &mut adm, &ops);
    println!("\nThe committed prefix is exactly the largest one the configured");
    println!("verdict floor admits — certification at admission time, per op.");

    println!("\n== Durable admission: file-backed WAL + crash recovery ==");
    let scopes = ic.scopes();
    let path = std::env::temp_dir().join(format!("pwsr_online_monitor_{}.wal", std::process::id()));
    let wal =
        SharedWal::new(Wal::create(&path, SyncPolicy::PerRecord).expect("create temp WAL file"));
    let mut adm = MonitorAdmission::new(&MonitorSpec {
        wal: Some(wal.clone()),
        ..spec(AdmissionLevel::Pwsr)
    });
    for op in &ops {
        if adm.would_admit(op.txn, op.item, op.is_write()) {
            adm.push_logged(op);
        }
    }
    wal.sync();
    let live_hash = state_hash(adm.monitor());
    println!(
        "  journaled {} admitted ops to {}",
        adm.monitor().len(),
        path.display()
    );
    // "Crash": forget the live monitor, keep only the file on disk.
    drop(adm);
    drop(wal);
    let bytes = std::fs::read(&path).expect("read WAL back from disk");
    let rec = recover(scopes, None, &bytes).expect("recover from file bytes");
    println!(
        "  recovered {} records from {} bytes; verdict {:?}; state hash identical: {}",
        rec.records_applied,
        bytes.len(),
        rec.monitor.verdict().level,
        state_hash(&rec.monitor) == live_hash
    );
    assert!(rec.corruption.is_none(), "clean shutdown scans clean");
    assert_eq!(state_hash(&rec.monitor), live_hash);
    let _ = std::fs::remove_file(&path);
    println!("  the on-disk log alone rebuilt the monitor byte-for-byte.");
}

fn stream(catalog: &Catalog, adm: &mut MonitorAdmission, ops: &[Operation]) {
    for op in ops {
        if adm.would_admit(op.txn, op.item, op.is_write()) {
            adm.push_logged(op);
            println!("  admit  {}", op.display(catalog));
        } else {
            println!(
                "  REJECT {}  (would sink below the floor)",
                op.display(catalog)
            );
        }
    }
    let v = adm.monitor().verdict();
    println!(
        "  committed {} ops; verdict {:?}, dr={}",
        adm.monitor().len(),
        v.level,
        v.dr
    );
}
