//! Deterministic input generators. `--seed` is consumed here and only
//! here: the crates under test receive the generated programs and
//! operations, never the seed. The same seed gives byte-identical
//! inputs (see the tests), so two runs of one commit differ only in
//! how the host interleaved the threads.

use pwsr_core::ids::{ItemId, TxnId};
use pwsr_core::op::Operation;
use pwsr_core::state::ItemSet;
use pwsr_core::value::Value;
use pwsr_durability::wal::encode_op_into;
use pwsr_gen::workloads::{random_workload, Workload, WorkloadConfig};
use pwsr_tplang::interp::execute_and_apply;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Full size (what the benchmark reports) or a seconds-long smoke size
/// for the harness's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The program set of an `occ_*` workload.
#[derive(Clone, Debug)]
pub struct OccInput {
    pub workload: Workload,
    pub scopes: Vec<ItemSet>,
    /// Operations one complete execution commits. The templates are
    /// fixed-structure (Definition 3), so this does not depend on the
    /// interleaving; it is what an `Err` round is charged with.
    pub ops_per_round: u64,
}

/// `occ_hot`: 2 conjuncts × 3 items — six hot items under 2000
/// transactions, so certification breaches, dirty waits and
/// retraction dominate.
pub fn occ_hot_config(size: Size) -> WorkloadConfig {
    WorkloadConfig {
        conjuncts: 2,
        items_per_conjunct: 3,
        n_background: if size == Size::Full { 2000 } else { 160 },
        cross_read_prob: 0.5,
        fixed_only: true,
        gadgets: 0,
        domain_width: 50,
    }
}

/// `occ_durable`: 16 conjuncts × 4 items — the same templates spread
/// over 64 items, so aborts are rare and the WAL carries the cost.
pub fn occ_durable_config(size: Size) -> WorkloadConfig {
    WorkloadConfig {
        conjuncts: 16,
        items_per_conjunct: 4,
        ..occ_hot_config(size)
    }
}

/// Generate an `occ_*` program set and count the operations one
/// execution commits by running the programs serially.
pub fn occ_input(seed: u64, cfg: &WorkloadConfig) -> OccInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let workload = random_workload(&mut rng, cfg);
    let scopes = workload
        .ic
        .conjuncts()
        .iter()
        .map(|c| c.items().clone())
        .collect();
    let mut state = workload.initial.clone();
    let mut ops_per_round = 0;
    for (k, program) in workload.programs.iter().enumerate() {
        let (txn, next) =
            execute_and_apply(program, &workload.catalog, TxnId(k as u32 + 1), &state)
                .expect("generated programs execute in isolation");
        ops_per_round += txn.len() as u64;
        state = next;
    }
    OccInput {
        workload,
        scopes,
        ops_per_round,
    }
}

/// Conjuncts and items per conjunct of the `stream_*` database.
pub const STREAM_CONJUNCTS: u32 = 16;
pub const STREAM_ITEMS: u32 = 16;
/// Distinct items a stream transaction touches (read then write each).
const STREAM_TOUCHED: usize = 4;
/// Every `CROSS_EVERY`-th transaction of `stream_cross` opens with a
/// read-only access to another conjunct (the §3.3 data-access-graph
/// case).
const CROSS_EVERY: usize = 8;

/// The 16 disjoint conjunct scopes of the `stream_*` database.
pub fn stream_scopes() -> Vec<ItemSet> {
    (0..STREAM_CONJUNCTS)
        .map(|c| {
            (0..STREAM_ITEMS)
                .map(|i| ItemId(c * STREAM_ITEMS + i))
                .collect()
        })
        .collect()
}

/// One lane of transactions per worker. Lane `t` only touches
/// conjuncts `c` with `c % lanes == t`, so lanes conflict nowhere
/// except through `cross` reads. Every transaction is 8 operations on
/// one conjunct and obeys §2.2: an item is read at most once, written
/// at most once and never read after its own write.
pub fn stream_lanes(seed: u64, cross: bool, txns: usize, lanes: usize) -> Vec<Vec<Vec<Operation>>> {
    let lanes = lanes.clamp(1, STREAM_CONJUNCTS as usize);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..lanes)
        .map(|t| {
            let owned: Vec<u32> = (0..STREAM_CONJUNCTS)
                .filter(|c| *c as usize % lanes == t)
                .collect();
            let n = txns / lanes + usize::from(t < txns % lanes);
            (0..n)
                .map(|j| {
                    // Ids interleave across lanes so that summarized
                    // id ranges coalesce as all lanes advance.
                    let txn = TxnId((j * lanes + t) as u32 + 1);
                    let c = owned[rng.random_range(0..owned.len())];
                    let mut items: Vec<u32> = (0..STREAM_ITEMS).collect();
                    for k in 0..STREAM_TOUCHED {
                        let pick = rng.random_range(k..items.len());
                        items.swap(k, pick);
                    }
                    let mut ops = Vec::with_capacity(2 * STREAM_TOUCHED);
                    for &i in &items[..STREAM_TOUCHED] {
                        let item = ItemId(c * STREAM_ITEMS + i);
                        ops.push(Operation::read(txn, item, Value::Int(0)));
                        ops.push(Operation::write(txn, item, Value::Int(i64::from(txn.0))));
                    }
                    if cross && j % CROSS_EVERY == CROSS_EVERY - 1 {
                        let mut other = rng.random_range(0..STREAM_CONJUNCTS - 1);
                        if other >= c {
                            other += 1;
                        }
                        let item = ItemId(other * STREAM_ITEMS + rng.random_range(0..STREAM_ITEMS));
                        ops[0] = Operation::read(txn, item, Value::Int(0));
                    }
                    ops
                })
                .collect()
        })
        .collect()
}

/// FNV-1a over a byte stream: the fingerprint the determinism tests
/// and the run record use to name an input.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fingerprint of an `occ_*` input: every program's syntax tree, the
/// initial state and the scopes.
pub fn occ_fingerprint(input: &OccInput) -> u64 {
    let mut h = Fnv::default();
    for p in &input.workload.programs {
        h.update(format!("{p:?}").as_bytes());
    }
    h.update(format!("{:?}{:?}", input.workload.initial, input.scopes).as_bytes());
    h.0
}

/// Fingerprint of an operation stream in the WAL's byte encoding.
pub fn ops_fingerprint<'a>(ops: impl IntoIterator<Item = &'a Operation>) -> u64 {
    let mut h = Fnv::default();
    let mut buf = Vec::new();
    for op in ops {
        buf.clear();
        encode_op_into(&mut buf, op);
        h.update(&buf);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwsr_core::monitor::OnlineMonitor;

    fn lanes_fingerprint(lanes: &[Vec<Vec<Operation>>]) -> u64 {
        ops_fingerprint(lanes.iter().flatten().flatten())
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for cfg in [occ_hot_config(Size::Tiny), occ_durable_config(Size::Tiny)] {
            let a = occ_fingerprint(&occ_input(42, &cfg));
            assert_eq!(a, occ_fingerprint(&occ_input(42, &cfg)));
            assert_ne!(a, occ_fingerprint(&occ_input(43, &cfg)));
        }
        for cross in [false, true] {
            let a = lanes_fingerprint(&stream_lanes(42, cross, 400, 2));
            assert_eq!(a, lanes_fingerprint(&stream_lanes(42, cross, 400, 2)));
            assert_ne!(a, lanes_fingerprint(&stream_lanes(43, cross, 400, 2)));
        }
        assert_ne!(
            lanes_fingerprint(&stream_lanes(42, false, 400, 2)),
            lanes_fingerprint(&stream_lanes(42, true, 400, 2))
        );
    }

    #[test]
    fn stream_transactions_obey_section_2_2_and_stay_in_their_lane() {
        let scopes = stream_scopes();
        for cross in [false, true] {
            let lanes = stream_lanes(7, cross, 801, 3);
            assert_eq!(lanes.iter().map(Vec::len).sum::<usize>(), 801);
            // The single-writer monitor applies the §2.2 validation
            // (DuplicateRead / DuplicateWrite / ReadAfterWrite).
            let mut m = OnlineMonitor::new(scopes.clone());
            let mut crossed = 0;
            for (t, lane) in lanes.iter().enumerate() {
                for txn in lane {
                    assert_eq!(txn.len(), 8);
                    m.push_batch(txn).expect("well-formed transaction");
                    let home = txn[1].item.0 / STREAM_ITEMS;
                    assert_eq!(home as usize % 3, t);
                    let away: Vec<_> = txn
                        .iter()
                        .filter(|o| o.item.0 / STREAM_ITEMS != home)
                        .collect();
                    assert!(away.iter().all(|o| o.is_read()));
                    assert!(away.len() <= 1 && (cross || away.is_empty()));
                    crossed += away.len();
                }
            }
            let expected: usize = lanes.iter().map(|l| l.len() / 8).sum();
            assert_eq!(crossed, if cross { expected } else { 0 });
            assert!(m.verdict().pwsr());
        }
    }

    #[test]
    fn occ_input_counts_the_serial_execution() {
        let input = occ_input(42, &occ_hot_config(Size::Tiny));
        assert_eq!(input.workload.programs.len(), 160);
        assert_eq!(input.scopes.len(), 2);
        assert!(input.ops_per_round >= 160);
    }
}
