//! Who goes next: the one choice behind every interleaving and order
//! the workspace samples or enumerates. A loop asks a [`Pick`]; a
//! **seeded draw** (any `FnMut(usize) -> usize` given the number of
//! candidates, e.g. `|n| rng.random_range(0..n)`) answers with one
//! sample, and [`Explore`] with every sequence of choices, by replay.

/// Chooses which of `candidates` goes next.
pub trait Pick<K> {
    /// The index into `candidates` (never empty) of the one chosen.
    fn pick(&mut self, candidates: &[K]) -> usize;
}

/// A seeded draw: given the number of candidates, an index below it.
impl<K, F: FnMut(usize) -> usize> Pick<K> for F {
    fn pick(&mut self, candidates: &[K]) -> usize {
        self(candidates.len())
    }
}

/// Exhaustive search by replay: run the loop from scratch once per path
/// until [`advance`](Explore::advance) returns `false`. A run follows the
/// recorded `(choice, width)` path, then takes choice 0 and records the
/// width. Choice `k` is the candidate with the `k`-th smallest key (ties
/// by position), so runs come in lexicographic order of keys. Nothing is
/// cloned: replay needs only that the same choices reach the same state,
/// so it can drive a pipeline stepped on one thread.
#[derive(Clone, Debug, Default)]
pub struct Explore {
    path: Vec<(usize, usize)>,
    depth: usize,
}

impl Explore {
    /// The `(choice, width)` pairs the current run has taken.
    pub fn path(&self) -> &[(usize, usize)] {
        &self.path[..self.depth]
    }

    /// Step to the next path, like an odometer; `false` once every path
    /// has run.
    pub fn advance(&mut self) -> bool {
        assert_eq!(self.depth, self.path.len(), "replay ended early");
        self.depth = 0;
        while let Some((choice, width)) = self.path.pop() {
            if choice + 1 < width {
                self.path.push((choice + 1, width));
                return true;
            }
        }
        false
    }
}

impl<K: Ord> Pick<K> for Explore {
    fn pick(&mut self, candidates: &[K]) -> usize {
        let width = candidates.len();
        if self.depth == self.path.len() {
            self.path.push((0, width));
        }
        let (choice, recorded) = self.path[self.depth];
        assert_eq!(recorded, width, "replay diverged at pick {}", self.depth);
        self.depth += 1;
        let mut order: Vec<usize> = (0..width).collect();
        order.select_nth_unstable_by_key(choice, |&i| (&candidates[i], i));
        order[choice]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run a tree of fixed widths once under `picks`: the keys taken.
    fn leaf(picks: &mut impl Pick<char>, widths: &[usize], shuffle: bool) -> String {
        let mut keys = String::new();
        for &w in widths {
            let mut candidates: Vec<char> = ('a'..).take(w).collect();
            if shuffle {
                candidates.reverse();
                candidates.rotate_left(w / 2);
            }
            keys.push(candidates[picks.pick(&candidates)]);
        }
        keys
    }

    fn all_leaves(widths: &[usize], shuffle: bool) -> Vec<String> {
        let mut explore = Explore::default();
        let mut out = vec![leaf(&mut explore, widths, shuffle)];
        while explore.advance() {
            out.push(leaf(&mut explore, widths, shuffle));
        }
        out
    }

    #[test]
    fn explore_visits_every_leaf_once_in_lexicographic_order() {
        let leaves = all_leaves(&[3, 2, 1], false);
        assert_eq!(leaves, ["aaa", "aba", "baa", "bba", "caa", "cba"]);
    }

    #[test]
    fn candidate_order_does_not_change_the_key_sequence() {
        assert_eq!(all_leaves(&[3, 2, 1], true), all_leaves(&[3, 2, 1], false));
        assert_eq!(all_leaves(&[4, 1, 3], true), all_leaves(&[4, 1, 3], false));
    }

    #[test]
    fn a_recorded_path_replays_its_leaf() {
        let widths = [3, 2, 1];
        let mut explore = Explore::default();
        for _ in 0..3 {
            leaf(&mut explore, &widths, true);
            assert!(explore.advance());
        }
        let recorded = explore.clone();
        let fourth = leaf(&mut explore, &widths, true);
        assert_eq!(fourth, "bba");
        assert_eq!(explore.path(), [(1, 3), (1, 2), (0, 1)]);
        assert_eq!(leaf(&mut recorded.clone(), &widths, true), fourth);
        assert_eq!(leaf(&mut recorded.clone(), &widths, false), fourth);
    }

    #[test]
    fn a_seeded_draw_is_given_the_width_and_its_answer_is_the_pick() {
        let mut widths = Vec::new();
        let mut draw = |n: usize| {
            widths.push(n);
            n - 1
        };
        assert_eq!(leaf(&mut draw, &[3, 2, 1], false), "cba");
        assert_eq!(widths, [3, 2, 1]);
    }

    #[test]
    fn an_empty_tree_runs_once() {
        let mut explore = Explore::default();
        assert_eq!(leaf(&mut explore, &[], false), "");
        assert!(!explore.advance());
    }
}
