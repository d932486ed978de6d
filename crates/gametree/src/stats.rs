//! Search instrumentation.
//!
//! The paper's evaluation reports *nodes generated* (Figures 12 and 13) and
//! discusses the cost of static-evaluator calls incurred by child sorting
//! (the O1 anomaly in §7), so both are first-class counters here.

/// Counters accumulated by one search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Interior nodes whose children were generated.
    pub interior_nodes: u64,
    /// Leaf nodes handed to the static evaluator as search terminals.
    pub leaf_nodes: u64,
    /// Total static-evaluator invocations, including those performed only
    /// to sort children (the paper charges these to sorting overhead).
    pub eval_calls: u64,
    /// Child lists sorted by static value.
    pub sorts: u64,
    /// Beta cutoffs taken.
    pub cutoffs: u64,
    /// Beta cutoffs produced by a move that was already a killer at its
    /// ply when the cutoff happened.
    pub killer_hits: u64,
    /// Beta cutoffs produced by a non-killer move with a positive history
    /// score (its ordering was history-ranked).
    pub history_hits: u64,
}

impl SearchStats {
    /// A zeroed counter set.
    pub fn new() -> SearchStats {
        SearchStats::default()
    }

    /// Total nodes examined — the quantity plotted in the paper's
    /// Figures 12 and 13.
    pub fn nodes(&self) -> u64 {
        self.interior_nodes + self.leaf_nodes
    }

    /// Static-evaluator calls made purely for ordering (i.e. beyond the one
    /// call per leaf terminal).
    pub fn sorting_evals(&self) -> u64 {
        self.eval_calls.saturating_sub(self.leaf_nodes)
    }

    /// Accumulates another search's counters into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.interior_nodes += other.interior_nodes;
        self.leaf_nodes += other.leaf_nodes;
        self.eval_calls += other.eval_calls;
        self.sorts += other.sorts;
        self.cutoffs += other.cutoffs;
        self.killer_hits += other.killer_hits;
        self.history_hits += other.history_hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_sums_interior_and_leaves() {
        let s = SearchStats {
            interior_nodes: 3,
            leaf_nodes: 7,
            ..SearchStats::new()
        };
        assert_eq!(s.nodes(), 10);
    }

    #[test]
    fn sorting_evals_excludes_leaf_terminals() {
        let s = SearchStats {
            leaf_nodes: 5,
            eval_calls: 12,
            ..SearchStats::new()
        };
        assert_eq!(s.sorting_evals(), 7);
    }

    #[test]
    fn sorting_evals_saturates() {
        let s = SearchStats {
            leaf_nodes: 5,
            eval_calls: 2,
            ..SearchStats::new()
        };
        assert_eq!(s.sorting_evals(), 0);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = SearchStats {
            interior_nodes: 1,
            leaf_nodes: 2,
            eval_calls: 3,
            sorts: 4,
            cutoffs: 5,
            killer_hits: 6,
            history_hits: 7,
        };
        a.merge(&a.clone());
        assert_eq!(
            a,
            SearchStats {
                interior_nodes: 2,
                leaf_nodes: 4,
                eval_calls: 6,
                sorts: 8,
                cutoffs: 10,
                killer_hits: 12,
                history_hits: 14,
            }
        );
    }
}
