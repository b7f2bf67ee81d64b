//! Property-based cross-checks of the matching substrate: three
//! independent exact solvers (Hungarian, min-cost flow, brute force)
//! must agree, and CBS pruning (Theorem 2 / Corollary 1) must preserve
//! the optimum.

use caam::matching::cbs::candidate_union_seeded_with;
use caam::matching::flow::assignment_via_flow;
use caam::matching::hungarian::{
    brute_force_assignment, max_weight_assignment, max_weight_assignment_padded,
};
use caam::matching::UtilityMatrix;
use proptest::prelude::*;

fn utility_matrix(rows: usize, cols: usize) -> impl Strategy<Value = UtilityMatrix> {
    proptest::collection::vec(0.0f64..1.0, rows * cols)
        .prop_map(move |data| UtilityMatrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hungarian_matches_brute_force(u in (1usize..5, 1usize..6).prop_flat_map(|(r, c)| {
        let (r, c) = (r.min(c), r.max(c));
        utility_matrix(r, c)
    })) {
        let solver = max_weight_assignment(&u);
        let brute = brute_force_assignment(&u);
        prop_assert!((solver.total - brute).abs() < 1e-9,
            "solver {} vs brute {}", solver.total, brute);
        solver.validate(&u);
    }

    #[test]
    fn flow_matches_hungarian(u in (1usize..6, 1usize..8).prop_flat_map(|(r, c)| utility_matrix(r, c))) {
        let h = max_weight_assignment(&u);
        let f = assignment_via_flow(&u);
        prop_assert!((h.total - f.total).abs() < 1e-9,
            "hungarian {} vs flow {}", h.total, f.total);
    }

    #[test]
    fn padded_matches_rectangular(u in (1usize..5, 5usize..12).prop_flat_map(|(r, c)| utility_matrix(r, c))) {
        let rect = max_weight_assignment(&u);
        let padded = max_weight_assignment_padded(&u);
        prop_assert!((rect.total - padded.total).abs() < 1e-9);
        padded.validate(&u);
    }

    #[test]
    fn cbs_preserves_optimum(
        u in (2usize..5, 8usize..24).prop_flat_map(|(r, c)| utility_matrix(r, c)),
        seed in 0u64..1000,
        n_threads in 1usize..4,
    ) {
        // Corollary 1: taking Top^r_{|R|} per request preserves an
        // optimal assignment — on the seeded union LACB-Opt's dense path
        // serves, split across `n_threads` chunks (cutoff 0).
        let full = max_weight_assignment(&u);
        let cols = candidate_union_seeded_with(&u, u.rows(), seed, n_threads, 0);
        let reduced = u.select_columns(&cols);
        let pruned = max_weight_assignment(&reduced);
        prop_assert!((full.total - pruned.total).abs() < 1e-9,
            "full {} vs CBS-pruned {}", full.total, pruned.total);
    }

    #[test]
    fn every_request_matched_when_brokers_suffice(
        u in (1usize..6, 6usize..12).prop_flat_map(|(r, c)| utility_matrix(r, c)),
    ) {
        let a = max_weight_assignment(&u);
        prop_assert_eq!(a.matched_count(), u.rows());
    }

    #[test]
    fn assignment_value_is_invariant_to_column_permutation(
        u in utility_matrix(3, 7),
        shift in 1usize..6,
    ) {
        let perm: Vec<usize> = (0..7).map(|i| (i + shift) % 7).collect();
        let permuted = u.select_columns(&perm);
        let a = max_weight_assignment(&u);
        let b = max_weight_assignment(&permuted);
        prop_assert!((a.total - b.total).abs() < 1e-9);
    }
}
