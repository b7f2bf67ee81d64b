//! Bipartite-matching substrate for capacity-aware broker assignment.
//!
//! The assignment module of LACB (Sec. VI of the paper) reduces every
//! batch to a maximum-weight bipartite matching between requests and
//! available brokers. This crate supplies everything that step needs:
//!
//! * [`UtilityMatrix`] — a dense `requests × brokers` utility table.
//! * [`hungarian`] — the Kuhn–Munkres / Hungarian algorithm in two
//!   flavours: the paper-faithful **dummy-padded balanced** form used by
//!   the `KM`, `AN` and `LACB` comparators (cost `O(|B|³)`), and a
//!   **rectangular** shortest-augmenting-path form (`O(n²m)`, `n ≤ m`).
//! * [`flow`] — a from-scratch min-cost max-flow solver used as an
//!   independent exact oracle in property tests.
//! * [`greedy`] — the classic greedy matcher, competitive in many online
//!   settings (Tong et al., VLDB'16) and a useful non-exact baseline.
//! * [`cbs`] — **Candidate Broker Selection** (Alg. 3): a
//!   quickselect-style top-k filter that shrinks the broker side to the
//!   `Top^r_{|R|}` sets justified by Theorem 2 / Corollary 1, taking
//!   LACB to LACB-Opt.

pub mod auction;
pub mod brownout;
pub mod cbs;
pub mod flow;
pub mod graph;
pub mod greedy;
pub mod hungarian;
pub mod parallel;
pub mod sparse;

pub use auction::auction_assignment;
pub use brownout::MatchMode;
pub use cbs::{
    candidate_union, candidate_union_seeded, fused_score_select, top_k_indices, top_k_into,
    FusedBuffers,
};
pub use graph::{AssignmentResult, UtilityMatrix};
pub use hungarian::{
    max_weight_assignment, max_weight_assignment_padded, sanitize_utilities,
    try_max_weight_assignment, try_max_weight_assignment_padded, CertifyMode, KmCertificate,
    KmSolver, MatchingError, SolveShape, SANITIZED_UTILITY,
};
pub use parallel::{solve_shards, solve_shards_padded, solve_shards_sparse};
pub use sparse::SparseUtility;
