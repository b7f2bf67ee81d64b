//! CSR candidate graphs: the sparse counterpart of [`UtilityMatrix`].
//!
//! CBS prunes every request to a top-k candidate set precisely so the
//! assignment step doesn't pay for the full bipartite graph — a
//! [`SparseUtility`] carries that structure all the way into the solver
//! instead of round-tripping through a dense matrix. The layout is
//! classic CSR: `row_off[r]..row_off[r + 1]` indexes the candidate
//! column ids (ascending within each row) and their utilities.
//!
//! Missing edges are *implicit* `SANITIZED_UTILITY` cells: the dense
//! reference oracle for a sparse solve is [`Self::to_dense_masked`] with
//! [`crate::SANITIZED_UTILITY`], and `KmSolver::solve_sparse` is
//! bit-identical to the dense solve of that masked matrix whenever real
//! utilities are small against the mask magnitude (see DESIGN.md §16 for
//! the argument).

use crate::graph::UtilityMatrix;

/// A sparse `rows × cols` utility table in CSR form: each row stores
/// only its candidate columns (ascending) and their utilities.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SparseUtility {
    rows: usize,
    cols: usize,
    row_off: Vec<usize>,
    col_ids: Vec<usize>,
    utils: Vec<f64>,
}

impl SparseUtility {
    /// An empty `0 × 0` graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset to an empty graph over `cols` columns, keeping all buffer
    /// capacity. Rows are then appended with [`Self::push_row`].
    pub fn begin(&mut self, cols: usize) {
        self.rows = 0;
        self.cols = cols;
        self.row_off.clear();
        self.row_off.push(0);
        self.col_ids.clear();
        self.utils.clear();
    }

    /// Append one row of `(col, utility)` candidate edges. Columns must
    /// be strictly ascending and in range.
    pub fn push_row<I: IntoIterator<Item = (usize, f64)>>(&mut self, entries: I) {
        for (c, v) in entries {
            debug_assert!(c < self.cols, "column {c} out of range ({})", self.cols);
            debug_assert!(
                self.col_ids.len() == *self.row_off.last().unwrap()
                    || *self.col_ids.last().unwrap() < c,
                "columns must be strictly ascending within a row"
            );
            self.col_ids.push(c);
            self.utils.push(v);
        }
        self.rows += 1;
        self.row_off.push(self.col_ids.len());
    }

    /// Number of requests (rows).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of brokers (columns) in the compacted column space.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored candidate edges.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_ids.len()
    }

    /// Candidate column ids of row `r`, ascending.
    #[inline]
    pub fn row_cols(&self, r: usize) -> &[usize] {
        &self.col_ids[self.row_off[r]..self.row_off[r + 1]]
    }

    /// Utilities of row `r`, aligned with [`Self::row_cols`].
    #[inline]
    pub fn row_utils(&self, r: usize) -> &[f64] {
        &self.utils[self.row_off[r]..self.row_off[r + 1]]
    }

    /// `(col, utility)` pairs of row `r`, ascending by column.
    #[inline]
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.row_cols(r).iter().copied().zip(self.row_utils(r).iter().copied())
    }

    /// Utility of `(row, col)` if the edge exists (binary search).
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        let cols = self.row_cols(row);
        cols.binary_search(&col).ok().map(|i| self.row_utils(row)[i])
    }

    /// First stored non-finite utility as `(row, col)`, if any.
    pub fn first_non_finite(&self) -> Option<(usize, usize)> {
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                if !v.is_finite() {
                    return Some((r, c));
                }
            }
        }
        None
    }

    /// Copy `src` into `self`, reusing buffer capacity (the in-place
    /// `clone_from` for retention buffers that live across batches).
    pub fn copy_from(&mut self, src: &SparseUtility) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.row_off.clear();
        self.row_off.extend_from_slice(&src.row_off);
        self.col_ids.clear();
        self.col_ids.extend_from_slice(&src.col_ids);
        self.utils.clear();
        self.utils.extend_from_slice(&src.utils);
    }

    /// Sparsify a dense matrix, keeping every cell (tests and oracles).
    pub fn from_dense(u: &UtilityMatrix) -> Self {
        let mut g = Self::new();
        g.begin(u.cols());
        for r in 0..u.rows() {
            g.push_row(u.row(r).iter().copied().enumerate());
        }
        g
    }

    /// Materialise the dense masked equivalent into `out`: missing edges
    /// become `mask`, real edges keep their utilities bit-for-bit. This
    /// is the reference oracle for `KmSolver::solve_sparse`.
    pub fn to_dense_masked_into(&self, mask: f64, out: &mut UtilityMatrix) {
        out.reshape_for_overwrite(self.rows, self.cols);
        for r in 0..self.rows {
            let dst = out.row_mut(r);
            dst.fill(mask);
            for (c, v) in self.row_entries(r) {
                dst[c] = v;
            }
        }
    }

    /// Allocating form of [`Self::to_dense_masked_into`].
    pub fn to_dense_masked(&self, mask: f64) -> UtilityMatrix {
        let mut out = UtilityMatrix::zeros(0, 0);
        self.to_dense_masked_into(mask, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian::SANITIZED_UTILITY;

    fn small() -> SparseUtility {
        let mut g = SparseUtility::new();
        g.begin(5);
        g.push_row([(0, 0.5), (3, 0.9)]);
        g.push_row([(1, 0.2)]);
        g.push_row([]);
        g
    }

    #[test]
    fn csr_layout_and_access() {
        let g = small();
        assert_eq!(g.rows(), 3);
        assert_eq!(g.cols(), 5);
        assert_eq!(g.nnz(), 3);
        assert_eq!(g.row_cols(0), &[0, 3]);
        assert_eq!(g.row_utils(0), &[0.5, 0.9]);
        assert_eq!(g.get(0, 3), Some(0.9));
        assert_eq!(g.get(0, 2), None);
        assert_eq!(g.row_cols(2), &[] as &[usize]);
    }

    #[test]
    fn dense_roundtrip_masks_missing_edges() {
        let g = small();
        let d = g.to_dense_masked(SANITIZED_UTILITY);
        assert_eq!(d.rows(), 3);
        assert_eq!(d.cols(), 5);
        assert_eq!(d.get(0, 3), 0.9);
        assert_eq!(d.get(0, 2), SANITIZED_UTILITY);
        assert_eq!(d.get(2, 4), SANITIZED_UTILITY);
        // from_dense of a fully dense matrix keeps every cell.
        let u = UtilityMatrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
        let s = SparseUtility::from_dense(&u);
        assert_eq!(s.nnz(), 6);
        assert_eq!(s.get(1, 2), Some(5.0));
    }

    #[test]
    fn begin_keeps_capacity() {
        let mut g = small();
        let cap = (g.row_off.capacity(), g.col_ids.capacity(), g.utils.capacity());
        g.begin(4);
        g.push_row([(1, 1.0)]);
        g.push_row([(0, 2.0), (2, 3.0)]);
        assert_eq!(g.rows(), 2);
        assert_eq!(
            (g.row_off.capacity(), g.col_ids.capacity(), g.utils.capacity()),
            cap,
            "rebuilding a smaller graph must not reallocate"
        );
    }

    #[test]
    fn copy_from_reuses_buffers() {
        let g = small();
        let mut dst = SparseUtility::new();
        dst.copy_from(&g);
        assert_eq!(dst, g);
        let caps = (dst.row_off.capacity(), dst.col_ids.capacity(), dst.utils.capacity());
        dst.copy_from(&g);
        assert_eq!((dst.row_off.capacity(), dst.col_ids.capacity(), dst.utils.capacity()), caps);
    }

    #[test]
    fn finds_non_finite_entries() {
        let mut g = SparseUtility::new();
        g.begin(3);
        g.push_row([(0, 1.0)]);
        g.push_row([(1, f64::NAN), (2, 0.5)]);
        assert_eq!(g.first_non_finite(), Some((1, 1)));
        assert_eq!(small().first_non_finite(), None);
    }
}
