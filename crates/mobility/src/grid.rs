//! Static grid placement (§VI-A of the paper).
//!
//! The paper's static scenario distributes 100 nodes as a 10×10 grid "at
//! proper neighboring distances such that each node can communicate directly
//! with its 8 surrounding neighbors": spacing `s` must satisfy
//! `s·√2 ≤ range < 2s`. With the default 75 m radio range, [`SPACING_M`]
//! (50 m) satisfies this (50·√2 ≈ 70.7 ≤ 75 < 100).

use pds_sim::Position;

/// Default grid spacing in meters, matched to the default 75 m radio range.
pub const SPACING_M: f64 = 50.0;

/// Positions of an `rows × cols` grid with the given spacing, row-major.
///
/// # Examples
///
/// ```
/// use pds_mobility::grid::positions;
///
/// let grid = positions(10, 10, 50.0);
/// assert_eq!(grid.len(), 100);
/// ```
#[must_use]
pub fn positions(rows: usize, cols: usize, spacing: f64) -> Vec<Position> {
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            out.push(Position::new(c as f64 * spacing, r as f64 * spacing));
        }
    }
    out
}

/// Index (row-major) of the node nearest the grid center — where the paper
/// places the consumer.
#[must_use]
pub fn center_index(rows: usize, cols: usize) -> usize {
    (rows / 2) * cols + cols / 2
}

/// Row-major indices of the central `inner × inner` sub-grid — the region
/// the paper samples multiple consumers from (the "center 5 by 5 subgrid").
///
/// # Panics
///
/// Panics if `inner` exceeds either grid dimension.
#[must_use]
pub fn center_subgrid(rows: usize, cols: usize, inner: usize) -> Vec<usize> {
    assert!(inner <= rows && inner <= cols, "subgrid larger than grid");
    let r0 = (rows - inner) / 2;
    let c0 = (cols - inner) / 2;
    let mut out = Vec::with_capacity(inner * inner);
    for r in r0..r0 + inner {
        for c in c0..c0 + inner {
            out.push(r * cols + c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_expected_geometry() {
        let g = positions(3, 4, 10.0);
        assert_eq!(g.len(), 12);
        assert_eq!(g[0], Position::new(0.0, 0.0));
        assert_eq!(g[3], Position::new(30.0, 0.0));
        assert_eq!(g[4], Position::new(0.0, 10.0));
    }

    #[test]
    fn spacing_supports_eight_neighbors_at_default_range() {
        // Diagonal neighbor must be in range; two-step neighbor must not.
        let range = pds_sim::RANGE_M;
        assert!(SPACING_M * std::f64::consts::SQRT_2 <= range);
        assert!(2.0 * SPACING_M > range);
    }

    #[test]
    fn center_index_is_central() {
        assert_eq!(center_index(10, 10), 55);
        assert_eq!(center_index(3, 3), 4);
        assert_eq!(center_index(11, 11), 60);
    }

    #[test]
    fn center_subgrid_is_centered() {
        let idx = center_subgrid(10, 10, 5);
        assert_eq!(idx.len(), 25);
        assert!(idx.contains(&center_index(10, 10)));
        // All within rows 2..7, cols 2..7.
        for i in idx {
            let (r, c) = (i / 10, i % 10);
            assert!((2..7).contains(&r) && (2..7).contains(&c));
        }
    }

    #[test]
    #[should_panic(expected = "subgrid larger")]
    fn oversized_subgrid_panics() {
        let _ = center_subgrid(3, 3, 5);
    }
}
