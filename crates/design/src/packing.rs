//! Triangle *packings* of `K_n` — the dual of covering.
//!
//! The paper's reference \[7\] is titled "Packings and coverings by
//! triples"; design theory treats the two together. A packing is a set
//! of edge-*disjoint* triangles; the maximum packing number `D(n)`
//! complements the covering number `C(n,3,2)` (they coincide at STS
//! orders, where a decomposition is both). The DRC experiments use
//! packings to quantify how much of a covering is "pure" (overlap-free
//! capacity) versus overlap.
//!
//! `D(n) = ⌊n/3 · ⌊(n−1)/2⌋⌋ − ε`, with `ε = 1` iff `n ≡ 5 (mod 6)`
//! (Schönheim–Hanani). [`max_triangle_packing`] constructs a packing of
//! exactly `D(n)` for *every* `n ≥ 3`:
//!
//! * `n ≡ 1, 3 (mod 6)` — the STS itself (leave ∅);
//! * `n ≡ 0, 2 (mod 6)` — delete one vertex from `STS(n+1)` (leave: a
//!   perfect matching);
//! * `n ≡ 4 (mod 6)` — a maximum packing leaves a *tripole* (a
//!   3-star plus a perfect matching on the rest — the unique minimum
//!   all-odd-degree leave with `|E| ≡ 0 (mod 3)` removed); we fix that
//!   leave and find an exact triangle decomposition of `K_n − leave`
//!   with the Dancing-Links engine of `cyclecover-solver`;
//! * `n ≡ 5 (mod 6)` — dually, the leave is a 4-cycle.
//!
//! The DLX step *constructs and certifies* in one stroke: a returned
//! decomposition is machine-checked exact, so the packing provably
//! meets `D(n)`.

use crate::{bose_steiner_triple_system, cyclic_steiner_triple_system};
use cyclecover_graph::{Edge, EdgeMultiset, Vertex};
use cyclecover_solver::dlx::ExactCover;

/// The maximum number of pairwise edge-disjoint triangles in `K_n`
/// (Schönheim–Hanani): `⌊n/3 ⌊(n−1)/2⌋⌋`, minus 1 when `n ≡ 5 (mod 6)`.
pub fn triangle_packing_number(n: u64) -> u64 {
    assert!(n >= 3);
    let b = (n * ((n - 1) / 2)) / 3;
    if n % 6 == 5 {
        b - 1
    } else {
        b
    }
}

/// Builds a maximum triangle packing of `K_n` (size exactly
/// [`triangle_packing_number`]`(n)`); see the module docs for the
/// per-residue construction.
///
/// # Panics
/// Panics if `n < 3`.
pub fn max_triangle_packing(n: usize) -> Vec<[Vertex; 3]> {
    assert!(n >= 3);
    let mut packing = max_triangle_packing_raw(n);
    for t in &mut packing {
        t.sort_unstable();
    }
    packing
}

fn max_triangle_packing_raw(n: usize) -> Vec<[Vertex; 3]> {
    match n % 6 {
        3 => bose_steiner_triple_system(n),
        1 if n >= 7 => cyclic_steiner_triple_system(n),
        0 | 2 => {
            // STS(n+1) minus the vertex n: keep the triples avoiding it.
            let sts = match (n + 1) % 6 {
                3 => bose_steiner_triple_system(n + 1),
                _ => cyclic_steiner_triple_system(n + 1),
            };
            sts.into_iter()
                .filter(|t| t.iter().all(|&v| (v as usize) < n))
                .collect()
        }
        4 => {
            // Leave: 3-star at 0 plus a perfect matching on 4..n.
            let mut leave = vec![(0, 1), (0, 2), (0, 3)];
            leave.extend((2..n as Vertex / 2).map(|i| (2 * i, 2 * i + 1)));
            decompose_minus_leave(n, &leave)
        }
        5 => {
            if n == 5 {
                return vec![[0, 2, 4], [1, 3, 4]];
            }
            // Leave: the 4-cycle (0, 1, 2, 3).
            decompose_minus_leave(n, &[(0, 1), (1, 2), (2, 3), (0, 3)])
        }
        _ => unreachable!("all residues handled"),
    }
}

/// Exact triangle decomposition of `K_n` minus the given leave, via
/// Dancing Links. The leave is chosen so that a decomposition exists
/// (all degrees even, edge count divisible by 3 — the classical maximum
/// packing leaves); the solver's success *is* the certificate.
fn decompose_minus_leave(n: usize, leave: &[(Vertex, Vertex)]) -> Vec<[Vertex; 3]> {
    let pairs = n * (n - 1) / 2;
    let mut is_leave = vec![false; pairs];
    for &(a, b) in leave {
        is_leave[Edge::new(a, b).dense_index(n)] = true;
    }
    // Dense column ids for the edges to decompose.
    let mut col_of = vec![usize::MAX; pairs];
    let mut ncols = 0usize;
    for i in 0..pairs {
        if !is_leave[i] {
            col_of[i] = ncols;
            ncols += 1;
        }
    }
    let mut ec = ExactCover::new(ncols);
    let mut rows: Vec<[Vertex; 3]> = Vec::new();
    for u in 0..n as Vertex {
        for v in (u + 1)..n as Vertex {
            if is_leave[Edge::new(u, v).dense_index(n)] {
                continue;
            }
            for w in (v + 1)..n as Vertex {
                if is_leave[Edge::new(u, w).dense_index(n)]
                    || is_leave[Edge::new(v, w).dense_index(n)]
                {
                    continue;
                }
                ec.add_row(&[
                    col_of[Edge::new(u, v).dense_index(n)],
                    col_of[Edge::new(u, w).dense_index(n)],
                    col_of[Edge::new(v, w).dense_index(n)],
                ]);
                rows.push([u, v, w]);
            }
        }
    }
    let sel = ec
        .solve_first()
        .expect("classical maximum-packing leaves always admit a decomposition");
    sel.into_iter().map(|r| rows[r as usize]).collect()
}

/// Checks pairwise edge-disjointness of a triangle set.
pub fn is_edge_disjoint(n: usize, triangles: &[[Vertex; 3]]) -> bool {
    let mut cov = EdgeMultiset::new(n);
    for t in triangles {
        for (a, b) in [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])] {
            if cov.count(Edge::new(a, b)) > 0 {
                return false;
            }
            cov.insert(Edge::new(a, b));
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_small_values() {
        // Known values: D(3)=1, D(4)=1, D(5)=2, D(6)=4, D(7)=7, D(9)=12,
        // D(11)=17 (n ≡ 5 mod 6), D(13)=26.
        let expect = [
            (3, 1),
            (4, 1),
            (5, 2),
            (6, 4),
            (7, 7),
            (9, 12),
            (11, 17),
            (13, 26),
        ];
        for (n, d) in expect {
            assert_eq!(triangle_packing_number(n), d, "D({n})");
        }
    }

    #[test]
    fn every_order_meets_the_formula() {
        for n in 3usize..=23 {
            let packing = max_triangle_packing(n);
            assert!(is_edge_disjoint(n, &packing), "n={n}: overlap");
            assert!(
                packing
                    .iter()
                    .all(|t| t[0] < t[1] && t[1] < t[2] && (t[2] as usize) < n),
                "n={n}: malformed triangle"
            );
            assert_eq!(
                packing.len() as u64,
                triangle_packing_number(n as u64),
                "n={n}: packing not maximum"
            );
        }
    }

    #[test]
    fn sts_orders_are_decompositions() {
        for n in [7usize, 9, 13, 15] {
            let packing = max_triangle_packing(n);
            assert_eq!(packing.len(), n * (n - 1) / 6, "n={n}");
        }
    }

    #[test]
    fn disjointness_checker_detects_overlap() {
        assert!(!is_edge_disjoint(5, &[[0, 1, 2], [0, 1, 3]]));
        assert!(is_edge_disjoint(6, &[[0, 1, 2], [3, 4, 5]]));
    }

    #[test]
    fn deleted_vertex_leave_is_a_perfect_matching() {
        // n ≡ 0, 2 (mod 6): the leave of the delete-one-vertex packing is
        // a perfect matching (n/2 edges, every vertex degree 1).
        for n in [6usize, 8, 12, 14] {
            let packing = max_triangle_packing(n);
            let mut cov = EdgeMultiset::new(n);
            for t in &packing {
                for (a, b) in [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])] {
                    cov.insert(Edge::new(a, b));
                }
            }
            let leave: Vec<_> = cov.undercovered(1);
            assert_eq!(leave.len(), n / 2, "n={n}");
            let mut deg = vec![0; n];
            for (e, _) in leave {
                deg[e.u() as usize] += 1;
                deg[e.v() as usize] += 1;
            }
            assert!(deg.iter().all(|&d| d == 1), "n={n}: leave not a matching");
        }
    }

    #[test]
    fn residue_4_leave_is_the_tripole() {
        for n in [10usize, 16] {
            let packing = max_triangle_packing(n);
            let mut cov = EdgeMultiset::new(n);
            for t in &packing {
                for (a, b) in [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])] {
                    cov.insert(Edge::new(a, b));
                }
            }
            let leave = cov.undercovered(1);
            assert_eq!(leave.len(), 3 + (n - 4) / 2, "n={n}");
        }
    }
}
