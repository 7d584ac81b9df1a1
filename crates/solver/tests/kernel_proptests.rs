//! Differential tests through the engine boundary: engine `bitset` must
//! agree with the test-only exact oracle (`tests/oracle`) — same
//! feasible/infeasible verdicts, same optimum — on every instance shape
//! the solver supports (`n ≤ 9`, complete and random subset specs, full
//! and restricted universes), and with the memo off its unit core must
//! reproduce, node for node, the counts the recursive search it replaced
//! recorded.

mod oracle;

use cyclecover_graph::{Edge, EdgeMultiset};
use cyclecover_ring::{Ring, Tile};
use cyclecover_solver::api::{engine_by_name, Optimality, Problem, SolveRequest, SymmetryMode};
use cyclecover_solver::bnb::CoverSpec;
use cyclecover_solver::lower_bound::rho_formula;
use cyclecover_solver::TileUniverse;
use proptest::prelude::*;

const MAX_NODES: u64 = 200_000_000;

/// Asserts the chosen tiles satisfy the spec's demands.
fn assert_meets_spec(n: u32, tiles: &[Tile], spec: &CoverSpec) {
    let ring = Ring::new(n);
    let mut cov = EdgeMultiset::new(n as usize);
    for t in tiles {
        for c in t.chords(ring) {
            cov.insert(c.to_edge());
        }
    }
    for (d, &need) in spec.demand.iter().enumerate() {
        let e = Edge::from_dense_index(d, n as usize);
        assert!(
            cov.count(e) >= need,
            "request {e} covered {} < demand {need}",
            cov.count(e)
        );
    }
}

/// Optimum through one engine by probing every budget from 0 upward —
/// deliberately NOT `FindOptimal`, whose deepening starts at the lower
/// bound the engines share. Probing from 0 keeps this suite independent
/// of the bound: if the bound ever overshot the true optimum, these
/// probes would find the smaller covering `FindOptimal` misses.
fn optimum_via(engine: &str, problem: &Problem) -> (u32, Vec<Tile>) {
    let engine = engine_by_name(engine).expect("registered engine");
    for budget in 0..=64u32 {
        let sol = engine.solve(
            problem,
            &SolveRequest::within_budget(budget).with_max_nodes(MAX_NODES),
        );
        match sol.optimality() {
            Optimality::Feasible => {
                let tiles = sol.covering().expect("feasible carries covering").to_vec();
                return (budget, tiles);
            }
            Optimality::Infeasible => continue,
            other => panic!("inconclusive at budget {budget}: {other:?}"),
        }
    }
    panic!("no covering within 64 tiles — universe too restricted?");
}

/// The oracle's optimum and covering, as tiles.
fn oracle_optimum(problem: &Problem) -> (u32, Vec<Tile>) {
    let u = problem.universe();
    let (opt, idx) = oracle::optimum(u, problem.spec(), 64);
    (opt, idx.iter().map(|&i| u.tile(i).clone()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Complete specs: identical optimum and valid witnesses from the
    /// engine and the oracle, across full (`max_len = n`) and C3/C4
    /// universes.
    #[test]
    fn complete_spec_kernels_agree(n in 5u32..=9, full in any::<bool>()) {
        let ring = Ring::new(n);
        let max_len = if full { n as usize } else { 4 };
        let make = || Problem::new(TileUniverse::new(ring, max_len), CoverSpec::complete(n));
        let problem = make();
        let (fast_opt, fast_tiles) = optimum_via("bitset", &problem);
        let (slow_opt, slow_tiles) = oracle_optimum(&problem);
        prop_assert_eq!(fast_opt, slow_opt, "n={} max_len={}", n, max_len);
        assert_meets_spec(n, &fast_tiles, problem.spec());
        assert_meets_spec(n, &slow_tiles, problem.spec());
    }

    /// Random subset specs: same optimum from the engine and the oracle,
    /// and the bitset witness covers the demanded requests.
    #[test]
    fn subset_spec_kernels_agree(
        n in 5u32..=9,
        picks in proptest::collection::vec((0u32..1000, 0u32..1000), 1..10),
    ) {
        let ring = Ring::new(n);
        let requests: Vec<Edge> = picks
            .iter()
            .filter_map(|&(a, b)| {
                let (a, b) = (a % n, b % n);
                (a != b).then(|| Edge::new(a, b))
            })
            .collect();
        prop_assume!(!requests.is_empty());
        let spec = CoverSpec::subset(n, &requests);
        let problem = Problem::new(TileUniverse::new(ring, 4), spec);
        let (fast_opt, fast_tiles) = optimum_via("bitset", &problem);
        let (slow_opt, _) = oracle_optimum(&problem);
        prop_assert_eq!(fast_opt, slow_opt, "n={} requests={:?}", n, requests);
        assert_meets_spec(n, &fast_tiles, problem.spec());
    }

    /// Memo soundness: with the memo on (and canonical keying under
    /// `Full`), a search may only get *faster* — it must never report
    /// `Infeasible` on a budget the memo-free search satisfies, and the
    /// optimum must match exactly.
    #[test]
    fn memo_never_flips_a_verdict(
        n in 5u32..=9,
        picks in proptest::collection::vec((0u32..1000, 0u32..1000), 1..12),
        sym_kind in 0u8..3,
    ) {
        let ring = Ring::new(n);
        let requests: Vec<Edge> = picks
            .iter()
            .filter_map(|&(a, b)| {
                let (a, b) = (a % n, b % n);
                (a != b).then(|| Edge::new(a, b))
            })
            .collect();
        prop_assume!(!requests.is_empty());
        let sym = match sym_kind {
            0 => SymmetryMode::Off,
            1 => SymmetryMode::Root,
            _ => SymmetryMode::Full,
        };
        let spec = CoverSpec::subset(n, &requests);
        let problem = Problem::new(TileUniverse::new(ring, n as usize), spec);
        let engine = engine_by_name("bitset").unwrap();
        let (opt, tiles) = optimum_via("bitset", &problem);
        assert_meets_spec(n, &tiles, problem.spec());
        for budget in [opt.saturating_sub(1), opt] {
            let plain = engine.solve(
                &problem,
                &SolveRequest::within_budget(budget)
                    .with_symmetry(sym)
                    .with_memo(false)
                    .with_max_nodes(MAX_NODES),
            );
            let memoed = engine.solve(
                &problem,
                &SolveRequest::within_budget(budget)
                    .with_symmetry(sym)
                    .with_max_nodes(MAX_NODES),
            );
            prop_assert_eq!(
                matches!(plain.optimality(), Optimality::Feasible),
                matches!(memoed.optimality(), Optimality::Feasible),
                "memo flipped n={} budget={} {:?}: {:?} vs {:?}",
                n, budget, sym, plain.optimality(), memoed.optimality()
            );
            prop_assert!(
                memoed.stats().nodes <= plain.stats().nodes,
                "memo expanded MORE nodes: n={} budget={} {:?}", n, budget, sym
            );
            if let Some(found) = memoed.covering() {
                assert_meets_spec(n, found, problem.spec());
            }
        }
    }

    /// λ-fold specs route through the lane cores (2-bit lanes for λ ≤ 3,
    /// 4-bit lanes beyond) and must produce coverings meeting every
    /// multiplicity (the dispatch seam itself).
    #[test]
    fn lambda_specs_still_solved(n in 5u32..=7, lambda in 2u32..=5) {
        let ring = Ring::new(n);
        let spec = CoverSpec::lambda_fold(n, lambda);
        prop_assert!(!spec.is_unit());
        let problem = Problem::new(TileUniverse::new(ring, 4), spec);
        let (opt, tiles) = optimum_via("bitset", &problem);
        assert_meets_spec(n, &tiles, problem.spec());
        prop_assert!(opt as u64 >= problem.spec().capacity_lower_bound(ring));
    }
}

/// The 30 random subset specs (n = 5..=10, C3/C4 universe) the property
/// test of this name drew at 32 cases (two drew no request), with the
/// counts the unit core reported memo-off at each symmetry mode and at
/// `opt − 1`, `opt` and `opt + 1` — the counts of the recursive search it
/// replaced, which it matched node for node. One line per spec and mode:
/// `n requests mode`, then `budget:verdict/nodes/pruned/dominated/
/// sym_pruned` per budget (`F` feasible, `I` infeasible).
const RECURSIVE_REFERENCE_COUNTS: &str = "\
5 0-2,1-2,1-3,3-4 off 1:I/1/1/0/0 2:F/2/0/5/0 3:F/2/0/5/0
5 0-2,1-2,1-3,3-4 root 1:I/1/1/0/0 2:F/2/0/5/0 3:F/2/0/5/0
5 0-2,1-2,1-3,3-4 full 1:I/1/1/0/0 2:F/2/0/5/0 3:F/2/0/5/0
5 0-1,0-2,1-3,1-4,2-4,3-4 off 2:I/4/3/1/0 3:F/3/0/8/0 4:F/3/0/8/0
5 0-1,0-2,1-3,1-4,2-4,3-4 root 2:I/1/1/0/0 3:F/3/0/8/0 4:F/3/0/8/0
5 0-1,0-2,1-3,1-4,2-4,3-4 full 2:I/1/1/0/0 3:F/3/0/8/0 4:F/3/0/8/0
6 4-5 off 0:I/1/1/0/0 1:F/1/0/9/0 2:F/1/0/9/0
6 4-5 root 0:I/1/1/0/0 1:F/1/0/9/0 2:F/1/0/9/0
6 4-5 full 0:I/1/1/0/0 1:F/1/0/9/0 2:F/1/0/9/0
8 0-5,1-4,2-4,2-7,3-7,4-6 off 2:I/1/1/0/0 3:F/3/0/36/0 4:F/3/0/36/0
8 0-5,1-4,2-4,2-7,3-7,4-6 root 2:I/1/1/0/0 3:F/3/0/36/0 4:F/3/0/36/0
8 0-5,1-4,2-4,2-7,3-7,4-6 full 2:I/1/1/0/0 3:F/3/0/36/0 4:F/3/0/36/0
7 0-1,0-2,0-5,2-3,2-4,2-6,3-5,3-6,5-6 off 2:I/1/1/0/0 3:F/6/2/30/0 4:F/4/0/34/0
7 0-1,0-2,0-5,2-3,2-4,2-6,3-5,3-6,5-6 root 2:I/1/1/0/0 3:F/6/2/30/0 4:F/4/0/34/0
7 0-1,0-2,0-5,2-3,2-4,2-6,3-5,3-6,5-6 full 2:I/1/1/0/0 3:F/6/2/30/0 4:F/4/0/34/0
5 0-2,0-3,1-2,1-3,2-3,3-4 off 2:I/8/5/5/0 3:F/3/0/8/0 4:F/3/0/8/0
5 0-2,0-3,1-2,1-3,2-3,3-4 root 2:I/6/4/3/0 3:F/3/0/8/0 4:F/3/0/8/0
5 0-2,0-3,1-2,1-3,2-3,3-4 full 2:I/6/4/3/0 3:F/3/0/8/0 4:F/3/0/8/0
7 0-4,0-5,2-6,3-5,4-5,5-6 off 1:I/1/1/0/0 2:F/2/0/15/0 3:F/2/0/15/0
7 0-4,0-5,2-6,3-5,4-5,5-6 root 1:I/1/1/0/0 2:F/2/0/15/0 3:F/2/0/15/0
7 0-4,0-5,2-6,3-5,4-5,5-6 full 1:I/1/1/0/0 2:F/2/0/15/0 3:F/2/0/15/0
8 0-1,0-7,2-3,3-5,3-6,5-7,6-7 off 2:I/9/6/37/0 3:F/3/0/43/0 4:F/3/0/43/0
8 0-1,0-7,2-3,3-5,3-6,5-7,6-7 root 2:I/9/6/37/0 3:F/3/0/43/0 4:F/3/0/43/0
8 0-1,0-7,2-3,3-5,3-6,5-7,6-7 full 2:I/9/6/37/0 3:F/3/0/43/0 4:F/3/0/43/0
8 0-3,0-6,1-4,1-6,3-6,4-7 off 2:I/1/1/0/0 3:F/3/0/34/0 4:F/3/0/34/0
8 0-3,0-6,1-4,1-6,3-6,4-7 root 2:I/1/1/0/0 3:F/3/0/34/0 4:F/3/0/34/0
8 0-3,0-6,1-4,1-6,3-6,4-7 full 2:I/1/1/0/0 3:F/3/0/34/0 4:F/3/0/34/0
9 0-6,1-2,1-4,1-6,2-4,5-8 off 2:I/9/5/62/0 3:F/3/0/47/0 4:F/3/0/47/0
9 0-6,1-2,1-4,1-6,2-4,5-8 root 2:I/4/3/13/0 3:F/3/0/47/0 4:F/3/0/47/0
9 0-6,1-2,1-4,1-6,2-4,5-8 full 2:I/4/3/13/0 3:F/3/0/47/0 4:F/3/0/47/0
5 0-1,1-2,1-3,1-4,2-3 off 1:I/1/1/0/0 2:F/2/0/4/0 3:F/2/0/4/0
5 0-1,1-2,1-3,1-4,2-3 root 1:I/1/1/0/0 2:F/2/0/4/0 3:F/2/0/4/0
5 0-1,1-2,1-3,1-4,2-3 full 1:I/1/1/0/0 2:F/2/0/4/0 3:F/2/0/4/0
10 0-3,0-7,0-8,2-6,2-7,3-4,3-5,3-9,4-9 off 3:I/8/6/33/0 4:F/4/0/83/0 5:F/4/0/83/0
10 0-3,0-7,0-8,2-6,2-7,3-4,3-5,3-9,4-9 root 3:I/1/1/0/0 4:F/4/0/83/0 5:F/4/0/83/0
10 0-3,0-7,0-8,2-6,2-7,3-4,3-5,3-9,4-9 full 3:I/1/1/0/0 4:F/4/0/83/0 5:F/4/0/83/0
8 1-5 off 0:I/1/1/0/0 1:F/1/0/11/0 2:F/1/0/11/0
8 1-5 root 0:I/1/1/0/0 1:F/1/0/11/0 2:F/1/0/11/0
8 1-5 full 0:I/1/1/0/0 1:F/1/0/11/0 2:F/1/0/11/0
9 0-2,0-3,1-5,1-7,4-7 off 2:I/4/2/31/0 3:F/3/0/52/0 4:F/3/0/52/0
9 0-2,0-3,1-5,1-7,4-7 root 2:I/2/1/15/0 3:F/3/0/52/0 4:F/3/0/52/0
9 0-2,0-3,1-5,1-7,4-7 full 2:I/2/1/15/0 3:F/3/0/52/0 4:F/3/0/52/0
6 0-3,0-5,1-2,1-4,2-3,3-5,4-5 off 2:I/6/4/7/0 3:F/3/0/16/0 4:F/3/0/16/0
6 0-3,0-5,1-2,1-4,2-3,3-5,4-5 root 2:I/1/1/0/0 3:F/3/0/16/0 4:F/3/0/16/0
6 0-3,0-5,1-2,1-4,2-3,3-5,4-5 full 2:I/1/1/0/0 3:F/3/0/16/0 4:F/3/0/16/0
8 0-2,1-2,1-6,2-7,4-7 off 2:I/4/2/23/0 3:F/3/0/38/0 4:F/3/0/38/0
8 0-2,1-2,1-6,2-7,4-7 root 2:I/2/1/12/0 3:F/3/0/38/0 4:F/3/0/38/0
8 0-2,1-2,1-6,2-7,4-7 full 2:I/2/1/12/0 3:F/3/0/38/0 4:F/3/0/38/0
5 0-3,1-4,3-4 off 1:I/2/1/3/0 2:F/2/0/6/0 3:F/2/0/6/0
5 0-3,1-4,3-4 root 1:I/1/1/0/0 2:F/2/0/6/0 3:F/2/0/6/0
5 0-3,1-4,3-4 full 1:I/1/1/0/0 2:F/2/0/6/0 3:F/2/0/6/0
7 0-1,0-3,0-6,1-3,1-4,2-3 off 2:I/8/5/20/0 3:F/3/0/27/0 4:F/3/0/27/0
7 0-1,0-3,0-6,1-3,1-4,2-3 root 2:I/4/3/6/0 3:F/3/0/27/0 4:F/3/0/27/0
7 0-1,0-3,0-6,1-3,1-4,2-3 full 2:I/4/3/6/0 3:F/3/0/27/0 4:F/3/0/27/0
9 1-8,3-4,4-8,5-6 off 1:I/3/2/14/0 2:F/2/0/41/0 3:F/2/0/41/0
9 1-8,3-4,4-8,5-6 root 1:I/1/1/0/0 2:F/2/0/41/0 3:F/2/0/41/0
9 1-8,3-4,4-8,5-6 full 1:I/1/1/0/0 2:F/2/0/41/0 3:F/2/0/41/0
5 0-1,0-3,1-3,2-3,2-4 off 1:I/1/1/0/0 2:F/2/0/5/0 3:F/2/0/5/0
5 0-1,0-3,1-3,2-3,2-4 root 1:I/1/1/0/0 2:F/2/0/5/0 3:F/2/0/5/0
5 0-1,0-3,1-3,2-3,2-4 full 1:I/1/1/0/0 2:F/2/0/5/0 3:F/2/0/5/0
10 0-4,1-4,3-6,4-5,4-9,6-8,7-9 off 2:I/5/4/16/0 3:F/3/0/58/0 4:F/3/0/58/0
10 0-4,1-4,3-6,4-5,4-9,6-8,7-9 root 2:I/1/1/0/0 3:F/3/0/58/0 4:F/3/0/58/0
10 0-4,1-4,3-6,4-5,4-9,6-8,7-9 full 2:I/1/1/0/0 3:F/3/0/58/0 4:F/3/0/58/0
5 2-3 off 0:I/1/1/0/0 1:F/1/0/5/0 2:F/1/0/5/0
5 2-3 root 0:I/1/1/0/0 1:F/1/0/5/0 2:F/1/0/5/0
5 2-3 full 0:I/1/1/0/0 1:F/1/0/5/0 2:F/1/0/5/0
5 0-1,0-2,0-4,2-3 off 1:I/1/1/0/0 2:F/2/0/7/0 3:F/2/0/7/0
5 0-1,0-2,0-4,2-3 root 1:I/1/1/0/0 2:F/2/0/7/0 3:F/2/0/7/0
5 0-1,0-2,0-4,2-3 full 1:I/1/1/0/0 2:F/2/0/7/0 3:F/2/0/7/0
6 1-4 off 0:I/1/1/0/0 1:F/1/0/5/0 2:F/1/0/5/0
6 1-4 root 0:I/1/1/0/0 1:F/1/0/5/0 2:F/1/0/5/0
6 1-4 full 0:I/1/1/0/0 1:F/1/0/5/0 2:F/1/0/5/0
10 0-5,1-4,3-5,5-6,6-8 off 1:I/1/1/0/0 2:F/4/1/68/0 3:F/3/0/68/0
10 0-5,1-4,3-5,5-6,6-8 root 1:I/1/1/0/0 2:F/4/1/68/0 3:F/3/0/68/0
10 0-5,1-4,3-5,5-6,6-8 full 1:I/1/1/0/0 2:F/4/1/68/0 3:F/3/0/68/0
8 2-3,2-6,2-7,3-5,4-6 off 1:I/1/1/0/0 2:F/2/0/21/0 3:F/2/0/21/0
8 2-3,2-6,2-7,3-5,4-6 root 1:I/1/1/0/0 2:F/2/0/21/0 3:F/2/0/21/0
8 2-3,2-6,2-7,3-5,4-6 full 1:I/1/1/0/0 2:F/2/0/21/0 3:F/2/0/21/0
9 4-5 off 0:I/1/1/0/0 1:F/1/0/27/0 2:F/1/0/27/0
9 4-5 root 0:I/1/1/0/0 1:F/1/0/27/0 2:F/1/0/27/0
9 4-5 full 0:I/1/1/0/0 1:F/1/0/27/0 2:F/1/0/27/0
7 0-1,0-2,0-3,1-5,1-6,2-4,2-6,3-6 off 3:I/10/7/18/0 4:F/4/0/28/0 5:F/4/0/28/0
7 0-1,0-2,0-3,1-5,1-6,2-4,2-6,3-6 root 3:I/1/1/0/0 4:F/4/0/28/0 5:F/4/0/28/0
7 0-1,0-2,0-3,1-5,1-6,2-4,2-6,3-6 full 3:I/1/1/0/0 4:F/4/0/28/0 5:F/4/0/28/0
6 0-1,0-3,1-2,1-4,4-5 off 1:I/1/1/0/0 2:F/2/0/9/0 3:F/2/0/9/0
6 0-1,0-3,1-2,1-4,4-5 root 1:I/1/1/0/0 2:F/2/0/9/0 3:F/2/0/9/0
6 0-1,0-3,1-2,1-4,4-5 full 1:I/1/1/0/0 2:F/2/0/9/0 3:F/2/0/9/0
9 0-7,1-6,2-8,3-6,3-7,4-8,7-8 off 3:I/15/7/114/0 4:F/4/0/63/0 5:F/4/0/63/0
9 0-7,1-6,2-8,3-6,3-7,4-8,7-8 root 3:I/13/7/84/0 4:F/4/0/63/0 5:F/4/0/63/0
9 0-7,1-6,2-8,3-6,3-7,4-8,7-8 full 3:I/13/7/84/0 4:F/4/0/63/0 5:F/4/0/63/0
";

/// The unit core (engine path, memo off) reproduces every recorded row:
/// verdict, nodes, bound prunes, dominance drops and orbit prunes, and
/// no canonical prunes.
#[test]
fn iterative_core_matches_recursive_reference() {
    let engine = engine_by_name("bitset").unwrap();
    let mut rows = 0;
    for line in RECURSIVE_REFERENCE_COUNTS.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [n, requests, mode, probes @ ..] = fields.as_slice() else {
            panic!("malformed row {line:?}");
        };
        let n: u32 = n.parse().unwrap();
        let requests: Vec<Edge> = requests
            .split(',')
            .map(|pair| {
                let (a, b) = pair.split_once('-').unwrap();
                Edge::new(a.parse().unwrap(), b.parse().unwrap())
            })
            .collect();
        let sym = match *mode {
            "off" => SymmetryMode::Off,
            "root" => SymmetryMode::Root,
            _ => SymmetryMode::Full,
        };
        let problem = Problem::new(
            TileUniverse::new(Ring::new(n), 4),
            CoverSpec::subset(n, &requests),
        );
        for probe in probes {
            let (budget, counts) = probe.split_once(':').unwrap();
            let sol = engine.solve(
                &problem,
                &SolveRequest::within_budget(budget.parse().unwrap())
                    .with_symmetry(sym)
                    .with_memo(false)
                    .with_max_nodes(MAX_NODES),
            );
            let s = sol.stats();
            let verdict = match sol.optimality() {
                Optimality::Feasible => "F",
                Optimality::Infeasible => "I",
                other => panic!("{line}: inconclusive at {budget}: {other:?}"),
            };
            let got = format!(
                "{verdict}/{}/{}/{}/{}",
                s.nodes, s.pruned, s.dominated, s.sym_pruned
            );
            assert_eq!(
                got, counts,
                "n = {n}, {requests:?}, {mode}, budget {budget}"
            );
            assert_eq!(s.canon_pruned, 0, "{line}");
            rows += 1;
        }
    }
    assert_eq!(rows, 270);
}

/// The engine and the oracle reach the same verdict on the complete
/// spec at every budget around the optimum, symmetry and memo off, and
/// every engine witness is a covering.
#[test]
fn bitset_and_legacy_verdicts_agree() {
    let engine = engine_by_name("bitset").unwrap();
    for n in [5u32, 6, 7, 8] {
        let problem = Problem::complete(n);
        let rho = rho_formula(n) as u32;
        for budget in [rho - 1, rho, rho + 1] {
            let fast = engine.solve(
                &problem,
                &SolveRequest::within_budget(budget)
                    .with_symmetry(SymmetryMode::Off)
                    .with_memo(false),
            );
            let slow = oracle::covering_within(problem.universe(), problem.spec(), budget);
            let ctx = format!("n={n} budget={budget}");
            match fast.optimality() {
                Optimality::Feasible => {
                    assert!(slow.is_some(), "{ctx}");
                    assert_meets_spec(n, fast.covering().unwrap(), problem.spec());
                }
                Optimality::Infeasible => assert!(slow.is_none(), "{ctx}"),
                other => panic!("{ctx}: {other:?}"),
            }
        }
    }
}
