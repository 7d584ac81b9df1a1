//! Validate the closed-form residual family for n ≡ 2 (mod 4) and probe
//! the n ≡ 0 (mod 8) structure via the exact solver.

use cyclecover_core::{construct_optimal, rho};
use cyclecover_graph::Edge;
use cyclecover_ring::{Ring, Tile};

fn lift(tiles: &[Tile], big: Ring, parity: u32) -> Vec<Tile> {
    tiles
        .iter()
        .map(|t| Tile::from_vertices(big, t.vertices().iter().map(|&v| 2 * v + parity).collect()))
        .collect()
}

fn q_family_odd_p(big: Ring, p: u32) -> Vec<Tile> {
    let n = 2 * p;
    let mut tiles = Vec::new();
    let mut a = 3;
    while a <= p {
        let mut b = 1;
        while b <= p - 2 {
            let s = (2 * n - a - b) % n;
            tiles.push(Tile::from_gaps(big, s, &[a, p + 1 - a, b, p - 1 - b]));
            b += 2;
        }
        a += 2;
    }
    tiles
}

/// Closed-form residual tiles for p odd ≥ 5.
fn residual_family(big: Ring, p: u32) -> Vec<Tile> {
    let mut tiles = Vec::new();
    // R(1) = {1, 2, p, p+1}
    tiles.push(Tile::from_vertices(big, vec![1, 2, p, p + 1]));
    // H(u) = {u, u+1, p, p+u−2, p+u−1, p+u} for u odd in [3, p−2]
    let mut u = 3;
    while u <= p - 2 {
        tiles.push(Tile::from_vertices(
            big,
            vec![u, u + 1, p, p + u - 2, p + u - 1, p + u],
        ));
        u += 2;
    }
    // Z = {0, p, 2p−2, 2p−1}
    tiles.push(Tile::from_vertices(big, vec![0, p, 2 * p - 2, 2 * p - 1]));
    tiles
}

fn check_cover(big: Ring, tiles: &[Tile]) -> usize {
    let n = big.n() as usize;
    let mut cov = vec![false; n * (n - 1) / 2];
    for t in tiles {
        for c in t.chords(big) {
            cov[Edge::new(c.u(), c.v()).dense_index(n)] = true;
        }
    }
    cov.iter().filter(|&&b| !b).count()
}

fn main() {
    println!("== n ≡ 2 (mod 4): closed-form construction ==");
    for p in [5u32, 7, 9, 11, 13, 15, 21, 25, 31, 51, 75, 101] {
        let n = 2 * p;
        let big = Ring::new(n);
        let inner = construct_optimal(p);
        let mut tiles = lift(inner.tiles(), big, 0);
        tiles.extend(lift(inner.tiles(), big, 1));
        tiles.extend(q_family_odd_p(big, p));
        tiles.extend(residual_family(big, p));
        let missing = check_cover(big, &tiles);
        let target = rho(n) as usize;
        println!(
            "n={n:4}: tiles={:5} target={target:5} missing={missing} ok={}",
            tiles.len(),
            missing == 0 && tiles.len() == target
        );
    }

    println!("== n ≡ 0 (mod 8): inspect solver solutions ==");
    for n in [8u32] {
        use cyclecover_solver::api::{engine_by_name, Optimality, Problem, SolveRequest};
        let t0 = std::time::Instant::now();
        let sol = engine_by_name("bitset").expect("registered engine").solve(
            &Problem::complete(n),
            &SolveRequest::find_optimal().with_max_nodes(500_000_000),
        );
        if let (Optimality::Optimal { .. }, Some(tiles)) = (sol.optimality(), sol.covering()) {
            println!(
                "n={n}: optimal={} nodes={} [{:.1?}]",
                tiles.len(),
                sol.stats().nodes,
                t0.elapsed()
            );
            let ring = Ring::new(n);
            for t in tiles {
                let gaps = t.gaps(ring);
                let parities: Vec<&str> = gaps
                    .iter()
                    .map(|g| if g % 2 == 0 { "e" } else { "o" })
                    .collect();
                println!("  {:?} gaps={gaps:?} {}", t.vertices(), parities.join(""));
            }
        } else {
            println!("n={n}: node limit hit [{:.1?}]", t0.elapsed());
        }
    }
}
