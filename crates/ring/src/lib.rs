//! # cyclecover-ring
//!
//! The physical-ring model underlying *A Note on Cycle Covering* (Bermond,
//! Coudert, Chacon & Tillerot, SPAA 2001): modular arithmetic on `C_n`,
//! directed arcs, chords (requests embedded on the ring), winding tiles, and
//! the **Disjoint Routing Constraint (DRC)** machinery.
//!
//! ## Model
//!
//! The physical network is the undirected ring `C_n` with vertices `0..n` and
//! *ring edges* `e_i = {i, i+1 mod n}` (edge `e_i` is identified by its
//! counterclockwise endpoint `i`). A request between `u` and `v` must be
//! routed along one of the two arcs of the ring connecting them.
//!
//! A set of requests forming a cycle `I_k` satisfies the **DRC** iff there is
//! a choice of arcs, one per request, that are pairwise edge-disjoint. This
//! crate provides two independent implementations:
//!
//! * [`routing::route_cycle`] — an exhaustive backtracking *oracle* that
//!   searches all `2^k` arc assignments (ground truth, used for testing and
//!   for small instances);
//! * [`routing::winding_routing`] — the O(k) structural characterization
//!   (*winding lemma*, proved in the [`routing`] module docs): a cycle is
//!   DRC-routable iff its cyclic vertex order agrees with the ring's cyclic
//!   order (in one of the two directions), and then the consecutive arcs
//!   form the routing.
//!
//! The two are cross-validated by exhaustive tests for small `n` and by
//! property tests; all higher layers (constructions, solvers, the WDM
//! simulator) rely on the fast path and audit with the oracle.
//!
//! ## Key types
//!
//! * [`Ring`] — the cycle `C_n`, distance/normalization helpers.
//! * [`RingArc`] — a directed clockwise arc `(start, len)`.
//! * [`ArcOccupancy`] — an occupancy set over ring edges with O(1)
//!   place/remove, the hot data structure of every solver inner loop.
//! * [`Chord`] — a request `{u, v}` together with its two candidate arcs.
//! * [`Tile`] — a *winding tile*: a vertex subset whose consecutive arcs
//!   tile the ring exactly once; the canonical shape of every DRC-routable
//!   `C3`/`C4` used by the constructions.
//!
//! ```
//! use cyclecover_graph::CycleSubgraph;
//! use cyclecover_ring::{routing, Ring, Tile};
//!
//! let ring = Ring::new(8);
//! // Winding cycles route; crossing cycles don't (the paper's example).
//! assert!(routing::is_drc_routable(ring, &CycleSubgraph::new(vec![0, 2, 5, 7])));
//! assert!(!routing::is_drc_routable(ring, &CycleSubgraph::new(vec![0, 5, 2, 7])));
//!
//! // A tile's arcs partition the ring edges.
//! let tile = Tile::from_gaps(ring, 3, &[2, 3, 3]);
//! let total: u32 = tile.arcs(ring).iter().map(|a| a.len()).sum();
//! assert_eq!(total, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arc;
mod chord;
pub mod loading;
mod occupancy;
mod ring;
pub mod routing;
pub mod symmetry;
mod tile;

pub use arc::RingArc;
pub use chord::Chord;
pub use occupancy::ArcOccupancy;
pub use ring::Ring;
pub use tile::Tile;
