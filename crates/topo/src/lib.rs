//! # cyclecover-topo
//!
//! Extension topologies for DRC cycle covering — the closing section of
//! *A Note on Cycle Covering* (Bermond, Coudert, Chacon & Tillerot, SPAA
//! 2001) announces: "We also consider other network topologies, for
//! example, trees of rings, grids or tori." This crate keeps the
//! trees-of-rings part of that investigation (grids and tori are not
//! built):
//!
//! * [`drc`] — the Disjoint Routing Constraint on *arbitrary* physical
//!   graphs: an exact bounded backtracking oracle for edge-disjoint
//!   routing of a cycle's requests, with verified-witness routings;
//! * [`cover`] — [`GraphCovering`]: coverings that carry their routings,
//!   a full validator, and the capacity/degree lower bounds generalized
//!   off the ring;
//! * [`tree_of_rings`] — [`TreeOfRings`]: hierarchical ring networks,
//!   request decomposition into per-ring segments, and per-ring covering
//!   via the general-instance machinery;
//! * [`protect`] — exhaustive single-link (and node) failure audits on
//!   any covering over any topology.
//!
//! ```
//! use cyclecover_graph::builders;
//! use cyclecover_topo::{protect, TreeOfRings};
//!
//! let tree = TreeOfRings::chain(3, 5);
//! let inst = builders::complete(tree.vertex_count());
//! let cover = tree.cover(&inst, 4);
//! assert!(cover.validate(tree.graph(), &tree.segment_instance(&inst)).is_ok());
//! assert!(protect::audit_link_failures(tree.graph(), &cover).fully_survivable);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cover;
pub mod drc;
pub mod protect;
pub mod tree_of_rings;

pub use cover::{GraphCoverError, GraphCoverStats, GraphCovering, RoutedCycle};
pub use drc::{CycleRouting, RouteOutcome, RoutedPath};
pub use tree_of_rings::{TreeOfRings, TreeOfRingsBuilder};
