//! # cyclecover-graph
//!
//! Minimal, allocation-conscious undirected multigraph substrate for the
//! `cyclecover` workspace (a reproduction of Bermond, Coudert, Chacon &
//! Tillerot, *A Note on Cycle Covering*, SPAA 2001).
//!
//! The paper models an optical network as an undirected graph: vertices are
//! optical switches, edges are fiber links. The logical (traffic) graph is a
//! second graph on the same vertex set. This crate provides exactly the graph
//! machinery the rest of the workspace needs:
//!
//! * [`Graph`] — an undirected multigraph over dense `u32` vertex ids with
//!   flat adjacency storage (index-based, cache-friendly, per the HPC guides).
//! * [`Edge`] — a normalized unordered vertex pair.
//! * [`EdgeMultiset`] — a multiset of edges over a fixed vertex count, the
//!   workhorse for covering bookkeeping (how often is each request covered?).
//! * Builders for the graph families the paper uses: complete graphs `K_n`
//!   ([`builders::complete`]), rings `C_n` ([`builders::cycle`]), circulants,
//!   paths, and `λK_n` multigraphs.
//! * [`CycleSubgraph`] — an ordered simple cycle on a subset of vertices (the
//!   `I_k` subnetworks of the paper).
//! * Traversal utilities: connectivity, components, BFS distance, and
//!   Euler circuits ([`euler`]).
//! * Edge connectivity and bridges ([`connectivity`]) over unit-capacity
//!   max flow ([`flow`]); no crate outside this one calls them.
//!
//! Nothing here knows about rings-as-embeddings or the DRC; that lives in
//! `cyclecover-ring`.
//!
//! ```
//! use cyclecover_graph::{builders, CycleSubgraph, is_connected};
//!
//! let kn = builders::complete(7);            // the all-to-all instance
//! assert_eq!(kn.edge_count(), 21);
//! assert!(is_connected(&kn));
//!
//! let ring = builders::cycle(7);             // the physical topology
//! assert!(ring.all_degrees_even());
//!
//! let subnet = CycleSubgraph::new(vec![0, 2, 5]);   // one I_k
//! assert_eq!(subnet.edges().count(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod connectivity;
mod cycle;
mod edge;
pub mod euler;
pub mod flow;
mod graph;
mod traversal;

pub use cycle::CycleSubgraph;
pub use edge::{Edge, EdgeMultiset};
pub use graph::Graph;
pub use traversal::{bfs_distances, connected_components, is_connected};

/// Dense vertex identifier. Vertices of an `n`-vertex graph are `0..n`.
pub type Vertex = u32;
