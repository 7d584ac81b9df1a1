//! Facade crate — re-exports the full cyclecover workspace API.
//!
//! One `use cyclecover::…` per subsystem:
//!
//! * [`core`] — the paper's contribution: `ρ(n)`, optimal constructions,
//!   covering validation, λ-fold and general-instance extensions;
//! * [`ring`] — the physical ring model: arcs, chords, tiles, the DRC
//!   oracle, ring loading;
//! * [`graph`] — the multigraph substrate: builders, traversal, Euler
//!   circuits, max flow, connectivity;
//! * [`solver`] — exact covering solvers (DLX, branch & bound, greedy,
//!   local-search improvement) and lower bounds;
//! * [`design`] — classical covering designs (STS, packings, 4-cycle
//!   systems), the DRC-oblivious baselines;
//! * [`net`] — the WDM network simulator: wavelengths, ADMs, failures,
//!   protection vs restoration;
//! * [`workload`] — traffic-instance generators;
//! * [`io`] — persistence (text format), the JSON wire protocol, CSV
//!   tables, SVG rendering;
//! * [`service`] — the batching solve service: universe cache, EDF
//!   scheduling, request coalescing over the engine registry.

pub use cyclecover_core as core;
pub use cyclecover_design as design;
pub use cyclecover_graph as graph;
pub use cyclecover_io as io;
pub use cyclecover_net as net;
pub use cyclecover_ring as ring;
pub use cyclecover_service as service;
pub use cyclecover_solver as solver;
pub use cyclecover_workload as workload;
