//! # cyclecover-net
//!
//! The WDM optical-network substrate the paper's combinatorics serve: a
//! simulator of a survivable ring network built from a DRC cycle covering.
//!
//! ## Model (paper §1)
//!
//! The physical layer is the ring `C_n` (switches + fiber links). A
//! covering cycle `I_k` becomes a [`Subnetwork`]: it gets a *wavelength
//! pair* — one wavelength for working traffic, one for spare — and an ADM
//! (Add-Drop Multiplexer) at each of its vertices. Working traffic is
//! routed on the cycle's tiling arcs; because the arcs of a winding tile
//! partition the ring, **each ring edge carries exactly one working demand
//! per subnetwork**, i.e. half the capacity of the pair, matching the
//! paper's "on the cycle we use half of the capacity for the demands".
//!
//! ## Protection (paper §1 and ref \[9\])
//!
//! On a single link failure, each subnetwork reroutes its (unique)
//! affected demand "through the remaining part of the cycle using the
//! other half of the capacity": the complement arc on the spare
//! wavelength. [`WdmNetwork::fail_link`] simulates this and
//! [`audit_all_failures`] verifies the claim exhaustively —
//! every demand restored, protection path avoiding the failed link, spare
//! capacity never exceeded.
//!
//! ## Cost model (paper §2)
//!
//! "The cost is a very complex function depending on the size of the ADM
//! in each node, the number of wavelengths … and a cost of regeneration
//! and amplification." [`CostModel`] exposes those three knobs; on a ring
//! minimizing cost at fixed weights reduces to minimizing the number of
//! subnetworks — the paper's objective — while refs \[3,4\] minimize total
//! ADM count instead. [`report::design_report`] prices a covering under
//! both.
//!
//! ```
//! use cyclecover_core::construct_optimal;
//! use cyclecover_net::{audit_all_failures, WdmNetwork};
//!
//! let net = WdmNetwork::from_covering(&construct_optimal(9));
//! assert_eq!(net.wavelength_count(), 20);         // 10 cycles x (work + spare)
//! assert!(audit_all_failures(&net).fully_survivable);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
mod cost;
pub mod dynamics;
mod failure;
mod network;
pub mod report;
pub mod restoration;
pub mod wavelength;

pub use availability::{availability_comparison, AvailabilityComparison, LinkModel};
pub use cost::CostModel;
pub use failure::{
    audit_all_failures, audit_all_node_failures, FailureReport, NodeFailureReport, Reroute,
    SurvivabilityAudit,
};
pub use network::{Subnetwork, WdmNetwork};
pub use restoration::{compare_schemes, RestorationNetwork, SchemeComparison};
