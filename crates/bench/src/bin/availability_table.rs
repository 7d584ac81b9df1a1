//! E14 — availability: what the covering-based protection buys.
//!
//! The paper's survivability motivation, priced in "nines": steady-state
//! per-demand unavailability with and without cycle protection, exact to
//! second order in the per-link unavailability (the truncation residual
//! column bounds the ignored mass).

use cyclecover_bench::{header, row};
use cyclecover_core::construct_optimal;
use cyclecover_net::{availability_comparison, LinkModel, WdmNetwork};

fn main() {
    println!("E14 — demand availability on C_n (typical fiber: MTBF 4 months, MTTR 12 h)");
    println!();
    let widths = [5, 12, 9, 12, 9, 8, 10];
    header(
        &[
            "n",
            "unprot",
            "nines",
            "protected",
            "nines",
            "gain",
            "residual",
        ],
        &widths,
    );
    for n in [6u32, 8, 10, 13, 16, 20, 24, 32] {
        let net = WdmNetwork::from_covering(&construct_optimal(n));
        let cmp = availability_comparison(&net, LinkModel::typical_fiber());
        assert!(cmp.protected.mean_unavailability < cmp.unprotected.mean_unavailability);
        println!(
            "{}",
            row(
                &[
                    n.to_string(),
                    format!("{:.2e}", cmp.unprotected.mean_unavailability),
                    format!("{:.2}", cmp.unprotected.nines()),
                    format!("{:.2e}", cmp.protected.mean_unavailability),
                    format!("{:.2}", cmp.protected.nines()),
                    format!("{:.0}x", cmp.improvement),
                    format!("{:.1e}", cmp.truncation_residual),
                ],
                &widths
            )
        );
    }
    println!();
    println!("unprot = shortest-arc routing, no spare; protected = covering cycles");
    println!("(immune to all single failures; dies only on working+protection pairs).");
    println!("residual = ignored >=3-simultaneous-failure mass (upper bound).");
}
