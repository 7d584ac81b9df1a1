//! E6 — survivability audit: the paper's protection claim, exercised.
//!
//! For each `n`, build the WDM network from the optimal covering, inject
//! all `n` single-link failures, and verify: every affected demand is
//! restored inside its own subnetwork using the spare wavelength, without
//! touching the failed link and without exceeding spare capacity.

use cyclecover_bench::{header, row};
use cyclecover_core::construct_optimal;
use cyclecover_net::{audit_all_failures, WdmNetwork};

fn main() {
    println!("E6 — single-link failure audit (all n failures x all subnetworks)");
    println!();
    let widths = [5, 8, 8, 10, 10, 12, 10];
    header(
        &[
            "n", "cycles", "ADMs", "failures", "reroutes", "restored", "stretch",
        ],
        &widths,
    );
    let mut all = true;
    for n in (4u32..=30).chain([40, 50, 60]) {
        let cover = construct_optimal(n);
        let net = WdmNetwork::from_covering(&cover);
        let audit = audit_all_failures(&net);
        all &= audit.fully_survivable;
        println!(
            "{}",
            row(
                &[
                    n.to_string(),
                    net.subnetworks().len().to_string(),
                    net.total_adms().to_string(),
                    n.to_string(),
                    audit.total_reroutes.to_string(),
                    if audit.fully_survivable {
                        "100%"
                    } else {
                        "FAIL"
                    }
                    .to_string(),
                    format!("{:.2}", audit.max_stretch),
                ],
                &widths,
            )
        );
    }
    println!();
    println!(
        "all single-link failures recovered inside their cycle: {}",
        if all {
            "yes — the paper's survivability scheme holds"
        } else {
            "NO"
        }
    );
    assert!(all);
}
