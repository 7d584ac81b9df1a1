//! End-to-end WDM ring design: the workflow the paper's introduction
//! describes — route the all-to-all demand set, divide the network into
//! independently-protected subnetworks, assign wavelength pairs, account
//! for ADMs and cost, then survive a fiber cut.
//!
//! ```sh
//! cargo run --example wdm_network_design
//! ```

use cyclecover::core::construct_optimal;
use cyclecover::net::{audit_all_failures, CostModel, WdmNetwork};

fn main() {
    // A 16-node metro ring (n ≡ 0 mod 8 exercises the solver-assisted path).
    let n = 16;
    let covering = construct_optimal(n);
    println!(
        "covering K_{n} with {} cycles (status: see construct_with_status)",
        covering.len()
    );

    // Each covering cycle becomes a subnetwork with a wavelength pair.
    let net = WdmNetwork::from_covering(&covering);
    println!("subnetworks : {}", net.subnetworks().len());
    println!(
        "wavelengths : {} (working + spare per subnetwork)",
        net.wavelength_count()
    );
    println!("ADMs        : {}", net.total_adms());

    // The paper's §2 cost discussion, quantified.
    for (name, model) in [
        (
            "paper (min cycles)",
            CostModel::subnetwork_count_objective(),
        ),
        ("refs [3,4] (min ADMs)", CostModel::adm_objective()),
        ("blended", CostModel::blended()),
    ] {
        println!("cost[{name}] = {:.1}", model.evaluate(&net));
    }

    // Cut one fiber and watch the automatic protection switching.
    let failed = 5;
    let report = net.fail_link(failed);
    println!(
        "\nfiber cut on link {failed}: {} demands rerouted",
        report.reroutes.len()
    );
    for r in report.reroutes.iter().take(5) {
        println!(
            "  subnet {:2}: demand {:?} moved to spare wavelength, {} -> {} links (stretch {:.1})",
            r.subnet,
            r.demand,
            r.working.len(),
            r.protection.len(),
            r.stretch()
        );
    }
    println!("  …");
    assert!(report.all_restored);

    // The paper's survivability claim, audited over every possible cut.
    let audit = audit_all_failures(&net);
    println!(
        "\nfull audit: {} reroutes across {} failure scenarios — all restored: {}",
        audit.total_reroutes, n, audit.fully_survivable
    );
}
