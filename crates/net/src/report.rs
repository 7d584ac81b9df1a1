//! Human-readable design reports (used by the `certified_design` example).

use crate::{audit_all_failures, CostModel, WdmNetwork};
use std::fmt::Write;

/// Renders a full design summary: topology, subnetworks, wavelengths,
/// ADMs, cost breakdown, survivability audit.
pub fn design_report(net: &WdmNetwork) -> String {
    let mut s = String::new();
    let n = net.ring().n();
    let _ = writeln!(s, "=== WDM ring design report ===");
    let _ = writeln!(
        s,
        "physical topology : C_{n} ({n} switches, {n} fiber links)"
    );
    let _ = writeln!(
        s,
        "logical instance  : K_{n} ({} requests)",
        n * (n - 1) / 2
    );
    let _ = writeln!(s, "subnetworks       : {}", net.subnetworks().len());
    let _ = writeln!(
        s,
        "wavelengths       : {} ({} working + spare pairs)",
        net.wavelength_count(),
        net.subnetworks().len()
    );
    let _ = writeln!(s, "total ADMs        : {}", net.total_adms());

    let mut by_len = std::collections::BTreeMap::new();
    for sub in net.subnetworks() {
        *by_len.entry(sub.tile.len()).or_insert(0usize) += 1;
    }
    let comp: Vec<String> = by_len.iter().map(|(k, v)| format!("{v}×C{k}")).collect();
    let _ = writeln!(s, "composition       : {}", comp.join(" + "));

    for (name, model) in [
        ("cycles", CostModel::subnetwork_count_objective()),
        ("ADMs", CostModel::adm_objective()),
        ("blended", CostModel::blended()),
    ] {
        let _ = writeln!(s, "cost[{name:7}]     : {:.1}", model.evaluate(net));
    }

    let audit = audit_all_failures(net);
    let _ = writeln!(
        s,
        "survivability     : {} ({} reroutes over {} failure scenarios, max stretch {:.1})",
        if audit.fully_survivable {
            "100%"
        } else {
            "FAILED"
        },
        audit.total_reroutes,
        n,
        audit.max_stretch
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclecover_core::construct_optimal;

    #[test]
    fn report_contains_key_lines() {
        let net = WdmNetwork::from_covering(&construct_optimal(10));
        let report = design_report(&net);
        assert!(report.contains("C_10"));
        assert!(report.contains("subnetworks       : 13"));
        assert!(report.contains("survivability     : 100%"));
        assert!(report.contains("composition"));
    }
}
