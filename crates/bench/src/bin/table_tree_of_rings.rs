//! E10 — trees of rings: hierarchical per-ring coverings.
//!
//! For chains and stars of rings: the number of segment-requests the
//! all-to-all instance induces, the per-ring covering size, the
//! generalized lower bound, validation, and the exhaustive link-failure
//! audit. Demonstrates the paper's "independent sub-networks"
//! philosophy composing across a hierarchy.

use cyclecover_bench::{header, row};
use cyclecover_graph::builders;
use cyclecover_topo::{cover, protect, TreeOfRings};

fn main() {
    println!("E10 — per-ring DRC coverings on trees of rings (all-to-all instance)");
    println!();
    let widths = [16, 6, 6, 9, 8, 7, 7, 7];
    header(
        &[
            "topology", "nodes", "links", "segments", "cycles", "LB", "valid", "surv",
        ],
        &widths,
    );
    let mut all_ok = true;
    let cases: Vec<(String, TreeOfRings)> = vec![
        ("chain 2x5".into(), TreeOfRings::chain(2, 5)),
        ("chain 3x5".into(), TreeOfRings::chain(3, 5)),
        ("chain 4x4".into(), TreeOfRings::chain(4, 4)),
        ("chain 5x6".into(), TreeOfRings::chain(5, 6)),
        ("star 6+3x4".into(), TreeOfRings::star(6, 3, 4)),
        ("star 8+4x5".into(), TreeOfRings::star(8, 4, 5)),
        ("star 10+5x4".into(), TreeOfRings::star(10, 5, 4)),
    ];
    for (name, t) in cases {
        let inst = builders::complete(t.vertex_count());
        let covering = t.cover(&inst, 4);
        let seg = t.segment_instance(&inst);
        let valid = covering.validate(t.graph(), &seg).is_ok();
        let audit = protect::audit_link_failures(t.graph(), &covering);
        all_ok &= valid && audit.fully_survivable;
        println!(
            "{}",
            row(
                &[
                    name,
                    t.vertex_count().to_string(),
                    t.graph().edge_count().to_string(),
                    seg.edge_count().to_string(),
                    covering.len().to_string(),
                    cover::lower_bound(t.graph(), &seg).to_string(),
                    valid.to_string(),
                    audit.fully_survivable.to_string(),
                ],
                &widths
            )
        );
    }
    println!();
    println!("all checks passed: {all_ok}");
    assert!(all_ok);
}
