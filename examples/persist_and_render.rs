//! Persist a design, reload it, and render it — the operator loop.
//!
//! A covering is a deployable artifact: this example constructs one,
//! saves it in the v1 text format, re-loads it (parsing re-validates
//! every cycle against the DRC), diffs it against the original, and
//! renders it as a ring SVG into `target/`.
//!
//! ```sh
//! cargo run --example persist_and_render
//! ```

use cyclecover::core::construct_optimal;
use cyclecover::io::{format, svg};

fn main() {
    let out_dir = std::path::Path::new("target");
    std::fs::create_dir_all(out_dir).expect("target dir");

    // 1. Construct and persist.
    let cover = construct_optimal(11);
    let text = format::to_text(&cover);
    let file = out_dir.join("k11_covering.txt");
    std::fs::write(&file, &text).expect("write covering");
    println!("saved {} cycles to {}", cover.len(), file.display());

    // 2. Reload: the parser re-validates ranges, arities and the DRC.
    let loaded = format::from_text(&std::fs::read_to_string(&file).unwrap()).expect("parses");
    assert_eq!(loaded.len(), cover.len());
    assert!(loaded.validate().is_ok());
    assert_eq!(format::to_text(&loaded), text, "round trip is a fixpoint");
    println!("reloaded and re-validated: OK");

    // 3. Render the ring covering.
    let ring_svg = svg::render_covering(&loaded, &svg::SvgOptions::default());
    let ring_file = out_dir.join("k11_covering.svg");
    std::fs::write(&ring_file, ring_svg).expect("write svg");
    println!("rendered ring covering to {}", ring_file.display());
}
