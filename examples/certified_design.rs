//! Certificates in action: establish the full verification story for a
//! sweep of ring sizes and print the design report for one of them.
//!
//! ```sh
//! cargo run --release --example certified_design
//! ```

use cyclecover::core::Certificate;
use cyclecover::net::{report::design_report, WdmNetwork};

fn main() {
    println!("optimality certificates, one per construction class:");
    for n in [9u32, 10, 12, 8, 16, 24, 61, 62] {
        let cert = Certificate::establish(n);
        println!("  {}", cert.summary());
    }

    println!("\nfull design report for the n = 26 metro ring:");
    let cert = Certificate::establish(26);
    let net = WdmNetwork::from_covering(&cert.covering);
    print!("{}", design_report(&net));

    println!("\nunprotected-routing comparison (the paper's 'half capacity' premise):");
    let ring = cert.covering.ring();
    let premium = cyclecover::net::wavelength::protection_premium(ring, cert.covering.len());
    println!("  protected wavelengths / unprotected wavelengths = {premium:.2} (≈ 2 by design)");
}
