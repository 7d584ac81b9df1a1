//! SVG rendering of ring coverings (dependency-free).
//!
//! A covering is a visual object: `n` switches on a circle, each
//! covering cycle a closed polygon of chords. [`render_covering`] draws
//! exactly that — one `<polygon>` per cycle in a rotating palette, nodes
//! as labelled circles — producing a standalone SVG document usable in
//! docs, papers, and design reviews.

use cyclecover_core::DrcCovering;
use std::fmt::Write as _;

/// Rendering options.
#[derive(Clone, Debug)]
pub struct SvgOptions {
    /// Canvas side, in px.
    pub size: u32,
    /// Node circle radius, in px.
    pub node_radius: f64,
    /// Stroke width of cycle polygons.
    pub stroke_width: f64,
    /// Whether to label nodes with their index.
    pub labels: bool,
}

impl Default for SvgOptions {
    fn default() -> Self {
        SvgOptions {
            size: 480,
            node_radius: 9.0,
            stroke_width: 1.6,
            labels: true,
        }
    }
}

/// A qualitative 10-color palette (ColorBrewer-style), cycled.
const PALETTE: [&str; 10] = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf",
];

/// Position of vertex `v` of `n` on the canvas circle (vertex 0 at the
/// top, clockwise).
fn position(v: u32, n: u32, opts: &SvgOptions) -> (f64, f64) {
    let c = opts.size as f64 / 2.0;
    let r = c - opts.node_radius - 14.0;
    let theta = std::f64::consts::TAU * (v as f64) / (n as f64) - std::f64::consts::FRAC_PI_2;
    (c + r * theta.cos(), c + r * theta.sin())
}

/// Renders the covering as a standalone SVG document.
pub fn render_covering(cover: &DrcCovering, opts: &SvgOptions) -> String {
    let n = cover.ring().n();
    let mut s = String::new();
    let size = opts.size;
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">"#
    );
    let _ = writeln!(s, r#"  <rect width="100%" height="100%" fill="white"/>"#);

    // Physical ring: a light circle through the node positions.
    let c = size as f64 / 2.0;
    let rr = c - opts.node_radius - 14.0;
    let _ = writeln!(
        s,
        r##"  <circle cx="{c:.1}" cy="{c:.1}" r="{rr:.1}" fill="none" stroke="#cccccc" stroke-width="{:.1}"/>"##,
        opts.stroke_width * 2.0
    );

    // One polygon per covering cycle.
    for (i, tile) in cover.tiles().iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let mut points = String::new();
        for &v in tile.vertices() {
            let (x, y) = position(v, n, opts);
            let _ = write!(points, "{x:.1},{y:.1} ");
        }
        let _ = writeln!(
            s,
            r#"  <polygon points="{}" fill="none" stroke="{color}" stroke-width="{:.1}" opacity="0.8"/>"#,
            points.trim_end(),
            opts.stroke_width
        );
    }

    // Nodes on top.
    for v in 0..n {
        let (x, y) = position(v, n, opts);
        let _ = writeln!(
            s,
            r##"  <circle cx="{x:.1}" cy="{y:.1}" r="{:.1}" fill="#333333"/>"##,
            opts.node_radius
        );
        if opts.labels {
            let _ = writeln!(
                s,
                r#"  <text x="{x:.1}" y="{:.1}" font-family="sans-serif" font-size="{:.0}" fill="white" text-anchor="middle">{v}</text>"#,
                y + opts.node_radius * 0.38,
                opts.node_radius * 1.1
            );
        }
    }
    s.push_str("</svg>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclecover_core::construct_optimal;

    #[test]
    fn renders_wellformed_svg() {
        let cover = construct_optimal(9);
        let svg = render_covering(&cover, &SvgOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // One polygon per cycle, one node circle per vertex (+1 ring circle).
        assert_eq!(svg.matches("<polygon").count(), cover.len());
        assert_eq!(svg.matches("<circle").count(), 9 + 1);
        assert_eq!(svg.matches("<text").count(), 9);
    }

    #[test]
    fn labels_can_be_disabled() {
        let cover = construct_optimal(5);
        let svg = render_covering(
            &cover,
            &SvgOptions {
                labels: false,
                ..SvgOptions::default()
            },
        );
        assert_eq!(svg.matches("<text").count(), 0);
    }

    #[test]
    fn positions_are_on_canvas() {
        let opts = SvgOptions::default();
        for v in 0..12 {
            let (x, y) = position(v, 12, &opts);
            assert!(x >= 0.0 && x <= opts.size as f64);
            assert!(y >= 0.0 && y <= opts.size as f64);
        }
    }

    #[test]
    fn distinct_cycles_get_distinct_colors_within_palette() {
        let cover = construct_optimal(7); // 6 cycles ≤ palette size
        let svg = render_covering(&cover, &SvgOptions::default());
        for (i, color) in PALETTE.iter().take(cover.len()).enumerate() {
            assert!(svg.contains(color), "palette color {i} unused");
        }
    }
}
