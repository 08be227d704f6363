//! Table 1 — summary statistics of the stand-in graphs.
//!
//! Prints `|V|, |E|, δ, ad, cc, ed` for each generated stand-in next to
//! the paper's values for the original dataset. Scales: quick = the seven
//! small/medium graphs; medium = + scaled dblp/youtube; full = every
//! dataset at the largest size memory allows.

use mwc_bench::table::{fmt_f64, Table};
use mwc_bench::{parse_args, Scale};
use mwc_datasets::realworld;
use mwc_graph::metrics::graph_stats;
use rand::SeedableRng;

/// Paper's Table 1 rows: (name, |V|, |E|, δ, ad, cc, ed).
const PAPER: &[(&str, usize, usize, f64, f64, f64, f64)] = &[
    ("football", 115, 613, 9.4e-2, 21.3, 0.40, 3.9),
    ("jazz", 198, 2742, 1.4e-1, 55.4, 0.62, 3.8),
    ("celegans", 453, 2025, 2.0e-2, 17.9, 0.65, 4.0),
    ("email", 1133, 5452, 8.5e-3, 9.62, 0.22, 8.0),
    ("yeast", 2224, 6609, 2.6e-3, 5.94, 0.14, 11.0),
    ("oregon", 10670, 22002, 3.8e-4, 4.12, 0.30, 4.4),
    ("astro", 18772, 198110, 1.1e-3, 22.0, 0.63, 5.0),
    ("dblp", 317080, 1049866, 2.1e-5, 6.62, 0.63, 8.2),
    ("youtube", 1134890, 2987624, 4.6e-6, 5.27, 0.08, 6.5),
    ("wiki", 2394385, 5021410, 1.8e-6, 4.19, 0.22, 3.9),
];

fn main() {
    let args = parse_args();
    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed);

    let datasets: Vec<(&str, f64)> = match args.scale {
        Scale::Quick => vec![
            ("football", 1.0),
            ("jazz", 1.0),
            ("celegans", 1.0),
            ("email", 1.0),
            ("yeast", 1.0),
        ],
        Scale::Medium => vec![
            ("football", 1.0),
            ("jazz", 1.0),
            ("celegans", 1.0),
            ("email", 1.0),
            ("yeast", 1.0),
            ("oregon", 1.0),
            ("astro", 1.0),
            ("dblp", 0.05),
            ("youtube", 0.02),
        ],
        Scale::Full => vec![
            ("football", 1.0),
            ("jazz", 1.0),
            ("celegans", 1.0),
            ("email", 1.0),
            ("yeast", 1.0),
            ("oregon", 1.0),
            ("astro", 1.0),
            ("dblp", 1.0),
            ("youtube", 1.0),
            ("wiki", 0.5),
        ],
    };

    println!("Table 1: dataset statistics (ours = generated stand-in | paper = original)\n");
    let mut t = Table::new(&[
        "dataset",
        "scale",
        "|V| ours",
        "|V| paper",
        "|E| ours",
        "|E| paper",
        "δ ours",
        "δ paper",
        "ad ours",
        "ad paper",
        "cc ours",
        "cc paper",
        "ed ours",
        "ed paper",
    ]);
    for (name, scale) in datasets {
        let si = realworld::standin_scaled(name, scale).expect("known dataset");
        let exact_threshold = 3000;
        let stats = graph_stats(&si.graph, exact_threshold, &mut rng);
        let paper = PAPER.iter().find(|row| row.0 == name).expect("paper row");
        t.add_row(vec![
            name.to_string(),
            fmt_f64(scale, 2),
            stats.num_nodes.to_string(),
            paper.1.to_string(),
            stats.num_edges.to_string(),
            paper.2.to_string(),
            format!("{:.1e}", stats.density),
            format!("{:.1e}", paper.3),
            fmt_f64(stats.average_degree, 2),
            fmt_f64(paper.4, 2),
            fmt_f64(stats.clustering, 2),
            fmt_f64(paper.5, 2),
            fmt_f64(stats.effective_diameter, 1),
            fmt_f64(paper.6, 1),
        ]);
    }
    t.print();
    println!("\nNote: stand-ins match |V|/|E| and family (BA power-law or planted");
    println!("partition), not clustering/diameter exactly (see the mwc-datasets crate doc).");
}
