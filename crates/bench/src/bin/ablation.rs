//! Ablation study (an extension beyond the paper).
//!
//! Quantifies the design choices of Algorithm 1 on small/medium graphs:
//!
//! 1. `AdjustDistances` on/off (Lemma 2's balancing step);
//! 2. λ-grid resolution β ∈ {0.25, 0.5, 1, 2, 4};
//! 3. root policy: query-only (Lemma 5) vs all vertices;
//! 4. candidate scoring: exact Wiener vs the `A(H, r)` proxy (Remark 1);
//! 5. Steiner subroutine: Mehlhorn (the paper's) vs Kou–Markowsky–Berman
//!    vs Takahashi–Matsuyama — all 2-approximations, so the guarantee is
//!    unchanged and only the constants move.

use mwc_bench::parse_args;
use mwc_bench::stats::{mean, timed};
use mwc_bench::table::{fmt_f64, Table};
use mwc_core::steiner::SteinerAlgorithm;
use mwc_core::{RootPolicy, WienerSteiner, WsqConfig};
use mwc_datasets::{karate, realworld, workloads};
use mwc_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Variant {
    label: &'static str,
    cfg: WsqConfig,
}

fn variants() -> Vec<Variant> {
    let base = WsqConfig {
        parallel: false,
        ..WsqConfig::default()
    };
    vec![
        Variant {
            label: "default (β=1, adjust, roots=Q, score=W)",
            cfg: base.clone(),
        },
        Variant {
            label: "no AdjustDistances",
            cfg: WsqConfig {
                adjust: false,
                ..base.clone()
            },
        },
        Variant {
            label: "β=0.25 (fine λ grid)",
            cfg: WsqConfig {
                beta: 0.25,
                ..base.clone()
            },
        },
        Variant {
            label: "β=4 (coarse λ grid)",
            cfg: WsqConfig {
                beta: 4.0,
                ..base.clone()
            },
        },
        Variant {
            label: "score=A(H,r) proxy only",
            cfg: WsqConfig {
                wiener_exact_threshold: 0,
                ..base.clone()
            },
        },
        Variant {
            label: "steiner=Kou-Markowsky-Berman",
            cfg: WsqConfig {
                steiner: SteinerAlgorithm::KouMarkowskyBerman,
                ..base.clone()
            },
        },
        Variant {
            label: "steiner=Takahashi-Matsuyama",
            cfg: WsqConfig {
                steiner: SteinerAlgorithm::TakahashiMatsuyama,
                ..base.clone()
            },
        },
        Variant {
            label: "no Lemma 4 (Klein-Ravi node-weighted)",
            cfg: WsqConfig {
                node_weighted_steiner: true,
                ..base.clone()
            },
        },
        Variant {
            label: "roots=all vertices",
            cfg: WsqConfig {
                roots: RootPolicy::AllVertices,
                ..base
            },
        },
    ]
}

fn run_on(name: &str, g: &Graph, queries: &[Vec<NodeId>], skip_all_roots: bool) {
    println!(
        "\n=== {name} (n = {}, m = {}, {} queries) ===",
        g.num_nodes(),
        g.num_edges(),
        queries.len()
    );
    let mut t = Table::new(&[
        "variant",
        "mean W",
        "mean |H|",
        "mean seconds",
        "W vs default",
    ]);
    let mut default_w = 0.0;
    for v in variants() {
        if skip_all_roots && matches!(v.cfg.roots, RootPolicy::AllVertices) {
            continue;
        }
        let solver = WienerSteiner::with_config(g, v.cfg);
        let mut ws = Vec::new();
        let mut sizes = Vec::new();
        let mut secs = Vec::new();
        for q in queries {
            let (res, s) = timed(|| solver.solve(q));
            let sol = res.expect("solvable");
            ws.push(sol.wiener_index as f64);
            sizes.push(sol.connector.len() as f64);
            secs.push(s);
        }
        let mw = mean(&ws);
        if v.label.starts_with("default") {
            default_w = mw;
        }
        t.add_row(vec![
            v.label.to_string(),
            fmt_f64(mw, 1),
            fmt_f64(mean(&sizes), 1),
            fmt_f64(mean(&secs), 4),
            if default_w > 0.0 {
                format!("{:+.1}%", (mw / default_w - 1.0) * 100.0)
            } else {
                "-".into()
            },
        ]);
    }
    t.print();
}

fn main() {
    let args = parse_args();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let reps = args.scale.pick(3, 8, 16);

    // Karate: small enough for the all-roots policy.
    let g = karate::karate_club();
    let queries: Vec<Vec<NodeId>> = (0..reps)
        .filter_map(|_| workloads::uniform_query(&g, 4, &mut rng).map(|q| q.vertices))
        .collect();
    run_on("karate", &g, &queries, false);

    // Email stand-in: medium; all-roots would take |V| Steiner sweeps.
    let si = realworld::standin("email").expect("email");
    let queries: Vec<Vec<NodeId>> = (0..reps)
        .filter_map(|_| {
            workloads::distance_controlled_query(
                &si.graph,
                &workloads::WorkloadConfig::new(8, 4.0),
                &mut rng,
            )
            .map(|q| q.vertices)
        })
        .collect();
    run_on("email stand-in", &si.graph, &queries, true);

    println!("\nReadings: AdjustDistances and exact-W scoring mainly improve solution");
    println!("quality; finer λ grids trade time for small gains; the all-roots policy");
    println!("shows how little Lemma 5's query-only restriction costs. Swapping the");
    println!("Steiner subroutine keeps the guarantee: Takahashi-Matsuyama often finds");
    println!("slightly smaller connectors at several times Mehlhorn's cost, confirming");
    println!("the paper's choice as the right speed/quality point.");
}
