//! Differential suite for ws-q's repairing λ sweep.
//!
//! [`LambdaSweep`] answers a root's Steiner calls over an ascending λ grid,
//! repairing the previous Mehlhorn run at each larger power-of-two λ
//! instead of running afresh. These tests pin every call, tree and
//! certificate, against a fresh [`lambda_steiner_with`] call at the same λ,
//! on unit-weight graphs (many ties) and weighted ones, with roots inside
//! and outside Q's component, on grids with and without powers of two, and
//! with one workspace carried across roots, queries, graph sizes and a
//! generation wrap.

use proptest::prelude::*;

use mwc_core::steiner::{
    lambda_steiner_with, LambdaSweep, Repeats, SteinerAlgorithm, SteinerTree, SteinerWorkspace,
};
use mwc_core::wsq::lambda_grid;
use mwc_core::Result;
use mwc_graph::generators::karate::karate_club;
use mwc_graph::traversal::bfs::bfs_distances;
use mwc_graph::traversal::dijkstra::DijkstraWorkspace;
use mwc_graph::{Graph, NodeId, INF_DIST};

/// Reattaches deterministic hash weights in `1..=max_weight` to a graph's
/// topology (the scheme the service's `wba:` source uses).
fn weighted_version(g: &Graph, max_weight: u32) -> Graph {
    let edges: Vec<(NodeId, NodeId, u32)> = g
        .edges()
        .map(|(u, v)| {
            let h = (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (v as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            (u, v, (h % max_weight as u64) as u32 + 1)
        })
        .collect();
    Graph::from_weighted_edges(g.num_nodes(), &edges).unwrap()
}

/// ER `G(n, p)`, Barabási–Albert or a planted partition, weighted when
/// `max_weight > 1`, optionally relabeled hub-first. ER and SBM draws may
/// be disconnected.
fn family_graph(family: usize, n: usize, seed: u64, max_weight: u32, ordered: bool) -> Graph {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let base = match family {
        0 => mwc_graph::generators::gnp(n, 2.5 / n as f64, &mut rng),
        1 => mwc_graph::generators::barabasi_albert(n, 2, &mut rng),
        _ => {
            let third = n / 3;
            mwc_graph::generators::planted_partition(
                &[third, third, n - 2 * third],
                0.1,
                0.01,
                &mut rng,
            )
            .graph
        }
    };
    let g = if max_weight > 1 {
        weighted_version(&base, max_weight)
    } else {
        base
    };
    if ordered {
        g.degree_ordered().0
    } else {
        g
    }
}

/// `d_G(r, ·)` under the graph's own weights, `INF_DIST` where unreachable.
fn distances_from(g: &Graph, r: NodeId) -> Vec<u32> {
    if g.is_weighted() {
        DijkstraWorkspace::new().run(g, r).to_vec()
    } else {
        bfs_distances(g, r)
    }
}

/// Up to `k` distinct vertices of the component of a random vertex, or
/// `None` when that component has fewer than two.
fn pick_query(g: &Graph, seed: u64, k: usize) -> Option<Vec<NodeId>> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let start = rng.gen_range(0..g.num_nodes() as NodeId);
    let component: Vec<NodeId> = bfs_distances(g, start)
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != INF_DIST)
        .map(|(v, _)| v as NodeId)
        .collect();
    if component.len() < 2 {
        return None;
    }
    let mut q: Vec<NodeId> = (0..k)
        .map(|_| component[rng.gen_range(0..component.len())])
        .collect();
    q.sort_unstable();
    q.dedup();
    (q.len() >= 2).then_some(q)
}

fn same(a: &Result<(SteinerTree, Repeats)>, b: &Result<(SteinerTree, Repeats)>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a == b,
        (Err(a), Err(b)) => std::mem::discriminant(a) == std::mem::discriminant(b),
        _ => false,
    }
}

/// One root's sweep over `lambdas` on `ws`, every call against a fresh
/// `lambda_steiner_with` call on its own workspace. Returns how many calls
/// the sweep repaired.
fn check_sweep(
    ws: &mut SteinerWorkspace,
    g: &Graph,
    terminals: &[NodeId],
    potentials: &[u32],
    lambdas: &[f64],
) -> std::result::Result<u64, TestCaseError> {
    let before = ws.repairs();
    let mut fresh_ws = SteinerWorkspace::new();
    let mut sweep = LambdaSweep::new(ws, SteinerAlgorithm::Mehlhorn, g, terminals, potentials);
    for &lambda in lambdas {
        let got = sweep.solve(lambda);
        let want = lambda_steiner_with(
            &mut fresh_ws,
            SteinerAlgorithm::Mehlhorn,
            g,
            terminals,
            lambda,
            potentials,
        );
        prop_assert!(
            same(&got, &want),
            "λ = {}: sweep {:?}, fresh {:?}",
            lambda,
            got.as_ref().map(|(t, r)| (&t.nodes, &t.edges, r)),
            want.as_ref().map(|(t, r)| (&t.nodes, &t.edges, r))
        );
    }
    Ok(ws.repairs() - before)
}

/// Every root of `q` plus one random vertex, which may lie outside Q's
/// component (its potentials are then `INF_DIST` on all of it): the sweep
/// at β = 1 and at β = 0.5, whose grid has no power of two but 1 and
/// must never repair. Returns the repairs at β = 1.
fn check_instance(
    ws: &mut SteinerWorkspace,
    g: &Graph,
    q: &[NodeId],
    extra_root: NodeId,
) -> std::result::Result<u64, TestCaseError> {
    let mut repaired = 0;
    let reach = distances_from(g, q[0]);
    for &r in q.iter().chain([&extra_root]) {
        let potentials = distances_from(g, r);
        let mut terminals = q.to_vec();
        if reach[r as usize] != INF_DIST {
            terminals.push(r);
        }
        repaired += check_sweep(
            ws,
            g,
            &terminals,
            &potentials,
            &lambda_grid(g.num_nodes(), 1.0),
        )?;
        let none = check_sweep(
            ws,
            g,
            &terminals,
            &potentials,
            &lambda_grid(g.num_nodes(), 0.5),
        )?;
        prop_assert_eq!(none, 0, "a grid without powers of two repaired");
    }
    Ok(repaired)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over ER/BA/SBM, unit-weight and weighted up to 64, degree-ordered
    /// or not, `|Q|` in `2..=8`, one workspace across all of a case's
    /// roots.
    #[test]
    fn sweep_matches_fresh_calls_at_every_lambda(
        family in 0usize..3,
        n in 30usize..260,
        seed in any::<u64>(),
        weighted in any::<bool>(),
        max_weight in 2u32..65,
        ordered in any::<bool>(),
        k in 2usize..9,
    ) {
        let g = family_graph(family, n, seed, if weighted { max_weight } else { 1 }, ordered);
        let Some(q) = pick_query(&g, seed ^ 0x5eed, k) else {
            return Ok(());
        };
        let extra = (seed % n as u64) as NodeId;
        check_instance(&mut SteinerWorkspace::new(), &g, &q, extra)?;
    }
}

/// The property is not vacuous: its families repair often, unit-weight and
/// weighted alike, and roots outside Q's component run too.
#[test]
fn families_repair() {
    for max_weight in [1, 9, 64] {
        let (mut repaired, mut outside) = (0, 0);
        for seed in 0..9u64 {
            let g = family_graph(seed as usize % 3, 200, seed, max_weight, seed % 2 == 0);
            let Some(q) = pick_query(&g, seed, 6) else {
                continue;
            };
            // A root outside Q's component where there is one.
            let reach = distances_from(&g, q[0]);
            let extra = match reach.iter().position(|&d| d == INF_DIST) {
                Some(v) => v as NodeId,
                None => (seed * 37 % 200) as NodeId,
            };
            outside += u64::from(reach[extra as usize] == INF_DIST);
            repaired += check_instance(&mut SteinerWorkspace::new(), &g, &q, extra).unwrap();
        }
        assert!(repaired > 20, "max_weight {max_weight}: {repaired} repairs");
        if max_weight == 1 {
            assert!(outside > 0, "no root outside Q's component");
        }
    }
}

/// One workspace serves every root, query and graph size in turn, and
/// keeps matching fresh calls across a generation wrap: a sweep never
/// repairs a run kept from another sweep.
#[test]
fn one_workspace_across_graphs_and_a_generation_wrap() {
    let mut ws = SteinerWorkspace::new();
    let mut repaired = 0;
    for (i, (family, n)) in [(1, 240), (0, 60), (2, 150), (1, 40), (1, 240)]
        .into_iter()
        .enumerate()
    {
        let g = family_graph(family, n, 17 + i as u64, 1 + 7 * (i as u32 % 2), i % 2 == 0);
        for seed in 0..3 {
            let Some(q) = pick_query(&g, seed + 100 * i as u64, 3 + seed as usize) else {
                continue;
            };
            if i == 2 && seed == 1 {
                ws.skip_to_generation_wrap();
            }
            repaired += check_instance(&mut ws, &g, &q, q[0]).unwrap();
        }
    }
    assert!(repaired > 0);
    let karate = karate_club();
    let q = [0, 11, 25, 33];
    repaired += check_instance(&mut ws, &karate, &q, 16).unwrap();
    assert!(ws.repairs() >= repaired);
}

/// A sweep also matches fresh calls when λ does not ascend, skips grid
/// points, or leaves the range repairs cover; and one-terminal and
/// disconnected queries behave as fresh calls do.
#[test]
fn any_lambda_order_and_degenerate_queries() {
    let g = family_graph(1, 200, 5, 1, false);
    let q = pick_query(&g, 5, 6).unwrap();
    let potentials = distances_from(&g, q[0]);
    let mut ws = SteinerWorkspace::new();
    let order = [
        0.5,
        4.0,
        1.0,
        2.0,
        8.0,
        1.5,
        16.0,
        2f64.powi(27),
        32.0,
        0.25,
    ];
    check_sweep(&mut ws, &g, &q, &potentials, &order).unwrap();
    check_sweep(&mut ws, &g, &q[..1], &potentials, &[0.5, 1.0, 2.0]).unwrap();
    let split = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
    let potentials = distances_from(&split, 0);
    check_sweep(&mut ws, &split, &[0, 4], &potentials, &[0.5, 1.0, 2.0]).unwrap();
}

/// The repairs' crossing-edge groups are exercised both ways: some repair
/// rescans a group whose minimum lost an endpoint, and some keeps a
/// cached minimum as it was.
#[test]
fn repairs_rescan_some_groups_and_keep_other_minima() {
    let mut ws = SteinerWorkspace::new();
    for seed in 0..6u64 {
        let g = family_graph(
            seed as usize % 3,
            200,
            seed,
            [1, 9][seed as usize % 2],
            true,
        );
        let Some(q) = pick_query(&g, seed, 6) else {
            continue;
        };
        check_instance(&mut ws, &g, &q, q[0]).unwrap();
    }
    let (rescans, kept, _) = ws.group_work();
    assert!(
        rescans > 0 && kept > 0,
        "{rescans} rescans, {kept} minima kept"
    );
}

/// More than 128 terminals: repairs run on the hash-map crossing table.
/// A few roots per graph keep the run short.
#[test]
fn large_terminal_sets_repair_on_the_hash_map_table() {
    let mut ws = SteinerWorkspace::new();
    let mut repaired = 0;
    for (family, seed, max_weight) in [(1, 1, 1), (0, 2, 1), (2, 3, 9), (1, 4, 64)] {
        let g = family_graph(family, 600, seed, max_weight, seed % 2 == 0);
        let q = pick_query(&g, seed, 170).unwrap();
        assert!(q.len() > 128, "family {family}: |Q| = {}", q.len());
        for &r in &q[..3] {
            let potentials = distances_from(&g, r);
            let lambdas = lambda_grid(g.num_nodes(), 1.0);
            repaired += check_sweep(&mut ws, &g, &q, &potentials, &lambdas).unwrap();
        }
    }
    assert!(repaired > 20, "{repaired} repairs");
    assert!(ws.group_work().0 > 0, "no group rescanned");
}

/// Crossing-edge storage capped far below one entry per edge fills up
/// during repairs, which then compact it inside their Dijkstra, while
/// labels are not yet final: every call still matches a fresh one, tree
/// and certificate.
#[test]
fn repairs_compact_a_full_crossing_storage() {
    let mut ws = SteinerWorkspace::new();
    ws.cap_crossing_storage(16);
    let mut repaired = 0;
    for seed in 0..6u64 {
        let g = family_graph(
            seed as usize % 3,
            200,
            seed,
            [1, 9][seed as usize % 2],
            seed % 2 == 0,
        );
        let Some(q) = pick_query(&g, seed, 6) else {
            continue;
        };
        repaired += check_instance(&mut ws, &g, &q, q[0]).unwrap();
    }
    let (_, _, compactions) = ws.group_work();
    assert!(repaired > 20, "{repaired} repairs");
    assert!(compactions > 0, "no repair compacted the storage");
}
