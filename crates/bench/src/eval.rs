//! Uniform evaluation of a solver's solution: the Table 3 metrics.
//!
//! Methods are selected by [`QueryEngine`] registry name (`"ws-q"`,
//! `"st"`, …) instead of an enum, so the harness serves the paper's
//! method table and any future registered solver through one code path.

use mwc_core::{QueryEngine, Result, SolveReport};
use mwc_graph::{metrics, NodeId};

pub use mwc_baselines::PAPER_METHODS;

/// The per-solution measurements of Table 3 / Figure 3.
#[derive(Debug, Clone)]
pub struct SolutionMetrics {
    /// Registry name of the solver that produced the solution.
    pub solver: String,
    /// `|V[H]|`.
    pub size: usize,
    /// `δ(H) = |E[H]| / C(|V[H]|, 2)`.
    pub density: f64,
    /// Average betweenness centrality (in the input graph) of the
    /// solution's vertices — `bc(H)`.
    pub avg_betweenness: f64,
    /// Exact Wiener index `W(H)` (every
    /// [`SolveReport`] carries it).
    pub wiener: f64,
    /// Wall-clock seconds of the engine solve (which includes the exact
    /// Wiener evaluation every [`SolveReport`]
    /// carries; the extra metrics below are excluded).
    pub seconds: f64,
}

/// Runs the named solver on `q` through `engine` and measures the
/// solution.
///
/// `bc` is the betweenness vector of the engine's graph (computed once
/// per graph by the caller — sampled betweenness is usually preferable to
/// the engine's exact cache on large graphs). The Wiener index comes
/// straight from the report — every solve already evaluates it exactly,
/// so no re-sampling happens here.
pub fn evaluate_solver(
    engine: &QueryEngine<'_>,
    solver: &str,
    q: &[NodeId],
    bc: &[f64],
) -> Result<SolutionMetrics> {
    evaluate_with_report(engine, solver, q, bc).map(|(m, _)| m)
}

/// Like [`evaluate_solver`], but also hands back the engine's
/// [`SolveReport`] so callers can render it uniformly
/// ([`SolveReport::render_text`] / [`SolveReport::to_json`]) instead of
/// re-formatting fields ad hoc.
pub fn evaluate_with_report(
    engine: &QueryEngine<'_>,
    solver: &str,
    q: &[NodeId],
    bc: &[f64],
) -> Result<(SolutionMetrics, SolveReport)> {
    let report = engine.solve(solver, q)?;
    let g = engine.graph();
    let sub = report.connector.induced(g)?;
    let density = metrics::density(sub.graph());
    let wiener = report.wiener_index as f64;
    let m = SolutionMetrics {
        solver: report.solver.clone(),
        size: report.connector.len(),
        density,
        avg_betweenness: report.connector.average_score(bc),
        wiener,
        seconds: report.seconds,
    };
    Ok((m, report))
}

/// One machine-readable JSON line for an evaluated solution: the
/// engine's report (via [`SolveReport::to_json`] — the same object shape
/// `mwc_service` serves in its `"report"` wire field) extended with the
/// Table 3 measurements.
pub fn solution_json(m: &SolutionMetrics, report: &SolveReport) -> String {
    format!(
        "{{\"report\":{},\"size\":{},\"density\":{},\"avg_betweenness\":{},\"wiener\":{}}}",
        report.to_json(),
        m.size,
        m.density,
        m.avg_betweenness,
        m.wiener
    )
}

/// Averages a slice of metrics (all from the same solver).
pub fn average_metrics(runs: &[SolutionMetrics]) -> SolutionMetrics {
    assert!(!runs.is_empty());
    let n = runs.len() as f64;
    SolutionMetrics {
        solver: runs[0].solver.clone(),
        size: (runs.iter().map(|r| r.size).sum::<usize>() as f64 / n).round() as usize,
        density: runs.iter().map(|r| r.density).sum::<f64>() / n,
        avg_betweenness: runs.iter().map(|r| r.avg_betweenness).sum::<f64>() / n,
        wiener: runs.iter().map(|r| r.wiener).sum::<f64>() / n,
        seconds: runs.iter().map(|r| r.seconds).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_baselines::full_engine;
    use mwc_graph::centrality::betweenness;
    use mwc_graph::generators::karate::karate_club;

    #[test]
    fn evaluates_all_paper_methods_on_karate() {
        let g = karate_club();
        let engine = full_engine(&g);
        let bc = betweenness(&g, true);
        let q: Vec<NodeId> = vec![11, 24, 25, 29];
        for name in PAPER_METHODS {
            let sm = evaluate_solver(&engine, name, &q, &bc).unwrap();
            assert_eq!(sm.solver, name);
            assert!(sm.size >= q.len(), "{name}");
            assert!(sm.density > 0.0 && sm.density <= 1.0);
            assert!(sm.wiener > 0.0);
            assert!(sm.avg_betweenness >= 0.0);
            assert!(sm.seconds >= 0.0);
        }
    }

    #[test]
    fn unknown_solver_name_errors_cleanly() {
        let g = karate_club();
        let engine = full_engine(&g);
        let bc = betweenness(&g, true);
        assert!(evaluate_solver(&engine, "missing", &[0, 33], &bc).is_err());
    }

    #[test]
    fn solution_json_embeds_the_uniform_report_shape() {
        let g = karate_club();
        let engine = full_engine(&g);
        let bc = betweenness(&g, true);
        let (m, report) = evaluate_with_report(&engine, "ws-q", &[11, 24, 25, 29], &bc).unwrap();
        let line = solution_json(&m, &report);
        assert!(
            line.starts_with("{\"report\":{\"solver\":\"ws-q\""),
            "{line}"
        );
        assert!(line.contains(&format!("\"wiener_index\":{}", report.wiener_index)));
        assert!(line.ends_with('}'), "{line}");
        assert!(report.render_text().starts_with("ws-q: W = "));
    }

    #[test]
    fn averaging() {
        let g = karate_club();
        let engine = full_engine(&g);
        let bc = betweenness(&g, true);
        let a = evaluate_solver(&engine, "st", &[0, 33], &bc).unwrap();
        let b = evaluate_solver(&engine, "st", &[11, 24], &bc).unwrap();
        let avg = average_metrics(&[a.clone(), b.clone()]);
        assert_eq!(avg.solver, "st");
        assert!((avg.wiener - (a.wiener + b.wiener) / 2.0).abs() < 1e-9);
    }
}
