//! Answer checking against the benchmark's own copy of every graph.
//!
//! The first answer for a `(graph, solver, query)` triple is checked in
//! full: the connector contains the query, induces a connected subgraph,
//! and its Wiener index recomputed here equals the reported one. Every
//! later answer for the triple — a cache hit or a fresh solve of a
//! deterministic solver — must equal that first answer.

use std::collections::HashMap;

use mwc_core::Connector;
use mwc_graph::{Graph, NodeId};
use mwc_service::{GraphSource, WireReport};

type Triple = (String, String, Vec<NodeId>);

pub struct Verifier {
    /// Catalog name → graph in original ids, built from the same spec the
    /// server loads.
    graphs: HashMap<String, Graph>,
    first: HashMap<Triple, (Vec<NodeId>, u64)>,
    /// Wrong answers seen so far.
    pub wrong: u64,
}

impl Verifier {
    pub fn new(graphs: &[(&str, &str)]) -> Result<Verifier, String> {
        let mut built = HashMap::new();
        for &(name, spec) in graphs {
            let g = GraphSource::parse(spec)
                .and_then(|s| s.build())
                .map_err(|e| format!("building {spec}: {e}"))?;
            built.insert(name.to_string(), g);
        }
        Ok(Verifier {
            graphs: built,
            first: HashMap::new(),
            wrong: 0,
        })
    }

    pub fn num_nodes(&self, graph: &str) -> usize {
        self.graphs[graph].num_nodes()
    }

    /// Checks one answer and remembers it as the first answer for its
    /// triple; `false` (and a count in `wrong`) when it is wrong.
    pub fn check(&mut self, graph: &str, solver: &str, q: &[NodeId], report: &WireReport) -> bool {
        match self.verdict(graph, solver, q, report) {
            Ok(()) => {
                self.first
                    .entry((graph.to_string(), solver.to_string(), q.to_vec()))
                    .or_insert_with(|| (report.connector.clone(), report.wiener_index));
                true
            }
            Err(why) => {
                eprintln!("wrong answer: {graph} {solver} {q:?}: {why}");
                self.wrong += 1;
                false
            }
        }
    }

    /// Why an answer is wrong, if it is. Takes `&self`, so the timed
    /// phase's connections check concurrently against the answers
    /// remembered during set-up.
    pub fn verdict(
        &self,
        graph: &str,
        solver: &str,
        q: &[NodeId],
        report: &WireReport,
    ) -> Result<(), String> {
        let key = (graph.to_string(), solver.to_string(), q.to_vec());
        match self.first.get(&key) {
            Some((connector, w)) if (connector, *w) == (&report.connector, report.wiener_index) => {
                Ok(())
            }
            Some(_) => Err("differs from the first answer for this query".to_string()),
            None => self.full_check(graph, solver, q, report),
        }
    }

    fn full_check(
        &self,
        graph: &str,
        solver: &str,
        q: &[NodeId],
        report: &WireReport,
    ) -> Result<(), String> {
        if report.solver != solver {
            return Err(format!("answered by solver {:?}", report.solver));
        }
        let g = &self.graphs[graph];
        let connector = Connector::new(g, &report.connector)
            .map_err(|e| format!("connector is not a connected vertex set: {e}"))?;
        if !connector.contains_all(q) {
            return Err("connector misses a query vertex".to_string());
        }
        let w = connector.wiener_index(g).map_err(|e| e.to_string())?;
        if w != report.wiener_index {
            return Err(format!(
                "reported W = {} but the connector has W = {w}",
                report.wiener_index
            ));
        }
        Ok(())
    }
}
