//! Graph traversals: BFS (unweighted), radix-heap Dijkstra (the
//! integer-weighted kernel), and binary-heap Dijkstra (its reference, and
//! the f64-weighted Voronoi search).

pub mod bfs;
pub mod dijkstra;
pub mod radix;

pub use bfs::{
    bfs_distances, bfs_parents, canonical_parent, canonical_parents, multi_source_bfs, BfsResult,
    BfsWorkspace, MsBfsWorkspace, MS_BFS_LANES,
};
pub use dijkstra::{
    dijkstra, multi_source_dijkstra, DijkstraResult, DijkstraWorkspace, VoronoiResult,
};
pub use radix::RadixWorkspace;
