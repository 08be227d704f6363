//! Graph generators used by the experiments.
//!
//! The paper evaluates on SNAP/real-world graphs plus Erdős–Rényi and
//! power-law synthetic graphs (§6.6). Real datasets are not redistributable
//! here, so `mwc-datasets` builds *stand-ins* from these generators with
//! matched size/family (see the `mwc-datasets` crate doc). Structured
//! families cover the worked examples (Fig 2's line-plus-roots) and the
//! Steiner-benchmark-style instances (grids, hypercubes).

pub mod barabasi_albert;
pub mod erdos_renyi;
pub mod holme_kim;
pub mod karate;
pub mod sbm;
pub mod structured;

pub use barabasi_albert::barabasi_albert;
pub use erdos_renyi::{gnm, gnp};
pub use holme_kim::holme_kim;
pub use karate::{karate_club, karate_factions, KARATE_NUM_NODES};
pub use sbm::{planted_partition, PlantedPartition};
