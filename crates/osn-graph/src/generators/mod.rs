//! Random-graph generators.
//!
//! These provide the synthetic stand-ins for the SNAP datasets used in the
//! ACCU paper (Facebook / Slashdot / Twitter / DBLP): preferential
//! attachment for heavy-tailed social networks, a power-law configuration
//! model, small-world rewiring, Erdős–Rényi baselines, planted-partition
//! and overlapping-community (AGM) models for collaboration networks,
//! and R-MAT for Graph500-style benchmark graphs.
//!
//! All generators are deterministic given the RNG state, so experiments
//! are reproducible from a seed.

mod agm;
mod ba;
mod community;
mod config_model;
mod er;
mod rmat;
mod ws;

use crate::GraphError;

/// Guards a requested node count against the dense `u32` id space,
/// returning the count as `u32` so callers narrow through a checked
/// value instead of a silent `as` cast.
pub(crate) fn check_node_count(n: usize) -> Result<u32, GraphError> {
    u32::try_from(n).map_err(|_| GraphError::TooManyNodes {
        limit: u32::MAX as usize,
    })
}

/// Guards a requested edge count against the dense `u32`
/// [`EdgeId`](crate::EdgeId) space: ≥4-billion-edge requests fail with
/// a typed error instead of truncating during id assignment.
pub(crate) fn check_edge_count(m: u128) -> Result<usize, GraphError> {
    if m > u32::MAX as u128 {
        return Err(GraphError::TooManyEdges {
            requested: m,
            limit: u32::MAX as usize,
        });
    }
    Ok(m as usize)
}

/// The undirected edge `{a, b}` packed into one `u64` (smaller id in
/// the high half), for the rejection samplers that must count distinct
/// edges while they draw.
pub(crate) fn edge_key(a: u32, b: u32) -> u64 {
    (u64::from(a.min(b)) << 32) | u64::from(a.max(b))
}

pub use agm::{community_affiliation, AgmParams};
pub use ba::barabasi_albert;
pub use community::{planted_partition, PlantedPartition};
pub use config_model::{powerlaw_configuration, powerlaw_degree_sequence};
pub use er::{erdos_renyi_gnm, erdos_renyi_gnp};
pub use rmat::{rmat, RmatParams};
pub use ws::watts_strogatz;
