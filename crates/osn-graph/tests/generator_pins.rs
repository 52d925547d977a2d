//! Pins each generator's RNG stream: a digest of the edge list (in
//! `EdgeId` order) produced at a fixed seed, followed by the next draw
//! of the RNG after generation. Any change to the draws a generator
//! makes — or to the canonical order that assigns edge ids, which the
//! experiment protocol's per-edge draws follow — changes a digest.

use osn_graph::generators::{
    barabasi_albert, community_affiliation, erdos_renyi_gnm, erdos_renyi_gnp, planted_partition,
    powerlaw_configuration, rmat, watts_strogatz, AgmParams, PlantedPartition, RmatParams,
};
use osn_graph::{Graph, GraphError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over the node count, every edge's endpoints in id order, and
/// the RNG's next `u64` after generation.
fn digest(seed: u64, generate: impl FnOnce(&mut StdRng) -> Result<Graph, GraphError>) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generate(&mut rng).expect("valid generator parameters");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(g.node_count() as u64);
    for e in g.edges() {
        eat(u64::from(e.lo().as_u32()) << 32 | u64::from(e.hi().as_u32()));
    }
    eat(rng.gen::<u64>());
    h
}

#[test]
fn barabasi_albert_stream_is_pinned() {
    assert_eq!(
        digest(11, |r| barabasi_albert(2_000, 7, r)),
        0x3a22c156d199660d,
        "barabasi_albert"
    );
}

#[test]
fn erdos_renyi_gnp_stream_is_pinned() {
    assert_eq!(
        digest(12, |r| erdos_renyi_gnp(1_500, 0.01, r)),
        0x9c7d91a84ed16d4c,
        "gnp"
    );
}

#[test]
fn erdos_renyi_gnm_stream_is_pinned() {
    // Sparse: rejection sampling against the distinct-edge count.
    assert_eq!(
        digest(13, |r| erdos_renyi_gnm(1_000, 6_000, r)),
        0x29f93f20aad6e9c5,
        "gnm"
    );
    // Dense: partial Fisher–Yates over all pairs.
    assert_eq!(
        digest(14, |r| erdos_renyi_gnm(60, 1_500, r)),
        0xc0778b9cf2480826,
        "gnm dense"
    );
}

#[test]
fn planted_partition_stream_is_pinned() {
    let params = PlantedPartition::new(vec![50; 20], 0.12, 0.002).expect("valid");
    assert_eq!(
        digest(15, |r| planted_partition(&params, r)),
        0x0a653af0d056e63d,
        "planted_partition"
    );
}

#[test]
fn community_affiliation_stream_is_pinned() {
    let params = AgmParams::new(2.0, 5, 60, 0.16).expect("valid");
    assert_eq!(
        digest(16, |r| community_affiliation(3_000, &params, r)),
        0x4a22c0e368a7d0ec,
        "agm"
    );
}

#[test]
fn rmat_stream_is_pinned() {
    assert_eq!(
        digest(17, |r| rmat(11, 8, RmatParams::classic(), r)),
        0x95d2e003f21b95dc,
        "rmat"
    );
}

#[test]
fn configuration_and_small_world_streams_are_pinned() {
    assert_eq!(
        digest(18, |r| powerlaw_configuration(2_000, 2.5, 2, 80, r)),
        0xf3c5eaf3bba6943c,
        "powerlaw_configuration"
    );
    assert_eq!(
        digest(19, |r| watts_strogatz(1_000, 10, 0.2, r)),
        0x1bba7c2a05ad38ac,
        "watts_strogatz"
    );
}
