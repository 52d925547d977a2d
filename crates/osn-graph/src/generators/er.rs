//! Erdős–Rényi random graphs.

use std::collections::HashSet;

use rand::Rng;

use crate::{Graph, GraphBuilder, GraphError, NodeId};

/// Samples `G(n, p)`: each of the `n·(n−1)/2` possible edges exists
/// independently with probability `p`.
///
/// Uses geometric edge skipping, so the running time is
/// `O(n + expected edges)` rather than `O(n²)`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `p` is not in `[0, 1]` or
/// not finite.
///
/// # Examples
///
/// ```
/// use osn_graph::generators::erdos_renyi_gnp;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let g = erdos_renyi_gnp(100, 0.05, &mut rng)?;
/// assert_eq!(g.node_count(), 100);
/// # Ok::<(), osn_graph::GraphError>(())
/// ```
pub fn erdos_renyi_gnp<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter {
            what: "edge probability p",
            requirement: "must be within [0, 1]",
        });
    }
    let mut b = GraphBuilder::new(n);
    if p == 0.0 || n < 2 {
        return Ok(b.build());
    }
    if p == 1.0 {
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                b.add_edge(NodeId::new(i), NodeId::new(j))?;
            }
        }
        return Ok(b.build());
    }
    // Batagelj–Brandes skipping over the strictly-lower-triangular pairs.
    let lnq = (1.0 - p).ln();
    let (mut v, mut w) = (1usize, -1i64);
    while v < n {
        let r: f64 = rng.gen_range(f64::EPSILON..1.0);
        w += 1 + (r.ln() / lnq).floor() as i64;
        while w >= v as i64 && v < n {
            w -= v as i64;
            v += 1;
        }
        if v < n {
            b.add_edge(NodeId::from(v), NodeId::from(w as usize))?;
        }
    }
    Ok(b.build())
}

/// Samples `G(n, m)`: a graph with exactly `m` distinct edges chosen
/// uniformly among all simple graphs with `n` nodes and `m` edges.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `m` exceeds `n·(n−1)/2`.
///
/// # Examples
///
/// ```
/// use osn_graph::generators::erdos_renyi_gnm;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let g = erdos_renyi_gnm(50, 200, &mut rng)?;
/// assert_eq!(g.edge_count(), 200);
/// # Ok::<(), osn_graph::GraphError>(())
/// ```
pub fn erdos_renyi_gnm<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    if m > max_edges {
        return Err(GraphError::InvalidParameter {
            what: "edge count m",
            requirement: "must be at most n*(n-1)/2",
        });
    }
    let mut b = GraphBuilder::with_edge_capacity(n, m);
    // Rejection sampling is fine while m is far below the maximum; fall
    // back to dense enumeration + partial shuffle when the graph is dense.
    if (m as f64) < 0.5 * max_edges as f64 {
        // Distinct edges drawn so far, as packed keys: a redrawn pair
        // does not count toward m.
        let mut seen: HashSet<u64> = HashSet::with_capacity(m);
        while seen.len() < m {
            let a = rng.gen_range(0..n as u32);
            let c = rng.gen_range(0..n as u32);
            if a != c && seen.insert(super::edge_key(a, c)) {
                b.add_edge(NodeId::new(a), NodeId::new(c))?;
            }
        }
    } else {
        let mut all: Vec<(u32, u32)> = Vec::with_capacity(max_edges);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                all.push((i, j));
            }
        }
        // Partial Fisher–Yates: the first m entries become a uniform
        // m-subset.
        for i in 0..m {
            let j = rng.gen_range(i..all.len());
            all.swap(i, j);
            let (a, c) = all[i];
            b.add_edge(NodeId::new(a), NodeId::new(c))?;
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gnp_rejects_bad_probability() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(erdos_renyi_gnp(10, -0.1, &mut rng).is_err());
        assert!(erdos_renyi_gnp(10, 1.5, &mut rng).is_err());
        assert!(erdos_renyi_gnp(10, f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi_gnp(10, 0.0, &mut rng).unwrap();
        assert_eq!(g.edge_count(), 0);
        let g = erdos_renyi_gnp(10, 1.0, &mut rng).unwrap();
        assert_eq!(g.edge_count(), 45);
    }

    #[test]
    fn gnp_edge_count_is_near_expectation() {
        let mut rng = StdRng::seed_from_u64(2);
        let (n, p) = (500, 0.02);
        let g = erdos_renyi_gnp(n, p, &mut rng).unwrap();
        let expected = p * (n * (n - 1) / 2) as f64;
        let sd = (expected * (1.0 - p)).sqrt();
        let got = g.edge_count() as f64;
        assert!(
            (got - expected).abs() < 6.0 * sd,
            "edge count {got} too far from expectation {expected}"
        );
    }

    #[test]
    fn gnm_produces_exact_edge_count() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(n, m) in &[(10usize, 0usize), (10, 45), (20, 30), (30, 300)] {
            let g = erdos_renyi_gnm(n, m, &mut rng).unwrap();
            assert_eq!(g.edge_count(), m, "n={n} m={m}");
            assert_eq!(g.node_count(), n);
        }
    }

    #[test]
    fn gnm_rejects_impossible_edge_count() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(erdos_renyi_gnm(4, 7, &mut rng).is_err());
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let g1 = erdos_renyi_gnp(200, 0.03, &mut StdRng::seed_from_u64(99)).unwrap();
        let g2 = erdos_renyi_gnp(200, 0.03, &mut StdRng::seed_from_u64(99)).unwrap();
        assert_eq!(g1.edges(), g2.edges());
        let g3 = erdos_renyi_gnm(200, 300, &mut StdRng::seed_from_u64(99)).unwrap();
        let g4 = erdos_renyi_gnm(200, 300, &mut StdRng::seed_from_u64(99)).unwrap();
        assert_eq!(g3.edges(), g4.edges());
    }
}
