//! The counting-sort `GraphBuilder` against an ordered-set reference:
//! for random edge lists with duplicates, both orientations and isolated
//! nodes, the built graph must have exactly the canonical edge list,
//! edge ids and CSR rows the reference derives from a `BTreeSet`.

use std::collections::BTreeSet;

use osn_graph::{EdgeId, GraphBuilder, NodeId};
use proptest::prelude::*;

/// A node count and an edge list over it, without self-loops. Each pair
/// may be followed by its reversed copy and by a repeat of an earlier
/// pair, so duplicates occur in both orientations. Endpoints are drawn
/// from the lower half of the ids, so the upper half stays isolated.
fn arb_edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (1usize..48).prop_flat_map(|n| {
        let hi = (n as u32).div_ceil(2).max(1);
        collection::vec((0..hi, 0..hi, 0u8..4), 0..160).prop_map(move |raw| {
            let mut pairs = Vec::new();
            for (x, y, dup) in raw {
                if x == y {
                    continue;
                }
                pairs.push((x, y));
                if dup & 1 == 1 {
                    pairs.push((y, x));
                }
                if dup & 2 == 2 {
                    pairs.push(pairs[pairs.len() / 2]);
                }
            }
            (n, pairs)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn builder_matches_btreeset_reference((n, pairs) in arb_edge_list()) {
        let mut b = GraphBuilder::new(n);
        for &(x, y) in &pairs {
            b.add_edge(NodeId::new(x), NodeId::new(y)).unwrap();
        }
        prop_assert_eq!(b.edge_count(), pairs.len());
        let g = b.build();

        let set: BTreeSet<(u32, u32)> = pairs.iter().map(|&(x, y)| (x.min(y), x.max(y))).collect();
        let reference: Vec<(u32, u32)> = set.into_iter().collect();
        let edges: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.lo().as_u32(), e.hi().as_u32())).collect();
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(&edges, &reference);

        // Reference CSR rows: each node's neighbors in ascending order,
        // each paired with the id (canonical position) of its edge.
        let mut rows: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); n];
        for (id, &(lo, hi)) in reference.iter().enumerate() {
            rows[lo as usize].push((NodeId::new(hi), EdgeId::from(id)));
            rows[hi as usize].push((NodeId::new(lo), EdgeId::from(id)));
        }
        for (v, row) in rows.iter_mut().enumerate() {
            row.sort_unstable();
            let got: Vec<(NodeId, EdgeId)> = g.neighbor_entries(NodeId::from(v)).collect();
            prop_assert_eq!(&got, row, "row {}", v);
        }
    }
}
