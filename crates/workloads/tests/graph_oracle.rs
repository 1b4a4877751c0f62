//! Equivalence of the production graph generator against a test-only
//! reference, plus golden pins of the two social graphs the paper suite
//! runs BFS on.
//!
//! [`preferential_attachment`] builds its CSR straight from the attachment
//! pool, which already lists every edge once per draw. The reference is the
//! old generator: it fills an explicit edge list, both directions of each
//! draw in order, and hands it to [`Graph::from_edges`]. Both draw from the
//! same RNG in the same order, so every graph must be equal, offsets and
//! edge order included.

use nvmx_workloads::graph::{
    facebook_like, preferential_attachment, wikipedia_like, Graph, MemoryCounter,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The edge-list generator `preferential_attachment` replaced.
fn reference(name: &str, n: usize, m: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edge_list: Vec<(u32, u32)> = Vec::with_capacity(2 * n * m);
    let mut pool: Vec<u32> = (0..m as u32).collect();
    for v in m..n {
        for _ in 0..m {
            let target = pool[rng.gen_range(0..pool.len())];
            edge_list.push((v as u32, target));
            edge_list.push((target, v as u32));
            pool.push(target);
            pool.push(v as u32);
        }
    }
    Graph::from_edges(name, n, &edge_list)
}

/// FNV-1a-64 over the CSR's `offsets` and then its `edges`, each `u32`
/// as little-endian bytes.
fn csr_hash(graph: &Graph) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u32| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut offset = 0u32;
    eat(offset);
    for v in 0..graph.num_nodes() as u32 {
        offset += graph.neighbors(v).len() as u32;
        eat(offset);
    }
    for v in 0..graph.num_nodes() as u32 {
        graph.neighbors(v).iter().for_each(|&u| eat(u));
    }
    hash
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pool_built_csr_equals_the_edge_list_reference(
        (n, m) in (1usize..=8).prop_flat_map(|m| (m + 1..=m + 120, Just(m))),
        seed in any::<u64>(),
    ) {
        prop_assert_eq!(
            preferential_attachment("g", n, m, seed),
            reference("g", n, m, seed),
            "n {} m {} seed {}", n, m, seed
        );
    }

    #[test]
    fn pool_built_csr_equals_the_reference_when_m_is_close_to_n(
        (n, m) in (1usize..=8).prop_flat_map(|m| (m + 1..=m + 3, Just(m))),
        seed in any::<u64>(),
    ) {
        prop_assert_eq!(
            preferential_attachment("g", n, m, seed),
            reference("g", n, m, seed),
            "n {} m {} seed {}", n, m, seed
        );
    }
}

#[test]
fn social_graphs_equal_the_reference() {
    assert_eq!(facebook_like(7), reference("Facebook-Graph", 40_000, 20, 7));
    assert_eq!(
        wikipedia_like(7),
        reference("Wikipedia-Graph", 120_000, 8, 7)
    );
}

/// The paper suite's graphs (seed 7) and their BFS counts from node 0, as
/// the edge-list generator produced them.
#[test]
fn social_graphs_are_pinned() {
    for (graph, hash, visited, reads, writes) in [
        (
            facebook_like(7),
            0xd5f9_2052_d290_75d7,
            40_000,
            3_278_180,
            1_679_090,
        ),
        (
            wikipedia_like(7),
            0xffcf_8504_7a5e_3e9d,
            120_000,
            4_079_688,
            2_159_844,
        ),
    ] {
        let (got_visited, counter) = graph.bfs(0);
        assert_eq!(
            (csr_hash(&graph), got_visited, counter),
            (hash, visited, MemoryCounter { reads, writes }),
            "{} moved: hash {:#018x}",
            graph.name,
            csr_hash(&graph)
        );
    }
}
