//! Graph-analytics substrate (paper Sec. IV-B): synthetic scale-free graph
//! generation, CSR storage, and instrumented kernels (BFS, PageRank,
//! connected components) whose memory-access counts convert into
//! [`TrafficPattern`]s for a Graphicionado-style accelerator.
//!
//! The paper runs breadth-first search over SNAP's Facebook and Wikipedia
//! graphs; those datasets are substituted by preferential-attachment
//! generators with matched degree skew and scaled node/edge counts
//! (substitution documented in DESIGN.md).

use crate::traffic::TrafficPattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An unweighted directed graph in compressed-sparse-row form.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// Display name.
    pub name: String,
    offsets: Vec<u32>,
    edges: Vec<u32>,
}

/// Counts word-granularity memory reads and writes a kernel performs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryCounter {
    /// 8-byte reads.
    pub reads: u64,
    /// 8-byte writes.
    pub writes: u64,
}

impl MemoryCounter {
    /// Bytes read (8 B words).
    pub fn read_bytes(&self) -> u64 {
        self.reads * 8
    }

    /// Bytes written (8 B words).
    pub fn write_bytes(&self) -> u64 {
        self.writes * 8
    }
}

impl Graph {
    /// Builds a graph from an edge list (duplicates kept, self-loops
    /// dropped).
    pub fn from_edges(name: impl Into<String>, n: usize, edge_list: &[(u32, u32)]) -> Self {
        Self::from_edge_iter(name.into(), n, edge_list.iter().copied())
    }

    /// [`Graph::from_edges`] over edges yielded in order: one pass counts
    /// the degrees, a second fills the CSR. Both passes iterate internally
    /// (`for_each`), which keeps a flattened iterator such as
    /// [`preferential_attachment`]'s a plain loop; an external `for` over
    /// it runs about twice as slow.
    fn from_edge_iter(
        name: String,
        n: usize,
        edge_list: impl Iterator<Item = (u32, u32)> + Clone,
    ) -> Self {
        let arcs = edge_list.filter(|&(src, dst)| src != dst);
        let mut degree = vec![0u32; n];
        arcs.clone().for_each(|(src, _)| degree[src as usize] += 1);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for d in &degree {
            offsets.push(offsets.last().expect("nonempty") + d);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut edges = vec![0u32; *offsets.last().expect("nonempty") as usize];
        arcs.for_each(|(src, dst)| {
            edges[cursor[src as usize] as usize] = dst;
            cursor[src as usize] += 1;
        });
        Self {
            name,
            offsets,
            edges,
        }
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Edge count.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Out-neighbors of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let start = self.offsets[v as usize] as usize;
        let end = self.offsets[v as usize + 1] as usize;
        &self.edges[start..end]
    }

    /// Breadth-first search from `source`; returns the visited count and the
    /// memory-access counter.
    ///
    /// Counted accesses: one offsets read + one per scanned edge, one
    /// visited-bitmap read per edge, one frontier write + one visited write
    /// per discovered node.
    pub fn bfs(&self, source: u32) -> (usize, MemoryCounter) {
        let mut counter = MemoryCounter::default();
        let n = self.num_nodes();
        let mut visited = vec![false; n];
        let mut frontier = vec![source];
        visited[source as usize] = true;
        counter.writes += 2; // seed frontier + visited
        let mut discovered = 1usize;

        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                counter.reads += 2; // offsets[v], offsets[v+1]
                for &u in self.neighbors(v) {
                    counter.reads += 2; // edge word + visited[u]
                                        // Graphicionado-style scatter: every scanned edge
                                        // enqueues an update message to the scratchpad.
                    counter.writes += 1;
                    if !visited[u as usize] {
                        visited[u as usize] = true;
                        next.push(u);
                        counter.writes += 2; // visited + next-frontier
                        discovered += 1;
                    }
                }
            }
            frontier = next;
        }
        (discovered, counter)
    }

    /// `iterations` of synchronous PageRank; returns final ranks and the
    /// counter.
    #[allow(clippy::needless_range_loop)] // v indexes rank and names the node
    pub fn pagerank(&self, iterations: usize) -> (Vec<f64>, MemoryCounter) {
        let mut counter = MemoryCounter::default();
        let n = self.num_nodes();
        let mut rank = vec![1.0 / n as f64; n];
        const DAMPING: f64 = 0.85;
        for _ in 0..iterations {
            let mut next = vec![(1.0 - DAMPING) / n as f64; n];
            for v in 0..n {
                counter.reads += 3; // offsets pair + rank[v]
                let degree = self.neighbors(v as u32).len();
                if degree == 0 {
                    continue;
                }
                let share = DAMPING * rank[v] / degree as f64;
                for &u in self.neighbors(v as u32) {
                    counter.reads += 2; // edge + next[u]
                    counter.writes += 1; // next[u]
                    next[u as usize] += share;
                }
            }
            rank = next;
            counter.writes += n as u64; // commit the iteration
        }
        (rank, counter)
    }

    /// Label-propagation connected components (on the underlying undirected
    /// structure approximated by out-edges); returns component count and the
    /// counter.
    pub fn connected_components(&self) -> (usize, MemoryCounter) {
        let mut counter = MemoryCounter::default();
        let n = self.num_nodes();
        let mut label: Vec<u32> = (0..n as u32).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for v in 0..n {
                counter.reads += 3;
                for &u in self.neighbors(v as u32) {
                    counter.reads += 2;
                    let (lv, lu) = (label[v], label[u as usize]);
                    if lu > lv {
                        label[u as usize] = lv;
                        counter.writes += 1;
                        changed = true;
                    } else if lv > lu {
                        label[v] = lu;
                        counter.writes += 1;
                        changed = true;
                    }
                }
            }
        }
        let mut roots: Vec<u32> = label.clone();
        roots.sort_unstable();
        roots.dedup();
        (roots.len(), counter)
    }
}

/// Generates a scale-free graph by preferential attachment: `n` nodes, each
/// new node attaching `m` edges biased toward high-degree targets. Edges are
/// materialized in both directions (social graphs are undirected), so early
/// hub nodes end up with heavy-tailed degree.
///
/// The attachment pool is the edge list: after the `m` seed nodes, each
/// draw appends `target, v`, which are exactly the edges `(v, target)` and
/// `(target, v)` it adds, so the CSR is built straight from the pool (sized
/// once, `m + 2(n − m)m` entries) and no separate edge list is kept.
pub fn preferential_attachment(name: impl Into<String>, n: usize, m: usize, seed: u64) -> Graph {
    assert!(n > m && m >= 1, "need n > m >= 1");
    let mut rng = StdRng::seed_from_u64(seed);
    // Target pool with degree-proportional duplication.
    let mut pool: Vec<u32> = Vec::with_capacity(m + 2 * (n - m) * m);
    pool.extend(0..m as u32);
    for v in m..n {
        for _ in 0..m {
            let target = pool[rng.gen_range(0..pool.len())];
            // Both endpoints gain "degree" in the pool.
            pool.push(target);
            pool.push(v as u32);
        }
    }
    let draws = pool[m..].chunks_exact(2);
    let edge_list = draws.flat_map(|draw| [(draw[1], draw[0]), (draw[0], draw[1])]);
    Graph::from_edge_iter(name.into(), n, edge_list)
}

/// A scaled stand-in for the SNAP Facebook social graph (high clustering,
/// moderate size): 40 k nodes, ~20 edges/node.
pub fn facebook_like(seed: u64) -> Graph {
    preferential_attachment("Facebook-Graph", 40_000, 20, seed)
}

/// A scaled stand-in for the SNAP Wikipedia graph (larger, sparser):
/// 120 k nodes, ~8 edges/node.
pub fn wikipedia_like(seed: u64) -> Graph {
    preferential_attachment("Wikipedia-Graph", 120_000, 8, seed)
}

/// Converts a kernel's access counts into sustained scratchpad traffic for a
/// Graphicionado-class accelerator processing `edges_per_sec` edges.
///
/// The paper extracts traffic from the accelerator's compute stream against
/// its 8 MB scratchpad; execution time is `edges / edges_per_sec`.
pub fn accelerator_traffic(
    graph: &Graph,
    kernel_name: &str,
    counter: MemoryCounter,
    edges_per_sec: f64,
) -> TrafficPattern {
    KernelCounts::new(graph, counter).traffic(kernel_name, edges_per_sec)
}

/// A kernel's access counts together with the two graph facts
/// [`accelerator_traffic`] reads (name and edge count), so the counts can
/// outlive the graph they came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelCounts {
    /// The graph's display name.
    pub graph: String,
    /// The graph's edge count.
    pub edges: usize,
    /// What the kernel read and wrote.
    pub counter: MemoryCounter,
}

impl KernelCounts {
    /// Keeps `graph`'s name and edge count alongside `counter`.
    pub fn new(graph: &Graph, counter: MemoryCounter) -> Self {
        Self {
            graph: graph.name.clone(),
            edges: graph.num_edges(),
            counter,
        }
    }

    /// [`accelerator_traffic`] on the graph these counts came from.
    pub fn traffic(&self, kernel_name: &str, edges_per_sec: f64) -> TrafficPattern {
        let exec_seconds = self.edges as f64 / edges_per_sec;
        TrafficPattern::new(
            format!("{}-{kernel_name}", self.graph),
            self.counter.read_bytes() as f64 / exec_seconds,
            self.counter.write_bytes() as f64 / exec_seconds,
            8,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph() -> Graph {
        // 0 → 1 → 2 → 3
        Graph::from_edges("line", 4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn csr_construction() {
        let g = line_graph();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
    }

    #[test]
    fn bfs_visits_reachable_nodes() {
        let g = line_graph();
        let (visited, counter) = g.bfs(0);
        assert_eq!(visited, 4);
        assert!(counter.reads > 0 && counter.writes > 0);
        let (from_tail, _) = g.bfs(3);
        assert_eq!(from_tail, 1);
    }

    #[test]
    fn bfs_reads_dominate_writes() {
        // Paper: graph processing is read-dominated (though the scatter
        // stream keeps meaningful write traffic flowing).
        let g = facebook_like(1);
        let (_, counter) = g.bfs(0);
        assert!(
            2 * counter.reads >= 3 * counter.writes,
            "reads {} writes {}",
            counter.reads,
            counter.writes
        );
    }

    #[test]
    fn pagerank_conserves_probability_mass() {
        let g = preferential_attachment("t", 500, 4, 3);
        let (rank, counter) = g.pagerank(10);
        let total: f64 = rank.iter().sum();
        // Out-edge sinks leak a little mass; stay within a loose band.
        assert!((0.3..=1.01).contains(&total), "total rank {total}");
        assert!(counter.reads > 0);
    }

    #[test]
    fn connected_components_on_split_graph() {
        let g = Graph::from_edges("two", 4, &[(0, 1), (2, 3)]);
        let (components, _) = g.connected_components();
        assert_eq!(components, 2);
    }

    #[test]
    fn preferential_attachment_is_skewed() {
        let g = facebook_like(7);
        assert_eq!(g.num_nodes(), 40_000);
        let max_degree = (0..g.num_nodes() as u32)
            .map(|v| g.neighbors(v).len())
            .max()
            .unwrap_or(0);
        let avg = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            max_degree as f64 > 10.0 * avg,
            "expected heavy tail: max {max_degree}, avg {avg}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = facebook_like(5);
        let b = facebook_like(5);
        assert_eq!(a, b);
    }

    #[test]
    fn accelerator_traffic_in_paper_range() {
        // BFS on the Facebook-like graph at ~1 G edges/s must land inside
        // the paper's generic envelope (reads 1–10 GB/s).
        let g = facebook_like(11);
        let (_, counter) = g.bfs(0);
        let t = accelerator_traffic(&g, "BFS", counter, 1.0e9);
        assert!(
            (0.5e9..40.0e9).contains(&t.read_bytes_per_sec),
            "read rate {}",
            t.read_bytes_per_sec
        );
        assert!(t.read_fraction() > 0.6);
    }
}
