//! Problem graphs for MAX-CUT workloads.

/// An undirected weighted graph on `n` vertices.
///
/// # Examples
///
/// ```
/// use qtenon_workloads::Graph;
///
/// let g = Graph::circulant_3_regular(6);
/// assert_eq!(g.n_vertices(), 6);
/// assert_eq!(g.edges().len(), 9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    n: u32,
    edges: Vec<(u32, u32, f64)>,
}

impl Graph {
    /// The unit-weight cycle graph C_n.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub(crate) fn ring(n: u32) -> Self {
        assert!(n >= 3, "ring needs at least 3 vertices");
        let edges = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        Graph { n, edges }
    }

    /// A deterministic 3-regular graph: the ring plus diameter chords.
    /// This is the MAX-CUT instance family used for the QAOA benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `n` is odd or `n < 4`.
    pub fn circulant_3_regular(n: u32) -> Self {
        assert!(
            n >= 4 && n.is_multiple_of(2),
            "3-regular circulant needs even n ≥ 4"
        );
        let mut edges: Vec<(u32, u32, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        for i in 0..n / 2 {
            edges.push((i, i + n / 2, 1.0));
        }
        Graph { n, edges }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> u32 {
        self.n
    }

    /// The edge list.
    pub fn edges(&self) -> &[(u32, u32, f64)] {
        &self.edges
    }

    /// Greedy edge coloring: partitions the edges into matchings
    /// (vertex-disjoint groups). QAOA cost terms commute, so each
    /// matching's two-qubit interactions run in parallel on hardware —
    /// without this, a ring's edges would serialize into a wavefront.
    pub fn matchings(&self) -> Vec<Vec<(u32, u32, f64)>> {
        let mut groups: Vec<Vec<(u32, u32, f64)>> = Vec::new();
        let mut used: Vec<Vec<bool>> = Vec::new();
        for &(u, v, w) in &self.edges {
            let slot = (0..groups.len())
                .find(|&g| !used[g][u as usize] && !used[g][v as usize])
                .unwrap_or_else(|| {
                    groups.push(Vec::new());
                    used.push(vec![false; self.n as usize]);
                    groups.len() - 1
                });
            groups[slot].push((u, v, w));
            used[slot][u as usize] = true;
            used[slot][v as usize] = true;
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Graph {
        /// The maximum vertex degree.
        fn max_degree(&self) -> usize {
            let mut deg = vec![0usize; self.n as usize];
            for &(u, v, _) in &self.edges {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
            }
            deg.into_iter().max().unwrap_or(0)
        }
    }

    #[test]
    fn ring_structure() {
        let g = Graph::ring(5);
        assert_eq!(g.n_vertices(), 5);
        assert_eq!(g.edges().len(), 5);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn circulant_is_3_regular() {
        for n in [4u32, 8, 16, 64] {
            let g = Graph::circulant_3_regular(n);
            assert_eq!(g.edges().len() as u32, n + n / 2);
            assert_eq!(g.max_degree(), 3, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "even n")]
    fn odd_circulant_rejected() {
        let _ = Graph::circulant_3_regular(5);
    }
}
