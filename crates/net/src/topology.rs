//! k-ary n-cube topology and dimension-order routing.
//!
//! "The ALEWIFE system uses a low-dimension direct network. Such
//! networks scale easily and maintain high nearest-neighbor bandwidth"
//! (paper, Section 2.1). The scalability analysis of Section 8 assumes
//! 8000 processors in a three-dimensional array of radix 20, giving an
//! average of nk/3 = 20 hops between a random pair of nodes.

use std::fmt;

/// A k-ary n-cube (n-dimensional array of radix k) with bidirectional
/// channels and no wraparound (a mesh, matching the paper's "array").
///
/// # Examples
///
/// ```
/// use april_net::topology::Topology;
///
/// let t = Topology::new(3, 20);
/// assert_eq!(t.num_nodes(), 8000);
/// assert_eq!(t.distance(0, t.num_nodes() - 1), 3 * 19);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Dimensionality `n`.
    pub dim: usize,
    /// Radix `k` (nodes per dimension).
    pub radix: usize,
}

/// One directed channel: from `node` along `dim` in direction `plus`.
/// Channels order by `(node, dim, plus)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Channel {
    /// Source node of the channel.
    pub node: usize,
    /// Dimension index.
    pub dim: usize,
    /// True for the increasing direction.
    pub plus: bool,
}

/// Why [`Topology::try_new`] refused a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// A zero dimension or radix.
    Degenerate,
    /// `radix^dim` does not fit in `usize` — in release builds the
    /// unchecked power would silently wrap, so large meshes must be
    /// rejected at construction, not at first (mis)use.
    Overflow,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Degenerate => write!(f, "degenerate topology (zero dim or radix)"),
            TopologyError::Overflow => write!(f, "radix^dim overflows the node count"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl Topology {
    /// Creates a topology with `dim` dimensions of `radix` nodes each,
    /// rejecting degenerate shapes and node counts that overflow
    /// `usize` (a hazard for paper-scale configs like 3-D radix-20 on
    /// small targets, and for typos like `new(20, 3000)` anywhere).
    pub fn try_new(dim: usize, radix: usize) -> Result<Topology, TopologyError> {
        if dim == 0 || radix == 0 {
            return Err(TopologyError::Degenerate);
        }
        let dim32 = u32::try_from(dim).map_err(|_| TopologyError::Overflow)?;
        radix.checked_pow(dim32).ok_or(TopologyError::Overflow)?;
        Ok(Topology { dim, radix })
    }

    /// Creates a topology with `dim` dimensions of `radix` nodes each.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero or if the node count
    /// `radix^dim` overflows `usize` (see [`Topology::try_new`] for
    /// the non-panicking form).
    pub fn new(dim: usize, radix: usize) -> Topology {
        match Topology::try_new(dim, radix) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Total number of nodes, k^n.
    pub fn num_nodes(&self) -> usize {
        // Constructors reject overflowing shapes, but a Topology can be
        // built by literal struct syntax; keep the check on in release.
        self.radix
            .checked_pow(self.dim as u32)
            .expect("radix^dim overflows the node count")
    }

    /// Total number of directed channels.
    pub fn num_channels(&self) -> usize {
        // Per dimension: (k-1) internal links per row, 2 directions,
        // k^(n-1) rows. Bounded by dim * 2 * num_nodes; the node count
        // is overflow-checked, so check the final product too.
        (self.dim * 2 * (self.radix - 1))
            .checked_mul(self.radix.pow(self.dim as u32 - 1))
            .expect("channel count overflows")
    }

    /// The coordinates of `node`.
    pub fn coords(&self, node: usize) -> Vec<usize> {
        let mut c = Vec::with_capacity(self.dim);
        let mut v = node;
        for _ in 0..self.dim {
            c.push(v % self.radix);
            v /= self.radix;
        }
        c
    }

    /// The node at the given coordinates.
    pub fn node_at(&self, coords: &[usize]) -> usize {
        coords.iter().rev().fold(0, |acc, &c| acc * self.radix + c)
    }

    /// Manhattan distance (number of hops) between two nodes.
    pub fn distance(&self, a: usize, b: usize) -> usize {
        let (mut a, mut b) = (a, b);
        let mut d = 0;
        for _ in 0..self.dim {
            d += (a % self.radix).abs_diff(b % self.radix);
            a /= self.radix;
            b /= self.radix;
        }
        d
    }

    /// Dimension-order routing: the channel and next node for a packet
    /// at `cur` heading to `dst`, or `None` if already there. The
    /// network's own router precomputes the digits this peels, and is
    /// tested against it.
    pub fn next_hop(&self, cur: usize, dst: usize) -> Option<(Channel, usize)> {
        if cur == dst {
            return None;
        }
        let (mut c, mut t) = (cur, dst);
        let mut stride = 1;
        for dim in 0..self.dim {
            let (cc, cd) = (c % self.radix, t % self.radix);
            if cc != cd {
                let plus = cd > cc;
                let next = if plus { cur + stride } else { cur - stride };
                return Some((
                    Channel {
                        node: cur,
                        dim,
                        plus,
                    },
                    next,
                ));
            }
            c /= self.radix;
            t /= self.radix;
            stride *= self.radix;
        }
        unreachable!("coords equal but nodes differ");
    }

    /// The neighbor of `cur` along `dim` in direction `plus`, or `None`
    /// at the mesh edge (no wraparound).
    pub fn neighbor(&self, cur: usize, dim: usize, plus: bool) -> Option<usize> {
        let stride = self.radix.pow(dim as u32);
        let coord = (cur / stride) % self.radix;
        if plus {
            (coord + 1 < self.radix).then(|| cur + stride)
        } else {
            (coord > 0).then(|| cur - stride)
        }
    }

    /// Minimal-detour avoidance routing: the first hop of a shortest
    /// path from `cur` to `dst` that uses no channel for which
    /// `avoid(channel, next_node)` is true, or `None` if every path is
    /// blocked (the caller turns that into a typed dead letter).
    ///
    /// The choice is deterministic: a reverse BFS from `dst` labels
    /// every node with its alive-graph distance, and candidates at
    /// `cur` are examined in dimension order with the direction toward
    /// `dst` first — so with nothing avoided this degenerates to
    /// exactly [`Topology::next_hop`], and following the rule hop by
    /// hop strictly descends the distance gradient (no loops).
    ///
    /// # Panics
    ///
    /// Panics if `cur == dst` (route before calling, as
    /// [`Topology::next_hop`]'s `None` contract does).
    pub fn next_hop_avoiding(
        &self,
        cur: usize,
        dst: usize,
        avoid: &dyn Fn(Channel, usize) -> bool,
    ) -> Option<(Channel, usize)> {
        assert!(cur != dst, "already at destination");
        // Reverse BFS from dst over alive channels: dist[u] = alive
        // hops from u to dst.
        let n = self.num_nodes();
        let mut dist = vec![u32::MAX; n];
        dist[dst] = 0;
        let mut queue = std::collections::VecDeque::with_capacity(n);
        queue.push_back(dst);
        while let Some(v) = queue.pop_front() {
            for d in 0..self.dim {
                for plus in [false, true] {
                    // Predecessor u with an alive channel u -> v.
                    let Some(u) = self.neighbor(v, d, plus) else {
                        continue;
                    };
                    if dist[u] != u32::MAX {
                        continue;
                    }
                    let ch = Channel {
                        node: u,
                        dim: d,
                        plus: !plus,
                    };
                    if avoid(ch, v) {
                        continue;
                    }
                    dist[u] = dist[v] + 1;
                    queue.push_back(u);
                }
            }
        }
        if dist[cur] == u32::MAX {
            return None;
        }
        // First neighbor on the gradient, dimension-ordered, toward-dst
        // direction first.
        let (cc, cd) = (self.coords(cur), self.coords(dst));
        for d in 0..self.dim {
            let dirs = if cd[d] >= cc[d] {
                [true, false]
            } else {
                [false, true]
            };
            for plus in dirs {
                let Some(next) = self.neighbor(cur, d, plus) else {
                    continue;
                };
                let ch = Channel {
                    node: cur,
                    dim: d,
                    plus,
                };
                if !avoid(ch, next) && dist[next] != u32::MAX && dist[next] + 1 == dist[cur] {
                    return Some((ch, next));
                }
            }
        }
        unreachable!("finite distance implies a gradient neighbor");
    }

    /// Average hop count between uniformly random node pairs, which the
    /// paper approximates as nk/3.
    pub fn avg_distance_estimate(&self) -> f64 {
        self.dim as f64 * self.radix as f64 / 3.0
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-ary {}-cube ({} nodes)",
            self.radix,
            self.dim,
            self.num_nodes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let t = Topology::new(3, 4);
        for n in 0..t.num_nodes() {
            assert_eq!(t.node_at(&t.coords(n)), n);
        }
    }

    #[test]
    fn paper_configuration() {
        let t = Topology::new(3, 20);
        assert_eq!(t.num_nodes(), 8000);
        assert!((t.avg_distance_estimate() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn dimension_order_route_reaches_destination() {
        let t = Topology::new(2, 4);
        let (src, dst) = (0, 15); // (0,0) -> (3,3)
        let mut cur = src;
        let mut hops = 0;
        while let Some((ch, next)) = t.next_hop(cur, dst) {
            assert_eq!(ch.node, cur);
            cur = next;
            hops += 1;
            assert!(hops <= 6, "route too long");
        }
        assert_eq!(cur, dst);
        assert_eq!(hops, t.distance(src, dst));
    }

    #[test]
    fn routing_is_dimension_ordered() {
        let t = Topology::new(2, 4);
        // From (1,1)=5 to (3,3)=15: x first.
        let (ch, next) = t.next_hop(5, 15).unwrap();
        assert_eq!(ch.dim, 0);
        assert!(ch.plus);
        assert_eq!(next, 6);
    }

    #[test]
    fn distance_is_symmetric_and_triangle() {
        let t = Topology::new(3, 3);
        for a in 0..t.num_nodes() {
            for b in 0..t.num_nodes() {
                assert_eq!(t.distance(a, b), t.distance(b, a));
            }
        }
        assert_eq!(t.distance(0, 0), 0);
    }

    #[test]
    fn avoidance_routing_matches_dimension_order_when_unconstrained() {
        let t = Topology::new(2, 4);
        let none = |_: Channel, _: usize| false;
        for src in 0..t.num_nodes() {
            for dst in 0..t.num_nodes() {
                if src == dst {
                    continue;
                }
                assert_eq!(
                    t.next_hop_avoiding(src, dst, &none),
                    t.next_hop(src, dst),
                    "{src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn avoidance_routing_detours_around_a_dead_link() {
        let t = Topology::new(2, 2);
        // Kill 0 -> 1 (dim 0, plus). Shortest alive path: 0 -> 2 -> 3 -> 1.
        let dead = Channel {
            node: 0,
            dim: 0,
            plus: true,
        };
        let avoid = move |ch: Channel, _: usize| ch == dead;
        let mut cur = 0;
        let mut path = vec![0];
        while cur != 1 {
            let (ch, next) = t.next_hop_avoiding(cur, 1, &avoid).expect("reachable");
            assert_ne!(ch, dead);
            cur = next;
            path.push(next);
            assert!(path.len() <= 4, "detour too long: {path:?}");
        }
        assert_eq!(path, vec![0, 2, 3, 1]);
    }

    #[test]
    fn avoidance_routing_reports_unreachable() {
        let t = Topology::new(1, 2);
        // The mesh's only 0 -> 1 channel is avoided: unreachable.
        let avoid = |ch: Channel, _: usize| ch.node == 0;
        assert_eq!(t.next_hop_avoiding(0, 1, &avoid), None);
        // The reverse direction is untouched.
        let (_, next) = t.next_hop_avoiding(1, 0, &avoid).expect("alive");
        assert_eq!(next, 0);
        // Avoiding the destination node itself is also unreachable.
        let t = Topology::new(2, 3);
        let avoid = |_: Channel, next: usize| next == 4;
        assert_eq!(t.next_hop_avoiding(0, 4, &avoid), None);
    }

    #[test]
    fn channel_count() {
        let t = Topology::new(2, 3);
        // 2 dims * 2 dirs * 2 links/row * 3 rows = 24.
        assert_eq!(t.num_channels(), 24);
    }

    #[test]
    fn try_new_rejects_degenerate_and_overflowing_shapes() {
        assert_eq!(Topology::try_new(0, 4), Err(TopologyError::Degenerate));
        assert_eq!(Topology::try_new(2, 0), Err(TopologyError::Degenerate));
        // 3000^20 overflows any usize; must be an error, not a wrap.
        assert_eq!(Topology::try_new(20, 3000), Err(TopologyError::Overflow));
        // usize::MAX dimensions cannot even convert to the pow exponent.
        assert_eq!(
            Topology::try_new(usize::MAX, 2),
            Err(TopologyError::Overflow)
        );
        // The paper's 8000-node mesh and the 1000+-node bench shapes
        // are fine.
        assert_eq!(Topology::try_new(3, 20).unwrap().num_nodes(), 8000);
        assert_eq!(Topology::try_new(2, 33).unwrap().num_nodes(), 1089);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn new_panics_on_overflow_in_release_too() {
        let _ = Topology::new(20, 3000);
    }
}
