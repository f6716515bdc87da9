//! A torus/mesh interconnection network with dimension-ordered routing.
//!
//! The next-hop rule itself lives in [`topology::routing`] and is shared
//! with the congestion model in the `embeddings` crate, so the simulator and
//! the analytical model can never disagree about which arc a route takes.

use topology::csr::CsrAdjacency;
use topology::routing::next_hop_toward;
use topology::{DigitTable, Grid};

/// A network instance: a torus or mesh topology plus the routing metadata the
/// simulator needs (materialized adjacency and per-node coordinates).
#[derive(Clone, Debug)]
pub struct Network {
    /// The topology with every node's coordinates, so routes and hop counts
    /// never decode an index.
    table: DigitTable,
    adjacency: CsrAdjacency,
}

impl Network {
    /// Builds a network over the given topology.
    ///
    /// # Panics
    ///
    /// Panics if the topology is too large to materialize (more than
    /// `u32::MAX` nodes); the simulator is meant for networks that fit in
    /// memory.
    pub fn new(grid: Grid) -> Self {
        let adjacency = CsrAdjacency::build(&grid).expect("network fits in memory");
        Network {
            table: grid.digit_table(),
            adjacency,
        }
    }

    /// The underlying topology.
    pub fn grid(&self) -> &Grid {
        self.table.grid()
    }

    /// The topology's digit table, which every route is walked over.
    pub(crate) fn table(&self) -> &DigitTable {
        &self.table
    }

    /// The number of nodes.
    pub fn size(&self) -> u64 {
        self.grid().size()
    }

    /// The materialized adjacency.
    pub fn adjacency(&self) -> &CsrAdjacency {
        &self.adjacency
    }

    /// The next hop from `from` toward `to` under dimension-ordered routing:
    /// correct the lowest-index dimension whose coordinate differs, moving in
    /// the shorter direction (with wrap-around only on toruses, equidistant
    /// arcs forward) — the shared rule of [`topology::routing`].
    ///
    /// Returns `None` if `from == to`.
    pub fn next_hop(&self, from: u64, to: u64) -> Option<u64> {
        let table = &self.table;
        next_hop_toward(table.grid(), table.row(from), from, table.row(to))
    }

    /// The full dimension-ordered route from `from` to `to`, excluding the
    /// source and including the destination.
    pub fn route(&self, from: u64, to: u64) -> Vec<u64> {
        let mut path = Vec::new();
        self.route_into(from, to, &mut path);
        path
    }

    /// Appends the dimension-ordered route from `from` to `to` (excluding
    /// the source, including the destination) to `out`.
    ///
    /// This is the batched form of [`Network::route`]: the route is walked
    /// over the two nodes' rows of the digit table, so expanding millions of
    /// routes into reused (or shared, flat) hop buffers never touches the
    /// allocator beyond the buffer's own growth.
    pub fn route_into(&self, from: u64, to: u64, out: &mut Vec<u64>) {
        self.table
            .for_each_hop(from, to, |_, _, after| out.push(after));
    }

    /// The number of hops of the dimension-ordered route — equal to the
    /// shortest-path distance for toruses and meshes.
    pub fn hops(&self, from: u64, to: u64) -> u64 {
        self.table.distance(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::Shape;

    fn network(kind_torus: bool, radices: &[u32]) -> Network {
        let shape = Shape::new(radices.to_vec()).unwrap();
        Network::new(if kind_torus {
            Grid::torus(shape)
        } else {
            Grid::mesh(shape)
        })
    }

    #[test]
    fn routes_have_shortest_length() {
        for net in [
            network(true, &[4, 2, 3]),
            network(false, &[4, 2, 3]),
            network(true, &[5, 5]),
            network(false, &[3, 3, 3]),
        ] {
            for from in 0..net.size() {
                for to in 0..net.size() {
                    let route = net.route(from, to);
                    assert_eq!(
                        route.len() as u64,
                        net.hops(from, to),
                        "route length from {from} to {to} in {}",
                        net.grid()
                    );
                    // Every step moves between adjacent nodes.
                    let mut previous = from;
                    for &step in &route {
                        assert!(net.grid().adjacent(previous, step).unwrap());
                        previous = step;
                    }
                    if from != to {
                        assert_eq!(*route.last().unwrap(), to);
                    } else {
                        assert!(route.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn torus_routes_use_wraparound() {
        let net = network(true, &[8]);
        // From 0 to 7 the shorter arc goes backwards through the wrap edge.
        assert_eq!(net.route(0, 7), vec![7]);
        assert_eq!(net.route(0, 6), vec![7, 6]);
    }

    #[test]
    fn mesh_routes_never_wrap() {
        let net = network(false, &[8]);
        assert_eq!(net.route(0, 7).len(), 7);
    }

    #[test]
    fn next_hop_of_identical_nodes_is_none() {
        let net = network(true, &[3, 3]);
        assert_eq!(net.next_hop(4, 4), None);
    }

    #[test]
    fn route_into_appends_to_a_reused_buffer() {
        let net = network(true, &[4, 2, 3]);
        let mut buffer = Vec::new();
        for from in 0..net.size() {
            for to in 0..net.size() {
                let start = buffer.len();
                net.route_into(from, to, &mut buffer);
                assert_eq!(&buffer[start..], net.route(from, to).as_slice());
            }
        }
    }

    #[test]
    fn equidistant_arcs_route_forward() {
        // Even radix: node 0 to its antipode 2 on a 4-ring has two length-2
        // arcs; the shared tie-break must take the forward one through 1.
        let net = network(true, &[4]);
        assert_eq!(net.next_hop(0, 2), Some(1));
        assert_eq!(net.route(0, 2), vec![1, 2]);
    }
}
