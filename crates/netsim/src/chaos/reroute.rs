//! Fault-aware routing: dimension-ordered routing with detours, and an
//! offline BFS table router as ground truth.
//!
//! Both routers consult only a [`FaultMask`] overlay; the pristine network
//! is never modified. Both report unreachability as the typed
//! [`RouteOutcome::Unreachable`] instead of panicking, so a faulted
//! simulation always completes and reports *how much* was lost.
//!
//! [`DetourRouter`] is the online router: it follows the pristine
//! dimension-ordered rule while the preferred arc is up, greedily misroutes
//! around masked links otherwise, and falls back to a masked-BFS escape walk
//! when greed strands it. Its reachability verdict *always* agrees with BFS
//! (the walked prefix proves the source and the escape point are in the same
//! masked component), and a delivered path is at most
//! `masked-BFS-hops + 2 × budget` hops long, where the budget is
//! `4 × diameter + 8` — the bound the differential property tests pin.
//!
//! [`TableRouter`] is the offline ground truth: per-destination reverse BFS
//! over the masked adjacency, cached per destination, walking shortest
//! masked paths with a smallest-index tie-break.

use std::collections::HashMap;

use crate::chaos::faults::{link_slot_between, FaultMask};
use crate::network::Network;

/// The typed result of routing one message on a degraded network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteOutcome {
    /// A path was found; `path` excludes the source and includes the
    /// destination (empty when source == destination).
    Delivered {
        /// The hop-by-hop path.
        path: Vec<u64>,
        /// Hops taken beyond the pristine shortest-path distance.
        detour_hops: u64,
    },
    /// No masked path exists (or an endpoint is down).
    Unreachable {
        /// The source node.
        from: u64,
        /// The destination node.
        to: u64,
    },
}

impl RouteOutcome {
    /// The delivered path, if any.
    pub fn path(&self) -> Option<&[u64]> {
        match self {
            RouteOutcome::Delivered { path, .. } => Some(path),
            RouteOutcome::Unreachable { .. } => None,
        }
    }
}

/// Distances to `to` over the masked graph, by reverse BFS from the
/// destination: `u64::MAX` marks unreachable nodes (and every node when the
/// destination itself is down).
pub fn masked_distances_to(network: &Network, mask: &FaultMask, to: u64) -> Vec<u64> {
    let n = network.size() as usize;
    let mut distance = vec![u64::MAX; n];
    if !mask.node_up(to) {
        return distance;
    }
    let grid = network.grid();
    let mut frontier = std::collections::VecDeque::new();
    distance[to as usize] = 0;
    frontier.push_back(to);
    while let Some(node) = frontier.pop_front() {
        let next = distance[node as usize] + 1;
        for &neighbor in network.adjacency().neighbors(node as usize) {
            let neighbor = u64::from(neighbor);
            if distance[neighbor as usize] != u64::MAX
                || !mask.node_up(neighbor)
                || !mask.link_up(link_slot_between(grid, node, neighbor))
            {
                continue;
            }
            distance[neighbor as usize] = next;
            frontier.push_back(neighbor);
        }
    }
    distance
}

/// Whether the directed step `from → to` is usable under `mask`: the far
/// endpoint and the connecting link are both up.
fn step_up(network: &Network, mask: &FaultMask, from: u64, to: u64) -> bool {
    mask.node_up(to) && mask.link_up(link_slot_between(network.grid(), from, to))
}

/// Walks from `current` down `distance`, a masked-BFS table on which
/// `current` is reachable, to the table's destination, appending each node
/// to `path`. Every step takes the smallest-index usable neighbor one hop
/// closer.
fn walk_downhill(
    network: &Network,
    mask: &FaultMask,
    distance: &[u64],
    mut current: u64,
    path: &mut Vec<u64>,
) {
    while distance[current as usize] > 0 {
        let downhill = network
            .adjacency()
            .neighbors(current as usize)
            .iter()
            .map(|&n| u64::from(n))
            .filter(|&n| {
                distance[n as usize] == distance[current as usize] - 1
                    && step_up(network, mask, current, n)
            })
            .min()
            .expect("a finite BFS distance always has a downhill neighbor");
        path.push(downhill);
        current = downhill;
    }
}

/// The online fault-aware router: DOR while possible, greedy misroute around
/// masked arcs, masked-BFS escape when stranded.
#[derive(Clone, Debug)]
pub struct DetourRouter<'a> {
    network: &'a Network,
    mask: &'a FaultMask,
    budget: u64,
}

impl<'a> DetourRouter<'a> {
    /// Binds the router to a network and a fault mask, with the default
    /// misroute budget of `4 × diameter + 8` hops.
    pub fn new(network: &'a Network, mask: &'a FaultMask) -> Self {
        let budget = 4 * network.grid().diameter() + 8;
        DetourRouter {
            network,
            mask,
            budget,
        }
    }

    /// The misroute budget: the maximum hops spent in the DOR/greedy phases
    /// before the router switches to the BFS escape walk.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Routes one message, returning the typed outcome. Deterministic: ties
    /// in the greedy phase break toward the pristine-closest then
    /// smallest-index neighbor, and the escape walk breaks ties toward the
    /// smallest index.
    pub fn route(&self, from: u64, to: u64) -> RouteOutcome {
        let network = self.network;
        let mask = self.mask;
        if !mask.node_up(from) || !mask.node_up(to) {
            return RouteOutcome::Unreachable { from, to };
        }
        if from == to {
            return RouteOutcome::Delivered {
                path: Vec::new(),
                detour_hops: 0,
            };
        }

        let mut visited = vec![false; network.size() as usize];
        visited[from as usize] = true;
        let mut current = from;
        let mut path: Vec<u64> = Vec::new();

        // Phases 1–2: pristine DOR while its arc is up, greedy misroute
        // otherwise, over a simple (visited-once) path with a hop budget.
        while current != to && (path.len() as u64) < self.budget {
            let preferred = network
                .next_hop(current, to)
                .filter(|&next| !visited[next as usize] && step_up(network, mask, current, next));
            let next = preferred.or_else(|| {
                network
                    .adjacency()
                    .neighbors(current as usize)
                    .iter()
                    .map(|&n| u64::from(n))
                    .filter(|&n| !visited[n as usize] && step_up(network, mask, current, n))
                    .min_by_key(|&n| (network.hops(n, to), n))
            });
            match next {
                Some(next) => {
                    visited[next as usize] = true;
                    path.push(next);
                    current = next;
                }
                None => break, // stranded: every usable neighbor already visited
            }
        }

        if current != to {
            // Phase 3: escape along shortest masked paths. The walked prefix
            // proves `from` and `current` share a masked component, so
            // reachability here is exactly BFS reachability from `from`.
            let distance = masked_distances_to(network, mask, to);
            if distance[current as usize] == u64::MAX {
                return RouteOutcome::Unreachable { from, to };
            }
            walk_downhill(network, mask, &distance, current, &mut path);
        }

        let detour_hops = path.len() as u64 - network.hops(from, to);
        RouteOutcome::Delivered { path, detour_hops }
    }
}

/// The offline ground-truth router: shortest masked paths from per-
/// destination reverse-BFS tables, cached across calls.
#[derive(Clone, Debug)]
pub struct TableRouter<'a> {
    network: &'a Network,
    mask: &'a FaultMask,
    tables: HashMap<u64, Vec<u64>>,
}

impl<'a> TableRouter<'a> {
    /// Binds the router to a network and a fault mask with an empty cache.
    pub fn new(network: &'a Network, mask: &'a FaultMask) -> Self {
        TableRouter {
            network,
            mask,
            tables: HashMap::new(),
        }
    }

    /// The masked distance table toward `to`, computing and caching it on
    /// first use.
    pub fn distances_to(&mut self, to: u64) -> &[u64] {
        self.tables
            .entry(to)
            .or_insert_with(|| masked_distances_to(self.network, self.mask, to))
    }

    /// The masked shortest-path distance from `from` to `to`, or `None` when
    /// unreachable.
    pub fn hops(&mut self, from: u64, to: u64) -> Option<u64> {
        if !self.mask.node_up(from) {
            return None;
        }
        match self.distances_to(to)[from as usize] {
            u64::MAX => None,
            d => Some(d),
        }
    }

    /// Routes one message along a shortest masked path (smallest-index
    /// tie-break), returning the typed outcome.
    pub fn route(&mut self, from: u64, to: u64) -> RouteOutcome {
        let (network, mask) = (self.network, self.mask);
        if !mask.node_up(from) || !mask.node_up(to) {
            return RouteOutcome::Unreachable { from, to };
        }
        let distance = self.distances_to(to);
        if distance[from as usize] == u64::MAX {
            return RouteOutcome::Unreachable { from, to };
        }
        let mut path = Vec::with_capacity(distance[from as usize] as usize);
        walk_downhill(network, mask, distance, from, &mut path);
        let detour_hops = path.len() as u64 - network.hops(from, to);
        RouteOutcome::Delivered { path, detour_hops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::faults::FaultPlan;
    use topology::{Grid, Shape};

    fn network(torus: bool, radices: &[u32]) -> Network {
        let shape = Shape::new(radices.to_vec()).unwrap();
        Network::new(if torus {
            Grid::torus(shape)
        } else {
            Grid::mesh(shape)
        })
    }

    fn assert_walk(network: &Network, mask: &FaultMask, from: u64, to: u64, path: &[u64]) {
        let mut current = from;
        for &next in path {
            assert!(network.grid().adjacent(current, next).unwrap());
            assert!(
                step_up(network, mask, current, next),
                "{current} → {next} is masked"
            );
            current = next;
        }
        if from != to {
            assert_eq!(current, to);
        } else {
            assert!(path.is_empty());
        }
    }

    #[test]
    fn pristine_mask_reproduces_dimension_ordered_routes() {
        for net in [network(true, &[4, 2, 3]), network(false, &[4, 4])] {
            let mask = FaultMask::pristine(net.grid());
            let detour = DetourRouter::new(&net, &mask);
            for from in 0..net.size() {
                for to in 0..net.size() {
                    match detour.route(from, to) {
                        RouteOutcome::Delivered { path, detour_hops } => {
                            assert_eq!(path, net.route(from, to));
                            assert_eq!(detour_hops, 0);
                        }
                        other => panic!("pristine route {from}→{to} was {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn detour_routes_around_a_masked_link() {
        // 4×4 mesh: kill the link on the direct row path; the detour must
        // still deliver, strictly longer than the pristine distance.
        let net = network(false, &[4, 4]);
        let grid = net.grid();
        let path = net.route(0, 3);
        let slot = link_slot_between(grid, 0, path[0]);
        let mask = FaultPlan::none().fail_link(slot).mask_at(grid, 0);
        let detour = DetourRouter::new(&net, &mask);
        match detour.route(0, 3) {
            RouteOutcome::Delivered { path, detour_hops } => {
                assert_walk(&net, &mask, 0, 3, &path);
                assert!(detour_hops >= 2, "detour_hops = {detour_hops}");
                assert_eq!(path.len() as u64, net.hops(0, 3) + detour_hops);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn severed_networks_report_unreachable_not_panic() {
        // Cut every link crossing the row boundary of a 2×4 mesh: the two
        // rows become separate components.
        let net = network(false, &[2, 4]);
        let grid = net.grid();
        let mut plan = FaultPlan::none();
        for (a, b) in grid.edges() {
            let (ca, cb) = (grid.coord(a).unwrap(), grid.coord(b).unwrap());
            if ca.get(0) != cb.get(0) {
                plan = plan.fail_link(link_slot_between(grid, a, b));
            }
        }
        let mask = plan.mask_at(grid, 0);
        let detour = DetourRouter::new(&net, &mask);
        let mut table = TableRouter::new(&net, &mask);
        assert_eq!(
            detour.route(0, 4),
            RouteOutcome::Unreachable { from: 0, to: 4 }
        );
        assert_eq!(
            table.route(0, 4),
            RouteOutcome::Unreachable { from: 0, to: 4 }
        );
        assert_eq!(table.hops(0, 4), None);
        // Within a component both routers still deliver.
        assert!(detour.route(0, 3).path().is_some());
        assert!(table.route(4, 7).path().is_some());
    }

    #[test]
    fn down_endpoints_are_unreachable() {
        let net = network(true, &[3, 3]);
        let mask = FaultPlan::none().fail_node(4).mask_at(net.grid(), 0);
        let detour = DetourRouter::new(&net, &mask);
        let mut table = TableRouter::new(&net, &mask);
        for (from, to) in [(4, 0), (0, 4)] {
            let unreachable = RouteOutcome::Unreachable { from, to };
            assert_eq!(detour.route(from, to), unreachable);
            assert_eq!(table.route(from, to), unreachable);
        }
        // Traffic not involving the dead node routes around it.
        match detour.route(3, 5) {
            RouteOutcome::Delivered { path, .. } => {
                assert!(!path.contains(&4));
                assert_walk(&net, &mask, 3, 5, &path);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn a_route_that_spends_its_whole_budget_keeps_its_length() {
        // On the (8, 8)-torus with 20% of links down, the message 26 → 16
        // (3 pristine hops) misroutes through its whole budget of
        // 4 × 8 + 8 = 40 hops before the escape walk delivers it, so the
        // budget sets the route: with one hop less it is 47 hops long.
        let net = network(true, &[8, 8]);
        let mask = FaultPlan::random_link_percent(net.grid(), 20, 29).mask_at(net.grid(), 0);
        match DetourRouter::new(&net, &mask).route(26, 16) {
            RouteOutcome::Delivered { path, detour_hops } => {
                assert_walk(&net, &mask, 26, 16, &path);
                assert_eq!((path.len(), detour_hops), (49, 46));
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn table_router_paths_are_shortest_masked_paths() {
        let net = network(true, &[4, 4]);
        let plan = FaultPlan::random_links(net.grid(), 6, 17);
        let mask = plan.mask_at(net.grid(), 0);
        let mut table = TableRouter::new(&net, &mask);
        for from in 0..net.size() {
            for to in 0..net.size() {
                let expected = masked_distances_to(&net, &mask, to)[from as usize];
                match table.route(from, to) {
                    RouteOutcome::Delivered { path, .. } => {
                        assert_eq!(path.len() as u64, expected);
                        assert_walk(&net, &mask, from, to, &path);
                    }
                    RouteOutcome::Unreachable { .. } => assert_eq!(expected, u64::MAX),
                }
            }
        }
    }
}
