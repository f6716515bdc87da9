//! Fault plans and fault masks: which links and nodes are down, and when.
//!
//! A [`FaultPlan`] is a *value*: a seeded, serializable description of the
//! failures a scenario injects — base sets of failed links and nodes plus
//! time-scheduled [`FailAt`] events. It is applied to a network as a cheap
//! [`FaultMask`] overlay (two flat boolean vectors indexed by
//! [`Grid::link_index`] slot and node index); the underlying graph is never
//! rebuilt, so the pristine topology, its routing tables, and its distance
//! arithmetic all stay valid and the mask is the *single* place degraded
//! state lives.
//!
//! Links are identified by the dense undirected link slots of
//! [`Grid::link_index`] — the same slots the congestion model uses — so a
//! failed link blocks both directions at once, exactly like a severed cable.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use topology::Grid;

/// Why a fault plan was rejected for a particular grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// A failed link slot is outside `[0, link_count)` or names a slot that
    /// carries no link on this grid (mesh boundary or torus wrap alias).
    LinkOutOfRange {
        /// The offending link slot.
        link: u64,
        /// The grid's link-slot count.
        link_count: u64,
    },
    /// A failed node is outside `[0, size)`.
    NodeOutOfRange {
        /// The offending node.
        node: u64,
        /// The grid's node count.
        nodes: u64,
    },
}

impl core::fmt::Display for FaultError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultError::LinkOutOfRange { link, link_count } => {
                write!(
                    f,
                    "link slot {link} is not a live link (slots: 0..{link_count})"
                )
            }
            FaultError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} outside the {nodes}-node grid")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Why a serialized fault plan failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultParseError {
    /// The 1-based line of the offending text.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FaultParseError {}

/// A time-scheduled failure: `link` goes down at the start of `round` and
/// stays down for the rest of the scenario (failures accumulate; repair is a
/// different scenario, not an event).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FailAt {
    /// The first simulated round in which the link is down.
    pub round: u64,
    /// The failed link slot (see [`Grid::link_index`]).
    pub link: u64,
}

/// A seeded, serializable set of failures: links and nodes down from round 0
/// plus scheduled [`FailAt`] events. Plans are plain values — build them with
/// the seeded samplers or the builder methods, ship them as text with
/// [`FaultPlan::to_text`], and apply them to a grid with
/// [`FaultPlan::mask_at`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    failed_links: Vec<u64>,
    failed_nodes: Vec<u64>,
    events: Vec<FailAt>,
}

/// The link slots that actually carry a link on `grid`: every `(tail, dim)`
/// pair whose forward step exists and is the link's canonical tail. Mesh
/// boundaries have no forward link; on a radix-2 torus ring the two
/// directions collapse onto one doubly-covered link whose canonical tail is
/// the digit-0 endpoint.
pub fn live_link_slots(grid: &Grid) -> Vec<u64> {
    let mut slots = Vec::new();
    for node in grid.nodes() {
        let coord = grid.coord(node).expect("node indices are in range");
        for dim in 0..grid.dim() {
            let l = grid.shape().radix(dim);
            let digit = coord.get(dim);
            let live = if grid.is_torus() {
                l > 2 || (l == 2 && digit == 0)
            } else {
                digit + 1 < l
            };
            if live {
                slots.push(grid.link_index(node, dim));
            }
        }
    }
    slots
}

impl FaultPlan {
    /// The empty plan: nothing fails.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            failed_links: Vec::new(),
            failed_nodes: Vec::new(),
            events: Vec::new(),
        }
    }

    /// A plan failing `count` distinct live links of `grid`, chosen by a
    /// seeded shuffle of the live link slots (so the same seed always fails
    /// the same links). `count` is clamped to the number of live links.
    pub fn random_links(grid: &Grid, count: u64, seed: u64) -> Self {
        let mut slots = live_link_slots(grid);
        let mut rng = StdRng::seed_from_u64(seed);
        slots.shuffle(&mut rng);
        slots.truncate(count.min(slots.len() as u64) as usize);
        slots.sort_unstable();
        FaultPlan {
            seed,
            failed_links: slots,
            failed_nodes: Vec::new(),
            events: Vec::new(),
        }
    }

    /// A plan failing approximately `percent`% of the live links of `grid`
    /// (integer rounding to nearest, at least one link when `percent > 0`).
    pub fn random_link_percent(grid: &Grid, percent: u32, seed: u64) -> Self {
        let live = live_link_slots(grid).len() as u64;
        let count = if percent == 0 {
            0
        } else {
            ((live * u64::from(percent) + 50) / 100).max(1)
        };
        Self::random_links(grid, count, seed)
    }

    /// A plan failing `count` distinct nodes of `grid`, chosen by a seeded
    /// shuffle. `count` is clamped to the node count.
    pub fn random_nodes(grid: &Grid, count: u64, seed: u64) -> Self {
        let mut nodes: Vec<u64> = grid.nodes().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        nodes.shuffle(&mut rng);
        nodes.truncate(count.min(nodes.len() as u64) as usize);
        nodes.sort_unstable();
        FaultPlan {
            seed,
            failed_nodes: nodes,
            failed_links: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Adds a link failure present from round 0.
    pub fn fail_link(mut self, link: u64) -> Self {
        if let Err(at) = self.failed_links.binary_search(&link) {
            self.failed_links.insert(at, link);
        }
        self
    }

    /// Adds a node failure present from round 0.
    pub fn fail_node(mut self, node: u64) -> Self {
        if let Err(at) = self.failed_nodes.binary_search(&node) {
            self.failed_nodes.insert(at, node);
        }
        self
    }

    /// Schedules `link` to fail at the start of `round`.
    pub fn fail_at(mut self, round: u64, link: u64) -> Self {
        let event = FailAt { round, link };
        if let Err(at) = self.events.binary_search(&event) {
            self.events.insert(at, event);
        }
        self
    }

    /// The seed the plan was sampled with (0 for hand-built plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The links down from round 0, as sorted link slots.
    pub fn failed_links(&self) -> &[u64] {
        &self.failed_links
    }

    /// The nodes down from round 0, sorted.
    pub fn failed_nodes(&self) -> &[u64] {
        &self.failed_nodes
    }

    /// Whether the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.failed_links.is_empty() && self.failed_nodes.is_empty() && self.events.is_empty()
    }

    /// Checks every referenced link slot and node against `grid`.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultError`] naming an out-of-range (or
    /// link-free) slot or node.
    pub fn validate(&self, grid: &Grid) -> Result<(), FaultError> {
        let live = live_link_slots(grid);
        let link_count = grid.link_count();
        for &link in self
            .failed_links
            .iter()
            .chain(self.events.iter().map(|e| &e.link))
        {
            if live.binary_search(&link).is_err() {
                return Err(FaultError::LinkOutOfRange { link, link_count });
            }
        }
        for &node in &self.failed_nodes {
            if node >= grid.size() {
                return Err(FaultError::NodeOutOfRange {
                    node,
                    nodes: grid.size(),
                });
            }
        }
        Ok(())
    }

    /// The overlay mask in effect at `round`: the base failures plus every
    /// event whose round has arrived. Failures accumulate, so
    /// `mask_at(g, r)` only ever shrinks the usable network as `r` grows.
    pub fn mask_at(&self, grid: &Grid, round: u64) -> FaultMask {
        let mut mask = FaultMask::pristine(grid);
        for &link in &self.failed_links {
            mask.fail_link(link);
        }
        for &node in &self.failed_nodes {
            mask.fail_node(node);
        }
        for event in &self.events {
            if event.round <= round {
                mask.fail_link(event.link);
            }
        }
        mask
    }

    /// Whether any scheduled event fires exactly at `round` — the rounds
    /// where a cached mask (and any routing state derived from it) must be
    /// rebuilt.
    pub fn changes_at(&self, round: u64) -> bool {
        self.events.iter().any(|e| e.round == round)
    }

    /// Serializes the plan as line-oriented text (`faultplan v1`), the
    /// inverse of [`FaultPlan::parse`].
    pub fn to_text(&self) -> String {
        let list = |values: &[u64]| {
            values
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = String::from("faultplan v1\n");
        out.push_str(&format!("seed = {}\n", self.seed));
        if !self.failed_links.is_empty() {
            out.push_str(&format!("links = {}\n", list(&self.failed_links)));
        }
        if !self.failed_nodes.is_empty() {
            out.push_str(&format!("nodes = {}\n", list(&self.failed_nodes)));
        }
        if !self.events.is_empty() {
            let events = self
                .events
                .iter()
                .map(|e| format!("{}@{}", e.round, e.link))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!("events = {events}\n"));
        }
        out
    }

    /// Parses the `faultplan v1` text format produced by
    /// [`FaultPlan::to_text`]: a `faultplan v1` header, then `key = value`
    /// lines (`seed`, `links`, `nodes`, `events`), with `#` comments and
    /// blank lines ignored. Event lists use `round@link` entries.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultParseError`] naming the first offending line.
    pub fn parse(text: &str) -> Result<Self, FaultParseError> {
        let fail = |line: usize, message: String| Err(FaultParseError { line, message });
        let mut plan = FaultPlan::none();
        let mut saw_header = false;
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            if !saw_header {
                if content != "faultplan v1" {
                    return fail(line, format!("expected `faultplan v1`, got {content:?}"));
                }
                saw_header = true;
                continue;
            }
            let Some((key, value)) = content.split_once('=') else {
                return fail(line, format!("expected `key = value`, got {content:?}"));
            };
            let (key, value) = (key.trim(), value.trim());
            let numbers = |value: &str| -> Result<Vec<u64>, String> {
                value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse::<u64>().map_err(|_| format!("bad number {s:?}")))
                    .collect()
            };
            match key {
                "seed" => match value.parse() {
                    Ok(seed) => plan.seed = seed,
                    Err(_) => return fail(line, format!("bad seed {value:?}")),
                },
                "links" => match numbers(value) {
                    Ok(mut links) => {
                        links.sort_unstable();
                        links.dedup();
                        plan.failed_links = links;
                    }
                    Err(message) => return fail(line, message),
                },
                "nodes" => match numbers(value) {
                    Ok(mut nodes) => {
                        nodes.sort_unstable();
                        nodes.dedup();
                        plan.failed_nodes = nodes;
                    }
                    Err(message) => return fail(line, message),
                },
                "events" => {
                    let mut events = Vec::new();
                    for entry in value.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                        let Some((round, link)) = entry.split_once('@') else {
                            return fail(line, format!("expected `round@link`, got {entry:?}"));
                        };
                        match (round.trim().parse(), link.trim().parse()) {
                            (Ok(round), Ok(link)) => events.push(FailAt { round, link }),
                            _ => return fail(line, format!("bad event {entry:?}")),
                        }
                    }
                    events.sort_unstable();
                    events.dedup();
                    plan.events = events;
                }
                other => return fail(line, format!("unknown key {other:?}")),
            }
        }
        if !saw_header {
            return fail(1, "empty fault plan".to_string());
        }
        Ok(plan)
    }
}

/// The overlay mask a [`FaultPlan`] expands to for one round: flat boolean
/// vectors over link slots and nodes. All degraded-routing code consults
/// *only* this mask; the pristine [`Grid`] underneath is untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultMask {
    link_down: Vec<bool>,
    node_down: Vec<bool>,
}

impl FaultMask {
    /// The all-up mask for `grid`.
    pub fn pristine(grid: &Grid) -> Self {
        FaultMask {
            link_down: vec![false; grid.link_count() as usize],
            node_down: vec![false; grid.size() as usize],
        }
    }

    /// Marks a link slot down (both directions).
    pub fn fail_link(&mut self, link: u64) {
        self.link_down[link as usize] = true;
    }

    /// Marks a node down.
    pub fn fail_node(&mut self, node: u64) {
        self.node_down[node as usize] = true;
    }

    /// Whether the link in `slot` is up.
    #[inline]
    pub fn link_up(&self, slot: u64) -> bool {
        !self.link_down[slot as usize]
    }

    /// Whether `node` is up.
    #[inline]
    pub fn node_up(&self, node: u64) -> bool {
        !self.node_down[node as usize]
    }
}

/// The canonical link slot of the (undirected) link between adjacent nodes
/// `a` and `b`: the slot [`topology::routing::link_slot_of_hop`] would
/// assign to the hop `a → b` (or equivalently `b → a`). The canonical tail
/// is the endpoint whose *forward* step reaches the other; on a radix-2
/// torus ring both steps are forward and the digit-0 endpoint is the tail.
///
/// # Panics
///
/// Panics if `a` and `b` are not adjacent in `grid`.
pub fn link_slot_between(grid: &Grid, a: u64, b: u64) -> u64 {
    // Adjacent indices differ by one dimension's stride, or on a torus by
    // its wrap-around span `(l − 1) × stride`. Strides fall strictly with
    // the dimension and each span lies below the next-lower dimension's
    // stride, so the difference names the dimension without decoding
    // either node; a radix-2 span equals its stride, and its two arcs are
    // one link.
    let shape = grid.shape();
    let (up, difference) = if a < b { (true, b - a) } else { (false, a - b) };
    for dim in 0..grid.dim() {
        let stride = shape.weight(dim + 1);
        let wrapped = grid.is_torus()
            && difference != stride
            && difference == u64::from(shape.radix(dim) - 1) * stride;
        if difference == stride || wrapped {
            // The forward step climbs to the higher index unless it wraps.
            let tail = if up != wrapped { a } else { b };
            return grid.link_index(tail, dim);
        }
    }
    panic!("nodes {a} and {b} are not adjacent");
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::Shape;

    fn torus(radices: &[u32]) -> Grid {
        Grid::torus(Shape::new(radices.to_vec()).unwrap())
    }

    fn mesh(radices: &[u32]) -> Grid {
        Grid::mesh(Shape::new(radices.to_vec()).unwrap())
    }

    #[test]
    fn live_link_slots_count_the_edges() {
        for grid in [
            torus(&[4, 4]),
            torus(&[2, 3]),
            torus(&[2, 2, 2]),
            mesh(&[4, 4]),
            mesh(&[3, 2, 5]),
        ] {
            assert_eq!(
                live_link_slots(&grid).len() as u64,
                grid.num_edges(),
                "live slots must be exactly the undirected edges of {grid}"
            );
        }
    }

    #[test]
    fn link_slot_between_matches_the_routing_slots() {
        // Every edge, taken in both directions, must land on the same slot,
        // and distinct edges on distinct slots.
        for grid in [
            torus(&[4, 4]),
            torus(&[2, 3]),
            mesh(&[3, 4]),
            torus(&[2, 2]),
        ] {
            let mut seen = std::collections::HashSet::new();
            for (a, b) in grid.edges() {
                let slot = link_slot_between(&grid, a, b);
                assert_eq!(slot, link_slot_between(&grid, b, a));
                assert!(seen.insert(slot), "slot {slot} reused in {grid}");
            }
            let live = live_link_slots(&grid);
            assert_eq!(seen.len(), live.len());
            assert!(live.iter().all(|s| seen.contains(s)));
        }
    }

    #[test]
    fn random_links_are_seeded_distinct_and_clamped() {
        let grid = torus(&[4, 4]);
        let a = FaultPlan::random_links(&grid, 5, 7);
        let b = FaultPlan::random_links(&grid, 5, 7);
        let c = FaultPlan::random_links(&grid, 5, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.failed_links().len(), 5);
        assert!(a.validate(&grid).is_ok());
        let all = FaultPlan::random_links(&grid, 10_000, 7);
        assert_eq!(all.failed_links().len() as u64, grid.num_edges());

        let one = FaultPlan::random_link_percent(&grid, 1, 7);
        assert_eq!(one.failed_links().len(), 1, "1% of 32 links rounds up to 1");
        let zero = FaultPlan::random_link_percent(&grid, 0, 7);
        assert!(zero.failed_links().is_empty());
    }

    #[test]
    fn masks_accumulate_scheduled_events() {
        let grid = torus(&[4, 4]);
        let plan = FaultPlan::none().fail_link(3).fail_at(2, 7).fail_at(5, 9);
        let m0 = plan.mask_at(&grid, 0);
        assert!(!m0.link_up(3) && m0.link_up(7) && m0.link_up(9));
        let m2 = plan.mask_at(&grid, 2);
        assert!(!m2.link_up(3) && !m2.link_up(7) && m2.link_up(9));
        let m9 = plan.mask_at(&grid, 9);
        assert!(!m9.link_up(3) && !m9.link_up(7) && !m9.link_up(9));
        assert!(plan.changes_at(2) && plan.changes_at(5));
        assert!(!plan.changes_at(3));
    }

    #[test]
    fn text_round_trips() {
        let grid = mesh(&[4, 4]);
        let plan = FaultPlan::random_links(&grid, 4, 42)
            .fail_node(5)
            .fail_at(3, 1)
            .fail_at(1, 2);
        let text = plan.to_text();
        assert_eq!(FaultPlan::parse(&text).unwrap(), plan);

        let empty = FaultPlan::none();
        assert!(empty.is_empty());
        assert_eq!(FaultPlan::parse(&empty.to_text()).unwrap(), empty);
    }

    #[test]
    fn parse_rejects_malformed_text() {
        for (text, line) in [
            ("", 1),
            ("plan v1", 1),
            ("faultplan v1\nlinks 3", 2),
            ("faultplan v1\nseed = x", 2),
            ("faultplan v1\nevents = 3", 2),
            ("faultplan v1\nbogus = 1", 2),
        ] {
            let error = FaultPlan::parse(text).unwrap_err();
            assert_eq!(error.line, line, "for {text:?}: {error}");
        }
        // Comments and blank lines are ignored.
        let ok = FaultPlan::parse("# preamble\n\nfaultplan v1\nseed = 3 # trailing\n").unwrap();
        assert_eq!(ok.seed(), 3);
    }

    #[test]
    fn validate_rejects_foreign_slots() {
        let grid = mesh(&[2, 2]);
        // Slot 3 = link_index(1, 1): node 1 = (0,1) has no forward link in
        // dim 1 on a 2×2 mesh, so the slot is dead even though it is < 8.
        let dead = FaultPlan::none().fail_link(3);
        assert!(matches!(
            dead.validate(&grid),
            Err(FaultError::LinkOutOfRange { link: 3, .. })
        ));
        let node = FaultPlan::none().fail_node(9);
        assert!(matches!(
            node.validate(&grid),
            Err(FaultError::NodeOutOfRange { node: 9, nodes: 4 })
        ));
        let error = dead.validate(&grid).unwrap_err().to_string();
        assert!(error.contains("slot 3"));
    }
}
