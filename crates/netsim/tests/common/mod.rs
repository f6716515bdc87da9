//! The reference arbitration the simulators are checked against: the
//! original node-pair loop, kept apart from the crate's contention engine so
//! the differential tests have an independent oracle.

use std::collections::HashSet;

/// What delivering a list of routed messages takes.
#[derive(Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Cycles until the last message arrives.
    pub cycles: u64,
    /// Hops over every message.
    pub total_hops: u64,
    /// The longest route.
    pub max_hops: u64,
}

/// Delivers `messages`, each a source node and the node path after it, in
/// slice order of priority: every message injects at cycle 1, each directed
/// link (a pair of adjacent nodes) carries one message per cycle, the
/// earlier message wins a contested link, and a blocked message retries.
pub fn arbitrate(messages: &[(u64, Vec<u64>)]) -> Delivery {
    let mut at: Vec<(u64, usize)> = messages.iter().map(|(source, _)| (*source, 0)).collect();
    let mut remaining = messages.iter().filter(|(_, path)| !path.is_empty()).count();
    let mut claimed: HashSet<(u64, u64)> = HashSet::new();
    let mut cycles = 0;
    while remaining > 0 {
        cycles += 1;
        claimed.clear();
        for ((current, position), (_, path)) in at.iter_mut().zip(messages) {
            if *position < path.len() && claimed.insert((*current, path[*position])) {
                *current = path[*position];
                *position += 1;
                remaining -= usize::from(*position == path.len());
            }
        }
    }
    let hops = messages.iter().map(|(_, path)| path.len() as u64);
    Delivery {
        cycles,
        total_hops: hops.clone().sum(),
        max_hops: hops.max().unwrap_or(0),
    }
}
