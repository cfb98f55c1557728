//! Channel-dependency-graph (CDG) deadlock analysis (Dally & Seitz; the
//! foundation under the paper's §3.4 argument).
//!
//! A wormhole network is deadlock-free if the graph whose nodes are the
//! directed physical channels and whose edges are the *channel
//! dependencies* the routing function can create (packet holds channel A
//! while requesting channel B) is acyclic. For turn-model algorithms
//! (DOR, Odd-Even, West-First, North-Last) the full CDG must be acyclic;
//! for Duato-based algorithms (DBAR, Footprint) only the *escape
//! sub-network* (VC 0, dimension-order routed) needs an acyclic CDG, since
//! every waiting packet keeps a standing request on it.
//!
//! [`check_deadlock_freedom`] runs the appropriate check for any
//! [`RoutingAlgorithm`]; the test suites use it to *prove* (rather than
//! stress-test) the acyclicity side of the §3.4 argument.

use crate::{RoutingAlgorithm, RoutingSpec, WrapStrategy};
use footprint_topology::{AnyTopology, Channel, Direction, NodeId};
use std::collections::BTreeMap;

/// A directed graph over a topology's channels (for wrapping topologies,
/// over its (channel, dateline-class) pairs).
#[derive(Debug, Clone, Default)]
pub struct ChannelDependencyGraph {
    /// Adjacency: channel index → dependent channel indices.
    edges: Vec<Vec<usize>>,
    /// The channels, indexable by the adjacency indices.
    channels: Vec<Channel>,
    index: BTreeMap<(u16, u8), usize>, // (src node, direction) → index
}

impl ChannelDependencyGraph {
    fn dir_code(d: Direction) -> u8 {
        let pos = footprint_topology::DIRECTIONS
            .iter()
            .position(|&x| x == d)
            .expect("direction in table");
        u8::try_from(pos).expect("direction table fits in u8")
    }

    /// Builds the CDG of `algo`'s allowed-direction relation on `topo`:
    /// there is an edge `A → B` iff some packet (over all source/destination
    /// pairs) can occupy channel `A` while requesting channel `B`.
    pub fn build(topo: AnyTopology, algo: &dyn RoutingAlgorithm) -> Self {
        let mut g = ChannelDependencyGraph::default();
        for ch in topo.channels() {
            let idx = g.channels.len();
            g.index.insert((ch.src.0, Self::dir_code(ch.dir)), idx);
            g.channels.push(ch);
            g.edges.push(Vec::new());
        }
        // A packet src→dest occupying channel (a → b, direction d_in) may
        // request any allowed direction at b (except immediate ejection).
        // Only channels the packet can actually *reach* from its source
        // count: several turn models (odd-even's source-column condition in
        // particular) are deadlock-free precisely because certain
        // position/route combinations are unreachable.
        let mut reach = vec![false; topo.len()];
        let mut frontier: Vec<NodeId> = Vec::new();
        for src in topo.nodes() {
            for dest in topo.nodes() {
                if src == dest {
                    continue;
                }
                reach.fill(false);
                reach[src.index()] = true;
                frontier.clear();
                frontier.push(src);
                while let Some(a) = frontier.pop() {
                    if a == dest {
                        continue;
                    }
                    for d_in in algo.allowed_dirs(topo, a, src, dest).iter() {
                        let Some(b) = topo.neighbor(a, d_in) else {
                            continue;
                        };
                        if !reach[b.index()] {
                            reach[b.index()] = true;
                            frontier.push(b);
                        }
                        if b == dest {
                            continue; // ejection: no further channel
                        }
                        let from = g.index[&(a.0, Self::dir_code(d_in))];
                        for d_out in algo.allowed_dirs(topo, b, src, dest).iter() {
                            if topo.neighbor(b, d_out).is_some() {
                                let to = g.index[&(b.0, Self::dir_code(d_out))];
                                g.edges[from].push(to);
                            }
                        }
                    }
                }
            }
        }
        for adj in &mut g.edges {
            adj.sort_unstable();
            adj.dedup();
        }
        g
    }

    /// Builds the *dateline-classed* CDG of the dimension-ordered escape
    /// relation on `topo`: graph nodes are `(channel, escape class)` pairs
    /// and each `(src, dest)` pair contributes its deterministic
    /// dimension-order route, with the class of every hop given by
    /// [`footprint_topology::AnyTopology::escape_class`]. This is the VC-level
    /// dependency graph that both the Duato escape sub-network
    /// ([`WrapStrategy::EscapeVcs`]) and dateline-classed DOR
    /// ([`WrapStrategy::DatelineVcClasses`]) induce on a wrapping topology;
    /// on a mesh every class is 0 and it degenerates to the ordinary DOR
    /// CDG.
    pub fn build_escape_classed(topo: AnyTopology) -> Self {
        let mut g = ChannelDependencyGraph::default();
        // One graph node per (channel, class); `channels` keeps the physical
        // channel so a witness cycle renders meaningfully.
        for class in 0..topo.escape_vcs() {
            for ch in topo.channels() {
                let idx = g.channels.len();
                g.index
                    .insert((ch.src.0, Self::dir_code(ch.dir) | ((class as u8) << 4)), idx);
                g.channels.push(ch);
                g.edges.push(Vec::new());
            }
        }
        for src in topo.nodes() {
            for dest in topo.nodes() {
                if src == dest {
                    continue;
                }
                let mut cur = src;
                let mut held: Option<usize> = None;
                while cur != dest {
                    let dirs = topo.minimal_dirs(cur, dest);
                    let Some(d) = dirs.x.or(dirs.y) else { break };
                    let class = topo.escape_class(cur, dest, d);
                    let idx = g.index[&(cur.0, Self::dir_code(d) | (class << 4))];
                    if let Some(h) = held {
                        g.edges[h].push(idx);
                    }
                    held = Some(idx);
                    cur = topo.neighbor(cur, d).expect("minimal direction has a neighbor");
                }
            }
        }
        for adj in &mut g.edges {
            adj.sort_unstable();
            adj.dedup();
        }
        g
    }

    /// Builds the dateline-classed escape CDG restricted to the channels
    /// that survive a fault mask, and collects the `(src, dest)` pairs
    /// whose dimension-order escape route the mask severs.
    ///
    /// `dead` lists the masked directed channels as `(upstream, dir)`
    /// pairs. The escape relation is deterministic (one route per pair), so
    /// a masked hop anywhere on a pair's route means that pair has *no*
    /// escape path — it contributes no dependencies (it must be quarantined
    /// at injection, not routed) and is reported in the severed list, in
    /// `(src, dest)` lexical order.
    fn build_escape_classed_masked(
        topo: AnyTopology,
        dead: &[(NodeId, Direction)],
    ) -> (Self, Vec<(NodeId, NodeId)>) {
        let is_dead = |node: NodeId, dir: Direction| dead.contains(&(node, dir));
        let mut g = ChannelDependencyGraph::default();
        for class in 0..topo.escape_vcs() {
            for ch in topo.channels() {
                if is_dead(ch.src, ch.dir) {
                    continue;
                }
                let idx = g.channels.len();
                g.index
                    .insert((ch.src.0, Self::dir_code(ch.dir) | ((class as u8) << 4)), idx);
                g.channels.push(ch);
                g.edges.push(Vec::new());
            }
        }
        let mut severed = Vec::new();
        for src in topo.nodes() {
            for dest in topo.nodes() {
                if src == dest {
                    continue;
                }
                // Walk the pair's route twice: first to see whether it
                // survives, then to record its dependencies — a severed
                // pair must leave no edges behind.
                let mut cur = src;
                let mut alive = true;
                while cur != dest {
                    let dirs = topo.minimal_dirs(cur, dest);
                    let Some(d) = dirs.x.or(dirs.y) else { break };
                    if is_dead(cur, d) {
                        alive = false;
                        break;
                    }
                    cur = topo.neighbor(cur, d).expect("minimal direction has a neighbor");
                }
                if !alive {
                    severed.push((src, dest));
                    continue;
                }
                let mut cur = src;
                let mut held: Option<usize> = None;
                while cur != dest {
                    let dirs = topo.minimal_dirs(cur, dest);
                    let Some(d) = dirs.x.or(dirs.y) else { break };
                    let class = topo.escape_class(cur, dest, d);
                    let idx = g.index[&(cur.0, Self::dir_code(d) | (class << 4))];
                    if let Some(h) = held {
                        g.edges[h].push(idx);
                    }
                    held = Some(idx);
                    cur = topo.neighbor(cur, d).expect("minimal direction has a neighbor");
                }
            }
        }
        for adj in &mut g.edges {
            adj.sort_unstable();
            adj.dedup();
        }
        (g, severed)
    }

    /// Returns a cycle as a channel list if one exists, `None` if the graph
    /// is acyclic (iterative three-color DFS).
    pub fn find_cycle(&self) -> Option<Vec<Channel>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let n = self.edges.len();
        let mut color = vec![Color::White; n];
        let mut parent = vec![usize::MAX; n];
        for start in 0..n {
            if color[start] != Color::White {
                continue;
            }
            // Iterative DFS with an explicit edge-iterator stack.
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = Color::Gray;
            while let Some(&mut (u, ref mut ei)) = stack.last_mut() {
                if *ei < self.edges[u].len() {
                    let v = self.edges[u][*ei];
                    *ei += 1;
                    match color[v] {
                        Color::White => {
                            color[v] = Color::Gray;
                            parent[v] = u;
                            stack.push((v, 0));
                        }
                        Color::Gray => {
                            // Found a cycle: unwind u back to v.
                            let mut cycle = vec![self.channels[v]];
                            let mut cur = u;
                            while cur != v {
                                cycle.push(self.channels[cur]);
                                cur = parent[cur];
                            }
                            cycle.reverse();
                            return Some(cycle);
                        }
                        Color::Black => {}
                    }
                } else {
                    color[u] = Color::Black;
                    stack.pop();
                }
            }
        }
        None
    }

    /// `true` if the dependency graph has no cycle.
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }
}

/// Outcome of [`check_deadlock_freedom`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadlockVerdict {
    /// The algorithm's full CDG is acyclic: deadlock-free outright.
    AcyclicCdg,
    /// The algorithm relies on Duato's theory and its escape sub-network
    /// (dimension-order on the escape VC) has an acyclic CDG: deadlock-free
    /// as long as every waiting packet keeps requesting the escape channel
    /// (which the simulator's standing requests guarantee).
    EscapeNetworkAcyclic,
    /// The algorithm routes on a wrapping topology by splitting each
    /// channel's VCs into dateline classes, and the classed dependency
    /// graph is acyclic: deadlock-free.
    DatelineClassesAcyclic,
    /// The algorithm declares itself unsupported on this topology
    /// ([`WrapStrategy::Unsupported`]); no deadlock-freedom argument
    /// exists and the simulator refuses the combination at validation.
    UnsupportedOnTopology,
    /// A dependency cycle exists with no escape mechanism — a deadlock
    /// hazard. Carries one witness cycle.
    Cyclic(Vec<Channel>),
}

/// Outcome of [`check_escape_under_mask`]: does the dateline escape
/// argument survive a fault mask?
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EscapeMaskVerdict {
    /// Every pair's dimension-order escape route survives the mask and the
    /// masked classed CDG is acyclic (a subgraph of an acyclic graph always
    /// is): the deadlock-freedom argument carries over unchanged.
    StillAcyclic,
    /// The mask severs the deterministic escape route of one or more
    /// pairs. Those packets have no escape channel to fall back on — a
    /// waiting packet's standing escape request would point at a dead
    /// channel — so Duato's argument no longer covers them. The sound
    /// responses are a typed run error or quarantining exactly these pairs
    /// at injection; routing them adaptively and hoping is a deadlock
    /// hazard.
    EscapeCompromised {
        /// The `(src, dest)` pairs with no surviving escape route, in
        /// lexical order.
        severed: Vec<(NodeId, NodeId)>,
        /// How many of the masked channels were wraparound (dateline)
        /// channels — the cuts that specifically attack the wrap argument.
        masked_wrap_channels: usize,
    },
}

/// Checks whether the dateline-classed escape network survives a fault
/// mask on `topo`. `dead` lists the masked directed channels as
/// `(upstream, dir)` pairs — typically every channel any `Down` event of a
/// fault plan ever touches (the conservative, whole-plan mask: a pair
/// severed even temporarily is a hazard while the cut lasts).
///
/// Masking can only *remove* dependencies, so the masked CDG stays acyclic
/// structurally; what breaks is route existence. The verdict is
/// [`EscapeMaskVerdict::EscapeCompromised`] exactly when some pair's
/// deterministic escape route dies under the mask.
pub fn check_escape_under_mask(
    topo: AnyTopology,
    dead: &[(NodeId, Direction)],
) -> EscapeMaskVerdict {
    let (g, severed) = ChannelDependencyGraph::build_escape_classed_masked(topo, dead);
    debug_assert!(
        g.is_acyclic(),
        "masked escape CDG must stay acyclic (subgraph of an acyclic graph)"
    );
    if severed.is_empty() {
        EscapeMaskVerdict::StillAcyclic
    } else {
        let masked_wrap_channels = dead
            .iter()
            .filter(|&&(node, dir)| topo.is_wrap_channel(node, dir))
            .count();
        EscapeMaskVerdict::EscapeCompromised {
            severed,
            masked_wrap_channels,
        }
    }
}

/// Checks the structural half of the deadlock-freedom argument for `algo`
/// on `topo`.
///
/// On acyclic (mesh) topologies: full-CDG acyclicity for algorithms
/// without an escape channel, escape-sub-network acyclicity (always DOR,
/// hence always acyclic — but we verify rather than assume) for
/// Duato-based ones.
///
/// On wrapping topologies the check follows the algorithm's declared
/// [`WrapStrategy`]: turn models restricted to the acyclic channel
/// subgraph get the ordinary CDG check; escape-VC and dateline-class
/// strategies get the classed escape CDG
/// ([`ChannelDependencyGraph::build_escape_classed`]); algorithms with no
/// wrap argument report [`DeadlockVerdict::UnsupportedOnTopology`].
pub fn check_deadlock_freedom(
    topo: AnyTopology,
    algo: &dyn RoutingAlgorithm,
) -> DeadlockVerdict {
    if topo.wraps() {
        return match algo.wrap_strategy() {
            WrapStrategy::Unsupported => DeadlockVerdict::UnsupportedOnTopology,
            WrapStrategy::AcyclicSubgraph => {
                match ChannelDependencyGraph::build(topo, algo).find_cycle() {
                    None => DeadlockVerdict::AcyclicCdg,
                    Some(c) => DeadlockVerdict::Cyclic(c),
                }
            }
            strategy @ (WrapStrategy::EscapeVcs | WrapStrategy::DatelineVcClasses) => {
                match ChannelDependencyGraph::build_escape_classed(topo).find_cycle() {
                    None if strategy == WrapStrategy::EscapeVcs => {
                        DeadlockVerdict::EscapeNetworkAcyclic
                    }
                    None => DeadlockVerdict::DatelineClassesAcyclic,
                    Some(c) => DeadlockVerdict::Cyclic(c),
                }
            }
        };
    }
    if algo.has_escape() {
        let escape = ChannelDependencyGraph::build(topo, &RoutingSpec::Dor.routing());
        match escape.find_cycle() {
            None => DeadlockVerdict::EscapeNetworkAcyclic,
            Some(c) => DeadlockVerdict::Cyclic(c),
        }
    } else {
        let cdg = ChannelDependencyGraph::build(topo, algo);
        match cdg.find_cycle() {
            None => DeadlockVerdict::AcyclicCdg,
            Some(c) => DeadlockVerdict::Cyclic(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirSet;
    use footprint_topology::DIRECTIONS;

    #[test]
    fn dor_cdg_is_acyclic() {
        let mesh = AnyTopology::mesh(5, 5);
        let g = ChannelDependencyGraph::build(mesh, &RoutingSpec::Dor.routing());
        assert!(g.is_acyclic());
        assert_eq!(g.channels.len(), mesh.channels().count());
        assert!(g.edges.iter().any(|adj| !adj.is_empty()));
    }

    #[test]
    fn turn_models_have_acyclic_cdgs() {
        let mesh = AnyTopology::mesh(5, 5);
        for spec in [RoutingSpec::OddEven, RoutingSpec::WestFirst, RoutingSpec::NorthLast] {
            let algo = spec.routing();
            assert_eq!(
                check_deadlock_freedom(mesh, &algo),
                DeadlockVerdict::AcyclicCdg,
                "{}",
                algo.name()
            );
        }
    }

    #[test]
    fn duato_algorithms_verify_via_escape_network() {
        let mesh = AnyTopology::mesh(5, 5);
        assert_eq!(
            check_deadlock_freedom(mesh, &RoutingSpec::Footprint.routing()),
            DeadlockVerdict::EscapeNetworkAcyclic
        );
        assert_eq!(
            check_deadlock_freedom(mesh, &RoutingSpec::Dbar.routing()),
            DeadlockVerdict::EscapeNetworkAcyclic
        );
    }

    #[test]
    fn unrestricted_minimal_routing_has_cycles() {
        // A fully adaptive relation with no escape (all minimal dirs, no
        // turn restrictions) must show a dependency cycle — the reason
        // Duato's escape channel exists at all.
        struct Unrestricted;
        impl RoutingAlgorithm for Unrestricted {
            fn name(&self) -> &'static str {
                "unrestricted"
            }
            fn policy(&self) -> crate::VcReallocationPolicy {
                crate::VcReallocationPolicy::NonAtomic
            }
            fn has_escape(&self) -> bool {
                false
            }
            fn route(
                &self,
                _ctx: &crate::RoutingCtx<'_>,
                _rng: &mut dyn rand::RngCore,
                _out: &mut Vec<crate::VcRequest>,
            ) {
                unreachable!("analysis only")
            }
        }
        let mesh = AnyTopology::mesh(4, 4);
        let verdict = check_deadlock_freedom(mesh, &Unrestricted);
        let DeadlockVerdict::Cyclic(cycle) = verdict else {
            panic!("expected a cycle, got {verdict:?}");
        };
        // The witness is a genuine cycle: consecutive channels chain
        // head-to-tail and it closes.
        assert!(cycle.len() >= 2);
        for w in cycle.windows(2) {
            assert_eq!(w[0].dst, w[1].src);
        }
        assert_eq!(cycle.last().unwrap().dst, cycle.first().unwrap().src);
    }

    #[test]
    fn cycle_witness_respects_allowed_turns() {
        // Sanity on the builder: every edge it creates corresponds to an
        // allowed (d_in at a) followed by an allowed (d_out at b) for some
        // src/dest pair — spot-check via a restricted algorithm where we
        // can enumerate by hand: DOR's only turns are X→Y.
        let mesh = AnyTopology::mesh(3, 3);
        let g = ChannelDependencyGraph::build(mesh, &RoutingSpec::Dor.routing());
        // In DOR, a vertical channel can never depend on a horizontal one.
        for (i, ch) in g.channels.iter().enumerate() {
            if !ch.dir.is_x() {
                for &j in &g.edges[i] {
                    assert!(
                        !g.channels[j].dir.is_x(),
                        "DOR Y→X turn in CDG: {} then {}",
                        ch,
                        g.channels[j]
                    );
                }
            }
        }
        let _ = (DIRECTIONS, DirSet::EMPTY);
    }

    #[test]
    fn unclassed_dor_relation_is_cyclic_on_a_torus() {
        // The reason dateline classes exist: the plain channel-level DOR
        // CDG on a wrapping topology closes each ring into a cycle.
        let g = ChannelDependencyGraph::build(AnyTopology::torus(4, 4), &RoutingSpec::Dor.routing());
        assert!(!g.is_acyclic());
    }

    #[test]
    fn classed_escape_cdg_is_acyclic_on_wrap_topologies() {
        for topo in [
            AnyTopology::torus(4, 4),
            AnyTopology::torus(5, 3),
            AnyTopology::ring(8),
        ] {
            let g = ChannelDependencyGraph::build_escape_classed(topo);
            assert!(g.is_acyclic(), "{topo}");
            assert_eq!(g.channels.len(), topo.channels().count() * topo.escape_vcs());
        }
    }

    #[test]
    fn empty_mask_keeps_escape_sound() {
        for topo in [
            AnyTopology::torus(4, 4),
            AnyTopology::ring(8),
            AnyTopology::mesh(4, 4),
        ] {
            assert_eq!(check_escape_under_mask(topo, &[]), EscapeMaskVerdict::StillAcyclic);
        }
    }

    #[test]
    fn dateline_cut_compromises_the_escape_network() {
        let ring = AnyTopology::ring(8);
        // The ring's single wrap edge, both directions — the dateline cut.
        let dead = [
            (NodeId(7), Direction::East),
            (NodeId(0), Direction::West),
        ];
        assert!(ring.is_wrap_channel(NodeId(7), Direction::East));
        let verdict = check_escape_under_mask(ring, &dead);
        let EscapeMaskVerdict::EscapeCompromised {
            severed,
            masked_wrap_channels,
        } = verdict
        else {
            panic!("dateline cut must compromise escape, got {verdict:?}");
        };
        assert_eq!(masked_wrap_channels, 2);
        // Exactly the pairs whose shorter way around crosses the cut edge
        // lose their escape route; 0 → 7 is the canonical victim.
        assert!(severed.contains(&(NodeId(0), NodeId(7))));
        assert!(!severed.contains(&(NodeId(0), NodeId(1))));
        // Severed pairs contribute no dependencies: the masked CDG stays
        // acyclic (checked inside, but assert the public invariant too).
        let (g, severed2) = ChannelDependencyGraph::build_escape_classed_masked(ring, &dead);
        assert!(g.is_acyclic());
        assert_eq!(severed, severed2);
    }

    #[test]
    fn grid_cut_on_torus_severs_without_wrap_channels() {
        // A non-dateline cut still kills deterministic escape routes, but
        // reports zero masked wrap channels — the caller can tell a
        // dateline attack from an ordinary cut.
        let torus = AnyTopology::torus(4, 4);
        let dead = [(NodeId(0), Direction::East), (NodeId(1), Direction::West)];
        match check_escape_under_mask(torus, &dead) {
            EscapeMaskVerdict::EscapeCompromised {
                severed,
                masked_wrap_channels,
            } => {
                assert_eq!(masked_wrap_channels, 0);
                assert!(severed.contains(&(NodeId(0), NodeId(1))));
            }
            v => panic!("expected compromised escape, got {v:?}"),
        }
    }

    #[test]
    fn wrap_verdicts_follow_the_declared_strategy() {
        let torus = AnyTopology::torus(4, 4);
        assert_eq!(
            check_deadlock_freedom(torus, &RoutingSpec::Dor.routing()),
            DeadlockVerdict::DatelineClassesAcyclic
        );
        assert_eq!(
            check_deadlock_freedom(torus, &RoutingSpec::Footprint.routing()),
            DeadlockVerdict::EscapeNetworkAcyclic
        );
        assert_eq!(
            check_deadlock_freedom(torus, &RoutingSpec::Dbar.routing()),
            DeadlockVerdict::EscapeNetworkAcyclic
        );
        for spec in [RoutingSpec::OddEven, RoutingSpec::WestFirst, RoutingSpec::NorthLast] {
            let algo = spec.routing();
            assert_eq!(
                check_deadlock_freedom(torus, &algo),
                DeadlockVerdict::AcyclicCdg,
                "{}",
                algo.name()
            );
        }
        assert_eq!(
            check_deadlock_freedom(torus, &RoutingSpec::DorXordet.routing()),
            DeadlockVerdict::UnsupportedOnTopology
        );
    }
}
