//! Two-level routing adaptiveness metrics (paper §3.1).
//!
//! The paper expands the classic definition of routing adaptiveness (allowed
//! minimal paths / total minimal paths, Glass & Ni) into two levels:
//!
//! * **Port adaptiveness** (`P_adapt`, Eq. 1) — diversity of physical paths.
//! * **VC adaptiveness** (`VC_adapt`, Eq. 2/3) — diversity of virtual
//!   channels usable on each physical channel, which traditional algorithms
//!   ignore (their VC adaptiveness is 0 by the paper's convention).
//!
//! These functions quantify Table 1's qualitative rows for our concrete
//! implementations.

use crate::{RoutingAlgorithm, VcSelection};
use footprint_topology::{AnyTopology, NodeId};

/// Counts the minimal paths from `src` to `dest` that the algorithm's
/// state-independent allowed-direction relation permits.
///
/// Uses memoized counting over the (acyclic) minimal quadrant, so it is
/// exact even for 16×16 meshes where path counts explode combinatorially.
fn allowed_path_count(
    topo: AnyTopology,
    algo: &dyn RoutingAlgorithm,
    src: NodeId,
    dest: NodeId,
) -> u64 {
    fn rec(
        topo: AnyTopology,
        algo: &dyn RoutingAlgorithm,
        cur: NodeId,
        src: NodeId,
        dest: NodeId,
        memo: &mut [Option<u64>],
    ) -> u64 {
        if cur == dest {
            return 1;
        }
        if let Some(v) = memo[cur.index()] {
            return v;
        }
        let mut total = 0u64;
        for d in algo.allowed_dirs(topo, cur, src, dest).iter() {
            // Allowed directions are minimal by construction, so this walk
            // terminates; a direction off the fabric is a corrupted
            // direction set — report it and skip rather than abort the
            // analysis.
            let next = match crate::invariant::neighbor_checked(topo, cur, d) {
                Ok(n) => n,
                Err(e) => {
                    crate::invariant::report_violation(&e);
                    continue;
                }
            };
            total = total.saturating_add(rec(topo, algo, next, src, dest, memo));
        }
        memo[cur.index()] = Some(total);
        total
    }
    let mut memo = vec![None; topo.len()];
    rec(topo, algo, src, src, dest, &mut memo)
}

/// Path-level port adaptiveness for one pair: allowed minimal paths divided
/// by all minimal paths. 1.0 for fully adaptive algorithms, `1/C(dx+dy,dx)`
/// for deterministic ones.
pub fn path_adaptiveness(
    topo: AnyTopology,
    algo: &dyn RoutingAlgorithm,
    src: NodeId,
    dest: NodeId,
) -> f64 {
    let total = topo.minimal_path_count(src, dest);
    if total == 0 {
        return 1.0;
    }
    allowed_path_count(topo, algo, src, dest) as f64 / total as f64
}

/// Mean path adaptiveness over all ordered pairs `src != dest`.
///
/// This is the network-wide scalar quoted in comparisons like Table 1:
/// 1.0 for DBAR/Footprint, strictly between 0 and 1 for Odd-Even, and small
/// for DOR.
pub fn mean_path_adaptiveness(topo: AnyTopology, algo: &dyn RoutingAlgorithm) -> f64 {
    let mut sum = 0.0;
    let mut pairs = 0u64;
    for src in topo.nodes() {
        for dest in topo.nodes() {
            if src != dest {
                sum += path_adaptiveness(topo, algo, src, dest);
                pairs += 1;
            }
        }
    }
    sum / pairs as f64
}

/// VC adaptiveness per the paper's Eq. (2)/(3).
///
/// Returns `None` when the metric is not applicable (static VC mappings like
/// XORDET, per Table 1's footnote). Algorithms that select VCs obliviously
/// get 0 by the paper's convention. Duato-based VC-aware algorithms
/// (Footprint) get Eq. (3): 1 on the escape channel and `(V-1)/V` on
/// adaptive channels.
pub fn vc_adaptiveness(
    algo: &dyn RoutingAlgorithm,
    num_vcs: usize,
    escape_channel: bool,
) -> Option<f64> {
    match algo.vc_selection() {
        VcSelection::StaticMapped => None,
        VcSelection::Oblivious => Some(0.0),
        VcSelection::Adaptive => Some(if escape_channel {
            1.0
        } else {
            (num_vcs as f64 - 1.0) / num_vcs as f64
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoutingSpec::{Dbar, Dor, DorXordet, Footprint, OddEven};
    use footprint_topology::AnyTopology;

    #[test]
    fn dor_allows_exactly_one_path() {
        let mesh = AnyTopology::mesh(8, 8);
        assert_eq!(allowed_path_count(mesh, &Dor.routing(), NodeId(0), NodeId(63)), 1);
        let p = path_adaptiveness(mesh, &Dor.routing(), NodeId(0), NodeId(63));
        assert!(p > 0.0 && p < 1e-3, "DOR path adaptiveness tiny, got {p}");
    }

    #[test]
    fn fully_adaptive_algorithms_allow_all_paths() {
        let mesh = AnyTopology::mesh(8, 8);
        for (name, algo) in [
            ("dbar", Dbar.routing()),
            ("footprint", Footprint.routing()),
        ] {
            for (s, d) in [(0u16, 63u16), (5, 40), (17, 3)] {
                let p = path_adaptiveness(mesh, &algo, NodeId(s), NodeId(d));
                assert!((p - 1.0).abs() < 1e-12, "{name} {s}->{d} got {p}");
            }
        }
    }

    #[test]
    fn odd_even_is_partially_adaptive() {
        let mesh = AnyTopology::mesh(8, 8);
        let mean = mean_path_adaptiveness(mesh, &OddEven.routing());
        assert!(mean > 0.0 && mean < 1.0, "odd-even mean {mean}");
        let dor_mean = mean_path_adaptiveness(mesh, &Dor.routing());
        let full_mean = mean_path_adaptiveness(mesh, &Dbar.routing());
        assert!(dor_mean < mean && mean < full_mean + 1e-12);
        assert!((full_mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn odd_even_allows_at_least_one_path_everywhere() {
        let mesh = AnyTopology::mesh(8, 8);
        for src in mesh.nodes() {
            for dest in mesh.nodes() {
                if src != dest {
                    assert!(
                        allowed_path_count(mesh, &OddEven.routing(), src, dest) >= 1,
                        "{src}->{dest} disconnected"
                    );
                }
            }
        }
    }

    #[test]
    fn vc_adaptiveness_matches_eq3() {
        let fp = Footprint.routing();
        assert_eq!(vc_adaptiveness(&fp, 10, true), Some(1.0));
        assert_eq!(vc_adaptiveness(&fp, 10, false), Some(0.9));
        assert_eq!(vc_adaptiveness(&Dbar.routing(), 10, false), Some(0.0));
        assert_eq!(vc_adaptiveness(&Dor.routing(), 10, false), Some(0.0));
        let x = DorXordet.routing();
        assert_eq!(vc_adaptiveness(&x, 10, false), None);
    }
}
