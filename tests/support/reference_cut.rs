//! Reference closest-disjoint-cut construction: the original frontier
//! expansion (sort the frontier by rank, scan all pairs for overlapping
//! reach masks, expand the earliest conflicting member), kept verbatim as
//! ground truth for the rank-ordered sweep of `als_cuts`. Test-only; it is
//! included with `#[path]` by the suites that compare against it.

use dualphase_als::aig::{Aig, NodeId};
use dualphase_als::cuts::reach::{masks_intersect, ReachMap};
use dualphase_als::cuts::{CutMember, CutState, DisjointCut};
use dualphase_als::sim::PackedBits;

/// Mask of a member over output indices.
fn member_mask(member: CutMember, reach: &ReachMap) -> PackedBits {
    match member {
        CutMember::Node(t) => reach.mask(t).clone(),
        CutMember::Output(o) => {
            let mut m = PackedBits::zeros(reach.mask_words());
            m.set(o as usize, true);
            m
        }
    }
}

/// Expansion priority: topological rank for nodes, maximal for sinks.
fn member_rank(member: CutMember, rank: &[u32]) -> u64 {
    match member {
        CutMember::Node(t) => rank[t.index()] as u64,
        CutMember::Output(o) => u64::from(u32::MAX) + 1 + o as u64,
    }
}

/// Computes the closest disjoint cut of `n` by frontier expansion.
///
/// The frontier starts at `n`'s direct fanouts (plus sinks for directly
/// driven outputs). While two frontier members' covered-output masks
/// intersect — i.e. their TFO cones reconverge — the topologically earliest
/// conflicting member is expanded into *its* fanouts. Expansion always moves
/// toward the sinks, where distinct outputs are trivially disjoint, so the
/// loop terminates; expanding the earliest conflict keeps the cut as close
/// to `n` as the reconvergence structure allows.
///
/// `rank` must be [`als_aig::topo::topo_ranks`] for the current graph.
/// An unused node (empty reachable set) gets an empty cut.
pub fn reference_closest_disjoint_cut(
    aig: &Aig,
    reach: &ReachMap,
    rank: &[u32],
    n: NodeId,
) -> DisjointCut {
    struct Entry {
        member: CutMember,
        mask: PackedBits,
        rank: u64,
    }

    let mut entries: Vec<Entry> = Vec::new();
    let push = |entries: &mut Vec<Entry>, member: CutMember| {
        if entries.iter().all(|e| e.member != member) {
            entries.push(Entry {
                member,
                mask: member_mask(member, reach),
                rank: member_rank(member, rank),
            });
        }
    };

    for &f in aig.fanouts(n) {
        push(&mut entries, CutMember::Node(f));
    }
    for &o in aig.output_refs(n) {
        push(&mut entries, CutMember::Output(o));
    }

    loop {
        entries.sort_by_key(|e| e.rank);
        // Find the first member whose mask intersects an earlier member's.
        let mut conflict: Option<usize> = None;
        'outer: for j in 1..entries.len() {
            for i in 0..j {
                if masks_intersect(&entries[i].mask, &entries[j].mask) {
                    conflict = Some(i); // expand the earlier (lower-rank) one
                    break 'outer;
                }
            }
        }
        let Some(i) = conflict else { break };
        let Entry { member, .. } = entries.remove(i);
        let CutMember::Node(t) = member else {
            unreachable!("two output sinks never conflict, so the earlier member is a node");
        };
        for &f in aig.fanouts(t) {
            push(&mut entries, CutMember::Node(f));
        }
        for &o in aig.output_refs(t) {
            push(&mut entries, CutMember::Output(o));
        }
    }

    let mut members: Vec<CutMember> = entries.into_iter().map(|e| e.member).collect();
    members.sort();
    DisjointCut::from_members(members)
}

/// Checks that every live node's cut in `state` equals the reference
/// construction on the state's own reach map and ranks.
pub fn check_cuts_match_reference(aig: &Aig, state: &CutState) -> Result<(), String> {
    for n in aig.iter_live() {
        let want = reference_closest_disjoint_cut(aig, state.reach(), state.ranks(), n);
        if state.cut(n) != &want {
            return Err(format!("cut of {n}: {:?} != reference {:?}", state.cut(n), want));
        }
    }
    Ok(())
}
