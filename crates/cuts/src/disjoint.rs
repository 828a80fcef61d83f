//! Closest disjoint cuts (SEALS-style).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use als_aig::{Aig, NodeId};
use als_sim::PackedBits;

use crate::reach::{masks_intersect, ReachMap};

/// One member of a disjoint cut: an internal node, or a primary output
/// treated as a virtual sink node.
///
/// Output members arise when the node under analysis drives an output
/// directly, or when reconvergence forces the frontier all the way to a
/// sink.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CutMember {
    /// An internal gate (or input) node.
    Node(NodeId),
    /// The virtual sink of primary output `o`.
    Output(u32),
}

/// A disjoint cut of some node `n`: a set of one-cuts, exactly one per
/// output reachable from `n`, whose transitive-fanout cones are pairwise
/// disjoint.
///
/// Each member *covers* the outputs reachable from it; the members' covered
/// sets partition the outputs reachable from `n`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DisjointCut {
    members: Vec<CutMember>,
}

impl DisjointCut {
    /// Builds a cut from explicit members (sorted and deduplicated).
    ///
    /// The caller is responsible for the disjoint-cut property; use
    /// [`verify_cut`] in tests. The always-valid trivial cut is the set of
    /// reachable output sinks.
    pub fn from_members(mut members: Vec<CutMember>) -> DisjointCut {
        members.sort();
        members.dedup();
        DisjointCut { members }
    }

    /// The cut members, sorted.
    pub fn members(&self) -> &[CutMember] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cut is empty (node reaches no output).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Internal-node members only.
    pub fn node_members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().filter_map(|m| match m {
            CutMember::Node(n) => Some(*n),
            CutMember::Output(_) => None,
        })
    }

    /// Output-sink members only.
    pub fn output_members(&self) -> impl Iterator<Item = u32> + '_ {
        self.members.iter().filter_map(|m| match m {
            CutMember::Node(_) => None,
            CutMember::Output(o) => Some(*o),
        })
    }

    /// The outputs covered by `member`: for a node member, its reachable
    /// set; for an output member, that single output.
    pub fn covered_outputs(member: CutMember, reach: &ReachMap) -> Vec<usize> {
        match member {
            CutMember::Node(t) => reach.reachable_outputs(t),
            CutMember::Output(o) => vec![o as usize],
        }
    }
}

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

/// Computes the closest disjoint cut of `n`.
///
/// The result is unique: for every output `o` that `n` reaches, its member
/// is the earliest node `t` that lies on every path from `n` to *every*
/// output `t` reaches (the virtual sink of `o` when no gate qualifies).
/// A frontier that starts at `n`'s fanouts (plus sinks for directly
/// driven outputs) reaches this set by any expansion order that only ever
/// expands a *conflicting* member — one whose covered outputs overlap
/// another member's — because a member of the result never conflicts and
/// every other frontier node always does.
///
/// This function runs that expansion as a sweep in rank order: it pops the
/// lowest-rank frontier node and expands it iff its reach mask hits an
/// output that two members cover. A popped node that does not conflict is
/// final, since later expansions only add nodes downstream of members
/// whose outputs are disjoint from its own. This function reads no stored
/// cuts, which makes it the independent ground truth for
/// [`crate::CutState::spot_check`].
///
/// [`crate::CutState`] fills its cuts fanouts-first with the same sweep
/// plus one reuse rule: when the sweep expands a node `t` whose cut is
/// already stored, it pushes the members of `cut(t)` instead of `t`'s
/// fanouts. A node strictly between `t` and `cut(t)` is never a member of
/// `n`'s cut: it is not on every path from `t` to the outputs it reaches
/// (else it would be `t`'s member), so some path from `t` avoids it and
/// meets the member of `cut(t)` covering one of those outputs, and the two
/// conflict in `n`'s frontier too.
///
/// `rank` must be [`als_aig::topo::topo_ranks`] for the current graph.
/// An unused node (empty reachable set) gets an empty cut.
pub fn closest_disjoint_cut(aig: &Aig, reach: &ReachMap, rank: &[u32], n: NodeId) -> DisjointCut {
    CutSweep::default().run(aig, reach, rank, n, |_| None)
}

/// Reusable scratch of the rank-ordered sweep: epoch-stamped push marks and
/// per-output cover counts, a "covered at least twice" bitset and the
/// frontier heap. Nothing sized by the graph is cleared between cuts, so a
/// sweep costs its frontier, not the graph.
#[derive(Clone, Debug, Default)]
pub(crate) struct CutSweep {
    epoch: u32,
    /// Epoch in which each node was pushed.
    pushed: Vec<u32>,
    /// Epoch in which each output's sink was pushed.
    sink_pushed: Vec<u32>,
    /// Per output, `(epoch, count)` of the frontier members covering it.
    cover: Vec<(u32, u32)>,
    /// Outputs covered by two or more frontier members.
    multi: Vec<u64>,
    frontier: BinaryHeap<Reverse<(u32, NodeId)>>,
    members: Vec<CutMember>,
}

impl CutSweep {
    /// The closest disjoint cut of `n` (see [`closest_disjoint_cut`]).
    ///
    /// `stored(t)` may return a cut already computed for a node `t`
    /// downstream of `n`; an expanded `t` with a stored cut is replaced by
    /// that cut's members (the reuse rule of [`closest_disjoint_cut`]).
    /// The result is unchanged as long as every stored cut is the current
    /// closest cut of its node.
    pub(crate) fn run<'c>(
        &mut self,
        aig: &Aig,
        reach: &ReachMap,
        rank: &[u32],
        n: NodeId,
        mut stored: impl FnMut(NodeId) -> Option<&'c DisjointCut>,
    ) -> DisjointCut {
        self.begin(aig.num_nodes(), reach);
        for &f in aig.fanouts(n) {
            self.push(CutMember::Node(f), reach, rank);
        }
        for &o in aig.output_refs(n) {
            self.push(CutMember::Output(o), reach, rank);
        }
        while let Some(Reverse((_, t))) = self.frontier.pop() {
            let conflicts = reach.mask(t).words().iter().zip(&self.multi).any(|(m, x)| m & x != 0);
            if !conflicts {
                self.members.push(CutMember::Node(t));
                continue;
            }
            for o in reach.mask(t).iter_ones() {
                self.uncover(o);
            }
            if let Some(cut) = stored(t) {
                for &m in cut.members() {
                    self.push(m, reach, rank);
                }
            } else {
                for &f in aig.fanouts(t) {
                    self.push(CutMember::Node(f), reach, rank);
                }
                for &o in aig.output_refs(t) {
                    self.push(CutMember::Output(o), reach, rank);
                }
            }
        }
        self.members.sort_unstable();
        DisjointCut { members: self.members.clone() }
    }

    /// Starts a new sweep: sizes the scratch and advances the epoch.
    fn begin(&mut self, num_nodes: usize, reach: &ReachMap) {
        if self.pushed.len() < num_nodes {
            self.pushed.resize(num_nodes, 0);
        }
        if self.cover.len() < reach.num_outputs() {
            self.sink_pushed.resize(reach.num_outputs(), 0);
            self.cover.resize(reach.num_outputs(), (0, 0));
        }
        self.multi.clear();
        self.multi.resize(reach.mask_words(), 0);
        self.frontier.clear();
        self.members.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale stamps could alias the new epoch.
            self.pushed.fill(0);
            self.sink_pushed.fill(0);
            self.cover.fill((0, 0));
            self.epoch = 1;
        }
    }

    /// Adds `m` to the frontier unless this sweep already pushed it.
    fn push(&mut self, m: CutMember, reach: &ReachMap, rank: &[u32]) {
        match m {
            CutMember::Node(t) => {
                if self.pushed[t.index()] == self.epoch {
                    return;
                }
                self.pushed[t.index()] = self.epoch;
                self.frontier.push(Reverse((rank[t.index()], t)));
                for o in reach.mask(t).iter_ones() {
                    self.cover(o);
                }
            }
            CutMember::Output(o) => {
                let o_ix = o as usize;
                if self.sink_pushed[o_ix] == self.epoch {
                    return;
                }
                self.sink_pushed[o_ix] = self.epoch;
                // Sinks rank after every node and never conflict with each
                // other, so they are final the moment they are pushed.
                self.members.push(m);
                self.cover(o_ix);
            }
        }
    }

    fn cover(&mut self, o: usize) {
        let slot = &mut self.cover[o];
        *slot = if slot.0 == self.epoch { (slot.0, slot.1 + 1) } else { (self.epoch, 1) };
        if slot.1 == 2 {
            self.multi[o / 64] |= 1 << (o % 64);
        }
    }

    fn uncover(&mut self, o: usize) {
        let slot = &mut self.cover[o];
        slot.1 = slot.1.saturating_sub(1);
        if slot.1 == 1 {
            self.multi[o / 64] &= !(1 << (o % 64));
        }
    }
}

/// Validates that `cut` is a disjoint cut of `n`: covered sets are pairwise
/// disjoint, partition `reach(n)`, and every member is a one-cut for the
/// outputs it covers. Intended for tests and debug assertions.
pub fn verify_cut(aig: &Aig, reach: &ReachMap, n: NodeId, cut: &DisjointCut) -> Result<(), String> {
    let mut union = PackedBits::zeros(reach.mask_words());
    for &m in cut.members() {
        let mask = member_mask(m, reach);
        if masks_intersect(&union, &mask) {
            return Err(format!("members of cut of {n} overlap at {m:?}"));
        }
        union.or_assign(&mask);
    }
    if &union != reach.mask(n) {
        return Err(format!("cut of {n} does not cover exactly its reachable outputs"));
    }
    // One-cut property: no path from n to a covered output avoids the member.
    for &m in cut.members() {
        let blocked = match m {
            CutMember::Node(t) => Some(t),
            CutMember::Output(_) => None, // sink trivially on all its paths
        };
        let Some(t) = blocked else { continue };
        // DFS from n through fanouts, never entering t.
        let mut seen = vec![false; aig.num_nodes()];
        let mut stack = vec![n];
        seen[n.index()] = true;
        let covered = member_mask(m, reach);
        while let Some(u) = stack.pop() {
            // Any covered output driven without passing through t is a
            // violating path.
            for &o in aig.output_refs(u) {
                if covered.get(o as usize) {
                    return Err(format!("path from {n} to output {o} avoids cut member {t}"));
                }
            }
            for &f in aig.fanouts(u) {
                if f != t && !seen[f.index()] {
                    seen[f.index()] = true;
                    stack.push(f);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_aig::Aig;

    fn ranks(aig: &Aig) -> Vec<u32> {
        als_aig::topo::topo_ranks(aig)
    }

    /// The paper's Fig. 2-style circuit: a feeds b and c, which reconverge
    /// at e; d covers O1, e covers O2 and O3 via f/g.
    fn fig2() -> (Aig, NodeId) {
        let mut aig = Aig::new("fig2");
        let x = aig.add_input("x");
        let y = aig.add_input("y");
        let z = aig.add_input("z");
        let a = aig.and(x, y); // node a
        let b = aig.and(a, z);
        let c = aig.and(a, !z);
        let d = aig.and(b, x);
        let e = aig.and(b, c);
        aig.add_output(d, "O1");
        aig.add_output(e, "O2");
        aig.add_output(!e, "O3");
        (aig, a.node())
    }

    #[test]
    fn reconvergence_is_resolved() {
        let (aig, a) = fig2();
        let reach = ReachMap::compute(&aig);
        let cut = closest_disjoint_cut(&aig, &reach, &ranks(&aig), a);
        verify_cut(&aig, &reach, a, &cut).unwrap();
        // b covers O1 via d... but b also reaches e; reconvergence of b and c
        // at e forces expansion. The exact members depend on structure, but
        // validity is what matters, plus: must cover all three outputs.
        let mut covered: Vec<usize> =
            cut.members().iter().flat_map(|&m| DisjointCut::covered_outputs(m, &reach)).collect();
        covered.sort();
        assert_eq!(covered, vec![0, 1, 2]);
    }

    #[test]
    fn single_fanout_gives_singleton_cut() {
        let mut aig = Aig::new("chain");
        let x = aig.add_input("x");
        let y = aig.add_input("y");
        let g1 = aig.and(x, y);
        let g2 = aig.and(g1, x);
        aig.add_output(g2, "o");
        let reach = ReachMap::compute(&aig);
        let cut = closest_disjoint_cut(&aig, &reach, &ranks(&aig), g1.node());
        assert_eq!(cut.members(), &[CutMember::Node(g2.node())]);
        verify_cut(&aig, &reach, g1.node(), &cut).unwrap();
    }

    #[test]
    fn direct_output_gives_sink_member() {
        let mut aig = Aig::new("po");
        let x = aig.add_input("x");
        let y = aig.add_input("y");
        let g = aig.and(x, y);
        aig.add_output(g, "o0");
        let reach = ReachMap::compute(&aig);
        let cut = closest_disjoint_cut(&aig, &reach, &ranks(&aig), g.node());
        assert_eq!(cut.members(), &[CutMember::Output(0)]);
        verify_cut(&aig, &reach, g.node(), &cut).unwrap();
    }

    #[test]
    fn fanout_to_independent_outputs_stays_close() {
        // g feeds h0 -> o0 and h1 -> o1 with no reconvergence: cut = {h0, h1}.
        let mut aig = Aig::new("split");
        let x = aig.add_input("x");
        let y = aig.add_input("y");
        let z = aig.add_input("z");
        let g = aig.and(x, y);
        let h0 = aig.and(g, z);
        let h1 = aig.and(g, !z);
        aig.add_output(h0, "o0");
        aig.add_output(h1, "o1");
        let reach = ReachMap::compute(&aig);
        let cut = closest_disjoint_cut(&aig, &reach, &ranks(&aig), g.node());
        let mut expect = vec![CutMember::Node(h0.node()), CutMember::Node(h1.node())];
        expect.sort();
        assert_eq!(cut.members(), expect.as_slice());
        verify_cut(&aig, &reach, g.node(), &cut).unwrap();
    }

    #[test]
    fn node_driving_output_and_gate_reconverging() {
        // g drives o0 directly and feeds h which also drives o0? Impossible —
        // one output has one driver. Instead: g -> o0 and g -> h -> o1.
        let mut aig = Aig::new("mix");
        let x = aig.add_input("x");
        let y = aig.add_input("y");
        let g = aig.and(x, y);
        let h = aig.and(g, x);
        aig.add_output(g, "o0");
        aig.add_output(h, "o1");
        let reach = ReachMap::compute(&aig);
        let cut = closest_disjoint_cut(&aig, &reach, &ranks(&aig), g.node());
        verify_cut(&aig, &reach, g.node(), &cut).unwrap();
        let mut expect = vec![CutMember::Node(h.node()), CutMember::Output(0)];
        expect.sort();
        assert_eq!(cut.members(), expect.as_slice());
    }

    #[test]
    fn every_node_of_fig2_gets_valid_cut() {
        let (aig, _) = fig2();
        let reach = ReachMap::compute(&aig);
        let rk = ranks(&aig);
        for id in aig.iter_live() {
            let cut = closest_disjoint_cut(&aig, &reach, &rk, id);
            verify_cut(&aig, &reach, id, &cut).unwrap();
        }
    }

    #[test]
    fn unused_input_gets_empty_cut() {
        let mut aig = Aig::new("u");
        let x = aig.add_input("x");
        let _unused = aig.add_input("dead");
        aig.add_output(x, "o");
        let reach = ReachMap::compute(&aig);
        let cut = closest_disjoint_cut(&aig, &reach, &ranks(&aig), aig.inputs()[1]);
        assert!(cut.is_empty());
    }
}
