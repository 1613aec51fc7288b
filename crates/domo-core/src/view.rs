//! A sink-side view of a collected trace: variable numbering, known
//! times, per-node pass-through indexes, and the paper's candidate sets.
//!
//! This module establishes the paper's notation (§III.B) over a concrete
//! trace. For a packet `p` with path `N₀ … N_{|p|−1}`:
//!
//! * `t₀(p)` (generation) and `t_{|p|−1}(p)` (sink arrival) are *known*;
//! * every interior arrival time `t_i(p)` is an unknown **variable**;
//! * `S(p)` is the 2-byte sum-of-delays field;
//! * the candidate sets `C(p)` / `C*(p)` tie `S(p)` to the delays of
//!   other packets forwarded by `p`'s source (§IV.A).
//!
//! Everything here reads only what the sink legitimately knows — never
//! the simulator's ground truth.

use crate::expr::LinExpr;
use domo_net::{CollectedPacket, NodeId};
use domo_util::time::SimTime;
use std::collections::HashMap;

/// Reference to one hop of one packet (`hop` indexes into `path`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HopRef {
    /// Index of the packet in the trace view.
    pub packet: usize,
    /// Hop index along the packet's path.
    pub hop: usize,
}

/// An arrival time: either known at the sink or an unknown variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeRef {
    /// A time the sink knows exactly (milliseconds on the global axis).
    Known(f64),
    /// The unknown variable with this index.
    Var(usize),
}

/// The candidate sets of a packet (paper §IV.A): each entry is
/// `(packet index, hop index of the source node in that packet's path)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CandidateSets {
    /// `C(p)`: packets whose delay at `N₀(p)` *may* be included in S(p).
    pub possible: Vec<(usize, usize)>,
    /// `C*(p)`: packets whose delay is *guaranteed* included.
    pub certain: Vec<(usize, usize)>,
}

/// The sink-side view over a set of collected packets.
#[derive(Debug, Clone)]
pub struct TraceView {
    packets: Vec<CollectedPacket>,
    /// Per packet, per hop: the variable id (None for known endpoints).
    var_of: Vec<Vec<Option<usize>>>,
    /// Reverse map: variable id → hop reference.
    vars: Vec<HopRef>,
    /// node index → (packet, hop) pairs where the node forwards the
    /// packet (hop < |p|−1).
    passthrough: HashMap<usize, Vec<(usize, usize)>>,
    /// Per packet: index of the previous *received* local packet from
    /// the same origin (by generation time).
    prev_local: Vec<Option<usize>>,
}

impl TraceView {
    /// Builds the view. Packet order is preserved; all indexes in the
    /// API refer to positions in `packets`.
    pub fn new(packets: Vec<CollectedPacket>) -> Self {
        let n = packets.len();
        let mut var_of = Vec::with_capacity(n);
        let mut vars = Vec::new();
        let mut passthrough: HashMap<usize, Vec<(usize, usize)>> = HashMap::new();

        for (pi, p) in packets.iter().enumerate() {
            let len = p.path.len();
            let mut slots = vec![None; len];
            let interior = 1..len.saturating_sub(1);
            for (hop, slot) in slots.iter_mut().enumerate() {
                if interior.contains(&hop) {
                    *slot = Some(vars.len());
                    vars.push(HopRef { packet: pi, hop });
                }
            }
            var_of.push(slots);
            for hop in 0..len.saturating_sub(1) {
                passthrough
                    .entry(p.path[hop].index())
                    .or_default()
                    .push((pi, hop));
            }
        }

        // Previous received local packet per origin, by generation time.
        let mut by_origin: HashMap<u16, Vec<usize>> = HashMap::new();
        for (pi, p) in packets.iter().enumerate() {
            by_origin
                .entry(p.pid.origin.index() as u16)
                .or_default()
                .push(pi);
        }
        let mut prev_local = vec![None; n];
        for list in by_origin.values_mut() {
            list.sort_by_key(|&i| (packets[i].gen_time, packets[i].pid.seq));
            for w in list.windows(2) {
                prev_local[w[1]] = Some(w[0]);
            }
        }

        Self {
            packets,
            var_of,
            vars,
            passthrough,
            prev_local,
        }
    }

    /// Number of unknown arrival-time variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of packets.
    pub fn num_packets(&self) -> usize {
        self.packets.len()
    }

    /// The packets underlying the view.
    pub fn packets(&self) -> &[CollectedPacket] {
        &self.packets
    }

    /// Consumes the view and returns the packets it was built from, in
    /// their original order (lets a caller that moved a buffer into
    /// [`TraceView::new`] recover it without cloning).
    pub fn into_packets(self) -> Vec<CollectedPacket> {
        self.packets
    }

    /// Borrow one packet.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn packet(&self, i: usize) -> &CollectedPacket {
        &self.packets[i]
    }

    /// The hop each variable refers to.
    pub fn vars(&self) -> &[HopRef] {
        &self.vars
    }

    /// Milliseconds on the global axis for a simulated instant.
    pub fn ms(t: SimTime) -> f64 {
        t.as_millis_f64()
    }

    /// The arrival time `t_hop(packet)` as a known value or variable.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn time_ref(&self, packet: usize, hop: usize) -> TimeRef {
        let p = &self.packets[packet];
        match self.var_of[packet][hop] {
            Some(v) => TimeRef::Var(v),
            None if hop == 0 => TimeRef::Known(Self::ms(p.gen_time)),
            None => TimeRef::Known(Self::ms(p.sink_arrival)),
        }
    }

    /// The arrival time as an affine expression.
    pub fn time_expr(&self, packet: usize, hop: usize) -> LinExpr {
        match self.time_ref(packet, hop) {
            TimeRef::Known(ms) => LinExpr::constant_of(ms),
            TimeRef::Var(v) => LinExpr::var(v),
        }
    }

    /// The node delay `D(packet, hop) = t_{hop+1} − t_hop` as an affine
    /// expression.
    ///
    /// # Panics
    ///
    /// Panics if `hop + 1` is past the end of the path.
    pub fn delay_expr(&self, packet: usize, hop: usize) -> LinExpr {
        self.time_diff_expr((packet, hop + 1), (packet, hop))
    }

    /// `t(later) − t(earlier)` for two `(packet, hop)` arrival times: the
    /// same expression as `time_expr(later).sub(&time_expr(earlier))`,
    /// with the earlier time subtracted in place instead of built.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub(crate) fn time_diff_expr(&self, later: (usize, usize), earlier: (usize, usize)) -> LinExpr {
        let mut diff = self.time_expr(later.0, later.1);
        match self.time_ref(earlier.0, earlier.1) {
            TimeRef::Known(ms) => diff.add_constant(-ms),
            TimeRef::Var(v) => diff.add_term(v, -1.0),
        };
        diff
    }

    /// The `(packet, hop)` pairs forwarded by `node` (the node appears
    /// at `path[hop]` with `hop < |p|−1`).
    pub fn passthroughs(&self, node: NodeId) -> &[(usize, usize)] {
        self.passthrough
            .get(&node.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The pass-throughs of the packets in `subset` as `(node index,
    /// packet, hop)`, sorted: grouped by node in ascending order, and
    /// each group equal to [`TraceView::passthroughs`] of that node
    /// restricted to the subset. Costs O(subset · path length), not
    /// O(view), so a window reads only the nodes its packets cross.
    /// Split it per node with `chunk_by(|a, b| a.0 == b.0)`.
    ///
    /// # Panics
    ///
    /// Panics if a subset index is out of range.
    pub(crate) fn subset_passthroughs(&self, subset: &[usize]) -> Vec<(usize, usize, usize)> {
        let mut out: Vec<(usize, usize, usize)> = subset
            .iter()
            .flat_map(|&p| {
                let path = &self.packets[p].path;
                (0..path.len().saturating_sub(1)).map(move |hop| (path[hop].index(), p, hop))
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All node indexes that forward at least one packet.
    pub fn forwarding_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut keys: Vec<usize> = self.passthrough.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter().map(|k| NodeId::new(k as u16))
    }

    /// The previous received local packet of `packet`'s origin, if any.
    ///
    /// # Panics
    ///
    /// Panics if `packet` is out of range.
    pub fn prev_local(&self, packet: usize) -> Option<usize> {
        self.prev_local[packet]
    }

    /// Computes the candidate sets of `p` (paper §IV.A). Returns `None`
    /// when `p` has no previous received local packet to anchor `S(p)`,
    /// **or** when the previous received local packet is not `p`'s
    /// immediate predecessor by sequence number: a missing local packet
    /// in between means the node's sum-of-delays accumulator reset at a
    /// packet the sink never saw, so neither sum constraint can be
    /// anchored reliably (the paper's "guaranteed" constraint (7)
    /// implicitly assumes the local reset chain is observed; the
    /// sequence gap is exactly the sink-side signal that it was not).
    ///
    /// `C(p)`: every received `x ≠ p` forwarded by `N₀(p)` with
    /// `t₀(x) < t₀(p)` and `t_sink(x) > t₀(q)`.
    ///
    /// `C*(p)`: every received `x` forwarded by `N₀(p)` with
    /// `t₀(x) > t₀(q)` and `t_sink(x) < t₀(p)` — generated and received
    /// strictly between the generation times of `q` and `p`, which
    /// guarantees (by the FIFO argument of §IV.A) that its delay is
    /// inside `S(p)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn candidate_sets(&self, p: usize) -> Option<CandidateSets> {
        let q = self.prev_local[p]?;
        if self.packets[p].pid.seq != self.packets[q].pid.seq.wrapping_add(1) {
            return None; // a local packet between q and p was lost
        }
        let source = self.packets[p].path[0];
        let t0_p = self.packets[p].gen_time;
        let t0_q = self.packets[q].gen_time;

        let mut sets = CandidateSets::default();
        for &(x, hop) in self.passthroughs(source) {
            if x == p {
                continue;
            }
            let gen_x = self.packets[x].gen_time;
            let sink_x = self.packets[x].sink_arrival;
            if gen_x < t0_p && sink_x > t0_q {
                sets.possible.push((x, hop));
            }
            if gen_x > t0_q && sink_x < t0_p {
                sets.certain.push((x, hop));
            }
        }
        Some(sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domo_net::PacketId;
    use domo_util::time::SimTime;

    /// Builds a packet along `nodes` with evenly spaced hop times.
    fn packet(origin: u16, seq: u32, nodes: &[u16], gen_ms: u64, hop_ms: u64) -> CollectedPacket {
        let path: Vec<NodeId> = nodes.iter().map(|&n| NodeId::new(n)).collect();
        let gen = SimTime::from_millis(gen_ms);
        let arrival = SimTime::from_millis(gen_ms + hop_ms * (nodes.len() as u64 - 1));
        CollectedPacket {
            pid: PacketId::new(NodeId::new(origin), seq),
            gen_time: gen,
            sink_arrival: arrival,
            path,
            sum_of_delays_ms: hop_ms as u16,
            e2e_ms: (hop_ms * (nodes.len() as u64 - 1)) as u16,
        }
    }

    fn three_packet_view() -> TraceView {
        TraceView::new(vec![
            packet(5, 0, &[5, 3, 1, 0], 0, 10), // p0: gen 0, sink 30
            packet(5, 1, &[5, 3, 0], 100, 10),  // p1: gen 100, sink 120
            packet(3, 0, &[3, 1, 0], 50, 10),   // p2: gen 50, sink 70
        ])
    }

    #[test]
    fn variables_cover_interior_hops_only() {
        let v = three_packet_view();
        // p0 has 2 interior hops, p1 has 1, p2 has 1 → 4 variables.
        assert_eq!(v.num_vars(), 4);
        assert!(matches!(v.time_ref(0, 0), TimeRef::Known(t) if t == 0.0));
        assert!(matches!(v.time_ref(0, 3), TimeRef::Known(t) if t == 30.0));
        assert!(matches!(v.time_ref(0, 1), TimeRef::Var(_)));
        assert!(matches!(v.time_ref(0, 2), TimeRef::Var(_)));
        // Variable table is consistent.
        for (id, hr) in v.vars().iter().enumerate() {
            assert!(matches!(v.time_ref(hr.packet, hr.hop), TimeRef::Var(x) if x == id));
        }
    }

    #[test]
    fn delay_expr_is_time_difference() {
        let v = three_packet_view();
        // D(p1, 0) = t1(p1) − 100 where t1(p1) is a variable.
        let d = v.delay_expr(1, 0);
        assert_eq!(d.len(), 1);
        assert_eq!(d.constant(), -100.0);
        // D(p1, 1) = 120 − t1(p1).
        let d = v.delay_expr(1, 1);
        assert_eq!(d.len(), 1);
        assert_eq!(d.constant(), 120.0);
    }

    #[test]
    fn passthroughs_index_forwarders() {
        let v = three_packet_view();
        // Node 3 forwards p0 (hop 1), p1 (hop 1) and sources p2 (hop 0).
        let at3: Vec<_> = v.passthroughs(NodeId::new(3)).to_vec();
        assert!(at3.contains(&(0, 1)));
        assert!(at3.contains(&(1, 1)));
        assert!(at3.contains(&(2, 0)));
        // The sink never forwards.
        assert!(v.passthroughs(NodeId::SINK).is_empty());
        // Node 1 forwards p0 (hop 2) and p2 (hop 1).
        assert_eq!(v.passthroughs(NodeId::new(1)).len(), 2);
    }

    #[test]
    fn prev_local_links_same_origin_packets() {
        let v = three_packet_view();
        assert_eq!(v.prev_local(0), None);
        assert_eq!(v.prev_local(1), Some(0));
        assert_eq!(v.prev_local(2), None);
    }

    #[test]
    fn candidate_sets_follow_the_paper_conditions() {
        // p1 (gen 100) has q = p0 (gen 0). Source node 5 forwards only
        // p0 and p1 themselves → no other candidates.
        let v = three_packet_view();
        let sets = v.candidate_sets(1).expect("q exists");
        // p0 passes node 5 at hop 0; gen 0 < 100 and sink 30 > 0 → C.
        assert_eq!(sets.possible, vec![(0, 0)]);
        // C*: requires gen > 0 (strict) — p0 fails.
        assert!(sets.certain.is_empty());
        // p0 and p2 have no previous local packet.
        assert!(v.candidate_sets(0).is_none());
        assert!(v.candidate_sets(2).is_none());
    }

    #[test]
    fn certain_candidates_require_containment() {
        // Source 5 forwards x (origin 9) generated at 40, delivered at
        // 80: strictly inside (t0(q)=0, t0(p)=100) → certain.
        let mut packets = vec![
            packet(5, 0, &[5, 3, 0], 0, 10),
            packet(5, 1, &[5, 3, 0], 100, 10),
        ];
        packets.push(packet(9, 0, &[9, 5, 3, 0], 40, 10)); // via node 5
        let v = TraceView::new(packets);
        let sets = v.candidate_sets(1).expect("q exists");
        assert!(sets.certain.contains(&(2, 1)));
        // Certain ⊆ possible.
        for c in &sets.certain {
            assert!(sets.possible.contains(c));
        }
    }

    #[test]
    fn subset_passthroughs_restrict_the_per_node_lists() {
        let v = three_packet_view();
        for subset in [vec![0, 1, 2], vec![2, 0], vec![1], vec![0, 0, 2], vec![]] {
            let mut expected = Vec::new();
            for node in v.forwarding_nodes() {
                for &(p, hop) in v.passthroughs(node) {
                    if subset.contains(&p) {
                        expected.push((node.index(), p, hop));
                    }
                }
            }
            assert_eq!(v.subset_passthroughs(&subset), expected, "{subset:?}");
        }
    }

    #[test]
    fn forwarding_nodes_are_sorted_and_deduped() {
        let v = three_packet_view();
        let nodes: Vec<u16> = v.forwarding_nodes().map(|n| n.index() as u16).collect();
        assert_eq!(nodes, vec![1, 3, 5]);
    }
}
