//! Modulo-scheduling helpers shared by all mappers.
//!
//! Schedule times are what the fan-out consolidation pass
//! ([`crate::fanout`]) treats as immutable: a multi-sink signal's route
//! tree must deliver the value to every sink at exactly the time the
//! schedule assigned it, so consolidating routes can never perturb the
//! functions here — only the paths between the scheduled endpoints.

use rewire_arch::{Cgra, OpKind, PeId};
use rewire_dfg::{Dfg, NodeId};

/// Modulo-constrained ASAP schedule: the earliest absolute time of every
/// node under `t_dst ≥ t_src + 1 − dist·II`, shifted so the minimum is 0.
///
/// Returns `None` if `ii < RecMII` (the constraint system has a positive
/// cycle and no schedule exists).
///
/// # Examples
///
/// ```
/// use rewire_arch::OpKind;
/// use rewire_dfg::Dfg;
/// use rewire_mappers::schedule_asap;
///
/// let mut dfg = Dfg::new("acc");
/// let phi = dfg.add_node("phi", OpKind::Phi);
/// let add = dfg.add_node("add", OpKind::Add);
/// dfg.add_edge(phi, add, 0)?;
/// dfg.add_edge(add, phi, 1)?;
/// assert!(schedule_asap(&dfg, 1).is_none()); // RecMII is 2
/// let t = schedule_asap(&dfg, 2).unwrap();
/// assert_eq!(t[add.index()], t[phi.index()] + 1);
/// # Ok::<(), rewire_dfg::GraphError>(())
/// ```
pub fn schedule_asap(dfg: &Dfg, ii: u32) -> Option<Vec<u32>> {
    let n = dfg.num_nodes();
    let mut t = vec![0i64; n];
    let mut converged = false;
    for _ in 0..=n {
        let mut changed = false;
        for e in dfg.edges() {
            let w = 1i64 - ii as i64 * e.distance() as i64;
            let cand = t[e.src().index()] + w;
            if cand > t[e.dst().index()] {
                t[e.dst().index()] = cand;
                changed = true;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    if !converged {
        return None; // positive cycle: ii below RecMII
    }
    let min = t.iter().copied().min().unwrap_or(0);
    Some(t.into_iter().map(|x| (x - min) as u32).collect())
}

/// PEs able to execute `op`, in id order.
pub fn candidate_pes(cgra: &Cgra, op: OpKind) -> Vec<PeId> {
    cgra.pes_supporting(op).map(|p| p.id()).collect()
}

/// Iterative modulo scheduling (Rau, MICRO '94 — the paper's citation for
/// MII): assigns every node an absolute time such that
///
/// * all dependence constraints `t_dst ≥ t_src + 1 − dist·II` hold, and
/// * no modulo slot is oversubscribed (at most `#PEs` operations and at
///   most `#memory PEs` memory operations per slot).
///
/// Operations are scheduled in decreasing criticality (height) order at
/// their earliest feasible slot; when a slot range is full, the scheduler
/// force-places and evicts lower-priority conflicting operations, within an
/// iteration budget.
///
/// Returns `None` when `ii < RecMII` or the budget is exhausted — the
/// caller should try the next II.
pub fn modulo_schedule(dfg: &Dfg, cgra: &Cgra, ii: u32) -> Option<Vec<u32>> {
    let n = dfg.num_nodes();
    if n == 0 {
        return Some(Vec::new());
    }
    schedule_asap(dfg, ii)?; // fail fast below RecMII

    // Height-based priority: distance to the furthest sink over intra
    // edges; higher = more critical = scheduled first.
    let order = dfg.topo_order();
    let mut height = vec![0u32; n];
    for &v in order.iter().rev() {
        for e in dfg.out_edges(v) {
            if e.distance() == 0 {
                height[v.index()] = height[v.index()].max(height[e.dst().index()] + 1);
            }
        }
    }

    // Fan-out-aware edge latency: a producer with f consumers needs them
    // spread over a radius-r neighbourhood with capacity ≥ f (a mesh holds
    // ~5 PEs at radius 1, ~13 at radius 2), so high-fanout edges get extra
    // schedule slack for routing. Without this, ASAP packing makes wide
    // broadcasts geometrically unplaceable.
    // Memory operations are pinned to the memory columns, so values moving
    // into or out of them typically cross the fabric: give those edges one
    // extra cycle of slack as well.
    let mem_cols = cgra.memory_pes().count() < cgra.num_pes();
    let latency: Vec<u32> = dfg
        .node_ids()
        .map(|u| {
            let fanout_lat = match dfg.children(u).count() {
                0..=3 => 1,
                4..=8 => 2,
                _ => 3,
            };
            let mem_pad = u32::from(
                mem_cols
                    && (dfg.node(u).op().is_memory()
                        || dfg.children(u).any(|c| dfg.node(c).op().is_memory())),
            );
            fanout_lat + mem_pad
        })
        .collect();

    let pes = cgra.num_pes() as u32;
    let mem_pes = cgra.memory_pes().count() as u32;
    let mut total = vec![0u32; ii as usize];
    let mut mem = vec![0u32; ii as usize];
    let mut time: Vec<Option<u32>> = vec![None; n];
    let is_mem: Vec<bool> = dfg.nodes().map(|v| v.op().is_memory()).collect();

    let fits = |slot: usize, is_mem_op: bool, total: &[u32], mem: &[u32]| {
        total[slot] < pes && (!is_mem_op || mem[slot] < mem_pes)
    };

    // Worklist in priority order; evictions push back.
    let mut worklist: Vec<NodeId> = dfg.node_ids().collect();
    worklist.sort_by_key(|v| std::cmp::Reverse(height[v.index()]));
    let mut queue: std::collections::VecDeque<NodeId> = worklist.into();
    let mut budget = 20 * n as u32 + 100;

    while let Some(v) = queue.pop_front() {
        if budget == 0 {
            return None;
        }
        budget -= 1;

        let mut lb = 0i64;
        for e in dfg.in_edges(v) {
            if e.src() == v {
                continue; // self-loop: satisfied whenever dist·II ≥ 1
            }
            if let Some(tp) = time[e.src().index()] {
                // Loop-carried edges already have dist·II cycles of routing
                // slack; only intra-iteration edges need the fanout/memory
                // latency padding.
                let lat = if e.distance() == 0 {
                    latency[e.src().index()] as i64
                } else {
                    1
                };
                lb = lb.max(tp as i64 + lat - (e.distance() * ii) as i64);
            }
        }
        let lb = lb.max(0) as u32;

        // Earliest feasible slot within one II period of the lower bound.
        let chosen = (lb..lb + ii)
            .find(|&t| fits((t % ii) as usize, is_mem[v.index()], &total, &mem))
            .unwrap_or(lb);
        let slot = (chosen % ii) as usize;

        // Evict a resource conflict if the forced slot is full: a memory op
        // blocked on memory capacity must evict a memory op; otherwise any
        // occupant of the slot will do.
        if !fits(slot, is_mem[v.index()], &total, &mem) {
            let need_mem_victim = is_mem[v.index()] && mem[slot] >= mem_pes;
            let victim = dfg
                .node_ids()
                .filter(|u| {
                    time[u.index()].is_some_and(|t| (t % ii) as usize == slot)
                        && (!need_mem_victim || is_mem[u.index()])
                })
                .min_by_key(|u| height[u.index()])?;
            let tv = time[victim.index()].take().expect("victim was scheduled");
            let vslot = (tv % ii) as usize;
            total[vslot] -= 1;
            if is_mem[victim.index()] {
                mem[vslot] -= 1;
            }
            queue.push_back(victim);
        }

        time[v.index()] = Some(chosen);
        total[slot] += 1;
        if is_mem[v.index()] {
            mem[slot] += 1;
        }

        // Evict scheduled successors whose dependence is now violated.
        for e in dfg.out_edges(v) {
            if e.dst() == v {
                continue;
            }
            if let Some(tc) = time[e.dst().index()] {
                let lat = if e.distance() == 0 {
                    latency[v.index()]
                } else {
                    1
                };
                if ((tc + e.distance() * ii) as i64) < (chosen + lat) as i64 {
                    let cslot = (tc % ii) as usize;
                    total[cslot] -= 1;
                    if is_mem[e.dst().index()] {
                        mem[cslot] -= 1;
                    }
                    time[e.dst().index()] = None;
                    queue.push_back(e.dst());
                }
            }
        }
    }

    let times: Vec<u32> = time
        .into_iter()
        .map(|t| t.expect("queue drained"))
        .collect();
    // Final sanity: all dependence constraints hold (with the padded
    // latencies, which imply the architectural ≥ 1 requirement).
    for e in dfg.edges() {
        // Self-loops and loop-carried edges need no padding (dist·II cycles
        // of slack); the architectural ≥ 1 cycle is all that applies.
        let lat = if e.src() == e.dst() || e.distance() > 0 {
            1
        } else {
            latency[e.src().index()] as i64
        };
        let ok = times[e.dst().index()] as i64 + (e.distance() * ii) as i64
            >= times[e.src().index()] as i64 + lat;
        if !ok {
            return None;
        }
    }
    let min = *times.iter().min().expect("non-empty");
    Some(times.into_iter().map(|t| t - min).collect())
}

/// A default scheduling horizon: enough room for the critical path plus
/// slack for routing detours, in absolute cycles.
pub fn default_horizon(dfg: &Dfg, ii: u32) -> u32 {
    dfg.longest_path() + 3 * ii + 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewire_arch::presets;

    fn diamond() -> Dfg {
        let mut g = Dfg::new("d");
        let a = g.add_node("a", OpKind::Load);
        let b = g.add_node("b", OpKind::Add);
        let c = g.add_node("c", OpKind::Mul);
        let d = g.add_node("d", OpKind::Store);
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(a, c, 0).unwrap();
        g.add_edge(b, d, 0).unwrap();
        g.add_edge(c, d, 0).unwrap();
        g
    }

    #[test]
    fn asap_matches_plain_asap_without_recurrences() {
        let g = diamond();
        assert_eq!(schedule_asap(&g, 1).unwrap(), g.asap_times());
    }

    #[test]
    fn asap_respects_recurrences() {
        let mut g = Dfg::new("r");
        let phi = g.add_node("phi", OpKind::Phi);
        let a = g.add_node("a", OpKind::Add);
        let b = g.add_node("b", OpKind::Add);
        g.add_edge(phi, a, 0).unwrap();
        g.add_edge(a, b, 0).unwrap();
        g.add_edge(b, phi, 1).unwrap();
        assert!(schedule_asap(&g, 2).is_none(), "RecMII is 3");
        let t = schedule_asap(&g, 3).unwrap();
        // Constraint t_phi >= t_b + 1 - 3 must hold.
        assert!(t[phi.index()] as i64 >= t[b.index()] as i64 + 1 - 3);
    }

    #[test]
    fn memory_candidates_are_restricted() {
        let cgra = presets::paper_4x4_r4();
        assert_eq!(candidate_pes(&cgra, OpKind::Load).len(), 4);
        assert_eq!(candidate_pes(&cgra, OpKind::Add).len(), 16);
    }

    #[test]
    fn horizon_scales_with_depth_and_ii() {
        let g = diamond();
        assert!(default_horizon(&g, 4) > default_horizon(&g, 2));
    }
}
