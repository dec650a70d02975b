//! Force-directed scheduling (Paulin & Knight, the paper's ref. \[9\]).
//!
//! Given a latency budget, force-directed scheduling places operations one
//! at a time into the control step that minimizes the "force" — the
//! increase in expected concurrency of its operation class — balancing the
//! distribution graphs and therefore minimizing the functional units
//! needed. CHOP's prediction sweep uses list scheduling (allocation →
//! latency); this module provides the dual direction (latency →
//! allocation), available to downstream predictors.

use std::collections::BTreeMap;
use std::fmt;

use chop_dfg::{Dfg, NodeId, OpClass};

use crate::bounds::{alap_times, asap_times};
use crate::list::{NodeSpec, ResourceMap, Schedule};

/// Error returned by [`force_directed_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForceScheduleError {
    /// The latency budget is shorter than the critical path.
    LatencyTooShort {
        /// Requested budget in cycles.
        requested: u64,
        /// Critical-path length in cycles.
        critical_path: u64,
    },
    /// The spec does not cover every node.
    SpecLengthMismatch {
        /// Nodes in the graph.
        expected: usize,
        /// Entries supplied.
        found: usize,
    },
}

impl fmt::Display for ForceScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForceScheduleError::LatencyTooShort { requested, critical_path } => write!(
                f,
                "latency budget {requested} is below the critical path {critical_path}"
            ),
            ForceScheduleError::SpecLengthMismatch { expected, found } => {
                write!(f, "node spec covers {found} nodes, graph has {expected}")
            }
        }
    }
}

impl std::error::Error for ForceScheduleError {}

/// Schedules the graph into at most `latency` cycles, choosing control
/// steps that minimize per-class concurrency (self-force only, the
/// classic first-order formulation).
///
/// Returns the schedule and the implied allocation — the per-class peak
/// concurrency, i.e. the functional units the schedule needs.
///
/// # Errors
///
/// Returns [`ForceScheduleError::LatencyTooShort`] if the critical path
/// exceeds `latency`, or a length mismatch error for bad specs.
///
/// # Examples
///
/// ```
/// use chop_dfg::{benchmarks, OpClass};
/// use chop_sched::force::force_directed_schedule;
/// use chop_sched::NodeSpec;
///
/// let g = benchmarks::ar_lattice_filter();
/// let specs = NodeSpec::uniform(&g, 1);
/// // Relaxed budget: FDS balances the 16 multiplications over 8 steps.
/// let (schedule, alloc) = force_directed_schedule(&g, &specs, 8)?;
/// assert!(schedule.makespan() <= 8);
/// assert!(alloc.get(OpClass::Multiplication) <= 4);
/// # Ok::<(), chop_sched::force::ForceScheduleError>(())
/// ```
pub fn force_directed_schedule(
    dfg: &Dfg,
    specs: &NodeSpec,
    latency: u64,
) -> Result<(Schedule, ResourceMap), ForceScheduleError> {
    if specs.len() != dfg.len() {
        return Err(ForceScheduleError::SpecLengthMismatch {
            expected: dfg.len(),
            found: specs.len(),
        });
    }
    let asap = asap_times(dfg, specs);
    let critical_path =
        dfg.node_ids().map(|id| asap[id.index()] + specs.duration(id)).max().unwrap_or(0);
    if critical_path > latency {
        return Err(ForceScheduleError::LatencyTooShort { requested: latency, critical_path });
    }

    // Time frames under the latency budget: ALAP against `latency` rather
    // than the critical path.
    let slack = latency - critical_path;
    let alap_cp = alap_times(dfg, specs);
    let mut earliest: Vec<u64> = asap.clone();
    let mut latest: Vec<u64> = alap_cp.iter().map(|&t| t + slack).collect();

    // Distribution graphs per class: expected concurrency per cycle,
    // assuming uniform placement within each frame.
    let fu_nodes: Vec<NodeId> =
        dfg.node_ids().filter(|&id| specs.resource(id).is_some()).collect();
    let mut fixed: Vec<Option<u64>> = vec![None; dfg.len()];

    let distribution = |class: OpClass,
                        earliest: &[u64],
                        latest: &[u64],
                        fixed: &[Option<u64>],
                        dfg: &Dfg,
                        specs: &NodeSpec|
     -> Vec<f64> {
        let mut dg = vec![0.0f64; latency as usize + 1];
        for id in dfg.node_ids() {
            if specs.resource(id) != Some(class) {
                continue;
            }
            let dur = specs.duration(id).max(1);
            let (lo, hi) = match fixed[id.index()] {
                Some(t) => (t, t),
                None => (earliest[id.index()], latest[id.index()]),
            };
            let frames = (hi - lo + 1) as f64;
            for start in lo..=hi {
                for c in start..(start + dur).min(latency) {
                    dg[c as usize] += 1.0 / frames;
                }
            }
        }
        dg
    };

    // Greedy: repeatedly pick the unfixed op/step pair with minimum force.
    let mut remaining: Vec<NodeId> = fu_nodes.clone();
    while !remaining.is_empty() {
        let mut best: Option<(usize, u64, f64)> = None; // (idx in remaining, step, force)
        for (ri, &id) in remaining.iter().enumerate() {
            let class = specs.resource(id).expect("fu node");
            let dg = distribution(class, &earliest, &latest, &fixed, dfg, specs);
            let dur = specs.duration(id).max(1);
            let frames = (latest[id.index()] - earliest[id.index()] + 1) as f64;
            for t in earliest[id.index()]..=latest[id.index()] {
                // Self force: Σ over occupied cycles of DG(c)·(Δprob).
                let mut force = 0.0;
                for c in t..(t + dur).min(latency) {
                    force += dg[c as usize] * (1.0 - 1.0 / frames);
                }
                for s in earliest[id.index()]..=latest[id.index()] {
                    if s == t {
                        continue;
                    }
                    for c in s..(s + dur).min(latency) {
                        force -= dg[c as usize] / frames;
                    }
                }
                if best.is_none_or(|(_, _, f)| force < f - 1e-12) {
                    best = Some((ri, t, force));
                }
            }
        }
        let (ri, step, _) = best.expect("remaining is non-empty");
        let id = remaining.swap_remove(ri);
        fixed[id.index()] = Some(step);
        earliest[id.index()] = step;
        latest[id.index()] = step;
        // Propagate frame tightening through the precedence closure.
        propagate_frames(dfg, specs, &mut earliest, &mut latest);
    }

    // Zero-duration / non-FU nodes: ASAP placement within updated frames.
    let mut start = vec![0u64; dfg.len()];
    let mut finish = vec![0u64; dfg.len()];
    for &id in dfg.topo_order() {
        let s = match fixed[id.index()] {
            Some(t) => t,
            None => dfg.pred_nodes(id).map(|p| finish[p.index()]).max().unwrap_or(0),
        };
        start[id.index()] = s;
        finish[id.index()] = s + specs.duration(id);
    }
    let schedule = Schedule::from_parts(start, finish);

    // Implied allocation: per-class peak concurrency.
    let mut alloc = ResourceMap::new();
    let mut per_cycle: BTreeMap<(OpClass, u64), usize> = BTreeMap::new();
    for id in dfg.node_ids() {
        if let Some(class) = specs.resource(id) {
            for c in schedule.start(id)..schedule.finish(id) {
                *per_cycle.entry((class, c)).or_insert(0) += 1;
            }
        }
    }
    for ((class, _), n) in per_cycle {
        if n > alloc.get(class) {
            alloc.set(class, n);
        }
    }
    Ok((schedule, alloc))
}

/// Tightens every node's `[earliest, latest]` frame against its
/// neighbours' frames (forward ASAP pass + backward ALAP pass).
fn propagate_frames(dfg: &Dfg, specs: &NodeSpec, earliest: &mut [u64], latest: &mut [u64]) {
    for &id in dfg.topo_order() {
        let ready = dfg
            .pred_nodes(id)
            .map(|p| earliest[p.index()] + specs.duration(p))
            .max()
            .unwrap_or(0);
        earliest[id.index()] = earliest[id.index()].max(ready);
    }
    for &id in dfg.topo_order().iter().rev() {
        let due = dfg
            .succ_nodes(id)
            .map(|s| latest[s.index()].saturating_sub(specs.duration(id)))
            .min();
        if let Some(due) = due {
            latest[id.index()] = latest[id.index()].min(due);
        }
    }
}

#[cfg(test)]
mod tests {
    use chop_dfg::benchmarks;

    use super::*;
    use crate::list::{list_schedule, NodeSpec};

    #[test]
    fn latency_budget_enforced() {
        let g = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::uniform(&g, 1);
        let err = force_directed_schedule(&g, &specs, 3).unwrap_err();
        assert!(matches!(err, ForceScheduleError::LatencyTooShort { critical_path: 5, .. }));
    }

    #[test]
    fn schedule_is_precedence_valid() {
        let g = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::uniform(&g, 1);
        let (s, _) = force_directed_schedule(&g, &specs, 8).unwrap();
        for (_, e) in g.edges() {
            assert!(s.finish(e.src()) <= s.start(e.dst()));
        }
        assert!(s.makespan() <= 8);
    }

    #[test]
    fn relaxed_latency_needs_fewer_units() {
        let g = benchmarks::ar_lattice_filter();
        let specs = NodeSpec::uniform(&g, 1);
        let (_, tight) = force_directed_schedule(&g, &specs, 5).unwrap();
        let (_, loose) = force_directed_schedule(&g, &specs, 16).unwrap();
        assert!(
            loose.get(OpClass::Multiplication) <= tight.get(OpClass::Multiplication),
            "loose {loose} vs tight {tight}"
        );
        // 16 multiplications over 16 steps: a handful of multipliers
        // suffice (perfect balance of 1 is blocked by the mul→add→mul
        // precedence chains; greedy first-order FDS lands close).
        assert!(loose.get(OpClass::Multiplication) <= 4, "got {loose}");
    }

    #[test]
    fn fds_beats_or_matches_asap_peak_demand() {
        // The whole point of FDS: balanced distribution beats greedy ASAP
        // placement (here approximated by an unconstrained list schedule
        // padded to the same latency).
        let g = benchmarks::fir_filter(8);
        let specs = NodeSpec::uniform(&g, 1);
        let wide: crate::list::ResourceMap =
            [(OpClass::Addition, 8), (OpClass::Multiplication, 8)].into_iter().collect();
        let asap_like = list_schedule(&g, &specs, &wide).unwrap();
        let latency = asap_like.makespan() + 2;
        let (_, fds_alloc) = force_directed_schedule(&g, &specs, latency).unwrap();
        // ASAP fires all 8 muls in cycle 0; FDS spreads them.
        assert!(fds_alloc.get(OpClass::Multiplication) < 8);
    }

    #[test]
    fn multicycle_operations_respected() {
        let g = benchmarks::fir_filter(4);
        let specs = NodeSpec::from_fn(
            &g,
            |id| match g.node(id).op().class() {
                Some(OpClass::Multiplication) => 3,
                Some(_) => 1,
                None => 0,
            },
            |id| g.node(id).op().class(),
        );
        let (s, alloc) = force_directed_schedule(&g, &specs, 12).unwrap();
        for (_, e) in g.edges() {
            assert!(s.finish(e.src()) <= s.start(e.dst()));
        }
        assert!(alloc.get(OpClass::Multiplication) >= 1);
    }
}
