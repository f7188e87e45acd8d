//! Function-to-node placement policies (the paper's "function mapping",
//! §6.1: DataFlower exposes an open interface to the upper load balancer).

use dataflower_workflow::FnId;

use crate::ids::{NodeId, WfId};
use crate::world::World;

/// Decides which node hosts containers of a given function.
///
/// Implementations may consult live world state (load-aware policies) or
/// be purely static (the default routing table of Fig. 8).
pub trait Placement {
    /// Node for containers of `(wf, func)`.
    fn node_for(&mut self, world: &World, wf: WfId, func: FnId) -> NodeId;
}

/// Static spread: function *k* of a workflow lives on node `k mod N`, the
/// deterministic routing-table mapping of Fig. 8. Successive functions of
/// a pipeline land on different nodes, exercising cross-node data-flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpreadPlacement;

impl Placement for SpreadPlacement {
    fn node_for(&mut self, world: &World, wf: WfId, func: FnId) -> NodeId {
        let n = world.node_count();
        NodeId::from_index((func.index() + wf.index()) % n)
    }
}

/// Forces every function onto one node (the Fig. 13 single-node setup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleNodePlacement(pub NodeId);

impl Default for SingleNodePlacement {
    fn default() -> Self {
        SingleNodePlacement(NodeId::from_index(0))
    }
}

impl Placement for SingleNodePlacement {
    fn node_for(&mut self, _world: &World, _wf: WfId, _func: FnId) -> NodeId {
        self.0
    }
}

/// Load-aware: picks the node with the most available CPU, breaking ties
/// by index. Used when scaling out under pressure so new containers land
/// on the least-loaded machine.
///
/// The live runtime's counterpart is the `dataflower_rt::LoadAware`
/// placement policy, which greedily bin-packs functions onto the
/// least-loaded node of a per-node base-load vector — the two policies
/// share the load-aware name so simulated and live placement stay
/// recognizably the same knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadAwarePlacement;

impl Placement for LoadAwarePlacement {
    fn node_for(&mut self, world: &World, _wf: WfId, _func: FnId) -> NodeId {
        let mut best = NodeId::from_index(0);
        let mut best_cpu = f64::NEG_INFINITY;
        for i in 0..world.node_count() {
            let id = NodeId::from_index(i);
            let cpu = world.node_cpu_available(id);
            if cpu > best_cpu {
                best_cpu = cpu;
                best = id;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TestbedConfig;

    fn world() -> World {
        World::new(TestbedConfig::default())
    }

    #[test]
    fn spread_is_stable_and_covers_nodes() {
        let w = world();
        let mut p = SpreadPlacement;
        let wf = WfId::from_index(0);
        let nodes: Vec<usize> = (0..6)
            .map(|i| p.node_for(&w, wf, fn_id(i)).index())
            .collect();
        assert_eq!(nodes, vec![0, 1, 2, 0, 1, 2]);
        // Stable on repeat.
        assert_eq!(p.node_for(&w, wf, fn_id(4)).index(), 1);
    }

    #[test]
    fn single_node_pins() {
        let w = world();
        let mut p = SingleNodePlacement::default();
        assert_eq!(p.node_for(&w, WfId::from_index(0), fn_id(5)).index(), 0);
    }

    #[test]
    fn least_loaded_prefers_free_cpu() {
        let w = world();
        let mut p = LoadAwarePlacement;
        // All equal → first node.
        assert_eq!(p.node_for(&w, WfId::from_index(0), fn_id(0)).index(), 0);
    }

    fn fn_id(i: usize) -> FnId {
        use dataflower_workflow::{SizeModel, WorkModel, WorkflowBuilder};
        // FnId has no public constructor; mint one via a throwaway workflow.
        let mut b = WorkflowBuilder::new("ids");
        let mut last = None;
        for k in 0..=i {
            let f = b.function(format!("f{k}"), WorkModel::fixed(0.1));
            b.client_input(f, "in", SizeModel::Fixed(1.0));
            b.client_output(f, "out", SizeModel::Fixed(1.0));
            last = Some(f);
        }
        let _ = b.build().unwrap();
        last.unwrap()
    }
}
