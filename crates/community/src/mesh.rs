//! The physical mesh: nodes, radio links, gateways, service reachability.

use crate::{CommunityError, Result};
use humnet_stats::Rng;

/// Operational state of a mesh node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Powered and relaying.
    Up,
    /// Failed, awaiting repair.
    Down,
}

/// Configuration of a random geometric mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshConfig {
    /// Number of nodes (including gateways).
    pub nodes: usize,
    /// Number of gateway (backhaul) nodes, placed first.
    pub gateways: usize,
    /// Side length of the square deployment area.
    pub area: f64,
    /// Radio range: nodes within this distance get a link.
    pub radio_range: f64,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            nodes: 40,
            gateways: 2,
            area: 10.0,
            radio_range: 2.5,
        }
    }
}

/// A deployed mesh network.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshNetwork {
    /// Node positions.
    positions: Vec<(f64, f64)>,
    /// Adjacency lists (radio links).
    links: Vec<Vec<usize>>,
    /// Per-node state.
    states: Vec<NodeState>,
    /// Gateway node ids (distinct).
    gateways: Vec<usize>,
}

impl MeshNetwork {
    /// Deploy a random geometric mesh. Positions are uniform over the area;
    /// links join nodes within radio range. Deterministic given the RNG.
    pub fn deploy(config: &MeshConfig, rng: &mut Rng) -> Result<Self> {
        if config.nodes == 0 {
            return Err(CommunityError::InvalidParameter("need at least one node"));
        }
        if config.gateways == 0 || config.gateways > config.nodes {
            return Err(CommunityError::InvalidParameter(
                "gateways must be in [1, nodes]",
            ));
        }
        if config.area <= 0.0 || config.radio_range <= 0.0 {
            return Err(CommunityError::InvalidParameter(
                "area and radio_range must be positive",
            ));
        }
        let positions: Vec<(f64, f64)> = (0..config.nodes)
            .map(|_| {
                (
                    rng.range_f64(0.0, config.area),
                    rng.range_f64(0.0, config.area),
                )
            })
            .collect();
        let mut links = vec![Vec::new(); config.nodes];
        for i in 0..config.nodes {
            for j in (i + 1)..config.nodes {
                let dx = positions[i].0 - positions[j].0;
                let dy = positions[i].1 - positions[j].1;
                if (dx * dx + dy * dy).sqrt() <= config.radio_range {
                    links[i].push(j);
                    links[j].push(i);
                }
            }
        }
        Ok(MeshNetwork {
            positions,
            links,
            states: vec![NodeState::Up; config.nodes],
            gateways: (0..config.gateways).collect(),
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Gateway ids.
    pub fn gateways(&self) -> &[usize] {
        &self.gateways
    }

    /// Position of a node.
    pub fn position(&self, id: usize) -> Result<(f64, f64)> {
        self.positions
            .get(id)
            .copied()
            .ok_or(CommunityError::InvalidNode(id))
    }

    /// State of a node.
    pub fn state(&self, id: usize) -> Result<NodeState> {
        self.states
            .get(id)
            .copied()
            .ok_or(CommunityError::InvalidNode(id))
    }

    /// Set a node's state.
    pub fn set_state(&mut self, id: usize, state: NodeState) -> Result<()> {
        match self.states.get_mut(id) {
            Some(s) => {
                *s = state;
                Ok(())
            }
            None => Err(CommunityError::InvalidNode(id)),
        }
    }

    /// Neighbors of a node.
    pub fn neighbors(&self, id: usize) -> &[usize] {
        &self.links[id]
    }

    /// Number of nodes with *service*: up and able to reach an up gateway
    /// through up nodes. A breadth-first search from the up gateways that
    /// reuses `scratch`'s buffers across calls.
    pub fn served_count(&self, scratch: &mut ServiceScratch) -> usize {
        let ServiceScratch { served, queue } = scratch;
        served.clear();
        served.resize(self.node_count(), false);
        queue.clear();
        for &g in &self.gateways {
            if self.states[g] == NodeState::Up {
                served[g] = true;
                queue.push(g);
            }
        }
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &v in &self.links[u] {
                if !served[v] && self.states[v] == NodeState::Up {
                    served[v] = true;
                    queue.push(v);
                }
            }
        }
        queue.len()
    }

    /// Fraction of all nodes currently holding service.
    pub fn service_fraction(&self) -> f64 {
        self.served_count(&mut ServiceScratch::default()) as f64 / self.node_count().max(1) as f64
    }
}

/// Reusable buffers for [`MeshNetwork::served_count`]: after a call,
/// `served` is the service bitmap and `queue` the served nodes in visit
/// order.
#[derive(Debug, Default)]
pub struct ServiceScratch {
    served: Vec<bool>,
    queue: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_mesh() -> MeshNetwork {
        // Small area + big range => fully connected.
        let cfg = MeshConfig {
            nodes: 10,
            gateways: 1,
            area: 1.0,
            radio_range: 2.0,
        };
        MeshNetwork::deploy(&cfg, &mut Rng::new(1)).unwrap()
    }

    #[test]
    fn deploy_rejects_bad_configs() {
        let mut rng = Rng::new(1);
        let mut c = MeshConfig::default();
        c.nodes = 0;
        assert!(MeshNetwork::deploy(&c, &mut rng).is_err());
        let mut c = MeshConfig::default();
        c.gateways = 0;
        assert!(MeshNetwork::deploy(&c, &mut rng).is_err());
        let mut c = MeshConfig::default();
        c.gateways = c.nodes + 1;
        assert!(MeshNetwork::deploy(&c, &mut rng).is_err());
        let mut c = MeshConfig::default();
        c.radio_range = 0.0;
        assert!(MeshNetwork::deploy(&c, &mut rng).is_err());
    }

    #[test]
    fn deploy_is_deterministic() {
        let cfg = MeshConfig::default();
        let a = MeshNetwork::deploy(&cfg, &mut Rng::new(5)).unwrap();
        let b = MeshNetwork::deploy(&cfg, &mut Rng::new(5)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fully_up_dense_mesh_serves_everyone() {
        let m = dense_mesh();
        assert_eq!(m.service_fraction(), 1.0);
    }

    #[test]
    fn gateway_failure_kills_service() {
        let mut m = dense_mesh();
        m.set_state(0, NodeState::Down).unwrap(); // only gateway
        assert_eq!(m.service_fraction(), 0.0);
        assert_eq!(m.state(0).unwrap(), NodeState::Down);
    }

    #[test]
    fn node_failure_disconnects_subtree() {
        // Line topology: g - a - b. Take a down; b loses service.
        let mut m = MeshNetwork {
            positions: vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
            links: vec![vec![1], vec![0, 2], vec![1]],
            states: vec![NodeState::Up; 3],
            gateways: vec![0],
        };
        assert_eq!(m.service_fraction(), 1.0);
        m.set_state(1, NodeState::Down).unwrap();
        let mut scratch = ServiceScratch::default();
        assert_eq!(m.served_count(&mut scratch), 1);
        assert_eq!(
            scratch.served,
            [true, false, false],
            "downstream node orphaned"
        );
        assert!((m.service_fraction() - 1.0 / 3.0).abs() < 1e-12);
        // Reused buffers start over: the repair restores the full count.
        m.set_state(1, NodeState::Up).unwrap();
        assert_eq!(m.served_count(&mut scratch), 3);
        assert_eq!(scratch.served, [true; 3]);
    }

    #[test]
    fn only_up_nodes_hold_service() {
        for seed in 0..50 {
            let mut rng = Rng::new(seed);
            let mut m = MeshNetwork::deploy(&MeshConfig::default(), &mut rng).unwrap();
            for v in 0..m.node_count() {
                if rng.chance(0.3) {
                    m.set_state(v, NodeState::Down).unwrap();
                }
            }
            let mut scratch = ServiceScratch::default();
            let served = m.served_count(&mut scratch);
            assert_eq!(served, scratch.served.iter().filter(|&&s| s).count());
            for (v, &s) in scratch.served.iter().enumerate() {
                assert!(!s || m.states[v] == NodeState::Up, "seed {seed}: node {v}");
            }
        }
    }

    #[test]
    fn invalid_node_access_errors() {
        let mut m = dense_mesh();
        assert!(m.position(99).is_err());
        assert!(m.state(99).is_err());
        assert!(m.set_state(99, NodeState::Down).is_err());
    }

    #[test]
    fn sparse_mesh_may_be_partitioned() {
        let cfg = MeshConfig {
            nodes: 30,
            gateways: 1,
            area: 100.0,
            radio_range: 1.0,
        };
        let m = MeshNetwork::deploy(&cfg, &mut Rng::new(3)).unwrap();
        // With this density, some nodes are isolated from the gateway.
        assert!(m.service_fraction() < 1.0);
    }
}
