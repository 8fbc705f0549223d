//! Configuration: the four ALEX variants of §5.1 (GA/PMA × SRMI/ARMI)
//! and the space-time knobs of §3.3.1 and §5.3.1.

use crate::pma_layout::DensityBounds;

/// How keys are placed when a node is (re)built — the ablation knob
/// for §3.2's *model-based insertion* ("model-based insertion has much
/// better search performance because it reduces the misprediction
/// error of the models").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Place every key at its model-predicted slot (ALEX's strategy).
    #[default]
    ModelBased,
    /// Spread keys uniformly, ignoring the model (the classic PMA /
    /// Learned-Index-bulk-load strategy the paper compares against).
    Uniform,
}

/// Per-data-node parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeParams {
    /// Density right after bulk load / expansion — the paper's `d²`
    /// (§3.3.1). The expansion factor is `c = 1/init_density`. The
    /// default 0.7 gives ≈43% space overhead, "similar to what B+Tree
    /// has" (§5.3.1).
    pub init_density: f64,
    /// Upper density limit `d` at which a gapped array expands
    /// (Algorithm 1). Defaults to `sqrt(init_density)` so expansion
    /// restores `init_density`.
    pub upper_density: f64,
    /// Density below which a node contracts after deletes (in either
    /// layout).
    pub lower_density: f64,
    /// Below this many keys a node skips its model and binary-searches
    /// ("cold start", §3.3.3).
    pub min_model_keys: usize,
    /// Implicit-tree upper density bounds for the PMA layout (§3.3.2).
    pub pma_bounds: DensityBounds,
    /// Key-placement strategy on (re)build (ablation knob; ALEX uses
    /// model-based placement).
    pub placement: Placement,
}

impl Default for NodeParams {
    fn default() -> Self {
        let init_density = 0.7;
        Self {
            init_density,
            upper_density: init_density.sqrt(),
            lower_density: 0.25,
            min_model_keys: 24,
            pma_bounds: DensityBounds::default(),
            placement: Placement::ModelBased,
        }
    }
}

impl NodeParams {
    /// Parameters for a target *space overhead* (Figure 10): overhead
    /// 0.43 ⇒ `c = 1.43`, density `1/c ≈ 0.7`.
    ///
    /// # Panics
    /// Panics unless `overhead > 0`.
    pub fn with_space_overhead(overhead: f64) -> Self {
        assert!(overhead > 0.0, "space overhead must be positive");
        let init_density = (1.0 / (1.0 + overhead)).clamp(0.05, 0.95);
        Self {
            init_density,
            upper_density: init_density.sqrt(),
            ..Self::default()
        }
    }

    /// The expansion factor `c = 1/d²` (§3.3.1).
    pub fn expansion_factor(&self) -> f64 {
        1.0 / self.init_density
    }
}

/// Which layout every [`DataNode`](crate::DataNode) uses (§3.3). Both
/// layouts place keys with the node's model and search from the
/// predicted slot; they differ only in how an insert makes room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeLayout {
    /// Gapped Array (Algorithm 1): shift to the nearest gap, expand by
    /// `1/d` at density `d`. Best lookups, `O(n)` worst-case inserts.
    Gapped,
    /// Packed Memory Array (Algorithm 2): rebalance the smallest window
    /// within its density bound ([`NodeParams::pma_bounds`]), double
    /// at the root bound. `O(log² n)` worst-case inserts.
    Pma,
}

/// How the RMI over the data nodes is built and maintained (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmiMode {
    /// Static RMI: two levels, a fixed number of leaf data nodes.
    Static {
        /// Number of leaf data nodes under the linear root.
        num_leaf_nodes: usize,
    },
    /// Adaptive RMI (Algorithm 4) with optional node splitting on
    /// inserts (§3.4.2).
    Adaptive {
        /// Maximum keys per data node at initialization; also the split
        /// trigger when `split_on_insert` is set.
        max_node_keys: usize,
        /// Partitions given to each non-root inner node.
        inner_fanout: usize,
        /// Split leaves that outgrow `max_node_keys` (§3.4.2). Off by
        /// default, as in the paper ("Unless otherwise stated, adaptive
        /// RMI does not do node splitting on inserts", §5.1).
        split_on_insert: bool,
        /// Children created per split.
        split_fanout: usize,
    },
}

impl RmiMode {
    /// The paper's default-ish adaptive mode.
    pub fn adaptive() -> Self {
        RmiMode::Adaptive {
            max_node_keys: 8192,
            inner_fanout: 16,
            split_on_insert: false,
            split_fanout: 4,
        }
    }

    /// Adaptive mode with node splitting on inserts enabled.
    pub fn adaptive_splitting() -> Self {
        RmiMode::Adaptive {
            max_node_keys: 8192,
            inner_fanout: 16,
            split_on_insert: true,
            split_fanout: 4,
        }
    }
}

/// Default per-leaf delta-buffer capacity for the shared (epoch)
/// write path — see [`AlexConfig::delta_buffer`].
pub const DEFAULT_DELTA_BUFFER_CAPACITY: usize = 32;

/// Full configuration for an [`crate::AlexIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlexConfig {
    /// Leaf layout.
    pub layout: NodeLayout,
    /// RMI mode.
    pub rmi: RmiMode,
    /// Data-node parameters.
    pub node: NodeParams,
    /// Per-leaf delta-buffer capacity of the shared (epoch) write path
    /// (`EpochAlex`): point writes land in a small sorted side-array
    /// published alongside the leaf snapshot and are folded into the
    /// gapped array only when the buffer fills or the leaf splits,
    /// amortizing the copy-on-write leaf clone to `O(leaf / capacity)`
    /// per write. `0` disables buffering: every shared write clones
    /// the full leaf, the pre-delta behaviour. Ignored by the exclusive
    /// (`&mut`) write path, which edits in place.
    pub delta_buffer: usize,
}

impl Default for AlexConfig {
    fn default() -> Self {
        Self::ga_armi()
    }
}

impl AlexConfig {
    /// ALEX-GA-SRMI: the read-only champion (§5.2.1).
    pub fn ga_srmi(num_leaf_nodes: usize) -> Self {
        Self {
            layout: NodeLayout::Gapped,
            rmi: RmiMode::Static { num_leaf_nodes },
            node: NodeParams::default(),
            delta_buffer: DEFAULT_DELTA_BUFFER_CAPACITY,
        }
    }

    /// ALEX-GA-ARMI: the read-write champion (§5.2.2).
    pub fn ga_armi() -> Self {
        Self {
            layout: NodeLayout::Gapped,
            rmi: RmiMode::adaptive(),
            node: NodeParams::default(),
            delta_buffer: DEFAULT_DELTA_BUFFER_CAPACITY,
        }
    }

    /// ALEX-PMA-SRMI.
    pub fn pma_srmi(num_leaf_nodes: usize) -> Self {
        Self {
            layout: NodeLayout::Pma,
            rmi: RmiMode::Static { num_leaf_nodes },
            node: NodeParams::default(),
            delta_buffer: DEFAULT_DELTA_BUFFER_CAPACITY,
        }
    }

    /// ALEX-PMA-ARMI: the sequential-insert survivor (§5.2.5).
    pub fn pma_armi() -> Self {
        Self {
            layout: NodeLayout::Pma,
            rmi: RmiMode::adaptive(),
            node: NodeParams::default(),
            delta_buffer: DEFAULT_DELTA_BUFFER_CAPACITY,
        }
    }

    /// Enable node splitting on inserts (requires an adaptive RMI).
    ///
    /// # Panics
    /// Panics when called on a static-RMI config.
    pub fn with_splitting(mut self) -> Self {
        match &mut self.rmi {
            RmiMode::Adaptive { split_on_insert, .. } => *split_on_insert = true,
            RmiMode::Static { .. } => panic!("node splitting requires an adaptive RMI"),
        }
        self
    }

    /// Override `max_node_keys` (adaptive only; no-op for static).
    pub fn with_max_node_keys(mut self, max: usize) -> Self {
        if let RmiMode::Adaptive { max_node_keys, .. } = &mut self.rmi {
            *max_node_keys = max;
        }
        self
    }

    /// Override node parameters.
    pub fn with_node_params(mut self, node: NodeParams) -> Self {
        self.node = node;
        self
    }

    /// Set the per-leaf delta-buffer capacity of the shared (epoch)
    /// write path (`0` disables buffering — every shared write copies
    /// the whole leaf).
    pub fn with_delta_buffer(mut self, capacity: usize) -> Self {
        self.delta_buffer = capacity;
        self
    }

    /// Disable model-based insertion (ablation): nodes spread keys
    /// uniformly on (re)build instead of placing them where the model
    /// predicts.
    pub fn without_model_based_inserts(mut self) -> Self {
        self.node.placement = Placement::Uniform;
        self
    }

    /// Human-readable variant name, e.g. `"ALEX-GA-ARMI"`.
    pub fn variant_name(&self) -> String {
        let layout = match self.layout {
            NodeLayout::Gapped => "GA",
            NodeLayout::Pma => "PMA",
        };
        let rmi = match self.rmi {
            RmiMode::Static { .. } => "SRMI",
            RmiMode::Adaptive { .. } => "ARMI",
        };
        format!("ALEX-{layout}-{rmi}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let p = NodeParams::default();
        assert!((p.upper_density * p.upper_density - p.init_density).abs() < 1e-9);
        assert!(p.lower_density < p.init_density);
        assert!((p.expansion_factor() - 1.0 / 0.7).abs() < 1e-9);
    }

    #[test]
    fn space_overhead_mapping() {
        let p = NodeParams::with_space_overhead(0.43);
        assert!((p.init_density - 1.0 / 1.43).abs() < 1e-9);
        let p2 = NodeParams::with_space_overhead(2.0); // "2x space"
        assert!((p2.init_density - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn variant_names() {
        assert_eq!(AlexConfig::ga_srmi(16).variant_name(), "ALEX-GA-SRMI");
        assert_eq!(AlexConfig::ga_armi().variant_name(), "ALEX-GA-ARMI");
        assert_eq!(AlexConfig::pma_srmi(4).variant_name(), "ALEX-PMA-SRMI");
        assert_eq!(AlexConfig::pma_armi().variant_name(), "ALEX-PMA-ARMI");
    }

    #[test]
    fn with_splitting_toggles() {
        let cfg = AlexConfig::ga_armi().with_splitting();
        match cfg.rmi {
            RmiMode::Adaptive { split_on_insert, .. } => assert!(split_on_insert),
            _ => panic!("expected adaptive"),
        }
    }

    #[test]
    #[should_panic(expected = "node splitting requires an adaptive RMI")]
    fn splitting_on_static_panics() {
        let _ = AlexConfig::ga_srmi(4).with_splitting();
    }

    #[test]
    fn delta_buffer_modes() {
        let cfg = AlexConfig::ga_armi();
        assert_eq!(cfg.delta_buffer, DEFAULT_DELTA_BUFFER_CAPACITY);
        assert_eq!(cfg.with_delta_buffer(7).delta_buffer, 7);
        assert_eq!(cfg.with_delta_buffer(0).delta_buffer, 0);
    }
}
