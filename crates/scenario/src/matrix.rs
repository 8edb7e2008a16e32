//! Cross-product expansion of experiment axes.
//!
//! A [`Matrix`] names the values of each axis; [`Matrix::expand`]
//! produces the full cross-product as concrete [`ScenarioSpec`]s in a
//! deterministic nesting order (workload slowest, failure schedule
//! fastest), so record `i` of an executor run always corresponds to spec
//! `i` of the expansion.

use crate::spec::{
    CheckpointPolicySpec, ClusterStrategy, FailureModelSpec, NetworkSpec, ProtocolSpec,
    ScenarioSpec, TopologySpec,
};
use workloads::WorkloadSpec;

/// Experiment axes. Empty axes default to a singleton at expansion time
/// (documented per field), so a Matrix only names what it varies.
#[derive(Debug, Clone, Default)]
pub struct Matrix {
    /// Workloads; no default — an empty axis expands to no specs.
    pub workloads: Vec<WorkloadSpec>,
    /// Protocols; default `[ProtocolSpec::Native]`.
    pub protocols: Vec<ProtocolSpec>,
    /// Cluster strategies; default `[ClusterStrategy::Single]`.
    pub clusters: Vec<ClusterStrategy>,
    /// Networks; default `[NetworkSpec::Mx]`.
    pub networks: Vec<NetworkSpec>,
    /// Interconnect topologies; default `[TopologySpec::Flat]`.
    pub topologies: Vec<TopologySpec>,
    /// Checkpoint-scheduling policies overriding each protocol's own
    /// setting; default "leave protocols as specified".
    pub checkpoint_policies: Vec<CheckpointPolicySpec>,
    /// Failure models (fixed schedules and/or stochastic regimes);
    /// default `[no failures]`. Sweeps cross protocols × failure
    /// regimes by listing several.
    pub failure_models: Vec<FailureModelSpec>,
    /// `false`: static clustering analysis only (Table I mode).
    pub simulate: bool,
    /// Engine event-limit override applied to every spec.
    pub max_events: Option<u64>,
    /// Parallel-engine shard count applied to every spec (DESIGN.md
    /// §2.8); 0/1 = serial. Not a cross-product axis: sweeps compare
    /// engines by running the same matrix twice at different counts.
    pub shards: usize,
}

impl Matrix {
    pub fn new() -> Self {
        Matrix {
            simulate: true,
            ..Default::default()
        }
    }

    pub fn workloads(mut self, w: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads.extend(w);
        self
    }

    pub fn protocols(mut self, p: impl IntoIterator<Item = ProtocolSpec>) -> Self {
        self.protocols.extend(p);
        self
    }

    pub fn clusters(mut self, c: impl IntoIterator<Item = ClusterStrategy>) -> Self {
        self.clusters.extend(c);
        self
    }

    pub fn networks(mut self, n: impl IntoIterator<Item = NetworkSpec>) -> Self {
        self.networks.extend(n);
        self
    }

    pub fn topologies(mut self, t: impl IntoIterator<Item = TopologySpec>) -> Self {
        self.topologies.extend(t);
        self
    }

    pub fn checkpoint_policies(
        mut self,
        p: impl IntoIterator<Item = CheckpointPolicySpec>,
    ) -> Self {
        self.checkpoint_policies.extend(p);
        self
    }

    pub fn failure_models(mut self, f: impl IntoIterator<Item = FailureModelSpec>) -> Self {
        self.failure_models.extend(f);
        self
    }

    pub fn static_analysis(mut self) -> Self {
        self.simulate = false;
        self
    }

    /// Run every cell on the parallel engine with `n` cluster shards.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Sum over protocols of how many checkpoint-axis values apply to
    /// each: non-checkpointing protocols (Native) take exactly one point
    /// on that axis, so the expansion never duplicates a run.
    fn protocol_by_checkpoint_points(&self) -> usize {
        let protocols = self.protocols.len().max(1);
        let axis = self.checkpoint_policies.len();
        if axis == 0 {
            return protocols;
        }
        let effective = |p: &ProtocolSpec| {
            if p.supports_checkpointing() {
                axis
            } else {
                1
            }
        };
        if self.protocols.is_empty() {
            // Default axis is [Native].
            1
        } else {
            self.protocols.iter().map(effective).sum()
        }
    }

    /// Number of specs `expand` will produce.
    pub fn len(&self) -> usize {
        self.workloads.len()
            * self.protocol_by_checkpoint_points()
            * self.clusters.len().max(1)
            * self.networks.len().max(1)
            * self.topologies.len().max(1)
            * self.failure_models.len().max(1)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand the cross-product. Nesting order (slowest to fastest):
    /// workload, protocol, clusters, network, topology, checkpoint
    /// interval, failure schedule.
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        let protocols: &[ProtocolSpec] = if self.protocols.is_empty() {
            &[ProtocolSpec::Native]
        } else {
            &self.protocols
        };
        let clusters: &[ClusterStrategy] = if self.clusters.is_empty() {
            &[ClusterStrategy::Single]
        } else {
            &self.clusters
        };
        let networks: &[NetworkSpec] = if self.networks.is_empty() {
            &[NetworkSpec::Mx]
        } else {
            &self.networks
        };
        let topologies: &[TopologySpec] = if self.topologies.is_empty() {
            &[TopologySpec::Flat]
        } else {
            &self.topologies
        };
        // `None` here means "no override", distinct from an explicit
        // axis value of `CheckpointPolicySpec::None` (= disable periodic
        // checkpoints). A protocol that takes no checkpoints gets a
        // single no-override point so the expansion stays
        // duplicate-free.
        let ckpts_for = |p: &ProtocolSpec| -> Vec<Option<CheckpointPolicySpec>> {
            if self.checkpoint_policies.is_empty() || !p.supports_checkpointing() {
                vec![None]
            } else {
                self.checkpoint_policies.iter().map(|c| Some(*c)).collect()
            }
        };
        let no_failures: Vec<FailureModelSpec> = vec![FailureModelSpec::none()];
        let models: &[FailureModelSpec] = if self.failure_models.is_empty() {
            &no_failures
        } else {
            &self.failure_models
        };

        let mut specs = Vec::with_capacity(self.len());
        for w in &self.workloads {
            for p in protocols {
                let ckpts = ckpts_for(p);
                for c in clusters {
                    for n in networks {
                        for t in topologies {
                            for ck in &ckpts {
                                for f in models {
                                    let protocol = match ck {
                                        Some(policy) => p.with_policy(*policy),
                                        None => *p,
                                    };
                                    specs.push(ScenarioSpec {
                                        workload: w.clone(),
                                        protocol,
                                        clusters: *c,
                                        network: *n,
                                        topology: *t,
                                        failure_model: f.clone(),
                                        simulate: self.simulate,
                                        max_events: self.max_events,
                                        shards: self.shards.max(1),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FailureSpec;
    use workloads::NasBench;

    #[test]
    fn empty_axes_default_to_singletons() {
        let m = Matrix::new().workloads([WorkloadSpec::NetPipe {
            rounds: 1,
            bytes: 8,
        }]);
        let specs = m.expand();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].protocol, ProtocolSpec::Native);
        assert_eq!(specs[0].clusters, ClusterStrategy::Single);
        assert_eq!(specs[0].failure_model, FailureModelSpec::none());
    }

    #[test]
    fn failure_model_axis_crosses_protocols_and_regimes() {
        let m = Matrix::new()
            .workloads([WorkloadSpec::NetPipe {
                rounds: 1,
                bytes: 8,
            }])
            .protocols([ProtocolSpec::Native, ProtocolSpec::hydee()])
            .failure_models([
                FailureModelSpec::none(),
                FailureModelSpec::poisson(500, 7),
                FailureModelSpec::correlated(500, 7),
                FailureModelSpec::cascade(500, 7, 250, 100),
            ]);
        let specs = m.expand();
        assert_eq!(specs.len(), 2 * 4);
        assert_eq!(specs.len(), m.len());
        let labels: std::collections::BTreeSet<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), specs.len());
    }

    #[test]
    fn expansion_is_full_cross_product() {
        let m = Matrix::new()
            .workloads([
                WorkloadSpec::Nas {
                    bench: NasBench::CG,
                    scale: 0.001,
                    iterations: Some(2),
                },
                WorkloadSpec::NetPipe {
                    rounds: 1,
                    bytes: 8,
                },
            ])
            .protocols([ProtocolSpec::Native, ProtocolSpec::hydee()])
            .clusters([ClusterStrategy::Single, ClusterStrategy::Blocks(4)])
            .networks([NetworkSpec::Mx, NetworkSpec::Tcp])
            .checkpoint_policies([
                CheckpointPolicySpec::None,
                CheckpointPolicySpec::periodic(100),
            ])
            .failure_models([
                FailureModelSpec::none(),
                FailureModelSpec::Fixed(vec![FailureSpec::at_ms(1, vec![0])]),
            ]);
        let specs = m.expand();
        // Native takes a single point on the checkpoint axis (1), hydee
        // the full axis (2): 2 workloads x 3 x 2 clusters x 2 networks x
        // 2 schedules.
        assert_eq!(specs.len(), 2 * 3 * 2 * 2 * 2);
        assert_eq!(specs.len(), m.len());
        let labels: std::collections::BTreeSet<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), specs.len(), "every point has a unique label");
    }

    #[test]
    fn topology_axis_crosses_and_defaults_to_flat() {
        let m = Matrix::new()
            .workloads([WorkloadSpec::NetPipe {
                rounds: 1,
                bytes: 8,
            }])
            .protocols([ProtocolSpec::hydee()])
            .clusters([ClusterStrategy::Blocks(2)])
            .topologies([
                TopologySpec::Flat,
                TopologySpec::TwoLevel,
                TopologySpec::FatTree { k: 4 },
            ]);
        let specs = m.expand();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs.len(), m.len());
        let labels: std::collections::BTreeSet<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), specs.len());
        // An empty axis expands to the flat singleton.
        let default = Matrix::new()
            .workloads([WorkloadSpec::NetPipe {
                rounds: 1,
                bytes: 8,
            }])
            .expand();
        assert_eq!(default[0].topology, TopologySpec::Flat);
    }

    #[test]
    fn checkpoint_axis_overrides_protocols() {
        let m = Matrix::new()
            .workloads([WorkloadSpec::NetPipe {
                rounds: 1,
                bytes: 8,
            }])
            .protocols([ProtocolSpec::hydee()])
            .checkpoint_policies([40, 250].map(CheckpointPolicySpec::periodic));
        let specs = m.expand();
        assert_eq!(specs.len(), 2);
        for (spec, ms) in specs.iter().zip([40u64, 250]) {
            match spec.protocol {
                ProtocolSpec::Hydee { checkpoint, .. } => {
                    assert_eq!(checkpoint, CheckpointPolicySpec::periodic(ms))
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn policy_axis_merges_interval_sugar_and_explicit_policies() {
        let m = Matrix::new()
            .workloads([WorkloadSpec::NetPipe {
                rounds: 1,
                bytes: 8,
            }])
            .protocols([ProtocolSpec::Native, ProtocolSpec::hydee()])
            .checkpoint_policies([
                CheckpointPolicySpec::None,
                CheckpointPolicySpec::periodic(40),
            ])
            .checkpoint_policies([
                CheckpointPolicySpec::YoungDaly {
                    first_ms: None,
                    stagger_ms: None,
                },
                CheckpointPolicySpec::LogPressure {
                    budget_bytes: 1 << 20,
                },
            ]);
        let specs = m.expand();
        // Native: one point; hydee: all four axis points.
        assert_eq!(specs.len(), 1 + 4);
        assert_eq!(specs.len(), m.len());
        let policies: Vec<CheckpointPolicySpec> = specs
            .iter()
            .filter(|s| s.protocol.supports_checkpointing())
            .map(|s| s.protocol.checkpoint_policy())
            .collect();
        assert_eq!(
            policies,
            vec![
                CheckpointPolicySpec::None,
                CheckpointPolicySpec::periodic(40),
                CheckpointPolicySpec::YoungDaly {
                    first_ms: None,
                    stagger_ms: None,
                },
                CheckpointPolicySpec::LogPressure {
                    budget_bytes: 1 << 20
                },
            ]
        );
        let labels: std::collections::BTreeSet<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), specs.len(), "every point has a unique label");
    }
}
