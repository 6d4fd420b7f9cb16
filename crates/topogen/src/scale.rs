//! The internet-scale workload tier (ROADMAP item 5).
//!
//! The paper's evaluation tops out at 240-router Topology Zoo networks
//! and the 31-router/250k-rule NORDUnet snapshot. This module pushes
//! both dimensions up: thousand-router backbones with millions of
//! forwarding rules, built from the same ingredients ([`zoo_like`]
//! topologies and [`build_mpls_dataplane`] LSP/protection/service-chain
//! synthesis) so engine behaviour is comparable across tiers. The
//! compact [`netmodel::OpSeq`] rule representation keeps the resulting
//! tables allocation-lean; [`netmodel::routing::Network::bytes_resident`]
//! reports the load.
//!
//! Everything is seeded and deterministic, like the rest of the crate.

use crate::lsp::{build_mpls_dataplane, Dataplane, LspConfig};
use crate::zoo::{zoo_like, ZooConfig};

/// Parameters of the scale tier.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Number of core routers (the tier targets 1000+).
    pub routers: u32,
    /// Target average undirected degree of the backbone.
    pub avg_degree: f64,
    /// Number of edge routers terminating external links.
    pub edge_routers: usize,
    /// Cap on the number of (source, destination) IP LSP pairs.
    pub max_pairs: usize,
    /// Number of service-label chains (the rule-count multiplier: each
    /// chain contributes ≈ path-length + 1 rules, roughly doubled by
    /// protection).
    pub service_chains: usize,
    /// Whether to program link-protection bypass tunnels.
    pub protect: bool,
    /// RNG seed: same seed, same instance.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig::tier()
    }
}

impl ScaleConfig {
    /// The full scale tier: a 1000-router backbone whose dataplane
    /// lands in the millions of rules (paths on a 1000-router
    /// degree-3 backbone average ≈ 10 hops, so ≈ 90k chains × 11 rules
    /// × 2 for protection ≈ 2M).
    pub fn tier() -> Self {
        ScaleConfig {
            routers: 1000,
            avg_degree: 3.0,
            edge_routers: 64,
            max_pairs: 1000,
            service_chains: 90_000,
            protect: true,
            seed: 0x5CA1E,
        }
    }

    /// A CI-sized instance with the same shape: builds in well under a
    /// second but still exercises every construction path (LSPs,
    /// protection, service chains) on a 120-router backbone.
    pub fn smoke() -> Self {
        ScaleConfig {
            routers: 120,
            avg_degree: 3.0,
            edge_routers: 16,
            max_pairs: 120,
            service_chains: 2_000,
            protect: true,
            seed: 0x5CA1E,
        }
    }
}

/// Build a scale-tier dataplane.
pub fn scale_tier(cfg: &ScaleConfig) -> Dataplane {
    let topo = zoo_like(&ZooConfig {
        routers: cfg.routers,
        avg_degree: cfg.avg_degree,
        seed: cfg.seed,
    });
    build_mpls_dataplane(
        topo,
        &LspConfig {
            edge_routers: cfg.edge_routers,
            max_pairs: cfg.max_pairs,
            protect: cfg.protect,
            service_chains: cfg.service_chains.max(1),
            seed: cfg.seed.wrapping_add(1),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_tier_builds_quickly_and_is_well_formed() {
        let dp = scale_tier(&ScaleConfig::smoke());
        assert_eq!(dp.net.topology.num_routers(), 120 + 16, "core + stubs");
        assert!(dp.net.num_rules() > 10_000, "got {}", dp.net.num_rules());
        assert!(dp.net.validate().is_empty());
        assert!(dp.net.bytes_resident() > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = scale_tier(&ScaleConfig::smoke());
        let b = scale_tier(&ScaleConfig::smoke());
        assert_eq!(a.net.num_rules(), b.net.num_rules());
        assert_eq!(a.ip_labels, b.ip_labels);
        assert_eq!(a.service_labels, b.service_labels);
    }

    /// The label table (id → name, kind) and the rule list, in table
    /// order: every `(in_link, label)` key ascending, then its entries by
    /// priority and insertion order.
    fn dataplane_transcript(dp: &Dataplane) -> (Vec<String>, Vec<String>) {
        let labels = &dp.net.labels;
        let label_table = labels
            .all()
            .map(|l| format!("{}={}:{:?}", l.0, labels.name(l), labels.kind(l)))
            .collect();
        let mut keys: Vec<_> = dp.net.routing_keys().collect();
        keys.sort_unstable_by_key(|(link, label)| (link.0, label.0));
        let mut rules = Vec::new();
        for (link, label) in keys {
            for (prio, group) in dp.net.groups(link, label).iter().enumerate() {
                for entry in group {
                    rules.push(format!(
                        "{}/{}/{} -> {:?}",
                        link.0,
                        label.0,
                        prio + 1,
                        entry
                    ));
                }
            }
        }
        (label_table, rules)
    }

    #[test]
    fn label_table_and_rule_order_repeat_within_a_process() {
        let a = dataplane_transcript(&scale_tier(&ScaleConfig::smoke()));
        let b = dataplane_transcript(&scale_tier(&ScaleConfig::smoke()));
        assert_eq!(a.0.len(), b.0.len(), "label count");
        assert!(
            a.0 == b.0,
            "label table id -> (name, kind) differs between builds"
        );
        assert_eq!(a.1.len(), b.1.len(), "rule count");
        assert!(a.1 == b.1, "rule list differs between builds");
    }

    #[test]
    #[ignore = "slow: builds the full 1000-router multi-million-rule instance; run explicitly"]
    fn full_tier_matches_target_dimensions() {
        let dp = scale_tier(&ScaleConfig::tier());
        assert!(dp.net.topology.num_routers() >= 1000);
        assert!(
            dp.net.num_rules() >= 1_000_000,
            "scale tier targets millions of rules, got {}",
            dp.net.num_rules()
        );
    }
}
