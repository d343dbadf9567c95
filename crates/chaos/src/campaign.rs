//! Seed-deterministic adversary campaigns.

use mwn_graph::{NodeId, Topology};
use mwn_sim::{Fault, FaultPlan, Lie, Region};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One class of adversarial behavior a campaign may draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Arbitrary state corruption of one node.
    Corrupt,
    /// Arbitrary state corruption of a random fraction of nodes.
    CorruptFraction,
    /// A node's radio goes permanently dark.
    Isolate,
    /// Crash with stale-state resurrection ([`Fault::CrashRecover`]).
    CrashRecover,
    /// Forged/replayed beacons for a window
    /// ([`Fault::ByzantineBeacon`]).
    Byzantine,
    /// Bisection with later healing ([`Fault::PartitionHeal`]).
    PartitionHeal,
    /// Regional medium blackout with later restoration
    /// ([`Fault::Jam`]).
    Jam,
}

impl FaultKind {
    /// Every shipped kind — the default draw set of a campaign.
    pub fn all() -> Vec<FaultKind> {
        vec![
            FaultKind::Corrupt,
            FaultKind::CorruptFraction,
            FaultKind::Isolate,
            FaultKind::CrashRecover,
            FaultKind::Byzantine,
            FaultKind::PartitionHeal,
            FaultKind::Jam,
        ]
    }

    /// The healing kinds only — every fault's damage is later undone,
    /// so the pre-campaign fixpoint is recoverable (what the certifier
    /// smoke asserts against a known component structure).
    pub fn healing() -> Vec<FaultKind> {
        vec![
            FaultKind::Corrupt,
            FaultKind::CorruptFraction,
            FaultKind::CrashRecover,
            FaultKind::Byzantine,
            FaultKind::PartitionHeal,
            FaultKind::Jam,
        ]
    }
}

/// A compact, replayable description of a randomized adversary
/// schedule: the same spec expands to the same `(step, fault)` script
/// on any driver, for any run — victims, windows and kinds are all
/// drawn from `StdRng::seed_from_u64(seed)` and nothing else.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Seed of the campaign's private draw stream.
    pub seed: u64,
    /// Number of faults to inject.
    pub injections: usize,
    /// Logical steps between consecutive injection slots (the i-th
    /// fault is scheduled at `(i + 1) · spacing`; the certifier lets
    /// the network restabilize between slots regardless).
    pub spacing: u64,
    /// Upper bound on drawn windows (darkness, lie, partition, jam
    /// durations); actual windows are `1..=max_window`.
    pub max_window: u64,
    /// The fault classes this adversary may draw from.
    pub kinds: Vec<FaultKind>,
}

impl CampaignSpec {
    /// A small healing-faults campaign — the certifier smoke shape.
    pub fn smoke(seed: u64) -> Self {
        CampaignSpec {
            seed,
            injections: 6,
            spacing: 10,
            max_window: 4,
            kinds: FaultKind::healing(),
        }
    }

    /// Expands the spec into its deterministic `(step, fault)` script
    /// for `topo` (the deployment the campaign will run on; victims
    /// and regions are drawn against its node count and positions).
    pub fn schedule(&self, topo: &Topology) -> Vec<(u64, Fault)> {
        assert!(
            !self.kinds.is_empty(),
            "a campaign draws from at least one kind"
        );
        let n = topo.len() as u32;
        assert!(n > 0, "a campaign needs a populated deployment");
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.injections)
            .map(|i| {
                let step = (i as u64 + 1) * self.spacing;
                let kind = self.kinds[rng.random_range(0..self.kinds.len())];
                let victim = NodeId::new(rng.random_range(0..n));
                let window = 1 + rng.random_range(0..self.max_window.max(1));
                let fault = match kind {
                    FaultKind::Corrupt => Fault::CorruptNode(victim),
                    FaultKind::CorruptFraction => {
                        Fault::CorruptFraction(0.1 + 0.4 * rng.random_range(0.0..1.0))
                    }
                    FaultKind::Isolate => Fault::Isolate(victim),
                    FaultKind::CrashRecover => Fault::CrashRecover {
                        node: victim,
                        dark_for: window,
                    },
                    FaultKind::Byzantine => Fault::ByzantineBeacon {
                        node: victim,
                        lie: if rng.random_bool(0.5) {
                            Lie::Forged
                        } else {
                            Lie::Replayed
                        },
                        until: step + window,
                    },
                    FaultKind::PartitionHeal => Fault::PartitionHeal {
                        cut: draw_cut(topo, &mut rng),
                        heal_at: step + window,
                    },
                    FaultKind::Jam => Fault::Jam {
                        region: draw_region(topo, victim, &mut rng),
                        until: step + window,
                    },
                };
                (step, fault)
            })
            .collect()
    }

    /// The schedule as an installable [`FaultPlan`] (for
    /// `Scenario::faults`).
    pub fn plan(&self, topo: &Topology) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for (step, fault) in self.schedule(topo) {
            plan.at(step, fault);
        }
        plan
    }
}

/// Draws one side of a bisection: a half-plane through a random pivot
/// node on positioned deployments, an id-prefix cut otherwise.
fn draw_cut(topo: &Topology, rng: &mut StdRng) -> Vec<NodeId> {
    let n = topo.len() as u32;
    if let Some(positions) = topo.positions() {
        let pivot = positions[rng.random_range(0..n) as usize];
        let by_x = rng.random_bool(0.5);
        topo.nodes()
            .filter(|p| {
                let pos = positions[p.index()];
                if by_x {
                    pos.x <= pivot.x
                } else {
                    pos.y <= pivot.y
                }
            })
            .collect()
    } else {
        let split = 1 + rng.random_range(0..n.max(2) - 1);
        topo.nodes().filter(|p| p.value() < split).collect()
    }
}

/// Draws a jam region: a disk around a victim on positioned
/// deployments, the victim plus its 1-neighborhood otherwise.
fn draw_region(topo: &Topology, victim: NodeId, rng: &mut StdRng) -> Region {
    if let Some(positions) = topo.positions() {
        let center = positions[victim.index()];
        Region::Disk {
            x: center.x,
            y: center.y,
            r: 0.15 + 0.15 * rng.random_range(0.0..1.0),
        }
    } else {
        let mut nodes = vec![victim];
        nodes.extend_from_slice(topo.neighbors(victim));
        Region::Nodes(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_graph::builders;

    #[test]
    fn schedules_are_seed_deterministic_and_replayable() {
        let mut rng = StdRng::seed_from_u64(11);
        let topo = builders::uniform(30, 0.25, &mut rng);
        let spec = CampaignSpec {
            seed: 42,
            injections: 12,
            spacing: 7,
            max_window: 5,
            kinds: FaultKind::all(),
        };
        let a = spec.schedule(&topo);
        let b = spec.schedule(&topo);
        assert_eq!(a.len(), 12);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "same seed, same campaign"
        );
        let different = CampaignSpec { seed: 43, ..spec }.schedule(&topo);
        assert_ne!(
            format!("{a:?}"),
            format!("{different:?}"),
            "different seed, different campaign"
        );
    }

    #[test]
    fn schedules_validate_against_their_deployment() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = builders::uniform(20, 0.3, &mut rng);
        let spec = CampaignSpec {
            seed: 9,
            injections: 20,
            spacing: 5,
            max_window: 6,
            kinds: FaultKind::all(),
        };
        spec.plan(&topo)
            .validate_for(&topo)
            .expect("generated campaigns are always well-formed");
    }

    #[test]
    fn unpositioned_deployments_draw_node_regions_and_prefix_cuts() {
        let mut rng = StdRng::seed_from_u64(5);
        let topo = builders::gnp(12, 0.4, &mut rng);
        let spec = CampaignSpec {
            seed: 1,
            injections: 30,
            spacing: 4,
            max_window: 3,
            kinds: vec![FaultKind::PartitionHeal, FaultKind::Jam],
        };
        for (_, fault) in spec.schedule(&topo) {
            match fault {
                Fault::Jam { region, .. } => {
                    assert!(matches!(region, Region::Nodes(_)));
                }
                Fault::PartitionHeal { cut, .. } => {
                    assert!(!cut.is_empty() && cut.len() < topo.len());
                }
                other => panic!("unexpected kind: {other:?}"),
            }
        }
        spec.plan(&topo)
            .validate_for(&topo)
            .expect("well-formed without positions");
    }
}
