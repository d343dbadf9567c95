//! Legitimacy predicates and stabilization instrumentation.
//!
//! Self-stabilization is two properties (Section 4): **convergence**
//! (from any configuration the system reaches a legitimate one) and
//! **closure** (legitimate configurations persist). This module defines
//! what "legitimate" means for the clustering protocol — caches agree
//! with reality and the (head, parent) assignment is a fixpoint of the
//! election — and provides the measurement used to reproduce the
//! paper's Table 2 information schedule.

use mwn_graph::{NodeId, Topology};
use mwn_radio::Medium;
use mwn_sim::Network;
use serde::{Deserialize, Serialize};

use crate::oracle::oracle_with_keys;
use crate::protocol::{extract_clustering, ClusterState, DensityCluster};
use crate::{is_locally_unique, oracle, Key, OracleConfig};

/// Why a configuration is not legitimate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Illegitimacy {
    /// A node's neighbor cache differs from its true neighborhood.
    WrongNeighborCache(NodeId),
    /// A node's density is not the Definition-1 value.
    WrongDensity(NodeId),
    /// DAG renaming has not produced locally unique names inside γ.
    BadDagNames,
    /// A head or parent pointer references a node outside the network.
    DanglingPointer,
    /// The (head, parent) assignment is not the election fixpoint.
    NotAFixpoint,
}

impl std::fmt::Display for Illegitimacy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Illegitimacy::WrongNeighborCache(p) => write!(f, "stale neighbor cache at {p}"),
            Illegitimacy::WrongDensity(p) => write!(f, "wrong density at {p}"),
            Illegitimacy::BadDagNames => write!(f, "DAG names not locally unique / outside γ"),
            Illegitimacy::DanglingPointer => write!(f, "head or parent points outside network"),
            Illegitimacy::NotAFixpoint => write!(f, "assignment is not an election fixpoint"),
        }
    }
}

/// Checks whether the network is in a **legitimate configuration**:
///
/// 1. every cache holds exactly the true 1-neighborhood;
/// 2. every density equals its Definition-1 value;
/// 3. with the DAG enabled: all names in γ and locally unique;
/// 4. the (head, parent) assignment equals the election fixpoint for
///    the *current* keys (including incumbency flags, so the check is
///    meaningful for both orders — the fixpoint is self-consistent).
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_legitimate<M: Medium>(net: &Network<DensityCluster, M>) -> Result<(), Illegitimacy> {
    let topo = net.topology();
    let states = net.states();
    let config = net.protocol().config();

    for p in topo.nodes() {
        let cached: Vec<NodeId> = states[p.index()].cache.keys().copied().collect();
        if cached.as_slice() != topo.neighbors(p) {
            return Err(Illegitimacy::WrongNeighborCache(p));
        }
    }
    for p in topo.nodes() {
        if states[p.index()].density != config.metric.value_of(topo, p) {
            return Err(Illegitimacy::WrongDensity(p));
        }
    }
    if let Some(dag) = &config.dag {
        let names: Vec<u32> = states.iter().map(|s| s.dag_id).collect();
        if !is_locally_unique(topo, &names) || names.iter().any(|&x| !dag.gamma.contains(x)) {
            return Err(Illegitimacy::BadDagNames);
        }
    }
    let Some(clustering) = extract_clustering(states) else {
        return Err(Illegitimacy::DanglingPointer);
    };
    let keys: Vec<Key> = topo.nodes().map(|p| states[p.index()].key(p)).collect();
    let fixpoint = oracle_with_keys(topo, &keys, config.order, config.rule);
    if clustering != fixpoint {
        return Err(Illegitimacy::NotAFixpoint);
    }
    Ok(())
}

/// The measured information schedule of a cold-start run — the paper's
/// Table 2. Each field is the earliest step count after which the
/// property held (and `None` if it never did within the bound).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InfoSchedule {
    /// All neighbor tables complete ("step 1").
    pub neighbors: Option<u64>,
    /// All densities correct ("step 2").
    pub density: Option<u64>,
    /// All parents correct ("step 3").
    pub parent: Option<u64>,
    /// All cluster-heads correct ("bounded by the depth of the tree").
    pub head: Option<u64>,
}

/// Runs a cold-start network forward, recording when each level of
/// knowledge of the paper's Table 2 is first achieved.
///
/// Meaningful for DAG-less configurations (with the DAG the parents'
/// target moves while names settle); the comparison oracle uses the
/// node ids as tie-breaks, matching `ClusterConfig::default()`.
pub fn measure_info_schedule<M: Medium>(
    net: &mut Network<DensityCluster, M>,
    max_steps: u64,
) -> InfoSchedule {
    let topo = net.topology().clone();
    let config = *net.protocol().config();
    let want = oracle(
        &topo,
        &OracleConfig {
            metric: config.metric,
            order: config.order,
            rule: config.rule,
            tiebreak: None,
            prev_heads: None,
        },
    );
    let mut schedule = InfoSchedule::default();
    for _ in 0..max_steps {
        let now = net.step();
        let states = net.states();
        if schedule.neighbors.is_none() && all_neighbors_known(&topo, states) {
            schedule.neighbors = Some(now);
        }
        if schedule.density.is_none()
            && topo
                .nodes()
                .all(|p| states[p.index()].density == config.metric.value_of(&topo, p))
        {
            schedule.density = Some(now);
        }
        if schedule.parent.is_none()
            && topo
                .nodes()
                .all(|p| states[p.index()].parent == want.parent(p))
        {
            schedule.parent = Some(now);
        }
        if schedule.head.is_none() && topo.nodes().all(|p| states[p.index()].head == want.head(p)) {
            schedule.head = Some(now);
        }
        if schedule.head.is_some()
            && schedule.parent.is_some()
            && schedule.density.is_some()
            && schedule.neighbors.is_some()
        {
            break;
        }
    }
    schedule
}

fn all_neighbors_known(topo: &Topology, states: &[ClusterState]) -> bool {
    topo.nodes().all(|p| {
        let cached: Vec<NodeId> = states[p.index()].cache.keys().copied().collect();
        cached.as_slice() == topo.neighbors(p)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;
    use mwn_graph::builders;
    use mwn_sim::{Fault, Scenario};

    #[test]
    fn stabilized_run_is_legitimate() {
        let topo = builders::fig1_example();
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
            .topology(topo)
            .seed(1)
            .build()
            .expect("valid scenario");
        net.run(30);
        assert_eq!(check_legitimate(&net), Ok(()));
    }

    #[test]
    fn cold_start_is_not_legitimate() {
        let topo = builders::fig1_example();
        let net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
            .topology(topo)
            .seed(1)
            .build()
            .expect("valid scenario");
        assert!(check_legitimate(&net).is_err());
    }

    #[test]
    fn corruption_breaks_legitimacy_and_running_restores_it() {
        let topo = builders::grid(5, 5, 0.3);
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
            .topology(topo)
            .seed(2)
            .build()
            .expect("valid scenario");
        net.run(30);
        assert_eq!(check_legitimate(&net), Ok(()));
        net.inject(&Fault::CorruptAll).expect("a valid fault");
        assert!(check_legitimate(&net).is_err());
        net.run(40);
        assert_eq!(check_legitimate(&net), Ok(()));
    }

    #[test]
    fn info_schedule_is_1_2_3_on_perfect_medium() {
        // The paper's Table 2: neighbors after step 1, density after
        // step 2, father after step 3; head within depth more steps.
        let topo = builders::fig1_example();
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
            .topology(topo)
            .seed(3)
            .build()
            .expect("valid scenario");
        let schedule = measure_info_schedule(&mut net, 50);
        assert_eq!(schedule.neighbors, Some(1));
        assert_eq!(schedule.density, Some(2));
        assert_eq!(schedule.parent, Some(3));
        let head = schedule.head.expect("heads converge");
        assert!((3..=6).contains(&head), "head step {head}");
    }

    #[test]
    fn illegitimacy_display_is_informative() {
        let reasons = [
            Illegitimacy::WrongNeighborCache(NodeId::new(1)),
            Illegitimacy::WrongDensity(NodeId::new(2)),
            Illegitimacy::BadDagNames,
            Illegitimacy::DanglingPointer,
            Illegitimacy::NotAFixpoint,
        ];
        for r in reasons {
            assert!(!r.to_string().is_empty());
        }
    }
}
