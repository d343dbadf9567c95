//! Property-based tests: the paper's theorems and structural claims,
//! checked on randomized topologies and adversarial states.

use mwn_cluster::{
    check_legitimate, density_from_tables, density_of, extract_clustering, extract_dag_ids,
    is_locally_unique, keys_of, oracle, ClusterBeacon, ClusterConfig, DagConfig, DagProtocol,
    DagVariant, Density, DensityCluster, HeadRule, Key, MetricKind, NameSpace, OracleConfig,
    OrderKind, PeerSummary,
};
use mwn_graph::{builders, NodeId, Topology};
use mwn_radio::BernoulliLoss;
use mwn_sim::{Scenario, StopWhen, WireBeacon};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn unit_disk(n: usize, r_percent: u32, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    builders::uniform(n, f64::from(r_percent) / 100.0, &mut rng)
}

fn topo_strategy() -> impl Strategy<Value = Topology> {
    (5usize..60, 8u32..30, 0u64..u64::MAX).prop_map(|(n, r, s)| unit_disk(n, r, s))
}

fn key_strategy() -> impl Strategy<Value = Key> {
    (0u32..20, 1u32..8, any::<bool>(), 0u32..12, 0u32..40).prop_map(
        |(links, deg, is_head, tb, id)| {
            Key::new(Density::ratio(links, deg), is_head, tb, NodeId::new(id))
        },
    )
}

fn beacon_strategy() -> impl Strategy<Value = ClusterBeacon> {
    let word = || 0u32..=u32::MAX;
    let summary = (word(), word(), word(), 1u32..=u32::MAX, word()).prop_map(
        |(id, dag_id, links, degree, head)| PeerSummary {
            id: NodeId::new(id),
            dag_id,
            density: Density::ratio(links, degree),
            head: NodeId::new(head),
        },
    );
    (
        word(),
        word(),
        1u32..=u32::MAX,
        word(),
        proptest::collection::vec(summary, 0..12),
    )
        .prop_map(|(dag_id, links, degree, head, view)| ClusterBeacon {
            dag_id,
            density: Density::ratio(links, degree),
            head: NodeId::new(head),
            view,
        })
}

/// `decode_into` against `decode` on one byte string, for a pooled
/// beacon holding anything: same verdict, same beacon on success, the
/// pool untouched on failure.
fn check_codec_agreement(bytes: &[u8], pooled: &ClusterBeacon) -> Result<(), TestCaseError> {
    let mut out = pooled.clone();
    let accepted = ClusterBeacon::decode_into(bytes, &mut out);
    match ClusterBeacon::decode(bytes) {
        Some(decoded) => {
            prop_assert!(
                accepted,
                "decode accepts {} bytes, decode_into does not",
                bytes.len()
            );
            prop_assert_eq!(&out, &decoded);
        }
        None => {
            prop_assert!(
                !accepted,
                "decode rejects {} bytes, decode_into does not",
                bytes.len()
            );
            prop_assert_eq!(&out, pooled);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wire codec under garbage: on the exact frame, every
    /// truncation, extensions, forged length prefixes and random byte
    /// strings, `decode` and `decode_into` never panic and always
    /// agree — whatever the pooled beacon held before (a longer view, a
    /// shorter one, another head).
    #[test]
    fn codec_survives_garbage_and_decode_into_agrees(
        beacon in beacon_strategy(),
        pooled in beacon_strategy(),
        tail in proptest::collection::vec(0u8..=255, 1..48),
        noise in proptest::collection::vec(0u8..=255, 0..160),
        forged_len in 0u32..=u32::MAX,
    ) {
        let mut frame = Vec::new();
        beacon.encode(&mut frame);
        prop_assert_eq!(ClusterBeacon::decode(&frame), Some(beacon.clone()));
        let empty = ClusterBeacon { view: Vec::new(), ..pooled.clone() };
        for pooled in [&pooled, &empty, &beacon] {
            for cut in 0..=frame.len() {
                check_codec_agreement(&frame[..cut], pooled)?;
            }
            check_codec_agreement(&[&frame[..], &tail[..]].concat(), pooled)?;
            check_codec_agreement(&noise, pooled)?;
            // A forged prefix: the byte count it promises may be far
            // past the frame, or wrap a 32-bit `usize` (k · 2³² / 20).
            for len in [forged_len, u32::MAX, 0xCCCC_CCCD, 0x3333_3334, beacon.view.len() as u32 + 1] {
                let mut forged = frame.clone();
                forged[16..20].copy_from_slice(&len.to_le_bytes());
                if len as usize != beacon.view.len() {
                    prop_assert_eq!(ClusterBeacon::decode(&forged), None);
                }
                check_codec_agreement(&forged, pooled)?;
            }
        }
    }

    /// ≺ is a strict total order on keys with distinct unique ids.
    #[test]
    fn order_is_strict_and_total(
        mut keys in proptest::collection::vec(key_strategy(), 2..8),
    ) {
        // Force distinct unique ids.
        for (i, k) in keys.iter_mut().enumerate() {
            k.id = NodeId::new(i as u32);
        }
        for order in [OrderKind::Basic, OrderKind::Stable] {
            for a in &keys {
                prop_assert!(!a.precedes(a, order));
                for b in &keys {
                    if a.id != b.id {
                        prop_assert!(a.precedes(b, order) ^ b.precedes(a, order));
                    }
                    for c in &keys {
                        if a.precedes(b, order) && b.precedes(c, order) {
                            prop_assert!(a.precedes(c, order));
                        }
                    }
                }
            }
        }
    }

    /// Rational densities order exactly like their float values (when
    /// the floats are distinguishable).
    #[test]
    fn density_matches_float_order(
        a in (0u32..1000, 1u32..100),
        b in (0u32..1000, 1u32..100),
    ) {
        let da = Density::ratio(a.0, a.1);
        let db = Density::ratio(b.0, b.1);
        let fa = da.as_f64();
        let fb = db.as_f64();
        if (fa - fb).abs() > 1e-9 {
            prop_assert_eq!(da < db, fa < fb);
        } else {
            prop_assert_eq!(da, db);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Definition 1 computed from 2-hop tables equals the full-known
    /// ledge value, on any topology.
    #[test]
    fn distributed_density_equals_oracle_density(topo in topo_strategy()) {
        for p in topo.nodes() {
            let neighbors = topo.neighbors(p).to_vec();
            let tables: Vec<&[NodeId]> =
                neighbors.iter().map(|&q| topo.neighbors(q)).collect();
            prop_assert_eq!(
                density_from_tables(p, &neighbors, &tables),
                density_of(&topo, p)
            );
        }
    }

    /// Basic rule: cluster-heads are never adjacent; fusion rule:
    /// never within two hops. Clusters partition the node set and all
    /// parent chains climb ≺ to their head.
    #[test]
    fn oracle_structural_invariants(topo in topo_strategy()) {
        for rule in [HeadRule::Basic, HeadRule::Fusion] {
            let cfg = OracleConfig { rule, ..OracleConfig::default() };
            let c = oracle(&topo, &cfg);
            let keys = keys_of(&topo, &cfg);
            for h in c.heads() {
                let exclusion = match rule {
                    HeadRule::Basic => topo.neighbors(h).to_vec(),
                    HeadRule::Fusion => topo.two_hop_neighborhood(h),
                };
                for q in exclusion {
                    prop_assert!(!c.is_head(q), "{rule:?}: heads {h} and {q} too close");
                }
            }
            for p in topo.nodes() {
                prop_assert!(c.is_head(c.head(p)));
                prop_assert!(c.depth_in_hops(&topo, p).is_some());
                let f = c.parent(p);
                if f != p {
                    prop_assert!(keys[p.index()].precedes(&keys[f.index()], cfg.order));
                }
            }
        }
    }

    /// The distributed protocol stabilizes to exactly the oracle
    /// clustering (basic order/rule) on a perfect medium.
    #[test]
    fn distributed_equals_oracle(topo in topo_strategy(), seed in 0u64..1000) {
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
            .topology(topo)
            .seed(seed)
            .build()
            .expect("valid scenario");
        net.run_to(&StopWhen::stable_for(3).within(400)).expect_stable("stabilizes");
        let got = extract_clustering(net.states()).expect("clean");
        let want = oracle(net.topology(), &OracleConfig::default());
        prop_assert_eq!(got, want);
        prop_assert_eq!(check_legitimate(&net), Ok(()));
    }

    /// Self-stabilization (convergence + closure): from arbitrary
    /// corrupted state the system returns to the same legitimate
    /// configuration and stays there.
    #[test]
    fn corruption_reconverges_to_fixpoint(topo in topo_strategy(), seed in 0u64..1000) {
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
            .topology(topo)
            .seed(seed)
            .build()
            .expect("valid scenario");
        net.run(30);
        let fixpoint = extract_clustering(net.states()).expect("stabilized");
        net.corrupt_all();
        net.run_to(&StopWhen::stable_for(3).within(600)).expect_stable("reconverges");
        prop_assert_eq!(extract_clustering(net.states()).expect("clean"), fixpoint.clone());
        // Closure: keep running, nothing moves.
        net.run(25);
        prop_assert_eq!(extract_clustering(net.states()).expect("clean"), fixpoint);
    }

    /// Theorem 1: N1 stabilizes to locally unique names inside γ, from
    /// cold start and from corrupted state, for both variants.
    #[test]
    fn n1_always_stabilizes(
        topo in topo_strategy(),
        seed in 0u64..1000,
        randomized in any::<bool>(),
    ) {
        let variant = if randomized {
            DagVariant::Randomized
        } else {
            DagVariant::SmallestIdRedraws
        };
        let gamma = NameSpace::delta_squared(topo.max_degree().max(1));
        let mut net = Scenario::new(DagProtocol::new(gamma, variant, 4))
            .topology(topo)
            .seed(seed)
            .build()
            .expect("valid scenario");
        let stop = StopWhen::stable_for(4).within(800);
        net.run_to(&stop).expect_stable("N1 converges");
        net.corrupt_all();
        net.run_to(&stop).expect_stable("N1 reconverges");
        let names: Vec<u32> = net.states().iter().map(|s| s.dag_id).collect();
        prop_assert!(is_locally_unique(net.topology(), &names));
        prop_assert!(names.iter().all(|&x| gamma.contains(x)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Convergence holds under the worst medium consistent with the
    /// paper's hypothesis (Bernoulli loss at exactly τ).
    #[test]
    fn stabilizes_under_bernoulli_loss(
        seed in 0u64..1000,
        tau_percent in 30u32..90,
    ) {
        let topo = unit_disk(25, 20, seed);
        let tau = f64::from(tau_percent) / 100.0;
        // The TTL must make false cache expiries negligible:
        // (1-τ)^ttl ≤ 1e-7, else neighbor sets flap forever.
        let cache_ttl = ((1e-7f64.ln() / (1.0 - tau).ln()).ceil() as u64).max(4) + 2;
        let config = ClusterConfig { cache_ttl, ..ClusterConfig::default() };
        let mut net = Scenario::new(DensityCluster::new(config))
            .medium(BernoulliLoss::new(tau))
            .topology(topo)
            .seed(seed)
            .build()
            .expect("valid scenario");
        // With losses the *caches* keep churning; the quiet window must
        // outlast the worst plausible loss streak.
        net.run_to(&StopWhen::stable_for(cache_ttl + 10).within(20_000))
            .expect_stable("stabilizes");
        let got = extract_clustering(net.states()).expect("clean");
        let want = oracle(net.topology(), &OracleConfig::default());
        prop_assert_eq!(got, want);
    }

    /// The full protocol with DAG renaming stabilizes and matches the
    /// oracle under the stabilized names (fusion + DAG — the most
    /// feature-complete configuration).
    #[test]
    fn dag_plus_fusion_matches_oracle(seed in 0u64..1000) {
        let topo = unit_disk(40, 18, seed);
        let gamma = NameSpace::delta_squared(topo.max_degree().max(1));
        let config = ClusterConfig {
            rule: HeadRule::Fusion,
            dag: Some(DagConfig { gamma, variant: DagVariant::Randomized }),
            ..ClusterConfig::default()
        };
        prop_assume!(config.validate_for(&topo).is_ok());
        let mut net = Scenario::new(DensityCluster::new(config))
            .topology(topo)
            .seed(seed)
            .build()
            .expect("valid scenario");
        net.run_to(&StopWhen::stable_for(5).within(1000))
            .expect_stable("stabilizes");
        let got = extract_clustering(net.states()).expect("clean");
        let want = oracle(
            net.topology(),
            &OracleConfig {
                rule: HeadRule::Fusion,
                tiebreak: Some(extract_dag_ids(net.states())),
                ..OracleConfig::default()
            },
        );
        prop_assert_eq!(got.heads(), want.heads());
    }

    /// The degree metric (conclusion's suggestion) also stabilizes to
    /// its oracle.
    #[test]
    fn degree_metric_also_stabilizes(seed in 0u64..1000) {
        let topo = unit_disk(35, 20, seed);
        let config = ClusterConfig {
            metric: MetricKind::Degree,
            ..ClusterConfig::default()
        };
        let mut net = Scenario::new(DensityCluster::new(config))
            .topology(topo)
            .seed(seed)
            .build()
            .expect("valid scenario");
        net.run_to(&StopWhen::stable_for(3).within(400)).expect_stable("stabilizes");
        let got = extract_clustering(net.states()).expect("clean");
        let want = oracle(
            net.topology(),
            &OracleConfig { metric: MetricKind::Degree, ..OracleConfig::default() },
        );
        prop_assert_eq!(got, want);
    }
}
