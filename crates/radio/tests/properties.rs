//! Property-based tests of the medium laws every implementation must
//! satisfy — the radio-range constraint, count consistency, and the
//! paper's τ > 0 hypothesis.

use mwn_graph::{builders, NodeId, Topology};
use mwn_radio::{
    measure_tau, BernoulliLoss, CaptureCsma, ContentionStreams, Delivery, DistanceFading,
    FullOccupancy, Medium, MediumKind, Occupancy, PerfectMedium, SlottedCsma,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn topo_strategy() -> impl Strategy<Value = Topology> {
    (2usize..60, 5u32..30, 0u64..u64::MAX).prop_map(|(n, r, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        builders::uniform(n, f64::from(r) / 100.0, &mut rng)
    })
}

fn media() -> Vec<Box<dyn Medium>> {
    vec![
        Box::new(PerfectMedium),
        Box::new(BernoulliLoss::new(0.5)),
        Box::new(SlottedCsma::new(8)),
        Box::new(SlottedCsma::new(4).without_carrier_sense()),
        Box::new(DistanceFading::new(2.0, 0.2)),
        Box::new(CaptureCsma::new(8, 1.5)),
        Box::new(BernoulliLoss::new(0.7)),
        Box::new(BernoulliLoss::new(1.0)),
    ]
}

/// Checks the universal delivery laws for one round.
fn check_laws(topo: &Topology, senders: &[NodeId], delivery: &Delivery) -> Result<(), String> {
    if delivery.heard.len() != topo.len() {
        return Err("heard vector has wrong length".into());
    }
    let mut delivered = 0usize;
    for r in topo.nodes() {
        let mut once = delivery.heard[r.index()].clone();
        once.sort_unstable();
        once.dedup();
        if once.len() != delivery.heard[r.index()].len() {
            return Err(format!("{r} heard one sender twice"));
        }
        for &s in &delivery.heard[r.index()] {
            if !topo.has_edge(s, r) {
                return Err(format!("{r} heard non-neighbor {s}"));
            }
            if !senders.contains(&s) {
                return Err(format!("{r} heard silent node {s}"));
            }
            if s == r {
                return Err(format!("{r} heard itself"));
            }
            delivered += 1;
        }
    }
    if delivered != delivery.delivered {
        return Err("delivered count mismatch".into());
    }
    let attempted: usize = senders.iter().map(|&s| topo.degree(s)).sum();
    if delivery.attempted != attempted {
        return Err(format!(
            "attempted {} but in-range copies are {attempted}",
            delivery.attempted
        ));
    }
    if delivery.delivered > delivery.attempted {
        return Err("delivered more than attempted".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every medium delivers only in-range copies of real frames, with
    /// consistent bookkeeping, for arbitrary sender subsets.
    #[test]
    fn all_media_satisfy_delivery_laws(
        topo in topo_strategy(),
        seed in 0u64..u64::MAX,
        sender_mask in 0u64..u64::MAX,
    ) {
        let senders: Vec<NodeId> = topo
            .nodes()
            .filter(|p| (sender_mask >> (p.index() % 64)) & 1 == 1)
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for mut medium in media() {
            let delivery = medium.deliver(&topo, &senders, &mut rng);
            if let Err(msg) = check_laws(&topo, &senders, &delivery) {
                prop_assert!(false, "{}: {msg}", medium.name());
            }
        }
    }

    /// The counting contract the round driver's retirement shortcut
    /// rests on — `delivered` counts distinct (sender, 1-neighbor)
    /// pairs, so `delivered == Σ degree(sender)` can only mean "every
    /// neighbor of every sender heard it" — holds through every entry
    /// point a driver delivers by, not just whole rounds: for lossless
    /// and independent media one `fates` call per sender recorded into
    /// one delivery, and for contention media
    /// `deliver_occupied_into` over a partly retired population and once
    /// per sender against a fully occupied one.
    #[test]
    fn the_counting_contract_holds_through_every_entry_point(
        topo in topo_strategy(),
        seed in 0u64..u64::MAX,
        sender_mask in 0u64..u64::MAX,
        retired_mask in 0u64..u64::MAX,
    ) {
        let bit = |mask: u64, p: NodeId| (mask >> (p.index() % 64)) & 1 == 1;
        let senders: Vec<NodeId> = topo.nodes().filter(|&p| bit(sender_mask, p)).collect();
        let mut occupancy = Occupancy::new(topo.len());
        for q in topo.nodes().filter(|&q| !bit(sender_mask, q) && bit(retired_mask, q)) {
            occupancy.occupy(q, &topo);
        }
        let streams = ContentionStreams::new(seed ^ 1, seed ^ 2, seed % 97);
        let mut rng = StdRng::seed_from_u64(seed);
        for mut medium in media() {
            let mut out = Delivery::empty(topo.len());
            let name = medium.name();
            let check = |entry: &str, out: &mut Delivery| {
                let verdict = check_laws(&topo, &senders, out);
                out.reset(topo.len());
                verdict.map_err(|msg| format!("{name} via {entry}: {msg}"))
            };
            if medium.kind() != MediumKind::Contention {
                for &s in &senders {
                    out.record_fates(medium.as_ref(), &topo, s, &mut rng);
                }
                prop_assert_eq!(check("fates", &mut out), Ok(()));
                continue;
            }
            medium.deliver_occupied_into(&topo, &senders, &occupancy, &streams, &mut out);
            prop_assert_eq!(check("deliver_occupied_into", &mut out), Ok(()));
            for &s in &senders {
                medium.deliver_occupied_into(&topo, &[s], &FullOccupancy, &streams, &mut out);
            }
            prop_assert_eq!(check("deliver_occupied_into per sender", &mut out), Ok(()));
        }
    }

    /// A whole round is its senders' `fates` in turn: for every medium
    /// that is not a contention medium, one stream handed to
    /// `deliver_into` and the same stream handed to `fates` sender by
    /// sender record the same delivery and leave the stream in the same
    /// state.
    #[test]
    fn a_round_is_its_senders_fates_in_turn(
        topo in topo_strategy(),
        seed in 0u64..u64::MAX,
        sender_mask in 0u64..u64::MAX,
    ) {
        let senders: Vec<NodeId> = topo
            .nodes()
            .filter(|p| (sender_mask >> (p.index() % 64)) & 1 == 1)
            .collect();
        let media = media().into_iter().filter(|m| m.kind() != MediumKind::Contention);
        for mut medium in media {
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let whole = medium.deliver(&topo, &senders, &mut a);
            let mut by_sender = Delivery::empty(topo.len());
            for &s in &senders {
                by_sender.record_fates(medium.as_ref(), &topo, s, &mut b);
            }
            prop_assert_eq!(&whole, &by_sender, "{}", medium.name());
            prop_assert_eq!(&a, &b, "{} left its stream elsewhere", medium.name());
        }
    }

    /// `MediumKind::Lossless` is checked, not trusted — the round driver
    /// does not call a medium of that kind, so everything such a
    /// call would have done is pinned here: through `deliver_into` and
    /// through one `fates` call per sender, each in-range (receiver,
    /// sender) pair is recorded exactly once, in ascending sender order
    /// per receiver, `attempted == delivered == Σ degree`, and the RNG
    /// comes back as it was handed over. Only the perfect medium makes
    /// the promise; a Bernoulli medium that loses nothing never does.
    #[test]
    fn lossless_media_deliver_every_copy_once_and_draw_nothing(
        topo in topo_strategy(),
        seed in 0u64..u64::MAX,
        sender_mask in 0u64..u64::MAX,
        tau in 1u32..=100,
    ) {
        let senders: Vec<NodeId> = topo
            .nodes()
            .filter(|p| (sender_mask >> (p.index() % 64)) & 1 == 1)
            .collect();
        let in_range: usize = senders.iter().map(|&s| topo.degree(s)).sum();
        // What every receiver must have heard: its sending neighbors.
        let expected: Vec<Vec<NodeId>> = topo
            .nodes()
            .map(|r| topo.neighbors(r).iter().copied().filter(|s| senders.contains(s)).collect())
            .collect();
        let untouched = StdRng::seed_from_u64(seed);
        for mut medium in media() {
            let name = medium.name();
            let lossless = medium.kind() == MediumKind::Lossless;
            prop_assert_eq!(lossless, name == "perfect", "{}", name);
            if !lossless {
                continue;
            }
            let mut rng = untouched.clone();
            let whole = medium.deliver(&topo, &senders, &mut rng);
            let mut by_fates = vec![Vec::new(); topo.len()];
            let (mut fates, mut attempted) = (Vec::new(), 0);
            for &s in &senders {
                fates.clear();
                attempted += medium.fates(&topo, s, &mut rng, &mut fates);
                for &r in &fates {
                    by_fates[r.index()].push(s);
                }
            }
            prop_assert_eq!(&rng, &untouched, "{} drew from its stream", name);
            prop_assert_eq!(check_laws(&topo, &senders, &whole), Ok(()));
            prop_assert_eq!(&whole.heard, &expected, "{}", name);
            prop_assert_eq!((whole.attempted, whole.delivered), (in_range, in_range));
            prop_assert_eq!(&by_fates, &expected, "{} by fates", name);
            prop_assert_eq!(attempted, in_range);
        }
        let tau = f64::from(tau) / 100.0;
        prop_assert_eq!(BernoulliLoss::new(tau).kind(), MediumKind::Independent, "at {}", tau);
    }

    /// Every medium keeps τ strictly positive under full contention —
    /// the paper's hypothesis.
    #[test]
    fn tau_is_strictly_positive(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = builders::uniform(40, 0.2, &mut rng);
        prop_assume!(topo.edge_count() > 0);
        for mut medium in media() {
            let tau = measure_tau(medium.as_mut(), &topo, 30, &mut rng);
            prop_assert!(tau > 0.0, "{}: τ = 0", medium.name());
            prop_assert!(tau <= 1.0, "{}: τ > 1", medium.name());
        }
    }

    /// Deliveries are deterministic given the RNG state.
    #[test]
    fn delivery_is_reproducible(topo in topo_strategy(), seed in 0u64..u64::MAX) {
        let senders: Vec<NodeId> = topo.nodes().collect();
        for mut medium in media() {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let da = medium.deliver(&topo, &senders, &mut a);
            let db = medium.deliver(&topo, &senders, &mut b);
            prop_assert_eq!(&da, &db, "{} not reproducible", medium.name());
        }
    }
}
