//! `selfstab` — command-line front end: deploy a topology, run the
//! self-stabilizing clustering, inspect or render the result.
//!
//! ```text
//! selfstab topology --lambda 1000 --radius 0.1 [--seed N]
//! selfstab cluster  --lambda 1000 --radius 0.1 [--fusion] [--stable]
//!                   [--metric density|degree|unit] [--dag] [--svg out.svg]
//! selfstab cluster  --grid 32 --radius 0.05 --dag [--ascii]
//! selfstab dag      --grid 32 --radius 0.05 [--gamma N]
//! selfstab route    --lambda 500 --radius 0.1 --pairs 200
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use rand::SeedableRng;
use selfstab::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, opts)) = parse(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "topology" => cmd_topology(&opts),
        "cluster" => cmd_cluster(&opts),
        "dag" => cmd_dag(&opts),
        "route" => cmd_route(&opts),
        "hierarchy" => cmd_hierarchy(&opts),
        "energy" => cmd_energy(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "selfstab — self-stabilizing density clustering (Mitton et al., ICDCS 2005)

USAGE:
    selfstab <COMMAND> [OPTIONS]

COMMANDS:
    topology   deploy and describe a topology
    cluster    run the clustering and report/render it
    dag        run only the N1 DAG renaming
    route      measure hierarchical-routing stretch
    hierarchy  build the recursive cluster hierarchy
    energy     battery-aware rotation vs static election
    help       show this text

DEPLOYMENT OPTIONS (shared):
    --lambda <f>    Poisson intensity over the unit square
    --nodes <n>     exactly n uniform nodes (alternative to --lambda)
    --grid <side>   side×side grid with row-major ids
    --radius <f>    radio range (default 0.1)
    --seed <n>      RNG seed (default 1)

CLUSTER OPTIONS:
    --metric <m>    density (default) | degree | unit
    --fusion        enable the 2-hop head-fusion rule (Section 4.3)
    --stable        enable the incumbency tie-break (Section 4.3)
    --dag           enable the constant-height DAG renaming
    --gamma <n>     DAG name-space size (default δ²)
    --silent        event-driven cache freshness: the activity-driven
                    engine gates stabilized regions (zero messages)
    --driver <d>    rounds (default) | events | actors — the same
                    scenario on synchronous steps, the continuous
                    clock, or real message-passing actor processes
    --threads <n>   worker threads for --driver actors (default 1; on
                    two cores a second worker costs more than it saves)
    --svg <path>    write an SVG rendering
    --ascii         print ASCII art (grids only)

ROUTE OPTIONS:
    --pairs <n>     random pairs to sample (default 200)";

type Opts = BTreeMap<String, String>;

/// Splits `args` into a subcommand and `--key value` / `--flag` pairs.
fn parse(args: &[String]) -> Option<(String, Opts)> {
    let mut iter = args.iter().peekable();
    let command = iter.next()?.clone();
    let mut opts = Opts::new();
    while let Some(arg) = iter.next() {
        let key = arg.strip_prefix("--")?.to_string();
        let value = match iter.peek() {
            Some(next) if !next.starts_with("--") => iter.next()?.clone(),
            _ => "true".to_string(),
        };
        opts.insert(key, value);
    }
    Some((command, opts))
}

fn opt_f64(opts: &Opts, key: &str) -> Result<Option<f64>, String> {
    opts.get(key)
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| format!("--{key} wants a number, got `{v}`"))
        })
        .transpose()
}

fn opt_u64(opts: &Opts, key: &str) -> Result<Option<u64>, String> {
    opts.get(key)
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("--{key} wants an integer, got `{v}`"))
        })
        .transpose()
}

fn flag(opts: &Opts, key: &str) -> bool {
    opts.get(key).is_some_and(|v| v == "true")
}

/// Builds the topology from the shared deployment options.
fn deploy(opts: &Opts) -> Result<Topology, String> {
    let radius = opt_f64(opts, "radius")?.unwrap_or(0.1);
    if !(radius.is_finite() && radius > 0.0) {
        return Err(format!(
            "--radius must be finite and positive, got {radius}"
        ));
    }
    let seed = opt_u64(opts, "seed")?.unwrap_or(1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    if let Some(side) = opt_u64(opts, "grid")? {
        if side < 2 {
            return Err("--grid needs a side of at least 2".into());
        }
        Ok(builders::grid(side as usize, side as usize, radius))
    } else if let Some(n) = opt_u64(opts, "nodes")? {
        Ok(builders::uniform(n as usize, radius, &mut rng))
    } else {
        let lambda = opt_f64(opts, "lambda")?.unwrap_or(500.0);
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(format!(
                "--lambda must be finite and non-negative, got {lambda}"
            ));
        }
        Ok(builders::poisson(lambda, radius, &mut rng))
    }
}

fn cluster_config(opts: &Opts, topo: &Topology) -> Result<ClusterConfig, String> {
    let metric = match opts.get("metric").map(String::as_str) {
        None | Some("density") => MetricKind::Density,
        Some("degree") => MetricKind::Degree,
        Some("unit") | Some("lowest-id") => MetricKind::Unit,
        Some(other) => return Err(format!("unknown metric `{other}`")),
    };
    let dag = if flag(opts, "dag") {
        let gamma = match opt_u64(opts, "gamma")? {
            Some(g) => NameSpace::of_size(g as u32),
            None => NameSpace::delta_squared(topo.max_degree().max(1)),
        };
        Some(DagConfig {
            gamma,
            variant: DagVariant::SmallestIdRedraws,
        })
    } else {
        None
    };
    let config = ClusterConfig {
        metric,
        order: if flag(opts, "stable") {
            OrderKind::Stable
        } else {
            OrderKind::Basic
        },
        rule: if flag(opts, "fusion") {
            HeadRule::Fusion
        } else {
            HeadRule::Basic
        },
        dag,
        cache_ttl: 4,
        freshness: if flag(opts, "silent") {
            FreshnessPolicy::EventDriven
        } else {
            FreshnessPolicy::TtlSweep
        },
    };
    config.validate_for(topo)?;
    Ok(config)
}

fn cmd_topology(opts: &Opts) -> Result<(), String> {
    let topo = deploy(opts)?;
    let stats = selfstab::graph::stats::DegreeStats::of(&topo);
    let mut table = Table::new("topology");
    table.set_headers(["property", "value"]);
    table.add_row("nodes", vec![topo.len().to_string()]);
    table.add_row("links", vec![topo.edge_count().to_string()]);
    table.add_row("max degree (δ)", vec![stats.max.to_string()]);
    table.add_row("mean degree", vec![format!("{:.2}", stats.mean)]);
    table.add_row("isolated nodes", vec![stats.isolated.to_string()]);
    table.add_row(
        "connected",
        vec![selfstab::graph::traversal::is_connected(&topo).to_string()],
    );
    println!("{table}");
    Ok(())
}

fn cmd_cluster(opts: &Opts) -> Result<(), String> {
    let topo = deploy(opts)?;
    let config = cluster_config(opts, &topo)?;
    let seed = opt_u64(opts, "seed")?.unwrap_or(1);
    let scenario = || {
        Scenario::new(DensityCluster::new(config))
            .topology(topo.clone())
            .seed(seed)
    };
    // One scenario, three drivers: the same deployment and seed run on
    // synchronous rounds, the continuous clock, or real message-passing
    // actors — and (for this protocol) produce the same clustering.
    let built = |e: SimError| e.to_string();
    let (summary, states) = match opts.get("driver").map(String::as_str) {
        None | Some("rounds") => stabilize(scenario().build().map_err(built)?, "steps")?,
        Some("events") => {
            let config = EventConfig::default();
            stabilize(scenario().build_events(config).map_err(built)?, "periods")?
        }
        Some("actors") => {
            let threads = opt_u64(opts, "threads")?.unwrap_or(1) as usize;
            let unit = format!("periods, {threads} threads");
            stabilize(scenario().build_actors(threads).map_err(built)?, &unit)?
        }
        Some(other) => return Err(format!("unknown driver `{other}` (rounds|events|actors)")),
    };
    let clustering = extract_clustering(&states).ok_or("non-stabilized state extracted")?;
    let stats = ClusteringStats::of(&topo, &clustering).ok_or("empty clustering")?;
    let mut table = Table::new(format!("clustering ({summary})"));
    table.set_headers(["property", "value"]);
    table.add_row("clusters", vec![format!("{}", stats.clusters)]);
    table.add_row(
        "mean cluster size",
        vec![format!("{:.2}", stats.mean_cluster_size)],
    );
    table.add_row(
        "mean tree length",
        vec![format!("{:.2}", stats.mean_tree_length)],
    );
    table.add_row(
        "mean head eccentricity",
        vec![format!("{:.2}", stats.mean_head_eccentricity)],
    );
    println!("{table}");
    if let Some(path) = opts.get("svg") {
        write_svg_clustering(path, &topo, &clustering)
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if flag(opts, "ascii") {
        let side = opt_u64(opts, "grid")?.ok_or("--ascii requires --grid")? as usize;
        print!("{}", ascii_grid_clustering(&clustering, side, side));
    }
    Ok(())
}

/// Runs `driver` to a stable clustering; returns the headline (in the
/// driver's own time `unit`) and the stabilized states.
fn stabilize<C: Clock<DensityCluster>>(
    mut driver: Sim<DensityCluster, C>,
    unit: &str,
) -> Result<(String, Vec<ClusterState>), String> {
    let steps = driver
        .run_to(&StopWhen::stable_for(4).within(10_000))
        .stabilized
        .ok_or_else(|| format!("the protocol did not stabilize within 10000 {unit}"))?;
    let summary = format!("stabilized after {steps} {unit}");
    Ok((summary, driver.states().to_vec()))
}

fn cmd_dag(opts: &Opts) -> Result<(), String> {
    let topo = deploy(opts)?;
    let gamma = match opt_u64(opts, "gamma")? {
        Some(g) => NameSpace::of_size(g as u32),
        None => NameSpace::delta_squared(topo.max_degree().max(1)),
    };
    let seed = opt_u64(opts, "seed")?.unwrap_or(1);
    let mut net = Scenario::new(DagProtocol::new(gamma, DagVariant::SmallestIdRedraws, 4))
        .topology(topo)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    let steps = net
        .run_to(&StopWhen::stable_for(4).within(10_000))
        .stabilized
        .ok_or("N1 did not stabilize within 10000 steps")?;
    let names: Vec<u32> = net.states().iter().map(|s| s.dag_id).collect();
    let unique = selfstab::cluster::is_locally_unique(net.topology(), &names);
    let height = selfstab::cluster::name_dag_height(net.topology(), &names);
    println!(
        "N1 over |γ| = {}: stabilized after {steps} steps; proper coloring: {unique}; \
         DAG height {height} (bound |γ|+1 = {})",
        gamma.size(),
        gamma.size() + 1
    );
    Ok(())
}

fn cmd_route(opts: &Opts) -> Result<(), String> {
    let topo = deploy(opts)?;
    let pairs = opt_u64(opts, "pairs")?.unwrap_or(200) as usize;
    let seed = opt_u64(opts, "seed")?.unwrap_or(1);
    let clustering = oracle(&topo, &OracleConfig::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xF00D);
    let stretch = selfstab::cluster::mean_stretch(&topo, &clustering, pairs, &mut rng)
        .ok_or("no routable pairs sampled (disconnected or tiny topology)")?;
    println!(
        "hierarchical routing over {} clusters: mean stretch {stretch:.3} ({pairs} pairs)",
        clustering.head_count()
    );
    Ok(())
}

fn cmd_hierarchy(opts: &Opts) -> Result<(), String> {
    let topo = deploy(opts)?;
    let h = selfstab::cluster::build_hierarchy(&topo, &OracleConfig::default(), 10);
    let mut table = Table::new(format!("hierarchy ({} levels)", h.depth()));
    table.set_headers(["level", "nodes", "clusters"]);
    for (k, level) in h.levels().iter().enumerate() {
        table.add_row(
            k.to_string(),
            vec![
                level.members.len().to_string(),
                level.clustering.head_count().to_string(),
            ],
        );
    }
    println!("{table}");
    println!(
        "top-level roots: {}",
        h.top_heads()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}

fn cmd_energy(opts: &Opts) -> Result<(), String> {
    let topo = deploy(opts)?;
    let rounds = opt_u64(opts, "rounds")?.unwrap_or(400);
    let model = EnergyModel {
        initial: 50.0,
        head_cost: 1.0,
        member_cost: 0.01,
        bands: 25,
    };
    let mut table = Table::new(format!("energy-aware rotation vs static ({rounds} rounds)"));
    table.set_headers(["", "rotating", "static"]);
    let rotating = simulate_rotation(&topo, &model, &OracleConfig::default(), rounds, true);
    let fixed = simulate_rotation(&topo, &model, &OracleConfig::default(), rounds, false);
    let death = |d: Option<u64>| d.map_or("none".to_string(), |r| r.to_string());
    table.add_row(
        "first node death (round)",
        vec![death(rotating.first_death), death(fixed.first_death)],
    );
    table.add_row(
        "min battery at end",
        vec![
            format!("{:.1}", rotating.min_battery),
            format!("{:.1}", fixed.min_battery),
        ],
    );
    table.add_row(
        "distinct heads served",
        vec![
            rotating.distinct_heads.to_string(),
            fixed.distinct_heads.to_string(),
        ],
    );
    println!("{table}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parser_splits_command_and_options() {
        let (cmd, opts) = parse(&argv("cluster --lambda 500 --fusion --seed 7")).unwrap();
        assert_eq!(cmd, "cluster");
        assert_eq!(opts.get("lambda").map(String::as_str), Some("500"));
        assert_eq!(opts.get("seed").map(String::as_str), Some("7"));
        assert!(flag(&opts, "fusion"));
        assert!(!flag(&opts, "dag"));
    }

    #[test]
    fn parser_rejects_stray_positional() {
        assert!(parse(&argv("cluster oops")).is_none());
        assert!(parse(&[]).is_none());
    }

    #[test]
    fn numeric_options_validate() {
        let (_, opts) = parse(&argv("cluster --lambda abc")).unwrap();
        assert!(opt_f64(&opts, "lambda").is_err());
        let (_, opts) = parse(&argv("cluster --seed 12")).unwrap();
        assert_eq!(opt_u64(&opts, "seed").unwrap(), Some(12));
        assert_eq!(opt_u64(&opts, "missing").unwrap(), None);
    }

    #[test]
    fn deploy_grid_and_uniform() {
        let (_, opts) = parse(&argv("topology --grid 5 --radius 0.3")).unwrap();
        assert_eq!(deploy(&opts).unwrap().len(), 25);
        let (_, opts) = parse(&argv("topology --nodes 40")).unwrap();
        assert_eq!(deploy(&opts).unwrap().len(), 40);
    }

    #[test]
    fn bad_deployment_values_are_errors_not_panics() {
        for args in [
            "topology --radius -1",
            "topology --radius 0",
            "topology --radius nan",
            "topology --nodes 50 --radius inf",
            "topology --grid 4 --radius -0.5",
        ] {
            let (_, opts) = parse(&argv(args)).unwrap();
            let err = deploy(&opts).unwrap_err();
            assert!(err.contains("--radius"), "{args}: {err}");
        }
        for args in [
            "topology --lambda -5",
            "topology --lambda nan",
            "topology --lambda inf",
        ] {
            let (_, opts) = parse(&argv(args)).unwrap();
            let err = deploy(&opts).unwrap_err();
            assert!(err.contains("--lambda"), "{args}: {err}");
        }
        let (_, opts) = parse(&argv("topology --lambda 0")).unwrap();
        assert_eq!(
            deploy(&opts).unwrap().len(),
            0,
            "an empty field is a valid one"
        );
    }

    #[test]
    fn config_validation_bubbles_up() {
        let (_, opts) = parse(&argv("cluster --grid 6 --radius 0.5 --dag --gamma 2")).unwrap();
        let topo = deploy(&opts).unwrap();
        assert!(cluster_config(&opts, &topo).is_err(), "γ=2 < δ must fail");
    }

    #[test]
    fn commands_run_end_to_end() {
        let (_, opts) = parse(&argv("topology --nodes 30 --radius 0.2 --seed 3")).unwrap();
        cmd_topology(&opts).unwrap();
        let (_, opts) = parse(&argv("cluster --nodes 30 --radius 0.2 --seed 3")).unwrap();
        cmd_cluster(&opts).unwrap();
        let (_, opts) = parse(&argv(
            "cluster --nodes 30 --radius 0.2 --seed 3 --driver events",
        ))
        .unwrap();
        cmd_cluster(&opts).unwrap();
        let (_, opts) = parse(&argv(
            "cluster --nodes 30 --radius 0.2 --seed 3 --silent --driver actors --threads 2",
        ))
        .unwrap();
        cmd_cluster(&opts).unwrap();
        let (_, opts) = parse(&argv("cluster --nodes 30 --driver warp")).unwrap();
        assert!(cmd_cluster(&opts).is_err(), "unknown driver must fail");
        let (_, opts) = parse(&argv("dag --grid 6 --radius 0.25 --seed 3")).unwrap();
        cmd_dag(&opts).unwrap();
        let (_, opts) = parse(&argv("route --nodes 60 --radius 0.2 --seed 3")).unwrap();
        cmd_route(&opts).unwrap();
        let (_, opts) = parse(&argv("hierarchy --nodes 80 --radius 0.12 --seed 3")).unwrap();
        cmd_hierarchy(&opts).unwrap();
        let (_, opts) =
            parse(&argv("energy --nodes 40 --radius 0.2 --rounds 60 --seed 3")).unwrap();
        cmd_energy(&opts).unwrap();
    }
}
