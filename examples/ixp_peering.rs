//! The two IXP case studies from the paper's §3, end to end.
//!
//! ```text
//! cargo run --example ixp_peering                    # both scenarios, defaults
//! cargo run --example ixp_peering -- --enforcement 0.5 --competitors 10
//! cargo run --example ixp_peering -- --content-presence 0.6
//! ```
//!
//! Scenario A (Mexico): a regulator mandates that the incumbent peer at
//! the national IXP; the incumbent responds with the ASN-splitting
//! maneuver Rosa documented. We sweep regulator enforcement and print
//! where competitor traffic actually gets exchanged.
//!
//! Scenario B (Brazil/Germany): Global South ISPs peer at a giant
//! Northern exchange because content has no local presence. We sweep
//! local content presence and print where South traffic is exchanged.

use humnet::ixp::{
    CircumventionStrategy, MexicoConfig, MexicoScenario, TwoRegionConfig, TwoRegionScenario,
};
use humnet::resilience::NoFaults;
use humnet::telemetry::Telemetry;

struct Args {
    enforcement: Option<f64>,
    competitors: usize,
    content_presence: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        enforcement: None,
        competitors: 6,
        content_presence: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--enforcement" => {
                i += 1;
                args.enforcement = argv.get(i).and_then(|v| v.parse().ok());
            }
            "--competitors" => {
                i += 1;
                args.competitors = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(args.competitors);
            }
            "--content-presence" => {
                i += 1;
                args.content_presence = argv.get(i).and_then(|v| v.parse().ok());
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args();

    println!("=== Scenario A: Mexico, mandatory peering vs the ASN shell ===\n");
    let enforcements: Vec<f64> = match args.enforcement {
        Some(e) => vec![e],
        None => (0..=4).map(|i| i as f64 / 4.0).collect(),
    };
    println!(
        "{:<12} {:>16} {:>16} {:>14}",
        "enforcement", "share (comply)", "share (split)", "transit (split)"
    );
    for e in enforcements {
        let mut cfg = MexicoConfig::default();
        cfg.competitors = args.competitors;
        cfg.regulation.enforcement = e;
        cfg.strategy = CircumventionStrategy::ComplyFully;
        let comply = MexicoScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled())?;
        cfg.strategy = CircumventionStrategy::AsnSplitting;
        let split = MexicoScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled())?;
        println!(
            "{:<12.2} {:>16.3} {:>16.3} {:>14.0}",
            e,
            comply.competitor_ixp_share()?,
            split.competitor_ixp_share()?,
            split.transit_cost(),
        );
    }
    println!(
        "\nReading: with a shell ASN at the exchange, the law's headline is met\n\
         while competitor traffic keeps flowing over the incumbent's paid transit.\n"
    );

    println!("=== Scenario B: Brazil vs Germany, the gravity of giant IXPs ===\n");
    let presences: Vec<f64> = match args.content_presence {
        Some(p) => vec![p],
        None => (0..=5).map(|i| i as f64 / 5.0).collect(),
    };
    println!(
        "{:<18} {:>18} {:>18}",
        "content presence", "exchanged abroad", "exchanged locally"
    );
    for p in presences {
        let mut cfg = TwoRegionConfig::default();
        cfg.content_presence_south = p;
        let sc = TwoRegionScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled())?;
        println!(
            "{:<18.2} {:>18.3} {:>18.3}",
            p,
            sc.foreign_exchange_share()?,
            sc.local_exchange_share()?,
        );
    }
    println!(
        "\nReading: while content has no local point of presence, South-sourced\n\
         traffic is exchanged at the giant Northern IXP — the exchange acts as an\n\
         'alternative to Tier 1'. Local content presence pulls it home."
    );
    Ok(())
}
