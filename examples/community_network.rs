//! A community network's year: volunteer sustainability and shared
//! backhaul governance (the paper's §4 grounding).
//!
//! ```text
//! cargo run --example community_network
//! cargo run --example community_network -- --failure-rate 0.08 --days 730
//! ```

use humnet::community::{
    AllocationPolicy, CongestionConfig, CongestionSim, SustainabilityConfig, SustainabilitySim,
    VolunteerRegime,
};
use humnet::resilience::NoFaults;
use humnet::telemetry::Telemetry;

fn flag(name: &str) -> Option<f64> {
    let argv: Vec<String> = std::env::args().collect();
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let failure_rate = flag("--failure-rate").unwrap_or(0.05);
    let days = flag("--days").unwrap_or(365.0) as u32;

    println!("=== Part 1: who keeps the mesh alive? ===\n");
    println!(
        "{:<26} {:>8} {:>12} {:>10} {:>8}",
        "volunteer regime", "uptime", "mttr (days)", "attrition", "cost"
    );
    for regime in VolunteerRegime::ALL {
        // Average over five deployments.
        let (mut uptime, mut mttr, mut mttr_n, mut attrition, mut cost) =
            (0.0, 0.0, 0u32, 0usize, 0.0);
        for seed in 0..5 {
            let mut cfg = SustainabilityConfig::default();
            cfg.regime = regime;
            cfg.daily_failure_rate = failure_rate;
            cfg.days = days;
            cfg.seed = seed;
            let out = SustainabilitySim::new(cfg)?.run(&mut NoFaults, &Telemetry::disabled())?;
            uptime += out.uptime;
            if !out.mttr.is_nan() {
                mttr += out.mttr;
                mttr_n += 1;
            }
            attrition += out.attrition;
            cost += out.total_cost;
        }
        println!(
            "{:<26} {:>8.3} {:>12} {:>10.1} {:>8.0}",
            regime.label(),
            uptime / 5.0,
            if mttr_n > 0 {
                format!("{:.2}", mttr / mttr_n as f64)
            } else {
                "n/a".into()
            },
            attrition as f64 / 5.0,
            cost / 5.0,
        );
    }
    println!(
        "\nReading: two heroic volunteers burn out and the network decays;\n\
         distributed stewardship sustains it for free; paid staff sustains it\n\
         for money. Infrastructure is a people problem (§4).\n"
    );

    println!("=== Part 2: governing the shared backhaul ===\n");
    let sim = CongestionSim::new(CongestionConfig::default())?;
    println!(
        "{:<18} {:>22} {:>13} {:>22}",
        "policy", "fairness (backlogged)", "utilization", "modest-user starvation"
    );
    for out in sim.compare(&mut NoFaults, &Telemetry::disabled()) {
        println!(
            "{:<18} {:>22.3} {:>13.3} {:>22.3}",
            out.policy.label(),
            out.fairness,
            out.utilization,
            out.starvation,
        );
    }
    let _ = AllocationPolicy::ALL; // exhaustiveness reminder
    println!(
        "\nReading: free-for-all fills the pipe but lets bursting heavy users\n\
         squeeze modest households; equal hard caps protect them but waste\n\
         capacity; the community-token scheme (Johnson et al.'s common-pool\n\
         governance) gets both right."
    );
    Ok(())
}
