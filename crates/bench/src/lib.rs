//! Shared fixtures for the humnet benchmark harness.
//!
//! `bench_experiments` times every experiment of `EXPERIMENTS.md` through
//! the registry; the other targets price the substrates, telemetry,
//! sharding, scheduling and the serve daemon.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use humnet_agenda::AgendaConfig;

/// A reduced agenda configuration benches can iterate quickly.
pub fn small_agenda(seed: u64) -> AgendaConfig {
    let mut cfg = AgendaConfig::default();
    cfg.researchers = 60;
    cfg.rounds = 20;
    cfg.seed = seed;
    cfg
}

/// Synthetic spec lists for the scheduling benches (`bench_schedule`):
/// blocking-sleep jobs whose cost mix is controlled, so wall-clock
/// differences across worker counts measure load balance rather than job
/// content.
pub mod schedule_specs {
    use humnet_resilience::{ExperimentSpec, JobError, JobOutput};
    use std::thread;
    use std::time::Duration;

    /// One job that blocks for `sleep` and succeeds deterministically.
    fn sleeping_spec(code: String, sleep: Duration) -> ExperimentSpec {
        let rendered = format!("{code}: slept {} us", sleep.as_micros());
        ExperimentSpec::new(&code, "synthetic sleeper", "bench", move |_plan, _tel| {
            thread::sleep(sleep);
            Ok::<JobOutput, JobError>(JobOutput {
                rendered: rendered.clone(),
                faults_injected: 0,
            })
        })
    }

    /// `heavy` 2 ms jobs followed by `light` 200 µs jobs — the skewed mix.
    /// Clustering the heavy jobs at the head is the adversarial case for a
    /// contiguous partition, which would put them all on the first
    /// shard(s).
    pub fn skewed_specs(heavy: usize, light: usize) -> Vec<ExperimentSpec> {
        let mut specs = Vec::with_capacity(heavy + light);
        for i in 0..heavy {
            specs.push(sleeping_spec(format!("heavy{i}"), Duration::from_millis(2)));
        }
        for i in 0..light {
            specs.push(sleeping_spec(
                format!("light{i}"),
                Duration::from_micros(200),
            ));
        }
        specs
    }

    /// `n` identical 200 µs jobs — no imbalance to rebalance.
    pub fn uniform_specs(n: usize) -> Vec<ExperimentSpec> {
        (0..n)
            .map(|i| sleeping_spec(format!("uni{i}"), Duration::from_micros(200)))
            .collect()
    }
}
