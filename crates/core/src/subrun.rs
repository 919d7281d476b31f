//! Independent sub-runs of one experiment, on several threads, with the
//! serial loop's answer, journal and metrics.
//!
//! T1 averages 25 agenda runs and T3 15 mesh runs, and no run reads
//! another's state. [`fork_join`] hands such jobs to the runner's pooled
//! fan-out ([`fan_out`]) and joins them in job order, so nothing it
//! returns or records depends on the worker count:
//!
//! * each job gets its own [`Telemetry`] (recording iff the parent
//!   records) and its own [`FaultHook::fork`], which answers every
//!   `(step, kind)` as the parent hook would and counts from 0;
//! * the join takes job 0, 1, 2, … in turn: it absorbs the job's
//!   telemetry, then [`FaultHook::join`]s its fault count. That is the
//!   order the serial loop recorded in, so every journal line, `seq`,
//!   counter, last-written gauge and histogram count comes out the same;
//! * a failing job k (an error or a panic) ends the fan-out as it would
//!   end the serial loop: jobs 0..=k are joined, k's partial telemetry
//!   included, the rest are dropped, and k's error is returned or its
//!   panic resumed.

use crate::Result;
use humnet_resilience::{fan_out, FaultHook};
use humnet_telemetry::{Telemetry, TelemetrySnapshot};
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::OnceLock;
use std::thread;

/// The worker count for `jobs` independent jobs: the host's available
/// parallelism (read once per process), capped at `jobs`, at least 1.
pub(crate) fn workers_for(jobs: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
    cores.min(jobs).max(1)
}

/// What a finished job hands to the join.
struct Finished<T> {
    result: thread::Result<Result<T>>,
    telemetry: TelemetrySnapshot,
    injected: u64,
}

/// Run `job(k, hook, tel)` for k in `0..jobs` on up to `workers` threads
/// (the calling thread is one of them) and return the outputs in job
/// order; see the [module docs](self) for what the join keeps. Once a
/// job has failed no new job is claimed. Production callers pass
/// [`workers_for`]`(jobs)`; tests pin other counts to show the answer
/// never changes.
pub(crate) fn fork_join<T: Send + 'static>(
    jobs: usize,
    workers: usize,
    hook: &mut dyn FaultHook,
    tel: &Telemetry,
    job: impl Fn(usize, &mut dyn FaultHook, &Telemetry) -> Result<T> + Send + Sync + 'static,
) -> Result<Vec<T>> {
    // Forks and telemetry are made here: `hook` and `tel` stay on this
    // thread.
    let forks = (0..jobs).map(|_| (hook.fork(), tel.fork())).collect();
    let finished = fan_out(forks, workers, move |k, (fork, job_tel), _| {
        let mut job_hook = fork.bind(&job_tel);
        let result = panic::catch_unwind(AssertUnwindSafe(|| job(k, &mut *job_hook, &job_tel)));
        let injected = job_hook.faults_injected();
        drop(job_hook);
        let failed = !matches!(result, Ok(Ok(_)));
        let done = Finished {
            result,
            telemetry: job_tel.into_snapshot(),
            injected,
        };
        if failed {
            ControlFlow::Break(done)
        } else {
            ControlFlow::Continue(done)
        }
    });
    // Every job before the first failure was claimed before it, so the
    // walk meets the first failure before it runs out of jobs.
    let mut outputs = Vec::with_capacity(jobs);
    for done in finished {
        tel.absorb(done.telemetry, "");
        hook.join(done.injected);
        match done.result {
            Ok(Ok(output)) => outputs.push(output),
            Ok(Err(e)) => return Err(e),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use humnet_resilience::NoFaults;
    use humnet_resilience::{FaultKind, FaultPlan, FaultProfile, InstrumentedHook, PlanHook};
    use humnet_telemetry::Event;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    /// Job k asks about 40 steps of its own and records into every
    /// kind of metric, so its count and its journal lines differ from
    /// every other job's.
    fn record(k: usize, hook: &mut dyn FaultHook, tel: &Telemetry) -> u64 {
        let mut hits = 0;
        for step in (k as u64 * 100)..(k as u64 * 100 + 40) {
            if hook.inject(step, FaultKind::LinkOutage).is_some() {
                hits += 1;
            }
        }
        tel.event(Event::new("milestone", format!("job {k}")));
        tel.counter("test.jobs", 1);
        tel.gauge("test.last_job", k as f64);
        tel.observe("test.hits", hits);
        hits
    }

    /// What `fork_join` must reproduce: the serial loop, straight on the
    /// parent hook and telemetry, stopping at the first failure.
    fn serial(
        jobs: usize,
        hook: &mut dyn FaultHook,
        tel: &Telemetry,
        job: impl Fn(usize, &mut dyn FaultHook, &Telemetry) -> Result<u64>,
    ) -> Result<Vec<u64>> {
        (0..jobs).map(|k| job(k, hook, tel)).collect()
    }

    /// One run under an instrumented chaos hook: its result, the hook's
    /// count, and everything it recorded.
    struct Run {
        result: Result<Vec<u64>>,
        injected: u64,
        snap: TelemetrySnapshot,
    }

    impl Run {
        /// How many jobs reached their milestone in the journal.
        fn milestones(&self) -> usize {
            let milestone = |e: &&Event| e.kind == "milestone";
            self.snap.events.iter().filter(milestone).count()
        }
    }

    fn observe(run: impl FnOnce(&mut dyn FaultHook, &Telemetry) -> Result<Vec<u64>>) -> Run {
        let tel = Telemetry::new();
        let mut plan = PlanHook::new(FaultPlan::new(FaultProfile::Chaos, 5));
        let result = run(&mut InstrumentedHook::new(&mut plan, &tel), &tel);
        Run {
            result,
            injected: plan.faults_injected(),
            snap: tel.into_snapshot(),
        }
    }

    /// [`observe`] a run that must panic with job 2's payload.
    fn observe_panic(run: impl FnOnce(&mut dyn FaultHook, &Telemetry) -> Result<Vec<u64>>) -> Run {
        observe(|hook, tel| {
            let payload = panic::catch_unwind(AssertUnwindSafe(|| run(hook, tel)))
                .expect_err("the panic must resume");
            let message = payload.downcast_ref::<String>().cloned();
            assert_eq!(message.as_deref(), Some("job 2 panicked"));
            Ok(Vec::new())
        })
    }

    fn assert_same(got: &Run, want: &Run, what: &str) {
        assert_eq!(got.result, want.result, "{what}: outputs");
        assert_eq!(got.injected, want.injected, "{what}: faults injected");
        let (g, w) = (&got.snap, &want.snap);
        assert_eq!(g.canonical_events(), w.canonical_events(), "{what}");
        assert_eq!(g.metrics.counters, w.metrics.counters, "{what}");
        assert_eq!(g.metrics.gauges, w.metrics.gauges, "{what}");
        let counts = |s: &TelemetrySnapshot| {
            s.metrics
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.count))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(g), counts(w), "{what}: histogram counts");
    }

    #[test]
    fn joins_in_job_order_at_any_worker_count() {
        // 0 jobs, 1 job, fewer jobs than workers, and more.
        for jobs in [0, 1, 3, 12] {
            let want = observe(|hook, tel| serial(jobs, hook, tel, |k, h, t| Ok(record(k, h, t))));
            if jobs == 12 {
                assert!(want.injected > 0, "the chaos plan must inject");
            }
            for workers in [1, 2, 8] {
                let got = observe(|hook, tel| {
                    fork_join(jobs, workers, hook, tel, |k, h, t| Ok(record(k, h, t)))
                });
                assert_same(&got, &want, &format!("{jobs} jobs on {workers} workers"));
            }
        }
    }

    /// Opened by the later of two failing jobs just before it fails. The
    /// earlier one waits for it whenever a second worker can run the
    /// later one, so the later failure really happens first.
    #[derive(Default)]
    struct Latch(Mutex<bool>, Condvar);

    impl Latch {
        fn open(&self) {
            *self.0.lock().expect("latch lock") = true;
            self.1.notify_all();
        }

        fn wait(&self) {
            let open = self.0.lock().expect("latch lock");
            let (_open, wait) = self
                .1
                .wait_timeout_while(open, Duration::from_secs(30), |open| !*open)
                .expect("latch lock");
            assert!(!wait.timed_out(), "the later job never failed");
        }
    }

    #[test]
    fn an_error_in_job_k_returns_it_after_joining_jobs_0_to_k() {
        let fail = |k: usize, h: &mut dyn FaultHook, t: &Telemetry, latch: Option<&Latch>| {
            let hits = record(k, h, t);
            match k {
                3 => {
                    latch.map(Latch::wait);
                    Err(CoreError::NotFound("job 3"))
                }
                5 => {
                    latch.map(Latch::open);
                    Err(CoreError::NotFound("job 5"))
                }
                _ => Ok(hits),
            }
        };
        let want = observe(|hook, tel| serial(8, hook, tel, |k, h, t| fail(k, h, t, None)));
        assert_eq!(want.result, Err(CoreError::NotFound("job 3")));
        assert_eq!(want.milestones(), 4, "jobs 0 to 3 journal");
        for workers in [1, 2, 8] {
            let latch = (workers > 1).then(|| Arc::new(Latch::default()));
            let got = observe(|hook, tel| {
                fork_join(8, workers, hook, tel, move |k, h, t| {
                    fail(k, h, t, latch.as_deref())
                })
            });
            assert_same(&got, &want, &format!("{workers} workers"));
        }
    }

    #[test]
    fn a_panic_in_job_k_resumes_after_joining_jobs_0_to_k() {
        let fail = |k: usize, h: &mut dyn FaultHook, t: &Telemetry, latch: Option<&Latch>| {
            let hits = record(k, h, t);
            match k {
                2 => latch.map(Latch::wait),
                6 => latch.map(Latch::open),
                _ => return Ok(hits),
            };
            panic!("job {k} panicked")
        };
        let want = observe_panic(|hook, tel| serial(8, hook, tel, |k, h, t| fail(k, h, t, None)));
        assert_eq!(want.milestones(), 3, "jobs 0, 1 and 2 journal");
        for workers in [1, 2, 8] {
            let latch = (workers > 1).then(|| Arc::new(Latch::default()));
            let got = observe_panic(|hook, tel| {
                fork_join(8, workers, hook, tel, move |k, h, t| {
                    fail(k, h, t, latch.as_deref())
                })
            });
            assert_same(&got, &want, &format!("{workers} workers"));
        }
    }

    #[test]
    fn a_job_off_the_calling_thread_runs_on_a_pooled_worker() {
        // A job the calling thread claims waits until another job has
        // run, so a helper must take one.
        let caller = thread::current().id();
        let latch = Arc::new(Latch::default());
        let helper_name = move |_, _: &mut dyn FaultHook, _: &Telemetry| {
            let me = thread::current();
            if me.id() == caller {
                latch.wait();
                return Ok(None);
            }
            latch.open();
            Ok(Some(me.name().unwrap_or_default().to_owned()))
        };
        let ran = fork_join(2, 2, &mut NoFaults, &Telemetry::disabled(), helper_name);
        let helpers: Vec<String> = ran.unwrap().into_iter().flatten().collect();
        assert!(!helpers.is_empty(), "no job ran off the calling thread");
        for name in helpers {
            assert!(name.starts_with("humnet-exp-pool-"), "{name:?}");
        }
    }

    #[test]
    fn worker_rule_is_capped_by_the_jobs() {
        assert_eq!(workers_for(0), 1);
        assert_eq!(workers_for(1), 1);
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(workers_for(1000), cores.min(1000));
    }
}
