//! Deterministic fault model.
//!
//! A [`FaultPlan`] decides, for every `(step, kind)` pair a simulator asks
//! about, whether a fault fires and how severe it is. The decision is a
//! **pure function** of `(plan seed, step, kind)` — hashed through
//! `humnet_stats::rng::SplitMix64` — so:
//!
//! * the same plan replayed over the same simulation injects the identical
//!   fault sequence (reproducible chaos runs), and
//! * asking about faults never disturbs a simulator's own RNG stream, so a
//!   run under `FaultProfile::None` is bit-identical to one driven by
//!   [`NoFaults`].

use humnet_stats::rng::SplitMix64;
use humnet_telemetry::{Event, Telemetry};

/// The kinds of mid-run failure the paper's socio-technical systems face.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A spike of volunteer maintainers leaving a community network.
    VolunteerDropout,
    /// A backhaul/mesh link going dark for a while.
    LinkOutage,
    /// An entire exchange point going offline (no multilateral peering).
    IxpOutage,
    /// A reviewer failing to show up for an assigned round.
    ReviewerNoShow,
    /// A qualitative coder leaving mid-study (skipped/degraded coding).
    CoderAttrition,
}

impl FaultKind {
    /// Every kind, for iteration in tests and reports.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::VolunteerDropout,
        FaultKind::LinkOutage,
        FaultKind::IxpOutage,
        FaultKind::ReviewerNoShow,
        FaultKind::CoderAttrition,
    ];

    /// Stable human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::VolunteerDropout => "volunteer-dropout",
            FaultKind::LinkOutage => "link-outage",
            FaultKind::IxpOutage => "ixp-outage",
            FaultKind::ReviewerNoShow => "reviewer-no-show",
            FaultKind::CoderAttrition => "coder-attrition",
        }
    }

    /// Parse a [`FaultKind::label`] spelling back into the kind — the
    /// inverse the replay engine uses to reconstruct a recorded schedule.
    pub fn parse(s: &str) -> Option<Self> {
        FaultKind::ALL.into_iter().find(|k| k.label() == s)
    }

    /// Stable index used to decorrelate the hash streams per kind.
    fn lane(self) -> u64 {
        match self {
            FaultKind::VolunteerDropout => 1,
            FaultKind::LinkOutage => 2,
            FaultKind::IxpOutage => 3,
            FaultKind::ReviewerNoShow => 4,
            FaultKind::CoderAttrition => 5,
        }
    }
}

/// Built-in fault mixes, selectable via `--fault-profile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultProfile {
    /// No faults; hooks become free no-ops.
    #[default]
    None,
    /// Human churn: dropouts, no-shows, attrition; infrastructure mostly up.
    Churn,
    /// Infrastructure trouble: link and IXP outages; people mostly present.
    Outage,
    /// Everything at once, at elevated rates.
    Chaos,
}

impl FaultProfile {
    /// All profiles, for CLI help and tests.
    pub const ALL: [FaultProfile; 4] = [
        FaultProfile::None,
        FaultProfile::Churn,
        FaultProfile::Outage,
        FaultProfile::Chaos,
    ];

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(FaultProfile::None),
            "churn" => Some(FaultProfile::Churn),
            "outage" => Some(FaultProfile::Outage),
            "chaos" => Some(FaultProfile::Chaos),
            _ => None,
        }
    }

    /// Canonical spelling.
    pub fn label(self) -> &'static str {
        match self {
            FaultProfile::None => "none",
            FaultProfile::Churn => "churn",
            FaultProfile::Outage => "outage",
            FaultProfile::Chaos => "chaos",
        }
    }

    /// Per-step probability that a fault of `kind` fires under this profile.
    pub fn rate(self, kind: FaultKind) -> f64 {
        use FaultKind::*;
        match self {
            FaultProfile::None => 0.0,
            FaultProfile::Churn => match kind {
                VolunteerDropout => 0.15,
                ReviewerNoShow => 0.15,
                CoderAttrition => 0.10,
                LinkOutage => 0.02,
                IxpOutage => 0.0,
            },
            FaultProfile::Outage => match kind {
                LinkOutage => 0.12,
                IxpOutage => 0.25,
                VolunteerDropout => 0.02,
                ReviewerNoShow => 0.0,
                CoderAttrition => 0.0,
            },
            FaultProfile::Chaos => match kind {
                VolunteerDropout => 0.20,
                LinkOutage => 0.15,
                IxpOutage => 0.35,
                ReviewerNoShow => 0.20,
                CoderAttrition => 0.15,
            },
        }
    }
}

/// A reproducible schedule of faults: profile rates + seed + intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Which fault mix to draw from.
    pub profile: FaultProfile,
    /// Seed decorrelating this plan from the simulators' own RNG streams.
    pub seed: u64,
    /// Multiplier on every profile rate (clamped to probability range).
    pub intensity: f64,
}

impl FaultPlan {
    /// Plan with intensity 1.0.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        FaultPlan {
            profile,
            seed,
            intensity: 1.0,
        }
    }

    /// The no-op plan.
    pub fn none() -> Self {
        FaultPlan::new(FaultProfile::None, 0)
    }

    /// Scale all rates by `intensity` (values > 1 make faults more likely).
    pub fn with_intensity(mut self, intensity: f64) -> Self {
        self.intensity = intensity.max(0.0);
        self
    }

    /// Whether this plan can ever fire.
    pub fn is_active(&self) -> bool {
        self.profile != FaultProfile::None && self.intensity > 0.0
    }

    /// Effective probability for `kind`, in `[0, 1]`.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        (self.profile.rate(kind) * self.intensity).clamp(0.0, 1.0)
    }

    /// Pure fault decision for `(step, kind)`: `Some(severity)` in
    /// `(0, 1]` when the fault fires, `None` otherwise. Calling this in any
    /// order, any number of times, yields the same answers.
    pub fn draw(&self, step: u64, kind: FaultKind) -> Option<f64> {
        let rate = self.rate(kind);
        if rate <= 0.0 {
            return None;
        }
        let mut h = SplitMix64::new(
            self.seed
                ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ kind.lane().wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let fires = unit(h.next_u64()) < rate;
        if !fires {
            return None;
        }
        // Severity in (0, 1]: at least a quarter-strength fault so hooks
        // always see a meaningful perturbation.
        Some(0.25 + 0.75 * unit(h.next_u64()))
    }
}

/// Map a raw draw onto `[0, 1)` with 53 bits of precision.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Injection point implemented by long-running simulators. At each step a
/// simulator asks the hook once per fault kind it knows how to express;
/// `Some(severity)` means "this fault is active now, at this strength".
///
/// Every hook answers each `(step, kind)` the same however often and in
/// whatever order it is asked, so an experiment can hand independent
/// sub-runs a [`FaultHook::fork`] each, run them on several threads, and
/// [`FaultHook::join`] their counts back in sub-run order.
pub trait FaultHook {
    /// Decide whether `kind` fires at `step`; records the injection.
    fn inject(&mut self, step: u64, kind: FaultKind) -> Option<f64>;

    /// Number of faults this hook has injected so far.
    fn faults_injected(&self) -> u64 {
        0
    }

    /// A hook for one independent sub-run: it answers every
    /// `(step, kind)` as this hook would, counts its injections from 0,
    /// and journals into the sub-run's [`Telemetry`] iff this hook
    /// journals at all.
    fn fork(&self) -> HookFork;

    /// Add a finished fork's [`FaultHook::faults_injected`] to this
    /// hook's count. Its journal lines arrive with the sub-run's
    /// telemetry, so nothing is journaled here.
    fn join(&mut self, injected: u64);
}

/// What [`FaultHook::fork`] returns: made on the parent's thread, sent
/// to the thread that runs the sub-run, and there bound to the sub-run's
/// own [`Telemetry`] (which is `Send` but not `Sync`, so it cannot be
/// borrowed across threads).
pub struct HookFork(Box<BindFork>);

/// Builds a fork's hook from the sub-run's telemetry.
type BindFork = dyn for<'t> FnOnce(&'t Telemetry) -> Box<dyn FaultHook + 't> + Send;

impl HookFork {
    /// A fork that builds its hook from the sub-run's telemetry.
    pub fn new(
        bind: impl for<'t> FnOnce(&'t Telemetry) -> Box<dyn FaultHook + 't> + Send + 'static,
    ) -> Self {
        HookFork(Box::new(bind))
    }

    /// The sub-run's hook, journaling (if at all) into `tel`.
    pub fn bind(self, tel: &Telemetry) -> Box<dyn FaultHook + '_> {
        (self.0)(tel)
    }
}

/// A mutable reference forwards to the hook it points at, so adapters like
/// [`InstrumentedHook`] can wrap `&mut dyn FaultHook` without taking
/// ownership (the replay engine relies on this to instrument a caller's
/// recorded-schedule hook).
impl<H: FaultHook + ?Sized> FaultHook for &mut H {
    fn inject(&mut self, step: u64, kind: FaultKind) -> Option<f64> {
        (**self).inject(step, kind)
    }

    fn faults_injected(&self) -> u64 {
        (**self).faults_injected()
    }

    fn fork(&self) -> HookFork {
        (**self).fork()
    }

    fn join(&mut self, injected: u64) {
        (**self).join(injected)
    }
}

/// A box forwards too: a bound [`HookFork`] is a boxed hook, and an
/// [`InstrumentedHook`] fork wraps one.
impl<H: FaultHook + ?Sized> FaultHook for Box<H> {
    fn inject(&mut self, step: u64, kind: FaultKind) -> Option<f64> {
        (**self).inject(step, kind)
    }

    fn faults_injected(&self) -> u64 {
        (**self).faults_injected()
    }

    fn fork(&self) -> HookFork {
        (**self).fork()
    }

    fn join(&mut self, injected: u64) {
        (**self).join(injected)
    }
}

/// The do-nothing hook: callers that want a fault-free run pass
/// `&mut NoFaults`, making the fault machinery free when unused.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultHook for NoFaults {
    fn inject(&mut self, _step: u64, _kind: FaultKind) -> Option<f64> {
        None
    }

    fn fork(&self) -> HookFork {
        HookFork::new(|_| Box::new(NoFaults))
    }

    fn join(&mut self, _injected: u64) {}
}

/// Hook driven by a [`FaultPlan`], counting injections for the run report.
#[derive(Debug, Clone)]
pub struct PlanHook {
    plan: FaultPlan,
    injected: u64,
}

impl PlanHook {
    /// Hook drawing from `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        PlanHook { plan, injected: 0 }
    }

    /// The plan this hook draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl FaultHook for PlanHook {
    fn inject(&mut self, step: u64, kind: FaultKind) -> Option<f64> {
        let hit = self.plan.draw(step, kind);
        if hit.is_some() {
            self.injected += 1;
        }
        hit
    }

    fn faults_injected(&self) -> u64 {
        self.injected
    }

    fn fork(&self) -> HookFork {
        let plan = self.plan;
        HookFork::new(move |_| Box::new(PlanHook::new(plan)))
    }

    fn join(&mut self, injected: u64) {
        self.injected += injected;
    }
}

/// Hook adapter that journals every injection through a [`Telemetry`]
/// instance: bumps `faults.injected` plus a per-kind counter and appends a
/// `fault` event with step and severity. Wraps any inner hook, so the
/// supervised runner can instrument a [`PlanHook`] without changing the
/// simulators' fault semantics — telemetry observes, it never draws.
#[derive(Debug)]
pub struct InstrumentedHook<'a, H: FaultHook> {
    inner: H,
    tel: &'a Telemetry,
}

impl<'a, H: FaultHook> InstrumentedHook<'a, H> {
    /// Wrap `inner`, recording injections into `tel`.
    pub fn new(inner: H, tel: &'a Telemetry) -> Self {
        InstrumentedHook { inner, tel }
    }

    /// The wrapped hook.
    pub fn inner(&self) -> &H {
        &self.inner
    }
}

impl<H: FaultHook> FaultHook for InstrumentedHook<'_, H> {
    fn inject(&mut self, step: u64, kind: FaultKind) -> Option<f64> {
        let hit = self.inner.inject(step, kind);
        if let Some(severity) = hit {
            self.tel.counter("faults.injected", 1);
            self.tel.counter(&format!("faults.{}", kind.label()), 1);
            self.tel.event(
                Event::new("fault", kind.label())
                    .with_step(step)
                    .with_severity(severity),
            );
        }
        hit
    }

    fn faults_injected(&self) -> u64 {
        self.inner.faults_injected()
    }

    fn fork(&self) -> HookFork {
        let inner = self.inner.fork();
        HookFork::new(move |tel| Box::new(InstrumentedHook::new(inner.bind(tel), tel)))
    }

    fn join(&mut self, injected: u64) {
        self.inner.join(injected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_is_pure_and_order_independent() {
        let plan = FaultPlan::new(FaultProfile::Chaos, 7);
        let forward: Vec<_> = (0..200)
            .flat_map(|s| FaultKind::ALL.map(|k| plan.draw(s, k)))
            .collect();
        let backward: Vec<_> = (0..200)
            .rev()
            .flat_map(|s| FaultKind::ALL.map(|k| plan.draw(s, k)))
            .collect();
        let backward_reversed: Vec<_> = {
            let mut chunks: Vec<Vec<_>> = backward.chunks(5).map(|c| c.to_vec()).collect();
            chunks.reverse();
            chunks.into_iter().flatten().collect()
        };
        assert_eq!(forward, backward_reversed);
    }

    #[test]
    fn none_profile_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for step in 0..500 {
            for kind in FaultKind::ALL {
                assert_eq!(plan.draw(step, kind), None);
            }
        }
    }

    #[test]
    fn chaos_fires_near_nominal_rate() {
        let plan = FaultPlan::new(FaultProfile::Chaos, 99);
        let hits = (0..10_000)
            .filter(|&s| plan.draw(s, FaultKind::VolunteerDropout).is_some())
            .count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.20).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn severity_is_bounded_and_nonzero() {
        let plan = FaultPlan::new(FaultProfile::Chaos, 3).with_intensity(5.0);
        for step in 0..1000 {
            if let Some(sev) = plan.draw(step, FaultKind::LinkOutage) {
                assert!(sev > 0.0 && sev <= 1.0, "severity {sev}");
            }
        }
    }

    #[test]
    fn seeds_decorrelate_plans() {
        let a = FaultPlan::new(FaultProfile::Chaos, 1);
        let b = FaultPlan::new(FaultProfile::Chaos, 2);
        let pattern = |p: &FaultPlan| {
            (0..500)
                .map(|s| p.draw(s, FaultKind::IxpOutage).is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(pattern(&a), pattern(&b));
    }

    #[test]
    fn plan_hook_counts_injections() {
        let mut hook = PlanHook::new(FaultPlan::new(FaultProfile::Chaos, 11));
        let mut expected = 0;
        for step in 0..300 {
            for kind in FaultKind::ALL {
                if hook.inject(step, kind).is_some() {
                    expected += 1;
                }
            }
        }
        assert!(expected > 0);
        assert_eq!(hook.faults_injected(), expected);
    }

    #[test]
    fn instrumented_hook_journals_without_changing_decisions() {
        let plan = FaultPlan::new(FaultProfile::Chaos, 11);
        let tel = Telemetry::new();
        let mut plain = PlanHook::new(plan);
        let mut wrapped = InstrumentedHook::new(PlanHook::new(plan), &tel);
        for step in 0..100 {
            for kind in FaultKind::ALL {
                assert_eq!(plain.inject(step, kind), wrapped.inject(step, kind));
            }
        }
        assert_eq!(plain.faults_injected(), wrapped.faults_injected());
        let snap = tel.snapshot();
        assert_eq!(
            snap.metrics.counters["faults.injected"],
            plain.faults_injected()
        );
        assert_eq!(
            snap.events.iter().filter(|e| e.kind == "fault").count() as u64,
            plain.faults_injected()
        );
        let first = snap.events.iter().find(|e| e.kind == "fault").unwrap();
        assert!(first.step.is_some() && first.severity.is_some());
    }

    #[test]
    fn profile_parse_round_trips() {
        for p in FaultProfile::ALL {
            assert_eq!(FaultProfile::parse(p.label()), Some(p));
        }
        assert_eq!(FaultProfile::parse("bogus"), None);
    }

    #[test]
    fn kind_parse_round_trips() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::parse(k.label()), Some(k));
        }
        assert_eq!(FaultKind::parse("meteor-strike"), None);
    }
}
