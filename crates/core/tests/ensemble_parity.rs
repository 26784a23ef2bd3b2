//! The ensemble engine's bitwise contract: member m of an N-member batch
//! is bit-for-bit equal to a standalone run of the same scenario and seed —
//! for batch widths 1, 2 (member-serial) and 4 (one lane sweep), across
//! registry scenarios, with members admitted and retired mid-run, and
//! after a member-only rollback.

use swcam_core::homme::HealthError;
use swcam_core::swphysics::PhysicsSuite;
use swcam_core::{
    Ensemble, EnsembleConfig, MemberStatus, ScenarioRegistry, ScenarioSpec, Swcam,
};

/// Shrink a registry scenario to test scale: coarse mesh, short column.
/// The initial conditions are resolution-independent, so the spec stays
/// the same scenario — just cheap enough for a bitwise pin in CI.
fn shrunk(name: &str) -> ScenarioSpec {
    let mut spec = ScenarioRegistry::builtin().get(name).expect("builtin scenario").clone();
    spec.config.ne = 2;
    spec.config.nlev = 6;
    spec.config.dt = 300.0;
    spec
}

/// Standalone oracle: the exact member trajectory a serial run produces.
fn standalone(spec: &ScenarioSpec, seed: u64, steps: usize) -> Swcam {
    let mut model = spec.build_model(seed);
    model.run_steps(steps);
    model
}

/// One batch of `n` members against `n` standalone runs, bit for bit.
fn pin_batch(spec: &ScenarioSpec, n: usize, steps: usize) {
    let mut ens = Ensemble::new(spec.clone(), EnsembleConfig { lanes: n, ..EnsembleConfig::default() });
    let seeds: Vec<u64> = (0..n as u64).map(|m| 1000 + 17 * m).collect();
    for &seed in &seeds {
        ens.submit(seed, steps);
    }
    let reports = ens.run_all().expect("batch must run");
    assert_eq!(reports.len(), n);
    for (r, &seed) in reports.iter().zip(&seeds) {
        assert_eq!(r.status, MemberStatus::Finished);
        assert_eq!(r.seed, seed);
        assert_eq!(r.steps, steps);
        let oracle = standalone(spec, seed, steps);
        assert_eq!(
            r.state.max_abs_diff(&oracle.state),
            0.0,
            "{}: member seed {seed} diverged from standalone at N = {n}",
            spec.name
        );
        assert_eq!(r.time, oracle.time, "{}: simulated time drifted", spec.name);
        for (a, b) in r.precip_accum.iter().zip(&oracle.precip_accum) {
            assert_eq!(a.to_bits(), b.to_bits(), "{}: precip drifted", spec.name);
        }
    }
}

#[test]
fn ensemble_members_match_standalone_bitwise_dry() {
    // Adiabatic dycore-only scenario: every batch width the chunk
    // dispatcher uses (1 = remainder lane, 2, 4).
    let spec = shrunk("resting");
    for n in [1usize, 2, 4] {
        pin_batch(&spec, n, 3);
    }
}

#[test]
fn ensemble_members_match_standalone_bitwise_moist() {
    // Moist aquaplanet: tracers + simple physics exercise the full coupled
    // tail (tracer advection, remap, checked physics) per member.
    let spec = shrunk("aquaplanet");
    for n in [1usize, 2, 4] {
        pin_batch(&spec, n, 2);
    }
}

#[test]
fn ensemble_members_match_standalone_bitwise_held_suarez() {
    pin_batch(&shrunk("held-suarez"), 3, 2);
}

#[test]
fn admit_and_retire_mid_run_is_deterministic() {
    // 5 members through 2 lanes with different step targets: members
    // retire at different times and queued members are admitted into the
    // freed lanes mid-run. Every member must still match its standalone
    // trajectory bitwise — admission order must not leak into the math.
    let spec = shrunk("resting");
    let jobs: [(u64, usize); 5] = [(11, 2), (22, 4), (33, 3), (44, 2), (55, 3)];
    let mut ens = Ensemble::new(spec.clone(), EnsembleConfig { lanes: 2, ..EnsembleConfig::default() });
    for &(seed, steps) in &jobs {
        ens.submit(seed, steps);
    }
    let reports = ens.run_all().expect("staggered batch must run");
    assert_eq!(reports.len(), jobs.len());
    for (r, &(seed, steps)) in reports.iter().zip(&jobs) {
        assert_eq!(r.status, MemberStatus::Finished);
        assert_eq!((r.seed, r.steps), (seed, steps));
        let oracle = standalone(&spec, seed, steps);
        assert_eq!(
            r.state.max_abs_diff(&oracle.state),
            0.0,
            "mid-run admitted member seed {seed} diverged from standalone"
        );
    }
}

#[test]
fn poisoned_member_rolls_back_alone_and_recovers_bitwise() {
    // Inject a NaN into member 1's vapour tracer after its step-2 snapshot.
    // Dynamics, hyperviscosity and the remap plan never read tracer values,
    // so the poison rides silently to the physics call (the seed behavior
    // this PR fixes at the coupling layer); the checked physics call must
    // reject the column, roll member 1 back to its snapshot, and leave
    // member 0 untouched — after which both members must finish
    // bit-identical to clean standalone runs.
    let spec = shrunk("aquaplanet");
    let steps = 3usize;
    let mut ens = Ensemble::new(spec.clone(), EnsembleConfig { lanes: 2, ..EnsembleConfig::default() });
    let id0 = ens.submit(5, steps);
    let id1 = ens.submit(6, steps);
    let mut poisoned = false;
    let mut calls = 0usize;
    while !ens.is_idle() {
        calls += 1;
        assert!(calls < 20, "ensemble failed to converge after rollback");
        let inject = calls == 2 && !poisoned;
        ens.step_with(&mut |id, state| {
            if inject && id == id1 {
                state.qdp[0] = f64::NAN;
                poisoned = true;
            }
        })
        .expect("step");
    }
    assert!(poisoned, "hook never fired");
    let reports = ens.collect();
    assert_eq!(reports.len(), 2);
    let r0 = &reports[0];
    let r1 = &reports[1];
    assert_eq!((r0.id, r1.id), (id0, id1));
    assert_eq!(r0.status, MemberStatus::Finished);
    assert_eq!(r1.status, MemberStatus::Finished);
    assert_eq!(r0.rollbacks, 0, "healthy member must never roll back");
    assert_eq!(r1.rollbacks, 1, "poisoned member must roll back exactly once");
    assert!(
        matches!(r1.last_error, Some(HealthError::Physics { .. })),
        "rollback must be driven by the typed physics verdict, got {:?}",
        r1.last_error
    );
    // The poisoned step cost one extra engine step, not correctness.
    for (r, seed) in [(r0, 5u64), (r1, 6u64)] {
        let oracle = standalone(&spec, seed, steps);
        assert_eq!(
            r.state.max_abs_diff(&oracle.state),
            0.0,
            "seed {seed} must finish bitwise equal to a clean run"
        );
    }
}

#[test]
fn persistently_poisoned_member_fails_without_stopping_the_batch() {
    // A hook that re-poisons member 1 every step defeats rollback-and-retry;
    // after `max_rollbacks` consecutive rollbacks the member must be marked
    // Failed and retired while member 0 finishes normally.
    let spec = shrunk("aquaplanet");
    let mut ens = Ensemble::new(spec.clone(), EnsembleConfig { lanes: 2, max_rollbacks: 1, ..EnsembleConfig::default() });
    ens.submit(5, 3);
    let id1 = ens.submit(6, 3);
    let mut calls = 0usize;
    while !ens.is_idle() {
        calls += 1;
        assert!(calls < 20, "failed member must not wedge the batch");
        ens.step_with(&mut |id, state| {
            if id == id1 {
                state.qdp[0] = f64::NAN;
            }
        })
        .expect("step");
    }
    let reports = ens.collect();
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].status, MemberStatus::Finished);
    assert_eq!(reports[1].status, MemberStatus::Failed);
    assert_eq!(reports[1].rollbacks, 2, "max_rollbacks + 1 attempts then Failed");
    assert_eq!(reports[1].steps, 0, "every poisoned step was rolled back");
    // The healthy member was never perturbed by its neighbor's failures.
    let oracle = standalone(&spec, 5, 3);
    assert_eq!(reports[0].state.max_abs_diff(&oracle.state), 0.0);
}

#[test]
fn suite_none_scenario_reports_zero_precip() {
    // The None-suite fast path must not fabricate diagnostics.
    let spec = shrunk("resting");
    assert!(matches!(swcam_core::build_suite(&spec.config), PhysicsSuite::None));
    let mut ens = Ensemble::new(spec, EnsembleConfig::default());
    ens.submit(1, 2);
    let reports = ens.run_all().expect("run");
    assert!(reports[0].precip_accum.iter().all(|&p| p == 0.0));
}
