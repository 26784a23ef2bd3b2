//! `ensemble-waves`: one `Ensemble` engine (aquaplanet, ne4, nlev 20,
//! qsize 3, 4 lanes) driven by one closed-loop client. The client submits
//! a seeded wave of 1–6 members with seeded lengths of 2–8 coupled steps,
//! steps the engine until every member of the wave is collected, then
//! sends the next wave.

use crate::gen::{MemberReq, Rng, WaveGen, CYCLE_WAVES};
use crate::report::Outcome;
use crate::state::{self, bits_equal, slices_equal};
use crate::stats::{class_median_total, mean, median, MIN_P75_SAMPLES};
use crate::trace::{self_times, Tracer};
use crate::{Layers, Opts};
use cubesphere::NPTS;
use homme::{EnsembleWorkspace, State};
use std::time::Instant;
use swcam_core::config::{ScenarioRegistry, ScenarioSpec};
use swcam_core::coupling::apply_physics_checked;
use swcam_core::swphysics::PhysicsDiag;
use swcam_core::{build_dycore, build_suite, Ensemble, EnsembleConfig, MemberStatus};

/// Member lanes of the engine.
pub const LANES: usize = 4;
/// Members checked bitwise against standalone runs.
pub const SAMPLED_MEMBERS: usize = 2;

fn spec() -> ScenarioSpec {
    let reg = ScenarioRegistry::builtin();
    reg.get("aquaplanet")
        .expect("aquaplanet is a builtin scenario")
        .clone()
}

fn engine_config() -> EnsembleConfig {
    EnsembleConfig {
        lanes: LANES,
        ..EnsembleConfig::default()
    }
}

/// What one pass of waves measured.
#[derive(Default)]
struct Waves {
    waves: usize,
    step_ms: Vec<f64>,
    /// Members running in each engine step (1..=LANES).
    running: Vec<usize>,
    /// Per wave: wall seconds outside `Ensemble::step` (submit, collect).
    between_steps_s: Vec<f64>,
    latency_s: Vec<f64>,
    /// Simulated seconds summed over finished members.
    sim_s: f64,
    finished: u64,
    failed: u64,
    rollbacks: u64,
    /// Kept members: (submission index, request, final state, precip).
    kept: Vec<(usize, MemberReq, State, Vec<f64>)>,
    wall_s: f64,
    admissions: u64,
}

/// Run whole cycles of waves until `seconds` have passed and at least
/// `MIN_P75_SAMPLES` engine steps were taken, or exactly `max_waves`
/// waves when given. Members whose submission index is in `keep` have
/// their final state kept.
fn drive(
    e: &mut Ensemble,
    seed: u64,
    seconds: f64,
    max_waves: Option<usize>,
    keep: &[usize],
    mut tr: Option<&mut Tracer>,
) -> Waves {
    let mut gen = WaveGen::new(seed);
    let mut w = Waves::default();
    let mut submitted = 0usize;
    let mut sub_at: Vec<(u64, usize, MemberReq, Instant)> = Vec::new();
    let t0 = Instant::now();
    loop {
        let more = match max_waves {
            Some(n) => w.waves < n,
            None => {
                w.waves % CYCLE_WAVES != 0
                    || t0.elapsed().as_secs_f64() < seconds
                    || w.step_ms.len() < MIN_P75_SAMPLES
            }
        };
        if !more {
            break;
        }
        let wave = gen.next_wave();
        let wave_id = w.waves as u64;
        let (wave_t0, wave_steps) = (Instant::now(), w.step_ms.len());
        let ws = tr
            .as_deref_mut()
            .map(|t| t.open("core.ensemble.wave", wave_id));
        sub_at.clear();
        let sub = tr
            .as_deref_mut()
            .map(|t| t.open("core.ensemble.submit", wave_id));
        for req in &wave {
            let id = e.submit(req.seed, req.steps);
            sub_at.push((id, submitted, *req, Instant::now()));
            submitted += 1;
        }
        if let (Some(t), Some(s)) = (tr.as_deref_mut(), sub) {
            t.close(s);
        }
        let mut outstanding = wave.len();
        while outstanding > 0 {
            let running = (e.active() + e.pending()).min(LANES);
            w.admissions += running.saturating_sub(e.active()) as u64;
            w.running.push(running);
            let step_id = w.step_ms.len() as u64;
            let t = Instant::now();
            match tr.as_deref_mut() {
                Some(tr) => tr.span("core.ensemble.step", step_id, || e.step()),
                None => e.step(),
            }
            .expect("batch-wide ensemble failure");
            w.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let reports = match tr.as_deref_mut() {
                Some(tr) => tr.span("core.ensemble.collect", step_id, || e.collect()),
                None => e.collect(),
            };
            for r in reports {
                let &(_, index, req, at) = sub_at
                    .iter()
                    .find(|s| s.0 == r.id)
                    .expect("collected member was submitted");
                w.latency_s.push(at.elapsed().as_secs_f64());
                outstanding -= 1;
                w.rollbacks += r.rollbacks as u64;
                if r.status == MemberStatus::Finished && r.steps == req.steps {
                    w.finished += 1;
                    w.sim_s += r.time;
                } else {
                    w.failed += 1;
                }
                if keep.contains(&index) {
                    w.kept.push((index, req, r.state, r.precip_accum));
                }
            }
        }
        if let (Some(t), Some(s)) = (tr.as_deref_mut(), ws) {
            t.close(s);
        }
        let steps_ms: f64 = w.step_ms[wave_steps..].iter().sum();
        w.between_steps_s
            .push(wave_t0.elapsed().as_secs_f64() - steps_ms / 1e3);
        w.waves += 1;
    }
    w.wall_s = t0.elapsed().as_secs_f64();
    w
}

/// One timed engine construction.
fn construct(spec: &ScenarioSpec) -> (Ensemble, f64) {
    let t = Instant::now();
    let e = Ensemble::new(spec.clone(), engine_config());
    (e, t.elapsed().as_secs_f64())
}

/// Build the engine `crate::SETUP_REPS` times; returns the last one and the
/// per-construction seconds.
fn setup(spec: &ScenarioSpec) -> (Ensemble, Vec<f64>) {
    let mut times = Vec::with_capacity(crate::SETUP_REPS);
    let mut last = None;
    for _ in 0..crate::SETUP_REPS {
        drop(last.take());
        let (e, secs) = construct(spec);
        times.push(secs);
        last = Some(e);
    }
    (last.expect("SETUP_REPS > 0"), times)
}

/// Run the workload.
pub fn run(opts: &Opts) -> Outcome {
    let spec = spec();
    let (mut e, setup_times) = setup(&spec);
    let mut o = Outcome::default();
    let lane_state = e.dycore().zero_state();
    o.working_set_bytes = 2 * LANES as u64 * state::bytes(&lane_state);
    // Warm-up: one full group, one step (lazy pool start, page faults).
    for m in 0..LANES as u64 {
        e.submit(u64::MAX - m, 1);
    }
    e.run_all().expect("warm-up");
    if opts.trace {
        o.metric("setup_s", "s", median(&setup_times), setup_times.len());
        traced(opts, &spec, &mut e, &mut o);
        return o;
    }
    // Seeded sample of members checked against standalone runs.
    let mut rng = Rng::new(opts.seed, 3);
    let keep = [rng.below(6), 6 + rng.below(10)];
    let w = drive(&mut e, opts.seed, opts.seconds, None, &keep, None);
    o.metric("setup_s", "s", median(&setup_times), setup_times.len());
    let members = w.latency_s.len();
    o.attempted = members as u64;
    o.failed = w.failed;
    // Rates over the run's wall time with every engine step replaced by
    // the median step of its lane occupancy, so that interference bursts
    // shorter than half the run do not move them.
    let steps = w.step_ms.len();
    let wall_s = class_median_total(&w.step_ms, &w.running) / 1e3
        + median(&w.between_steps_s) * w.waves as f64;
    o.metric(
        "sypd",
        "yr/day",
        w.sim_s / (365.0 * 86_400.0) / wall_s * 86_400.0,
        steps,
    );
    o.metric("step_ms_p50", "ms", median(&w.step_ms), w.step_ms.len());
    o.step_tail(&w.step_ms);
    o.metric("members_per_s", "1/s", members as f64 / wall_s, steps);
    o.metric("member_latency_s_p50", "s", median(&w.latency_s), members);
    o.notes.push(format!(
        "{} cycles of {CYCLE_WAVES} waves, {members} members, {steps} engine steps, {:.2} s wall \
         ({wall_s:.2} s at median step times)",
        w.waves / CYCLE_WAVES,
        w.wall_s
    ));
    o.check(
        "every member finished",
        w.failed == 0,
        format!("{} of {members}", w.finished),
    );
    standalone_checks(&spec, &w, &mut o);
    o
}

/// Sampled members equal standalone `ScenarioSpec::build_model` runs bit
/// for bit (computed after the timed loop).
fn standalone_checks(spec: &ScenarioSpec, w: &Waves, o: &mut Outcome) {
    o.check(
        "sampled members present",
        w.kept.len() == SAMPLED_MEMBERS,
        format!("{} of {SAMPLED_MEMBERS}", w.kept.len()),
    );
    for (index, req, state, precip) in &w.kept {
        let mut model = spec.build_model(req.seed);
        model.run_steps(req.steps);
        o.check(
            format!("member #{index} bitwise equal to a standalone run"),
            bits_equal(state, &model.state) && slices_equal(precip, &model.precip_accum),
            format!("seed {:#x}, {} steps", req.seed, req.steps),
        );
    }
}

/// Steps of the phase re-drive (one full group of `LANES` members).
const REDRIVE_STEPS: usize = 3;

fn traced(opts: &Opts, spec: &ScenarioSpec, e: &mut Ensemble, o: &mut Outcome) {
    // Untraced reference pass, then the same waves traced.
    let plain = drive(e, opts.seed, 0.35 * opts.seconds, None, &[], None);
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, 0);
    let w = drive(e, opts.seed, 0.0, Some(plain.waves), &[], Some(&mut tr));
    o.check(
        "every member finished",
        w.failed == 0 && plain.failed == 0,
        format!("{} + {} members", plain.finished, w.finished),
    );

    // Phase re-drive of `Ensemble::step` for one full group through the
    // public member-batched homme entry points, checked bitwise against
    // the engine running the same members.
    let mut rng = Rng::new(opts.seed, 4);
    let reqs: Vec<MemberReq> = (0..LANES)
        .map(|_| MemberReq {
            seed: rng.next_u64(),
            steps: REDRIVE_STEPS,
        })
        .collect();
    let mut dy = build_dycore(&spec.config);
    dy.member_kernels = engine_config().member_kernel_path;
    let suite = build_suite(&spec.config);
    let nelem = dy.grid.elements.len();
    let mut states: Vec<State> = reqs
        .iter()
        .map(|r| {
            let mut s = dy.zero_state();
            spec.apply(&dy, &mut s, r.seed);
            s
        })
        .collect();
    let mut ens_ws = EnsembleWorkspace::new(dy.dims, nelem, LANES);
    let mut diags = vec![PhysicsDiag::default(); nelem * NPTS];
    let mut precip = vec![vec![0.0; nelem * NPTS]; LANES];
    let idx: Vec<usize> = (0..LANES).collect();
    let cfg = &spec.config;
    let phys_dt = dy.cfg.dt * cfg.nsplit as f64 * cfg.planet.reduction();
    let mut since_remap = 0;
    for step in 0..REDRIVE_STEPS {
        let id = step as u64;
        let s = tr.open("ensemble.redrive.step", id);
        tr.span("homme.prim.rk", id, || {
            dy.dynamics_step_members(&mut states, &idx, &mut ens_ws)
        });
        let sub = dy.hypervis_subcycles();
        tr.span("homme.prim.hypervis", id, || {
            dy.apply_hypervis_members(&mut states, &idx, &mut ens_ws, sub)
        })
        .expect("hyperviscosity plan");
        since_remap += 1;
        let remap = since_remap >= dy.cfg.rsplit;
        if remap {
            since_remap = 0;
        }
        for m in 0..LANES {
            let st = &mut states[m];
            tr.span("homme.prim.tracer", id, || dy.euler_step_tracers(st));
            if remap {
                tr.span("homme.prim.remap", id, || dy.vertical_remap(st))
                    .expect("vertical remap");
            }
            if (step + 1).is_multiple_of(cfg.nsplit) {
                tr.span("core.coupling.physics", id, || {
                    apply_physics_checked(&dy, st, &suite, phys_dt, cfg.sst, &mut diags)
                })
                .expect("physics column");
                for (acc, d) in precip[m].iter_mut().zip(&diags) {
                    *acc += d.precip;
                }
            }
        }
        tr.close(s);
    }
    for r in &reqs {
        e.submit(r.seed, r.steps);
    }
    let reports = e.run_all().expect("engine run of the re-driven members");
    let same = reports.len() == LANES
        && reports
            .iter()
            .zip(&states)
            .zip(&precip)
            .all(|((r, s), p)| bits_equal(&r.state, s) && slices_equal(&r.precip_accum, p));
    o.check(
        "re-driven member phases bitwise equal to the engine",
        same,
        format!("{LANES} members x {REDRIVE_STEPS} steps"),
    );

    let spans = tr.into_spans();
    let st = self_times(&spans);
    let per = |name: &str| st.get(name).copied().unwrap_or(0) as f64 / 1e6 / REDRIVE_STEPS as f64;
    let steps = w.step_ms.len();
    let subcycles = dy.hypervis_subcycles();
    let mut l = Layers::default();
    l.set("homme.prim.rk_ms", per("homme.prim.rk"), REDRIVE_STEPS);
    l.set(
        "homme.prim.hypervis_ms",
        per("homme.prim.hypervis"),
        REDRIVE_STEPS,
    );
    l.set(
        "homme.prim.tracer_ms",
        per("homme.prim.tracer"),
        REDRIVE_STEPS,
    );
    l.set(
        "homme.prim.remap_ms",
        per("homme.prim.remap"),
        REDRIVE_STEPS,
    );
    l.set("homme.prim.hypervis_subcycles", subcycles as f64, 1);
    l.set(
        "homme.prim.hypervis_ms_per_subcycle",
        per("homme.prim.hypervis") / subcycles as f64,
        REDRIVE_STEPS,
    );
    l.set(
        "core.coupling.physics_ms",
        per("core.coupling.physics"),
        REDRIVE_STEPS,
    );
    l.set("core.ensemble.step_ms", mean(&w.step_ms), steps);
    let occupancy: Vec<f64> = w.running.iter().map(|&r| r as f64 / LANES as f64).collect();
    l.set("core.ensemble.lane_occupancy", mean(&occupancy), steps);
    let full = w.running.iter().filter(|&&r| r == LANES).count();
    l.set(
        "core.ensemble.full_group_frac",
        full as f64 / steps.max(1) as f64,
        steps,
    );
    l.set("core.ensemble.admissions", w.admissions as f64, 1);
    l.set("core.ensemble.rollbacks", w.rollbacks as f64, 1);
    let overhead = median(&w.step_ms) / median(&plain.step_ms) - 1.0;
    l.set("trace.overhead_frac", overhead, steps);
    o.attempted = (plain.latency_s.len() + w.latency_s.len() + LANES) as u64;
    o.failed = plain.failed + w.failed;
    o.notes.push(format!(
        "{} waves median untraced {:.1} ms/step vs traced {:.1} ms/step (overhead {:+.2}%)",
        w.waves,
        median(&plain.step_ms),
        median(&w.step_ms),
        100.0 * overhead
    ));
    crate::finish_trace(opts, o, l, &[spans]);
}
