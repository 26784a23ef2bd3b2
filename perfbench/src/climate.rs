//! `climate-ne8`: one coupled `Swcam` of the `nggps` scenario (ne8, nlev
//! 26, qsize 4, simple moist physics, dt 1125 s) on two pool threads, run
//! as a chain of restart segments. Each segment restores the restart file
//! the previous one wrote, takes [`SEGMENT_STEPS`] coupled steps and
//! writes the next restart file; the first restart file comes from the
//! seeded generator.

use crate::gen::Rng;
use crate::report::Outcome;
use crate::state::{self, all_finite, bits_equal};
use crate::stats::{median, window_rate, MIN_P75_SAMPLES};
use crate::trace::{self_times, totals, Tracer};
use crate::{Layers, Opts, THREADS};
use cubesphere::NPTS;
use homme::{State, StepPath};
use std::path::{Path, PathBuf};
use std::time::Instant;
use swcam_core::config::ScenarioRegistry;
use swcam_core::coupling::apply_physics_checked;
use swcam_core::swphysics::PhysicsDiag;
use swcam_core::{ModelConfig, Swcam};

/// Coupled steps per restart segment.
pub const SEGMENT_STEPS: usize = 4;
/// Passive tracer index the generator seeds (physics touches only
/// `q < 3`), so its global mass is a conservation oracle for the dycore.
const PASSIVE_Q: usize = 3;
/// Largest relative drift of dry-air mass (`sum dp3d`) over a run.
pub const DRY_MASS_TOL: f64 = 1e-10;
/// Largest relative drift of the passive tracer's mass over a run.
pub const TRACER_MASS_TOL: f64 = 1e-10;

fn config() -> ModelConfig {
    let reg = ScenarioRegistry::builtin();
    reg.get("nggps")
        .expect("nggps is a builtin scenario")
        .config
        .clone()
}

/// Write the seeded restart file: the `nggps` initial state with member
/// seed `seed`, plus a seeded smooth passive tracer. Returns the state.
pub fn generate(seed: u64, path: &Path) -> State {
    let reg = ScenarioRegistry::builtin();
    let spec = reg.get("nggps").expect("nggps is a builtin scenario");
    let mut model = spec.build_model(seed);
    let mut rng = Rng::new(seed, 2);
    let phase = rng.unit() * std::f64::consts::TAU;
    let wave = (1 + rng.below(4)) as f64;
    let nlev = model.config.nlev;
    let Swcam { dycore, state, .. } = &mut model;
    for (e, el) in dycore.grid.elements.iter().enumerate() {
        let es = state.elem_mut(e);
        for p in 0..NPTS {
            let (lat, lon) = (el.metric[p].lat, el.metric[p].lon);
            let mix = 1e-3 * (1.0 + 0.5 * lat.cos() * (wave * lon + phase).cos());
            for k in 0..nlev {
                es.qdp[(PASSIVE_Q * nlev + k) * NPTS + p] = mix * es.dp3d[k * NPTS + p];
            }
        }
    }
    model
        .write_checkpoint(path)
        .expect("write the generated restart file");
    model.state
}

/// One timed construction: the model plus the restore of `restart`.
fn construct(restart: &Path) -> (Swcam, f64) {
    let cfg = config();
    let t = Instant::now();
    let mut m = Swcam::new(cfg);
    m.restore_checkpoint(restart)
        .expect("restore the generated restart file");
    (m, t.elapsed().as_secs_f64())
}

/// Build and restore `crate::SETUP_REPS` times; returns the last model and the
/// per-construction seconds.
fn setup(restart: &Path) -> (Swcam, Vec<f64>) {
    let mut times = Vec::with_capacity(crate::SETUP_REPS);
    let mut last = None;
    for _ in 0..crate::SETUP_REPS {
        drop(last.take());
        let (m, secs) = construct(restart);
        times.push(secs);
        last = Some(m);
    }
    (last.expect("SETUP_REPS > 0"), times)
}

/// The phase sequence of `Swcam::step` re-driven through the public
/// `homme` and `swcam_core::coupling` entry points, each inside a span.
/// Valid for the configuration `Swcam::step` runs here: health guards off
/// and the bulk step path (asserted).
struct Redrive {
    diags: Vec<PhysicsDiag>,
    steps: usize,
}

impl Redrive {
    fn new(m: &Swcam) -> Self {
        assert!(
            !m.dycore.health.enabled,
            "re-drive mirrors the unguarded step"
        );
        assert_eq!(
            m.dycore.step_path,
            StepPath::Bulk,
            "re-drive mirrors the bulk step path"
        );
        Redrive {
            diags: vec![PhysicsDiag::default(); m.state.nelem() * NPTS],
            steps: m.steps_taken(),
        }
    }

    fn step(&mut self, tr: &mut Tracer, m: &mut Swcam, id: u64) {
        let Swcam {
            config,
            dycore,
            suite,
            state,
            time,
            precip_accum,
            ..
        } = m;
        tr.span("homme.prim.rk", id, || dycore.dynamics_step(state));
        tr.span("homme.prim.hypervis", id, || dycore.apply_hypervis(state))
            .expect("hyperviscosity plan");
        tr.span("homme.prim.tracer", id, || dycore.euler_step_tracers(state));
        let phase = dycore.remap_phase() + 1;
        if phase >= dycore.cfg.rsplit {
            tr.span("homme.prim.remap", id, || dycore.vertical_remap(state))
                .expect("vertical remap");
            dycore.set_remap_phase(0);
        } else {
            dycore.set_remap_phase(phase);
        }
        self.steps += 1;
        *time += dycore.cfg.dt;
        if self.steps.is_multiple_of(config.nsplit) {
            let phys_dt = dycore.cfg.dt * config.nsplit as f64 * config.planet.reduction();
            let diags = &mut self.diags;
            tr.span("core.coupling.physics", id, || {
                apply_physics_checked(dycore, state, suite, phys_dt, config.sst, diags)
            })
            .expect("physics column");
            for (acc, d) in precip_accum.iter_mut().zip(&self.diags) {
                *acc += d.precip;
            }
        }
    }
}

fn restart_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("restart_{}.swckpt", i % 2))
}

/// Run the workload.
pub fn run(opts: &Opts) -> Outcome {
    let dir = opts.out.join(format!("climate-{}", opts.seed));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let restart0 = dir.join("restart_init.swckpt");
    let init = generate(opts.seed, &restart0);
    let (mut model, setup_times) = setup(&restart0);
    let mut o = Outcome {
        working_set_bytes: state::bytes(&model.state),
        ..Outcome::default()
    };
    if opts.trace {
        traced(opts, &mut model, &restart0, &init, &mut o);
    } else {
        untraced(opts, &mut model, &restart0, &init, &dir, &mut o);
    }
    o.metric("setup_s", "s", median(&setup_times), setup_times.len());
    o
}

fn untraced(
    opts: &Opts,
    model: &mut Swcam,
    restart0: &Path,
    init: &State,
    dir: &Path,
    o: &mut Outcome,
) {
    // Warm-up step (caches, lazy pool start), undone by the first restore.
    model.step();
    let dt = model.dycore.cfg.dt;
    let mut step_ms = Vec::new();
    let mut seg_s = Vec::new();
    let mut cur = restart0.to_path_buf();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < opts.seconds || step_ms.len() < MIN_P75_SAMPLES {
        let ts = Instant::now();
        model
            .restore_checkpoint(&cur)
            .expect("restore the previous segment's restart file");
        for _ in 0..SEGMENT_STEPS {
            let t = Instant::now();
            model.step();
            step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let next = restart_path(dir, seg_s.len());
        model
            .write_checkpoint(&next)
            .expect("write the segment's restart file");
        seg_s.push(ts.elapsed().as_secs_f64());
        cur = next;
    }
    let wall = t0.elapsed().as_secs_f64();
    let segs = seg_s.len();
    o.attempted = step_ms.len() as u64;
    let sim_years = vec![SEGMENT_STEPS as f64 * dt / (365.0 * 86_400.0); segs];
    o.metric(
        "sypd",
        "yr/day",
        window_rate(&sim_years, &seg_s) * 86_400.0,
        segs,
    );
    o.metric("step_ms_p50", "ms", median(&step_ms), step_ms.len());
    o.step_tail(&step_ms);
    o.metric(
        "members_per_s",
        "1/s",
        window_rate(&vec![1.0; segs], &seg_s),
        segs,
    );
    o.metric("member_latency_s_p50", "s", median(&seg_s), seg_s.len());
    o.notes.push(format!(
        "{} restart segments of {SEGMENT_STEPS} coupled steps, dt {dt} s, {wall:.2} s wall",
        seg_s.len()
    ));
    conservation_checks(model, init, o);
    // The last restart file holds the final state bit for bit.
    let mut back = model.dycore.zero_state();
    let meta = swcam_core::checkpoint::read_file(&cur, &mut back);
    o.check(
        "final restart file restores the final state bitwise",
        meta.is_ok() && bits_equal(&back, &model.state),
        format!("{}", cur.display()),
    );
}

fn conservation_checks(model: &Swcam, init: &State, o: &mut Outcome) {
    let dy = &model.dycore;
    o.check(
        "state finite",
        all_finite(&model.state),
        "u, v, T, dp3d, qdp",
    );
    let (m0, m1) = (dy.total_mass(init), dy.total_mass(&model.state));
    let drift = ((m1 - m0) / m0).abs();
    o.check(
        "dry-air mass conserved",
        drift <= DRY_MASS_TOL,
        format!("rel drift {drift:.3e} <= {DRY_MASS_TOL:e}"),
    );
    let (q0, q1) = (
        dy.total_tracer_mass(init, PASSIVE_Q),
        dy.total_tracer_mass(&model.state, PASSIVE_Q),
    );
    let drift = ((q1 - q0) / q0).abs();
    o.check(
        "passive tracer mass conserved",
        drift <= TRACER_MASS_TOL,
        format!("rel drift {drift:.3e} <= {TRACER_MASS_TOL:e}"),
    );
}

/// Phases whose 1- and 2-thread times give `homme.sched.*_speedup_2t`.
const PHASES: [(&str, &str); 4] = [
    ("homme.prim.rk", "homme.sched.rk_speedup_2t"),
    ("homme.prim.hypervis", "homme.sched.hypervis_speedup_2t"),
    ("homme.prim.tracer", "homme.sched.tracer_speedup_2t"),
    ("homme.prim.remap", "homme.sched.remap_speedup_2t"),
];

fn traced(opts: &Opts, model: &mut Swcam, restart0: &Path, init: &State, o: &mut Outcome) {
    let budget = opts.seconds;
    // Untraced reference trajectory.
    model.step();
    model.restore_checkpoint(restart0).expect("restore");
    let mut plain_ms = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < 0.4 * budget || plain_ms.len() < 3 {
        let t = Instant::now();
        model.step();
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let n = plain_ms.len();
    let reference = model.state.clone();

    // Traced re-drive of the same steps.
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, 0);
    tr.span("core.checkpoint.restore", 0, || {
        model.restore_checkpoint(restart0)
    })
    .expect("restore");
    let mut rd = Redrive::new(model);
    let nlev = model.config.nlev;
    let fl = model.state.u.len();
    let mut dss_scratch = [vec![0.0; fl], vec![0.0; fl], vec![0.0; fl], vec![0.0; fl]];
    let mut traced_ms = Vec::with_capacity(n);
    for i in 0..n {
        let s = tr.open("climate.step", i as u64);
        rd.step(&mut tr, model, i as u64);
        tr.close(s);
        traced_ms.push(tr.spans()[s].dur_ns() as f64 / 1e6);
        // DSS probe: one four-field assembly of the current state.
        for (dst, src) in dss_scratch.iter_mut().zip([
            &model.state.u,
            &model.state.v,
            &model.state.t,
            &model.state.dp3d,
        ]) {
            dst.copy_from_slice(src);
        }
        let [a, b, c, d] = &mut dss_scratch;
        let dss = &mut model.dycore.dss;
        tr.span("homme.dss.apply_flat4", i as u64, || {
            dss.apply_flat4([a, b, c, d], nlev)
        });
    }
    o.check(
        "traced trajectory bitwise equal to untraced",
        bits_equal(&model.state, &reference),
        format!("{n} coupled steps"),
    );
    conservation_checks(model, init, o);
    let write_path = opts
        .out
        .join(format!("climate-{}", opts.seed))
        .join("restart_traced.swckpt");
    for r in 0..3 {
        tr.span("core.checkpoint.write", r, || {
            model.write_checkpoint(&write_path)
        })
        .expect("write");
        tr.span("core.checkpoint.restore", r + 1, || {
            model.restore_checkpoint(&write_path)
        })
        .expect("restore");
    }
    let ckpt_bytes = std::fs::metadata(&write_path).map_or(0, |m| m.len());

    // Plain single-threaded baseline of the same phases.
    let two_t = self_times(tr.spans());
    let mut tr1 = Tracer::new(Instant::now(), 0);
    model.dycore.set_threads(1);
    model.restore_checkpoint(restart0).expect("restore");
    let mut rd1 = Redrive::new(model);
    let n1 = 2;
    for i in 0..n1 {
        rd1.step(&mut tr1, model, i as u64);
    }
    model.dycore.set_threads(THREADS);
    let one_t = self_times(tr1.spans());

    let spans = tr.into_spans();
    let st = self_times(&spans);
    let tot = totals(&spans);
    let per = |name: &str| st.get(name).copied().unwrap_or(0) as f64 / 1e6 / n as f64;
    let subcycles = model.dycore.hypervis_subcycles();
    let mut l = Layers::default();
    l.set("homme.prim.rk_ms", per("homme.prim.rk"), n);
    l.set("homme.prim.hypervis_ms", per("homme.prim.hypervis"), n);
    l.set("homme.prim.tracer_ms", per("homme.prim.tracer"), n);
    l.set("homme.prim.remap_ms", per("homme.prim.remap"), n);
    l.set("homme.prim.hypervis_subcycles", subcycles as f64, 1);
    l.set(
        "homme.prim.hypervis_ms_per_subcycle",
        per("homme.prim.hypervis") / subcycles as f64,
        n,
    );
    l.set("homme.dss.apply_flat4_ms", per("homme.dss.apply_flat4"), n);
    l.set("core.coupling.physics_ms", per("core.coupling.physics"), n);
    for (phase, metric) in PHASES {
        let t2 = two_t.get(phase).copied().unwrap_or(0) as f64 / n as f64;
        let t1 = one_t.get(phase).copied().unwrap_or(0) as f64 / n1 as f64;
        l.set(metric, if t2 > 0.0 { t1 / t2 } else { 0.0 }, n1);
    }
    let (restore_ns, restores) = tot
        .get("core.checkpoint.restore")
        .copied()
        .unwrap_or((0, 1));
    let (write_ns, writes) = tot.get("core.checkpoint.write").copied().unwrap_or((0, 1));
    l.set(
        "core.checkpoint.restore_ms",
        restore_ns as f64 / 1e6 / restores as f64,
        restores,
    );
    l.set(
        "core.checkpoint.write_ms",
        write_ns as f64 / 1e6 / writes as f64,
        writes,
    );
    l.set("core.checkpoint.bytes", ckpt_bytes as f64, 1);
    let overhead = median(&traced_ms) / median(&plain_ms) - 1.0;
    l.set("trace.overhead_frac", overhead, n);
    o.attempted = 2 * n as u64 + n1 as u64;
    o.notes.push(format!(
        "median untraced {:.1} ms/step vs traced {:.1} ms/step over {n} steps (overhead {:+.2}%)",
        median(&plain_ms),
        median(&traced_ms),
        100.0 * overhead
    ));
    crate::finish_trace(opts, o, l, &[spans]);
}
