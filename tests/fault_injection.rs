//! End-to-end fault injection: the distributed dycore under a seeded
//! fault plan commits the **same bits** as an undisturbed run.
//!
//! Three escalating scenarios:
//!
//! 1. message faults only (drops, duplicates, delayed/reordered sends) —
//!    the communicator's reliable mode absorbs them inside `step`, no
//!    driver involvement;
//! 2. serial checkpoint/restart — a run resumed from a mid-run checkpoint
//!    file finishes bitwise-identical to an uninterrupted run;
//! 3. a rank crash at a step boundary — `run_resilient` detects the
//!    cascade of receive timeouts, rolls every rank back to the last
//!    snapshot in lockstep, and replays to the same final bits.

use std::time::Duration;

use cubesphere::consts::P0;
use cubesphere::{CubedSphere, Partition, NPTS};
use homme::hypervis::HypervisConfig;
use homme::{Dims, DistDycore, Dycore, DycoreConfig, ExchangeMode, HealthConfig, State};
use swcam_core::{run_resilient, run_resilient_with, ResilienceConfig};
use swmpi::{run_ranks_with, CommConfig, FaultPlan, WorldOptions};

const NE: usize = 3;
const NLEV: usize = 4;
const QSIZE: usize = 2;
const NRANKS: usize = 5;
const NSTEPS: usize = 6;

fn config() -> DycoreConfig {
    let nu = HypervisConfig::for_ne(NE).nu;
    DycoreConfig {
        dt: 300.0 * 30.0 / NE as f64,
        hypervis: HypervisConfig { nu, nu_p: nu, subcycles: 3, nu_top: 2.5e5, sponge_layers: 2 },
        limiter: true,
        rsplit: 1,
    }
}

fn dims() -> Dims {
    Dims { nlev: NLEV, qsize: QSIZE }
}

fn initial_state(dy: &Dycore) -> State {
    let d = dy.dims;
    let vert = dy.rhs.vert.clone();
    let elems: Vec<_> = dy.grid.elements.clone();
    let mut st = dy.zero_state();
    for (es, el) in st.elems_mut().zip(&elems) {
        for p in 0..NPTS {
            let lat = el.metric[p].lat;
            let lon = el.metric[p].lon;
            let ps = P0 * (1.0 - 0.001 * (2.0 * lat).sin());
            for k in 0..d.nlev {
                let i = k * NPTS + p;
                es.u[i] = 20.0 * lat.cos();
                es.v[i] = 2.0 * lon.sin();
                es.t[i] = 300.0 + 2.0 * (3.0 * lon).sin() * lat.cos();
                es.dp3d[i] = vert.dp_ref(k, ps);
                for q in 0..d.qsize {
                    es.qdp[(q * d.nlev + k) * NPTS + p] = 0.01 * es.dp3d[i];
                }
            }
        }
    }
    st
}

/// Per-rank (owned element ids, final local state) pairs.
type RankStates = Vec<(Vec<usize>, State)>;

fn assert_bitwise(a: &RankStates, b: &RankStates, what: &str) {
    assert_eq!(a.len(), b.len());
    for (rank, ((owned_a, sa), (owned_b, sb))) in a.iter().zip(b).enumerate() {
        assert_eq!(owned_a, owned_b, "{what}: rank {rank} owns different elements");
        for (name, fa, fb) in [
            ("u", &sa.u, &sb.u),
            ("v", &sa.v, &sb.v),
            ("t", &sa.t, &sb.t),
            ("dp3d", &sa.dp3d, &sb.dp3d),
            ("qdp", &sa.qdp, &sb.qdp),
            ("phis", &sa.phis, &sb.phis),
        ] {
            assert_eq!(fa.len(), fb.len());
            for (i, (x, y)) in fa.iter().zip(fb).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "{what}: rank {rank} {name}[{i}] differs: {x:e} vs {y:e}"
                );
            }
        }
    }
}

/// Run `NSTEPS` plain distributed steps on every rank under `opts`.
fn run_dist_steps(grid: &CubedSphere, part: &Partition, init: &State, opts: WorldOptions) -> RankStates {
    let cfg = config();
    run_ranks_with(NRANKS, opts, |ctx| {
        let mut dist =
            DistDycore::new(grid, part, ctx.rank(), dims(), 2000.0, cfg, ExchangeMode::Redesigned);
        let mut local = dist.local_state(init);
        for step in 0..NSTEPS {
            ctx.set_step(step as u64);
            dist.step(ctx, &mut local).expect("step");
        }
        assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
        (dist.plan.owned.clone(), local)
    })
}

/// Run `NSTEPS` committed steps through the resilient driver under `opts`.
/// Returns the per-rank states plus rank 0's report.
fn run_resilient_steps(
    grid: &CubedSphere,
    part: &Partition,
    init: &State,
    opts: WorldOptions,
) -> (RankStates, swcam_core::ResilientReport) {
    let cfg = config();
    let rcfg = ResilienceConfig { checkpoint_interval: 2, max_rollbacks_per_step: 3 };
    let mut out = run_ranks_with(NRANKS, opts, |ctx| {
        let mut dist =
            DistDycore::new(grid, part, ctx.rank(), dims(), 2000.0, cfg, ExchangeMode::Redesigned);
        dist.health = HealthConfig::on();
        let mut local = dist.local_state(init);
        let report = run_resilient(ctx, &mut dist, &mut local, NSTEPS as u64, &rcfg)
            .expect("resilient run");
        (dist.plan.owned.clone(), local, report)
    });
    let report = out[0].2;
    for (rank, (_, _, r)) in out.iter().enumerate() {
        assert_eq!(*r, report, "rank {rank} reports a different run than rank 0");
    }
    (out.drain(..).map(|(o, s, _)| (o, s)).collect(), report)
}

/// Seeded message faults (drops, duplicates, delays) are absorbed by the
/// communicator's reliable mode: the faulted trajectory is bitwise equal
/// to the clean one, and the clean one matches the serial dycore.
#[test]
fn message_faults_do_not_change_the_answer() {
    let grid = CubedSphere::new(NE);
    let part = Partition::new(&grid, NRANKS);
    let serial = Dycore::new(NE, dims(), 2000.0, config());
    let init = initial_state(&serial);

    let clean = run_dist_steps(&grid, &part, &init, WorldOptions::default());

    let faults = FaultPlan::seeded(0x5EED_FA17)
        .drop_per_mille(30)
        .duplicate_per_mille(30)
        .delay_per_mille(30, 3);
    let opts = WorldOptions {
        comm: CommConfig { recv_timeout: Duration::from_secs(20), ..CommConfig::default() },
        faults: Some(faults),
    };
    let faulted = run_dist_steps(&grid, &part, &init, opts);
    assert_bitwise(&clean, &faulted, "faulted vs clean");

    // And the clean distributed run tracks the serial engine to round-off.
    let mut sdy = Dycore::new(NE, dims(), 2000.0, config());
    let mut st = init.clone();
    for _ in 0..NSTEPS {
        sdy.step(&mut st);
    }
    for (owned, local) in &clean {
        for (li, &e) in owned.iter().enumerate() {
            let es = local.elem(li);
            let rf = st.elem(e);
            for i in 0..dims().field_len() {
                assert!(
                    (es.u[i] - rf.u[i]).abs() < 1e-9
                        && (es.t[i] - rf.t[i]).abs() < 1e-9
                        && (es.dp3d[i] - rf.dp3d[i]).abs() < 1e-9,
                    "clean dist vs serial: elem {e} idx {i}"
                );
            }
        }
    }
}

/// A run resumed from a mid-run checkpoint file finishes bitwise-equal to
/// an uninterrupted run of the same length.
#[test]
fn checkpoint_restart_is_bitwise_exact() {
    use swcam_core::{ModelConfig, SuiteChoice, Swcam};

    let make = || {
        let mut cfg = ModelConfig::for_ne(2);
        cfg.nlev = 6;
        cfg.qsize = 0;
        cfg.suite = SuiteChoice::None;
        Swcam::new(cfg)
    };

    let mut straight = make();
    straight.run_steps(8);

    let path = std::env::temp_dir().join(format!("swckpt_restart_{}.swckpt", std::process::id()));
    let mut first = make();
    first.run_steps(4);
    first.write_checkpoint(&path).expect("write checkpoint");

    let mut resumed = make();
    resumed.restore_checkpoint(&path).expect("restore checkpoint");
    assert_eq!(resumed.steps_taken(), 4);
    resumed.run_steps(4);
    std::fs::remove_file(&path).ok();

    assert_eq!(resumed.steps_taken(), straight.steps_taken());
    for (name, a, b) in [
        ("u", &straight.state.u, &resumed.state.u),
        ("v", &straight.state.v, &resumed.state.v),
        ("t", &straight.state.t, &resumed.state.t),
        ("dp3d", &straight.state.dp3d, &resumed.state.dp3d),
        ("qdp", &straight.state.qdp, &resumed.state.qdp),
        ("phis", &straight.state.phis, &resumed.state.phis),
    ] {
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "restart mismatch in {name}[{i}]: {x:e} vs {y:e}"
            );
        }
    }
}

/// With periodic checkpointing enabled, the model drops a decodable
/// checkpoint file every `interval` coupled steps.
#[test]
fn periodic_checkpoints_are_written_and_restorable() {
    use swcam_core::{ModelConfig, SuiteChoice, Swcam};

    let dir = std::env::temp_dir().join(format!("swckpt_periodic_{}", std::process::id()));
    let mut cfg = ModelConfig::for_ne(2);
    cfg.nlev = 6;
    cfg.qsize = 0;
    cfg.suite = SuiteChoice::None;
    let mut model = Swcam::new(cfg);
    model.enable_checkpointing(2, &dir);
    model.run_steps(5);

    for step in [2usize, 4] {
        let path = dir.join(format!("ckpt_{step:08}.swckpt"));
        assert!(path.exists(), "missing periodic checkpoint {path:?}");
        let mut probe = {
            let mut cfg = ModelConfig::for_ne(2);
            cfg.nlev = 6;
            cfg.qsize = 0;
            cfg.suite = SuiteChoice::None;
            Swcam::new(cfg)
        };
        probe.restore_checkpoint(&path).expect("periodic checkpoint decodes");
        assert_eq!(probe.steps_taken(), step);
    }
    assert!(!dir.join("ckpt_00000005.swckpt").exists(), "interval must be respected");
    std::fs::remove_dir_all(&dir).ok();
}

/// A crashed rank is detected by its peers' receive timeouts; the
/// resilient driver rolls every rank back to the last snapshot and
/// replays, committing the same bits as an undisturbed resilient run.
#[test]
fn crashed_rank_rolls_back_and_recovers() {
    let grid = CubedSphere::new(NE);
    let part = Partition::new(&grid, NRANKS);
    let serial = Dycore::new(NE, dims(), 2000.0, config());
    let init = initial_state(&serial);

    let (clean, clean_report) = run_resilient_steps(&grid, &part, &init, WorldOptions::default());
    assert_eq!(clean_report.steps, NSTEPS as u64);
    assert_eq!(clean_report.rollbacks, 0);
    assert_eq!(clean_report.final_epoch, 0);

    // Rank 1 dies at the start of step 3; the snapshot interval is 2, so
    // recovery replays step 3 from the step-2 snapshot.
    let opts = WorldOptions {
        comm: CommConfig { recv_timeout: Duration::from_millis(500), ..CommConfig::default() },
        faults: Some(FaultPlan::seeded(9).crash_rank(1, 3)),
    };
    let (crashed, report) = run_resilient_steps(&grid, &part, &init, opts);
    // The step-2 snapshot means step 2 is committed twice (once before the
    // crash, once on replay), so the commit count exceeds the request.
    assert!(report.steps > NSTEPS as u64, "replayed commits must show in the report");
    assert!(report.rollbacks >= 1, "the crash must force at least one rollback");
    assert!(report.final_epoch >= 1, "recovery must bump the rollback epoch");
    assert_bitwise(&clean, &crashed, "crashed vs clean");
}

/// Run `NSTEPS` committed steps through the resilient driver with a
/// per-attempt state-corruption hook and a shared health config. The hook
/// receives `(rank, dist, state, step)` and is expected to key off
/// `dist.epoch()` so the injection is one-shot.
fn run_resilient_steps_with(
    grid: &CubedSphere,
    part: &Partition,
    init: &State,
    health: HealthConfig,
    hook: impl Fn(usize, &mut homme::DistDycore, &mut State, u64) + Send + Sync,
) -> (RankStates, swcam_core::ResilientReport) {
    let cfg = config();
    let rcfg = ResilienceConfig { checkpoint_interval: 2, max_rollbacks_per_step: 3 };
    let hook = &hook;
    let mut out = run_ranks_with(NRANKS, WorldOptions::default(), |ctx| {
        let mut dist =
            DistDycore::new(grid, part, ctx.rank(), dims(), 2000.0, cfg, ExchangeMode::Redesigned);
        dist.health = health;
        let mut local = dist.local_state(init);
        let rank = ctx.rank();
        let report = run_resilient_with(ctx, &mut dist, &mut local, NSTEPS as u64, &rcfg, |d, s, step| {
            hook(rank, d, s, step)
        })
        .expect("resilient run must recover from a one-shot injection");
        (dist.plan.owned.clone(), local, report)
    });
    let report = out[0].2;
    for (rank, (_, _, r)) in out.iter().enumerate() {
        assert_eq!(*r, report, "rank {rank} reports a different run than rank 0");
    }
    (out.drain(..).map(|(o, s, _)| (o, s)).collect(), report)
}

/// A NaN injected into the tracer-mass arena mid-run trips the post-
/// advection guard (`TRACER_STAGE` scan), the global verdict rolls every
/// rank back to the last snapshot, and the replay — where the one-shot
/// injection no longer fires — commits the same bits as a clean run.
#[test]
fn injected_tracer_nan_rolls_back_and_recovers() {
    let grid = CubedSphere::new(NE);
    let part = Partition::new(&grid, NRANKS);
    let serial = Dycore::new(NE, dims(), 2000.0, config());
    let init = initial_state(&serial);

    let no_inject = |_: usize, _: &mut homme::DistDycore, _: &mut State, _: u64| {};
    let (clean, clean_report) =
        run_resilient_steps_with(&grid, &part, &init, HealthConfig::on(), no_inject);
    assert_eq!(clean_report.rollbacks, 0);

    let (poisoned, report) = run_resilient_steps_with(
        &grid,
        &part,
        &init,
        HealthConfig::on(),
        |rank, dist, state, step| {
            // One-shot: only in the original epoch; the replay is clean.
            if rank == 0 && step == 3 && dist.epoch() == 0 {
                state.qdp[0] = f64::NAN;
            }
        },
    );
    assert!(report.rollbacks >= 1, "the tracer NaN must force a rollback");
    assert!(report.steps > NSTEPS as u64, "replayed commits must show in the report");
    assert!(report.final_epoch >= 1, "recovery must bump the rollback epoch");
    assert_bitwise(&clean, &poisoned, "tracer-NaN injection vs clean");
}

/// A collapsed (negative) Lagrangian layer that slips past the relaxed
/// stage guards is still caught by the vertical remap's typed error
/// ([`homme::RemapError`]), which routes into the same rollback path —
/// the run recovers instead of panicking on a bare assert.
#[test]
fn injected_remap_failure_rolls_back_instead_of_panicking() {
    let grid = CubedSphere::new(NE);
    let part = Partition::new(&grid, NRANKS);
    let serial = Dycore::new(NE, dims(), 2000.0, config());
    let init = initial_state(&serial);

    // Disarm the ThinLayer stage guard so the corrupted column reaches the
    // remap, which must reject it with a typed error (not an assert).
    let health = HealthConfig { min_dp3d: f64::NEG_INFINITY, ..HealthConfig::on() };

    let no_inject = |_: usize, _: &mut homme::DistDycore, _: &mut State, _: u64| {};
    let (clean, clean_report) = run_resilient_steps_with(&grid, &part, &init, health, no_inject);
    assert_eq!(clean_report.rollbacks, 0);

    let (poisoned, report) =
        run_resilient_steps_with(&grid, &part, &init, health, |rank, dist, state, step| {
            if rank == 0 && step == 3 && dist.epoch() == 0 {
                // Collapse one whole element level: interior GLL points are
                // untouched by DSS and the in-element tendency is O(1) Pa,
                // so the layer is still negative when the remap sees it.
                for p in 0..NPTS {
                    state.dp3d[NPTS + p] = -5000.0;
                }
            }
        });
    assert!(report.rollbacks >= 1, "the collapsed layer must force a rollback");
    assert!(report.final_epoch >= 1, "recovery must bump the rollback epoch");
    assert_bitwise(&clean, &poisoned, "remap-failure injection vs clean");
}

/// A stalled (slow) rank is NOT a failure: peers wait it out through the
/// retry path and the run commits with zero rollbacks.
#[test]
fn stalled_rank_is_waited_out_without_rollback() {
    let grid = CubedSphere::new(NE);
    let part = Partition::new(&grid, NRANKS);
    let serial = Dycore::new(NE, dims(), 2000.0, config());
    let init = initial_state(&serial);

    let (clean, _) = run_resilient_steps(&grid, &part, &init, WorldOptions::default());
    let opts = WorldOptions {
        comm: CommConfig { recv_timeout: Duration::from_secs(20), ..CommConfig::default() },
        faults: Some(FaultPlan::seeded(3).stall_rank(2, 1, Duration::from_millis(200))),
    };
    let (stalled, report) = run_resilient_steps(&grid, &part, &init, opts);
    assert_eq!(report.rollbacks, 0, "a stall must not trigger recovery");
    assert_bitwise(&clean, &stalled, "stalled vs clean");
}
