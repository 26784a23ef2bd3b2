//! `dist-ne8-2rank`: the distributed dycore on the `nggps` ne8 initial
//! state over two in-process ranks (`run_ranks`, a two-way `Partition`,
//! `ExchangeMode::Redesigned`, mailbox transport), dynamics only. The run
//! is a chain of jobs: each job builds the rank drivers, scatters the
//! global state, takes [`JOB_STEPS`] steps and gathers the result, which
//! the next job starts from.

use crate::report::Outcome;
use crate::state::{self, all_finite, bits_equal};
use crate::stats::{mean, median, window_rate, MIN_P75_SAMPLES};
use crate::trace::{self_times, totals, Span, Tracer};
use crate::{Layers, Opts};
use cubesphere::Partition;
use homme::{CopyStats, Dims, DistDycore, Dycore, DycoreConfig, ExchangeMode, State};
use std::time::Instant;
use swcam_core::config::ScenarioRegistry;
use swcam_core::{build_dycore, ModelConfig};
use swmpi::{run_ranks, CommStats, RankCtx};

/// Ranks of the world.
pub const RANKS: usize = 2;
/// Steps per job.
pub const JOB_STEPS: usize = 4;
/// Largest difference between the gathered distributed state and the
/// serial `Dycore`, relative to each field's largest magnitude.
pub const SERIAL_TOL: f64 = 1e-9;

/// Grid, partition, configuration and the seeded initial state.
struct World {
    config: ModelConfig,
    serial: Dycore,
    part: Partition,
    dims: Dims,
    ptop: f64,
    cfg: DycoreConfig,
    init: State,
}

impl World {
    fn new(seed: u64) -> Self {
        let reg = ScenarioRegistry::builtin();
        let spec = reg.get("nggps").expect("nggps is a builtin scenario");
        let serial = build_dycore(&spec.config);
        let mut init = serial.zero_state();
        spec.apply(&serial, &mut init, seed);
        let part = Partition::new(&serial.grid, RANKS);
        World {
            config: spec.config.clone(),
            dims: serial.dims,
            ptop: spec.config.ptop,
            cfg: spec.config.dycore_config(),
            part,
            init,
            serial,
        }
    }

    fn driver(&self, rank: usize) -> DistDycore {
        DistDycore::new(
            &self.serial.grid,
            &self.part,
            rank,
            self.dims,
            self.ptop,
            self.cfg,
            ExchangeMode::Redesigned,
        )
    }
}

/// What one rank hands back from a job.
struct RankOut {
    owned: Vec<usize>,
    local: State,
    step_ms: Vec<f64>,
    stats: CopyStats,
    comm: CommStats,
    unmatched: usize,
    spans: Vec<Span>,
}

/// One job: build the drivers, scatter `global`, take `steps` steps
/// (re-driven phase by phase inside spans when `epoch` is given), gather
/// into `global`.
fn job(w: &World, global: &mut State, steps: usize, epoch: Option<Instant>) -> Vec<RankOut> {
    let src: &State = global;
    let outs = run_ranks(RANKS, |ctx: &mut RankCtx| {
        let mut d = w.driver(ctx.rank());
        let mut local = d.local_state(src);
        let mut tr = epoch.map(|e| Tracer::new(e, ctx.rank() as u32));
        ctx.coll.barrier();
        let mut step_ms = Vec::with_capacity(steps);
        for s in 0..steps {
            let t = Instant::now();
            match tr.as_mut() {
                Some(tr) => redrive_step(tr, &mut d, ctx, &mut local, s as u64),
                None => d.step(ctx, &mut local).expect("distributed step"),
            }
            step_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Some(tr) = tr.as_mut() {
                tr.span("swmpi.barrier", s as u64, || ctx.coll.barrier());
            }
        }
        ctx.coll.barrier();
        RankOut {
            owned: d.plan.owned.clone(),
            local,
            step_ms,
            stats: d.stats,
            comm: ctx.comm.stats(),
            unmatched: ctx.comm.unmatched(),
            spans: tr.map(Tracer::into_spans).unwrap_or_default(),
        }
    });
    for r in &outs {
        for (li, &e) in r.owned.iter().enumerate() {
            let (s, dst) = (r.local.elem(li), global.elem_mut(e));
            dst.u.copy_from_slice(s.u);
            dst.v.copy_from_slice(s.v);
            dst.t.copy_from_slice(s.t);
            dst.dp3d.copy_from_slice(s.dp3d);
            dst.qdp.copy_from_slice(s.qdp);
        }
    }
    outs
}

/// `DistDycore::step` re-driven through its public phase functions, each
/// inside a span (bulk path, health guards off — the configuration
/// `DistDycore::step` runs here).
fn redrive_step(
    tr: &mut Tracer,
    d: &mut DistDycore,
    ctx: &mut RankCtx,
    local: &mut State,
    id: u64,
) {
    let s = tr.open("dist.step", id);
    tr.span("homme.dist.rk", id, || d.dynamics_step(ctx, local))
        .expect("dynamics exchange");
    tr.span("homme.dist.hypervis", id, || d.apply_hypervis(ctx, local))
        .expect("hyperviscosity");
    tr.span("homme.dist.tracer", id, || d.euler_step_tracers(ctx, local))
        .expect("tracer exchange");
    let phase = d.remap_phase() + 1;
    if phase >= d.cfg.rsplit {
        tr.span("homme.dist.remap", id, || d.vertical_remap(local))
            .expect("vertical remap");
        d.set_remap_phase(0);
    } else {
        d.set_remap_phase(phase);
    }
    tr.close(s);
}

/// Per-step wall time of a job: the slowest rank's time for each step.
fn job_step_ms(outs: &[RankOut]) -> Vec<f64> {
    let n = outs[0].step_ms.len();
    (0..n)
        .map(|i| outs.iter().map(|r| r.step_ms[i]).fold(0.0, f64::max))
        .collect()
}

fn max_rel_diff(a: &State, b: &State) -> f64 {
    let rel = |x: &[f64], y: &[f64]| {
        let scale = y
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        x.iter()
            .zip(y)
            .fold(0.0f64, |m, (p, q)| m.max((p - q).abs() / scale))
    };
    [
        rel(&a.u, &b.u),
        rel(&a.v, &b.v),
        rel(&a.t, &b.t),
        rel(&a.dp3d, &b.dp3d),
        rel(&a.qdp, &b.qdp),
    ]
    .into_iter()
    .fold(0.0, f64::max)
}

/// Ranks of a job that left messages unmatched or staged bytes.
fn exchange_problems(outs: &[RankOut]) -> Vec<String> {
    outs.iter()
        .enumerate()
        .filter(|(_, r)| r.unmatched != 0 || r.stats.staged_bytes != 0)
        .map(|(i, r)| {
            format!(
                "rank {i}: unmatched {} staged {}",
                r.unmatched, r.stats.staged_bytes
            )
        })
        .collect()
}

fn exchange_check(problems: &[String], jobs: usize, o: &mut Outcome) {
    let detail = if problems.is_empty() {
        format!("{jobs} jobs")
    } else {
        problems.join("; ")
    };
    o.check(
        "every rank: unmatched() == 0 and staged_bytes == 0",
        problems.is_empty(),
        detail,
    );
}

/// Run the workload.
pub fn run(opts: &Opts) -> Outcome {
    let w = World::new(opts.seed);
    let mut o = Outcome {
        working_set_bytes: state::bytes(&w.init),
        ..Outcome::default()
    };
    let setup_times: Vec<f64> = (0..crate::SETUP_REPS).map(|_| construct(&w)).collect();
    // Warm-up job (lazy allocation, buffer pools), discarded.
    let mut scratch = w.init.clone();
    let warm = job(&w, &mut scratch, 1, None);
    let warm_ms = job_step_ms(&warm)[0];
    if opts.trace {
        traced(opts, &w, warm_ms, &mut o);
    } else {
        untraced(opts, &w, &mut o);
    }
    o.metric("setup_s", "s", median(&setup_times), setup_times.len());
    o
}

/// Seconds of one timed construction: the rank drivers plus the scatter
/// of the global state.
fn construct(w: &World) -> f64 {
    let t = Instant::now();
    run_ranks(RANKS, |ctx: &mut RankCtx| {
        let d = w.driver(ctx.rank());
        let local = d.local_state(&w.init);
        ctx.coll.barrier();
        local.u.len()
    });
    t.elapsed().as_secs_f64()
}

fn untraced(opts: &Opts, w: &World, o: &mut Outcome) {
    let mut global = w.init.clone();
    let mut first = None;
    let mut step_ms = Vec::new();
    let mut job_s = Vec::new();
    let mut problems = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < opts.seconds || step_ms.len() < MIN_P75_SAMPLES {
        let tj = Instant::now();
        let outs = job(w, &mut global, JOB_STEPS, None);
        job_s.push(tj.elapsed().as_secs_f64());
        step_ms.extend(job_step_ms(&outs));
        problems.extend(exchange_problems(&outs));
        if first.is_none() {
            first = Some(global.clone());
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let jobs = job_s.len();
    o.attempted = step_ms.len() as u64;
    let sim_years = vec![JOB_STEPS as f64 * w.cfg.dt / (365.0 * 86_400.0); jobs];
    o.metric(
        "sypd",
        "yr/day",
        window_rate(&sim_years, &job_s) * 86_400.0,
        jobs,
    );
    o.metric("step_ms_p50", "ms", median(&step_ms), step_ms.len());
    o.step_tail(&step_ms);
    o.metric(
        "members_per_s",
        "1/s",
        window_rate(&vec![1.0; jobs], &job_s),
        jobs,
    );
    o.metric("member_latency_s_p50", "s", median(&job_s), job_s.len());
    o.notes.push(format!(
        "{} jobs of {JOB_STEPS} steps on {RANKS} ranks, dt {} s, {wall:.2} s wall",
        job_s.len(),
        w.cfg.dt
    ));
    exchange_check(&problems, job_s.len(), o);
    // The first job against a serial Dycore over the same steps.
    let mut serial = build_dycore(&w.config);
    let mut reference = w.init.clone();
    for _ in 0..JOB_STEPS {
        serial.step(&mut reference);
    }
    let got = first.expect("at least one job ran");
    let diff = max_rel_diff(&got, &reference);
    o.check(
        "gathered ranks agree with serial Dycore",
        diff <= SERIAL_TOL,
        format!("max rel diff {diff:.3e} <= {SERIAL_TOL:e} after {JOB_STEPS} steps"),
    );
    o.check("state finite", all_finite(&global), "u, v, T, dp3d, qdp");
}

fn traced(opts: &Opts, w: &World, warm_ms: f64, o: &mut Outcome) {
    // Same step count untraced and traced, sized to fit the budget.
    let n = ((0.4 * opts.seconds * 1e3 / warm_ms) as usize).clamp(3, 400);
    let mut plain_state = w.init.clone();
    let plain = job(w, &mut plain_state, n, None);
    let plain_ms = job_step_ms(&plain);
    let mut traced_state = w.init.clone();
    let outs = job(w, &mut traced_state, n, Some(Instant::now()));
    let traced_ms = job_step_ms(&outs);
    o.check(
        "traced trajectory bitwise equal to untraced",
        bits_equal(&traced_state, &plain_state),
        format!("{n} steps"),
    );
    let problems = [exchange_problems(&plain), exchange_problems(&outs)].concat();
    exchange_check(&problems, 2, o);

    let nf = n as f64;
    let ranks = outs.len() as f64;
    let per_rank_self: Vec<_> = outs.iter().map(|r| self_times(&r.spans)).collect();
    let self_ms = |name: &str| {
        per_rank_self
            .iter()
            .map(|st| st.get(name).copied().unwrap_or(0) as f64 / 1e6 / nf)
            .sum::<f64>()
            / ranks
    };
    let busy: Vec<f64> = outs
        .iter()
        .map(|r| totals(&r.spans).get("dist.step").map_or(0, |t| t.0) as f64)
        .collect();
    let mut l = Layers::default();
    l.set("homme.dist.rk_ms", self_ms("homme.dist.rk"), n);
    l.set("homme.dist.hypervis_ms", self_ms("homme.dist.hypervis"), n);
    l.set("homme.dist.tracer_ms", self_ms("homme.dist.tracer"), n);
    l.set("homme.dist.remap_ms", self_ms("homme.dist.remap"), n);
    let per_rank =
        |f: &dyn Fn(&RankOut) -> u64| outs.iter().map(|r| f(r) as f64).sum::<f64>() / ranks / nf;
    l.set(
        "homme.bndry.msgs_per_step",
        per_rank(&|r| r.stats.msgs_sent),
        n,
    );
    l.set(
        "homme.bndry.bytes_per_step",
        per_rank(&|r| r.stats.sent_bytes),
        n,
    );
    l.set(
        "homme.bndry.staged_bytes_per_step",
        per_rank(&|r| r.stats.staged_bytes),
        n,
    );
    l.set("swmpi.recvs_per_step", per_rank(&|r| r.comm.recvs), n);
    l.set(
        "swmpi.retry_attempts",
        outs.iter().map(|r| r.comm.retry_attempts as f64).sum(),
        1,
    );
    l.set("swmpi.barrier_wait_ms", self_ms("swmpi.barrier"), n);
    l.set(
        "swmpi.rank_imbalance",
        busy.iter().fold(0.0, |m: f64, &b| m.max(b)) / mean(&busy),
        n,
    );
    let overhead = median(&traced_ms) / median(&plain_ms) - 1.0;
    l.set("trace.overhead_frac", overhead, n);
    o.attempted = 2 * n as u64;
    o.notes.push(format!(
        "median untraced {:.1} ms/step vs traced {:.1} ms/step over {n} steps (overhead {:+.2}%)",
        median(&plain_ms),
        median(&traced_ms),
        100.0 * overhead
    ));
    let spans: Vec<Vec<Span>> = outs.into_iter().map(|r| r.spans).collect();
    crate::finish_trace(opts, o, l, &spans);
}
