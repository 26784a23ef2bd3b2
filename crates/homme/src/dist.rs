//! Distributed `prim_run` dynamics: the paper's redesigned schedule inside
//! the real model loop.
//!
//! Each rank owns a space-filling-curve patch of elements. A Runge–Kutta
//! substep runs exactly as Section 7.6 prescribes:
//!
//! 1. evaluate tendencies and update the **boundary** elements first;
//! 2. start ONE aggregated halo exchange — post one receive per peer and
//!    send one message per peer carrying the boundary partial sums of all
//!    four prognostics at every level (complete, because only boundary
//!    elements touch shared points);
//! 3. evaluate tendencies and update the **interior** elements *while the
//!    messages are in flight*;
//! 4. complete the DSS by accumulating each peer's payload directly from
//!    the receive buffer into the flat SoA arenas.
//!
//! The `Original` mode runs the same numerics without overlap or
//! aggregation: all compute first, then one staging-buffer exchange per
//! (field, level), which is the legacy `bndry_exchangev` message pattern
//! the paper's Figure 11 starts from. Both modes are verified equivalent
//! to the serial [`Dycore`](crate::prim::Dycore) — including the tracer
//! limiter and the full hyperviscosity configuration (`nu_p`, `nu_top`,
//! sponge layers), which the driver consumes via the same
//! [`DycoreConfig`] as the serial driver.
//!
//! Rank-local state lives in the same flat SoA [`State`] arena as the
//! serial driver, sized for the owned elements only, and all temporaries
//! live in a persistent [`DistWorkspace`]: after a warm-up step the
//! distributed step performs zero heap allocations (send buffers are
//! pooled by the communicator; enforced by the `dist_alloc` test).

use crate::bndry::{CopyStats, ExchangeBuffers, ExchangeMode, ExchangePlan};
use crate::deriv::ElemOps;
use crate::euler::{limit_tracer_arena, tracer_flux_divergence};
use crate::health::{
    commit_scan, scan_stage, DegradePolicy, HealthConfig, HealthError, StepHealth, TRACER_STAGE,
};
use crate::hypervis::MIN_GLL_GAP_METERS;
use crate::kernels::blocked::{
    build_blocked_ops, element_rhs_apply_blocked, euler_stage_element_blocked,
    hypervis_pass_element_blocked, hypervis_pass_levels_blocked, sponge_pass_element_blocked,
    BlockedOps, KernelPath, StageCombine,
};
use crate::prim::{DycoreConfig, KG5_COEFFS};
use crate::kernels::blocked::remap_element_planned;
use crate::remap::remap_element_scalar;
use crate::rhs::{element_rhs_raw, Rhs};
use crate::state::{Dims, State};
use crate::vert::VertCoord;
use crate::workspace::{DistWorkspace, DynFields, WorkerScratch};
use cubesphere::{CubedSphere, Partition, NPTS};
use swmpi::{CommError, RankCtx};

/// Why a distributed step could not be committed. Both variants mean the
/// local state may be partially advanced: the resilient driver restores
/// the last checkpoint before retrying.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A halo exchange failed (peer timed out or a rank died).
    Comm(CommError),
    /// An in-step health guard tripped.
    Health(HealthError),
}

impl From<CommError> for DistError {
    fn from(e: CommError) -> Self {
        DistError::Comm(e)
    }
}

impl From<HealthError> for DistError {
    fn from(e: HealthError) -> Self {
        DistError::Health(e)
    }
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Comm(e) => write!(f, "halo exchange failed: {e}"),
            DistError::Health(e) => write!(f, "health guard tripped: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

/// How many low bits of the message tag carry the in-epoch sequence
/// number; the bits above carry the rollback epoch, so one `purge_below`
/// with [`DistDycore::tag_floor`] discards every stale-epoch message.
pub const EPOCH_SHIFT: u32 = 48;

/// Per-rank distributed dynamics driver.
pub struct DistDycore {
    /// Exchange plan (owned elements, peers, shared gids).
    pub plan: ExchangePlan,
    /// Operator tables for the owned elements (local indexing).
    pub ops: Vec<ElemOps>,
    /// RHS evaluator.
    pub rhs: Rhs,
    /// Dimensions.
    pub dims: Dims,
    /// Configuration (shared with the serial driver).
    pub cfg: DycoreConfig,
    /// Exchange schedule.
    pub mode: ExchangeMode,
    /// Accumulated staging-copy / message statistics.
    pub stats: CopyStats,
    /// In-step health guard configuration ([`DistDycore::step_checked`]).
    pub health: HealthConfig,
    /// What a CFL breach does to the following steps.
    pub degrade: DegradePolicy,
    /// Which kernel implementation the step pipeline dispatches to
    /// (blocked by default; the scalar path is the parity oracle).
    pub kernels: KernelPath,
    bops: Vec<BlockedOps>,
    /// Stability-derived hyperviscosity subcycles (identical on every rank
    /// and to the serial driver: computed from global element 0).
    subcycles: usize,
    /// Same, for the halved `dt` the degradation policy runs under.
    subcycles_half: usize,
    ws: DistWorkspace,
    steps_since_remap: usize,
    degrade_pending: usize,
    char_dx: f64,
    epoch: u64,
    tag: u64,
}

/// The four DSS'd prognostics, in exchange order (u, v, T, dp3d).
const NFIELDS: usize = 4;

impl DistDycore {
    /// Build the driver for `rank` of `part` on `grid`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        grid: &CubedSphere,
        part: &Partition,
        rank: usize,
        dims: Dims,
        ptop: f64,
        cfg: DycoreConfig,
        mode: ExchangeMode,
    ) -> Self {
        let plan = ExchangePlan::new(grid, part, rank);
        let ops: Vec<ElemOps> = plan
            .owned
            .iter()
            .map(|&e| ElemOps::new(&grid.elements[e], &grid.basis))
            .collect();
        let bops = build_blocked_ops(&ops);
        let vert = VertCoord::standard(dims.nlev, ptop);
        let el0 = &grid.elements[0];
        let subcycles = cfg.hypervis.stable_subcycles(el0.dab, el0.metric[0].metdet, cfg.dt);
        let subcycles_half =
            cfg.hypervis.stable_subcycles(el0.dab, el0.metric[0].metdet, cfg.dt / 2.0);
        // Same CFL length scale as the serial driver: smallest GLL gap on
        // global element 0, floored at [`MIN_GLL_GAP_METERS`], so every
        // rank judges CFL identically.
        let ref_gap = 1.0 - 1.0 / 5.0_f64.sqrt();
        let char_dx =
            (ref_gap * 0.5 * el0.dab * el0.metric[0].metdet.sqrt()).max(MIN_GLL_GAP_METERS);
        let ws = DistWorkspace::new(dims, plan.owned.len(), cfg.hypervis.sponge_layers);
        DistDycore {
            plan,
            ops,
            rhs: Rhs::new(vert, dims),
            dims,
            cfg,
            mode,
            stats: CopyStats::default(),
            health: HealthConfig::default(),
            degrade: DegradePolicy::default(),
            kernels: KernelPath::default(),
            bops,
            subcycles,
            subcycles_half,
            ws,
            steps_since_remap: 0,
            degrade_pending: 0,
            char_dx,
            epoch: 0,
            tag: 0,
        }
    }

    /// Hyperviscosity subcycles this driver will run (same formula as
    /// [`Dycore::hypervis_subcycles`](crate::prim::Dycore::hypervis_subcycles)).
    pub fn hypervis_subcycles(&self) -> usize {
        self.subcycles
    }

    /// Extract this rank's elements from a global state arena into a local
    /// arena (local index `li` = position in `plan.owned`).
    pub fn local_state(&self, global: &State) -> State {
        let mut local = State::zeros(self.dims, self.plan.owned.len());
        for (li, &e) in self.plan.owned.iter().enumerate() {
            let src = global.elem(e);
            let dst = local.elem_mut(li);
            dst.u.copy_from_slice(src.u);
            dst.v.copy_from_slice(src.v);
            dst.t.copy_from_slice(src.t);
            dst.dp3d.copy_from_slice(src.dp3d);
            dst.qdp.copy_from_slice(src.qdp);
            dst.phis.copy_from_slice(src.phis);
        }
        local
    }

    /// Advance the dynamics by one `dt` with the 5-stage Kinnmark–Gray RK.
    /// One aggregated exchange (one message per peer) per substep in
    /// `Redesigned` mode.
    pub fn dynamics_step(&mut self, ctx: &mut RankCtx, state: &mut State) -> Result<(), CommError> {
        let dt = self.cfg.dt;
        let DistDycore { plan, ops, rhs, dims, mode, stats, ws, tag, kernels, bops, .. } = self;
        let DistWorkspace { base, stage, next, scratch, ex, .. } = ws;
        base.copy_from_state(state);
        stage.copy_from_state(state);
        for &c in &KG5_COEFFS {
            rk_substep(
                *kernels,
                plan,
                ops,
                bops,
                rhs,
                *dims,
                *mode,
                ctx,
                base,
                stage,
                &state.phis,
                c * dt,
                next,
                scratch,
                ex,
                stats,
                tag,
            )?;
            std::mem::swap(stage, next);
        }
        state.u.copy_from_slice(&stage.u);
        state.v.copy_from_slice(&stage.v);
        state.t.copy_from_slice(&stage.t);
        state.dp3d.copy_from_slice(&stage.dp3d);
        Ok(())
    }

    /// [`DistDycore::dynamics_step`] with a health scan after each RK
    /// stage (the distributed half of [`crate::prim::Dycore::step_checked`]).
    fn dynamics_step_guarded(
        &mut self,
        ctx: &mut RankCtx,
        state: &mut State,
        health: &mut StepHealth,
    ) -> Result<(), DistError> {
        let dt = self.cfg.dt;
        let hcfg = self.health;
        let DistDycore { plan, ops, rhs, dims, mode, stats, ws, tag, kernels, bops, .. } = self;
        let DistWorkspace { base, stage, next, scratch, ex, .. } = ws;
        base.copy_from_state(state);
        stage.copy_from_state(state);
        for (stage_ix, &c) in KG5_COEFFS.iter().enumerate() {
            rk_substep(
                *kernels,
                plan,
                ops,
                bops,
                rhs,
                *dims,
                *mode,
                ctx,
                base,
                stage,
                &state.phis,
                c * dt,
                next,
                scratch,
                ex,
                stats,
                tag,
            )?;
            let scan = scan_stage(&next.u, &next.v, &next.t, &next.dp3d, &[]);
            commit_scan(health, &hcfg, stage_ix, scan)?;
            std::mem::swap(stage, next);
        }
        state.u.copy_from_slice(&stage.u);
        state.v.copy_from_slice(&stage.v);
        state.t.copy_from_slice(&stage.t);
        state.dp3d.copy_from_slice(&stage.dp3d);
        Ok(())
    }

    /// Distributed subcycled biharmonic hyperviscosity, operator-for-
    /// operator identical to
    /// [`Dycore::apply_hypervis`](crate::prim::Dycore::apply_hypervis):
    /// top-of-model sponge first (ordinary Laplacian, `+nu_top` damping
    /// halved per layer down), then `subcycles` applications of the weak
    /// biharmonic with `nu` on u/v/T and `nu_p` on dp3d. Each Laplacian
    /// application DSSes all participating fields in one aggregated
    /// exchange.
    pub fn apply_hypervis(&mut self, ctx: &mut RankCtx, state: &mut State) -> Result<(), DistError> {
        let subcycles = self.subcycles;
        self.apply_hypervis_n(ctx, state, subcycles)
    }

    /// [`DistDycore::apply_hypervis`] with an explicit subcycle count (the
    /// degradation policy adds extra subcycles on top of the stable count).
    ///
    /// Like the serial driver, both kernel paths build the per-step
    /// [`ElemHypervisPlan`](crate::hypervis::ElemHypervisPlan) first — a
    /// corrupt element metric or non-finite coefficient surfaces as
    /// [`DistError::Health`] before any field or message is touched. The
    /// blocked path runs the fused per-element sweeps with the plan's
    /// hoisted coefficients; the exchange schedule (one aggregated DSS per
    /// Laplacian application) is unchanged.
    pub fn apply_hypervis_n(
        &mut self,
        ctx: &mut RankCtx,
        state: &mut State,
        subcycles: usize,
    ) -> Result<(), DistError> {
        let hv = self.cfg.hypervis;
        if hv.nu == 0.0 && hv.nu_p == 0.0 {
            return Ok(());
        }
        let dt = self.cfg.dt;
        let DistDycore { plan, ops, dims, mode, stats, ws, tag, kernels, bops, .. } = self;
        let kernels = *kernels;
        let nlev = dims.nlev;
        let fl = dims.field_len();
        let nelem = ops.len();
        ws.hv_plan.build(&hv, dt, subcycles, nlev, ops).map_err(HealthError::from)?;
        if let KernelPath::Blocked = kernels {
            let hvp = &ws.hv_plan;
            if hv.nu_top > 0.0 && hv.sponge_layers > 0 {
                let ks = hvp.ks;
                let sl = ks * NPTS;
                // Fused sponge Laplacian straight out of the state (the
                // staging copies are gone), one aggregated DSS, then the
                // apply with the plan's hoisted `dt * nu_top * 2^-k`.
                for e in 0..nelem {
                    sponge_pass_element_blocked(
                        &bops[e],
                        ks,
                        &state.u[e * fl..e * fl + sl],
                        &state.v[e * fl..e * fl + sl],
                        &state.t[e * fl..e * fl + sl],
                        &mut ws.sponge_u[e * sl..(e + 1) * sl],
                        &mut ws.sponge_v[e * sl..(e + 1) * sl],
                        &mut ws.sponge_t[e * sl..(e + 1) * sl],
                    );
                }
                {
                    let mut arenas: [&mut [f64]; 3] =
                        [&mut ws.sponge_u, &mut ws.sponge_v, &mut ws.sponge_t];
                    dss_arenas(plan, *mode, ctx, &mut arenas, ks, &mut ws.ex, stats, tag)?;
                }
                for e in 0..nelem {
                    for k in 0..ks {
                        let cs = hvp.sponge[k];
                        for p in 0..NPTS {
                            let i = k * NPTS + p;
                            let si = e * sl + i;
                            let gi = e * fl + i;
                            state.u[gi] += cs * ws.sponge_u[si];
                            state.v[gi] += cs * ws.sponge_v[si];
                            state.t[gi] += cs * ws.sponge_t[si];
                        }
                    }
                }
            }
            for _ in 0..subcycles {
                // First Laplacian of all four fields in one fused
                // coefficient walk per element, straight from the state
                // into the hyp arenas (the per-subcycle copy is gone).
                for e in 0..nelem {
                    let er = e * fl..(e + 1) * fl;
                    hypervis_pass_element_blocked(
                        &bops[e],
                        nlev,
                        &state.u[er.clone()],
                        &state.v[er.clone()],
                        &state.t[er.clone()],
                        &state.dp3d[er.clone()],
                        &mut ws.hyp.u[er.clone()],
                        &mut ws.hyp.v[er.clone()],
                        &mut ws.hyp.t[er.clone()],
                        &mut ws.hyp.dp3d[er],
                    );
                }
                {
                    let mut arenas: [&mut [f64]; NFIELDS] =
                        [&mut ws.hyp.u, &mut ws.hyp.v, &mut ws.hyp.t, &mut ws.hyp.dp3d];
                    dss_arenas(plan, *mode, ctx, &mut arenas, nlev, &mut ws.ex, stats, tag)?;
                }
                // Second Laplacian in place (del^4 = lap(lap)).
                for e in 0..nelem {
                    let er = e * fl..(e + 1) * fl;
                    let (hu, hv_, ht, hdp) = (
                        &mut ws.hyp.u[er.clone()],
                        &mut ws.hyp.v[er.clone()],
                        &mut ws.hyp.t[er.clone()],
                        &mut ws.hyp.dp3d[er.clone()],
                    );
                    hypervis_pass_levels_blocked(&bops[e], nlev, hu, hv_, ht, hdp);
                }
                {
                    let mut arenas: [&mut [f64]; NFIELDS] =
                        [&mut ws.hyp.u, &mut ws.hyp.v, &mut ws.hyp.t, &mut ws.hyp.dp3d];
                    dss_arenas(plan, *mode, ctx, &mut arenas, nlev, &mut ws.ex, stats, tag)?;
                }
                // Forward-Euler apply with the plan's hoisted `dt_sub * nu`
                // products (bitwise the same as the scalar oracle's).
                let cu = hvp.coef_u;
                let cdp = hvp.coef_dp;
                for (x, l) in state.u.iter_mut().zip(&ws.hyp.u) {
                    *x -= cu * l;
                }
                for (x, l) in state.v.iter_mut().zip(&ws.hyp.v) {
                    *x -= cu * l;
                }
                for (x, l) in state.t.iter_mut().zip(&ws.hyp.t) {
                    *x -= cu * l;
                }
                for (x, l) in state.dp3d.iter_mut().zip(&ws.hyp.dp3d) {
                    *x -= cdp * l;
                }
            }
            return Ok(());
        }
        if hv.nu_top > 0.0 && hv.sponge_layers > 0 {
            let ks = hv.sponge_layers.min(nlev);
            let sl = ks * NPTS;
            for e in 0..nelem {
                ws.sponge_u[e * sl..(e + 1) * sl]
                    .copy_from_slice(&state.u[e * fl..e * fl + sl]);
                ws.sponge_v[e * sl..(e + 1) * sl]
                    .copy_from_slice(&state.v[e * fl..e * fl + sl]);
                ws.sponge_t[e * sl..(e + 1) * sl]
                    .copy_from_slice(&state.t[e * fl..e * fl + sl]);
            }
            vlaplace_elems(ops, ks, &mut ws.sponge_u, &mut ws.sponge_v);
            laplace_elems(ops, ks, &mut ws.sponge_t);
            {
                let mut arenas: [&mut [f64]; 3] =
                    [&mut ws.sponge_u, &mut ws.sponge_v, &mut ws.sponge_t];
                dss_arenas(plan, *mode, ctx, &mut arenas, ks, &mut ws.ex, stats, tag)?;
            }
            for e in 0..nelem {
                for (k, damp) in (0..ks).map(|k| (k, 1.0 / (1 << k) as f64)) {
                    for p in 0..NPTS {
                        let i = k * NPTS + p;
                        let si = e * sl + i;
                        let gi = e * fl + i;
                        state.u[gi] += dt * hv.nu_top * damp * ws.sponge_u[si];
                        state.v[gi] += dt * hv.nu_top * damp * ws.sponge_v[si];
                        state.t[gi] += dt * hv.nu_top * damp * ws.sponge_t[si];
                    }
                }
            }
        }
        let dt_sub = dt / subcycles as f64;
        for _ in 0..subcycles {
            ws.hyp.copy_from_state(state);
            // del^4 via two Laplacians with a DSS after each application
            // (vector Laplacian for wind, weak-form scalar for T, dp3d).
            for _ in 0..2 {
                vlaplace_elems(ops, nlev, &mut ws.hyp.u, &mut ws.hyp.v);
                laplace_elems(ops, nlev, &mut ws.hyp.t);
                laplace_elems(ops, nlev, &mut ws.hyp.dp3d);
                let mut arenas: [&mut [f64]; NFIELDS] =
                    [&mut ws.hyp.u, &mut ws.hyp.v, &mut ws.hyp.t, &mut ws.hyp.dp3d];
                dss_arenas(plan, *mode, ctx, &mut arenas, nlev, &mut ws.ex, stats, tag)?;
            }
            for (x, l) in state.u.iter_mut().zip(&ws.hyp.u) {
                *x -= dt_sub * hv.nu * l;
            }
            for (x, l) in state.v.iter_mut().zip(&ws.hyp.v) {
                *x -= dt_sub * hv.nu * l;
            }
            for (x, l) in state.t.iter_mut().zip(&ws.hyp.t) {
                *x -= dt_sub * hv.nu * l;
            }
            for (x, l) in state.dp3d.iter_mut().zip(&ws.hyp.dp3d) {
                *x -= dt_sub * hv.nu_p * l;
            }
        }
        Ok(())
    }

    /// Distributed 3-stage SSP-RK2 tracer advection (`euler_step`): one
    /// aggregated DSS per stage over the whole `[qsize][nlev]` tracer
    /// arena, followed by the same sign-preserving limiter the serial
    /// driver applies when `cfg.limiter` is set.
    pub fn euler_step_tracers(
        &mut self,
        ctx: &mut RankCtx,
        state: &mut State,
    ) -> Result<(), CommError> {
        if self.dims.qsize == 0 {
            return Ok(());
        }
        let dt = self.cfg.dt;
        let limiter = self.cfg.limiter;
        let DistDycore { plan, ops, dims, mode, stats, ws, tag, kernels, bops, .. } = self;
        ws.qdp0.copy_from_slice(&state.qdp);
        match kernels {
            KernelPath::Blocked => {
                // Fused stages: advect + SSP combine in one pass, with the
                // mass fluxes hoisted across the tracer loop.
                // Stage 1: q1 = q0 + dt L(q0)
                tracer_stage_blocked(
                    bops, *dims, &state.u, &state.v, &state.dp3d, &ws.qdp0, &ws.qdp0, dt,
                    StageCombine::Replace, &mut ws.q1,
                );
                finish_stage(plan, ops, *dims, *mode, limiter, ctx, &mut ws.q1, &mut ws.ex, stats, tag)?;
                // Stage 2: q2 = 3/4 q0 + 1/4 (q1 + dt L(q1))
                tracer_stage_blocked(
                    bops, *dims, &state.u, &state.v, &state.dp3d, &ws.q1, &ws.qdp0, dt,
                    StageCombine::Ssp2, &mut ws.q2,
                );
                finish_stage(plan, ops, *dims, *mode, limiter, ctx, &mut ws.q2, &mut ws.ex, stats, tag)?;
                // Stage 3: q^{n+1} = 1/3 q0 + 2/3 (q2 + dt L(q2))
                tracer_stage_blocked(
                    bops, *dims, &state.u, &state.v, &state.dp3d, &ws.q2, &ws.qdp0, dt,
                    StageCombine::Ssp3, &mut state.qdp,
                );
                finish_stage(plan, ops, *dims, *mode, limiter, ctx, &mut state.qdp, &mut ws.ex, stats, tag)
            }
            KernelPath::Scalar => {
                // Stage 1: q1 = q0 + dt L(q0)
                tracer_substep(ops, *dims, &state.u, &state.v, &state.dp3d, &ws.qdp0, dt, &mut ws.q1);
                finish_stage(plan, ops, *dims, *mode, limiter, ctx, &mut ws.q1, &mut ws.ex, stats, tag)?;
                // Stage 2: q2 = 3/4 q0 + 1/4 (q1 + dt L(q1))
                tracer_substep(ops, *dims, &state.u, &state.v, &state.dp3d, &ws.q1, dt, &mut ws.qtmp);
                for (q2, (q0, t)) in ws.q2.iter_mut().zip(ws.qdp0.iter().zip(&ws.qtmp)) {
                    *q2 = 0.75 * q0 + 0.25 * t;
                }
                finish_stage(plan, ops, *dims, *mode, limiter, ctx, &mut ws.q2, &mut ws.ex, stats, tag)?;
                // Stage 3: q^{n+1} = 1/3 q0 + 2/3 (q2 + dt L(q2))
                tracer_substep(ops, *dims, &state.u, &state.v, &state.dp3d, &ws.q2, dt, &mut ws.qtmp);
                for (qf, (q0, t)) in state.qdp.iter_mut().zip(ws.qdp0.iter().zip(&ws.qtmp)) {
                    *qf = q0 / 3.0 + 2.0 / 3.0 * t;
                }
                finish_stage(plan, ops, *dims, *mode, limiter, ctx, &mut state.qdp, &mut ws.ex, stats, tag)
            }
        }
    }

    /// Element-local vertical remap (no communication needed). Columns
    /// come from the workspace scratch — allocation-free.
    ///
    /// # Errors
    /// A collapsed Lagrangian layer or mass-inconsistent column surfaces as
    /// [`HealthError::Remap`] instead of panicking the rank thread (which
    /// would abort the whole process from under `try_run_ranks`); the
    /// resilient driver rolls back to a checkpoint. On `Err` the state may
    /// hold partially remapped elements.
    pub fn vertical_remap(&mut self, state: &mut State) -> Result<(), HealthError> {
        let DistDycore { rhs, dims, ws, kernels, .. } = self;
        let nlev = dims.nlev;
        let qsize = dims.qsize;
        let vert = &rhs.vert;
        let scratch = &mut ws.scratch;
        for es in state.elems_mut() {
            match kernels {
                KernelPath::Blocked => {
                    // Build the dp3d-only plan once, then stream u/v/t and
                    // every tracer through its coefficient-apply pass.
                    let WorkerScratch { plan, apply, .. } = scratch;
                    plan.build(vert, nlev, es.dp3d)?;
                    remap_element_planned(
                        plan, nlev, qsize, es.u, es.v, es.t, es.dp3d, es.qdp, apply,
                    )
                }
                KernelPath::Scalar => {
                    let WorkerScratch { remap, col_src, col_dst, col_val, col_out, .. } = scratch;
                    remap_element_scalar(
                        vert, nlev, qsize, es.u, es.v, es.t, es.dp3d, es.qdp, col_src, col_dst,
                        col_val, col_out, remap,
                    )?
                }
            }
        }
        Ok(())
    }

    /// One full distributed model step mirroring
    /// [`Dycore::step`](crate::prim::Dycore::step): dynamics RK +
    /// hyperviscosity + tracer advection + (every `rsplit` steps)
    /// vertical remap.
    pub fn step(&mut self, ctx: &mut RankCtx, state: &mut State) -> Result<(), DistError> {
        self.dynamics_step(ctx, state)?;
        self.apply_hypervis(ctx, state)?;
        self.euler_step_tracers(ctx, state)?;
        self.steps_since_remap += 1;
        if self.steps_since_remap >= self.cfg.rsplit {
            self.vertical_remap(state)?;
            self.steps_since_remap = 0;
        }
        Ok(())
    }

    /// [`DistDycore::step`] with in-step health guards and the degradation
    /// policy, mirroring [`Dycore::step_checked`](crate::prim::Dycore::step_checked)
    /// decision-for-decision so a guarded distributed run tracks the
    /// guarded serial run. The returned report is **rank-local**: the
    /// driver must merge it (one [`StepHealth::reduce_global`] per step
    /// attempt, executed by every rank) before acting on it, so all ranks
    /// take identical degradation decisions.
    ///
    /// On `Err` the state may hold a partially advanced step; restore a
    /// checkpoint before continuing.
    pub fn step_checked(
        &mut self,
        ctx: &mut RankCtx,
        state: &mut State,
    ) -> Result<StepHealth, DistError> {
        if !self.health.enabled {
            self.step(ctx, state)?;
            return Ok(StepHealth::unchecked());
        }
        let full_dt = self.cfg.dt;
        let (splits, extra) = if self.degrade_pending > 0 {
            self.degrade_pending -= 1;
            (2usize, self.degrade.extra_subcycles)
        } else {
            (1usize, 0)
        };
        let mut health = StepHealth::begin();
        health.degraded = splits > 1;
        self.cfg.dt = full_dt / splits as f64;
        let base_subcycles = if splits > 1 { self.subcycles_half } else { self.subcycles };
        for _ in 0..splits {
            if let Err(e) = self.dynamics_step_guarded(ctx, state, &mut health) {
                self.cfg.dt = full_dt;
                return Err(e);
            }
            if let Err(e) = self.apply_hypervis_n(ctx, state, base_subcycles + extra) {
                self.cfg.dt = full_dt;
                return Err(e);
            }
            if let Err(e) = self.euler_step_tracers(ctx, state) {
                self.cfg.dt = full_dt;
                return Err(e.into());
            }
            // Post-advection scan covers the tracer arenas, which the RK
            // stage scans never see.
            let scan = scan_stage(&state.u, &state.v, &state.t, &state.dp3d, &state.qdp);
            if let Err(e) = commit_scan(&mut health, &self.health, TRACER_STAGE, scan) {
                self.cfg.dt = full_dt;
                return Err(e.into());
            }
        }
        self.cfg.dt = full_dt;
        self.steps_since_remap += 1;
        if self.steps_since_remap >= self.cfg.rsplit {
            self.vertical_remap(state)?;
            self.steps_since_remap = 0;
        }
        // CFL against the nominal dt, from the LOCAL max wind. Unlike the
        // serial driver this does NOT arm the degradation policy: ranks
        // would diverge (each sees a different local wind). The driver
        // reduces the verdict globally and calls
        // [`DistDycore::arm_degradation`] on every rank in lockstep.
        health.cfl = health.max_wind * full_dt / self.char_dx;
        Ok(health)
    }

    /// Arm the degradation policy directly — the resilient driver calls
    /// this after the *global* verdict breaches the CFL limit, so every
    /// rank degrades in lockstep even when only one rank saw the breach.
    pub fn arm_degradation(&mut self) {
        self.degrade_pending = self.degrade_pending.max(self.degrade.halve_dt_steps);
    }

    /// Steps still owed to the degradation policy (0 = healthy cadence).
    pub fn degrade_pending(&self) -> usize {
        self.degrade_pending
    }

    /// How many dynamics steps have run since the last vertical remap
    /// (recorded in checkpoints; see [`DistDycore::set_remap_phase`]).
    pub fn remap_phase(&self) -> usize {
        self.steps_since_remap
    }

    /// Restore the remap cadence (checkpoint restart).
    pub fn set_remap_phase(&mut self, phase: usize) {
        self.steps_since_remap = phase;
    }

    /// Current rollback epoch (high bits of every message tag).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Enter rollback epoch `epoch`: future exchanges tag their messages
    /// `(epoch << EPOCH_SHIFT) | seq` with the sequence restarting at 1,
    /// so a `Comm::purge_below(tag_floor())` after the epoch bump discards
    /// every in-flight message from the aborted attempt.
    pub fn set_epoch(&mut self, epoch: u64) {
        assert!(epoch >= self.epoch, "epochs only move forward");
        self.epoch = epoch;
        self.tag = epoch << EPOCH_SHIFT;
    }

    /// Smallest tag a current-epoch message can carry; anything below is
    /// stale and safe to purge.
    pub fn tag_floor(&self) -> u64 {
        self.epoch << EPOCH_SHIFT
    }
}

/// `out[li] = base[li] + c_dt RHS(eval[li])` for one owned element,
/// through the fused blocked kernel or the scalar raw-tendency + apply
/// pair (bitwise identical).
#[allow(clippy::too_many_arguments)]
fn update_element(
    kernels: KernelPath,
    ops: &[ElemOps],
    bops: &[BlockedOps],
    rhs: &Rhs,
    dims: Dims,
    li: usize,
    base: &DynFields,
    eval: &DynFields,
    phis: &[f64],
    c_dt: f64,
    out: &mut DynFields,
    scratch: &mut WorkerScratch,
) {
    let fl = dims.field_len();
    let r = li * fl..(li + 1) * fl;
    let WorkerScratch { tend, rhs: rhs_scratch, .. } = scratch;
    match kernels {
        KernelPath::Blocked => {
            let (ou, ov, ot, odp) = (
                &mut out.u[r.clone()],
                &mut out.v[r.clone()],
                &mut out.t[r.clone()],
                &mut out.dp3d[r.clone()],
            );
            element_rhs_apply_blocked(
                &bops[li],
                dims.nlev,
                rhs.vert.ptop(),
                &eval.u[r.clone()],
                &eval.v[r.clone()],
                &eval.t[r.clone()],
                &eval.dp3d[r.clone()],
                &phis[li * NPTS..(li + 1) * NPTS],
                &base.u[r.clone()],
                &base.v[r.clone()],
                &base.t[r.clone()],
                &base.dp3d[r.clone()],
                c_dt,
                ou,
                ov,
                ot,
                odp,
                rhs_scratch,
            );
        }
        KernelPath::Scalar => {
            element_rhs_raw(
                &ops[li],
                dims.nlev,
                rhs.vert.ptop(),
                &eval.u[r.clone()],
                &eval.v[r.clone()],
                &eval.t[r.clone()],
                &eval.dp3d[r.clone()],
                &phis[li * NPTS..(li + 1) * NPTS],
                &mut tend.u,
                &mut tend.v,
                &mut tend.t,
                &mut tend.dp3d,
                rhs_scratch,
            );
            for i in 0..fl {
                out.u[r.start + i] = base.u[r.start + i] + c_dt * tend.u[i];
                out.v[r.start + i] = base.v[r.start + i] + c_dt * tend.v[i];
                out.t[r.start + i] = base.t[r.start + i] + c_dt * tend.t[i];
                out.dp3d[r.start + i] = base.dp3d[r.start + i] + c_dt * tend.dp3d[i];
            }
        }
    }
}

/// One substep: `out = base + c_dt RHS(eval)` with distributed DSS of the
/// four prognostics.
#[allow(clippy::too_many_arguments)]
fn rk_substep(
    kernels: KernelPath,
    plan: &ExchangePlan,
    ops: &[ElemOps],
    bops: &[BlockedOps],
    rhs: &Rhs,
    dims: Dims,
    mode: ExchangeMode,
    ctx: &mut RankCtx,
    base: &DynFields,
    eval: &DynFields,
    phis: &[f64],
    c_dt: f64,
    out: &mut DynFields,
    scratch: &mut WorkerScratch,
    ex: &mut ExchangeBuffers,
    stats: &mut CopyStats,
    tag: &mut u64,
) -> Result<(), CommError> {
    let nlev = dims.nlev;
    match mode {
        ExchangeMode::Original => {
            // Legacy schedule: all compute, then one staged exchange per
            // (field, level).
            for li in 0..plan.owned.len() {
                update_element(kernels, ops, bops, rhs, dims, li, base, eval, phis, c_dt, out, scratch);
            }
            let mut arenas: [&mut [f64]; NFIELDS] =
                [&mut out.u, &mut out.v, &mut out.t, &mut out.dp3d];
            dss_arenas(plan, mode, ctx, &mut arenas, nlev, ex, stats, tag)
        }
        ExchangeMode::Redesigned => {
            // 1. boundary elements first.
            for &li in &plan.boundary {
                update_element(kernels, ops, bops, rhs, dims, li, base, eval, phis, c_dt, out, scratch);
            }
            // 2. one aggregated message per peer: all fields, all levels.
            *tag += 1;
            plan.start_aggregated(
                ctx,
                &[&out.u, &out.v, &out.t, &out.dp3d],
                nlev,
                *tag,
                ex,
                stats,
            );
            // 3. interior elements overlap the communication.
            for &li in &plan.interior {
                update_element(kernels, ops, bops, rhs, dims, li, base, eval, phis, c_dt, out, scratch);
            }
            // 4. accumulate straight from the receive buffers.
            let mut arenas: [&mut [f64]; NFIELDS] =
                [&mut out.u, &mut out.v, &mut out.t, &mut out.dp3d];
            plan.finish_aggregated(ctx, &mut arenas, nlev, ex)
        }
    }
}

/// Distributed DSS of several flat arenas: one aggregated exchange in
/// `Redesigned` mode, the legacy per-(arena, level) staged exchange in
/// `Original` mode.
#[allow(clippy::too_many_arguments)]
fn dss_arenas(
    plan: &ExchangePlan,
    mode: ExchangeMode,
    ctx: &mut RankCtx,
    arenas: &mut [&mut [f64]],
    nlev: usize,
    ex: &mut ExchangeBuffers,
    stats: &mut CopyStats,
    tag: &mut u64,
) -> Result<(), CommError> {
    match mode {
        ExchangeMode::Redesigned => {
            *tag += 1;
            plan.dss_aggregated(ctx, arenas, nlev, *tag, ex, stats)
        }
        ExchangeMode::Original => {
            let fl = nlev * NPTS;
            let nelem = plan.owned.len();
            for arena in arenas.iter_mut() {
                for k in 0..nlev {
                    let mut level: Vec<Vec<f64>> = (0..nelem)
                        .map(|e| arena[e * fl + k * NPTS..e * fl + (k + 1) * NPTS].to_vec())
                        .collect();
                    *tag += 1;
                    plan.dss_level(ctx, &mut level, ExchangeMode::Original, *tag, || {}, stats)?;
                    for (e, l) in level.iter().enumerate() {
                        arena[e * fl + k * NPTS..e * fl + (k + 1) * NPTS].copy_from_slice(l);
                    }
                }
            }
            Ok(())
        }
    }
}

/// Aggregated DSS + optional limiter for one tracer stage — the
/// distributed counterpart of the serial driver's `finish_tracer_stage`.
#[allow(clippy::too_many_arguments)]
fn finish_stage(
    plan: &ExchangePlan,
    ops: &[ElemOps],
    dims: Dims,
    mode: ExchangeMode,
    limiter: bool,
    ctx: &mut RankCtx,
    qdp: &mut [f64],
    ex: &mut ExchangeBuffers,
    stats: &mut CopyStats,
    tag: &mut u64,
) -> Result<(), CommError> {
    {
        let mut arenas = [&mut *qdp];
        dss_arenas(plan, mode, ctx, &mut arenas, dims.qsize * dims.nlev, ex, stats, tag)?;
    }
    if limiter {
        limit_tracer_arena(ops, dims, qdp);
    }
    Ok(())
}

/// One tracer Euler substep over the owned elements:
/// `qdp_out = qdp_in + dt L(qdp_in)` with the flux divergence evaluated
/// against the (u, v, dp3d) arenas.
#[allow(clippy::too_many_arguments)]
fn tracer_substep(
    ops: &[ElemOps],
    dims: Dims,
    u: &[f64],
    v: &[f64],
    dp: &[f64],
    qdp_in: &[f64],
    dt: f64,
    qdp_out: &mut [f64],
) {
    let nlev = dims.nlev;
    let fl = dims.field_len();
    let tl = dims.tracer_len();
    for (e, op) in ops.iter().enumerate() {
        for q in 0..dims.qsize {
            for k in 0..nlev {
                let r = e * fl + k * NPTS..e * fl + (k + 1) * NPTS;
                let rq = e * tl + (q * nlev + k) * NPTS..e * tl + (q * nlev + k + 1) * NPTS;
                let mut tend = [0.0; NPTS];
                tracer_flux_divergence(
                    op,
                    &u[r.clone()],
                    &v[r.clone()],
                    &dp[r.clone()],
                    &qdp_in[rq.clone()],
                    &mut tend,
                );
                for (p, o) in qdp_out[rq.clone()].iter_mut().enumerate() {
                    *o = qdp_in[rq.start + p] + dt * tend[p];
                }
            }
        }
    }
}

/// One fused blocked tracer stage over the owned elements: flux
/// divergence, Euler update and SSP combine in a single pass per element,
/// bitwise identical to [`tracer_substep`] + the driver's combine loop.
#[allow(clippy::too_many_arguments)]
fn tracer_stage_blocked(
    bops: &[BlockedOps],
    dims: Dims,
    u: &[f64],
    v: &[f64],
    dp: &[f64],
    qdp_in: &[f64],
    q0: &[f64],
    dt: f64,
    combine: StageCombine,
    qdp_out: &mut [f64],
) {
    let fl = dims.field_len();
    let tl = dims.tracer_len();
    for (e, bop) in bops.iter().enumerate() {
        euler_stage_element_blocked(
            bop,
            dims.nlev,
            dims.qsize,
            &u[e * fl..(e + 1) * fl],
            &v[e * fl..(e + 1) * fl],
            &dp[e * fl..(e + 1) * fl],
            &qdp_in[e * tl..(e + 1) * tl],
            &q0[e * tl..(e + 1) * tl],
            dt,
            combine,
            &mut qdp_out[e * tl..(e + 1) * tl],
        );
    }
}

/// Element-local weak-form Laplacian of one arena (no DSS).
fn laplace_elems(ops: &[ElemOps], nlev: usize, field: &mut [f64]) {
    let fl = nlev * NPTS;
    for (e, op) in ops.iter().enumerate() {
        for k in 0..nlev {
            let r = e * fl + k * NPTS..e * fl + (k + 1) * NPTS;
            let mut lap = [0.0; NPTS];
            op.laplace_sphere_wk(&field[r.clone()], &mut lap);
            field[r].copy_from_slice(&lap);
        }
    }
}

/// Element-local vector Laplacian of `(u, v)` (no DSS).
fn vlaplace_elems(ops: &[ElemOps], nlev: usize, u: &mut [f64], v: &mut [f64]) {
    let fl = nlev * NPTS;
    for (e, op) in ops.iter().enumerate() {
        for k in 0..nlev {
            let r = e * fl + k * NPTS..e * fl + (k + 1) * NPTS;
            let mut lu = [0.0; NPTS];
            let mut lv = [0.0; NPTS];
            op.vlaplace_sphere(&u[r.clone()], &v[r.clone()], &mut lu, &mut lv);
            u[r.clone()].copy_from_slice(&lu);
            v[r].copy_from_slice(&lv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypervis::HypervisConfig;
    use crate::prim::{Dycore, DycoreConfig};
    use crate::state::State;
    use cubesphere::consts::P0;
    use swmpi::run_ranks;

    fn initial_state(dy: &Dycore) -> State {
        let mut st = dy.zero_state();
        let elems = dy.grid.elements.clone();
        let vert = dy.rhs.vert.clone();
        let nlev = dy.dims.nlev;
        for (es, el) in st.elems_mut().zip(&elems) {
            for p in 0..NPTS {
                let lat = el.metric[p].lat;
                let lon = el.metric[p].lon;
                let ps = P0 * (1.0 - 0.001 * (2.0 * lat).sin());
                for k in 0..nlev {
                    es.u[k * NPTS + p] = 12.0 * lat.cos();
                    es.v[k * NPTS + p] = 2.0 * lon.sin();
                    es.t[k * NPTS + p] = 280.0 + 5.0 * lat.cos() + k as f64;
                    es.dp3d[k * NPTS + p] = vert.dp_ref(k, ps);
                }
            }
        }
        st
    }

    fn seed_tracers(dy: &Dycore, st: &mut State) {
        let elems = dy.grid.elements.clone();
        let dims = dy.dims;
        for (es, el) in st.elems_mut().zip(&elems) {
            for p in 0..NPTS {
                for q in 0..dims.qsize {
                    for k in 0..dims.nlev {
                        es.qdp[(q * dims.nlev + k) * NPTS + p] = 0.004
                            * es.dp3d[k * NPTS + p]
                            * (1.0 + 0.3 * el.metric[p].lat.sin() + 0.1 * q as f64);
                    }
                }
            }
        }
    }

    /// The distributed dynamics step (both schedules) matches the serial
    /// Dycore to round-off after two full RK steps — and the redesigned
    /// schedule sends exactly one message per peer per RK substep.
    #[test]
    fn distributed_dynamics_matches_serial() {
        let ne = 3;
        let dims = Dims { nlev: 4, qsize: 0 };
        let cfg = DycoreConfig {
            dt: 300.0,
            hypervis: HypervisConfig::off(),
            limiter: false,
            rsplit: 1,
        };
        let mut serial = Dycore::new(ne, dims, 2000.0, cfg);
        let mut st = initial_state(&serial);
        let initial = st.clone();
        serial.dynamics_step(&mut st);
        serial.dynamics_step(&mut st);

        for mode in [ExchangeMode::Original, ExchangeMode::Redesigned] {
            let nranks = 5;
            let grid = CubedSphere::new(ne);
            let part = Partition::new(&grid, nranks);
            let results = run_ranks(nranks, |ctx| {
                let mut dist =
                    DistDycore::new(&grid, &part, ctx.rank(), dims, 2000.0, cfg, mode);
                let mut local = dist.local_state(&initial);
                dist.dynamics_step(ctx, &mut local).expect("dynamics step");
                dist.dynamics_step(ctx, &mut local).expect("dynamics step");
                assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
                let npeers = dist.plan.links.len() as u64;
                if mode == ExchangeMode::Redesigned {
                    assert_eq!(dist.stats.staged_bytes, 0, "redesign stages nothing");
                    // 2 steps x 5 RK substeps, ONE message per peer each.
                    assert_eq!(dist.stats.msgs_sent, 10 * npeers);
                    assert_eq!(ctx.comm.stats().sends, 10 * npeers);
                } else {
                    // Legacy: one message per peer per (field, level).
                    assert_eq!(
                        dist.stats.msgs_sent,
                        10 * NFIELDS as u64 * dims.nlev as u64 * npeers
                    );
                }
                (dist.plan.owned.clone(), local)
            });
            for (owned, local) in results {
                for (li, e) in owned.into_iter().enumerate() {
                    let es = local.elem(li);
                    let reference = st.elem(e);
                    for i in 0..dims.field_len() {
                        assert!(
                            (es.u[i] - reference.u[i]).abs() < 1e-9,
                            "{mode:?} elem {e} u[{i}]: {} vs {}",
                            es.u[i],
                            reference.u[i]
                        );
                        assert!((es.t[i] - reference.t[i]).abs() < 1e-9);
                        assert!((es.dp3d[i] - reference.dp3d[i]).abs() < 1e-9);
                    }
                }
            }
        }
    }

    fn assert_states_match(
        owned: &[usize],
        local: &State,
        reference: &State,
        dims: Dims,
        tol: f64,
        qtol: f64,
    ) {
        for (li, &e) in owned.iter().enumerate() {
            let es = local.elem(li);
            let rs = reference.elem(e);
            for i in 0..dims.field_len() {
                assert!(
                    (es.u[i] - rs.u[i]).abs() < tol,
                    "elem {e} u[{i}]: {} vs {}",
                    es.u[i],
                    rs.u[i]
                );
                assert!((es.v[i] - rs.v[i]).abs() < tol);
                assert!((es.t[i] - rs.t[i]).abs() < tol);
                assert!((es.dp3d[i] - rs.dp3d[i]).abs() < tol);
            }
            for i in 0..dims.tracer_len() {
                assert!(
                    (es.qdp[i] - rs.qdp[i]).abs() < qtol,
                    "elem {e} qdp[{i}]: {} vs {}",
                    es.qdp[i],
                    rs.qdp[i]
                );
            }
        }
    }

    /// The complete distributed step — dynamics + hyperviscosity + tracer
    /// advection + vertical remap — matches the serial driver.
    #[test]
    fn full_distributed_step_matches_serial() {
        let ne = 3;
        let dims = Dims { nlev: 4, qsize: 1 };
        let nu = 1.0e15;
        let hv = HypervisConfig { nu, nu_p: nu, subcycles: 3, nu_top: 0.0, sponge_layers: 0 };
        let cfg = DycoreConfig { dt: 300.0, hypervis: hv, limiter: false, rsplit: 1 };
        let mut serial = Dycore::new(ne, dims, 2000.0, cfg);
        let mut st = initial_state(&serial);
        seed_tracers(&serial, &mut st);
        let initial = st.clone();
        serial.step(&mut st);

        let nranks = 4;
        let grid = CubedSphere::new(ne);
        let part = Partition::new(&grid, nranks);
        let results = run_ranks(nranks, |ctx| {
            let mut dist = DistDycore::new(
                &grid,
                &part,
                ctx.rank(),
                dims,
                2000.0,
                cfg,
                ExchangeMode::Redesigned,
            );
            let mut local = dist.local_state(&initial);
            dist.step(ctx, &mut local).expect("step");
            assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
            (dist.plan.owned.clone(), local)
        });
        for (owned, local) in results {
            assert_states_match(&owned, &local, &st, dims, 1e-8, 1e-10);
        }
    }

    /// Same, with the previously-broken configuration: limiter on and a
    /// full hyperviscosity config with `nu_p != nu`, `nu_top > 0` and
    /// active sponge layers. Both exchange schedules must track the
    /// serial driver.
    #[test]
    fn full_distributed_step_matches_serial_with_limiter_and_sponge() {
        let ne = 3;
        let dims = Dims { nlev: 4, qsize: 2 };
        let nu = 1.0e15;
        let hv = HypervisConfig {
            nu,
            nu_p: 1.7 * nu,
            subcycles: 3,
            nu_top: 2.5e5,
            sponge_layers: 2,
        };
        let cfg = DycoreConfig { dt: 300.0, hypervis: hv, limiter: true, rsplit: 1 };
        let mut serial = Dycore::new(ne, dims, 2000.0, cfg);
        let mut st = initial_state(&serial);
        seed_tracers(&serial, &mut st);
        let initial = st.clone();
        serial.step(&mut st);
        serial.step(&mut st);

        for mode in [ExchangeMode::Original, ExchangeMode::Redesigned] {
            let nranks = 4;
            let grid = CubedSphere::new(ne);
            let part = Partition::new(&grid, nranks);
            let results = run_ranks(nranks, |ctx| {
                let mut dist =
                    DistDycore::new(&grid, &part, ctx.rank(), dims, 2000.0, cfg, mode);
                assert_eq!(
                    dist.hypervis_subcycles(),
                    3,
                    "distributed subcycles must match the serial formula"
                );
                let mut local = dist.local_state(&initial);
                dist.step(ctx, &mut local).expect("step");
                dist.step(ctx, &mut local).expect("step");
                assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
                (dist.plan.owned.clone(), local)
            });
            for (owned, local) in results {
                assert_states_match(&owned, &local, &st, dims, 1e-8, 1e-9);
            }
        }
    }

    /// Message accounting across the whole step: the redesigned schedule
    /// aggregates every exchange (RK substeps, sponge, hyperviscosity
    /// Laplacians, tracer stages) into exactly one message per peer, with
    /// zero staging bytes.
    #[test]
    fn redesigned_step_sends_one_message_per_peer_per_exchange() {
        let ne = 3;
        let dims = Dims { nlev: 4, qsize: 1 };
        let nu = 1.0e15;
        let hv = HypervisConfig {
            nu,
            nu_p: nu,
            subcycles: 2,
            nu_top: 2.5e5,
            sponge_layers: 2,
        };
        let cfg = DycoreConfig { dt: 300.0, hypervis: hv, limiter: true, rsplit: 1 };
        let grid = CubedSphere::new(ne);
        let nranks = 4;
        let part = Partition::new(&grid, nranks);
        let serial = Dycore::new(ne, dims, 2000.0, cfg);
        let mut init = initial_state(&serial);
        seed_tracers(&serial, &mut init);
        run_ranks(nranks, |ctx| {
            let mut dist = DistDycore::new(
                &grid,
                &part,
                ctx.rank(),
                dims,
                2000.0,
                cfg,
                ExchangeMode::Redesigned,
            );
            let mut local = dist.local_state(&init);
            dist.step(ctx, &mut local).expect("step");
            // Exchanges per step: 5 RK substeps + 1 sponge + 2 Laplacian
            // applications per hypervis subcycle + 3 tracer stages.
            let n_exchanges = (5 + 1 + 2 * dist.hypervis_subcycles() + 3) as u64;
            let npeers = dist.plan.links.len() as u64;
            assert_eq!(dist.stats.msgs_sent, n_exchanges * npeers);
            assert_eq!(ctx.comm.stats().sends, n_exchanges * npeers);
            assert_eq!(dist.stats.staged_bytes, 0);
            assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
        });
    }

    /// The boundary-only partial sums of start_aggregated are complete: a
    /// point shared with a peer never receives contributions from interior
    /// elements.
    #[test]
    fn shared_points_live_only_on_boundary_elements() {
        let grid = CubedSphere::new(4);
        for nranks in [3usize, 6, 10] {
            let part = Partition::new(&grid, nranks);
            for rank in 0..nranks {
                let plan = ExchangePlan::new(&grid, &part, rank);
                for &li in &plan.interior {
                    for p in 0..NPTS {
                        assert!(
                            !plan.gid_slot.contains_key(&plan.gids[li][p]),
                            "interior element {li} touches a peer-shared point"
                        );
                    }
                }
            }
        }
    }
}
