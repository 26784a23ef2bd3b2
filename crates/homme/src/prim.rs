//! `prim_run`: the dynamics driver.
//!
//! One dynamics step is the paper's kernel pipeline end to end:
//! a 5-stage Kinnmark–Gray second-order Runge–Kutta loop over
//! `compute_and_apply_rhs` (each stage followed by DSS), subcycled
//! hyperviscosity, the 3-stage SSP-RK2 `euler_step` for tracers, and
//! `vertical_remap` back to reference levels.
//!
//! The driver runs every per-element loop across the host cores through
//! the persistent [`ElemScheduler`]; the serial DSS between phases is the
//! synchronization point, so results are bitwise independent of thread
//! count. All temporaries live in the [`StepWorkspace`] owned by the
//! dycore — `step` allocates nothing on the heap (see the
//! `alloc_regression` test). The allocation-heavy seed implementation is
//! preserved in [`crate::seedref`] as the equivalence oracle.

use crate::deriv::{build_ops, ElemOps};
use crate::dss::Dss;
use crate::euler::{euler_stage_arena_blocked, euler_substep_flat, limit_tracer_arena};
use crate::health::{
    commit_scan, scan_stage, DegradePolicy, HealthConfig, HealthError, StepHealth, TRACER_STAGE,
};
use crate::hypervis::{
    biharmonic_flat, laplace_flat, vlaplace_flat, ElemHypervisPlan, HypervisConfig,
    MIN_GLL_GAP_METERS,
};
use crate::kernels::blocked::{
    build_blocked_ops, element_rhs_apply_blocked, hypervis_pass_element_blocked,
    hypervis_pass_levels_blocked, sponge_pass_element_blocked, BlockedOps, KernelPath,
    StageCombine,
};
use crate::kernels::blocked::remap_element_planned;
use crate::kernels::member_lanes::{
    element_rhs_apply_member_lanes, gather_member_tile, hypervis_pass_levels_member_lanes,
    hypervis_pass_member_lanes, scatter_member_tile, sponge_pass_member_lanes, MemberKernelPath,
};
use crate::remap::{remap_element_scalar, RemapError};
use crate::rhs::{element_rhs_raw, Rhs};
use crate::sched::{ArenaMut, ElemScheduler};
use crate::state::{Dims, State};
use crate::vert::VertCoord;
use crate::workspace::{DynFields, MemberLanes, StepWorkspace, WorkerScratch};
use cubesphere::{CubedSphere, NPTS};
use std::sync::Mutex;
use sw26010::V4F64;

/// Kinnmark–Gray 5-stage RK coefficients: stage `i` computes
/// `u_i = u_0 + c_i dt RHS(u_{i-1})`.
pub const KG5_COEFFS: [f64; 5] = [1.0 / 5.0, 1.0 / 5.0, 1.0 / 3.0, 1.0 / 2.0, 1.0];

/// The step schedule of [`Dycore::step`]. The bulk-synchronous pipeline
/// (a barrier DSS after every stage) is the only schedule; the type remains
/// only so the `perfbench` crate, which asserts `step_path ==
/// StepPath::Bulk`, compiles. No other value can be selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepPath {
    /// Stage-by-stage pipeline with a barrier DSS after every stage.
    #[default]
    Bulk,
}

/// Dycore configuration knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DycoreConfig {
    /// Dynamics time step, s.
    pub dt: f64,
    /// Hyperviscosity settings.
    pub hypervis: HypervisConfig,
    /// Apply the sign-preserving tracer limiter.
    pub limiter: bool,
    /// Apply vertical remap every `rsplit` dynamics steps.
    pub rsplit: usize,
}

impl DycoreConfig {
    /// Reasonable defaults for resolution `ne`: dt scaled from the CAM-SE
    /// rule of thumb (ne30 -> 300 s dynamics step).
    pub fn for_ne(ne: usize) -> Self {
        DycoreConfig {
            dt: 300.0 * 30.0 / ne as f64,
            hypervis: HypervisConfig::for_ne(ne),
            limiter: true,
            rsplit: 1,
        }
    }
}

/// The assembled single-rank dynamical core.
pub struct Dycore {
    /// The horizontal grid.
    pub grid: CubedSphere,
    /// Per-element operator tables.
    pub ops: Vec<ElemOps>,
    /// DSS engine.
    pub dss: Dss,
    /// RHS evaluator (owns the vertical coordinate).
    pub rhs: Rhs,
    /// Dimensions.
    pub dims: Dims,
    /// Configuration.
    pub cfg: DycoreConfig,
    /// Element scheduler (persistent worker pool).
    pub sched: ElemScheduler,
    /// In-step health guard configuration ([`Dycore::step_checked`]).
    pub health: HealthConfig,
    /// What a CFL breach does to the following steps.
    pub degrade: DegradePolicy,
    /// Which kernel implementation the step pipeline dispatches to
    /// (blocked by default; the scalar path is the parity oracle).
    pub kernels: KernelPath,
    /// The member-batched kernel family (single-variant; nothing reads it —
    /// see [`MemberKernelPath`]).
    pub member_kernels: MemberKernelPath,
    /// The step schedule (single-variant; nothing reads it — see
    /// [`StepPath`]).
    pub step_path: StepPath,
    bops: Vec<BlockedOps>,
    ws: StepWorkspace,
    steps_since_remap: usize,
    degrade_pending: usize,
    char_dx: f64,
}

/// Default worker count: `SWCAM_THREADS` if set, else available
/// parallelism capped at 8 (tests build many dycores; the cap keeps the
/// idle-thread count sane while the cap can be lifted per dycore with
/// [`Dycore::set_threads`]).
fn default_threads() -> usize {
    std::env::var("SWCAM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
        })
        .max(1)
}

impl Dycore {
    /// Build a dycore on an `ne` cubed sphere (Earth radius and rotation).
    pub fn new(ne: usize, dims: Dims, ptop: f64, cfg: DycoreConfig) -> Self {
        Self::from_grid(CubedSphere::new(ne), dims, ptop, cfg)
    }

    /// Build a dycore on an arbitrary (e.g. reduced-radius "small planet")
    /// grid.
    pub fn from_grid(grid: CubedSphere, dims: Dims, ptop: f64, cfg: DycoreConfig) -> Self {
        let ops = build_ops(&grid);
        let bops = build_blocked_ops(&ops);
        let dss = Dss::new(&grid);
        let vert = VertCoord::standard(dims.nlev, ptop);
        let rhs = Rhs::new(vert, dims);
        let sched = ElemScheduler::new(default_threads());
        let ws = StepWorkspace::new(dims, grid.nelem(), cfg.hypervis.sponge_layers, sched.nthreads());
        // Characteristic grid spacing for the advective CFL estimate: the
        // smallest GLL gap on a representative element (same geometry as
        // [`HypervisConfig::stable_subcycles`], identical on every rank),
        // floored at [`MIN_GLL_GAP_METERS`] so a degenerate metric cannot
        // zero the CFL denominator.
        let el = &grid.elements[0];
        let ref_gap = 1.0 - 1.0 / 5.0_f64.sqrt();
        let char_dx =
            (ref_gap * 0.5 * el.dab * el.metric[0].metdet.sqrt()).max(MIN_GLL_GAP_METERS);
        Dycore {
            grid,
            ops,
            dss,
            rhs,
            dims,
            cfg,
            sched,
            health: HealthConfig::default(),
            degrade: DegradePolicy::default(),
            kernels: KernelPath::default(),
            member_kernels: MemberKernelPath::default(),
            step_path: StepPath::default(),
            bops,
            ws,
            steps_since_remap: 0,
            degrade_pending: 0,
            char_dx,
        }
    }

    /// Replace the scheduler with an `n`-worker pool (and per-worker
    /// scratch to match). `n = 1` forces serial execution.
    pub fn set_threads(&mut self, n: usize) {
        self.sched = ElemScheduler::new(n.max(1));
        self.ws = StepWorkspace::new(
            self.dims,
            self.grid.nelem(),
            self.cfg.hypervis.sponge_layers,
            self.sched.nthreads(),
        );
    }

    /// Fresh zero state sized for this dycore.
    pub fn zero_state(&self) -> State {
        State::zeros(self.dims, self.grid.nelem())
    }

    /// Advance the dynamics (u, v, T, dp3d) by one dt with the 5-stage RK.
    pub fn dynamics_step(&mut self, state: &mut State) {
        let dt = self.cfg.dt;
        let Dycore { ops, dss, rhs, dims, sched, ws, kernels, bops, .. } = self;
        ws.base.copy_from_state(state);
        ws.stage.copy_from_state(state);
        for &c in &KG5_COEFFS {
            rk_substep(
                *kernels,
                ops,
                bops,
                dss,
                rhs,
                *dims,
                sched,
                &ws.workers,
                &ws.base,
                &ws.stage,
                &state.phis,
                c * dt,
                &mut ws.next,
            );
            std::mem::swap(&mut ws.stage, &mut ws.next);
        }
        state.u.copy_from_slice(&ws.stage.u);
        state.v.copy_from_slice(&ws.stage.v);
        state.t.copy_from_slice(&ws.stage.t);
        state.dp3d.copy_from_slice(&ws.stage.dp3d);
    }

    /// Stability-limited hyperviscosity subcycle count
    /// ([`HypervisConfig::stable_subcycles`] on a representative element).
    pub fn hypervis_subcycles(&self) -> usize {
        let el = &self.grid.elements[0];
        self.cfg.hypervis.stable_subcycles(el.dab, el.metric[0].metdet, self.cfg.dt)
    }

    /// Apply subcycled biharmonic hyperviscosity to u, v, T, dp3d.
    ///
    /// # Errors
    /// [`HealthError::Hypervis`] when the per-step plan rejects a corrupt
    /// element metric or a non-finite step coefficient; the state is
    /// untouched on `Err` (the plan is built before any field is written).
    pub fn apply_hypervis(&mut self, state: &mut State) -> Result<(), HealthError> {
        let subcycles = self.hypervis_subcycles();
        self.apply_hypervis_n(state, subcycles)
    }

    /// [`Dycore::apply_hypervis`] with an explicit subcycle count (the
    /// degradation policy adds extra subcycles on top of the stable count).
    ///
    /// Both kernel paths vet the grid and hoist the subcycle/sponge
    /// coefficient products through [`ElemHypervisPlan`] once per step, so
    /// a corrupt element is rejected identically either way. The blocked
    /// path then runs each subcycle as fused per-element sweeps — one
    /// coefficient walk produces the Laplacians of all four fields — with
    /// the forward-Euler damping folded into the DSS scatter
    /// ([`Dss::apply_flat_scaled_add`]); the scalar path keeps the seed's
    /// copy + per-field Laplacian + separate apply structure as the
    /// bitwise oracle.
    pub fn apply_hypervis_n(
        &mut self,
        state: &mut State,
        subcycles: usize,
    ) -> Result<(), HealthError> {
        let hv = self.cfg.hypervis;
        if hv.nu == 0.0 && hv.nu_p == 0.0 {
            return Ok(());
        }
        let Dycore { ops, dss, dims, cfg, sched, ws, kernels, bops, .. } = self;
        let kernels = *kernels;
        let nlev = dims.nlev;
        let fl = dims.field_len();
        ws.hv_plan.build(&hv, cfg.dt, subcycles, nlev, ops)?;
        if let KernelPath::Blocked = kernels {
            hypervis_blocked(sched, dss, bops, ws, &hv, nlev, fl, state, subcycles);
            return Ok(());
        }
        // Top-of-model sponge: ordinary Laplacian damping on the top
        // layers (sign +nu_top lap, i.e. diffusion).
        if hv.nu_top > 0.0 && hv.sponge_layers > 0 {
            let ks = hv.sponge_layers.min(nlev);
            let sl = ks * NPTS;
            for e in 0..ops.len() {
                ws.sponge_u[e * sl..(e + 1) * sl].copy_from_slice(&state.u[e * fl..e * fl + sl]);
                ws.sponge_v[e * sl..(e + 1) * sl].copy_from_slice(&state.v[e * fl..e * fl + sl]);
                ws.sponge_t[e * sl..(e + 1) * sl].copy_from_slice(&state.t[e * fl..e * fl + sl]);
            }
            vlaplace_flat(ops, dss, sched, ks, &mut ws.sponge_u, &mut ws.sponge_v);
            laplace_flat(ops, dss, sched, ks, &mut ws.sponge_t);
            for e in 0..ops.len() {
                for (k_rel, damp) in (0..ks).map(|k| (k, 1.0 / (1 << k) as f64)) {
                    for p in 0..NPTS {
                        let i = k_rel * NPTS + p;
                        let si = e * sl + i;
                        let gi = e * fl + i;
                        state.u[gi] += cfg.dt * hv.nu_top * damp * ws.sponge_u[si];
                        state.v[gi] += cfg.dt * hv.nu_top * damp * ws.sponge_v[si];
                        state.t[gi] += cfg.dt * hv.nu_top * damp * ws.sponge_t[si];
                    }
                }
            }
        }
        let dt_sub = cfg.dt / subcycles as f64;
        for _ in 0..subcycles {
            ws.hyp.copy_from_state(state);
            // del^4 via two Laplacians with DSS (vector Laplacian for wind).
            vlaplace_flat(ops, dss, sched, nlev, &mut ws.hyp.u, &mut ws.hyp.v);
            vlaplace_flat(ops, dss, sched, nlev, &mut ws.hyp.u, &mut ws.hyp.v);
            biharmonic_flat(ops, dss, sched, nlev, &mut ws.hyp.t);
            biharmonic_flat(ops, dss, sched, nlev, &mut ws.hyp.dp3d);
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

    /// Member-batched hyperviscosity: apply the subcycled biharmonic
    /// operator to the listed `members` of `states` with the step plan
    /// built **once** and shared by every member. Each *full* group of four
    /// members runs on lane-transposed tiles — one `V4F64` per grid value
    /// whose lanes are members, coefficients splat — so one coefficient
    /// walk and one DSS assembly walk serve the whole group. The ragged
    /// tail (N mod 4 members) runs member-serially through the standalone
    /// blocked sweep against the same plan, since a partial lane group
    /// pays the whole 4-wide arithmetic.
    ///
    /// `members` must be strictly increasing indices into `states`, at most
    /// `ens.lanes()` of them. Member `m`'s result is bitwise identical to
    /// [`Dycore::apply_hypervis_n`] on member `m` alone: lane `m` replays
    /// the member's standalone scalar sequence, the shared
    /// [`ElemHypervisPlan`] depends only on the grid and step configuration
    /// (never on member state), and the per-lane DSS keeps the standalone
    /// accumulation order. On the scalar kernel path this falls back to the
    /// per-member oracle loop.
    ///
    /// # Errors
    /// [`HealthError::Hypervis`] when the shared plan rejects a corrupt
    /// element metric or non-finite coefficient; no member is touched on
    /// `Err` (the plan is built before any field is written).
    pub fn apply_hypervis_members(
        &mut self,
        states: &mut [State],
        members: &[usize],
        ens: &mut crate::workspace::EnsembleWorkspace,
        subcycles: usize,
    ) -> Result<(), HealthError> {
        let hv = self.cfg.hypervis;
        if members.is_empty() || (hv.nu == 0.0 && hv.nu_p == 0.0) {
            return Ok(());
        }
        assert!(members.len() <= ens.lanes(), "more members than ensemble lanes");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]) && *members.last().unwrap() < states.len(),
            "members must be strictly increasing indices into states"
        );
        if let KernelPath::Scalar = self.kernels {
            for &m in members {
                self.apply_hypervis_n(&mut states[m], subcycles)?;
            }
            return Ok(());
        }
        let Dycore { ops, dss, dims, cfg, sched, ws, bops, .. } = self;
        let nlev = dims.nlev;
        let fl = dims.field_len();
        ws.hv_plan.build(&hv, cfg.dt, subcycles, nlev, ops)?;
        let nelem = ops.len();
        // Disjointness: `members` is strictly increasing (asserted above),
        // so the raw-pointer reborrows below hand out non-aliasing `&mut`s.
        let base = states.as_mut_ptr();
        let mut done = 0;
        while members.len() - done >= 4 {
            let idx = &members[done..done + 4];
            let group: [&mut State; 4] =
                core::array::from_fn(|m| unsafe { &mut *base.add(idx[m]) });
            hypervis_members_lanes::<4>(
                sched, dss, bops, &ws.hv_plan, &hv, nlev, fl, nelem, &mut ens.tiles, group,
                subcycles,
            );
            done += 4;
        }
        for &m in &members[done..] {
            hypervis_blocked(sched, dss, bops, ws, &hv, nlev, fl, &mut states[m], subcycles);
        }
        Ok(())
    }

    /// Member-batched dynamics: advance the listed `members` of `states`
    /// by one dt of the 5-stage RK, batching up to four members per sweep
    /// through the lane-transposed RHS kernel
    /// ([`element_rhs_apply_member_lanes`]) so one coefficient walk and one
    /// DSS assembly walk serve the whole sweep. Member `m`'s result is
    /// bitwise identical to [`Dycore::dynamics_step`] on member `m` alone:
    /// lane `m` replays the blocked kernel's exact per-member scalar
    /// sequence and the lane DSS keeps the canonical accumulation order
    /// per lane. The ragged tail (N mod 4 members) and every member on the
    /// scalar kernel path take the per-member step.
    pub fn dynamics_step_members(
        &mut self,
        states: &mut [State],
        members: &[usize],
        ens: &mut crate::workspace::EnsembleWorkspace,
    ) {
        if members.is_empty() {
            return;
        }
        assert!(
            members.windows(2).all(|w| w[0] < w[1]) && *members.last().unwrap() < states.len(),
            "members must be strictly increasing indices into states"
        );
        let mut done = 0;
        if let KernelPath::Blocked = self.kernels {
            let dt = self.cfg.dt;
            let Dycore { dss, rhs, dims, sched, ws, bops, .. } = self;
            let nlev = dims.nlev;
            let fl = dims.field_len();
            let ptop = rhs.vert.ptop();
            let nelem = bops.len();
            // Disjointness: `members` is strictly increasing (asserted
            // above), so the raw-pointer reborrows below hand out
            // non-aliasing `&mut`s. Full groups of four only — a partial
            // lane group pays the whole 4-wide arithmetic, so the ragged
            // tail steps member-serially below instead.
            let base = states.as_mut_ptr();
            while members.len() - done >= 4 {
                let idx = &members[done..done + 4];
                let chunk: [&mut State; 4] =
                    core::array::from_fn(|m| unsafe { &mut *base.add(idx[m]) });
                dynamics_members_lanes::<4>(
                    sched,
                    dss,
                    bops,
                    &ws.workers,
                    nlev,
                    fl,
                    nelem,
                    ptop,
                    dt,
                    &mut ens.tiles,
                    chunk,
                );
                done += 4;
            }
        }
        for &m in &members[done..] {
            self.dynamics_step(&mut states[m]);
        }
    }

    /// Advance tracers by one dt with 3-stage SSP-RK2 (`euler_step`).
    pub fn euler_step_tracers(&mut self, state: &mut State) {
        if self.dims.qsize == 0 {
            return;
        }
        let dt = self.cfg.dt;
        let Dycore { ops, dss, dims, cfg, sched, ws, kernels, bops, .. } = self;
        ws.qdp0.copy_from_slice(&state.qdp);

        match kernels {
            KernelPath::Blocked => {
                // Fused stages: advect + SSP combine in one pass, with the
                // mass fluxes hoisted across the tracer loop.
                // Stage 1: q1 = q0 + dt L(q0)
                euler_stage_arena_blocked(
                    bops, *dims, sched, &state.u, &state.v, &state.dp3d, &ws.qdp0, &ws.qdp0, dt,
                    StageCombine::Replace, &mut ws.q1,
                );
                finish_tracer_stage(ops, dss, *dims, cfg.limiter, &mut ws.q1);
                // Stage 2: q2 = 3/4 q0 + 1/4 (q1 + dt L(q1))
                euler_stage_arena_blocked(
                    bops, *dims, sched, &state.u, &state.v, &state.dp3d, &ws.q1, &ws.qdp0, dt,
                    StageCombine::Ssp2, &mut ws.q2,
                );
                finish_tracer_stage(ops, dss, *dims, cfg.limiter, &mut ws.q2);
                // Stage 3: q^{n+1} = 1/3 q0 + 2/3 (q2 + dt L(q2))
                euler_stage_arena_blocked(
                    bops, *dims, sched, &state.u, &state.v, &state.dp3d, &ws.q2, &ws.qdp0, dt,
                    StageCombine::Ssp3, &mut state.qdp,
                );
                finish_tracer_stage(ops, dss, *dims, cfg.limiter, &mut state.qdp);
            }
            KernelPath::Scalar => {
                // Stage 1: q1 = q0 + dt L(q0)
                euler_substep_flat(ops, *dims, sched, &state.u, &state.v, &state.dp3d, &ws.qdp0, dt, &mut ws.q1);
                finish_tracer_stage(ops, dss, *dims, cfg.limiter, &mut ws.q1);
                // Stage 2: q2 = 3/4 q0 + 1/4 (q1 + dt L(q1))
                euler_substep_flat(ops, *dims, sched, &state.u, &state.v, &state.dp3d, &ws.q1, dt, &mut ws.qtmp);
                for (q2, (q0, t)) in ws.q2.iter_mut().zip(ws.qdp0.iter().zip(&ws.qtmp)) {
                    *q2 = 0.75 * q0 + 0.25 * t;
                }
                finish_tracer_stage(ops, dss, *dims, cfg.limiter, &mut ws.q2);
                // Stage 3: q^{n+1} = 1/3 q0 + 2/3 (q2 + dt L(q2))
                euler_substep_flat(ops, *dims, sched, &state.u, &state.v, &state.dp3d, &ws.q2, dt, &mut ws.qtmp);
                for (qf, (q0, t)) in state.qdp.iter_mut().zip(ws.qdp0.iter().zip(&ws.qtmp)) {
                    *qf = q0 / 3.0 + 2.0 / 3.0 * t;
                }
                finish_tracer_stage(ops, dss, *dims, cfg.limiter, &mut state.qdp);
            }
        }
    }

    /// Remap the column back to reference hybrid levels (`vertical_remap`).
    ///
    /// # Errors
    /// A collapsed Lagrangian layer or mass-inconsistent column surfaces as
    /// [`HealthError::Remap`] instead of panicking a worker thread, so the
    /// resilient driver can roll back to a checkpoint. On `Err` the state
    /// may hold partially remapped elements.
    pub fn vertical_remap(&mut self, state: &mut State) -> Result<(), HealthError> {
        let Dycore { ops, rhs, dims, sched, ws, kernels, .. } = self;
        let kernels = *kernels;
        let nlev = dims.nlev;
        let qsize = dims.qsize;
        let fl = dims.field_len();
        let tl = dims.tracer_len();
        let vert = &rhs.vert;
        let workers = &ws.workers;
        // First remap failure observed by any worker (workers cannot
        // propagate `?` through the scheduler closure).
        let failure: Mutex<Option<RemapError>> = Mutex::new(None);
        let au = ArenaMut::new(&mut state.u);
        let av = ArenaMut::new(&mut state.v);
        let at = ArenaMut::new(&mut state.t);
        let adp = ArenaMut::new(&mut state.dp3d);
        let aq = ArenaMut::new(&mut state.qdp);
        sched.run(ops.len(), &|w, e| {
            // One scratch slot per worker; windows are element-disjoint.
            let scratch = unsafe { workers.get(w) };
            let u = unsafe { au.slice(e * fl, fl) };
            let v = unsafe { av.slice(e * fl, fl) };
            let t = unsafe { at.slice(e * fl, fl) };
            let dp3d = unsafe { adp.slice(e * fl, fl) };
            let qdp = unsafe { aq.slice(e * tl, tl) };
            let res = match kernels {
                KernelPath::Blocked => {
                    // Build the dp3d-only plan once, then stream u/v/t and
                    // every tracer through its coefficient-apply pass.
                    let WorkerScratch { plan, apply, .. } = scratch;
                    plan.build(vert, nlev, dp3d).map(|()| {
                        remap_element_planned(plan, nlev, qsize, u, v, t, dp3d, qdp, apply)
                    })
                }
                KernelPath::Scalar => {
                    let WorkerScratch { remap, col_src, col_dst, col_val, col_out, .. } = scratch;
                    remap_element_scalar(
                        vert, nlev, qsize, u, v, t, dp3d, qdp, col_src, col_dst, col_val, col_out,
                        remap,
                    )
                }
            };
            if let Err(e) = res {
                *failure.lock().unwrap() = Some(e);
            }
        });
        match failure.into_inner().unwrap() {
            Some(e) => Err(HealthError::from(e)),
            None => Ok(()),
        }
    }

    /// One full model step: dynamics RK + hyperviscosity + tracer advection
    /// + (every `rsplit` steps) vertical remap. Heap-allocation-free.
    pub fn step(&mut self, state: &mut State) {
        self.dynamics_step(state);
        // The unguarded driver has no rollback path; a grid the
        // hyperviscosity plan rejects is fatal here.
        self.apply_hypervis(state).expect("hyperviscosity plan rejected");
        self.euler_step_tracers(state);
        self.steps_since_remap += 1;
        if self.steps_since_remap >= self.cfg.rsplit {
            // The unguarded driver has no rollback path to route the
            // verdict into; a broken column is fatal here.
            self.vertical_remap(state).expect("vertical remap failed");
            self.steps_since_remap = 0;
        }
    }

    /// [`Dycore::step`] with in-step health guards: every RK stage is
    /// scanned for non-finite values and collapsed layers, and the step's
    /// advective CFL number is estimated afterwards. A CFL breach arms the
    /// degradation policy, so the next [`DegradePolicy::halve_dt_steps`]
    /// steps run as two `dt/2` substeps with extra hyperviscosity
    /// subcycles. With guards disabled this is exactly [`Dycore::step`].
    ///
    /// On `Err` the state may hold a partially advanced step and must be
    /// restored from a checkpoint before continuing.
    pub fn step_checked(&mut self, state: &mut State) -> Result<StepHealth, HealthError> {
        if !self.health.enabled {
            self.step(state);
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
        for _ in 0..splits {
            if let Err(e) = self.dynamics_step_guarded(state, &mut health) {
                self.cfg.dt = full_dt;
                return Err(e);
            }
            let subcycles = self.hypervis_subcycles() + extra;
            if let Err(e) = self.apply_hypervis_n(state, subcycles) {
                self.cfg.dt = full_dt;
                return Err(e);
            }
            self.euler_step_tracers(state);
            // Post-advection scan covers the tracer arenas, which the RK
            // stage scans never see.
            let scan = scan_stage(&state.u, &state.v, &state.t, &state.dp3d, &state.qdp);
            if let Err(e) = commit_scan(&mut health, &self.health, TRACER_STAGE, scan) {
                self.cfg.dt = full_dt;
                return Err(e);
            }
        }
        self.cfg.dt = full_dt;
        self.steps_since_remap += 1;
        if self.steps_since_remap >= self.cfg.rsplit {
            self.vertical_remap(state)?;
            self.steps_since_remap = 0;
        }
        // CFL is judged against the nominal dt: while winds stay too fast
        // for the full step, degraded (halved-dt) stepping keeps re-arming.
        health.cfl = health.max_wind * full_dt / self.char_dx;
        if health.cfl > self.health.cfl_limit {
            self.degrade_pending = self.degrade_pending.max(self.degrade.halve_dt_steps);
        }
        Ok(health)
    }

    /// [`Dycore::dynamics_step`] with a health scan after each RK stage.
    fn dynamics_step_guarded(
        &mut self,
        state: &mut State,
        health: &mut StepHealth,
    ) -> Result<(), HealthError> {
        let dt = self.cfg.dt;
        let hcfg = self.health;
        let Dycore { ops, dss, rhs, dims, sched, ws, kernels, bops, .. } = self;
        ws.base.copy_from_state(state);
        ws.stage.copy_from_state(state);
        for (stage, &c) in KG5_COEFFS.iter().enumerate() {
            rk_substep(
                *kernels,
                ops,
                bops,
                dss,
                rhs,
                *dims,
                sched,
                &ws.workers,
                &ws.base,
                &ws.stage,
                &state.phis,
                c * dt,
                &mut ws.next,
            );
            let scan = scan_stage(&ws.next.u, &ws.next.v, &ws.next.t, &ws.next.dp3d, &[]);
            commit_scan(health, &hcfg, stage, scan)?;
            std::mem::swap(&mut ws.stage, &mut ws.next);
        }
        state.u.copy_from_slice(&ws.stage.u);
        state.v.copy_from_slice(&ws.stage.v);
        state.t.copy_from_slice(&ws.stage.t);
        state.dp3d.copy_from_slice(&ws.stage.dp3d);
        Ok(())
    }

    /// How many dynamics steps have run since the last vertical remap.
    /// Checkpoints record this so a restart resumes the remap cadence
    /// bitwise-identically.
    pub fn remap_phase(&self) -> usize {
        self.steps_since_remap
    }

    /// Restore the remap cadence (checkpoint restart).
    pub fn set_remap_phase(&mut self, phase: usize) {
        self.steps_since_remap = phase;
    }

    /// Steps still owed to the degradation policy (0 = healthy cadence).
    pub fn degrade_pending(&self) -> usize {
        self.degrade_pending
    }

    /// Global dry-air mass (`integral of sum_k dp3d dA`), Pa m^2.
    pub fn total_mass(&self, state: &State) -> f64 {
        let fields: Vec<Vec<f64>> = state
            .elems()
            .map(|es| {
                (0..NPTS)
                    .map(|p| (0..self.dims.nlev).map(|k| es.dp3d[k * NPTS + p]).sum())
                    .collect()
            })
            .collect();
        self.grid.global_integral(&fields)
    }

    /// Global mass of tracer `q`.
    pub fn total_tracer_mass(&self, state: &State, q: usize) -> f64 {
        let nlev = self.dims.nlev;
        let fields: Vec<Vec<f64>> = state
            .elems()
            .map(|es| {
                (0..NPTS)
                    .map(|p| (0..nlev).map(|k| es.qdp[(q * nlev + k) * NPTS + p]).sum())
                    .collect()
            })
            .collect();
        self.grid.global_integral(&fields)
    }

    /// Maximum wind speed (stability diagnostic).
    pub fn max_wind(&self, state: &State) -> f64 {
        let mut m: f64 = 0.0;
        for (u, v) in state.u.iter().zip(&state.v) {
            m = m.max((u * u + v * v).sqrt());
        }
        m
    }
}

/// One explicit sub-step across all elements: `out = base + c dt
/// RHS(eval)`, then DSS. RHS evaluations run on the scheduler with
/// per-worker scratch — the fused blocked kernel or the scalar
/// raw-tendency + apply pair, bitwise identical either way; the DSS is
/// serial and bitwise identical to the per-element path.
#[allow(clippy::too_many_arguments)]
fn rk_substep(
    kernels: KernelPath,
    ops: &[ElemOps],
    bops: &[BlockedOps],
    dss: &mut Dss,
    rhs: &Rhs,
    dims: Dims,
    sched: &ElemScheduler,
    workers: &crate::sched::PerWorker<WorkerScratch>,
    base: &DynFields,
    eval: &DynFields,
    phis: &[f64],
    c_dt: f64,
    out: &mut DynFields,
) {
    let nlev = dims.nlev;
    let fl = dims.field_len();
    let ptop = rhs.vert.ptop();
    {
        let ou = ArenaMut::new(&mut out.u);
        let ov = ArenaMut::new(&mut out.v);
        let ot = ArenaMut::new(&mut out.t);
        let odp = ArenaMut::new(&mut out.dp3d);
        sched.run(ops.len(), &|w, e| {
            let scratch = unsafe { workers.get(w) };
            let WorkerScratch { tend, rhs: rhs_scratch, .. } = scratch;
            let r = e * fl..(e + 1) * fl;
            let ou = unsafe { ou.slice(e * fl, fl) };
            let ov = unsafe { ov.slice(e * fl, fl) };
            let ot = unsafe { ot.slice(e * fl, fl) };
            let odp = unsafe { odp.slice(e * fl, fl) };
            match kernels {
                KernelPath::Blocked => element_rhs_apply_blocked(
                    &bops[e],
                    nlev,
                    ptop,
                    &eval.u[r.clone()],
                    &eval.v[r.clone()],
                    &eval.t[r.clone()],
                    &eval.dp3d[r.clone()],
                    &phis[e * NPTS..(e + 1) * NPTS],
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
                ),
                KernelPath::Scalar => {
                    element_rhs_raw(
                        &ops[e],
                        nlev,
                        ptop,
                        &eval.u[r.clone()],
                        &eval.v[r.clone()],
                        &eval.t[r.clone()],
                        &eval.dp3d[r.clone()],
                        &phis[e * NPTS..(e + 1) * NPTS],
                        &mut tend.u,
                        &mut tend.v,
                        &mut tend.t,
                        &mut tend.dp3d,
                        rhs_scratch,
                    );
                    for i in 0..fl {
                        ou[i] = base.u[r.start + i] + c_dt * tend.u[i];
                        ov[i] = base.v[r.start + i] + c_dt * tend.v[i];
                        ot[i] = base.t[r.start + i] + c_dt * tend.t[i];
                        odp[i] = base.dp3d[r.start + i] + c_dt * tend.dp3d[i];
                    }
                }
            }
        });
    }
    // DSS the four updated prognostics (serial synchronization point).
    dss.apply_flat(&mut out.u, nlev);
    dss.apply_flat(&mut out.v, nlev);
    dss.apply_flat(&mut out.t, nlev);
    dss.apply_flat(&mut out.dp3d, nlev);
}

/// DSS + optional limiter for one tracer stage on a flat tracer arena.
fn finish_tracer_stage(ops: &[ElemOps], dss: &mut Dss, dims: Dims, limiter: bool, qdp: &mut [f64]) {
    dss.apply_flat(qdp, dims.qsize * dims.nlev);
    if limiter {
        limit_tracer_arena(ops, dims, qdp);
    }
}

/// The blocked arm of [`Dycore::apply_hypervis_n`] on one state, with the
/// step plan `ws.hv_plan` already built: the fused sponge sweep, then per
/// subcycle the fused first Laplacian straight from the state into the hyp
/// arenas, one DSS, the in-place second Laplacian, and the damping folded
/// into the DSS scatter. The member-batched driver runs ragged tails
/// through it member by member against its one shared plan.
#[allow(clippy::too_many_arguments)]
fn hypervis_blocked(
    sched: &ElemScheduler,
    dss: &mut Dss,
    bops: &[BlockedOps],
    ws: &mut StepWorkspace,
    hv: &HypervisConfig,
    nlev: usize,
    fl: usize,
    state: &mut State,
    subcycles: usize,
) {
    let StepWorkspace { hv_plan: plan, hyp, sponge_u, sponge_v, sponge_t, .. } = ws;
    let nelem = bops.len();
    // Top-of-model sponge: ordinary Laplacian damping on the top
    // layers (sign +nu_top lap, i.e. diffusion). The fused element
    // pass reads the state directly (no staging copy) and the
    // damping increment rides the DSS scatter.
    if hv.nu_top > 0.0 && hv.sponge_layers > 0 {
        let ks = plan.ks;
        let sl = ks * NPTS;
        {
            let ou = ArenaMut::new(sponge_u);
            let ov = ArenaMut::new(sponge_v);
            let ot = ArenaMut::new(sponge_t);
            let (su, sv, st): (&[f64], &[f64], &[f64]) =
                (&state.u, &state.v, &state.t);
            sched.run(nelem, &|_w, e| {
                let (ou, ov, ot) = unsafe {
                    (ou.slice(e * sl, sl), ov.slice(e * sl, sl), ot.slice(e * sl, sl))
                };
                sponge_pass_element_blocked(
                    &bops[e],
                    ks,
                    &su[e * fl..e * fl + sl],
                    &sv[e * fl..e * fl + sl],
                    &st[e * fl..e * fl + sl],
                    ou,
                    ov,
                    ot,
                );
            });
        }
        dss.apply_flat_scaled_add(sponge_u, ks, &plan.sponge, &mut state.u, fl);
        dss.apply_flat_scaled_add(sponge_v, ks, &plan.sponge, &mut state.v, fl);
        dss.apply_flat_scaled_add(sponge_t, ks, &plan.sponge, &mut state.t, fl);
    }
    for _ in 0..subcycles {
        // First Laplacian of (u, v, T, dp3d): one fused coefficient
        // walk per element, straight from the state into the hyp
        // arenas.
        {
            let ou = ArenaMut::new(&mut hyp.u);
            let ov = ArenaMut::new(&mut hyp.v);
            let ot = ArenaMut::new(&mut hyp.t);
            let odp = ArenaMut::new(&mut hyp.dp3d);
            let (su, sv, st, sdp): (&[f64], &[f64], &[f64], &[f64]) =
                (&state.u, &state.v, &state.t, &state.dp3d);
            sched.run(nelem, &|_w, e| {
                let r = e * fl..(e + 1) * fl;
                let (ou, ov, ot, odp) = unsafe {
                    (
                        ou.slice(e * fl, fl),
                        ov.slice(e * fl, fl),
                        ot.slice(e * fl, fl),
                        odp.slice(e * fl, fl),
                    )
                };
                hypervis_pass_element_blocked(
                    &bops[e],
                    nlev,
                    &su[r.clone()],
                    &sv[r.clone()],
                    &st[r.clone()],
                    &sdp[r],
                    ou,
                    ov,
                    ot,
                    odp,
                );
            });
        }
        dss.apply_flat4(
            [&mut hyp.u, &mut hyp.v, &mut hyp.t, &mut hyp.dp3d],
            nlev,
        );
        // Second Laplacian in place (del^4 = lap(lap)).
        {
            let au = ArenaMut::new(&mut hyp.u);
            let av = ArenaMut::new(&mut hyp.v);
            let at = ArenaMut::new(&mut hyp.t);
            let adp = ArenaMut::new(&mut hyp.dp3d);
            sched.run(nelem, &|_w, e| {
                let (u, v, t, dp) = unsafe {
                    (
                        au.slice(e * fl, fl),
                        av.slice(e * fl, fl),
                        at.slice(e * fl, fl),
                        adp.slice(e * fl, fl),
                    )
                };
                hypervis_pass_levels_blocked(&bops[e], nlev, u, v, t, dp);
            });
        }
        // Final DSS fused with the forward-Euler apply: the plan's
        // negated `dt_sub * nu` coefficients turn `x -= c * lap`
        // into the scatter's `x += (-c) * lap` bitwise-identically,
        // and all four fields ride one walk of the assembly map.
        dss.apply_flat_scaled_add4(
            [&hyp.u, &hyp.v, &hyp.t, &hyp.dp3d],
            nlev,
            [&plan.damp_u, &plan.damp_u, &plan.damp_u, &plan.damp_dp],
            [&mut state.u, &mut state.v, &mut state.t, &mut state.dp3d],
            fl,
        );
    }
}

/// Subcycled biharmonic hyperviscosity for one lane sweep of `M` ensemble
/// members (`1..=4`) on the lane-transposed tiles: gather the members'
/// prognostics into the shared `stage` tile (a short sweep duplicates the
/// last member into the dead lanes), run the sponge and subcycle phases of
/// [`hypervis_blocked`] entirely on tiles — one coefficient walk and one
/// DSS assembly walk per phase serve every lane — and scatter the live
/// lanes back. Lane `m` replays member `m`'s
/// standalone scalar sequence at every point (kernels and DSS alike), so
/// the committed bits match the single-member path per member.
#[allow(clippy::too_many_arguments)]
fn hypervis_members_lanes<const M: usize>(
    sched: &ElemScheduler,
    dss: &mut Dss,
    bops: &[BlockedOps],
    plan: &ElemHypervisPlan,
    hv: &HypervisConfig,
    nlev: usize,
    fl: usize,
    nelem: usize,
    tiles: &mut MemberLanes,
    mut states: [&mut State; M],
    subcycles: usize,
) {
    {
        let srcs: [&[f64]; M] = core::array::from_fn(|m| &states[m].u[..]);
        gather_member_tile(&srcs, &mut tiles.stage.u);
        let srcs: [&[f64]; M] = core::array::from_fn(|m| &states[m].v[..]);
        gather_member_tile(&srcs, &mut tiles.stage.v);
        let srcs: [&[f64]; M] = core::array::from_fn(|m| &states[m].t[..]);
        gather_member_tile(&srcs, &mut tiles.stage.t);
        let srcs: [&[f64]; M] = core::array::from_fn(|m| &states[m].dp3d[..]);
        gather_member_tile(&srcs, &mut tiles.stage.dp3d);
    }
    hypervis_lanes_core(sched, dss, bops, plan, hv, nlev, fl, nelem, tiles, subcycles);
    {
        let mut it = states.iter_mut();
        let mut dsts: [&mut [f64]; M] = core::array::from_fn(|_| &mut it.next().unwrap().u[..]);
        scatter_member_tile(&tiles.stage.u, &mut dsts);
        let mut it = states.iter_mut();
        let mut dsts: [&mut [f64]; M] = core::array::from_fn(|_| &mut it.next().unwrap().v[..]);
        scatter_member_tile(&tiles.stage.v, &mut dsts);
        let mut it = states.iter_mut();
        let mut dsts: [&mut [f64]; M] = core::array::from_fn(|_| &mut it.next().unwrap().t[..]);
        scatter_member_tile(&tiles.stage.t, &mut dsts);
        let mut it = states.iter_mut();
        let mut dsts: [&mut [f64]; M] =
            core::array::from_fn(|_| &mut it.next().unwrap().dp3d[..]);
        scatter_member_tile(&tiles.stage.dp3d, &mut dsts);
    }
}

/// The tile-resident phases of the lane hypervis sweep: top-of-model
/// sponge, then per subcycle the fused first Laplacian (`stage` tile into
/// the `hyp` tile), the lane DSS, the in-place second Laplacian, and the
/// damping folded into the lane DSS scatter back onto `stage`. Mirrors
/// [`hypervis_blocked`] phase for phase.
#[allow(clippy::too_many_arguments)]
fn hypervis_lanes_core(
    sched: &ElemScheduler,
    dss: &mut Dss,
    bops: &[BlockedOps],
    plan: &ElemHypervisPlan,
    hv: &HypervisConfig,
    nlev: usize,
    fl: usize,
    nelem: usize,
    tiles: &mut MemberLanes,
    subcycles: usize,
) {
    if hv.nu_top > 0.0 && hv.sponge_layers > 0 {
        let ks = plan.ks;
        let sl = ks * NPTS;
        {
            let ou = ArenaMut::new(&mut tiles.sponge_u[..nelem * sl]);
            let ov = ArenaMut::new(&mut tiles.sponge_v[..nelem * sl]);
            let ot = ArenaMut::new(&mut tiles.sponge_t[..nelem * sl]);
            let (su, sv, st): (&[V4F64], &[V4F64], &[V4F64]) =
                (&tiles.stage.u, &tiles.stage.v, &tiles.stage.t);
            sched.run(nelem, &|_w, e| {
                let (ou, ov, ot) = unsafe {
                    (ou.slice(e * sl, sl), ov.slice(e * sl, sl), ot.slice(e * sl, sl))
                };
                sponge_pass_member_lanes(
                    &bops[e],
                    ks,
                    &su[e * fl..e * fl + sl],
                    &sv[e * fl..e * fl + sl],
                    &st[e * fl..e * fl + sl],
                    ou,
                    ov,
                    ot,
                );
            });
        }
        dss.apply_lanes_scaled_add(
            &tiles.sponge_u[..nelem * sl],
            ks,
            &plan.sponge,
            &mut tiles.stage.u,
            fl,
        );
        dss.apply_lanes_scaled_add(
            &tiles.sponge_v[..nelem * sl],
            ks,
            &plan.sponge,
            &mut tiles.stage.v,
            fl,
        );
        dss.apply_lanes_scaled_add(
            &tiles.sponge_t[..nelem * sl],
            ks,
            &plan.sponge,
            &mut tiles.stage.t,
            fl,
        );
    }
    for _ in 0..subcycles {
        // First Laplacian of (u, v, T, dp3d): one fused coefficient walk
        // per element, straight from the stage tile into the hyp tile.
        {
            let ou = ArenaMut::new(&mut tiles.hyp.u);
            let ov = ArenaMut::new(&mut tiles.hyp.v);
            let ot = ArenaMut::new(&mut tiles.hyp.t);
            let odp = ArenaMut::new(&mut tiles.hyp.dp3d);
            let (su, sv, st, sdp): (&[V4F64], &[V4F64], &[V4F64], &[V4F64]) =
                (&tiles.stage.u, &tiles.stage.v, &tiles.stage.t, &tiles.stage.dp3d);
            sched.run(nelem, &|_w, e| {
                let r = e * fl..(e + 1) * fl;
                let (ou, ov, ot, odp) = unsafe {
                    (
                        ou.slice(e * fl, fl),
                        ov.slice(e * fl, fl),
                        ot.slice(e * fl, fl),
                        odp.slice(e * fl, fl),
                    )
                };
                hypervis_pass_member_lanes(
                    &bops[e],
                    nlev,
                    &su[r.clone()],
                    &sv[r.clone()],
                    &st[r.clone()],
                    &sdp[r],
                    ou,
                    ov,
                    ot,
                    odp,
                );
            });
        }
        dss.apply_lanes4(
            [&mut tiles.hyp.u, &mut tiles.hyp.v, &mut tiles.hyp.t, &mut tiles.hyp.dp3d],
            nlev,
        );
        // Second Laplacian in place (del^4 = lap(lap)).
        {
            let au = ArenaMut::new(&mut tiles.hyp.u);
            let av = ArenaMut::new(&mut tiles.hyp.v);
            let at = ArenaMut::new(&mut tiles.hyp.t);
            let adp = ArenaMut::new(&mut tiles.hyp.dp3d);
            sched.run(nelem, &|_w, e| {
                let (u, v, t, dp) = unsafe {
                    (
                        au.slice(e * fl, fl),
                        av.slice(e * fl, fl),
                        at.slice(e * fl, fl),
                        adp.slice(e * fl, fl),
                    )
                };
                hypervis_pass_levels_member_lanes(&bops[e], nlev, u, v, t, dp);
            });
        }
        // Damping folded into the lane DSS scatter, all four fields and
        // every lane in one walk of the assembly map.
        dss.apply_lanes_scaled_add4(
            [&tiles.hyp.u, &tiles.hyp.v, &tiles.hyp.t, &tiles.hyp.dp3d],
            nlev,
            [&plan.damp_u, &plan.damp_u, &plan.damp_u, &plan.damp_dp],
            [&mut tiles.stage.u, &mut tiles.stage.v, &mut tiles.stage.t, &mut tiles.stage.dp3d],
            fl,
        );
    }
}

/// One dt of the 5-stage RK for one lane sweep of `M` ensemble members
/// (`1..=4`) on the lane-transposed tiles: gather the members into the
/// `base` tile (plus the splatted surface geopotential), run every RK
/// substep as one element sweep of [`element_rhs_apply_member_lanes`]
/// followed by one lane DSS over all four prognostics, and scatter the
/// final stage back to the live lanes. The per-lane sequence matches
/// [`Dycore::dynamics_step`] exactly, so each member stays bitwise
/// identical to its standalone step.
#[allow(clippy::too_many_arguments)]
fn dynamics_members_lanes<const M: usize>(
    sched: &ElemScheduler,
    dss: &mut Dss,
    bops: &[BlockedOps],
    workers: &crate::sched::PerWorker<WorkerScratch>,
    nlev: usize,
    fl: usize,
    nelem: usize,
    ptop: f64,
    dt: f64,
    tiles: &mut MemberLanes,
    mut states: [&mut State; M],
) {
    {
        let srcs: [&[f64]; M] = core::array::from_fn(|m| &states[m].u[..]);
        gather_member_tile(&srcs, &mut tiles.base.u);
        let srcs: [&[f64]; M] = core::array::from_fn(|m| &states[m].v[..]);
        gather_member_tile(&srcs, &mut tiles.base.v);
        let srcs: [&[f64]; M] = core::array::from_fn(|m| &states[m].t[..]);
        gather_member_tile(&srcs, &mut tiles.base.t);
        let srcs: [&[f64]; M] = core::array::from_fn(|m| &states[m].dp3d[..]);
        gather_member_tile(&srcs, &mut tiles.base.dp3d);
        let srcs: [&[f64]; M] = core::array::from_fn(|m| &states[m].phis[..]);
        gather_member_tile(&srcs, &mut tiles.phis);
    }
    tiles.stage.u.copy_from_slice(&tiles.base.u);
    tiles.stage.v.copy_from_slice(&tiles.base.v);
    tiles.stage.t.copy_from_slice(&tiles.base.t);
    tiles.stage.dp3d.copy_from_slice(&tiles.base.dp3d);
    for &c in &KG5_COEFFS {
        {
            let ou = ArenaMut::new(&mut tiles.next.u);
            let ov = ArenaMut::new(&mut tiles.next.v);
            let ot = ArenaMut::new(&mut tiles.next.t);
            let odp = ArenaMut::new(&mut tiles.next.dp3d);
            let eval = &tiles.stage;
            let rk_base = &tiles.base;
            let ph: &[V4F64] = &tiles.phis;
            sched.run(nelem, &|w, e| {
                let scratch = unsafe { workers.get(w) };
                let r = e * fl..(e + 1) * fl;
                let (ou, ov, ot, odp) = unsafe {
                    (
                        ou.slice(e * fl, fl),
                        ov.slice(e * fl, fl),
                        ot.slice(e * fl, fl),
                        odp.slice(e * fl, fl),
                    )
                };
                element_rhs_apply_member_lanes(
                    &bops[e],
                    nlev,
                    ptop,
                    &eval.u[r.clone()],
                    &eval.v[r.clone()],
                    &eval.t[r.clone()],
                    &eval.dp3d[r.clone()],
                    &ph[e * NPTS..(e + 1) * NPTS],
                    &rk_base.u[r.clone()],
                    &rk_base.v[r.clone()],
                    &rk_base.t[r.clone()],
                    &rk_base.dp3d[r],
                    c * dt,
                    ou,
                    ov,
                    ot,
                    odp,
                    &mut scratch.rhs_lanes,
                );
            });
        }
        dss.apply_lanes4(
            [&mut tiles.next.u, &mut tiles.next.v, &mut tiles.next.t, &mut tiles.next.dp3d],
            nlev,
        );
        std::mem::swap(&mut tiles.stage, &mut tiles.next);
    }
    {
        let mut it = states.iter_mut();
        let mut dsts: [&mut [f64]; M] = core::array::from_fn(|_| &mut it.next().unwrap().u[..]);
        scatter_member_tile(&tiles.stage.u, &mut dsts);
        let mut it = states.iter_mut();
        let mut dsts: [&mut [f64]; M] = core::array::from_fn(|_| &mut it.next().unwrap().v[..]);
        scatter_member_tile(&tiles.stage.v, &mut dsts);
        let mut it = states.iter_mut();
        let mut dsts: [&mut [f64]; M] = core::array::from_fn(|_| &mut it.next().unwrap().t[..]);
        scatter_member_tile(&tiles.stage.t, &mut dsts);
        let mut it = states.iter_mut();
        let mut dsts: [&mut [f64]; M] =
            core::array::from_fn(|_| &mut it.next().unwrap().dp3d[..]);
        scatter_member_tile(&tiles.stage.dp3d, &mut dsts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesphere::consts::P0;

    fn resting_state(dy: &Dycore) -> State {
        let mut st = dy.zero_state();
        let dims = dy.dims;
        let vert = dy.rhs.vert.clone();
        for es in st.elems_mut() {
            for k in 0..dims.nlev {
                for p in 0..NPTS {
                    es.t[k * NPTS + p] = 300.0;
                    es.dp3d[k * NPTS + p] = vert.dp_ref(k, P0);
                    for q in 0..dims.qsize {
                        es.qdp[(q * dims.nlev + k) * NPTS + p] = 0.01 * es.dp3d[k * NPTS + p];
                    }
                }
            }
        }
        st
    }

    #[test]
    fn resting_atmosphere_stays_at_rest() {
        let dims = Dims { nlev: 6, qsize: 1 };
        let cfg = DycoreConfig {
            dt: 600.0,
            hypervis: HypervisConfig::off(),
            limiter: true,
            rsplit: 1,
        };
        let mut dy = Dycore::new(2, dims, 200.0, cfg);
        let mut st = resting_state(&dy);
        let ref_st = st.clone();
        for _ in 0..5 {
            dy.step(&mut st);
        }
        assert!(dy.max_wind(&st) < 1e-10, "wind grew: {}", dy.max_wind(&st));
        assert!(st.max_abs_diff(&ref_st) < 1e-8, "state drifted: {}", st.max_abs_diff(&ref_st));
    }

    /// The member-batched hypervis driver is bitwise identical to the
    /// single-member path run member by member, across batch shapes (1-3
    /// member-serial, 4, 5 = 4+1, 6 = 4+2, 7 = 4+3) and with the sponge
    /// active.
    #[test]
    fn hypervis_members_matches_per_member_bitwise() {
        let dims = Dims { nlev: 6, qsize: 0 };
        let mut cfg = DycoreConfig::for_ne(4);
        cfg.dt = 100.0;
        cfg.hypervis.sponge_layers = 2;
        cfg.hypervis.nu_top = 2.5e5;
        let mut dy = Dycore::new(2, dims, 200.0, cfg);
        let subcycles = dy.hypervis_subcycles();

        let make_members = |dy: &Dycore, n: usize| -> Vec<State> {
            (0..n)
                .map(|m| {
                    let mut st = resting_state(dy);
                    for (i, t) in st.t.iter_mut().enumerate() {
                        *t += 2.0 * (((i + 7 * m) % 13) as f64 / 13.0 - 0.5);
                    }
                    for (i, u) in st.u.iter_mut().enumerate() {
                        *u += 0.5 * (((i + 3 * m) % 7) as f64 / 7.0 - 0.5);
                    }
                    st
                })
                .collect()
        };

        for n in [1usize, 2, 3, 4, 5, 6, 7] {
            let mut expect = make_members(&dy, n);
            for st in expect.iter_mut() {
                dy.apply_hypervis_n(st, subcycles).unwrap();
            }

            let mut got = make_members(&dy, n);
            let members: Vec<usize> = (0..n).collect();
            let mut ens = crate::workspace::EnsembleWorkspace::new(dims, dy.ops.len(), n);
            dy.apply_hypervis_members(&mut got, &members, &mut ens, subcycles).unwrap();

            for (m, (e, g)) in expect.iter().zip(&got).enumerate() {
                assert_eq!(e.max_abs_diff(g), 0.0, "n={n} member={m} diverged");
            }
        }
    }

    /// The member-batched RK driver is bitwise identical to the standalone
    /// [`Dycore::dynamics_step`] run member by member, across batch shapes
    /// (including the ragged 3 = 4-sweep-short and 5 = 4+1 tails).
    #[test]
    fn dynamics_step_members_matches_per_member_bitwise() {
        let dims = Dims { nlev: 6, qsize: 0 };
        let mut cfg = DycoreConfig::for_ne(4);
        cfg.dt = 100.0;
        let mut dy = Dycore::new(2, dims, 200.0, cfg);

        let make_members = |dy: &Dycore, n: usize| -> Vec<State> {
            (0..n)
                .map(|m| {
                    let mut st = resting_state(dy);
                    for (i, t) in st.t.iter_mut().enumerate() {
                        *t += 2.0 * (((i + 11 * m) % 17) as f64 / 17.0 - 0.5);
                    }
                    for (i, u) in st.u.iter_mut().enumerate() {
                        *u += 0.5 * (((i + 5 * m) % 9) as f64 / 9.0 - 0.5);
                    }
                    for (i, ph) in st.phis.iter_mut().enumerate() {
                        *ph = 40.0 * ((i + m) % 5) as f64;
                    }
                    st
                })
                .collect()
        };

        for n in [1usize, 2, 3, 4, 5] {
            let mut expect = make_members(&dy, n);
            for st in expect.iter_mut() {
                dy.dynamics_step(st);
            }

            let mut got = make_members(&dy, n);
            let members: Vec<usize> = (0..n).collect();
            let mut ens = crate::workspace::EnsembleWorkspace::new(dims, dy.ops.len(), n);
            dy.dynamics_step_members(&mut got, &members, &mut ens);

            for (m, (e, g)) in expect.iter().zip(&got).enumerate() {
                assert_eq!(e.max_abs_diff(g), 0.0, "n={n} member={m} diverged");
            }
        }
    }

    #[test]
    fn mass_and_tracer_mass_are_conserved() {
        let dims = Dims { nlev: 6, qsize: 2 };
        let cfg = DycoreConfig {
            dt: 300.0,
            hypervis: HypervisConfig::off(),
            limiter: true,
            rsplit: 1,
        };
        let mut dy = Dycore::new(3, dims, 200.0, cfg);
        let mut st = resting_state(&dy);
        // Perturb the temperature field to get the flow moving.
        for es in st.elems_mut() {
            for (i, t) in es.t.iter_mut().enumerate() {
                *t += 2.0 * ((i % 11) as f64 / 11.0 - 0.5);
            }
        }
        let m0 = dy.total_mass(&st);
        let q0 = dy.total_tracer_mass(&st, 0);
        let q1 = dy.total_tracer_mass(&st, 1);
        for _ in 0..5 {
            dy.step(&mut st);
        }
        let dm = ((dy.total_mass(&st) - m0) / m0).abs();
        let dq0 = ((dy.total_tracer_mass(&st, 0) - q0) / q0).abs();
        let dq1 = ((dy.total_tracer_mass(&st, 1) - q1) / q1).abs();
        assert!(dm < 1e-11, "dry mass drift {dm}");
        assert!(dq0 < 1e-11, "tracer 0 drift {dq0}");
        assert!(dq1 < 1e-11, "tracer 1 drift {dq1}");
        assert!(dy.max_wind(&st) < 30.0, "blow-up: {}", dy.max_wind(&st));
    }

    #[test]
    fn balanced_flow_survives_time_stepping() {
        use cubesphere::consts::{EARTH_RADIUS, OMEGA, RD};
        let dims = Dims { nlev: 6, qsize: 0 };
        let cfg = DycoreConfig {
            dt: 200.0,
            hypervis: HypervisConfig::off(),
            limiter: false,
            rsplit: 1,
        };
        let mut dy = Dycore::new(4, dims, 200.0, cfg);
        let mut st = dy.zero_state();
        let (t0, u0) = (300.0, 30.0);
        let c = (EARTH_RADIUS * OMEGA * u0 + 0.5 * u0 * u0) / (RD * t0);
        let grid_elems: Vec<_> = dy.grid.elements.clone();
        let vert = dy.rhs.vert.clone();
        for (es, el) in st.elems_mut().zip(&grid_elems) {
            for p in 0..NPTS {
                let lat = el.metric[p].lat;
                let ps = P0 * (-c * lat.sin() * lat.sin()).exp();
                for k in 0..dims.nlev {
                    es.u[k * NPTS + p] = u0 * lat.cos();
                    es.t[k * NPTS + p] = t0;
                    es.dp3d[k * NPTS + p] = vert.dp_ref(k, ps);
                }
            }
        }
        let init = st.clone();
        for _ in 0..10 {
            dy.step(&mut st);
        }
        // The balanced jet must persist: wind change small vs u0.
        let mut max_du: f64 = 0.0;
        for (x, y) in st.u.iter().zip(&init.u) {
            max_du = max_du.max((x - y).abs());
        }
        assert!(max_du < 0.05 * u0, "jet decayed/blew up: du = {max_du}");
    }

    #[test]
    fn hypervis_damps_grid_noise() {
        let dims = Dims { nlev: 2, qsize: 0 };
        let mut cfg = DycoreConfig::for_ne(4);
        // At ne4 the grid Nyquist wavenumber is tiny, so scale nu up to get
        // visible damping within a few applications (still well inside the
        // explicit stability bound nu k^4 dt_sub < 1).
        cfg.dt = 100.0;
        cfg.hypervis = HypervisConfig { nu: 2.0e19, nu_p: 2.0e19, subcycles: 3, nu_top: 0.0, sponge_layers: 0 };
        let mut dy = Dycore::new(4, dims, 200.0, cfg);
        let mut st = resting_state(&dy);
        // Checkerboard temperature noise.
        for (i, t) in st.t.iter_mut().enumerate() {
            *t += if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let noise = |s: &State| -> f64 {
            let mut acc = 0.0;
            for es in s.elems() {
                for w in es.t.windows(2) {
                    acc += (w[1] - w[0]).powi(2);
                }
            }
            acc
        };
        let n0 = noise(&st);
        for _ in 0..10 {
            dy.apply_hypervis(&mut st).expect("plan accepted");
        }
        let n1 = noise(&st);
        assert!(n1 < 0.8 * n0, "noise not damped: {n0} -> {n1}");
    }

    #[test]
    fn guarded_step_matches_plain_step_bitwise() {
        let dims = Dims { nlev: 4, qsize: 1 };
        let cfg = DycoreConfig::for_ne(3);
        let mut plain = Dycore::new(3, dims, 200.0, cfg);
        let mut guarded = Dycore::new(3, dims, 200.0, cfg);
        guarded.health = HealthConfig::on();
        let perturb = |dy: &Dycore| {
            let mut st = resting_state(dy);
            for es in st.elems_mut() {
                for (i, t) in es.t.iter_mut().enumerate() {
                    *t += ((i % 7) as f64 - 3.0) * 0.5;
                }
            }
            st
        };
        let mut a = perturb(&plain);
        let mut b = perturb(&guarded);
        for _ in 0..3 {
            plain.step(&mut a);
            let health = guarded.step_checked(&mut b).expect("healthy step");
            assert!(health.checked);
            assert!(!health.degraded);
            assert!(health.cfl.is_finite());
            assert!(health.min_dp3d > 0.0);
        }
        assert_eq!(a.max_abs_diff(&b), 0.0, "guards changed the trajectory");
    }

    #[test]
    fn guarded_step_rejects_nan_state() {
        let dims = Dims { nlev: 4, qsize: 0 };
        let cfg = DycoreConfig::for_ne(2);
        let mut dy = Dycore::new(2, dims, 200.0, cfg);
        dy.health = HealthConfig::on();
        let mut st = resting_state(&dy);
        st.u[0] = f64::NAN;
        let err = dy.step_checked(&mut st).unwrap_err();
        assert!(matches!(err, HealthError::NonFinite { stage: 0, .. }), "got {err:?}");
    }

    #[test]
    fn guarded_step_rejects_tracer_nan() {
        let dims = Dims { nlev: 4, qsize: 2 };
        let cfg = DycoreConfig::for_ne(2);
        let mut dy = Dycore::new(2, dims, 200.0, cfg);
        dy.health = HealthConfig::on();
        let mut st = resting_state(&dy);
        // A NaN born in the tracer arena is invisible to the RK stage
        // scans; the post-advection scan must still catch it.
        st.qdp[3] = f64::NAN;
        let err = dy.step_checked(&mut st).unwrap_err();
        assert!(
            matches!(err, HealthError::TracerNonFinite { stage: TRACER_STAGE, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn guarded_step_surfaces_remap_rejection_as_typed_error() {
        let dims = Dims { nlev: 4, qsize: 0 };
        let cfg = DycoreConfig::for_ne(2);
        let mut dy = Dycore::new(2, dims, 200.0, cfg);
        // Disarm the ThinLayer stage guard so the collapsed layer reaches
        // the vertical remap, which rejects it with a typed error instead
        // of a bare assert.
        dy.health = HealthConfig { min_dp3d: f64::NEG_INFINITY, ..HealthConfig::on() };
        let mut st = resting_state(&dy);
        for p in 0..NPTS {
            st.dp3d[NPTS + p] = -5000.0;
        }
        let err = dy.step_checked(&mut st).unwrap_err();
        assert!(matches!(err, HealthError::Remap(_)), "got {err:?}");
    }

    #[test]
    fn cfl_breach_arms_degraded_stepping() {
        let dims = Dims { nlev: 4, qsize: 0 };
        let cfg = DycoreConfig {
            dt: 100.0,
            hypervis: HypervisConfig::off(),
            limiter: false,
            rsplit: 1,
        };
        let mut dy = Dycore::new(2, dims, 200.0, cfg);
        dy.health = HealthConfig { cfl_limit: 1e-9, ..HealthConfig::on() };
        let mut st = resting_state(&dy);
        for u in st.u.iter_mut() {
            *u = 10.0;
        }
        let h0 = dy.step_checked(&mut st).expect("step");
        assert!(h0.cfl > dy.health.cfl_limit);
        assert!(!h0.degraded);
        assert_eq!(dy.degrade_pending(), dy.degrade.halve_dt_steps);
        let h1 = dy.step_checked(&mut st).expect("degraded step");
        assert!(h1.degraded, "next step should run under the degradation policy");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let dims = Dims { nlev: 4, qsize: 1 };
        let cfg = DycoreConfig::for_ne(3);
        let run = |threads: usize| -> State {
            let mut dy = Dycore::new(3, dims, 200.0, cfg);
            dy.set_threads(threads);
            let mut st = resting_state(&dy);
            for es in st.elems_mut() {
                for (i, t) in es.t.iter_mut().enumerate() {
                    *t += ((i % 7) as f64 - 3.0) * 0.5;
                }
            }
            for _ in 0..3 {
                dy.step(&mut st);
            }
            st
        };
        let serial = run(1);
        for threads in [2, 4, 7] {
            let par = run(threads);
            assert_eq!(
                serial.max_abs_diff(&par),
                0.0,
                "threads={threads} diverged from serial"
            );
        }
    }
}
