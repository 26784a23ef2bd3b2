//! Persistent per-step scratch owned by [`crate::prim::Dycore`] (and, as
//! [`DistWorkspace`], by the per-rank [`crate::dist::DistDycore`]).
//!
//! Every buffer the step pipeline needs — RK stage fields, RHS column
//! temporaries, hyperviscosity and sponge temporaries, tracer stage
//! double-buffers, remap columns — is allocated once here and reused, so
//! `Dycore::step` performs no heap allocation after construction (enforced
//! by the `alloc_regression` integration test).
//!
//! Reuse contract: no buffer carries information between steps. Each one
//! is either fully overwritten before it is read (`copy_from` /
//! full-range writes) or is write-only scratch whose every slot is
//! written before use. The `state_arena` proptest drives this by checking
//! that a dirtied workspace reproduces a fresh one bitwise.

use crate::bndry::ExchangeBuffers;
use crate::hypervis::ElemHypervisPlan;
use crate::kernels::member_lanes::MemberRhsScratch;
use crate::remap::{ElemRemapPlan, RemapApplyScratch, RemapScratch};
use crate::rhs::{ElemTend, RhsScratch};
use crate::sched::PerWorker;
use crate::state::{Dims, State};
use cubesphere::NPTS;
use sw26010::V4F64;

/// The four dynamics prognostics as flat arenas (`[nelem][nlev][NPTS]`
/// each) — an RK stage buffer without the tracer/surface fields.
#[derive(Debug, Clone)]
pub struct DynFields {
    /// Eastward wind arena.
    pub u: Vec<f64>,
    /// Northward wind arena.
    pub v: Vec<f64>,
    /// Temperature arena.
    pub t: Vec<f64>,
    /// Layer thickness arena.
    pub dp3d: Vec<f64>,
}

impl DynFields {
    /// Zeroed buffers of `len` values per field.
    pub fn zeros(len: usize) -> Self {
        DynFields { u: vec![0.0; len], v: vec![0.0; len], t: vec![0.0; len], dp3d: vec![0.0; len] }
    }

    /// Overwrite from the state arena's dynamics fields.
    pub fn copy_from_state(&mut self, st: &State) {
        self.u.copy_from_slice(&st.u);
        self.v.copy_from_slice(&st.v);
        self.t.copy_from_slice(&st.t);
        self.dp3d.copy_from_slice(&st.dp3d);
    }
}

/// Private scratch of one scheduler worker: tendency buffers, RHS column
/// temporaries and remap columns. All fields are fully overwritten per
/// element, so a slot can serve any element of any step.
#[derive(Debug, Clone)]
pub struct WorkerScratch {
    /// Per-element tendency of the RK substep.
    pub tend: ElemTend,
    /// Column temporaries of `element_rhs_raw`.
    pub rhs: RhsScratch,
    /// PPM reconstruction buffers.
    pub remap: RemapScratch,
    /// Source thickness column, `[nlev]`.
    pub col_src: Vec<f64>,
    /// Target thickness column, `[nlev]`.
    pub col_dst: Vec<f64>,
    /// Field value column, `[nlev]`.
    pub col_val: Vec<f64>,
    /// Remapped value column, `[nlev]`.
    pub col_out: Vec<f64>,
    /// Per-element remap plan (geometry + PPM weights), rebuilt from
    /// `dp3d` for each element and reused across all fields and tracers.
    pub plan: ElemRemapPlan,
    /// Coefficient arenas of the planned remap's apply pass.
    pub apply: RemapApplyScratch,
    /// Column temporaries of the member-lane RHS kernel (pressure and
    /// geopotential scan tiles, one `V4F64` lane set per point).
    pub rhs_lanes: MemberRhsScratch,
}

impl WorkerScratch {
    /// Scratch sized for `dims`.
    pub fn new(dims: Dims) -> Self {
        WorkerScratch {
            tend: ElemTend::zeros(dims),
            rhs: RhsScratch::new(dims.nlev),
            remap: RemapScratch::new(dims.nlev),
            col_src: vec![0.0; dims.nlev],
            col_dst: vec![0.0; dims.nlev],
            col_val: vec![0.0; dims.nlev],
            col_out: vec![0.0; dims.nlev],
            plan: ElemRemapPlan::new(dims.nlev),
            apply: RemapApplyScratch::new(dims.nlev),
            rhs_lanes: MemberRhsScratch::new(dims.nlev),
        }
    }
}

/// All step-persistent buffers of the dycore pipeline.
#[derive(Debug)]
pub struct StepWorkspace {
    /// RK base state `u_0`.
    pub base: DynFields,
    /// RK stage being evaluated `u_{i-1}`.
    pub stage: DynFields,
    /// RK stage being produced `u_i`.
    pub next: DynFields,
    /// Hyperviscosity Laplacian input/output (full depth).
    pub hyp: DynFields,
    /// Sponge-layer `u` temporary, `[nelem][sponge_layers][NPTS]`.
    pub sponge_u: Vec<f64>,
    /// Sponge-layer `v` temporary.
    pub sponge_v: Vec<f64>,
    /// Sponge-layer `T` temporary.
    pub sponge_t: Vec<f64>,
    /// Tracer stage `q_0` (step input), `[nelem][qsize][nlev][NPTS]`.
    pub qdp0: Vec<f64>,
    /// Tracer stage 1 buffer.
    pub q1: Vec<f64>,
    /// Tracer stage 2 buffer.
    pub q2: Vec<f64>,
    /// Tracer substep output buffer.
    pub qtmp: Vec<f64>,
    /// One private scratch per scheduler worker.
    pub workers: PerWorker<WorkerScratch>,
    /// Hyperviscosity step plan (hoisted subcycle/sponge coefficients),
    /// rebuilt per step without allocating.
    pub hv_plan: ElemHypervisPlan,
}

impl StepWorkspace {
    /// Buffers sized for `nelem` elements, `dims`, a sponge of
    /// `sponge_layers` levels and `nworkers` scheduler workers.
    pub fn new(dims: Dims, nelem: usize, sponge_layers: usize, nworkers: usize) -> Self {
        let fl = nelem * dims.field_len();
        let tl = nelem * dims.tracer_len();
        let sl = nelem * sponge_layers.min(dims.nlev) * NPTS;
        StepWorkspace {
            base: DynFields::zeros(fl),
            stage: DynFields::zeros(fl),
            next: DynFields::zeros(fl),
            hyp: DynFields::zeros(fl),
            sponge_u: vec![0.0; sl],
            sponge_v: vec![0.0; sl],
            sponge_t: vec![0.0; sl],
            qdp0: vec![0.0; tl],
            q1: vec![0.0; tl],
            q2: vec![0.0; tl],
            qtmp: vec![0.0; tl],
            workers: PerWorker::new(nworkers, || WorkerScratch::new(dims)),
            hv_plan: ElemHypervisPlan::new(dims.nlev, sponge_layers),
        }
    }
}

/// The four dynamics prognostics as lane-interleaved tile arenas: one
/// [`V4F64`] per `(elem, level, point)` slot whose four lanes hold the same
/// scalar for four different ensemble members. The member-lane kernel
/// family ([`crate::kernels::member_lanes`]) runs over these tiles.
#[derive(Debug, Clone)]
pub struct LaneFields {
    /// Eastward wind tile.
    pub u: Vec<V4F64>,
    /// Northward wind tile.
    pub v: Vec<V4F64>,
    /// Temperature tile.
    pub t: Vec<V4F64>,
    /// Layer thickness tile.
    pub dp3d: Vec<V4F64>,
}

impl LaneFields {
    /// Zeroed tiles of `len` lane-sets per field.
    pub fn zeros(len: usize) -> Self {
        LaneFields {
            u: vec![V4F64::zero(); len],
            v: vec![V4F64::zero(); len],
            t: vec![V4F64::zero(); len],
            dp3d: vec![V4F64::zero(); len],
        }
    }
}

/// Tile scratch of the member-lane kernel path: lane-interleaved stage
/// arenas for the batched RK substeps (`base`, `stage`, `next`), the
/// hyperviscosity Laplacian tile set (`hyp`; the hypervis driver reuses
/// `stage` as its in-place current-state tile), sponge-depth temporaries
/// and the splatted surface geopotential. Sponge tiles are sized at full
/// depth (an upper bound on any sponge) so sizing needs only `dims`.
#[derive(Debug)]
pub struct MemberLanes {
    /// RK base state tile `u_0`.
    pub base: LaneFields,
    /// RK stage tile `u_{i-1}`; also the hypervis current-state tile.
    pub stage: LaneFields,
    /// RK stage tile being produced `u_i`.
    pub next: LaneFields,
    /// Hyperviscosity Laplacian input/output tile (full depth).
    pub hyp: LaneFields,
    /// Sponge-layer `u` tile, `[nelem][<= nlev][NPTS]`.
    pub sponge_u: Vec<V4F64>,
    /// Sponge-layer `v` tile.
    pub sponge_v: Vec<V4F64>,
    /// Sponge-layer `T` tile.
    pub sponge_t: Vec<V4F64>,
    /// Surface geopotential tile, `[nelem][NPTS]`.
    pub phis: Vec<V4F64>,
}

impl MemberLanes {
    /// Tiles sized for `nelem` elements of `dims`.
    pub fn new(dims: Dims, nelem: usize) -> Self {
        let fl = nelem * dims.field_len();
        MemberLanes {
            base: LaneFields::zeros(fl),
            stage: LaneFields::zeros(fl),
            next: LaneFields::zeros(fl),
            hyp: LaneFields::zeros(fl),
            sponge_u: vec![V4F64::zero(); fl],
            sponge_v: vec![V4F64::zero(); fl],
            sponge_t: vec![V4F64::zero(); fl],
            phis: vec![V4F64::zero(); nelem * NPTS],
        }
    }
}

/// Scratch of the member-batched ensemble path: the lane-interleaved tile
/// arenas [`crate::prim::Dycore::apply_hypervis_members`] and
/// [`crate::prim::Dycore::dynamics_step_members`] run full groups of four
/// members through, plus the member count a batch may hold. Allocated once
/// by the ensemble driver at construction and reused every step (the
/// ensemble alloc gate rides on this), same reuse contract as
/// [`StepWorkspace`]: every slot is written before it is read within a
/// pass.
#[derive(Debug)]
pub struct EnsembleWorkspace {
    /// Lane-interleaved member tiles of the member-lane kernel path.
    pub tiles: MemberLanes,
    lanes: usize,
}

impl EnsembleWorkspace {
    /// Tile buffers sized for `nelem` elements of `dims`, batching up to
    /// `lanes` members.
    pub fn new(dims: Dims, nelem: usize, lanes: usize) -> Self {
        EnsembleWorkspace { tiles: MemberLanes::new(dims, nelem), lanes }
    }

    /// Number of members one batch may hold.
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

/// Persistent per-rank scratch owned by [`crate::dist::DistDycore`] — the
/// distributed analog of [`StepWorkspace`]. Holds the RK stage arenas
/// (sized for the rank's owned elements), hyperviscosity/sponge/tracer
/// temporaries, the per-element compute scratch (the distributed driver
/// runs its element loop serially within the rank, so one slot suffices),
/// and the aggregated-exchange buffers. Allocated once at construction;
/// a distributed step performs zero heap allocations after warm-up
/// (enforced by the `dist_alloc` integration test).
#[derive(Debug)]
pub struct DistWorkspace {
    /// RK base state `u_0`.
    pub base: DynFields,
    /// RK stage being evaluated `u_{i-1}`.
    pub stage: DynFields,
    /// RK stage being produced `u_i`.
    pub next: DynFields,
    /// Hyperviscosity Laplacian input/output (full depth).
    pub hyp: DynFields,
    /// Sponge-layer `u` temporary, `[nelem][sponge_layers][NPTS]`.
    pub sponge_u: Vec<f64>,
    /// Sponge-layer `v` temporary.
    pub sponge_v: Vec<f64>,
    /// Sponge-layer `T` temporary.
    pub sponge_t: Vec<f64>,
    /// Tracer stage `q_0` (step input), `[nelem][qsize][nlev][NPTS]`.
    pub qdp0: Vec<f64>,
    /// Tracer stage 1 buffer.
    pub q1: Vec<f64>,
    /// Tracer stage 2 buffer.
    pub q2: Vec<f64>,
    /// Tracer substep output buffer.
    pub qtmp: Vec<f64>,
    /// Per-element compute scratch.
    pub scratch: WorkerScratch,
    /// Aggregated boundary-exchange pack/accumulate buffers.
    pub ex: ExchangeBuffers,
    /// Hyperviscosity step plan (hoisted subcycle/sponge coefficients),
    /// rebuilt per step without allocating.
    pub hv_plan: ElemHypervisPlan,
}

impl DistWorkspace {
    /// Buffers sized for this rank's `nelem` owned elements, `dims`, and a
    /// sponge of `sponge_layers` levels.
    pub fn new(dims: Dims, nelem: usize, sponge_layers: usize) -> Self {
        let fl = nelem * dims.field_len();
        let tl = nelem * dims.tracer_len();
        let sl = nelem * sponge_layers.min(dims.nlev) * NPTS;
        DistWorkspace {
            base: DynFields::zeros(fl),
            stage: DynFields::zeros(fl),
            next: DynFields::zeros(fl),
            hyp: DynFields::zeros(fl),
            sponge_u: vec![0.0; sl],
            sponge_v: vec![0.0; sl],
            sponge_t: vec![0.0; sl],
            qdp0: vec![0.0; tl],
            q1: vec![0.0; tl],
            q2: vec![0.0; tl],
            qtmp: vec![0.0; tl],
            scratch: WorkerScratch::new(dims),
            ex: ExchangeBuffers::new(),
            hv_plan: ElemHypervisPlan::new(dims.nlev, sponge_layers),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_workspace_buffers_are_sized_for_the_rank() {
        let dims = Dims { nlev: 4, qsize: 2 };
        let ws = DistWorkspace::new(dims, 5, 3);
        assert_eq!(ws.stage.v.len(), 5 * 4 * NPTS);
        assert_eq!(ws.sponge_u.len(), 5 * 3 * NPTS);
        assert_eq!(ws.q2.len(), 5 * 2 * 4 * NPTS);
        assert_eq!(ws.scratch.col_src.len(), 4);
    }

    #[test]
    fn workspace_buffers_are_sized_for_the_problem() {
        let dims = Dims { nlev: 4, qsize: 2 };
        let ws = StepWorkspace::new(dims, 6, 3, 5);
        assert_eq!(ws.base.u.len(), 6 * 4 * NPTS);
        assert_eq!(ws.hyp.dp3d.len(), 6 * 4 * NPTS);
        assert_eq!(ws.sponge_t.len(), 6 * 3 * NPTS);
        assert_eq!(ws.qdp0.len(), 6 * 2 * 4 * NPTS);
        assert_eq!(ws.workers.len(), 5);
        // Sponge deeper than the column clamps to nlev.
        let ws2 = StepWorkspace::new(dims, 2, 9, 1);
        assert_eq!(ws2.sponge_u.len(), 2 * 4 * NPTS);
    }
}
