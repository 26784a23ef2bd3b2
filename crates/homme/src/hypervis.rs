//! Horizontal dissipation: the `hypervis_dp1` / `hypervis_dp2` /
//! `biharmonic_dp3d` kernels of Table 1.
//!
//! CAM-SE stabilizes the spectral-element discretization with scale-
//! selective hyperviscosity: `df/dt = -nu lap^2(f)` applied (subcycled) to
//! `u, v, T, dp3d`. The building blocks are the element Laplacian
//! ([`crate::deriv::ElemOps::laplace_sphere`]) and a DSS between the two
//! Laplacian applications — the "weak biharmonic operator". A plain
//! Laplacian viscosity (`hypervis_dp1` in the paper's kernel table) is also
//! provided.

use crate::deriv::ElemOps;
use crate::dss::Dss;
use crate::sched::{ArenaMut, ElemScheduler};
use cubesphere::NPTS;

/// Floor on the smallest GLL gap used in the subcycle stability estimate,
/// in **meters**.
///
/// [`HypervisConfig::stable_subcycles`] divides by the gap to form the grid
/// Nyquist wavenumber; a degenerate metric (zero or NaN `metdet`, a
/// collapsed element of a synthetic test grid) would otherwise drive
/// `k_max -> inf` and saturate the subcycle count. One meter is ~5 orders
/// of magnitude below any physical GLL spacing this model resolves (ne120
/// is ~25 km), so the floor is inert on real grids and only guards the
/// degenerate ones. Serial ([`crate::prim::Dycore`]) and distributed
/// ([`crate::dist::DistDycore`]) drivers both route their characteristic
/// grid spacing through this same constant so their subcycle counts always
/// agree.
pub const MIN_GLL_GAP_METERS: f64 = 1.0;

/// Hyperviscosity configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HypervisConfig {
    /// Biharmonic coefficient for momentum and temperature, m^4/s.
    pub nu: f64,
    /// Biharmonic coefficient for `dp3d`, m^4/s.
    pub nu_p: f64,
    /// Subcycles per dynamics step.
    pub subcycles: usize,
    /// Sponge-layer Laplacian coefficient applied to the top layers,
    /// m^2/s (HOMME's `nu_top`; damps vertically-propagating waves that
    /// would otherwise reflect off the model top).
    pub nu_top: f64,
    /// Number of top layers the sponge covers.
    pub sponge_layers: usize,
}

impl HypervisConfig {
    /// CAM's resolution scaling: `nu = 1e15 (30/ne)^3.2` m^4/s.
    pub fn for_ne(ne: usize) -> Self {
        let nu = 1.0e15 * (30.0 / ne as f64).powf(3.2);
        HypervisConfig { nu, nu_p: nu, subcycles: 3, nu_top: 2.5e5, sponge_layers: 3 }
    }

    /// Disabled dissipation (for steady-state tests).
    pub fn off() -> Self {
        HypervisConfig { nu: 0.0, nu_p: 0.0, subcycles: 1, nu_top: 0.0, sponge_layers: 0 }
    }

    /// Stability-limited subcycle count: the explicit forward-Euler
    /// biharmonic update needs `nu k_max^4 dt_sub < ~0.4`, with `k_max`
    /// the spectral-element grid Nyquist (smallest GLL gap, with a
    /// factor-2 margin for the spectral operator's eigenvalue excess).
    /// `dab` is the element's angular width and `metdet0` the metric
    /// determinant at its first GLL node (any representative element of a
    /// quasi-uniform grid works). Production HOMME computes
    /// `hypervis_subcycle` the same way; the serial and distributed
    /// drivers share this so they always agree.
    pub fn stable_subcycles(&self, dab: f64, metdet0: f64, dt: f64) -> usize {
        let nu = self.nu.max(self.nu_p);
        if nu == 0.0 {
            return self.subcycles.max(1);
        }
        // Smallest GLL gap: |x1 - x0| = 1 - 1/sqrt(5) on [-1, 1].
        let ref_gap = 1.0 - 1.0 / 5.0_f64.sqrt();
        // metdet ~ (physical area)/(dalpha dbeta): sqrt gives the length
        // scale per unit angle.
        let scale = metdet0.sqrt();
        let gap = (ref_gap * 0.5 * dab * scale).max(MIN_GLL_GAP_METERS);
        let k_max = 2.0 * std::f64::consts::PI / gap;
        let needed = (nu * k_max.powi(4) * dt / 0.4).ceil() as usize;
        needed.max(self.subcycles).max(1)
    }
}

/// Why a hyperviscosity plan build rejected the step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HypervisError {
    /// An element's metric tables are unusable (non-finite or non-positive
    /// `metdet`/`rmetdet`/`spheremp` at the given GLL point) — the fused
    /// sweeps would silently propagate garbage through every field.
    BadGeometry { elem: usize, point: usize },
    /// A step coefficient (`dt_sub * nu`, `dt * nu_top`, ...) came out
    /// non-finite, e.g. from a NaN timestep after a corrupted rollback.
    NonFiniteCoef { coef: f64 },
}

impl std::fmt::Display for HypervisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HypervisError::BadGeometry { elem, point } => write!(
                f,
                "hyperviscosity plan rejected element {elem}: degenerate metric at GLL point {point}"
            ),
            HypervisError::NonFiniteCoef { coef } => {
                write!(f, "hyperviscosity plan rejected non-finite step coefficient {coef}")
            }
        }
    }
}

impl std::error::Error for HypervisError {}

/// Per-step hyperviscosity plan: every coefficient the subcycle loop and
/// the sponge apply need, hoisted out of the sweeps and validated once.
///
/// The paper's Table-1 hypervis kernels earn their speedup from data reuse
/// across the two Laplacian passes and the coefficient applies; the host
/// analogue is this plan plus the fused kernels in
/// [`crate::kernels::blocked`]. The geometry itself already lives hoisted
/// in [`crate::kernels::blocked::BlockedOps`]; what the plan adds is
///
/// * the forward-Euler damping coefficients per level, **negated** so the
///   fused DSS-and-apply sweep ([`Dss::apply_flat_scaled_add`]) is a single
///   `+=` for both the subcycle applies (`x -= c*l  ==  x += (-c)*l`
///   bitwise — IEEE negation of the exact product) and the sponge,
/// * the per-layer sponge coefficients `(dt*nu_top) * 2^-k`, and
/// * a fail-fast validation pass over the step coefficients and every
///   element's metric rows, so a corrupt element rejects the step through
///   the typed-error rollback path instead of poisoning the trajectory.
///
/// Buffers are presized by [`ElemHypervisPlan::new`]; a steady-state
/// [`ElemHypervisPlan::build`] never allocates.
#[derive(Debug, Clone)]
pub struct ElemHypervisPlan {
    /// Subcycle count the coefficients were built for.
    pub subcycles: usize,
    /// Clamped sponge depth `sponge_layers.min(nlev)`.
    pub ks: usize,
    /// `dt_sub * nu` (u, v, T applies — the bulk drivers' hoisted form).
    pub coef_u: f64,
    /// `dt_sub * nu_p` (dp3d apply).
    pub coef_dp: f64,
    /// Per-level `-(dt_sub * nu)` for the fused `+=` apply, `[nlev]`.
    pub damp_u: Vec<f64>,
    /// Per-level `-(dt_sub * nu_p)`, `[nlev]`.
    pub damp_dp: Vec<f64>,
    /// Per-layer sponge coefficient `(dt * nu_top) * 2^-k`, `[ks]`.
    pub sponge: Vec<f64>,
}

impl ElemHypervisPlan {
    /// Presize for a problem shape (allocates; `build` then never does).
    pub fn new(nlev: usize, sponge_layers: usize) -> Self {
        ElemHypervisPlan {
            subcycles: 0,
            ks: sponge_layers.min(nlev),
            coef_u: 0.0,
            coef_dp: 0.0,
            damp_u: vec![0.0; nlev],
            damp_dp: vec![0.0; nlev],
            sponge: vec![0.0; sponge_layers.min(nlev)],
        }
    }

    /// Build the step coefficients and validate the geometry. Grow-only on
    /// the presized buffers; steady-state rebuilds are allocation-free.
    pub fn build(
        &mut self,
        hv: &HypervisConfig,
        dt: f64,
        subcycles: usize,
        nlev: usize,
        ops: &[ElemOps],
    ) -> Result<(), HypervisError> {
        let dt_sub = dt / subcycles as f64;
        let coef_u = dt_sub * hv.nu;
        let coef_dp = dt_sub * hv.nu_p;
        let sponge0 = dt * hv.nu_top;
        for coef in [coef_u, coef_dp, sponge0] {
            if !coef.is_finite() {
                return Err(HypervisError::NonFiniteCoef { coef });
            }
        }
        // The fused sweeps divide by spheremp and multiply by
        // metdet/rmetdet in every walk; reject any element whose metric
        // rows could turn the whole-step sweep into NaN soup — NaN as
        // well as zero/negative.
        let bad = |x: f64| x.is_nan() || x <= 0.0;
        for (e, op) in ops.iter().enumerate() {
            for p in 0..NPTS {
                if bad(op.metdet[p]) || bad(op.rmetdet[p]) || bad(op.spheremp[p]) {
                    return Err(HypervisError::BadGeometry { elem: e, point: p });
                }
            }
        }
        self.subcycles = subcycles;
        self.ks = hv.sponge_layers.min(nlev);
        self.coef_u = coef_u;
        self.coef_dp = coef_dp;
        if self.damp_u.len() < nlev {
            self.damp_u.resize(nlev, 0.0);
            self.damp_dp.resize(nlev, 0.0);
        }
        for k in 0..nlev {
            self.damp_u[k] = -coef_u;
            self.damp_dp[k] = -coef_dp;
        }
        if self.sponge.len() < self.ks {
            self.sponge.resize(self.ks, 0.0);
        }
        for (k, c) in self.sponge[..self.ks].iter_mut().enumerate() {
            *c = sponge0 * (1.0 / (1u64 << k) as f64);
        }
        Ok(())
    }
}

/// In-place `lap(f)` per element level with DSS, using the weak-form
/// (Galerkin) Laplacian [`ElemOps::laplace_sphere_wk`]: conservative to
/// round-off, which is what makes the subcycled `dp3d` dissipation
/// mass-conserving. `fields[e]` is `[nlev][NPTS]`.
pub fn laplace_fields(ops: &[ElemOps], dss: &mut Dss, nlev: usize, fields: &mut [Vec<f64>]) {
    for (e, op) in ops.iter().enumerate() {
        for k in 0..nlev {
            let r = k * NPTS..(k + 1) * NPTS;
            let mut lap = [0.0; NPTS];
            op.laplace_sphere_wk(&fields[e][r.clone()], &mut lap);
            fields[e][r].copy_from_slice(&lap);
        }
    }
    dss.apply(fields, nlev);
}

/// In-place weak biharmonic `lap(lap(f))` with DSS after each Laplacian —
/// the paper's `biharmonic_dp3d` kernel when applied to `dp3d`.
pub fn biharmonic_fields(ops: &[ElemOps], dss: &mut Dss, nlev: usize, fields: &mut [Vec<f64>]) {
    laplace_fields(ops, dss, nlev, fields);
    laplace_fields(ops, dss, nlev, fields);
}

/// In-place vector Laplacian with DSS for `(u, v)` per level.
pub fn vlaplace_fields(
    ops: &[ElemOps],
    dss: &mut Dss,
    nlev: usize,
    u: &mut [Vec<f64>],
    v: &mut [Vec<f64>],
) {
    for (e, op) in ops.iter().enumerate() {
        for k in 0..nlev {
            let r = k * NPTS..(k + 1) * NPTS;
            let mut lu = [0.0; NPTS];
            let mut lv = [0.0; NPTS];
            op.vlaplace_sphere(&u[e][r.clone()], &v[e][r.clone()], &mut lu, &mut lv);
            u[e][r.clone()].copy_from_slice(&lu);
            v[e][r].copy_from_slice(&lv);
        }
    }
    dss.apply(u, nlev);
    dss.apply(v, nlev);
}

/// Flat-arena `lap(f)` with DSS: `field` is one `[nelem][nlev][NPTS]`
/// buffer (the state-arena layout). Element Laplacians run across the
/// scheduler's workers; the DSS is the serial synchronization point.
/// Identical arithmetic to [`laplace_fields`], allocation-free.
pub fn laplace_flat(
    ops: &[ElemOps],
    dss: &mut Dss,
    sched: &ElemScheduler,
    nlev: usize,
    field: &mut [f64],
) {
    let fl = nlev * NPTS;
    {
        let arena = ArenaMut::new(field);
        sched.run(ops.len(), &|_w, e| {
            // Disjoint per-element window of the arena.
            let f = unsafe { arena.slice(e * fl, fl) };
            for k in 0..nlev {
                let r = k * NPTS..(k + 1) * NPTS;
                let mut lap = [0.0; NPTS];
                ops[e].laplace_sphere_wk(&f[r.clone()], &mut lap);
                f[r].copy_from_slice(&lap);
            }
        });
    }
    dss.apply_flat(field, nlev);
}

/// Flat-arena weak biharmonic `lap(lap(f))` with DSS after each Laplacian.
pub fn biharmonic_flat(
    ops: &[ElemOps],
    dss: &mut Dss,
    sched: &ElemScheduler,
    nlev: usize,
    field: &mut [f64],
) {
    laplace_flat(ops, dss, sched, nlev, field);
    laplace_flat(ops, dss, sched, nlev, field);
}

/// Flat-arena vector Laplacian with DSS for `(u, v)` per level.
pub fn vlaplace_flat(
    ops: &[ElemOps],
    dss: &mut Dss,
    sched: &ElemScheduler,
    nlev: usize,
    u: &mut [f64],
    v: &mut [f64],
) {
    let fl = nlev * NPTS;
    {
        let au = ArenaMut::new(u);
        let av = ArenaMut::new(v);
        sched.run(ops.len(), &|_w, e| {
            let ue = unsafe { au.slice(e * fl, fl) };
            let ve = unsafe { av.slice(e * fl, fl) };
            for k in 0..nlev {
                let r = k * NPTS..(k + 1) * NPTS;
                let mut lu = [0.0; NPTS];
                let mut lv = [0.0; NPTS];
                ops[e].vlaplace_sphere(&ue[r.clone()], &ve[r.clone()], &mut lu, &mut lv);
                ue[r.clone()].copy_from_slice(&lu);
                ve[r].copy_from_slice(&lv);
            }
        });
    }
    dss.apply_flat(u, nlev);
    dss.apply_flat(v, nlev);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deriv::build_ops;
    use cubesphere::CubedSphere;

    fn field_of(grid: &CubedSphere, f: impl Fn(f64, f64) -> f64) -> Vec<Vec<f64>> {
        grid.elements
            .iter()
            .map(|el| el.metric.iter().map(|m| f(m.lat, m.lon)).collect())
            .collect()
    }

    #[test]
    fn laplace_of_constant_is_zero() {
        let grid = CubedSphere::new(3);
        let ops = build_ops(&grid);
        let mut dss = Dss::new(&grid);
        let mut fields = field_of(&grid, |_, _| 4.2);
        laplace_fields(&ops, &mut dss, 1, &mut fields);
        for f in &fields {
            for &x in f {
                assert!(x.abs() < 1e-15);
            }
        }
    }

    #[test]
    fn laplacian_conserves_the_global_integral() {
        // integral of lap(f) over the closed sphere is zero.
        let grid = CubedSphere::new(4);
        let ops = build_ops(&grid);
        let mut dss = Dss::new(&grid);
        let mut fields = field_of(&grid, |lat, lon| lat.sin() * (2.0 * lon).cos() + 0.3);
        laplace_fields(&ops, &mut dss, 1, &mut fields);
        let integral = grid.global_integral(&fields);
        let area = grid.total_area();
        assert!(
            (integral / area).abs() < 1e-15,
            "mean of lap = {}",
            integral / area
        );
    }

    #[test]
    fn biharmonic_damps_high_wavenumbers_more() {
        // lap^2 of Y_l scales as (l(l+1)/a^2)^2: the l=4 harmonic must come
        // back with a much larger amplitude ratio than l=1.
        let grid = CubedSphere::new(6);
        let ops = build_ops(&grid);
        let mut dss = Dss::new(&grid);
        let mut ratio = |l: i32| -> f64 {
            let f = |lat: f64, lon: f64| (l as f64 * lon).cos() * lat.cos().powi(l);
            let mut fields = field_of(&grid, f);
            let before: f64 =
                fields.iter().flat_map(|v| v.iter()).map(|x| x * x).sum::<f64>().sqrt();
            biharmonic_fields(&ops, &mut dss, 1, &mut fields);
            let after: f64 =
                fields.iter().flat_map(|v| v.iter()).map(|x| x * x).sum::<f64>().sqrt();
            after / before
        };
        let r1 = ratio(1);
        let r4 = ratio(4);
        // (4*5 / 1*2)^2 = 100; allow generous slack for the cos^l proxy.
        assert!(r4 > 20.0 * r1, "r1 = {r1}, r4 = {r4}");
    }

    #[test]
    fn flat_operators_match_per_element_operators() {
        let grid = CubedSphere::new(3);
        let ops = build_ops(&grid);
        let mut dss = Dss::new(&grid);
        let sched = ElemScheduler::new(4);
        let nlev = 2;
        let per_elem: Vec<Vec<f64>> = grid
            .elements
            .iter()
            .enumerate()
            .map(|(e, el)| {
                (0..nlev)
                    .flat_map(|k| {
                        el.metric
                            .iter()
                            .map(move |m| (m.lat * (k + 1) as f64).sin() * m.lon.cos() + e as f64 * 1e-3)
                            .collect::<Vec<_>>()
                    })
                    .collect()
            })
            .collect();
        let flat0: Vec<f64> = per_elem.iter().flatten().copied().collect();

        let mut a = per_elem.clone();
        let mut b = flat0.clone();
        biharmonic_fields(&ops, &mut dss, nlev, &mut a);
        biharmonic_flat(&ops, &mut dss, &sched, nlev, &mut b);
        for (e, ae) in a.iter().enumerate() {
            assert_eq!(ae.as_slice(), &b[e * nlev * NPTS..(e + 1) * nlev * NPTS], "biharm e={e}");
        }

        let mut u1 = per_elem.clone();
        let mut v1: Vec<Vec<f64>> = per_elem.iter().map(|f| f.iter().map(|x| -x).collect()).collect();
        let mut u2 = flat0.clone();
        let mut v2: Vec<f64> = flat0.iter().map(|x| -x).collect();
        vlaplace_fields(&ops, &mut dss, nlev, &mut u1, &mut v1);
        vlaplace_flat(&ops, &mut dss, &sched, nlev, &mut u2, &mut v2);
        for (e, (ue, ve)) in u1.iter().zip(&v1).enumerate() {
            assert_eq!(ue.as_slice(), &u2[e * nlev * NPTS..(e + 1) * nlev * NPTS], "vlap u e={e}");
            assert_eq!(ve.as_slice(), &v2[e * nlev * NPTS..(e + 1) * nlev * NPTS], "vlap v e={e}");
        }
    }

    #[test]
    fn config_scaling_matches_cam() {
        let ne30 = HypervisConfig::for_ne(30);
        assert!((ne30.nu - 1.0e15).abs() < 1e9);
        let ne120 = HypervisConfig::for_ne(120);
        // (30/120)^3.2 ~ 0.0117.
        assert!((ne120.nu / 1.0e15 - 0.25f64.powf(3.2)).abs() < 1e-6);
        assert!(ne120.nu < ne30.nu);
        let off = HypervisConfig::off();
        assert_eq!(off.nu, 0.0);
    }

    #[test]
    fn vlaplace_of_rigid_rotation_is_small_and_tangent() {
        // Rigid rotation u = U cos(lat) is an l=1 vector harmonic:
        // vlap(v) = -2 v / a^2 (for the rotational part). Check magnitude.
        use cubesphere::EARTH_RADIUS;
        let grid = CubedSphere::new(6);
        let ops = build_ops(&grid);
        let mut dss = Dss::new(&grid);
        let uu = 10.0;
        let mut u = field_of(&grid, |lat, _| uu * lat.cos());
        let mut v = field_of(&grid, |_, _| 0.0);
        vlaplace_fields(&ops, &mut dss, 1, &mut u, &mut v);
        let scale = 2.0 * uu / (EARTH_RADIUS * EARTH_RADIUS);
        for (el, (ue, _ve)) in grid.elements.iter().zip(u.iter().zip(&v)) {
            for p in 0..NPTS {
                let expect = -2.0 * uu * el.metric[p].lat.cos() / (EARTH_RADIUS * EARTH_RADIUS);
                assert!(
                    (ue[p] - expect).abs() < 0.1 * scale,
                    "{} vs {expect}",
                    ue[p]
                );
            }
        }
    }
}
