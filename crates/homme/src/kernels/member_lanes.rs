//! Member-lane kernels: the four `V4F64` lanes are four ensemble members.
//!
//! Batching members at the coefficient-walk level while keeping each
//! member's fields in row-vector form does not scale: at M = 4 the
//! per-output working set (`[[V4F64; NP]; M]` accumulators) spills out of
//! the 16 ymm registers and the batched walk runs slower per member than
//! the serial one (measured: 118 ms/member at M = 4 vs 60 serial on the
//! full-step bench; DESIGN.md §5.9). This module is the lane-transposed
//! design instead: fields live in **member tiles** `[V4F64]` indexed by
//! `(level, point)` where lane `m` holds member `m`'s value at that grid
//! point. Consequences:
//!
//! * Every operator coefficient and metric term is the *same* for all four
//!   lanes, so it enters the kernel as a scalar splat from the existing
//!   [`BlockedOps`] tables — no new operator layout, no lane shuffles, and
//!   the per-output working set is one accumulator per quantity regardless
//!   of how many members ride along.
//! * No operation ever mixes lanes. Lane `m` of every intermediate is
//!   produced by exactly the scalar `f64` sequence the single-member
//!   blocked kernel applies to member `m` (the blocked kernels' lanes are
//!   independent GLL columns, so their per-lane arithmetic *is* a scalar
//!   sequence). Member `m` of a lane-batched run is therefore **bitwise
//!   identical** to its standalone run — the ensemble parity pin.
//! * A ragged batch (N mod 4 ≠ 0) duplicates the last live member into the
//!   dead lanes on gather ([`gather_member_tile`]) and simply never stores
//!   them on scatter ([`scatter_member_tile`]) — duplicated arithmetic is
//!   finite and harmless, and a poisoned member can never contaminate a
//!   neighbour because nothing crosses lanes.
//!
//! Gather/scatter between the per-member flat SoA arenas and the tiles is
//! pure 4×4 shuffle transposition ([`sw26010::interleave4`] /
//! [`sw26010::deinterleave4`]), paid once per step phase and amortized over
//! the hyperviscosity subcycles and RK stages that reuse the tiles.

use crate::kernels::blocked::BlockedOps;
use cubesphere::consts::{CP, RD};
use cubesphere::{NP, NPTS};
use sw26010::{deinterleave4, interleave4, V4F64};

/// The member-batching family of `Dycore::apply_hypervis_members` and the
/// ensemble engine. Lane-transposed member tiles (full groups of four,
/// ragged tails member-serial) are the only family; the type remains only
/// so the `perfbench` crate, which assigns `EnsembleConfig::member_kernel_path`
/// to `Dycore::member_kernels`, compiles. No other value can be selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemberKernelPath {
    /// Lane-transposed member tiles — lanes are members (this module).
    #[default]
    Lanes,
}

/// Gather up to four members' flat field windows into a lane tile:
/// `tile[i][m] = srcs[m][i]`. A ragged batch (fewer than four sources)
/// duplicates the last live member into the dead lanes, so every lane
/// always carries finite member data.
///
/// # Panics
/// Panics if `srcs` is empty or holds more than 4 slices, or on the length
/// mismatches [`interleave4`] rejects.
pub fn gather_member_tile(srcs: &[&[f64]], tile: &mut [V4F64]) {
    assert!(!srcs.is_empty() && srcs.len() <= 4, "gather_member_tile: 1..=4 members");
    let last = srcs.len() - 1;
    let pick = |m: usize| srcs[m.min(last)];
    interleave4([pick(0), pick(1), pick(2), pick(3)], tile);
}

/// Scatter a lane tile back to the live members' flat field windows:
/// `dsts[m][i] = tile[i][m]`. `dsts.len()` is the lane mask — duplicated
/// dead lanes are never stored.
pub fn scatter_member_tile(tile: &[V4F64], dsts: &mut [&mut [f64]]) {
    deinterleave4(tile, dsts);
}

/// Fused hyperviscosity Laplacian over one level's member tile: the vector
/// Laplacian of `(u, v)` and `NS` scalar weak Laplacians, lane-exact image
/// of [`vlaplace_scalars_blocked`](crate::kernels::blocked::vlaplace_scalars_blocked).
///
/// The blocked kernel's row vectors hold four GLL columns; here the output
/// is produced per grid point `(i, j)` with every coefficient a scalar
/// splat (`dvv[i][kk]`, `dvvt[kk][j]`, the metric entries at the point),
/// and every accumulator updated in the standalone kernel's exact term
/// order — so lane `m` runs member `m`'s standalone scalar sequence and the
/// committed bits match the single-member kernel per member. The per-output
/// working set is `3 + 2·NS` accumulators plus two splats: no register
/// spill at any batch width, unlike a row-batched M = 4 layout.
#[inline]
pub fn vlaplace_scalars_member_lanes<const NS: usize>(
    bop: &BlockedOps,
    u: &[V4F64; NPTS],
    v: &[V4F64; NPTS],
    s: &[[V4F64; NPTS]; NS],
) -> ([V4F64; NPTS], [V4F64; NPTS], [[V4F64; NPTS]; NS]) {
    // Walk-1 prologue: contravariant mass flux and covariant components,
    // per point, metric terms splat across the member lanes.
    let mut gv1 = [V4F64::zero(); NPTS];
    let mut gv2 = [V4F64::zero(); NPTS];
    let mut ucov = [V4F64::zero(); NPTS];
    let mut vcov = [V4F64::zero(); NPTS];
    for r in 0..NP {
        for j in 0..NP {
            let p = r * NP + j;
            let c1 = V4F64::splat(bop.dinv[0][0][r][j]) * u[p]
                + V4F64::splat(bop.dinv[0][1][r][j]) * v[p];
            let c2 = V4F64::splat(bop.dinv[1][0][r][j]) * u[p]
                + V4F64::splat(bop.dinv[1][1][r][j]) * v[p];
            let md = V4F64::splat(bop.metdet[r][j]);
            gv1[p] = md * c1;
            gv2[p] = md * c2;
            ucov[p] =
                V4F64::splat(bop.d[0][0][r][j]) * u[p] + V4F64::splat(bop.d[1][0][r][j]) * v[p];
            vcov[p] =
                V4F64::splat(bop.d[0][1][r][j]) * u[p] + V4F64::splat(bop.d[1][1][r][j]) * v[p];
        }
    }
    // Walk 1: div + vort + every scalar's weak-gradient fluxes. For output
    // point (i, j) the blocked kernel's lane-j sequence is
    // `+= dvv[i][kk]·X(kk,j)` then `+= dvv[j][kk]·Y(i,kk)` per `kk` — both
    // coefficients scalar, both reproduced here as splats.
    let mut div = [V4F64::zero(); NPTS];
    let mut vort = [V4F64::zero(); NPTS];
    let mut c1s = [[V4F64::zero(); NPTS]; NS];
    let mut c2s = [[V4F64::zero(); NPTS]; NS];
    for i in 0..NP {
        for j in 0..NP {
            let p = i * NP + j;
            let mut acc_div = V4F64::zero();
            let mut dv_da = V4F64::zero();
            let mut du_db = V4F64::zero();
            let mut s_a = [V4F64::zero(); NS];
            let mut s_b = [V4F64::zero(); NS];
            for kk in 0..NP {
                let ca = V4F64::splat(bop.dvv[i][kk]);
                let cb = V4F64::splat(bop.dvvt[kk][j]);
                acc_div = acc_div + ca * gv1[kk * NP + j];
                acc_div = acc_div + cb * gv2[i * NP + kk];
                dv_da = dv_da + ca * vcov[kk * NP + j];
                du_db = du_db + cb * ucov[i * NP + kk];
                for t in 0..NS {
                    s_a[t] = s_a[t] + ca * s[t][kk * NP + j];
                    s_b[t] = s_b[t] + cb * s[t][i * NP + kk];
                }
            }
            let rm = V4F64::splat(bop.rmetdet[i][j]);
            div[p] = acc_div * bop.dscale * rm;
            vort[p] = (dv_da - du_db) * bop.dscale * rm;
            for t in 0..NS {
                let (da, db) = (s_a[t] * bop.dscale, s_b[t] * bop.dscale);
                let gx = V4F64::splat(bop.dinv[0][0][i][j]) * da
                    + V4F64::splat(bop.dinv[1][0][i][j]) * db;
                let gy = V4F64::splat(bop.dinv[0][1][i][j]) * da
                    + V4F64::splat(bop.dinv[1][1][i][j]) * db;
                let smp = V4F64::splat(bop.spheremp[i][j]);
                c1s[t][p] = smp
                    * (V4F64::splat(bop.dinv[0][0][i][j]) * gx
                        + V4F64::splat(bop.dinv[0][1][i][j]) * gy);
                c2s[t][p] = smp
                    * (V4F64::splat(bop.dinv[1][0][i][j]) * gx
                        + V4F64::splat(bop.dinv[1][1][i][j]) * gy);
            }
        }
    }
    // Walk 2: second weak-form contraction + grad(div) − curl(vort). The
    // scalars keep their `i` terms strictly before their `j` terms, exactly
    // as `laplace_wk` orders them.
    let mut lu = [V4F64::zero(); NPTS];
    let mut lv = [V4F64::zero(); NPTS];
    let mut ls = [[V4F64::zero(); NPTS]; NS];
    for a in 0..NP {
        for b in 0..NP {
            let p = a * NP + b;
            let mut acc = [V4F64::zero(); NS];
            let mut d_a = V4F64::zero();
            let mut d_b = V4F64::zero();
            let mut v_a = V4F64::zero();
            let mut v_b = V4F64::zero();
            for i in 0..NP {
                let ci = V4F64::splat(bop.dvv[i][a]);
                for t in 0..NS {
                    acc[t] = acc[t] + ci * c1s[t][i * NP + b];
                }
                let ca = V4F64::splat(bop.dvv[a][i]);
                let cb = V4F64::splat(bop.dvvt[i][b]);
                d_a = d_a + ca * div[i * NP + b];
                d_b = d_b + cb * div[a * NP + i];
                v_a = v_a + ca * vort[i * NP + b];
                v_b = v_b + cb * vort[a * NP + i];
            }
            for j in 0..NP {
                let cj = V4F64::splat(bop.dvv[j][b]);
                for t in 0..NS {
                    acc[t] = acc[t] + cj * c2s[t][a * NP + j];
                }
            }
            for t in 0..NS {
                ls[t][p] = acc[t] * (-bop.dscale) / V4F64::splat(bop.spheremp[a][b]);
            }
            let (da, db) = (d_a * bop.dscale, d_b * bop.dscale);
            let gdx =
                V4F64::splat(bop.dinv[0][0][a][b]) * da + V4F64::splat(bop.dinv[1][0][a][b]) * db;
            let gdy =
                V4F64::splat(bop.dinv[0][1][a][b]) * da + V4F64::splat(bop.dinv[1][1][a][b]) * db;
            let (da, db) = (v_a * bop.dscale, v_b * bop.dscale);
            let rm = V4F64::splat(bop.rmetdet[a][b]);
            let cc1 = db * rm;
            let cc2 = -da * rm;
            let cx = V4F64::splat(bop.d[0][0][a][b]) * cc1 + V4F64::splat(bop.d[0][1][a][b]) * cc2;
            let cy = V4F64::splat(bop.d[1][0][a][b]) * cc1 + V4F64::splat(bop.d[1][1][a][b]) * cc2;
            lu[p] = gdx - cx;
            lv[p] = gdy - cy;
        }
    }
    (lu, lv, ls)
}

/// First hyperviscosity pass over every level of one element's member
/// tiles, out of place. Lane `m` is bitwise identical to
/// [`hypervis_pass_element_blocked`](crate::kernels::blocked::hypervis_pass_element_blocked)
/// on member `m`.
#[allow(clippy::too_many_arguments)]
pub fn hypervis_pass_member_lanes(
    bop: &BlockedOps,
    nlev: usize,
    su: &[V4F64],
    sv: &[V4F64],
    st: &[V4F64],
    sdp: &[V4F64],
    ou: &mut [V4F64],
    ov: &mut [V4F64],
    ot: &mut [V4F64],
    odp: &mut [V4F64],
) {
    for k in 0..nlev {
        let o = k * NPTS;
        let u: [V4F64; NPTS] = su[o..o + NPTS].try_into().unwrap();
        let v: [V4F64; NPTS] = sv[o..o + NPTS].try_into().unwrap();
        let s: [[V4F64; NPTS]; 2] =
            [st[o..o + NPTS].try_into().unwrap(), sdp[o..o + NPTS].try_into().unwrap()];
        let (lu, lv, ls) = vlaplace_scalars_member_lanes(bop, &u, &v, &s);
        ou[o..o + NPTS].copy_from_slice(&lu);
        ov[o..o + NPTS].copy_from_slice(&lv);
        ot[o..o + NPTS].copy_from_slice(&ls[0]);
        odp[o..o + NPTS].copy_from_slice(&ls[1]);
    }
}

/// In-place second (biharmonic) hyperviscosity pass over member tiles.
/// Lane `m` is bitwise identical to
/// [`hypervis_pass_levels_blocked`](crate::kernels::blocked::hypervis_pass_levels_blocked)
/// on member `m`.
pub fn hypervis_pass_levels_member_lanes(
    bop: &BlockedOps,
    nlev: usize,
    u: &mut [V4F64],
    v: &mut [V4F64],
    t: &mut [V4F64],
    dp: &mut [V4F64],
) {
    for k in 0..nlev {
        let o = k * NPTS;
        let ur: [V4F64; NPTS] = u[o..o + NPTS].try_into().unwrap();
        let vr: [V4F64; NPTS] = v[o..o + NPTS].try_into().unwrap();
        let s: [[V4F64; NPTS]; 2] =
            [t[o..o + NPTS].try_into().unwrap(), dp[o..o + NPTS].try_into().unwrap()];
        let (lu, lv, ls) = vlaplace_scalars_member_lanes(bop, &ur, &vr, &s);
        u[o..o + NPTS].copy_from_slice(&lu);
        v[o..o + NPTS].copy_from_slice(&lv);
        t[o..o + NPTS].copy_from_slice(&ls[0]);
        dp[o..o + NPTS].copy_from_slice(&ls[1]);
    }
}

/// Sponge-layer Laplacian over the top `ks` levels of one element's member
/// tiles, out of place (`NS = 1`). Lane `m` is bitwise identical to
/// [`sponge_pass_element_blocked`](crate::kernels::blocked::sponge_pass_element_blocked)
/// on member `m`.
#[allow(clippy::too_many_arguments)]
pub fn sponge_pass_member_lanes(
    bop: &BlockedOps,
    ks: usize,
    su: &[V4F64],
    sv: &[V4F64],
    st: &[V4F64],
    ou: &mut [V4F64],
    ov: &mut [V4F64],
    ot: &mut [V4F64],
) {
    for k in 0..ks {
        let o = k * NPTS;
        let u: [V4F64; NPTS] = su[o..o + NPTS].try_into().unwrap();
        let v: [V4F64; NPTS] = sv[o..o + NPTS].try_into().unwrap();
        let s: [[V4F64; NPTS]; 1] = [st[o..o + NPTS].try_into().unwrap()];
        let (lu, lv, ls) = vlaplace_scalars_member_lanes(bop, &u, &v, &s);
        ou[o..o + NPTS].copy_from_slice(&lu);
        ov[o..o + NPTS].copy_from_slice(&lv);
        ot[o..o + NPTS].copy_from_slice(&ls[0]);
    }
}

/// Member-lane forward pressure scan, lane-exact image of
/// [`pressure_scan_blocked`](crate::rhs::pressure_scan_blocked): midpoint
/// before the carry update, per point.
pub fn pressure_scan_member_lanes(
    nlev: usize,
    ptop: f64,
    dp: &[V4F64],
    p_int: &mut [V4F64],
    p_mid: &mut [V4F64],
) {
    debug_assert_eq!(dp.len(), nlev * NPTS);
    debug_assert_eq!(p_int.len(), (nlev + 1) * NPTS);
    debug_assert_eq!(p_mid.len(), nlev * NPTS);
    let mut carry = [V4F64::splat(ptop); NPTS];
    p_int[..NPTS].copy_from_slice(&carry);
    let half = V4F64::splat(0.5);
    for ((dpk, pik), pmk) in dp
        .chunks_exact(NPTS)
        .zip(p_int[NPTS..].chunks_exact_mut(NPTS))
        .zip(p_mid.chunks_exact_mut(NPTS))
    {
        for p in 0..NPTS {
            pmk[p] = carry[p] + half * dpk[p];
            carry[p] = carry[p] + dpk[p];
        }
        pik.copy_from_slice(&carry);
    }
}

/// Member-lane reverse geopotential scan, lane-exact image of
/// [`geopotential_scan_blocked`](crate::rhs::geopotential_scan_blocked).
/// `V4F64::ln` is lane-wise scalar `f64::ln`, so the bits match per member.
pub fn geopotential_scan_member_lanes(
    nlev: usize,
    phis: &[V4F64],
    t: &[V4F64],
    p_int: &[V4F64],
    p_mid: &[V4F64],
    phi_mid: &mut [V4F64],
) {
    debug_assert_eq!(phis.len(), NPTS);
    let rd = V4F64::splat(RD);
    let mut phi_below = [V4F64::zero(); NPTS];
    phi_below.copy_from_slice(&phis[..NPTS]);
    for k in (0..nlev).rev() {
        let o = k * NPTS;
        for p in 0..NPTS {
            let rdt = rd * t[o + p];
            phi_mid[o + p] = phi_below[p] + rdt * (p_int[o + NPTS + p] / p_mid[o + p]).ln();
            phi_below[p] = phi_below[p] + rdt * (p_int[o + NPTS + p] / p_int[o + p]).ln();
        }
    }
}

/// Scan scratch for the member-lane RHS: the three column-scan tiles of
/// one element, sized once at construction (zero steady-state allocation).
#[derive(Debug, Clone)]
pub struct MemberRhsScratch {
    /// Interface pressure tile, `(nlev + 1) * NPTS`.
    pub p_int: Vec<V4F64>,
    /// Midpoint pressure tile, `nlev * NPTS`.
    pub p_mid: Vec<V4F64>,
    /// Midpoint geopotential tile, `nlev * NPTS`.
    pub phi_mid: Vec<V4F64>,
}

impl MemberRhsScratch {
    pub fn new(nlev: usize) -> Self {
        MemberRhsScratch {
            p_int: vec![V4F64::zero(); (nlev + 1) * NPTS],
            p_mid: vec![V4F64::zero(); nlev * NPTS],
            phi_mid: vec![V4F64::zero(); nlev * NPTS],
        }
    }
}

/// Fused member-lane RHS: both column scans, every horizontal operator, the
/// omega scan, and the `out = base + c_dt * tend` apply for one element's
/// member tiles — lane-exact image of
/// [`element_rhs_apply_blocked`](crate::kernels::blocked::element_rhs_apply_blocked),
/// so lane `m` is bitwise identical to the blocked RHS on member `m`.
#[allow(clippy::too_many_arguments)]
pub fn element_rhs_apply_member_lanes(
    bop: &BlockedOps,
    nlev: usize,
    ptop: f64,
    eval_u: &[V4F64],
    eval_v: &[V4F64],
    eval_t: &[V4F64],
    eval_dp3d: &[V4F64],
    phis: &[V4F64],
    base_u: &[V4F64],
    base_v: &[V4F64],
    base_t: &[V4F64],
    base_dp3d: &[V4F64],
    c_dt: f64,
    out_u: &mut [V4F64],
    out_v: &mut [V4F64],
    out_t: &mut [V4F64],
    out_dp3d: &mut [V4F64],
    scratch: &mut MemberRhsScratch,
) {
    pressure_scan_member_lanes(nlev, ptop, eval_dp3d, &mut scratch.p_int, &mut scratch.p_mid);
    geopotential_scan_member_lanes(
        nlev,
        phis,
        eval_t,
        &scratch.p_int,
        &scratch.p_mid,
        &mut scratch.phi_mid,
    );

    let kappa = RD / CP;
    let half = V4F64::splat(0.5);
    // Running omega accumulator: sum of divdp over the levels above.
    let mut acc = [V4F64::zero(); NPTS];
    for k in 0..nlev {
        let o = k * NPTS;
        let u: [V4F64; NPTS] = eval_u[o..o + NPTS].try_into().unwrap();
        let v: [V4F64; NPTS] = eval_v[o..o + NPTS].try_into().unwrap();
        let t: [V4F64; NPTS] = eval_t[o..o + NPTS].try_into().unwrap();
        let dp: [V4F64; NPTS] = eval_dp3d[o..o + NPTS].try_into().unwrap();
        let pm: [V4F64; NPTS] = scratch.p_mid[o..o + NPTS].try_into().unwrap();
        let phi: [V4F64; NPTS] = scratch.phi_mid[o..o + NPTS].try_into().unwrap();

        let mut energy = [V4F64::zero(); NPTS];
        let mut gv1 = [V4F64::zero(); NPTS];
        let mut gv2 = [V4F64::zero(); NPTS];
        let mut ucov = [V4F64::zero(); NPTS];
        let mut vcov = [V4F64::zero(); NPTS];
        for r in 0..NP {
            for j in 0..NP {
                let p = r * NP + j;
                let udp = u[p] * dp[p];
                let vdp = v[p] * dp[p];
                energy[p] = phi[p] + half * (u[p] * u[p] + v[p] * v[p]);
                let c1 = V4F64::splat(bop.dinv[0][0][r][j]) * udp
                    + V4F64::splat(bop.dinv[0][1][r][j]) * vdp;
                let c2 = V4F64::splat(bop.dinv[1][0][r][j]) * udp
                    + V4F64::splat(bop.dinv[1][1][r][j]) * vdp;
                let md = V4F64::splat(bop.metdet[r][j]);
                gv1[p] = md * c1;
                gv2[p] = md * c2;
                ucov[p] =
                    V4F64::splat(bop.d[0][0][r][j]) * u[p] + V4F64::splat(bop.d[1][0][r][j]) * v[p];
                vcov[p] =
                    V4F64::splat(bop.d[0][1][r][j]) * u[p] + V4F64::splat(bop.d[1][1][r][j]) * v[p];
            }
        }
        // The fused nine-accumulator contraction of the blocked RHS, per
        // output point, term order unchanged per lane.
        let mut divdp = [V4F64::zero(); NPTS];
        let mut vort = [V4F64::zero(); NPTS];
        let mut gpx = [V4F64::zero(); NPTS];
        let mut gpy = [V4F64::zero(); NPTS];
        let mut gex = [V4F64::zero(); NPTS];
        let mut gey = [V4F64::zero(); NPTS];
        let mut gtx = [V4F64::zero(); NPTS];
        let mut gty = [V4F64::zero(); NPTS];
        for i in 0..NP {
            for j in 0..NP {
                let p = i * NP + j;
                let mut acc_div = V4F64::zero();
                let mut dv_da = V4F64::zero();
                let mut du_db = V4F64::zero();
                let mut pm_a = V4F64::zero();
                let mut pm_b = V4F64::zero();
                let mut en_a = V4F64::zero();
                let mut en_b = V4F64::zero();
                let mut t_a = V4F64::zero();
                let mut t_b = V4F64::zero();
                for kk in 0..NP {
                    let ca = V4F64::splat(bop.dvv[i][kk]);
                    let cb = V4F64::splat(bop.dvvt[kk][j]);
                    acc_div = acc_div + ca * gv1[kk * NP + j];
                    acc_div = acc_div + cb * gv2[i * NP + kk];
                    dv_da = dv_da + ca * vcov[kk * NP + j];
                    du_db = du_db + cb * ucov[i * NP + kk];
                    pm_a = pm_a + ca * pm[kk * NP + j];
                    pm_b = pm_b + cb * pm[i * NP + kk];
                    en_a = en_a + ca * energy[kk * NP + j];
                    en_b = en_b + cb * energy[i * NP + kk];
                    t_a = t_a + ca * t[kk * NP + j];
                    t_b = t_b + cb * t[i * NP + kk];
                }
                let rm = V4F64::splat(bop.rmetdet[i][j]);
                divdp[p] = acc_div * bop.dscale * rm;
                vort[p] = (dv_da - du_db) * bop.dscale * rm;
                let (da, db) = (pm_a * bop.dscale, pm_b * bop.dscale);
                gpx[p] = V4F64::splat(bop.dinv[0][0][i][j]) * da
                    + V4F64::splat(bop.dinv[1][0][i][j]) * db;
                gpy[p] = V4F64::splat(bop.dinv[0][1][i][j]) * da
                    + V4F64::splat(bop.dinv[1][1][i][j]) * db;
                let (da, db) = (en_a * bop.dscale, en_b * bop.dscale);
                gex[p] = V4F64::splat(bop.dinv[0][0][i][j]) * da
                    + V4F64::splat(bop.dinv[1][0][i][j]) * db;
                gey[p] = V4F64::splat(bop.dinv[0][1][i][j]) * da
                    + V4F64::splat(bop.dinv[1][1][i][j]) * db;
                let (da, db) = (t_a * bop.dscale, t_b * bop.dscale);
                gtx[p] = V4F64::splat(bop.dinv[0][0][i][j]) * da
                    + V4F64::splat(bop.dinv[1][0][i][j]) * db;
                gty[p] = V4F64::splat(bop.dinv[0][1][i][j]) * da
                    + V4F64::splat(bop.dinv[1][1][i][j]) * db;
            }
        }

        for r in 0..NP {
            for j in 0..NP {
                let p = r * NP + j;
                let po = o + p;
                let vgrad = u[p] * gpx[p] + v[p] * gpy[p];
                let omega = (vgrad - acc[p] - half * divdp[p]) / pm[p];
                acc[p] = acc[p] + divdp[p];
                let abs_vort = V4F64::splat(bop.fcor[r][j]) + vort[p];
                let rtp = V4F64::splat(RD) * t[p] / pm[p];
                let tend_u = abs_vort * v[p] - gex[p] - rtp * gpx[p];
                let tend_v = -abs_vort * u[p] - gey[p] - rtp * gpy[p];
                let tend_t =
                    -(u[p] * gtx[p] + v[p] * gty[p]) + V4F64::splat(kappa) * t[p] * omega;
                let tend_dp = -divdp[p];
                out_u[po] = base_u[po] + tend_u * c_dt;
                out_v[po] = base_v[po] + tend_v * c_dt;
                out_t[po] = base_t[po] + tend_t * c_dt;
                out_dp3d[po] = base_dp3d[po] + tend_dp * c_dt;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deriv::build_ops;
    use crate::kernels::blocked::{
        element_rhs_apply_blocked, hypervis_pass_element_blocked, hypervis_pass_levels_blocked,
        sponge_pass_element_blocked,
    };
    use crate::rhs::{geopotential_scan_blocked, pressure_scan_blocked, RhsScratch};
    use cubesphere::CubedSphere;

    fn lcg_field(n: usize, seed: &mut u64, lo: f64, hi: f64) -> Vec<f64> {
        (0..n)
            .map(|_| {
                *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let u = ((*seed >> 11) as f64) / ((1u64 << 53) as f64);
                lo + u * (hi - lo)
            })
            .collect()
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    fn gather(members: &[Vec<f64>], n: usize) -> Vec<V4F64> {
        let mut tile = vec![V4F64::zero(); n];
        let srcs: Vec<&[f64]> = members.iter().map(|m| m.as_slice()).collect();
        gather_member_tile(&srcs, &mut tile);
        tile
    }

    fn scatter(tile: &[V4F64], live: usize, n: usize) -> Vec<Vec<f64>> {
        let mut outs = vec![vec![0.0f64; n]; live];
        let mut views: Vec<&mut [f64]> = outs.iter_mut().map(|o| o.as_mut_slice()).collect();
        scatter_member_tile(tile, &mut views);
        outs
    }

    #[test]
    fn lane_hypervis_passes_match_blocked_per_member_bitwise() {
        let ops = build_ops(&CubedSphere::new(2));
        let mut seed = 0x1a2b_3c4d_u64;
        for (idx, nlev) in [1usize, 3, 8].into_iter().enumerate() {
            let bop = crate::kernels::blocked::BlockedOps::new(&ops[idx * 5 % ops.len()]);
            let n = nlev * NPTS;
            for live in 1..=4usize {
                let u: Vec<Vec<f64>> =
                    (0..live).map(|_| lcg_field(n, &mut seed, -40.0, 40.0)).collect();
                let v: Vec<Vec<f64>> =
                    (0..live).map(|_| lcg_field(n, &mut seed, -40.0, 40.0)).collect();
                let t: Vec<Vec<f64>> =
                    (0..live).map(|_| lcg_field(n, &mut seed, 220.0, 310.0)).collect();
                let dp: Vec<Vec<f64>> =
                    (0..live).map(|_| lcg_field(n, &mut seed, 200.0, 900.0)).collect();

                // Per-member single-member oracle.
                let mut eu = vec![vec![0.0; n]; live];
                let mut ev = vec![vec![0.0; n]; live];
                let mut et = vec![vec![0.0; n]; live];
                let mut edp = vec![vec![0.0; n]; live];
                for m in 0..live {
                    hypervis_pass_element_blocked(
                        &bop, nlev, &u[m], &v[m], &t[m], &dp[m], &mut eu[m], &mut ev[m],
                        &mut et[m], &mut edp[m],
                    );
                }

                // Lane path: gather (ragged tail duplicates the last live
                // member), out-of-place pass, then the in-place pass on the
                // result — the biharmonic sequence.
                let (tu, tv, tt, tdp) =
                    (gather(&u, n), gather(&v, n), gather(&t, n), gather(&dp, n));
                let mut ou = vec![V4F64::zero(); n];
                let mut ov = vec![V4F64::zero(); n];
                let mut ot = vec![V4F64::zero(); n];
                let mut odp = vec![V4F64::zero(); n];
                hypervis_pass_member_lanes(
                    &bop, nlev, &tu, &tv, &tt, &tdp, &mut ou, &mut ov, &mut ot, &mut odp,
                );
                for (m, e) in eu.iter().enumerate() {
                    let got = scatter(&ou, live, n);
                    assert_eq!(bits(e), bits(&got[m]), "nlev={nlev} live={live} m={m} u");
                }
                for (f, e, name) in
                    [(&ov, &ev, "v"), (&ot, &et, "t"), (&odp, &edp, "dp3d")]
                {
                    let got = scatter(f, live, n);
                    for m in 0..live {
                        assert_eq!(
                            bits(&e[m]),
                            bits(&got[m]),
                            "nlev={nlev} live={live} m={m} {name}"
                        );
                    }
                }

                for m in 0..live {
                    hypervis_pass_levels_blocked(
                        &bop, nlev, &mut eu[m], &mut ev[m], &mut et[m], &mut edp[m],
                    );
                }
                hypervis_pass_levels_member_lanes(&bop, nlev, &mut ou, &mut ov, &mut ot, &mut odp);
                for (f, e, name) in [
                    (&ou, &eu, "u"),
                    (&ov, &ev, "v"),
                    (&ot, &et, "t"),
                    (&odp, &edp, "dp3d"),
                ] {
                    let got = scatter(f, live, n);
                    for m in 0..live {
                        assert_eq!(
                            bits(&e[m]),
                            bits(&got[m]),
                            "in-place nlev={nlev} live={live} m={m} {name}"
                        );
                    }
                }

                // Sponge pass over the top levels.
                let ks = nlev.min(2);
                let mut su = vec![vec![0.0; ks * NPTS]; live];
                let mut sv = vec![vec![0.0; ks * NPTS]; live];
                let mut stf = vec![vec![0.0; ks * NPTS]; live];
                for m in 0..live {
                    sponge_pass_element_blocked(
                        &bop, ks, &u[m], &v[m], &t[m], &mut su[m], &mut sv[m], &mut stf[m],
                    );
                }
                let mut lu = vec![V4F64::zero(); ks * NPTS];
                let mut lv = vec![V4F64::zero(); ks * NPTS];
                let mut lt = vec![V4F64::zero(); ks * NPTS];
                sponge_pass_member_lanes(&bop, ks, &tu, &tv, &tt, &mut lu, &mut lv, &mut lt);
                for (f, e, name) in [(&lu, &su, "u"), (&lv, &sv, "v"), (&lt, &stf, "t")] {
                    let got = scatter(f, live, ks * NPTS);
                    for m in 0..live {
                        assert_eq!(
                            bits(&e[m]),
                            bits(&got[m]),
                            "sponge nlev={nlev} live={live} m={m} {name}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lane_scans_match_blocked_per_member_bitwise() {
        let mut seed = 0x5ca9_5ca9_u64;
        for nlev in [1usize, 3, 26, 128] {
            let n = nlev * NPTS;
            let ptop = 225.0;
            let dp: Vec<Vec<f64>> = (0..4).map(|_| lcg_field(n, &mut seed, 150.0, 900.0)).collect();
            let t: Vec<Vec<f64>> = (0..4).map(|_| lcg_field(n, &mut seed, 230.0, 310.0)).collect();
            let phis: Vec<Vec<f64>> =
                (0..4).map(|_| lcg_field(NPTS, &mut seed, 0.0, 5000.0)).collect();

            let mut e_pi = vec![vec![0.0; n + NPTS]; 4];
            let mut e_pm = vec![vec![0.0; n]; 4];
            let mut e_phi = vec![vec![0.0; n]; 4];
            for m in 0..4 {
                pressure_scan_blocked(nlev, ptop, &dp[m], &mut e_pi[m], &mut e_pm[m]);
                geopotential_scan_blocked(
                    nlev, &phis[m], &t[m], &e_pi[m], &e_pm[m], &mut e_phi[m],
                );
            }

            let tdp = gather(&dp, n);
            let tt = gather(&t, n);
            let tphis = gather(&phis, NPTS);
            let mut pi = vec![V4F64::zero(); n + NPTS];
            let mut pmid = vec![V4F64::zero(); n];
            let mut phim = vec![V4F64::zero(); n];
            pressure_scan_member_lanes(nlev, ptop, &tdp, &mut pi, &mut pmid);
            geopotential_scan_member_lanes(nlev, &tphis, &tt, &pi, &pmid, &mut phim);

            for (f, e, name) in
                [(&pi, &e_pi, "p_int"), (&pmid, &e_pm, "p_mid"), (&phim, &e_phi, "phi_mid")]
            {
                let got = scatter(f, 4, f.len());
                for m in 0..4 {
                    assert_eq!(bits(&e[m]), bits(&got[m]), "nlev={nlev} m={m} {name}");
                }
            }
        }
    }

    #[test]
    fn lane_rhs_matches_blocked_per_member_bitwise() {
        let ops = build_ops(&CubedSphere::new(2));
        let mut seed = 0x0f0e_0d0c_u64;
        for (idx, nlev) in [1usize, 3, 8].into_iter().enumerate() {
            let bop = crate::kernels::blocked::BlockedOps::new(&ops[(idx * 7 + 1) % ops.len()]);
            let n = nlev * NPTS;
            let ptop = 225.0;
            let c_dt = 77.5;
            for live in [3usize, 4] {
                let mk = |seed: &mut u64, lo, hi| -> Vec<Vec<f64>> {
                    (0..live).map(|_| lcg_field(n, seed, lo, hi)).collect()
                };
                let u = mk(&mut seed, -30.0, 30.0);
                let v = mk(&mut seed, -30.0, 30.0);
                let t = mk(&mut seed, 220.0, 310.0);
                let dp = mk(&mut seed, 200.0, 900.0);
                let bu = mk(&mut seed, -30.0, 30.0);
                let bv = mk(&mut seed, -30.0, 30.0);
                let bt = mk(&mut seed, 220.0, 310.0);
                let bdp = mk(&mut seed, 200.0, 900.0);
                let phis: Vec<Vec<f64>> =
                    (0..live).map(|_| lcg_field(NPTS, &mut seed, 0.0, 5000.0)).collect();

                let mut eo = vec![[vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]]; live];
                let mut rs = RhsScratch::new(nlev);
                for m in 0..live {
                    let [ou, ov, ot, odp] = &mut eo[m];
                    element_rhs_apply_blocked(
                        &bop, nlev, ptop, &u[m], &v[m], &t[m], &dp[m], &phis[m], &bu[m], &bv[m],
                        &bt[m], &bdp[m], c_dt, ou, ov, ot, odp, &mut rs,
                    );
                }

                let tiles: Vec<Vec<V4F64>> = [&u, &v, &t, &dp, &bu, &bv, &bt, &bdp]
                    .iter()
                    .map(|f| gather(f, n))
                    .collect();
                let tphis = gather(&phis, NPTS);
                let mut lo = vec![vec![V4F64::zero(); n]; 4];
                let mut ms = MemberRhsScratch::new(nlev);
                {
                    let (o0, rest) = lo.split_at_mut(1);
                    let (o1, rest) = rest.split_at_mut(1);
                    let (o2, o3) = rest.split_at_mut(1);
                    element_rhs_apply_member_lanes(
                        &bop, nlev, ptop, &tiles[0], &tiles[1], &tiles[2], &tiles[3], &tphis,
                        &tiles[4], &tiles[5], &tiles[6], &tiles[7], c_dt, &mut o0[0], &mut o1[0],
                        &mut o2[0], &mut o3[0], &mut ms,
                    );
                }
                for (f, fi) in lo.iter().enumerate() {
                    let got = scatter(fi, live, n);
                    for m in 0..live {
                        assert_eq!(
                            bits(&eo[m][f]),
                            bits(&got[m]),
                            "nlev={nlev} live={live} m={m} field={f}"
                        );
                    }
                }
            }
        }
    }
}
