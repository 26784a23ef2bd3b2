//! Direct Stiffness Summation (DSS).
//!
//! Spectral elements duplicate the GLL points on shared edges and corners;
//! after computing element-local operators, the duplicated values must be
//! made continuous by mass-weighted averaging over every element sharing
//! the point. This serial implementation is the single-rank reference; the
//! distributed version (with the paper's redesigned boundary exchange)
//! lives in [`crate::bndry`] and must agree with this one exactly.

use cubesphere::{CubedSphere, NPTS};
use sw26010::V4F64;

/// Serial DSS engine for a grid.
#[derive(Debug, Clone)]
pub struct Dss {
    nglobal: usize,
    inv_mass: Vec<f64>,
    /// Per element: global ids and spheremp, flattened.
    gids: Vec<usize>,
    spheremp: Vec<f64>,
    /// Scratch accumulator.
    accum: Vec<f64>,
    /// Four-lane scratch accumulator for the fused four-field walks.
    accum4: Vec<f64>,
    /// Member-lane scratch accumulator: one `V4F64` per global point per
    /// field of the fused four-tile walks (the single-tile walks use the
    /// first `nglobal` slots).
    accum_lanes: Vec<V4F64>,
}

impl Dss {
    /// Build from the grid's assembly map.
    pub fn new(grid: &CubedSphere) -> Self {
        let mut gids = Vec::with_capacity(grid.nelem() * NPTS);
        let mut spheremp = Vec::with_capacity(grid.nelem() * NPTS);
        for el in &grid.elements {
            gids.extend_from_slice(&el.gids);
            spheremp.extend_from_slice(&el.spheremp);
        }
        Dss {
            nglobal: grid.nglobal,
            inv_mass: grid.inv_mass.clone(),
            gids,
            spheremp,
            accum: vec![0.0; grid.nglobal],
            accum4: vec![0.0; 4 * grid.nglobal],
            accum_lanes: vec![V4F64::zero(); 4 * grid.nglobal],
        }
    }

    /// Assemble one horizontal level stored as per-element 16-value chunks.
    ///
    /// `field` is a mutable per-element view: `field[e][p]`. After the call
    /// every shared point holds the identical mass-weighted average.
    pub fn apply_level(&mut self, field: &mut [&mut [f64]]) {
        debug_assert_eq!(field.len() * NPTS, self.gids.len());
        for a in &mut self.accum {
            *a = 0.0;
        }
        for (e, chunk) in field.iter().enumerate() {
            let base = e * NPTS;
            for p in 0..NPTS {
                self.accum[self.gids[base + p]] += self.spheremp[base + p] * chunk[p];
            }
        }
        for (e, chunk) in field.iter_mut().enumerate() {
            let base = e * NPTS;
            for p in 0..NPTS {
                let g = self.gids[base + p];
                chunk[p] = self.accum[g] * self.inv_mass[g];
            }
        }
    }

    /// Assemble a full 3-D field: `fields[e]` holds `[nlev][NPTS]` values.
    /// Levels are assembled independently.
    pub fn apply(&mut self, fields: &mut [Vec<f64>], nlev: usize) {
        let nelem = fields.len();
        for k in 0..nlev {
            // Reborrow each element's level-k chunk.
            let mut views: Vec<&mut [f64]> = Vec::with_capacity(nelem);
            // SAFETY-free approach: split progressively.
            let mut rest: &mut [Vec<f64>] = fields;
            while let Some((head, tail)) = rest.split_first_mut() {
                views.push(&mut head[k * NPTS..(k + 1) * NPTS]);
                rest = tail;
            }
            self.apply_level(&mut views);
        }
    }

    /// Assemble a field stored in one flat structure-of-arrays buffer of
    /// `[nelem][levels][NPTS]` (the [`crate::state::State`] arena layout;
    /// pass `levels = qsize * nlev` for the tracer arena). Accumulation
    /// order per level matches [`Dss::apply`] element-for-element, so the
    /// two paths are bitwise identical. Allocation-free.
    pub fn apply_flat(&mut self, field: &mut [f64], levels: usize) {
        let nelem = self.gids.len() / NPTS;
        debug_assert_eq!(field.len(), nelem * levels * NPTS);
        let estride = levels * NPTS;
        for k in 0..levels {
            for a in &mut self.accum {
                *a = 0.0;
            }
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    self.accum[self.gids[base + p]] += self.spheremp[base + p] * field[off + p];
                }
            }
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    field[off + p] = self.accum[g] * self.inv_mass[g];
                }
            }
        }
    }

    /// Fused DSS + scaled forward-Euler apply: assemble `field` (layout
    /// `[nelem][levels][NPTS]`, *left unchanged* — it is dead scratch
    /// afterwards) and add `coefs[k]` times the assembled value into
    /// `target`, whose per-element stride is `tstride` (`target` may hold
    /// more levels than `field`, e.g. a full-depth state arena receiving a
    /// sponge-depth Laplacian).
    ///
    /// Per point this computes `target += coefs[k] * (accum * inv_mass)` —
    /// the assembled value is bitwise the one [`Dss::apply_flat`] would
    /// have written (same accumulation order), and the scaled add matches
    /// the drivers' separate apply loops when `coefs[k]` carries the
    /// hoisted (possibly negated) coefficient product. Fusing removes a
    /// full write-back + reread sweep of the Laplacian arena per field per
    /// subcycle. Allocation-free.
    pub fn apply_flat_scaled_add(
        &mut self,
        field: &[f64],
        levels: usize,
        coefs: &[f64],
        target: &mut [f64],
        tstride: usize,
    ) {
        let nelem = self.gids.len() / NPTS;
        debug_assert_eq!(field.len(), nelem * levels * NPTS);
        debug_assert_eq!(target.len(), nelem * tstride);
        debug_assert!(coefs.len() >= levels);
        let estride = levels * NPTS;
        for (k, &c) in coefs[..levels].iter().enumerate() {
            for a in &mut self.accum {
                *a = 0.0;
            }
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    self.accum[self.gids[base + p]] += self.spheremp[base + p] * field[off + p];
                }
            }
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * tstride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    target[off + p] += c * (self.accum[g] * self.inv_mass[g]);
                }
            }
        }
    }

    /// [`Dss::apply_flat`] on four equal-shape arenas in ONE walk of the
    /// assembly map per level: the `gids`/`spheremp` loads and index
    /// arithmetic are shared across the four fields instead of re-walked
    /// per field. Each field accumulates in its own lane in the exact
    /// element-ascending, point-ascending order of the single-field walk,
    /// so the result is bitwise identical to four `apply_flat` calls.
    /// Allocation-free.
    pub fn apply_flat4(&mut self, fields: [&mut [f64]; 4], levels: usize) {
        let nelem = self.gids.len() / NPTS;
        let estride = levels * NPTS;
        let n = self.nglobal;
        let [f0, f1, f2, f3] = fields;
        debug_assert!([&f0, &f1, &f2, &f3].iter().all(|f| f.len() == nelem * estride));
        for k in 0..levels {
            for a in &mut self.accum4 {
                *a = 0.0;
            }
            let (a01, a23) = self.accum4.split_at_mut(2 * n);
            let (a0, a1) = a01.split_at_mut(n);
            let (a2, a3) = a23.split_at_mut(n);
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    let w = self.spheremp[base + p];
                    a0[g] += w * f0[off + p];
                    a1[g] += w * f1[off + p];
                    a2[g] += w * f2[off + p];
                    a3[g] += w * f3[off + p];
                }
            }
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    let m = self.inv_mass[g];
                    f0[off + p] = a0[g] * m;
                    f1[off + p] = a1[g] * m;
                    f2[off + p] = a2[g] * m;
                    f3[off + p] = a3[g] * m;
                }
            }
        }
    }

    /// [`Dss::apply_flat_scaled_add`] on four fields in ONE walk of the
    /// assembly map per level, one coefficient table per field. Bitwise
    /// identical to four single-field calls (per-field accumulation order
    /// unchanged). Allocation-free.
    pub fn apply_flat_scaled_add4(
        &mut self,
        fields: [&[f64]; 4],
        levels: usize,
        coefs: [&[f64]; 4],
        targets: [&mut [f64]; 4],
        tstride: usize,
    ) {
        let nelem = self.gids.len() / NPTS;
        let estride = levels * NPTS;
        let n = self.nglobal;
        let [f0, f1, f2, f3] = fields;
        let [t0, t1, t2, t3] = targets;
        debug_assert!([f0, f1, f2, f3].iter().all(|f| f.len() == nelem * estride));
        debug_assert!([&t0, &t1, &t2, &t3].iter().all(|t| t.len() == nelem * tstride));
        debug_assert!(coefs.iter().all(|c| c.len() >= levels));
        for k in 0..levels {
            let (c0, c1, c2, c3) = (coefs[0][k], coefs[1][k], coefs[2][k], coefs[3][k]);
            for a in &mut self.accum4 {
                *a = 0.0;
            }
            let (a01, a23) = self.accum4.split_at_mut(2 * n);
            let (a0, a1) = a01.split_at_mut(n);
            let (a2, a3) = a23.split_at_mut(n);
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    let w = self.spheremp[base + p];
                    a0[g] += w * f0[off + p];
                    a1[g] += w * f1[off + p];
                    a2[g] += w * f2[off + p];
                    a3[g] += w * f3[off + p];
                }
            }
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * tstride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    let m = self.inv_mass[g];
                    t0[off + p] += c0 * (a0[g] * m);
                    t1[off + p] += c1 * (a1[g] * m);
                    t2[off + p] += c2 * (a2[g] * m);
                    t3[off + p] += c3 * (a3[g] * m);
                }
            }
        }
    }

    /// [`Dss::apply_flat`] on a member-lane tile (`[nelem][levels][NPTS]`
    /// of `V4F64`, lanes are members): one walk of the assembly map
    /// assembles four members at once. Lane `m` accumulates in the exact
    /// element-ascending, point-ascending order of the single-member flat
    /// walk, with the shared `spheremp`/`inv_mass` scalars splat across
    /// lanes — so lane `m` is bitwise identical to `apply_flat` on member
    /// `m`'s own arena. Allocation-free.
    pub fn apply_lanes(&mut self, tile: &mut [V4F64], levels: usize) {
        let nelem = self.gids.len() / NPTS;
        debug_assert_eq!(tile.len(), nelem * levels * NPTS);
        let estride = levels * NPTS;
        let acc = &mut self.accum_lanes[..self.nglobal];
        for k in 0..levels {
            for a in acc.iter_mut() {
                *a = V4F64::zero();
            }
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    acc[g] = acc[g] + V4F64::splat(self.spheremp[base + p]) * tile[off + p];
                }
            }
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    tile[off + p] = acc[g] * V4F64::splat(self.inv_mass[g]);
                }
            }
        }
    }

    /// [`Dss::apply_flat_scaled_add`] on member-lane tiles: assemble `tile`
    /// (left unchanged) and add `coefs[k]` times the assembled value into
    /// `target` (per-element stride `tstride` in `V4F64` units). Lane `m`
    /// is bitwise `apply_flat_scaled_add` on member `m`. Allocation-free.
    pub fn apply_lanes_scaled_add(
        &mut self,
        tile: &[V4F64],
        levels: usize,
        coefs: &[f64],
        target: &mut [V4F64],
        tstride: usize,
    ) {
        let nelem = self.gids.len() / NPTS;
        debug_assert_eq!(tile.len(), nelem * levels * NPTS);
        debug_assert_eq!(target.len(), nelem * tstride);
        debug_assert!(coefs.len() >= levels);
        let estride = levels * NPTS;
        let acc = &mut self.accum_lanes[..self.nglobal];
        for (k, &c) in coefs[..levels].iter().enumerate() {
            for a in acc.iter_mut() {
                *a = V4F64::zero();
            }
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    acc[g] = acc[g] + V4F64::splat(self.spheremp[base + p]) * tile[off + p];
                }
            }
            let cs = V4F64::splat(c);
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * tstride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    target[off + p] =
                        target[off + p] + cs * (acc[g] * V4F64::splat(self.inv_mass[g]));
                }
            }
        }
    }

    /// [`Dss::apply_lanes`] on four equal-shape member-lane tiles in ONE
    /// walk of the assembly map per level (the hypervis `u, v, t, dp3d`
    /// quartet). Bitwise four `apply_lanes` calls. Allocation-free.
    pub fn apply_lanes4(&mut self, tiles: [&mut [V4F64]; 4], levels: usize) {
        let nelem = self.gids.len() / NPTS;
        let estride = levels * NPTS;
        let n = self.nglobal;
        let [f0, f1, f2, f3] = tiles;
        debug_assert!([&f0, &f1, &f2, &f3].iter().all(|f| f.len() == nelem * estride));
        for k in 0..levels {
            for a in &mut self.accum_lanes {
                *a = V4F64::zero();
            }
            let (a01, a23) = self.accum_lanes.split_at_mut(2 * n);
            let (a0, a1) = a01.split_at_mut(n);
            let (a2, a3) = a23.split_at_mut(n);
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    let w = V4F64::splat(self.spheremp[base + p]);
                    a0[g] = a0[g] + w * f0[off + p];
                    a1[g] = a1[g] + w * f1[off + p];
                    a2[g] = a2[g] + w * f2[off + p];
                    a3[g] = a3[g] + w * f3[off + p];
                }
            }
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    let m = V4F64::splat(self.inv_mass[g]);
                    f0[off + p] = a0[g] * m;
                    f1[off + p] = a1[g] * m;
                    f2[off + p] = a2[g] * m;
                    f3[off + p] = a3[g] * m;
                }
            }
        }
    }

    /// [`Dss::apply_lanes_scaled_add`] on four member-lane tiles in ONE
    /// walk of the assembly map per level, one coefficient table per tile.
    /// Bitwise four single-tile calls. Allocation-free.
    pub fn apply_lanes_scaled_add4(
        &mut self,
        tiles: [&[V4F64]; 4],
        levels: usize,
        coefs: [&[f64]; 4],
        targets: [&mut [V4F64]; 4],
        tstride: usize,
    ) {
        let nelem = self.gids.len() / NPTS;
        let estride = levels * NPTS;
        let n = self.nglobal;
        let [f0, f1, f2, f3] = tiles;
        let [t0, t1, t2, t3] = targets;
        debug_assert!([f0, f1, f2, f3].iter().all(|f| f.len() == nelem * estride));
        debug_assert!([&t0, &t1, &t2, &t3].iter().all(|t| t.len() == nelem * tstride));
        debug_assert!(coefs.iter().all(|c| c.len() >= levels));
        for k in 0..levels {
            let (c0, c1, c2, c3) = (
                V4F64::splat(coefs[0][k]),
                V4F64::splat(coefs[1][k]),
                V4F64::splat(coefs[2][k]),
                V4F64::splat(coefs[3][k]),
            );
            for a in &mut self.accum_lanes {
                *a = V4F64::zero();
            }
            let (a01, a23) = self.accum_lanes.split_at_mut(2 * n);
            let (a0, a1) = a01.split_at_mut(n);
            let (a2, a3) = a23.split_at_mut(n);
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * estride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    let w = V4F64::splat(self.spheremp[base + p]);
                    a0[g] = a0[g] + w * f0[off + p];
                    a1[g] = a1[g] + w * f1[off + p];
                    a2[g] = a2[g] + w * f2[off + p];
                    a3[g] = a3[g] + w * f3[off + p];
                }
            }
            for e in 0..nelem {
                let base = e * NPTS;
                let off = e * tstride + k * NPTS;
                for p in 0..NPTS {
                    let g = self.gids[base + p];
                    let m = V4F64::splat(self.inv_mass[g]);
                    t0[off + p] = t0[off + p] + c0 * (a0[g] * m);
                    t1[off + p] = t1[off + p] + c1 * (a1[g] * m);
                    t2[off + p] = t2[off + p] + c2 * (a2[g] * m);
                    t3[off + p] = t3[off + p] + c3 * (a3[g] * m);
                }
            }
        }
    }

    /// Number of assembled (unique) points.
    pub fn nglobal(&self) -> usize {
        self.nglobal
    }

    /// Global point ids of element `e` (the assembly map row).
    pub fn element_gids(&self, e: usize) -> &[usize] {
        &self.gids[e * NPTS..(e + 1) * NPTS]
    }
}

/// Per-element DSS accumulation plan, the basis of a barrier-free,
/// element-parallel DSS: for every (element, point) it lists all sharing
/// (element, point) pairs — itself included — in the *canonical* order
/// [`Dss::apply_flat`] accumulates them (element-ascending,
/// point-ascending), with their spheremp weights. Summing a point's sharers
/// in this fixed order and scaling by the point's inverse mass reproduces
/// the barrier DSS bitwise, no matter which task performs the gather or
/// when its inputs arrived.
#[derive(Debug, Clone)]
pub struct DssGather {
    /// CSR offsets, one slot per (element, point): `nelem * NPTS + 1`.
    off: Vec<u32>,
    /// Sharer codes `elem * NPTS + point`, canonical order.
    codes: Vec<u32>,
    /// spheremp weight of each sharer entry.
    w: Vec<f64>,
    /// Inverse global mass per (element, point).
    inv: Vec<f64>,
}

impl DssGather {
    /// Build the plan from the serial DSS assembly map.
    pub fn new(dss: &Dss) -> Self {
        let npoints = dss.gids.len();
        // gid -> sharer codes; insertion order (e asc, p asc) is already
        // canonical because we scan points in that order.
        let mut by_gid: std::collections::HashMap<usize, Vec<u32>> =
            std::collections::HashMap::new();
        for (code, &g) in dss.gids.iter().enumerate() {
            by_gid.entry(g).or_default().push(code as u32);
        }
        let mut off = Vec::with_capacity(npoints + 1);
        let mut codes = Vec::new();
        let mut w = Vec::new();
        let mut inv = Vec::with_capacity(npoints);
        off.push(0u32);
        for &g in &dss.gids {
            for &c in &by_gid[&g] {
                codes.push(c);
                w.push(dss.spheremp[c as usize]);
            }
            off.push(codes.len() as u32);
            inv.push(dss.inv_mass[g]);
        }
        DssGather { off, codes, w, inv }
    }

    /// Number of elements covered.
    pub fn nelem(&self) -> usize {
        self.inv.len() / NPTS
    }

    /// Sharer codes + weights of flat point `pi = e * NPTS + p`, and the
    /// point's inverse mass. `read(code)` must yield the raw (pre-DSS)
    /// value of the sharer at `elem = code / NPTS`, `point = code % NPTS`.
    #[inline]
    pub fn gather_point(&self, pi: usize, read: impl Fn(usize) -> f64) -> f64 {
        let lo = self.off[pi] as usize;
        let hi = self.off[pi + 1] as usize;
        let mut acc = 0.0;
        for i in lo..hi {
            acc += self.w[i] * read(self.codes[i] as usize);
        }
        acc * self.inv[pi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesphere::pidx;

    fn level_views(fields: &mut [Vec<f64>]) -> Vec<&mut [f64]> {
        fields.iter_mut().map(|f| &mut f[..]).collect()
    }

    #[test]
    fn dss_is_idempotent() {
        let grid = CubedSphere::new(3);
        let mut dss = Dss::new(&grid);
        let mut fields: Vec<Vec<f64>> = (0..grid.nelem())
            .map(|e| (0..NPTS).map(|p| ((e * 31 + p * 7) % 17) as f64).collect())
            .collect();
        {
            let mut v = level_views(&mut fields);
            dss.apply_level(&mut v);
        }
        let once = fields.clone();
        {
            let mut v = level_views(&mut fields);
            dss.apply_level(&mut v);
        }
        for (a, b) in once.iter().zip(&fields) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-12, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn dss_preserves_continuous_fields() {
        // A field already continuous (sampled from lat/lon) is unchanged.
        let grid = CubedSphere::new(3);
        let mut dss = Dss::new(&grid);
        let mut fields: Vec<Vec<f64>> = grid
            .elements
            .iter()
            .map(|el| el.metric.iter().map(|m| m.lat.sin() * m.lon.cos()).collect())
            .collect();
        let before = fields.clone();
        let mut v = level_views(&mut fields);
        dss.apply_level(&mut v);
        drop(v);
        for (a, b) in before.iter().zip(&fields) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn dss_conserves_the_global_integral() {
        let grid = CubedSphere::new(3);
        let mut dss = Dss::new(&grid);
        let mut fields: Vec<Vec<f64>> = (0..grid.nelem())
            .map(|e| (0..NPTS).map(|p| ((e + p) % 13) as f64 - 6.0).collect())
            .collect();
        let before = grid.global_integral(&fields);
        let mut v = level_views(&mut fields);
        dss.apply_level(&mut v);
        drop(v);
        let after = grid.global_integral(&fields);
        assert!(
            ((before - after) / before.abs().max(1.0)).abs() < 1e-12,
            "{before} vs {after}"
        );
    }

    #[test]
    fn shared_points_become_identical() {
        let grid = CubedSphere::new(2);
        let mut dss = Dss::new(&grid);
        let mut fields: Vec<Vec<f64>> =
            (0..grid.nelem()).map(|e| vec![e as f64; NPTS]).collect();
        let mut v = level_views(&mut fields);
        dss.apply_level(&mut v);
        drop(v);
        // Group values by global id; all must agree.
        let mut by_gid: std::collections::HashMap<usize, f64> = Default::default();
        for (e, el) in grid.elements.iter().enumerate() {
            for p in 0..NPTS {
                let g = el.gids[p];
                let val = fields[e][p];
                if let Some(prev) = by_gid.insert(g, val) {
                    assert!((prev - val).abs() < 1e-12, "gid {g}: {prev} vs {val}");
                }
            }
        }
    }

    #[test]
    fn multi_level_apply_matches_per_level() {
        let grid = CubedSphere::new(2);
        let mut dss = Dss::new(&grid);
        let nlev = 3;
        let mut full: Vec<Vec<f64>> = (0..grid.nelem())
            .map(|e| {
                (0..nlev * NPTS)
                    .map(|i| ((e * 13 + i * 5) % 29) as f64)
                    .collect()
            })
            .collect();
        let mut by_level = full.clone();
        dss.apply(&mut full, nlev);
        for k in 0..nlev {
            let mut views: Vec<&mut [f64]> = by_level
                .iter_mut()
                .map(|f| &mut f[k * NPTS..(k + 1) * NPTS])
                .collect();
            dss.apply_level(&mut views);
        }
        for (a, b) in full.iter().zip(&by_level) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn flat_arena_apply_is_bitwise_identical_to_per_element_apply() {
        let grid = CubedSphere::new(2);
        let mut dss = Dss::new(&grid);
        let nlev = 3;
        let nelem = grid.nelem();
        let mut per_elem: Vec<Vec<f64>> = (0..nelem)
            .map(|e| {
                (0..nlev * NPTS)
                    .map(|i| ((e * 13 + i * 5) % 29) as f64 - 11.0)
                    .collect()
            })
            .collect();
        let mut flat: Vec<f64> = per_elem.iter().flatten().copied().collect();
        dss.apply(&mut per_elem, nlev);
        dss.apply_flat(&mut flat, nlev);
        for (e, pe) in per_elem.iter().enumerate() {
            let fl = &flat[e * nlev * NPTS..(e + 1) * nlev * NPTS];
            assert_eq!(pe.as_slice(), fl, "element {e}");
        }
    }

    /// The fused DSS + scaled apply matches `apply_flat` followed by a
    /// manual `target += coef * assembled` loop, bit for bit — including a
    /// target arena deeper than the assembled field (the sponge shape).
    #[test]
    fn scaled_add_matches_apply_flat_plus_manual_apply_bitwise() {
        let grid = CubedSphere::new(2);
        let mut dss = Dss::new(&grid);
        let nelem = grid.nelem();
        let (nlev, ks) = (4usize, 2usize);
        let estride = nlev * NPTS;
        let raw: Vec<f64> = (0..nelem * ks * NPTS)
            .map(|i| ((i * 193) % 101) as f64 / 9.0 - 5.0)
            .collect();
        let target0: Vec<f64> = (0..nelem * estride)
            .map(|i| ((i * 37) % 53) as f64 / 3.0 - 8.0)
            .collect();
        let coefs = [-1.75e-3, 0.5e-3];

        // Reference: assemble a copy, then the drivers' separate apply loop.
        let mut assembled = raw.clone();
        dss.apply_flat(&mut assembled, ks);
        let mut expect = target0.clone();
        for e in 0..nelem {
            for k in 0..ks {
                for p in 0..NPTS {
                    expect[e * estride + k * NPTS + p] +=
                        coefs[k] * assembled[e * ks * NPTS + k * NPTS + p];
                }
            }
        }

        let mut got = target0.clone();
        dss.apply_flat_scaled_add(&raw, ks, &coefs, &mut got, estride);
        for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "slot {i}: {a:e} vs {b:e}");
        }
    }

    /// The fused four-field walk is bitwise four single-field walks.
    #[test]
    fn four_field_apply_matches_four_single_applies_bitwise() {
        let grid = CubedSphere::new(2);
        let mut dss = Dss::new(&grid);
        let nelem = grid.nelem();
        let nlev = 3;
        let mk = |seed: usize| -> Vec<f64> {
            (0..nelem * nlev * NPTS)
                .map(|i| ((i * 131 + seed * 17) % 97) as f64 / 7.0 - 6.5)
                .collect()
        };
        let mut single: [Vec<f64>; 4] = std::array::from_fn(mk);
        let mut fused = single.clone();
        for f in &mut single {
            dss.apply_flat(f, nlev);
        }
        let [f0, f1, f2, f3] = &mut fused;
        dss.apply_flat4([f0, f1, f2, f3], nlev);
        for (f, (a, b)) in single.iter().zip(&fused).enumerate() {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "field {f} slot {i}: {x:e} vs {y:e}");
            }
        }
    }

    /// Same for the fused DSS + scaled apply: four coefficient tables,
    /// four targets, one map walk — bitwise four single-field calls.
    #[test]
    fn four_field_scaled_add_matches_four_single_calls_bitwise() {
        let grid = CubedSphere::new(2);
        let mut dss = Dss::new(&grid);
        let nelem = grid.nelem();
        let (nlev, ks) = (4usize, 2usize);
        let estride = nlev * NPTS;
        let mk = |seed: usize, len: usize| -> Vec<f64> {
            (0..len).map(|i| ((i * 193 + seed * 29) % 101) as f64 / 9.0 - 5.0).collect()
        };
        let raw: [Vec<f64>; 4] = std::array::from_fn(|f| mk(f, nelem * ks * NPTS));
        let mut single: [Vec<f64>; 4] = std::array::from_fn(|f| mk(f + 4, nelem * estride));
        let mut fused = single.clone();
        let coefs =
            [[-1.75e-3, 0.5e-3], [2.5e-4, -9.0e-4], [1.0e-3, 1.0e-3], [-3.0e-5, 7.0e-4]];
        for f in 0..4 {
            dss.apply_flat_scaled_add(&raw[f], ks, &coefs[f], &mut single[f], estride);
        }
        let [t0, t1, t2, t3] = &mut fused;
        dss.apply_flat_scaled_add4(
            [&raw[0], &raw[1], &raw[2], &raw[3]],
            ks,
            [&coefs[0], &coefs[1], &coefs[2], &coefs[3]],
            [t0, t1, t2, t3],
            estride,
        );
        for (f, (a, b)) in single.iter().zip(&fused).enumerate() {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "field {f} slot {i}: {x:e} vs {y:e}");
            }
        }
    }

    /// Every lane of the member-lane DSS walks is bitwise the single-member
    /// flat walk on that member's own arena — for the single-tile apply,
    /// the fused four-tile apply, and both scaled-add forms.
    #[test]
    fn lane_dss_walks_match_per_member_flat_walks_bitwise() {
        use crate::kernels::member_lanes::{gather_member_tile, scatter_member_tile};
        let grid = CubedSphere::new(2);
        let mut dss = Dss::new(&grid);
        let nelem = grid.nelem();
        let (nlev, ks) = (3usize, 2usize);
        let estride = nlev * NPTS;
        let mk = |seed: usize, len: usize| -> Vec<f64> {
            (0..len).map(|i| ((i * 131 + seed * 17) % 97) as f64 / 7.0 - 6.5).collect()
        };
        let members: Vec<Vec<f64>> = (0..4).map(|m| mk(m, nelem * estride)).collect();
        let gather = |fields: &[Vec<f64>], n: usize| -> Vec<sw26010::V4F64> {
            let mut tile = vec![sw26010::V4F64::zero(); n];
            let srcs: Vec<&[f64]> = fields.iter().map(|f| f.as_slice()).collect();
            gather_member_tile(&srcs, &mut tile);
            tile
        };
        let scatter = |tile: &[sw26010::V4F64]| -> Vec<Vec<f64>> {
            let mut outs = vec![vec![0.0f64; tile.len()]; 4];
            let mut views: Vec<&mut [f64]> = outs.iter_mut().map(|o| o.as_mut_slice()).collect();
            scatter_member_tile(tile, &mut views);
            outs
        };
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        // Single-tile apply.
        let mut tile = gather(&members, nelem * estride);
        dss.apply_lanes(&mut tile, nlev);
        let mut expect = members.clone();
        for e in &mut expect {
            dss.apply_flat(e, nlev);
        }
        for (m, got) in scatter(&tile).iter().enumerate() {
            assert_eq!(bits(&expect[m]), bits(got), "apply_lanes member {m}");
        }

        // Fused four-tile apply: four field quartets per member.
        let quartets: Vec<Vec<Vec<f64>>> =
            (0..4).map(|f| (0..4).map(|m| mk(f * 4 + m + 9, nelem * estride)).collect()).collect();
        let mut tiles: Vec<Vec<sw26010::V4F64>> =
            quartets.iter().map(|q| gather(q, nelem * estride)).collect();
        {
            let (t0, rest) = tiles.split_at_mut(1);
            let (t1, rest) = rest.split_at_mut(1);
            let (t2, t3) = rest.split_at_mut(1);
            dss.apply_lanes4([&mut t0[0], &mut t1[0], &mut t2[0], &mut t3[0]], nlev);
        }
        for (f, q) in quartets.iter().enumerate() {
            let mut expect = q.clone();
            for e in &mut expect {
                dss.apply_flat(e, nlev);
            }
            for (m, got) in scatter(&tiles[f]).iter().enumerate() {
                assert_eq!(bits(&expect[m]), bits(got), "apply_lanes4 field {f} member {m}");
            }
        }

        // Scaled-add forms (sponge/damp shape: shallow field, deep target).
        let raws: Vec<Vec<f64>> = (0..4).map(|m| mk(m + 31, nelem * ks * NPTS)).collect();
        let targets: Vec<Vec<f64>> = (0..4).map(|m| mk(m + 41, nelem * estride)).collect();
        let coefs = [-1.75e-3, 0.5e-3];
        let rtile = gather(&raws, nelem * ks * NPTS);
        let mut ttile = gather(&targets, nelem * estride);
        dss.apply_lanes_scaled_add(&rtile, ks, &coefs, &mut ttile, estride);
        let mut expect = targets.clone();
        for (r, t) in raws.iter().zip(&mut expect) {
            dss.apply_flat_scaled_add(r, ks, &coefs, t, estride);
        }
        for (m, got) in scatter(&ttile).iter().enumerate() {
            assert_eq!(bits(&expect[m]), bits(got), "apply_lanes_scaled_add member {m}");
        }

        let coefs4 =
            [[-1.75e-3, 0.5e-3], [2.5e-4, -9.0e-4], [1.0e-3, 1.0e-3], [-3.0e-5, 7.0e-4]];
        let rq: Vec<Vec<Vec<f64>>> =
            (0..4).map(|f| (0..4).map(|m| mk(f * 4 + m + 51, nelem * ks * NPTS)).collect()).collect();
        let tq: Vec<Vec<Vec<f64>>> =
            (0..4).map(|f| (0..4).map(|m| mk(f * 4 + m + 71, nelem * estride)).collect()).collect();
        let rtiles: Vec<Vec<sw26010::V4F64>> = rq.iter().map(|q| gather(q, nelem * ks * NPTS)).collect();
        let mut ttiles: Vec<Vec<sw26010::V4F64>> =
            tq.iter().map(|q| gather(q, nelem * estride)).collect();
        {
            let (t0, rest) = ttiles.split_at_mut(1);
            let (t1, rest) = rest.split_at_mut(1);
            let (t2, t3) = rest.split_at_mut(1);
            dss.apply_lanes_scaled_add4(
                [&rtiles[0], &rtiles[1], &rtiles[2], &rtiles[3]],
                ks,
                [&coefs4[0], &coefs4[1], &coefs4[2], &coefs4[3]],
                [&mut t0[0], &mut t1[0], &mut t2[0], &mut t3[0]],
                estride,
            );
        }
        for f in 0..4 {
            let mut expect = tq[f].clone();
            for (r, t) in rq[f].iter().zip(&mut expect) {
                dss.apply_flat_scaled_add(r, ks, &coefs4[f], t, estride);
            }
            for (m, got) in scatter(&ttiles[f]).iter().enumerate() {
                assert_eq!(bits(&expect[m]), bits(got), "scaled_add4 field {f} member {m}");
            }
        }
    }

    /// The per-point gather plan reproduces `apply_flat` bitwise: same
    /// additions in the same canonical order, just grouped per point.
    #[test]
    fn gather_plan_is_bitwise_identical_to_apply_flat() {
        let grid = CubedSphere::new(3);
        let mut dss = Dss::new(&grid);
        let plan = DssGather::new(&dss);
        let nelem = grid.nelem();
        assert_eq!(plan.nelem(), nelem);
        let nlev = 3;
        let estride = nlev * NPTS;
        let raw: Vec<f64> = (0..nelem * estride)
            .map(|i| ((i * 131) % 97) as f64 / 7.0 - 6.5)
            .collect();
        let mut flat = raw.clone();
        dss.apply_flat(&mut flat, nlev);
        for e in 0..nelem {
            for k in 0..nlev {
                for p in 0..NPTS {
                    let got = plan.gather_point(e * NPTS + p, |code| {
                        raw[(code / NPTS) * estride + k * NPTS + (code % NPTS)]
                    });
                    let want = flat[e * estride + k * NPTS + p];
                    assert!(
                        got.to_bits() == want.to_bits(),
                        "elem {e} lev {k} pt {p}: {got:e} vs {want:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn dss_makes_gradients_continuous_across_edges() {
        use crate::deriv::build_ops;
        let grid = CubedSphere::new(4);
        let ops = build_ops(&grid);
        let mut dss = Dss::new(&grid);
        // Non-polynomial field -> discontinuous element-local derivative.
        let mut gx_all: Vec<Vec<f64>> = Vec::new();
        for (el, op) in grid.elements.iter().zip(&ops) {
            let s: Vec<f64> = el.metric.iter().map(|m| (3.0 * m.lat).sin()).collect();
            let mut gx = [0.0; NPTS];
            let mut gy = [0.0; NPTS];
            op.gradient_sphere(&s, &mut gx, &mut gy);
            gx_all.push(gx.to_vec());
        }
        let mut v: Vec<&mut [f64]> = gx_all.iter_mut().map(|f| &mut f[..]).collect();
        dss.apply_level(&mut v);
        drop(v);
        // After DSS, every copy of a shared point agrees.
        let mut by_gid: std::collections::HashMap<usize, f64> = Default::default();
        for (e, el) in grid.elements.iter().enumerate() {
            for p in 0..NPTS {
                if let Some(prev) = by_gid.insert(el.gids[p], gx_all[e][p]) {
                    assert!((prev - gx_all[e][p]).abs() < 1e-18 * 1e6);
                }
            }
        }
        let _ = pidx(0, 0);
    }
}
