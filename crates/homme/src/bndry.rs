//! `bndry_exchangev`: the distributed boundary exchange behind DSS.
//!
//! Two implementations, matching the paper's Section 7.6:
//!
//! * [`ExchangeMode::Original`] — HOMME's abstraction: element edge values
//!   are copied into a unified *pack buffer*, per-peer send buffers are cut
//!   from it, received bytes land in a *unpack buffer*, and a final copy
//!   scatters them to elements. Clean layering, redundant memcpys, no
//!   overlap, and one message per peer per (field, level): sends happen
//!   only after all packing, waits before any compute.
//! * [`ExchangeMode::Redesigned`] — the paper's rewrite, exposed as the
//!   *aggregated* exchange ([`ExchangePlan::start_aggregated`] /
//!   [`ExchangePlan::finish_aggregated`]): receives are posted first, the
//!   boundary partial sums for **all fields and all levels** are packed
//!   into a single per-peer message, *interior work runs while messages
//!   fly*, and received data is accumulated directly from the receive
//!   buffer into the flat SoA arenas ("fetch the data directly from
//!   receive buffer to the corresponding elements") — no staging copies,
//!   one message per peer per exchange.
//!
//! The aggregated message layout is fixed by data both sides already
//! share: for a peer with `G` shared global points (the sorted gid list in
//! [`ExchangePlan::links`], identical on both ranks) and `A` arenas of
//! `L` levels each, the payload is `A * L * G` doubles with value index
//! `(a * L + k) * G + j` — arena-major, then level, then shared gid in
//! sorted order. Each value is the sender's spheremp-weighted partial sum
//! for that point; because shared points live only on boundary elements
//! (an invariant the tests pin down), boundary-only packing is complete.
//!
//! Both modes produce bit-identical DSS results; they differ in memcpy
//! volume and message count (both counted) and overlap capability
//! (exercised by tests and the `ablation_overlap` bench binary).

use cubesphere::{CubedSphere, Partition, NPTS};
use std::collections::HashMap;
use swmpi::{CommError, RankCtx};

/// Which exchange implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeMode {
    /// Unified pack/unpack buffers, no overlap.
    Original,
    /// Direct pack/unpack with compute-communication overlap.
    Redesigned,
}

/// Traffic accounting for the exchange layer: staging copies (not the MPI
/// payload itself), payload volume, and message count — the quantities the
/// paper's redesign moves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyStats {
    /// Bytes copied into/out of staging buffers.
    pub staged_bytes: u64,
    /// MPI payload bytes sent.
    pub sent_bytes: u64,
    /// MPI messages sent.
    pub msgs_sent: u64,
}

/// One rank's exchange plan for a given grid + partition.
#[derive(Debug, Clone)]
pub struct ExchangePlan {
    /// This rank.
    pub rank: usize,
    /// Global element ids owned by this rank (grid indexing).
    pub owned: Vec<usize>,
    /// Local indices (into `owned`) of elements with an off-rank neighbour.
    pub boundary: Vec<usize>,
    /// Local indices of fully interior elements.
    pub interior: Vec<usize>,
    /// Peers and the global-point ids shared with each (sorted; both sides
    /// derive the identical list, which fixes the message layout).
    pub links: Vec<(usize, Vec<usize>)>,
    /// Slot of each shared gid in the partial-sum scratch (gid -> slot).
    pub gid_slot: HashMap<usize, usize>,
    /// Number of shared gids (scratch length).
    pub nshared: usize,
    /// Per-owned-element copies of gids and weights.
    pub gids: Vec<[usize; NPTS]>,
    /// DSS weights per owned element.
    pub spheremp: Vec<[f64; NPTS]>,
    /// Global inverse mass (replicated — the mesh is static metadata).
    pub inv_mass: Vec<f64>,
    /// Number of distinct global points this rank touches.
    pub nlocal: usize,
    /// Dense local point index of each owned (element, node), `owned.len() * NPTS`.
    pub point_lidx: Vec<u32>,
    /// Shared-gid slot of each owned (element, node), or -1 if not shared.
    pub point_slot: Vec<i32>,
    /// Shared slot -> dense local point index.
    pub slot_lidx: Vec<u32>,
    /// Per-peer shared slots, parallel to `links` (message order).
    pub peer_slots: Vec<Vec<u32>>,
    /// Inverse mass indexed by dense local point index.
    pub lidx_inv_mass: Vec<f64>,
}

impl ExchangePlan {
    /// Build the plan of `rank` under `part`.
    pub fn new(grid: &CubedSphere, part: &Partition, rank: usize) -> Self {
        let owned = part.elems_of[rank].clone();
        let owned_set: std::collections::HashSet<usize> = owned.iter().copied().collect();

        // gid -> owning ranks (only needed for gids this rank touches).
        let mut links_map: HashMap<usize, Vec<usize>> = HashMap::new(); // peer -> gids
        let mut boundary = Vec::new();
        let mut interior = Vec::new();
        for (li, &e) in owned.iter().enumerate() {
            let mut is_boundary = false;
            for &n in &grid.all_neighbors[e] {
                if !owned_set.contains(&n) {
                    is_boundary = true;
                    let peer = part.owner[n];
                    // Shared gids between element e and neighbour n.
                    let ngids: std::collections::HashSet<usize> =
                        grid.elements[n].gids.iter().copied().collect();
                    for &g in &grid.elements[e].gids {
                        if ngids.contains(&g) {
                            links_map.entry(peer).or_default().push(g);
                        }
                    }
                }
            }
            if is_boundary {
                boundary.push(li);
            } else {
                interior.push(li);
            }
        }
        let mut links: Vec<(usize, Vec<usize>)> = links_map
            .into_iter()
            .map(|(peer, mut gids)| {
                gids.sort_unstable();
                gids.dedup();
                (peer, gids)
            })
            .collect();
        links.sort_by_key(|(p, _)| *p);

        let mut gid_slot = HashMap::new();
        for (_, gids) in &links {
            for &g in gids {
                let next = gid_slot.len();
                gid_slot.entry(g).or_insert(next);
            }
        }
        let nshared = gid_slot.len();

        let gids = owned
            .iter()
            .map(|&e| {
                let mut a = [0usize; NPTS];
                a.copy_from_slice(&grid.elements[e].gids);
                a
            })
            .collect();
        let spheremp = owned
            .iter()
            .map(|&e| {
                let mut a = [0f64; NPTS];
                a.copy_from_slice(&grid.elements[e].spheremp);
                a
            })
            .collect();

        // Dense indexing for the aggregated exchange: every distinct gid
        // this rank touches gets a local point index, and every owned
        // (element, node) resolves to that index (and its shared slot, if
        // any) without hashing on the hot path.
        let mut lidx_of: HashMap<usize, u32> = HashMap::new();
        let mut lidx_inv_mass: Vec<f64> = Vec::new();
        let mut point_lidx = vec![0u32; owned.len() * NPTS];
        let mut point_slot = vec![-1i32; owned.len() * NPTS];
        for (li, &e) in owned.iter().enumerate() {
            for p in 0..NPTS {
                let g = grid.elements[e].gids[p];
                let next = lidx_of.len() as u32;
                let d = *lidx_of.entry(g).or_insert(next);
                if d == next {
                    lidx_inv_mass.push(grid.inv_mass[g]);
                }
                point_lidx[li * NPTS + p] = d;
                if let Some(&slot) = gid_slot.get(&g) {
                    point_slot[li * NPTS + p] = slot as i32;
                }
            }
        }
        let nlocal = lidx_of.len();
        let mut slot_lidx = vec![0u32; nshared];
        for (&g, &slot) in &gid_slot {
            slot_lidx[slot] = lidx_of[&g];
        }
        let peer_slots: Vec<Vec<u32>> = links
            .iter()
            .map(|(_, gids)| gids.iter().map(|g| gid_slot[g] as u32).collect())
            .collect();

        ExchangePlan {
            rank,
            owned,
            boundary,
            interior,
            links,
            gid_slot,
            nshared,
            gids,
            spheremp,
            inv_mass: grid.inv_mass.clone(),
            nlocal,
            point_lidx,
            point_slot,
            slot_lidx,
            peer_slots,
            lidx_inv_mass,
        }
    }

    /// Distributed DSS of one level across ranks. `fields[li]` holds the 16
    /// nodal values of owned element `li`. `interior_work` runs while
    /// messages are in flight in `Redesigned` mode (and before any
    /// communication in `Original` mode, i.e. without overlap).
    pub fn dss_level(
        &self,
        ctx: &mut RankCtx,
        fields: &mut [Vec<f64>],
        mode: ExchangeMode,
        tag: u64,
        mut interior_work: impl FnMut(),
        stats: &mut CopyStats,
    ) -> Result<(), CommError> {
        assert_eq!(fields.len(), self.owned.len());

        // Local weighted accumulation over *all* local gids.
        let mut accum: HashMap<usize, f64> = HashMap::with_capacity(self.owned.len() * NPTS);
        for (li, f) in fields.iter().enumerate() {
            for p in 0..NPTS {
                *accum.entry(self.gids[li][p]).or_insert(0.0) += self.spheremp[li][p] * f[p];
            }
        }

        match mode {
            ExchangeMode::Original => {
                // No overlap: interior work happens strictly before the
                // exchange (the legacy schedule).
                interior_work();

                // Stage 1: pack ALL shared partial sums into one unified
                // pack buffer (extra copy #1).
                let mut pack = vec![0.0; self.nshared];
                for (&g, &slot) in &self.gid_slot {
                    pack[slot] = accum[&g];
                }
                stats.staged_bytes += (self.nshared * 8) as u64;

                // Stage 2: cut per-peer send buffers from the pack buffer
                // (extra copy #2) and send.
                let reqs: Vec<_> = self
                    .links
                    .iter()
                    .map(|(peer, _)| ctx.comm.irecv(*peer, tag))
                    .collect();
                for (peer, gids) in &self.links {
                    let msg: Vec<f64> =
                        gids.iter().map(|g| pack[self.gid_slot[g]]).collect();
                    stats.staged_bytes += (msg.len() * 8) as u64;
                    stats.sent_bytes += (msg.len() * 8) as u64;
                    stats.msgs_sent += 1;
                    ctx.comm.send(*peer, tag, &msg);
                }

                // Stage 3: receive into a unified unpack buffer (extra copy
                // #3), then apply.
                let mut unpack = vec![0.0; self.nshared];
                for (req, (_, gids)) in reqs.into_iter().zip(&self.links) {
                    let m = ctx.comm.wait(req)?;
                    for (g, &val) in gids.iter().zip(&m.data) {
                        unpack[self.gid_slot[g]] += val;
                    }
                    stats.staged_bytes += (m.data.len() * 8) as u64;
                }
                for (&g, &slot) in &self.gid_slot {
                    *accum.get_mut(&g).expect("shared gid is local") += unpack[slot];
                }
            }
            ExchangeMode::Redesigned => {
                // Post receives first, pack straight into the messages,
                // send, then overlap interior work with the flight time.
                let reqs: Vec<_> = self
                    .links
                    .iter()
                    .map(|(peer, _)| ctx.comm.irecv(*peer, tag))
                    .collect();
                for (peer, gids) in &self.links {
                    let msg: Vec<f64> = gids.iter().map(|g| accum[g]).collect();
                    stats.sent_bytes += (msg.len() * 8) as u64;
                    stats.msgs_sent += 1;
                    ctx.comm.send(*peer, tag, &msg);
                }

                interior_work();

                // Accumulate directly from each receive buffer.
                for (req, (_, gids)) in reqs.into_iter().zip(&self.links) {
                    let m = ctx.comm.wait(req)?;
                    for (g, &val) in gids.iter().zip(&m.data) {
                        *accum.get_mut(g).expect("shared gid is local") += val;
                    }
                }
            }
        }

        // Normalize and scatter back.
        for (li, f) in fields.iter_mut().enumerate() {
            for p in 0..NPTS {
                let g = self.gids[li][p];
                f[p] = accum[&g] * self.inv_mass[g];
            }
        }
        Ok(())
    }
}

/// Persistent scratch for the aggregated exchange. Grow-only: after the
/// first (largest) exchange all later calls reuse the storage, so the hot
/// path performs zero heap allocations.
#[derive(Debug, Default)]
pub struct ExchangeBuffers {
    /// Shared-point partial sums, `nval * nshared`.
    shared_accum: Vec<f64>,
    /// Full local assembly, `nval * nlocal`.
    accum: Vec<f64>,
    /// Receive requests posted by `start_aggregated`, one per peer.
    reqs: Vec<(usize, swmpi::RecvRequest)>,
}

impl ExchangeBuffers {
    /// Empty buffers; storage grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ExchangePlan {
    /// Start an aggregated halo exchange over several flat SoA arenas at
    /// once: post one receive per peer, then pack the boundary partial
    /// sums of **every arena and every level** into a single per-peer
    /// message and send it. See the module docs for the payload layout.
    ///
    /// Each `arenas[a]` holds `owned.len() * nlev * NPTS` values indexed
    /// `(li * nlev + k) * NPTS + p`. Only **boundary** elements contribute
    /// to shared points (a point shared with a peer lies on the patch
    /// perimeter, and every element containing it has an off-rank
    /// neighbour), so the arenas only need valid boundary data at this
    /// moment — the foundation of the paper's compute/communication
    /// overlap. Interior elements may be updated while the messages fly;
    /// call [`ExchangePlan::finish_aggregated`] once they are.
    pub fn start_aggregated(
        &self,
        ctx: &mut RankCtx,
        arenas: &[&[f64]],
        nlev: usize,
        tag: u64,
        bufs: &mut ExchangeBuffers,
        stats: &mut CopyStats,
    ) {
        self.start_with(ctx, arenas.len(), |a, i| arenas[a][i], nlev, tag, bufs, stats);
    }

    /// Generic core of [`ExchangePlan::start_aggregated`]: `read(a, i)`
    /// yields arena `a` at flat index `i`. Allocation-free (send buffers
    /// come from the communicator pool).
    fn start_with(
        &self,
        ctx: &mut RankCtx,
        narenas: usize,
        read: impl Fn(usize, usize) -> f64,
        nlev: usize,
        tag: u64,
        bufs: &mut ExchangeBuffers,
        stats: &mut CopyStats,
    ) {
        let nval = narenas * nlev;
        let fl = nlev * NPTS;
        let need = nval * self.nshared;
        if bufs.shared_accum.len() < need {
            bufs.shared_accum.resize(need, 0.0);
        }
        bufs.shared_accum[..need].fill(0.0);
        for &li in &self.boundary {
            for p in 0..NPTS {
                let slot = self.point_slot[li * NPTS + p];
                if slot < 0 {
                    continue;
                }
                let slot = slot as usize;
                let w = self.spheremp[li][p];
                for a in 0..narenas {
                    let base = li * fl + p;
                    for k in 0..nlev {
                        bufs.shared_accum[(a * nlev + k) * self.nshared + slot] +=
                            w * read(a, base + k * NPTS);
                    }
                }
            }
        }
        bufs.reqs.clear();
        for (peer, _) in &self.links {
            bufs.reqs.push((*peer, ctx.comm.irecv(*peer, tag)));
        }
        for ((peer, _), slots) in self.links.iter().zip(&self.peer_slots) {
            let npts_peer = slots.len();
            let mut msg = ctx.comm.take_buffer(nval * npts_peer);
            for v in 0..nval {
                let row = v * self.nshared;
                for (j, &slot) in slots.iter().enumerate() {
                    msg[v * npts_peer + j] = bufs.shared_accum[row + slot as usize];
                }
            }
            stats.sent_bytes += (msg.len() * 8) as u64;
            stats.msgs_sent += 1;
            ctx.comm.send_owned(*peer, tag, msg);
        }
    }

    /// Complete an aggregated exchange: accumulate all local contributions
    /// into the dense assembly array, add each peer's payload **directly
    /// from the receive buffer** (no unpack staging), normalize by the
    /// global inverse mass and scatter back. The arenas must now hold
    /// valid data for every owned element.
    pub fn finish_aggregated(
        &self,
        ctx: &mut RankCtx,
        arenas: &mut [&mut [f64]],
        nlev: usize,
        bufs: &mut ExchangeBuffers,
    ) -> Result<(), CommError> {
        let narenas = arenas.len();
        let nval = narenas * nlev;
        let fl = nlev * NPTS;
        let ExchangeBuffers { accum, reqs, .. } = bufs;
        let need = nval * self.nlocal;
        if accum.len() < need {
            accum.resize(need, 0.0);
        }
        accum[..need].fill(0.0);
        for li in 0..self.owned.len() {
            for p in 0..NPTS {
                let d = self.point_lidx[li * NPTS + p] as usize;
                let w = self.spheremp[li][p];
                for (a, arena) in arenas.iter().enumerate() {
                    let base = li * fl + p;
                    for k in 0..nlev {
                        accum[(a * nlev + k) * self.nlocal + d] += w * arena[base + k * NPTS];
                    }
                }
            }
        }
        debug_assert_eq!(reqs.len(), self.links.len());
        for ((_, req), slots) in reqs.drain(..).zip(&self.peer_slots) {
            let m = ctx.comm.wait(req)?;
            let npts_peer = slots.len();
            debug_assert_eq!(m.data.len(), nval * npts_peer);
            for v in 0..nval {
                let row = v * self.nlocal;
                for (j, &slot) in slots.iter().enumerate() {
                    accum[row + self.slot_lidx[slot as usize] as usize] +=
                        m.data[v * npts_peer + j];
                }
            }
            ctx.comm.recycle(m.data);
        }
        for li in 0..self.owned.len() {
            for p in 0..NPTS {
                let d = self.point_lidx[li * NPTS + p] as usize;
                let scale = self.lidx_inv_mass[d];
                for (a, arena) in arenas.iter_mut().enumerate() {
                    let base = li * fl + p;
                    for k in 0..nlev {
                        arena[base + k * NPTS] =
                            accum[(a * nlev + k) * self.nlocal + d] * scale;
                    }
                }
            }
        }
        Ok(())
    }

    /// One-shot aggregated DSS over several arenas (start + finish with no
    /// interior work in between) — the distributed analog of
    /// [`crate::dss::Dss::apply_flat`] for callers that have nothing to
    /// overlap, e.g. hyperviscosity and tracer stages.
    pub fn dss_aggregated(
        &self,
        ctx: &mut RankCtx,
        arenas: &mut [&mut [f64]],
        nlev: usize,
        tag: u64,
        bufs: &mut ExchangeBuffers,
        stats: &mut CopyStats,
    ) -> Result<(), CommError> {
        self.start_with(ctx, arenas.len(), |a, i| arenas[a][i], nlev, tag, bufs, stats);
        self.finish_aggregated(ctx, arenas, nlev, bufs)
    }
}

/// Per-point gather schedule for a barrier-free distributed DSS: the same
/// DSS [`ExchangePlan::finish_aggregated`] computes in bulk, re-expressed
/// so one element can assemble its own points the moment its local
/// neighbours and the relevant peer payloads are in — no rank-wide barrier.
///
/// Bitwise equality with the bulk path is an ordering contract:
///
/// * local contributors to a point are summed in ascending
///   (local element, node) order — exactly the loop order of
///   `finish_aggregated`'s assembly pass;
/// * peer payload contributions are added after all locals, in `links`
///   order — exactly its receive-accumulation pass (receives are waited in
///   link order there);
/// * outgoing per-slot payload values are summed over contributing
///   elements in that same ascending order — exactly the boundary
///   accumulation of `start_aggregated`.
///
/// The contributors to any slot of link `l` are local elements containing
/// one of the link's shared gids; since shared points lie only on boundary
/// elements, these are exactly the elements `start_aggregated` visits.
#[derive(Debug, Clone)]
pub struct GatherPlan {
    /// CSR offsets into `loc_code`/`loc_w`, one row per owned
    /// (element, node): `owned.len() * NPTS + 1` entries.
    pub loc_off: Vec<u32>,
    /// Local contributor codes `li * NPTS + p`, canonical ascending order.
    pub loc_code: Vec<u32>,
    /// Matching spheremp weights.
    pub loc_w: Vec<f64>,
    /// CSR offsets into `rem_link`/`rem_j`, one row per owned point.
    pub rem_off: Vec<u32>,
    /// Link index (into `ExchangePlan::links`) of each remote contribution,
    /// ascending within a row.
    pub rem_link: Vec<u32>,
    /// Shared-gid position `j` within that link's message layout.
    pub rem_j: Vec<u32>,
    /// Inverse mass per owned point (dense, no hashing).
    pub inv: Vec<f64>,
    /// CSR offsets into `elem_link`, one row per owned element. Row `li`
    /// lists the links element `li` contributes to — which, by symmetry of
    /// "contains a shared gid", are also exactly the links whose payloads
    /// its gathers consume.
    pub elem_link_off: Vec<u32>,
    /// Link indices, ascending within a row.
    pub elem_link: Vec<u32>,
    /// Number of contributing local elements per link (`|B(l)|`) — the
    /// countdown seed for deferred packing.
    pub senders: Vec<u32>,
    /// Per-link base into the per-slot send CSR (`links.len() + 1`
    /// entries); slot `(l, j)` is row `link_base[l] + j`.
    pub link_base: Vec<u32>,
    /// CSR offsets into `send_code`/`send_w`, one row per (link, slot).
    pub send_off: Vec<u32>,
    /// Contributor codes `li * NPTS + p` per outgoing slot, ascending.
    pub send_code: Vec<u32>,
    /// Matching spheremp weights.
    pub send_w: Vec<f64>,
}

impl GatherPlan {
    /// Precompute the gather schedule for `plan`. Pure metadata — all
    /// per-step work it enables is allocation-free.
    pub fn new(plan: &ExchangePlan) -> Self {
        let nelem = plan.owned.len();
        let npts = nelem * NPTS;

        // Contributors per dense local point, in canonical order.
        let mut contrib: Vec<Vec<(u32, f64)>> = vec![Vec::new(); plan.nlocal];
        for li in 0..nelem {
            for p in 0..NPTS {
                let d = plan.point_lidx[li * NPTS + p] as usize;
                contrib[d].push(((li * NPTS + p) as u32, plan.spheremp[li][p]));
            }
        }
        // Remote (link, j) entries per dense local point, link-ascending.
        let mut remote: Vec<Vec<(u32, u32)>> = vec![Vec::new(); plan.nlocal];
        for (l, (_, gids)) in plan.links.iter().enumerate() {
            for (j, g) in gids.iter().enumerate() {
                let slot = plan.gid_slot[g];
                let d = plan.slot_lidx[slot] as usize;
                remote[d].push((l as u32, j as u32));
            }
        }

        let mut loc_off = Vec::with_capacity(npts + 1);
        let mut loc_code = Vec::new();
        let mut loc_w = Vec::new();
        let mut rem_off = Vec::with_capacity(npts + 1);
        let mut rem_link = Vec::new();
        let mut rem_j = Vec::new();
        let mut inv = Vec::with_capacity(npts);
        loc_off.push(0);
        rem_off.push(0);
        for pi in 0..npts {
            let d = plan.point_lidx[pi] as usize;
            for &(code, w) in &contrib[d] {
                loc_code.push(code);
                loc_w.push(w);
            }
            loc_off.push(loc_code.len() as u32);
            for &(l, j) in &remote[d] {
                rem_link.push(l);
                rem_j.push(j);
            }
            rem_off.push(rem_link.len() as u32);
            inv.push(plan.lidx_inv_mass[d]);
        }

        // Which links each element touches (contributes to == receives
        // from).
        let mut elem_link_off = Vec::with_capacity(nelem + 1);
        let mut elem_link = Vec::new();
        let mut senders = vec![0u32; plan.links.len()];
        elem_link_off.push(0);
        let mut scratch: Vec<u32> = Vec::new();
        for li in 0..nelem {
            scratch.clear();
            for p in 0..NPTS {
                let d = plan.point_lidx[li * NPTS + p] as usize;
                for &(l, _) in &remote[d] {
                    scratch.push(l);
                }
            }
            scratch.sort_unstable();
            scratch.dedup();
            for &l in &scratch {
                elem_link.push(l);
                senders[l as usize] += 1;
            }
            elem_link_off.push(elem_link.len() as u32);
        }

        // Outgoing per-slot contributor CSR, canonical order.
        let mut link_base = Vec::with_capacity(plan.links.len() + 1);
        let mut send_off = Vec::new();
        let mut send_code = Vec::new();
        let mut send_w = Vec::new();
        link_base.push(0);
        send_off.push(0);
        for (_, gids) in &plan.links {
            for g in gids {
                let d = plan.slot_lidx[plan.gid_slot[g]] as usize;
                for &(code, w) in &contrib[d] {
                    send_code.push(code);
                    send_w.push(w);
                }
                send_off.push(send_code.len() as u32);
            }
            link_base.push((send_off.len() - 1) as u32);
        }

        GatherPlan {
            loc_off,
            loc_code,
            loc_w,
            rem_off,
            rem_link,
            rem_j,
            inv,
            elem_link_off,
            elem_link,
            senders,
            link_base,
            send_off,
            send_code,
            send_w,
        }
    }

    /// Links element `li` contributes to / receives from.
    #[inline]
    pub fn links_of(&self, li: usize) -> &[u32] {
        &self.elem_link[self.elem_link_off[li] as usize..self.elem_link_off[li + 1] as usize]
    }

    /// One outgoing payload value for slot `j` of link `l`: the canonical
    /// weighted sum of local contributors, `read(code)` yielding the
    /// pre-DSS value at a contributor point.
    #[inline]
    pub fn send_value(&self, l: usize, j: usize, read: impl Fn(u32) -> f64) -> f64 {
        let row = (self.link_base[l] + j as u32) as usize;
        let mut acc = 0.0;
        for i in self.send_off[row] as usize..self.send_off[row + 1] as usize {
            acc += self.send_w[i] * read(self.send_code[i]);
        }
        acc
    }

    /// Number of outgoing slots for link `l` (== its shared-gid count).
    #[inline]
    pub fn npts_of(&self, l: usize) -> usize {
        (self.link_base[l + 1] - self.link_base[l]) as usize
    }

    /// Assemble one owned point: locals in canonical order, then remote
    /// payload values (`recv(l, j)`) in link order, normalized. Bitwise
    /// equal to what [`ExchangePlan::finish_aggregated`] leaves at that
    /// point.
    #[inline]
    pub fn gather_point(
        &self,
        pi: usize,
        read: impl Fn(u32) -> f64,
        recv: impl Fn(u32, u32) -> f64,
    ) -> f64 {
        let mut acc = 0.0;
        for i in self.loc_off[pi] as usize..self.loc_off[pi + 1] as usize {
            acc += self.loc_w[i] * read(self.loc_code[i]);
        }
        for i in self.rem_off[pi] as usize..self.rem_off[pi + 1] as usize {
            acc += recv(self.rem_link[i], self.rem_j[i]);
        }
        acc * self.inv[pi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dss::Dss;
    use swmpi::run_ranks;

    fn test_field(e: usize, p: usize) -> f64 {
        ((e * 37 + p * 11) % 23) as f64 - 11.0
    }

    fn serial_reference(grid: &CubedSphere) -> Vec<Vec<f64>> {
        let mut dss = Dss::new(grid);
        let mut fields: Vec<Vec<f64>> = (0..grid.nelem())
            .map(|e| (0..NPTS).map(|p| test_field(e, p)).collect())
            .collect();
        let mut views: Vec<&mut [f64]> = fields.iter_mut().map(|f| &mut f[..]).collect();
        dss.apply_level(&mut views);
        drop(views);
        fields
    }

    fn run_distributed(mode: ExchangeMode, nranks: usize) -> (Vec<Vec<f64>>, CopyStats) {
        let grid = CubedSphere::new(4);
        let part = Partition::new(&grid, nranks);
        let plans: Vec<ExchangePlan> =
            (0..nranks).map(|r| ExchangePlan::new(&grid, &part, r)).collect();
        let results = run_ranks(nranks, |ctx| {
            let plan = &plans[ctx.rank()];
            let mut fields: Vec<Vec<f64>> = plan
                .owned
                .iter()
                .map(|&e| (0..NPTS).map(|p| test_field(e, p)).collect())
                .collect();
            let mut stats = CopyStats::default();
            plan.dss_level(ctx, &mut fields, mode, 0, || {}, &mut stats).expect("dss_level");
            assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
            (plan.owned.clone(), fields, stats)
        });
        let mut gathered = vec![Vec::new(); 6 * 4 * 4];
        let mut total = CopyStats::default();
        for (owned, fields, stats) in results {
            for (e, f) in owned.into_iter().zip(fields) {
                gathered[e] = f;
            }
            total.staged_bytes += stats.staged_bytes;
            total.sent_bytes += stats.sent_bytes;
            total.msgs_sent += stats.msgs_sent;
        }
        (gathered, total)
    }

    #[test]
    fn both_modes_match_serial_dss() {
        let grid = CubedSphere::new(4);
        let reference = serial_reference(&grid);
        for mode in [ExchangeMode::Original, ExchangeMode::Redesigned] {
            for nranks in [2usize, 6] {
                let (got, _) = run_distributed(mode, nranks);
                for (e, (g, r)) in got.iter().zip(&reference).enumerate() {
                    for p in 0..NPTS {
                        assert!(
                            (g[p] - r[p]).abs() < 1e-11,
                            "{mode:?} nranks={nranks} elem {e} pt {p}: {} vs {}",
                            g[p],
                            r[p]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn redesign_eliminates_staging_copies() {
        let (_, orig) = run_distributed(ExchangeMode::Original, 6);
        let (_, redesigned) = run_distributed(ExchangeMode::Redesigned, 6);
        assert_eq!(orig.sent_bytes, redesigned.sent_bytes, "same payload");
        assert!(orig.staged_bytes > 2 * orig.sent_bytes, "legacy path stages heavily");
        assert_eq!(redesigned.staged_bytes, 0, "redesign copies nothing extra");
    }

    #[test]
    fn overlap_runs_interior_work_between_send_and_wait() {
        // In Redesigned mode the interior closure runs after sends are
        // posted; we verify it executes (and the exchange still completes)
        // even when the interior work is substantial on every rank.
        let grid = CubedSphere::new(4);
        let nranks = 4;
        let part = Partition::new(&grid, nranks);
        let plans: Vec<ExchangePlan> =
            (0..nranks).map(|r| ExchangePlan::new(&grid, &part, r)).collect();
        let sums = run_ranks(nranks, |ctx| {
            let plan = &plans[ctx.rank()];
            let mut fields: Vec<Vec<f64>> =
                plan.owned.iter().map(|_| vec![1.0; NPTS]).collect();
            let mut stats = CopyStats::default();
            let mut interior_ran = 0u64;
            plan.dss_level(
                ctx,
                &mut fields,
                ExchangeMode::Redesigned,
                7,
                || {
                    interior_ran = (0..20_000u64).map(|i| i % 7).sum();
                },
                &mut stats,
            )
            .expect("dss_level");
            assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
            interior_ran
        });
        for s in sums {
            assert!(s > 0, "interior work did not run");
        }
    }

    /// Distinct multi-level test data per (arena, element, level, point).
    fn test_arena_value(a: usize, e: usize, k: usize, p: usize) -> f64 {
        ((a * 53 + e * 37 + k * 19 + p * 11) % 29) as f64 - 14.0
    }

    #[test]
    fn aggregated_exchange_matches_serial_dss() {
        let nlev = 3;
        let narenas = 2;
        let grid = CubedSphere::new(4);
        let nelem = grid.nelem();

        // Serial reference: flat global arenas through Dss::apply_flat.
        let mut dss = Dss::new(&grid);
        let mut reference: Vec<Vec<f64>> = (0..narenas)
            .map(|a| {
                let mut arena = vec![0.0; nelem * nlev * NPTS];
                for e in 0..nelem {
                    for k in 0..nlev {
                        for p in 0..NPTS {
                            arena[(e * nlev + k) * NPTS + p] = test_arena_value(a, e, k, p);
                        }
                    }
                }
                arena
            })
            .collect();
        for arena in &mut reference {
            dss.apply_flat(arena, nlev);
        }

        for nranks in [2usize, 5] {
            let part = Partition::new(&grid, nranks);
            let plans: Vec<ExchangePlan> =
                (0..nranks).map(|r| ExchangePlan::new(&grid, &part, r)).collect();
            let results = run_ranks(nranks, |ctx| {
                let plan = &plans[ctx.rank()];
                let mut arenas: Vec<Vec<f64>> = (0..narenas)
                    .map(|a| {
                        let mut arena = vec![0.0; plan.owned.len() * nlev * NPTS];
                        for (li, &e) in plan.owned.iter().enumerate() {
                            for k in 0..nlev {
                                for p in 0..NPTS {
                                    arena[(li * nlev + k) * NPTS + p] =
                                        test_arena_value(a, e, k, p);
                                }
                            }
                        }
                        arena
                    })
                    .collect();
                let mut bufs = ExchangeBuffers::new();
                let mut stats = CopyStats::default();
                {
                    let mut views: Vec<&mut [f64]> =
                        arenas.iter_mut().map(|a| &mut a[..]).collect();
                    plan.dss_aggregated(ctx, &mut views, nlev, 1, &mut bufs, &mut stats).expect("dss");
                }
                assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
                // Exactly one message per peer for the whole multi-arena,
                // multi-level exchange.
                assert_eq!(stats.msgs_sent, plan.links.len() as u64);
                assert_eq!(ctx.comm.stats().sends, plan.links.len() as u64);
                assert_eq!(stats.staged_bytes, 0);
                (plan.owned.clone(), arenas)
            });
            for (owned, arenas) in results {
                for (li, &e) in owned.iter().enumerate() {
                    for (a, arena) in arenas.iter().enumerate() {
                        for k in 0..nlev {
                            for p in 0..NPTS {
                                let got = arena[(li * nlev + k) * NPTS + p];
                                let want = reference[a][(e * nlev + k) * NPTS + p];
                                assert!(
                                    (got - want).abs() < 1e-11,
                                    "nranks={nranks} arena {a} elem {e} lev {k} pt {p}: \
                                     {got} vs {want}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn aggregated_overlap_interior_between_start_and_finish() {
        // start_aggregated sees only boundary data; interior values are
        // filled in while messages are in flight. The DSS result must be
        // identical to the no-overlap path because shared points live only
        // on boundary elements.
        let nlev = 2;
        let grid = CubedSphere::new(4);
        let nranks = 4;
        let part = Partition::new(&grid, nranks);
        let plans: Vec<ExchangePlan> =
            (0..nranks).map(|r| ExchangePlan::new(&grid, &part, r)).collect();
        let results = run_ranks(nranks, |ctx| {
            let plan = &plans[ctx.rank()];
            let fill = |arena: &mut [f64], lis: &[usize]| {
                for &li in lis {
                    let e = plan.owned[li];
                    for k in 0..nlev {
                        for p in 0..NPTS {
                            arena[(li * nlev + k) * NPTS + p] = test_arena_value(0, e, k, p);
                        }
                    }
                }
            };
            let mut bufs = ExchangeBuffers::new();
            let mut stats = CopyStats::default();
            let mut arena = vec![0.0; plan.owned.len() * nlev * NPTS];
            fill(&mut arena, &plan.boundary);
            plan.start_aggregated(ctx, &[&arena], nlev, 3, &mut bufs, &mut stats);
            // "Interior compute" while messages fly.
            fill(&mut arena, &plan.interior);
            let mut views = [&mut arena[..]];
            plan.finish_aggregated(ctx, &mut views, nlev, &mut bufs).expect("finish");
            assert_eq!(ctx.comm.unmatched(), 0, "orphaned messages on rank {}", ctx.rank());
            (plan.owned.clone(), arena)
        });

        // Against the one-shot aggregated path on a single rank world view:
        // recompute the serial reference.
        let mut dss = Dss::new(&grid);
        let mut reference = vec![0.0; grid.nelem() * nlev * NPTS];
        for e in 0..grid.nelem() {
            for k in 0..nlev {
                for p in 0..NPTS {
                    reference[(e * nlev + k) * NPTS + p] = test_arena_value(0, e, k, p);
                }
            }
        }
        dss.apply_flat(&mut reference, nlev);
        for (owned, arena) in results {
            for (li, &e) in owned.iter().enumerate() {
                for i in 0..nlev * NPTS {
                    let got = arena[li * nlev * NPTS + i];
                    let want = reference[e * nlev * NPTS + i];
                    assert!((got - want).abs() < 1e-11, "elem {e} idx {i}: {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn gather_plan_matches_aggregated_exchange_bitwise() {
        // The per-point gather schedule must reproduce the bulk aggregated
        // DSS *bitwise* — same contributors, same floating-point order.
        let nlev = 3;
        let narenas = 2;
        let grid = CubedSphere::new(4);
        for nranks in [2usize, 5] {
            let part = Partition::new(&grid, nranks);
            let plans: Vec<ExchangePlan> =
                (0..nranks).map(|r| ExchangePlan::new(&grid, &part, r)).collect();
            let gplans: Vec<GatherPlan> = plans.iter().map(GatherPlan::new).collect();

            // Pre-DSS arenas per rank (the "raw" data).
            let raw: Vec<Vec<Vec<f64>>> = plans
                .iter()
                .map(|plan| {
                    (0..narenas)
                        .map(|a| {
                            let mut arena = vec![0.0; plan.owned.len() * nlev * NPTS];
                            for (li, &e) in plan.owned.iter().enumerate() {
                                for k in 0..nlev {
                                    for p in 0..NPTS {
                                        arena[(li * nlev + k) * NPTS + p] =
                                            test_arena_value(a, e, k, p);
                                    }
                                }
                            }
                            arena
                        })
                        .collect()
                })
                .collect();

            // Oracle: the bulk path over real message passing.
            let raw_for_ranks = raw.clone();
            let oracle = run_ranks(nranks, move |ctx| {
                let plan = &plans[ctx.rank()];
                let mut arenas = raw_for_ranks[ctx.rank()].clone();
                let mut bufs = ExchangeBuffers::new();
                let mut stats = CopyStats::default();
                let mut views: Vec<&mut [f64]> =
                    arenas.iter_mut().map(|a| &mut a[..]).collect();
                plan.dss_aggregated(ctx, &mut views, nlev, 1, &mut bufs, &mut stats)
                    .expect("dss");
                drop(views);
                arenas
            });

            // GatherPlan path, payloads computed straight from the peers'
            // raw arenas through their send CSRs (what the event loop
            // packs).
            let plans: Vec<ExchangePlan> =
                (0..nranks).map(|r| ExchangePlan::new(&grid, &part, r)).collect();
            for r in 0..nranks {
                let plan = &plans[r];
                let gp = &gplans[r];
                for a in 0..narenas {
                    for k in 0..nlev {
                        for pi in 0..plan.owned.len() * NPTS {
                            let got = gp.gather_point(
                                pi,
                                |code| {
                                    let (li, p) = (code as usize / NPTS, code as usize % NPTS);
                                    raw[r][a][(li * nlev + k) * NPTS + p]
                                },
                                |l, j| {
                                    let peer = plan.links[l as usize].0;
                                    let back = plans[peer]
                                        .links
                                        .iter()
                                        .position(|(p2, _)| *p2 == r)
                                        .expect("symmetric link");
                                    gplans[peer].send_value(back, j as usize, |code| {
                                        let (li, p) =
                                            (code as usize / NPTS, code as usize % NPTS);
                                        raw[peer][a][(li * nlev + k) * NPTS + p]
                                    })
                                },
                            );
                            let (li, p) = (pi / NPTS, pi % NPTS);
                            let want = oracle[r][a][(li * nlev + k) * NPTS + p];
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "nranks={nranks} rank {r} arena {a} lev {k} pt {pi}: \
                                 {got} vs {want}"
                            );
                        }
                    }
                }
            }

            // Sanity on the bookkeeping the event loop relies on.
            for (r, gp) in gplans.iter().enumerate() {
                let plan = ExchangePlan::new(&grid, &part, r);
                for (l, _) in plan.links.iter().enumerate() {
                    assert_eq!(gp.npts_of(l), plan.links[l].1.len());
                    let members = (0..plan.owned.len())
                        .filter(|&li| gp.links_of(li).contains(&(l as u32)))
                        .count();
                    assert_eq!(members as u32, gp.senders[l], "|B(l)| mismatch");
                }
                // Interior elements touch no links.
                for &li in &plan.interior {
                    assert!(gp.links_of(li).is_empty());
                }
            }
        }
    }

    #[test]
    fn boundary_interior_split_covers_all_elements() {
        let grid = CubedSphere::new(4);
        let part = Partition::new(&grid, 6);
        for r in 0..6 {
            let plan = ExchangePlan::new(&grid, &part, r);
            assert_eq!(plan.boundary.len() + plan.interior.len(), plan.owned.len());
            assert!(!plan.boundary.is_empty());
            // Links are symmetric: each peer lists us too.
            for (peer, gids) in &plan.links {
                let peer_plan = ExchangePlan::new(&grid, &part, *peer);
                let back = peer_plan
                    .links
                    .iter()
                    .find(|(p, _)| *p == r)
                    .expect("peer link missing");
                assert_eq!(&back.1, gids, "gid lists must agree for message layout");
            }
        }
    }
}
