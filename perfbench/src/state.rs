//! Comparisons and sizes of prognostic states, shared by the workloads'
//! correctness checks.

use homme::State;

/// Slices equal bit for bit (so `-0.0 != 0.0` and NaN payloads count).
pub fn slices_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The evolving arenas (u, v, T, dp3d, qdp) of two states equal bit for
/// bit.
pub fn bits_equal(a: &State, b: &State) -> bool {
    slices_equal(&a.u, &b.u)
        && slices_equal(&a.v, &b.v)
        && slices_equal(&a.t, &b.t)
        && slices_equal(&a.dp3d, &b.dp3d)
        && slices_equal(&a.qdp, &b.qdp)
}

/// Every evolving arena finite.
pub fn all_finite(s: &State) -> bool {
    [&s.u, &s.v, &s.t, &s.dp3d, &s.qdp]
        .iter()
        .all(|a| a.iter().all(|x| x.is_finite()))
}

/// Bytes of all six arenas (computed from the array sizes).
pub fn bytes(s: &State) -> u64 {
    8 * (s.u.len() + s.v.len() + s.t.len() + s.dp3d.len() + s.qdp.len() + s.phis.len()) as u64
}
