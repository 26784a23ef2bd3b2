#!/usr/bin/env bash
# Tier-1 verification: build, test, lint. Fully offline — all third-party
# dependencies resolve to the vendored stubs in third_party/.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo test -q --workspace"
cargo test -q --workspace

# Distributed group: the aggregated boundary exchange, the distributed
# driver's serial-equivalence suite, and the zero-allocation gate for the
# distributed step. Redundant with the workspace run above but named
# explicitly so a failure localizes immediately.
echo "== distributed test group"
cargo test -q -p homme --lib bndry
cargo test -q -p homme --lib dist
cargo test -q -p homme --test dist_alloc
cargo test -q -p swcam-bench --test distributed_step

# Fault-injection group: the seeded fault plan and reliable-mode machinery
# in swmpi, the checkpoint codec, the health guards, and the end-to-end
# recovery suite (message faults, checkpoint restart, rank crash + rollback).
echo "== fault-injection test group"
cargo test -q -p swmpi --lib fault
cargo test -q -p swmpi --lib comm
cargo test -q -p swcam-core --lib checkpoint
cargo test -q -p homme --lib health
cargo test -q -p swcam-bench --test fault_injection

# Kernel-parity group: the blocked (default) kernel path must stay bitwise
# identical to the scalar oracle, per operator and over whole serial and
# distributed trajectories.
echo "== kernel-parity test group"
cargo test -q -p homme --lib kernels
cargo test -q -p homme --test blocked_parity
cargo test -q -p swcam-bench --test distributed_step

# Process-backend group: the transport seam (DESIGN.md §5.8) — the TCP
# frame codec property suite, the socket transport and elastic-process
# units in swmpi, the loopback TCP↔mailbox bitwise parity run, the
# multi-process supervisor world, and the kill-and-respawn recovery
# scenario (real SIGKILL, checkpoint respawn, epoch re-admission).
echo "== process-backend test group"
cargo test -q -p swmpi --lib tcp
cargo test -q -p swmpi --lib transport
cargo test -q -p swmpi --lib process
cargo test -q -p swmpi --test tcp_frame
cargo test -q -p swcam-bench --test process_backend

# Hypervis group: the per-element hyperviscosity plan (DESIGN.md §5.7) —
# plan build/validation units, the fused-sweep bitwise parity across
# level/sponge shapes, mass conservation, shallow-column sponge clamps
# (serial + distributed), pinned rank-invariant subcycle counts, and the
# typed-rejection rollback routing.
echo "== hypervis test group"
cargo test -q -p homme --lib hypervis
cargo test -q -p homme --test hypervis_parity

# Ensemble group: the member-batched batch driver (DESIGN.md §5.9) — the
# scenario registry units, the checked physics coupling, the driver's own
# queue/collect units, the member-vs-standalone bitwise pins (admission,
# retirement, rollback isolation included), the member-lane kernel family
# (DESIGN.md §5.10: lane kernel units + the N × nlev lane parity sweep
# with ragged tails and rollback under the lane path), the
# zero-allocation gates for steady ensemble stepping, and the Katrina
# registry adapter.
echo "== ensemble test group"
cargo test -q -p swcam-core --lib config
cargo test -q -p swcam-core --lib coupling
cargo test -q -p swcam-core --lib ensemble
cargo test -q -p swcam-core --test ensemble_parity
cargo test -q -p homme --lib member_lanes
cargo test -q -p swcam-core --test ensemble_lane_parity
cargo test -q -p swcam-core --test ensemble_alloc
cargo test -q -p katrina --lib scenario

# Every table/figure/bench binary must keep building against the current
# APIs, and the kernels bench must run end-to-end (its in-bench asserts pin
# blocked==scalar bitwise before any timing). --smoke does one untimed
# sweep per kernel.
echo "== bench binaries build + kernels/ensemble smoke"
cargo build --release -p swcam-bench --bins
./target/release/kernels --smoke
./target/release/ensemble --smoke

# Bench-regression guard over whatever BENCH_kernels.json the last kernels
# run produced. A smoke artifact (the line above; BENCH_*.json is
# gitignored, so CI only ever sees smoke rows) gets structural checks; a
# full-sweep dev-host artifact must show no blocked kernel losing to its
# scalar oracle and the planned vertical remap holding its 1.5x bar.
# The guard's own selftest runs first: the guard is awk over
# hand-formatted JSON and once misparsed exponent-form floats
# (see scripts/bench_guard_selftest.sh).
echo "== bench-regression guard + selftest"
./scripts/bench_guard_selftest.sh
./scripts/bench_guard.sh

# Clippy is not part of every toolchain install; lint when present.
if cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "== clippy unavailable; skipping lint" >&2
fi

echo "verify: OK"
