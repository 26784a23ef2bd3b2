#!/usr/bin/env bash
# Bench-regression guard over the locally produced bench artifacts.
#
# Section 1 reads BENCH_kernels.json from the most recent full `kernels`
# bench run (BENCH_*.json is gitignored, so the artifact is always locally
# produced) and fails if any blocked kernel lost to its scalar oracle
# (speedup < 1.0), the planned vertical remap slipped under its 1.5x
# acceptance bar, or the planned hyperviscosity full pass slipped under
# its own 1.5x bar. Smoke runs never write the artifact (and a hand-kept
# "smoke": true one only gets structural checks), so on a fresh checkout —
# CI included — there is nothing to judge and the section skips; the
# timing floors bind on every development-host tier-1 run, where the full
# artifact lives alongside the tree.
#
# The member-lane rows are judged on their own terms. The
# `hypervis_member_lanes` row times the 4-member batch end to end —
# gather, both del^4 passes, scatter — against a member-serial baseline
# that pays no transpose at all; one transpose per pass pair is the
# worst-case amortization (the engine pays one per *step*, spread over
# every sponge + subcycle sweep), so that row is exempt from the generic
# 1.0 floor and reported as-is. What must never regress is the
# tiles-resident row (`hypervis_member_lanes_resident`): the lane sweep
# itself has to stay within LANE_RESIDENT_FLOOR of member-serial compute,
# or the lane path is losing the arithmetic, not just the transposition.
#
# Section 2 reads BENCH_ensemble.json and enforces the ensemble-engine
# floors. Each section skips independently when its artifact is absent.
# awk-only: CI and the offline dev container both lack jq.
#
# Number extraction uses match() on a full float pattern (sign, decimals,
# exponent) rather than stripping trailing non-digits: `sub(/[^0-9.].*/,
# "", s)` reads "9.5e-1" as 9.5 — a 10x misparse that once let a losing
# speedup sail past the floor. scripts/bench_guard_selftest.sh pins the
# fixed behaviour with synthetic artifacts.
set -euo pipefail
cd "$(dirname "$0")/.."

# awk body shared by every section: parse the leading float of s,
# exponent form included; flag = 0 when nothing numeric is there.
NUM_FN='
  function num(s) {
    if (match(s, /^-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?/))
      return substr(s, RSTART, RLENGTH) + 0
    num_bad = 1
    return 0
  }
'

ARTIFACT="${1:-BENCH_kernels.json}"
REMAP_TARGET=1.5
HYPERVIS_TARGET=1.5
LANE_RESIDENT_FLOOR=0.9

if [[ -f "$ARTIFACT" ]]; then
    awk -F'"' -v target="$REMAP_TARGET" -v hv_target="$HYPERVIS_TARGET" \
        -v lane_floor="$LANE_RESIDENT_FLOOR" "$NUM_FN"'
      /"smoke": true/ { smoke = 1 }
      /\{"name":/ {
        name = $4
        sp = $0
        sub(/.*"speedup": /, "", sp)
        speedup[name] = num(sp)
        nrows++
      }
      END {
        if (nrows == 0) { print "bench guard: no kernel rows parsed"; exit 1 }
        if (num_bad) { print "bench guard: unparseable speedup value"; exit 1 }
        if (!("vertical_remap" in speedup)) {
          print "bench guard: vertical_remap row missing"; exit 1
        }
        if (!("vertical_remap_planned" in speedup)) {
          print "bench guard: vertical_remap_planned row missing"; exit 1
        }
        if (!("biharmonic_planned" in speedup)) {
          print "bench guard: biharmonic_planned row missing"; exit 1
        }
        if (!("hypervis_fullpass" in speedup)) {
          print "bench guard: hypervis_fullpass row missing"; exit 1
        }
        if (!("hypervis_member_lanes" in speedup)) {
          print "bench guard: hypervis_member_lanes row missing; re-run the kernels bench"; exit 1
        }
        if (!("hypervis_member_lanes_resident" in speedup)) {
          print "bench guard: hypervis_member_lanes_resident row missing; re-run the kernels bench"; exit 1
        }
        if (smoke) { printf "bench guard: smoke artifact, %d rows, skipping speedup floors\n", nrows; exit 0 }
        bad = 0
        for (name in speedup) {
          # The end-to-end lane row pays gather + scatter against a
          # baseline that pays neither; its floor is the resident row.
          if (name == "hypervis_member_lanes") continue
          if (speedup[name] < 1.0) {
            printf "bench guard: %s speedup %.3f < 1.0 (blocked path lost to scalar)\n", name, speedup[name]
            bad = 1
          }
        }
        if (speedup["vertical_remap"] < target) {
          printf "bench guard: vertical_remap speedup %.3f < %.1f target\n", speedup["vertical_remap"], target
          bad = 1
        }
        if (speedup["hypervis_fullpass"] < hv_target) {
          printf "bench guard: hypervis_fullpass speedup %.3f < %.1f target\n", speedup["hypervis_fullpass"], hv_target
          bad = 1
        }
        if (speedup["hypervis_member_lanes_resident"] < lane_floor) {
          printf "bench guard: hypervis_member_lanes_resident %.3fx < %.2fx floor (lane sweep losing member-serial compute, not just the transpose)\n", speedup["hypervis_member_lanes_resident"], lane_floor
          bad = 1
        }
        if (!bad) printf "bench guard: OK (%d kernels >= 1.0x, vertical_remap %.3fx >= %.1fx, hypervis_fullpass %.3fx >= %.1fx, lane resident %.3fx >= %.2fx; lane end-to-end %.3fx informational)\n", nrows, speedup["vertical_remap"], target, speedup["hypervis_fullpass"], hv_target, speedup["hypervis_member_lanes_resident"], lane_floor, speedup["hypervis_member_lanes"]
        exit bad
      }
    ' "$ARTIFACT"
else
    echo "bench guard: $ARTIFACT not present (smoke runs don't write it);" \
         "run 'cargo run --release -p swcam-bench --bin kernels' to enforce the speedup floors"
fi

# Ensemble-engine guard: BENCH_ensemble.json comes from `--bin ensemble`.
# Hard requirements on any artifact (smoke included): the bitwise pin held
# (every batched member identical to its standalone run) and the speedup
# fields parse. Floors bind on full artifacts only: end-to-end and
# steady-state members/sec must clear ENSEMBLE_FLOOR (default 0.9 — the
# batch driver must never cost more than it saves; the register-spill
# regression this floor exists for measured 0.55x).
#
# Lane steady floor: when the artifact records a full 4-lane batch
# ("members" >= 4, full mode), the steady-state ratio must additionally
# clear the artifact's own steady_target_speedup (1.8x) — *provided the
# host gives the lane arithmetic a structural edge*. The edge is read from
# the kernels artifact's hypervis_member_lanes_resident row: when that row
# is below LANE_EDGE_MIN, the spatially-blocked kernels already compile to
# the same hardware SIMD as the lane kernels (measured ~1.0x on
# target-cpu=native x86), the lane path's win is limited to shared
# plans/DSS walks, and a 1.8x arithmetic floor would only institutionalise
# a permanently red check — so the floor is skipped with the reason
# logged, never silently. On targets where the resident row shows a real
# edge (the scalar-baseline regime the lane family was built for), the
# 1.8x floor binds. The ROADMAP-4 3x end-to-end aspiration is recorded in the
# artifact (target_speedup/target_met) and reported here, but not
# enforced (see DESIGN.md sections 5.9-5.10).
ENSEMBLE="${2:-BENCH_ensemble.json}"
ENSEMBLE_FLOOR="${ENSEMBLE_FLOOR:-0.9}"
LANE_EDGE_MIN="${LANE_EDGE_MIN:-1.5}"

if [[ ! -f "$ENSEMBLE" ]]; then
    echo "bench guard: $ENSEMBLE not present;" \
         "run 'cargo run --release -p swcam-bench --bin ensemble' to enforce the ensemble floors"
    exit 0
fi

# The lane compute edge comes from the kernels artifact (empty when that
# artifact is absent, smoke, or predates the lane rows).
lane_edge=""
if [[ -f "$ARTIFACT" ]]; then
    lane_edge=$(awk -F'"' "$NUM_FN"'
      /"smoke": true/ { smoke = 1 }
      /\{"name":/ {
        if ($4 == "hypervis_member_lanes_resident") {
          sp = $0
          sub(/.*"speedup": /, "", sp)
          v = num(sp)
          seen = 1
        }
      }
      END { if (seen && !smoke && !num_bad) print v }
    ' "$ARTIFACT")
fi

awk -v floor="$ENSEMBLE_FLOOR" -v lane_edge="$lane_edge" \
    -v edge_min="$LANE_EDGE_MIN" "$NUM_FN"'
  /"mode": "smoke"/ { smoke = 1 }
  /"bitwise_ok": true/ { bitwise = 1; bitwise_seen = 1 }
  /"bitwise_ok": false/ { bitwise = 0; bitwise_seen = 1 }
  # Top-level member count: first occurrence only — every per-batch row
  # repeats a "members": key below it.
  /"members":/ && !members_seen {
    s = $0; sub(/.*"members": /, "", s); members = num(s); members_seen = 1
  }
  /"speedup_end_to_end":/ {
    s = $0; sub(/.*"speedup_end_to_end": /, "", s); e2e = num(s); e2e_seen = 1
  }
  /"speedup_steady_state":/ {
    s = $0; sub(/.*"speedup_steady_state": /, "", s); steady = num(s); steady_seen = 1
  }
  /"steady_target_speedup":/ {
    s = $0; sub(/.*"steady_target_speedup": /, "", s); steady_tgt = num(s); steady_tgt_seen = 1
  }
  /"target_speedup":/ && !/"steady_target_speedup":/ {
    s = $0; sub(/.*"target_speedup": /, "", s); tgt = num(s); tgt_seen = 1
  }
  /"target_met": true/ && !/"steady_target_met"/ { met = 1 }
  END {
    if (!bitwise_seen || !e2e_seen || !steady_seen || !tgt_seen) {
      print "bench guard: ensemble artifact missing bitwise_ok/speedup/target fields; re-run the ensemble bench"
      exit 1
    }
    if (num_bad) { print "bench guard: unparseable ensemble value"; exit 1 }
    if (!bitwise) {
      print "bench guard: ensemble bitwise pin FAILED — a batched member diverged from its standalone run"
      exit 1
    }
    if (smoke) {
      print "bench guard: ensemble smoke artifact, bitwise pin ok, skipping speedup floors"
      exit 0
    }
    bad = 0
    if (e2e < floor) {
      printf "bench guard: ensemble end-to-end %.3fx < %.2fx floor (batch driver costs more than it saves)\n", e2e, floor
      bad = 1
    }
    if (steady < floor) {
      printf "bench guard: ensemble steady-state %.3fx < %.2fx floor (member batching lost to serial stepping)\n", steady, floor
      bad = 1
    }
    if (members >= 4) {
      if (!steady_tgt_seen) {
        print "bench guard: full lane batch but steady_target_speedup missing; re-run the ensemble bench"
        bad = 1
      } else if (lane_edge == "") {
        printf "bench guard: SKIP lane steady floor — no full kernels artifact with the hypervis_member_lanes_resident row to establish the lane compute edge (steady %.3fx vs %.1fx target, informational)\n", steady, steady_tgt
      } else if (lane_edge + 0 < edge_min) {
        printf "bench guard: SKIP lane steady floor — lane arithmetic has no structural edge on this host (resident %.2fx < %.1fx: blocked kernels already hardware-SIMD); steady %.3fx vs %.1fx target, informational\n", lane_edge + 0, edge_min, steady, steady_tgt
      } else if (steady < steady_tgt) {
        printf "bench guard: lane steady-state %.3fx < %.1fx floor with a %.2fx lane compute edge — the lane path regressed, not the host\n", steady, steady_tgt, lane_edge + 0
        bad = 1
      } else {
        printf "bench guard: lane steady-state %.3fx >= %.1fx floor (lane compute edge %.2fx)\n", steady, steady_tgt, lane_edge + 0
      }
    }
    if (!bad) {
      printf "bench guard: OK ensemble end-to-end %.3fx, steady-state %.3fx >= %.2fx floor, bitwise pin held\n", e2e, steady, floor
      if (!met) printf "bench guard: note — recorded %.1fx members/sec target not met (end-to-end %.3fx); see DESIGN.md section 5.9\n", tgt, e2e
    }
    exit bad
  }
' "$ENSEMBLE"
