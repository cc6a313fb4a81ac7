#!/usr/bin/env bash
# Repo verification, split into named steps so CI can run (and report)
# each one individually while local use stays a single command.
#
#   ./scripts/verify.sh              # run every step, in order
#   ./scripts/verify.sh fmt test     # run just the named steps
#
# Steps:
#   fmt         cargo fmt --check over the whole workspace
#   build       release build (offline, vendored deps)
#   test        workspace test suite (tier-1)
#   clippy      workspace lint, warnings are errors
#   serve       serve crate tests
#   chaos       engine fault-injection tests, incl. the seeded soak
#   router      sharded-router tests, incl. the fleet-scope shard-chaos soak
#   router-bench router-bench smoke run (fails on its own ledger/shed/scale checks)
#   autoscale   bounded-rebalancing proptest + elastic scaling chaos soak
#   video       streaming-video session tests + video-bench smoke run
#   infer       planned-inference, streaming and tiled identity + zero-allocation proofs,
#               and the plan skeleton's checks at both precisions
#   int8        quantized-plan oracle identity + zero-allocation proofs,
#               epilogue kernel sweep, plan-cache int8 oracle and
#               replication, engine precision grading/fallback
#   simd        kernel unsafe-hygiene audit + scalar/SIMD identity tests
#               (both dispatch legs: default detection and force-scalar)
#   bench-gate  `sesr bench-gate` on each committed BENCH_*.json: re-run its
#               lane from the baseline's own config and gate the result
#   benchmark   the benchmark package's own tests (it sits outside the
#               workspace) + its committed lockfile left unchanged
set -euo pipefail
cd "$(dirname "$0")/.."

# One temp dir for the smoke steps' reports, removed on exit.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

step_fmt() {
    cargo fmt --all -- --check
}

step_build() {
    cargo build --release --offline
}

step_test() {
    cargo test -q --offline --workspace
}

step_clippy() {
    cargo clippy --workspace --offline -- -D warnings
}

step_serve() {
    cargo test -q --offline -p sesr-serve
}

step_chaos() {
    # Targeted crash-recovery tests and the seeded soak (fixed seed,
    # seconds): it fails if any request is lost or the fault, restart and
    # retry counters disagree with the client's tally, and reruns with
    # every fault rate at zero to check that nothing is injected.
    cargo test -q --offline -p sesr-serve --test chaos
}

step_router() {
    # Router integration tests: routing, fairness, shedding, drain races,
    # and the fleet-scope chaos soak (whole-shard kills, wedged-slow
    # shards, failed respawns), which fails if any request is lost or the
    # fleet exactly-one-outcome ledger does not reconcile.
    cargo test -q --offline -p sesr-serve --test router
}

step_router_bench() {
    # Short-window smoke of the multi-tenant router bench. The CLI exits
    # non-zero unless the ledger reconciles in every phase, the high
    # shard count serves traffic, overload sheds batch without rejecting
    # interactive, and the elastic fleet scales up, drains back down and
    # warms new shards. The heavy rate is raised above the committed
    # baseline's because the 1.5 s window accumulates half the backlog
    # of the full 3 s run — without it the shed threshold is never
    # crossed before the window closes.
    cargo run --release --offline -p sesr-cli -- router-bench \
        --phase-ms 1500 --overload-heavy-hz 28 --out "$tmp/BENCH_router_smoke.json"
}

step_autoscale() {
    # Elastic-fleet correctness: the bounded-rebalancing proptest (ring
    # edits move only the keys they must, deterministically), the
    # controller/ring unit tests, and the scaling chaos soak — repeated
    # scale-ups/downs with kills-during-spawn, wedges-during-drain, and
    # respawn failures at min capacity, reconciled to exactly one
    # terminal outcome per admitted request and no unsettled video
    # session.
    cargo test -q --offline -p sesr-serve --lib autoscale
    cargo test -q --offline -p sesr-serve --test autoscale
}

step_video() {
    # Streaming-video session tests (bit-identity proptest, idempotent
    # settlement, router pinning/caps, chaos), then a small video-bench
    # run. The CLI exits non-zero unless reuse stayed bit-identical, the
    # static sequence skipped tiles and cleared the 5x speedup floor, pan
    # mixed skip with recompute, and the any-time phase held its
    # deadline. The run keeps the default geometry and ladder (the
    # reuse/halo ratios and the any-time headroom depend on both) but
    # narrower models and fewer frames, so the step stays a smoke run.
    cargo test -q --offline -p sesr-serve --test video
    cargo run --release --offline -p sesr-cli -- video-bench \
        --frames 12 --expanded 8 --out "$tmp/BENCH_video_smoke.json"
}

step_infer() {
    # The planner's two load-bearing guarantees, proven by dedicated test
    # binaries: bit-identity to the reference executor across
    # architectures/scales/shapes/threads (property sweep), on every
    # detected kernel variant over ragged direct-conv geometries and over
    # widths that cross the Winograd tile-row chunks, and zero
    # steady-state heap allocations (counting global allocator). The
    # tiled executor's composite is checked against the whole frame too,
    # and depth-first streaming against the reference (f32) and the
    # integer oracle (int8) at heights that wrap every row ring.
    cargo test -q --offline -p sesr --test proptest_infer_plan --test proptest_tiling \
        --test proptest_streaming
    cargo test -q --offline -p sesr-core --test ragged_geometry
    cargo test -q --offline -p sesr-core --test wide_geometry
    cargo test -q --offline -p sesr-core --test zero_alloc
    # The f32 and int8 plans share one skeleton (tile LRU, timing hook,
    # variant pin); its checks run once per datapath.
    cargo test -q --offline -p sesr --test plan_datapaths
}

step_int8() {
    # The int8 serving path's load-bearing guarantees: the quantized
    # plan's bit-identity to the QuantizedSesr oracle across
    # architectures/shapes/bands/variants/threads (property sweep) and on
    # every detected kernel variant over ragged tap-kernel geometries,
    # the quantizer's own properties, zero steady-state heap allocations,
    # quantizer edge cases, the kernel-level identity sweeps (every
    # integer tap-kernel body against scalar; requantization epilogues
    # under round ties, clamp saturation, zero-point extremes, -0.0), and
    # the plan cache's int8 oracle, single-flight and replication tests,
    # and the engine's PSNR-budget grading with silent f32 fallback plus
    # the autoscaler's warm-decision replication.
    cargo test -q --offline -p sesr --test proptest_qplan
    cargo test -q --offline -p sesr-quant --test ragged_geometry
    cargo test -q --offline -p sesr-quant --test proptest_quant
    cargo test -q --offline -p sesr-quant --test zero_alloc_int8
    cargo test -q --offline -p sesr-quant --test edge_cases
    cargo test -q --offline -p sesr-tensor quant_epilogues
    cargo test -q --offline -p sesr-tensor qmadd
    cargo test -q --offline -p sesr-serve --lib plan_cache
    cargo test -q --offline -p sesr-serve --test engine int8
    cargo test -q --offline -p sesr-serve --test autoscale int8
}

step_simd() {
    # Unsafe hygiene in the kernel crate: the crate-level lint wall must
    # stay up, and every `unsafe` site must carry a `// SAFETY:` block
    # comment or a `# Safety` doc contract within the preceding dozen
    # lines. Text-level on purpose — it also sees macro bodies, which
    # expand to most of the intrinsic kernels.
    if ! grep -q 'deny(unsafe_op_in_unsafe_fn)' crates/tensor/src/lib.rs; then
        echo "simd: crates/tensor lost #![deny(unsafe_op_in_unsafe_fn)]" >&2
        return 1
    fi
    local bad=0 f
    for f in crates/tensor/src/*.rs; do
        awk '
            /SAFETY:|# Safety/ { last = NR }
            /^[[:space:]]*\/\// { next }
            /unsafe/ && $0 !~ /unsafe_op_in_unsafe_fn/ {
                if (NR - last > 12) {
                    print FILENAME ":" FNR ": unsafe without nearby SAFETY justification"
                    status = 1
                }
            }
            END { exit status }
        ' "$f" || bad=1
    done
    if [[ $bad -ne 0 ]]; then
        echo "simd: SAFETY audit failed" >&2
        return 1
    fi

    # Kernel identity: the in-crate scalar-vs-SIMD bitwise tests, the
    # autotuner tests, and the property sweep — in both dispatch
    # configurations. Under force-scalar the sweep degenerates to
    # scalar-vs-scalar, proving the pinned leg builds and runs the same
    # properties it gates on SIMD machines.
    cargo test -q --offline -p sesr-tensor simd
    cargo test -q --offline -p sesr-tensor autotune
    cargo test -q --offline -p sesr-tensor --test proptest_simd
    cargo test -q --offline -p sesr-tensor --features force-scalar simd
    cargo test -q --offline -p sesr-tensor --features force-scalar --test proptest_simd
}

step_bench_gate() {
    # Each committed baseline is the only description of its lane:
    # `bench-gate` rebuilds the lane's config from the baseline, re-runs
    # it and fails on a regression past the lane's bound, on the lane's
    # own checks, or (infer) on the int8 floor or a scalar kernel on an
    # AVX2 host. Every lane runs, so one failure does not hide another.
    local f failed=()
    for f in BENCH_*.json; do
        echo "-- bench-gate: $f --"
        cargo run --release --offline -q -p sesr-cli -- bench-gate --baseline "$f" \
            || failed+=("$f")
    done
    if [[ ${#failed[@]} -ne 0 ]]; then
        echo "bench-gate: failed: ${failed[*]}" >&2
        return 1
    fi
}

step_benchmark() {
    # The benchmark (BENCHMARK.json) is a package of its own outside the
    # workspace, so `cargo test --workspace` never compiles it against
    # the crates' current API. Build and test it here (unit tests plus a
    # short smoke run of every workload), then require that the build
    # left its committed lockfile untouched: a dependency change that
    # rewrites it must ship with a deliberate change to the benchmark.
    local manifest=crates/bench/src/bin/benchmark/Cargo.toml
    cargo test --release --offline --manifest-path "$manifest"
    git diff --exit-code -- crates/bench/src/bin/benchmark/Cargo.lock
}

ALL_STEPS=(fmt build test clippy serve chaos router router-bench autoscale video infer int8 simd bench-gate benchmark)

steps=("$@")
if [[ ${#steps[@]} -eq 0 ]]; then
    steps=("${ALL_STEPS[@]}")
fi

for s in "${steps[@]}"; do
    fn="step_${s//-/_}"
    if ! declare -F "$fn" >/dev/null; then
        echo "verify: unknown step '$s' (known: ${ALL_STEPS[*]})" >&2
        exit 2
    fi
    echo "== $s =="
    "$fn"
done

echo "verify: all checks passed (${steps[*]})"
