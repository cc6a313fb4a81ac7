#!/usr/bin/env bash
# Performance regression gate: re-run each benchmark with the exact
# configuration its committed baseline was recorded with, then compare
# the headline throughput metrics via `sesr bench-gate`, which fails if
# a fresh run regresses more than MAX_REGRESS (default 25%).
#
# Lanes, in order: train, infer, video, router. The flag sets below MUST
# mirror the `config` blocks inside the committed BENCH_train.json /
# BENCH_infer.json / BENCH_video.json / BENCH_router.json — re-record a
# baseline and update its flags here together, never one without the
# other.
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_REGRESS="${MAX_REGRESS:-0.25}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

sesr() {
    cargo run --release --offline -q -p sesr-cli -- "$@"
}

if [[ -f BENCH_train.json ]]; then
    echo "-- bench-gate: training throughput --"
    sesr train-bench --archs m5,m11 --scale 2 --expanded 16 --seed 0 \
        --steps 10 --warmup 2 --batch 8 --hr-patch 32 --threads 4 \
        --out "$tmp/BENCH_train.json"
    sesr bench-gate --baseline BENCH_train.json \
        --fresh "$tmp/BENCH_train.json" --max-regress "$MAX_REGRESS"
else
    echo "bench-gate: no BENCH_train.json baseline; skipping train gate" >&2
fi

if [[ -f BENCH_infer.json ]]; then
    echo "-- bench-gate: planned inference throughput --"
    sesr infer-bench --archs m5,m11 --scale 2 --expanded 16 --seed 0 \
        --iters 30 --warmup 5 --height 180 --width 320 --threads 1 \
        --out "$tmp/BENCH_infer.json"
    # Wider throughput tolerance than the other gates: the shared
    # recording box swings up to ~45% between load phases, which the
    # standard 25% rule would flag as a regression half the time. The
    # committed baseline is a slow-phase recording (EXPERIMENTS.md E22:
    # m5 planned 21.9 img/s, about half of what a fast phase reads) that
    # predates the tile-row Winograd body, so this floor sits far below
    # today's throughput and only catches catastrophic breakage —
    # the sharp check for a broken SIMD path is the sesr-infer-simd
    # variant assertion below, which has no tolerance at all.
    sesr bench-gate --baseline BENCH_infer.json \
        --fresh "$tmp/BENCH_infer.json" \
        --max-regress "${MAX_REGRESS_INFER:-0.50}"

    # sesr-infer-simd: the fresh report serializes the microkernel variant
    # the plan autotuner picked per architecture. On any machine whose CPU
    # advertises AVX2 the tuned plan must not fall back to the scalar
    # chains — that would mean the SIMD dispatch or the autotuner broke
    # even if throughput happened to squeak past the regression budget.
    echo "-- bench-gate: sesr-infer-simd (autotuned variant) --"
    variants="$(grep -o '"variant":"[a-z0-9]*"' "$tmp/BENCH_infer.json" \
        | cut -d'"' -f4 | grep -v '^auto$' | sort -u)"
    echo "sesr-infer-simd: autotuned variant(s): ${variants:-none}"
    if [[ -z "$variants" ]]; then
        echo "sesr-infer-simd: FAILED — no per-arch variant in fresh report" >&2
        exit 1
    fi
    if grep -qw avx2 /proc/cpuinfo 2>/dev/null \
        && echo "$variants" | grep -qx scalar; then
        echo "sesr-infer-simd: FAILED — autotuner chose scalar on an AVX2 machine" >&2
        exit 1
    fi

    # sesr-infer-int8: beyond the relative regression check above (the
    # CLI gate already compares results.<arch>.int8_images_per_sec
    # against the baseline), hold the int8 lane to its absolute floor —
    # the quantized plan must clear INT8_SPEEDUP_FLOOR x the f32 planned
    # path on every architecture in the report. The ratio is measured
    # within one run on one box, so unlike raw throughput it does not
    # swing with background load; a drop below the floor means the int8
    # path itself slowed down (or the lane silently vanished) — or that
    # the f32 denominator sped up: a faster f32 plan lowers the ratio
    # with no change to int8, so an f32 speed-up must bring int8 work
    # that keeps the ratio above the floor, not a lower floor.
    echo "-- bench-gate: sesr-infer-int8 (quantized lane floor) --"
    int8_floor="${INT8_SPEEDUP_FLOOR:-1.4}"
    speedups="$(grep -o '"int8_speedup_vs_planned":[0-9.]*' "$tmp/BENCH_infer.json" \
        | cut -d: -f2)"
    if [[ -z "$speedups" ]]; then
        echo "sesr-infer-int8: FAILED — fresh report has no int8 lane" >&2
        exit 1
    fi
    echo "sesr-infer-int8: speedups vs planned: $(echo "$speedups" | tr '\n' ' ')(floor ${int8_floor}x)"
    if command -v python3 >/dev/null 2>&1; then
        if ! python3 - "$int8_floor" $speedups <<'PY'
import sys
floor = float(sys.argv[1])
bad = [s for s in sys.argv[2:] if float(s) < floor]
if bad:
    print(f"sesr-infer-int8: FAILED — int8 speedup(s) {bad} below {floor}x floor",
          file=sys.stderr)
    sys.exit(1)
PY
        then exit 1; fi
    else
        for s in $speedups; do
            if ! awk -v s="$s" -v f="$int8_floor" 'BEGIN { exit !(s >= f) }'; then
                echo "sesr-infer-int8: FAILED — int8 speedup $s below ${int8_floor}x floor" >&2
                exit 1
            fi
        done
    fi
else
    echo "bench-gate: no BENCH_infer.json baseline; skipping infer gate" >&2
fi

if [[ -f BENCH_video.json ]]; then
    echo "-- bench-gate: streaming-video reuse throughput --"
    sesr video-bench --height 96 --width 96 --tile 24 --frames 24 \
        --scale 2 --expanded 16 --seed 7 --overload 2 \
        --ladder m3,m5,m7,m11 --out "$tmp/BENCH_video.json"
    sesr bench-gate --baseline BENCH_video.json \
        --fresh "$tmp/BENCH_video.json" --max-regress "$MAX_REGRESS"
else
    echo "bench-gate: no BENCH_video.json baseline; skipping video gate" >&2
fi

if [[ -f BENCH_router.json ]]; then
    echo "-- bench-gate: router goodput scaling --"
    sesr router-bench --seed 0xB0A7 --phase-ms 3000 --shards-low 1 \
        --shards-high 4 --tenants 3 --interactive-hz 30 --deadline-ms 40 \
        --heavy-hz 12 --big-height 432 --big-width 576 \
        --overload-factor 2 --overload-heavy-hz 16 \
        --autoscale-hz 600 --autoscale-quiet-ms 1500 \
        --out "$tmp/BENCH_router.json"
    sesr bench-gate --baseline BENCH_router.json \
        --fresh "$tmp/BENCH_router.json" --max-regress "$MAX_REGRESS"
else
    echo "bench-gate: no BENCH_router.json baseline; skipping router gate" >&2
fi
