#!/bin/sh
# cost_smoke.sh — the cost-model acceptance check as a black-box
# process test: boot cmd/serve, run cmd/loadgen twice at two dataset
# sizes so every fitted stage sees workload-shape spread (two sizes →
# two x clusters → a meaningful slope), then assert with
# scripts/costcheck that /metrics?format=prom parses as OpenMetrics and
# the priors and mondrian fits reach minimum sample counts with bounded
# median error. The calibration runs use -models bt only: the engine
# caches priors per bandwidth, so a mixed-model run would spend most
# requests on cache hits and starve the reservoirs.
# Also probes the explain and estimate surfaces end to end.
# Run via `make cost-smoke` (part of `make ci`).
set -eu

ADDR=${COST_SMOKE_ADDR:-127.0.0.1:19475}
BASE="http://$ADDR"
WORK=$(mktemp -d)
SERVE_PID=""

cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

say() { echo "cost-smoke: $*"; }

say "building cmd/serve, cmd/loadgen, scripts/costcheck"
${GO:-go} build -o "$WORK/serve" ./cmd/serve
${GO:-go} build -o "$WORK/loadgen" ./cmd/loadgen
${GO:-go} build -o "$WORK/costcheck" ./scripts/costcheck

say "boot ($ADDR)"
"$WORK/serve" -addr "$ADDR" -workers 2 >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
i=0
while ! curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        say "server process exited during startup:"
        cat "$WORK/serve.log"
        SERVE_PID=""
        exit 1
    fi
    i=$((i + 1))
    [ "$i" -gt 100 ] && { say "server did not become healthy"; exit 1; }
    sleep 0.1
done

# Calibration runs at three dataset sizes: each run's warmup
# contributes mondrian passes at its size, and its attack traffic
# contributes one priors pass per fresh (engine, bandwidth) pair.
# -concurrency 1 keeps the calibration passes unconcerted — co-running
# requests contend for cores and scatter stage durations far beyond
# the fit's error bound (the concurrent regime is obs-smoke's job).
for n in 300 500 700; do
    say "calibration run (n=$n, 2s, models=bt)"
    "$WORK/loadgen" -addr "$BASE" -n "$n" -duration 2s -concurrency 1 \
        -models bt >"$WORK/loadgen_$n.log" 2>&1 || {
        say "FAIL: loadgen run (n=$n) failed"
        cat "$WORK/loadgen_$n.log"
        exit 1
    }
done

# The loadgen report's stage table carries the fiterr% column when the
# server exposes a cost model; its absence means the surface regressed.
grep -q 'fiterr%' "$WORK/loadgen_700.log" || {
    say "FAIL: loadgen stage report lacks the fiterr% column"
    cat "$WORK/loadgen_700.log"
    exit 1
}

say "asserting exposition and calibration quality"
"$WORK/costcheck" -addr "$BASE" -stages priors,mondrian \
    -min-samples 4 -max-err 0.30 || {
    say "FAIL: costcheck rejected the calibrated model"
    tail -40 "$WORK/serve.log"
    exit 1
}

say "probing the explain surface"
DS=$(curl -sf -X POST "$BASE/v1/datasets" -d '{"n":300,"seed":1}' |
    sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$DS" ] || { say "FAIL: could not ingest probe dataset"; exit 1; }
BODY="{\"dataset\":\"$DS\",\"model\":\"bt\",\"k\":3,\"l\":3}"
curl -sf -X POST "$BASE/v1/anonymize?explain=1" -d "$BODY" >"$WORK/explain.json"
grep -q '"explain"' "$WORK/explain.json" || {
    say "FAIL: anonymize?explain=1 carried no explain block"
    cat "$WORK/explain.json"
    exit 1
}
curl -sf -X POST "$BASE/v1/anonymize" -d "$BODY" >"$WORK/plain.json"
if grep -q '"explain"' "$WORK/plain.json"; then
    say "FAIL: default anonymize body carries an explain block"
    cat "$WORK/plain.json"
    exit 1
fi

say "probing the estimate surface"
curl -sf "$BASE/v1/estimate?op=anonymize&dataset=$DS" >"$WORK/estimate.json"
grep -q '"predicted_us"' "$WORK/estimate.json" || {
    say "FAIL: /v1/estimate returned no prediction"
    cat "$WORK/estimate.json"
    exit 1
}

say "PASS: cost model calibrated, exposition valid, explain/estimate live"
