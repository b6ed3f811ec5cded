#!/usr/bin/env bash
# Builds cmd/serve and the benchmark from the checkout this script sits
# in, then runs the benchmark with the arguments given:
#
#   bash perfbench/run.sh --workload audit|publish|certify --seed N --seconds S --trace 0|1
#
# Binaries and every Go build cache land under .bench_build/ at the
# checkout root; nothing is fetched (GOPROXY=off) and the local Go
# toolchain is used as is.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"

if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="/usr/local/go/bin:$PATH"
fi

mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

# The benchmark is its own module (perfbench/go.mod) that resolves
# repro to the checkout root, so it builds the root's cmd/serve too.
(cd "$here" && go build -o "$out/bin/" repro/cmd/serve .) >&2

exec "$out/bin/perfbench" -serve "$out/bin/serve" "$@"
