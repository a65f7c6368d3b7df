#!/usr/bin/env bash
# Builds qosd and the benchmark from the checkout's sources into
# .bench_build/ (Go's build cache included, so nothing is written
# outside the checkout), then runs the benchmark with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload unique_retrieve --seed 1 --seconds 10 --trace 0
#
# Build output goes to standard error; the benchmark's last line of
# standard output is its JSON result. A failed build exits non-zero
# without a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
# Keep every Go-written file (build cache, temp dirs) under the
# checkout, and ignore per-user Go settings.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
# Turn Go telemetry off. In its default "local" mode the go command
# forks a detached sidecar (its own session) that outlives the build,
# so the benchmark would leave a process behind.
printf 'off\n' >"$out/config/go/telemetry/mode"

go build -o "$out/qosd" ./cmd/qosd 1>&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) 1>&2
exec "$out/perfbench" --qosd "$out/qosd" "$@"
