#!/bin/sh
# check.sh — the repository's tier-1 gate. Every change must pass this
# before it lands: gofmt, vet, build, the live benchmark module's vet and
# tests, the short test suite under the race detector, and the short
# seeded chaos sweep. (-short skips the slow
# full-matrix sweeps and the benchmark gate; run `go test ./...` and
# scripts/bench_gate.sh for the long versions.) Run from the repo root:
#
#   ./scripts/check.sh
#
# The chaos sweep is deterministic: a failure prints the seed and a
# one-line repro command (e.g. `go test ./internal/chaos -run
# TestChaosSweep -chaos.seed=17`).
set -eu
cd "$(dirname "$0")/.."

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting (run gofmt -w):" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

# Cross-compile the portable transport path: the batched UDP data plane
# is Linux-only behind build tags, and these builds catch any stray
# Linux-ism leaking into the portable files.
echo "==> GOOS=darwin go build ./..."
GOOS=darwin go build ./...

echo "==> GOOS=windows go build ./..."
GOOS=windows go build ./...

# The live benchmark is a Go module of its own (livebench/go.mod, which
# replaces scalamedia with this checkout), so ./... never reaches it. Vet
# and test it here so a public-API change cannot break it unnoticed; its
# tests include the output checker's planted-defect cases.
echo "==> go -C livebench vet ./..."
go -C livebench vet ./...

echo "==> go -C livebench test ./..."
go -C livebench test ./...

echo "==> go test -race -short ./..."
go test -race -short ./...

echo "==> short chaos sweep"
go test -short -count=1 ./internal/chaos

# Bounded slice of the T7 scalable-recovery experiment: one seed at
# n=256, flat vs suppressed, full delivery plus a real request reduction.
# The 1024-node acceptance run lives in the full (non-short) suite.
echo "==> T7 recovery smoke (n=256)"
go test -count=1 -run 'TestT7Smoke256' ./internal/experiments

# Bulk-dissemination smoke: scatter a 128KB object to 64 members through
# 5% correlated loss with one relay crashed mid-transfer; every survivor
# must reconstruct and the bottleneck member must stay under 25% of the
# flat multicast sender cost.
echo "==> T9 bulk dissemination smoke (n=64, relay crash)"
go test -count=1 -run 'TestT9Smoke64' ./internal/experiments

# Overload-robustness smoke: 32 members with one receiver stalled 2.5s
# under a 16-message stability window; sender occupancy must stay at the
# window, sends must hit backpressure, and the laggard must not be
# evicted under ThrottleToSlowest.
echo "==> T10 overload smoke (n=32, one receiver stalled)"
go test -count=1 -run 'TestT10Smoke32' ./internal/experiments

# Total-order safety smoke: a 16-member group with four sequencer shards
# must deliver every message in one identical global sequence at every
# member (the pipelined range + merge-stream path under light loss).
echo "==> total-order smoke (n=16, shards=4)"
go test -count=1 -run 'TestTotalOrderSmoke16' ./internal/experiments

echo "==> /metrics endpoint smoke test"
go test -count=1 -run 'TestMetricsEndpoint' .

# Self-healing membership smoke test: a 3-node group over live UDP where
# only the joiners hold the contact's static peer entry must converge via
# return-address learning and the view-body address exchange.
echo "==> self-healing membership smoke test"
go test -count=1 -run 'TestSelfConfiguringGroupOverUDP' .

# Self-organizing hierarchy smoke: 64 nodes across 8 latency sites form
# an agreed tree, lose an elected coordinator, and re-converge without it.
echo "==> auto-hier formation smoke (n=64)"
go test -count=1 -run 'TestAutoHierSmoke64' ./internal/hier

echo "All checks passed."
