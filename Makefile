# Development targets. `make check` is the gate every change must pass:
# vet, formatting, the full test suite once under the race detector
# (which exercises the concurrent obs registry, among others), and the
# experiments with their baseline gates.
#
# Experiment targets write BENCH_<id>.json (and the trace/cluster
# targets <id>.perfetto.json) into the working directory. All of it is
# regenerated output, ignored by git and removed by `make clean`; the
# only committed results are the gate baselines under baseline/.

GO ?= go

.PHONY: build test check vet fmt race fuzz-abr fuzz-player fuzz-server fuzz-manifest fuzz-provider fuzz-fleet fuzz-client fuzz-chaos fuzz-telemetry fuzz-store exports knobs trace edge swarm fleet cluster live lut benchdiff bench microbench loc clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails if any file needs reformatting.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Every package's suite, once, under the race detector; the experiment
# targets below run none of their own. -short skips only the full
# paper-evaluation registry sweep (which exceeds go test's default
# timeout under the ~10x race slowdown) and the abr oracle's largest
# seeded instances.
race:
	$(GO) test -race -short ./...

# Twenty seconds of fuzzing the bounded tile search against its oracle
# contract (internal/abr: subsequence of the exact reference frontiers,
# same plan where neither thinned, never over budget, no frontier exactly
# when no upgrade fits or when every tile's cheapest row does, those rows
# clear of the others, and then the sweep's plan). Not part of check: a
# fuzz run has no fixed end. The committed seeds under
# internal/abr/testdata/fuzz/ are the boundary cases of that last clause
# (guard-*: no upgrade fits; cheapest-*: at the all-cheapest plan's size,
# an ulp under it, zero-cost ties at capped levels), of the exact form of
# the cut on heavy-tailed rows (exact-*) and of the two sums' order
# (order-*); plain `go test` replays them.
fuzz-abr:
	$(GO) test -run '^$$' -fuzz FuzzAllocatePruned -fuzztime 20s ./internal/abr

# Twenty seconds of fuzzing the planner's table-read cost rows
# (internal/player: total over NaN, negative and huge coefficients,
# bit-for-bit the exact value outside the tables' domains, within
# 1e-4 dB of it inside). Not part of check, for the same reason.
fuzz-player:
	$(GO) test -run '^$$' -fuzz FuzzCostRows -fuzztime 20s ./internal/player

# Twenty seconds of fuzzing the origin's tile-path parser against the
# strings.Split parser it replaced (internal/server: same triple or the
# same error text, which is the 400 response's body). Not part of
# check, for the same reason.
fuzz-server:
	$(GO) test -run '^$$' -fuzz FuzzParseTilePath -fuzztime 20s ./internal/server

# Twenty seconds of fuzzing the manifest's wire decoder
# (internal/manifest: never panics, allocates at most a constant times
# its input, and whatever it accepts re-encodes to exactly the input).
# Not part of check, for the same reason; the committed seeds under
# internal/manifest/testdata/fuzz/ — an encoding cut at each section
# boundary, forged counts, oversized and padded varints, binary32 NaNs,
# infinities, a subnormal and −0, a zero LUT coefficient, a version-1
# encoding — replay under plain `go test`.
fuzz-manifest:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 20s ./internal/manifest

# Twenty seconds of fuzzing the provider's pixel kernel against the
# per-pixel oracle it replaced (internal/provider: arbitrary rects,
# levels and ascending anchor sets on a rendered frame and on a
# hand-made one whose thresholds land exactly on errors; every anchor's
# sum and Σe² bit for bit). Not part of check, for the same reason; the
# committed seeds under internal/provider/testdata/fuzz/ — partial last
# block column and row, the last pixel, thresholds never and always
# reached — replay under plain `go test`.
fuzz-provider:
	$(GO) test -run '^$$' -fuzz FuzzPerceptibleError -fuzztime 20s ./internal/provider

# Twenty seconds of fuzzing the fleet's failover ladder (internal/fleet:
# random breaker and budget states, request outcomes answered, failed,
# slow enough to hedge or cut short, every walk held to the conservation
# check — no half-open slot left held, the budget within [0, burst], no
# more attempts than rounds × origins — and to the ladder's policies).
# Not part of check, for the same reason; the committed seeds under
# internal/fleet/testdata/fuzz/ — every breaker open, a dry budget at a
# probe, a hedge taking a probe slot and winning or losing it, a caller
# giving up mid-race, three rounds of failures — replay under plain
# `go test`.
fuzz-fleet:
	$(GO) test -run '^$$' -fuzz FuzzLadder -fuzztime 20s ./internal/fleet

# Twenty seconds of fuzzing a session's playout ledger (internal/client:
# arbitrary sequences of time passing, chunks landing and pacing idles,
# every second counted once as startup, playback or stall, no stall
# before the first chunk lands and no startup after). Not part of check,
# for the same reason; the committed seeds under
# internal/client/testdata/fuzz/ — a wait before the first chunk, a
# stall after it, an idle to a cap, a paced VOD session — replay under
# plain `go test`.
fuzz-client:
	$(GO) test -run '^$$' -fuzz FuzzPlayout -fuzztime 20s ./internal/client

# Twenty seconds of fuzzing the chaos spec parser (internal/chaos:
# whatever Parse accepts and enables, String renders as a spec Parse
# reads back to the same Profile). Not part of check, for the same
# reason; the committed seeds under internal/chaos/testdata/fuzz/ — the
# negative durations, NaN and infinite rates and throttles, bad window
# numbers and seed 0 it once accepted or dropped — replay under plain
# `go test`.
fuzz-chaos:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 20s ./internal/chaos

# Twenty seconds of fuzzing the SLO spec parser (internal/telemetry:
# never panics, and every SLO ParseSLOs accepts can alert — finite
# fields, a budget or a quantile's ceiling above 0, 0 < warn <= page
# burns and 0 < fast <= slow windows). Not part of check, for the same
# reason; the committed seeds under internal/telemetry/testdata/fuzz/ —
# the NaN and infinite budgets, bounds and burns, the negative budget and
# the zero quantile ceiling it once accepted — replay under plain
# `go test`.
fuzz-telemetry:
	$(GO) test -run '^$$' -fuzz FuzzParseSLOs -fuzztime 20s ./internal/telemetry

# Twenty seconds of fuzzing the store's catalog decoder
# (internal/store: ReadCatalog never panics, every head it accepts names
# its manifest and tiles by sha256 digests and its tiles by sizes a read
# can allocate, and no read over an accepted head opens a path outside
# the store root). Not part of check, for the same reason; the committed
# seeds under internal/store/testdata/fuzz/ — a tile or manifest digest
# climbing out of the store, a size of 1<<62, a negative size, an
# uppercase digest, a torn head — replay under plain `go test`.
fuzz-store:
	$(GO) test -run '^$$' -fuzz FuzzReadCatalog -fuzztime 20s ./internal/store

# The export guard (exports_test.go, tier-1) verbose: every exported
# name under internal/ and cmd/internal/ needs a non-test caller, and
# each allowlisted exception is printed with its reason.
exports:
	$(GO) test -count=1 -run '^TestEveryExportHasACaller$$' -v .

# The knob guard (knobs_test.go, tier-1) verbose: every exported field
# of a *Config, *Policy, *Options or *Opts struct under internal/ and
# cmd/internal/ needs a non-test setter outside its package, and each
# allowlisted exception is printed with its reason.
knobs:
	$(GO) test -count=1 -run '^TestEveryKnobIsSet$$' -v .

# One traced session end to end: a seeded simulator run (per-phase
# latency breakdown lands in BENCH_trace.json). The exported
# trace.perfetto.json is shape-validated and loads in Perfetto
# (ui.perfetto.dev) or chrome://tracing. Client and server spans
# stitching across the HTTP hop is internal/client's
# TestStreamTraceStitchesAcrossRetries, and across processes `cluster`.
trace:
	$(GO) run ./cmd/pano-bench -scale quick trace

# The edge cache tier's origin-offload experiment (20 concurrent
# overlapping sessions direct vs via edge; lands in BENCH_edge.json).
edge:
	$(GO) run ./cmd/pano-bench -scale quick edge

# The virtual-time swarm's population-scaling experiment (1k → 1M
# sessions, lands in BENCH_swarm.json) gated against the committed
# baseline. Wall-clock columns measure the machine, not the system, so
# the gate ignores them.
swarm:
	$(GO) run ./cmd/pano-bench -scale quick swarm
	$(GO) run ./cmd/pano-benchdiff -threshold 0.10 \
		-ignore wall_sec,sessions_per_wall_sec \
		baseline/BENCH_swarm.json BENCH_swarm.json

# The origin fleet's resilience experiment (4 shards, one killed
# mid-run, swarm + live scenarios, lands in BENCH_fleet.json) gated
# against the committed baseline. live_reqs, breaker_open_ms, and
# wall_sec measure the machine, not the system, so the gate ignores
# them.
fleet:
	$(GO) run ./cmd/pano-bench -scale quick fleet
	$(GO) run ./cmd/pano-benchdiff -threshold 0.10 \
		-ignore live_reqs,breaker_open_ms,wall_sec \
		baseline/BENCH_fleet.json BENCH_fleet.json

# The cluster observability experiment — five live processes scraped
# by an obsd plane, an origin killed and revived, fleet-wide SLOs paging
# on the merged series (and obsd's own /debug/slo reading non-ok at the
# outage peak and ok after recovery), and the rollup proven bit-exact
# against per-process sums (lands in BENCH_cluster.json) gated against
# the committed baseline. The info column carries wall-clock detail (page
# steps, span counts), so the gate ignores it.
cluster:
	$(GO) run ./cmd/pano-bench -scale quick cluster
	$(GO) run ./cmd/pano-benchdiff -threshold 0.10 \
		-ignore info \
		baseline/BENCH_cluster.json BENCH_cluster.json

# The live-streaming experiment — publish punctuality, graceful
# degradation under an impossible deadline, the two-origins-one-store
# byte/ETag proof, and an origin killed mid-feed under real live
# sessions (lands in BENCH_live.json) gated against the committed
# baseline. lat_*, pub_ms, and wall_sec measure the machine (the feed
# clock is compressed), so the gate ignores them.
live:
	$(GO) run ./cmd/pano-bench -scale quick live
	$(GO) run ./cmd/pano-benchdiff -threshold 0.10 \
		-ignore lat_mean_s,lat_max_s,pub_ms,wall_sec \
		baseline/BENCH_live.json BENCH_live.json

# The §6.3 lookup-table experiment — schema sizes, the manifest's bytes
# per tile on the wire, and the precision knee of each manifest field
# group (the fewest significand bits no plan of its sessions needs more
# of; lands in BENCH_lut.json) — gated against the committed baseline.
# Every cell is deterministic, so the gate is exact: a change that grows
# the manifest or moves a knee fails it. The knees are the quick
# dataset's; the benchmark's video is not measured here.
lut:
	$(GO) run ./cmd/pano-bench -scale quick lut
	$(GO) run ./cmd/pano-benchdiff -threshold 1e-9 \
		baseline/BENCH_lut.json BENCH_lut.json

# Compare two benchmark runs: files or directories of BENCH_*.json.
# Usage: make benchdiff OLD=baseline/ NEW=. [THRESHOLD=0.10]
THRESHOLD ?= 0.10
benchdiff:
	$(GO) run ./cmd/pano-benchdiff -threshold $(THRESHOLD) $(OLD) $(NEW)

check: vet fmt race trace edge swarm fleet cluster live lut

# Quick-scale paper evaluation; writes BENCH_<id>.json files.
bench: build microbench
	$(GO) run ./cmd/pano-bench -scale quick

# Kernel micro-benchmarks (serial vs parallel vs cached), the client's
# per-chunk tile allocator (BenchmarkAllocatePruned: synthetic 30- and
# 72-tile rows, the same at the all-lowest budget no upgrade fits
# (nothing_affordable, the swarm's operating point), bench_video, a
# real manifest's chunks at the sizes of its uniform levels, and
# vod_links, the same chunks at the budgets 0.18x/0.30x links produce —
# the heavy-tailed row, and the one to quote; BenchmarkVodSessionSearches:
# the searched calls of one vod_session pass, with their frontier states
# per call), the planner's cost rows for one chunk
# (BenchmarkCostRows: exact is the Pow-and-Exp definition, table what
# Plan runs, settled a whole Plan at the all-lowest budget, which no
# upgrade fits and the chunk's floor from the manifest's table answers
# before the rows are built, plan a whole Plan at each uniform level's
# size in turn), the
# provider's chunk analysis (scene render, quantizer, the PMSE kernel
# per level over one frame's 30 tiles, one chunk, one video), the
# virtual-time session loop (one session, one netem tile single origin
# and through the fleet twin, each pass over the video a session whose
# clock restarts inside the first 30 s, and BenchmarkSimRun: one sim.Run
# over the golden fixture, the loop vod_session runs, per tier of watching — bare,
# metrics, metrics_events and traced — so each tier's cost over bare
# reads off one run), the request path hop by hop (BenchmarkOriginTileGET:
# a store-backed origin's tile GET into a recorder; BenchmarkFleetFetch:
# one Fetch over loopback through two origins; BenchmarkCleanWalk: a
# walk's steady-state admission, one budget credit, breaker admission and
# breaker success, from one goroutine and from two sharing them, which
# take no lock; BenchmarkEdgeHit: a cache
# hit over loopback, with and without a registry), the manifest's
# wire codec (BenchmarkManifestWire: encode and decode of the benchmark
# manifest's shape, with its bytes per tile) and the telemetry
# sampler's tick (BenchmarkSamplerStep: scrape and SLO evaluation over
# a player's registry after two sim sessions); appends to
# BENCH_micro.txt with the commit hash so runs diff across commits with
# benchstat or plain text tools.
microbench:
	@echo "## $$(git rev-parse --short HEAD 2>/dev/null || echo dirty) $$(date -u +%Y-%m-%dT%H:%M:%SZ)" >> BENCH_micro.txt
	$(GO) test -run XXX -bench 'ContentField|FieldCache|TilePSPNR|TilePMSE|Plan|AllocatePruned|VodSessionSearches|CostRows|RenderFrame|ErrorPlanes|DistortRegion|PerceptibleError|ChunkAt|Preprocess|RunSessionVirtual|NetemTile|SimRun|OriginTileGET|FleetFetch|CleanWalk|EdgeHit|ManifestWire|SamplerStep' -benchmem \
		./internal/jnd ./internal/quality ./internal/tiling ./internal/abr \
		./internal/player ./internal/scene ./internal/codec ./internal/provider \
		./internal/client ./internal/sim ./internal/swarm ./internal/store ./internal/fleet \
		./internal/edge ./internal/manifest ./internal/telemetry | tee -a BENCH_micro.txt

# The four line counts ROADMAP quotes, so "net LoC down" is one command:
# non-test Go outside benchmark/, test Go outside benchmark/, the
# non-test Go of internal/experiments (the largest package), and the
# non-test Go of the observability plane (internal/obs, telemetry and
# trace).
loc:
	@echo "non-test Go outside benchmark/: $$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l)"
	@echo "tests outside benchmark/:       $$(find . -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l)"
	@echo "internal/experiments non-test:  $$(find internal/experiments -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@echo "obs+telemetry+trace non-test:   $$(find internal/obs internal/telemetry internal/trace -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"

clean:
	rm -f BENCH_*.json BENCH_micro.txt trace.perfetto.json cluster.perfetto.json
	rm -rf fig14-out
