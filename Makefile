GO ?= go

.PHONY: build test lint race check fuzz-smoke fuzz-replay fabric-smoke \
	soak-smoke bench-smoke leftovers bench profile quickstart

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint is the static tier: formatting drift fails the build the same way
# a vet diagnostic does.
lint:
	@unformatted="$$(gofmt -l cmd internal examples benchmark *.go)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

# race runs the packages with a concurrency contract (the sharded
# switch workers, the control channel) under the race detector, then
# repeats the one test whose races are a matter of timing: workers
# forwarding while barrier commits swap in snapshots that share tables
# with the ones the workers are on.
race:
	$(GO) test -race ./internal/...
	$(GO) test -race -count=10 -run TestForwardDuringCommits ./internal/openflow

# fuzz-smoke is the CI slice of the differential fuzzer. Its first line
# checks every property of the difftest registry (`mafuzz -h` lists them)
# from seed 1, each input shape for its own budget: 30 s of generated
# programs (every representation and its fused twin on every model,
# against the relational semantics, the NetKAT oracle, the witnesses and
# the counters, and every representation's Denormalize against the
# source table), 30 s of schema programs (an invented header schema and
# parse graph per seed, raw frames through the compiled decoder), 250
# concurrent flow-mod batch pairs (the confluence verifier against
# brute-force interleaving; genuinely racing pairs are counted, not
# failed) and 20 s of update streams (incremental barrier commits against
# a from-scratch check and Install on every model). Any divergence fails
# the run and writes a shrunk reproducer. The third line fuzzes the
# indexed evaluator (mat.Evaluator) against the definition of the
# semantics (mat.Pipeline.Eval) on coverage-guided random pipelines: same
# output record, same error, on every probe. The fourth fuzzes the
# default schema's decoder — the one every default-schema frame is
# forwarded through — against the hand-written Packet codec: same
# accept/reject reason, presence, fields, payload and unknown-next
# verdict. The fifth fuzzes the fused template's flat decision diagram
# (classifier.FDD) against ordered first-match over the same rules.
#
# fuzz-replay re-runs every committed reproducer's property on its input:
# each must still show the divergence kind it records (the Fig. 3 caveat,
# the rematch hazard and its schema twin, the racing flow-mod pair), and a
# reproducer of a fixed bug (kind "fixed": the OVS exact-match cache's
# MAC key, the fused counters read-back, the fused generic mod_<field>
# rewrite, the forgotten ambiguous add) must show none at all.
fuzz-smoke:
	$(GO) run ./cmd/mafuzz -props all -seed 1
	$(GO) test ./internal/mat -run '^$$' -fuzz FuzzEvaluatorMatchesEval -fuzztime 15s
	$(GO) test ./internal/packet -run '^$$' -fuzz FuzzDefaultDecoderMatchesCodec -fuzztime 15s
	$(GO) test ./internal/classifier -run '^$$' -fuzz FuzzFDDMatchesFirstMatch -fuzztime 15s

fuzz-replay:
	$(GO) run ./cmd/mafuzz -replay -corpus internal/difftest/testdata/corpus

# fabric-smoke drives the multi-switch fabric through the headline fault
# schedule (1% loss, a forced mid-frame cut, a partition every third
# update) under both placement modes and fails unless the convergence
# checker proves full convergence: the oracle's fingerprint on every
# replica, exact desired state (zero lost or duplicated flow-mods), and
# packet-for-packet forwarding agreement with the single-switch oracle.
fabric-smoke:
	$(GO) run ./cmd/mabench -experiment fabricchurn -quick

# soak-smoke is the CI slice of the sustained soak (E10): 60 seconds of
# forwarding (including malformed frames through the typed-drop decoder
# paths) concurrent with control-plane churn over a fault-injected TCP
# channel, gated on per-window throughput drift and p99 processing
# latency from the telemetry registry.
soak-smoke:
	$(GO) run ./cmd/mabench -experiment soak -duration 60s

# bench-smoke is the repo benchmark (benchmark/, declared in
# BENCHMARK.json — the only performance yardstick) run short: one second
# per timed phase on every workload, per-layer trace off. It exits 1 when
# any of a workload's ~28 700 reference checks disagrees; it gates
# correctness of what the benchmark measures, not speed — a PR that claims
# or risks a number follows the paired -out / -compare recipe in README
# "Testing", scored against the bounds in BENCHMARK.json.
bench-smoke:
	bash benchmark/run.sh --workload all --seed 1 --seconds 1 --trace 0

# leftovers fails when anything this repo's commands start is still
# alive: the benchmark, a cmd/ binary, a test binary or a `go run` child.
# A process left behind keeps its CPU and memory on a shared host and
# perturbs whatever is measured next, so this is the last stage of check
# and the last command of any working session. Each bracketed first letter
# keeps the pattern from matching the shell that runs it.
leftovers:
	@left="$$(pgrep -fa '[b]enchmark|[m]a(bench|fuzz|switch|norm)|[g]o-build|\.[t]est' || true)"; \
	if [ -n "$$left" ]; then \
		echo "still running:"; echo "$$left"; exit 1; \
	fi

# check is the single gate CI runs — .github/workflows/ci.yml calls
# exactly this target, so a green `make check` locally is a green build.
check: lint build test race fuzz-smoke fuzz-replay fabric-smoke soak-smoke bench-smoke leftovers

bench:
	$(GO) test -p 1 -bench=. -benchmem ./...

# profile captures a CPU profile of a short Table 1 run.
# Inspect it with `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/mabench -experiment static -quick -cpuprofile cpu.prof
	@echo "wrote cpu.prof (go tool pprof cpu.prof)"

quickstart:
	$(GO) run ./examples/quickstart
