GO ?= go

.PHONY: build test lint race check fuzz-smoke fuzz-replay confluence-smoke \
	incremental-smoke fabric-smoke soak-smoke bench-smoke leftovers bench \
	profile quickstart

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

# fuzz-smoke is the CI slice of the differential fuzzer: a fixed-seed,
# time-boxed run that must finish with zero divergences (the executor
# matrix includes the fused twins, so fusion is smoke-checked here too),
# followed by the same budget in schema mode — every seed invents a
# fresh header schema and parse graph and replays raw frames through the
# programmable decoder. fuzz-replay re-executes every committed
# reproducer (schema-mode ones carry their parse graph in the JSON);
# each must still diverge with its recorded kind, so known caveats —
# including the fused-path rematch hazard and its schema-mode twin —
# stay detected, and a reproducer of a fixed bug (kind "fixed") must
# replay with no divergence at all. The third line fuzzes the indexed
# evaluator (mat.Evaluator) against the definition of the semantics
# (mat.Pipeline.Eval) on coverage-guided random pipelines: same output
# record, same error, on every probe. The last fuzzes the default
# schema's decoder — the one every default-schema frame is forwarded
# through — against the hand-written Packet codec: same accept/reject
# reason, presence, fields, payload and unknown-next verdict. The fifth
# fuzzes the fused template's flat decision diagram (classifier.FDD)
# against ordered first-match over the same rules.
fuzz-smoke:
	$(GO) run ./cmd/mafuzz -seed 1 -duration 30s
	$(GO) run ./cmd/mafuzz -seed 1 -duration 30s -schema-fuzz
	$(GO) test ./internal/mat -run '^$$' -fuzz FuzzEvaluatorMatchesEval -fuzztime 15s
	$(GO) test ./internal/packet -run '^$$' -fuzz FuzzDefaultDecoderMatchesCodec -fuzztime 15s
	$(GO) test ./internal/classifier -run '^$$' -fuzz FuzzFDDMatchesFirstMatch -fuzztime 15s

fuzz-replay:
	$(GO) run ./cmd/mafuzz -replay -corpus internal/difftest/testdata/corpus

# confluence-smoke difftests the semantic confluence verifier
# (internal/confluence): 250 seeded concurrent flow-mod batch pairs,
# each checked by the verifier AND by brute-force interleaving against
# the relational/NetKAT oracle — any disagreement (a false-commute
# verdict either way) fails the run and writes a shrunk reproducer.
# Committed confluence counterexamples replay through the ordinary
# fuzz-replay stage above: the corpus loader routes files carrying
# "batches" into the confluence executor, and each must still diverge
# with its recorded kind.
confluence-smoke:
	$(GO) run ./cmd/mafuzz -confluence-fuzz -seed 1 -iters 250

# incremental-smoke difftests the O(delta) barrier commit against its
# from-scratch reference: seeded programs in their universal, metadata
# and goto forms sit behind an agent on every switch model and take
# add/modify/delete batches (some the agent must reject); after every
# barrier the commit's verdict must be the full check's, and the
# incrementally updated switch must forward, and report its shape,
# exactly like a twin freshly installed with the committed state.
incremental-smoke:
	$(GO) run ./cmd/mafuzz -incremental-fuzz -seed 1 -duration 20s

# fabric-smoke drives the multi-switch fabric through the headline fault
# schedule (1% loss, a forced mid-frame cut, a partition every third
# update) under both placement modes and fails unless the convergence
# checker proves full convergence: identical normal forms on every
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
check: lint build test race fuzz-smoke fuzz-replay confluence-smoke incremental-smoke fabric-smoke soak-smoke bench-smoke leftovers

bench:
	$(GO) test -p 1 -bench=. -benchmem ./...

# profile captures a CPU profile of a short Table 1 run.
# Inspect it with `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/mabench -experiment static -quick -cpuprofile cpu.prof
	@echo "wrote cpu.prof (go tool pprof cpu.prof)"

quickstart:
	$(GO) run ./examples/quickstart
