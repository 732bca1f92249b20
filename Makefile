# plugvolt build / verification entry points.
#
# `make test-race` is the CI gate for the sharded characterization engine:
# the parallel sweep must stay data-race free (worker platforms are private;
# progress callbacks are serialized through the merge loop).

GO ?= go

.PHONY: build test test-race fuzz bench bench-json golden golden-update artifacts metrics-demo trace-demo fleet-demo fleet-stream-demo energy-demo

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Race hygiene: vet plus the full suite under the race detector.
test-race:
	$(GO) vet ./...
	$(GO) test -race ./...

# Short fuzz pass over the grid codec, the shard merge ordering, and the
# compiled guard LUT's equivalence with the map-backed membership test.
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzGridJSONRoundTrip -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzRowMergeOrdering -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzGridFromJSON -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzLUTContainsEquivalence -fuzztime 10s
	$(GO) test ./internal/flight -run '^$$' -fuzz FuzzIncidentBundleDecode -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzRowMonotonicity -fuzztime 10s

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Benchmark regression artifact: run the figure-level and hot-path
# benchmarks with enough repetition for benchstat, convert the output to
# JSON (raw text preserved in the "raw" field), and write the next numbered
# BENCH_<n>.json. The experiment-campaign benchmarks (E1-E3, ablations) are
# excluded: at -count 5 they run for tens of minutes without adding signal
# about the engine hot paths the artifact tracks. Compare artifacts with
#   go run ./cmd/plugvolt-bench -compare BENCH_0.json BENCH_1.json
# or feed the raw fields to benchstat (see EXPERIMENTS.md).
bench-json:
	@n=0; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; \
	{ $(GO) test -bench 'Fig|Table1MailboxCodec|CharacterizeWorkers|GuardPollSteadyState|FleetThroughput|FleetStreaming|EnergyAccounting|FlightRecorder|BisectVsSweep|AnnealTimeToFault' \
		-benchtime 300x -count 5 -run '^$$' -timeout 30m . ./internal/core ; \
	  $(GO) test -bench . -benchtime 300x -count 5 -run '^$$' \
		./internal/sim ./internal/timing ; } \
		| $(GO) run ./cmd/plugvolt-bench -o BENCH_$$n.json

# Golden-artifact conformance: re-derive figs 2-4 at 1/2/8 workers and diff
# bit-for-bit against artifacts/. golden-update rewrites the goldens after
# an intentional engine change.
golden:
	$(GO) test ./internal/golden -run Golden -v

golden-update:
	$(GO) test ./internal/golden -run Golden -update

# Regenerate the full experiment bundle (identical bytes for any -workers).
artifacts:
	$(GO) run ./cmd/plugvolt-report -out artifacts

# Observability demo: an attack-vs-guard run that dumps the Prometheus
# metric exposition, the structured event journal, and the victim core's
# operating-point trace, then shows the guard/attack highlights.
metrics-demo:
	$(GO) run ./cmd/plugvolt-guard -window 10ms \
		-metrics-out metrics.prom -events-out events.jsonl -trace trace.csv
	@echo
	@echo "== metrics.prom highlights"
	@grep -E '^(guard_|kernel_stolen|attack_)' metrics.prom | head -20
	@echo
	@echo "== first events"
	@head -5 events.jsonl

# Causal-trace demo: the same attack-vs-guard run with the SLO watchdog
# enabled, exporting the span trace as Chrome trace JSON (open trace.json
# at https://ui.perfetto.dev) and as a folded flamegraph (feed
# trace.folded to flamegraph.pl or speedscope). Exits non-zero if the
# guard misses an SLO.
trace-demo:
	$(GO) run ./cmd/plugvolt-guard -window 10ms -slo \
		-trace-out trace.json -folded-out trace.folded
	@echo
	@echo "== top folded stacks by self time"
	@sort -t' ' -k2 -rn trace.folded | head -8

# Energy demo: the guard's joule bill measured three ways — energy overhead
# of deploying the guard (printed next to the paper's 0.28% runtime
# overhead), the measured-vs-closed-form savings of the characterized safe
# undervolt versus a full clamp, and the per-governor energy curve.
energy-demo:
	$(GO) run ./cmd/plugvolt-overhead -energy

# Fleet demo: a 24-machine mixed fleet under a VoltJockey campaign, report
# and merged metric exposition written out. Rerun with any -workers value:
# fleet.json and fleet.prom are byte-identical (the PR 1 sharding invariant
# at fleet scale).
fleet-demo:
	$(GO) run ./cmd/plugvolt-fleet -machines 24 -attack voltjockey \
		-out fleet.json -metrics-out fleet.prom
	@echo
	@echo "== merged exposition highlights"
	@grep -E '^(guard_|attack_)' fleet.prom | head -12

# Streaming-engine demo: a checkpointed idle-guard fleet with the window
# sliced into epochs, O(batch) resident memory, and per-model rollups.
# Interrupt with ^C and rerun with -resume fleet.ckpt to continue; the
# final report is byte-identical to an uninterrupted run (EXPERIMENTS.md
# has the million-machine-window recipe).
fleet-stream-demo:
	$(GO) run ./cmd/plugvolt-fleet -machines 1000 -epochs 4 \
		-attack none -window 2ms -batch 128 -progress \
		-checkpoint fleet.ckpt -out fleet.json -metrics-out fleet.prom
	@echo
	@echo "== merged exposition highlights"
	@grep -E '^guard_' fleet.prom | head -8
