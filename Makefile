# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build fmtcheck test race benchsmoke sweepsmoke resynsmoke storesmoke clustersmoke apismoke netsmoke paperfigs perfsmoke cover bench fuzz experiments examples serve ci clean

all: build test

# build also vets the perfbench module (its own go.mod), which compiles
# against the library's exported entry points.
build:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

# fmtcheck fails if any Go source is not gofmt-clean. It names the source
# directories rather than "." so the module cache under .bench_build/ is
# not scanned.
fmtcheck:
	test -z "$$(gofmt -l cmd internal examples perfbench *.go)"

test:
	$(GO) test ./...
	$(GO) -C perfbench test ./...

race:
	$(GO) test -race ./internal/truth/ ./internal/core/ ./internal/sim/ ./internal/opt/ ./internal/expt/ ./internal/service/ ./internal/fsim/ ./internal/resyn/ ./internal/store/ ./internal/cluster/
	$(GO) test -race -run 'Sweep|Session|V1|Resyn|Run|Cluster|Compute|Coalesce' -count=2 ./internal/service/ ./internal/fsim/ ./internal/resyn/

# benchsmoke compiles and runs the packed Fig. 11 inner-loop benchmark,
# the cold and warm threshold-check benchmarks, kernel enumeration, the
# algebraic and boolean scripts, the widest-node simplification, the
# i10 BDD proof and cordic's wide-fanin synthesis once (correctness smoke,
# not a measurement: a check benchmark fails on a wrong verdict, the
# kernel benchmark on a wrong kernel count, the boolean script and
# simplification benchmarks on a changed function, the proof and
# wide-synthesis benchmarks unless the result proves).
benchsmoke:
	$(GO) test -run=NONE -bench='Fig11Inner|ThresholdCheck|Kernels|AlgebraicScript|BooleanScript|SimplifyWideNode|Prove$$|SynthesizeWide' -benchtime=1x .

# sweepsmoke fans a tiny 3-point grid through an in-process sweep job
# (quick Fig. 11 path through the service, correctness smoke).
sweepsmoke:
	$(GO) run ./cmd/telsbench -quick sweep

# resynsmoke drives two selective re-synthesis iterations on a tiny MCNC
# benchmark through the resyn job kind (correctness smoke).
resynsmoke:
	@f=$$(mktemp); $(GO) run ./cmd/benchgen -q mux4 > $$f \
		&& $(GO) run ./cmd/telsim -don 1 -v 1.2 -trials 300 -target 0.999 -maxiters 2 resyn $$f; \
		s=$$?; rm -f $$f; exit $$s

# storesmoke proves the durability layer end to end: WAL unit tests
# (torn-tail truncation, rotation, compaction), the service-level
# restart/drain recovery tests, and the kill-a-real-daemon-mid-sweep
# integration test, then one quick append/recovery microbench.
storesmoke:
	$(GO) test -count=1 ./internal/store/
	$(GO) test -count=1 -run 'TestRestart|TestDrain|TestCrash' ./internal/service/
	$(GO) test -count=1 -run 'TestKillMidSweepRecovers|TestSigtermDrainRequeues' ./cmd/telsd/
	$(GO) run ./cmd/telsbench -quick store

# clustersmoke proves the cluster dispatch end to end: the ring,
# breaker, and policy unit tests, the service-level fan-out / steal /
# hedge / readiness tests, the SIGKILL-a-real-peer-mid-sweep integration
# test (three telsd processes on loopback, curve must stay bit-identical
# to single node), then one quick 1/2/4-peer scaling run.
clustersmoke:
	$(GO) test -count=1 ./internal/cluster/
	$(GO) test -count=1 -run 'TestCluster|TestCompute|TestReadyz|TestClientWait|TestListRejects' ./internal/service/
	$(GO) test -count=1 -run 'TestClusterKillPeerMidSweep' ./cmd/telsd/
	$(GO) run ./cmd/telsbench -quick cluster

# apismoke proves the multi-tenant v1 surface end to end: the envelope
# conformance sweep, tenant scoping with the ?tenant= filter, priority
# and quota enforcement (429 + Retry-After while other tenants flow),
# the weighted-fair starvation scenario against a solo baseline, SSE
# exactly-once streaming, tenant-preserving restart recovery, tenant
# propagation across a 3-peer ring, a booted two-tenant telsd walked
# over real HTTP, then one quick solo-vs-fair admission benchmark.
apismoke:
	$(GO) test -count=1 -run 'TestV1|TestTenant|TestPriority|TestQuota|TestWeightedFair|TestRestartPreservesTenant|TestPreTenantJournal|TestSSE|TestSubscribe|TestCluster.*Tenant|TestOverloaded|TestMetricsExpose' ./internal/service/
	$(GO) test -count=1 -run 'TestAPISmokeMultiTenant' ./cmd/telsd/
	$(GO) run ./cmd/telsbench -quick tenants

# netsmoke proves the netcore network store: its unit tests and the
# FuzzNetOps seeds (netcore against internal/network after every edit)
# under -race, then the whole-corpus golden identity gate (every MCNC
# benchmark byte-identical through the netcore-backed passes).
netsmoke:
	$(GO) test -race -count=1 ./internal/netcore/
	$(GO) test -race -count=1 -short -run 'TestCorpusGolden' ./internal/expt/

# paperfigs regenerates the paper's reproduced results (Table I and
# Figs. 10-12) into a temp dir and fails unless every CSV matches its
# committed copy under results_csv/ byte for byte.
paperfigs:
	@d=$$(mktemp -d); s=0; \
	$(GO) build -o $$d/telsbench ./cmd/telsbench || s=1; \
	for f in table1 fig10 fig11 fig12; do \
		[ $$s = 0 ] || break; \
		$$d/telsbench -q -csv $$d $$f > /dev/null && cmp $$d/$$f.csv results_csv/$$f.csv || s=1; \
	done; \
	rm -rf $$d; exit $$s

# perfsmoke runs the corpus benchmark workload once, traced, and fails
# unless every job was proved correct, none failed, the per-pass replay
# matched the scripts (a divergence silently drops the per-layer
# figures), and every benchmark synthesized the same from BLIF text as
# from memory (a parser or writer that reorders nets drifts).
perfsmoke:
	@mkdir -p .bench_build
	bash perfbench/run.sh --workload corpus --seed 1 --seconds 1 --trace 1 > .bench_build/perfsmoke.json
	@for want in '"correct":true' '"failed":0,' '"opt.replay_diverged":{"value":0,' '"blif.golden_drift":{"value":0,'; do \
		grep -qF "$$want" .bench_build/perfsmoke.json || { echo "perfsmoke: $$want not in .bench_build/perfsmoke.json"; exit 1; }; \
	done

# serve runs the synthesis daemon on :8455 (override with ADDR=...).
ADDR ?= :8455
serve:
	$(GO) run ./cmd/telsd -addr $(ADDR)

# ci is the exact gate GitHub Actions runs.
ci: build fmtcheck test race benchsmoke sweepsmoke resynsmoke storesmoke clustersmoke apismoke netsmoke paperfigs examples perfsmoke

cover:
	$(GO) test -cover ./internal/... ./cmd/...

bench:
	$(GO) test -bench=. -benchmem ./...

fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s -fuzzminimizetime 100x ./internal/blif/
	$(GO) test -fuzz FuzzNetOps -fuzztime 30s -fuzzminimizetime 100x ./internal/netcore/
	$(GO) test -fuzz FuzzParseTLN -fuzztime 30s -fuzzminimizetime 100x ./internal/core/
	$(GO) test -fuzz FuzzCheck -fuzztime 30s -fuzzminimizetime 100x ./internal/core/
	$(GO) test -fuzz FuzzPrimes -fuzztime 30s -fuzzminimizetime 100x ./internal/truth/
	$(GO) test -fuzz FuzzTable -fuzztime 30s -fuzzminimizetime 100x ./internal/truth/
	$(GO) test -fuzz FuzzCover -fuzztime 30s -fuzzminimizetime 100x ./internal/logic/
	$(GO) test -fuzz FuzzWeakDiv -fuzztime 30s -fuzzminimizetime 100x ./internal/algebra/
	$(GO) test -fuzz FuzzThreshSim -fuzztime 30s -fuzzminimizetime 100x ./internal/fsim/
	$(GO) test -fuzz FuzzTechDecomp -fuzztime 30s -fuzzminimizetime 100x ./internal/opt/
	$(GO) test -fuzz FuzzFlow -fuzztime 30s -fuzzminimizetime 100x ./internal/expt/

experiments:
	$(GO) run ./cmd/telsbench all

# examples runs the five example programs; each verifies its own results
# and exits non-zero on a failure.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/comparator
	$(GO) run ./examples/defects
	$(GO) run ./examples/mapping
	$(GO) run ./examples/nanotech

clean:
	$(GO) clean ./...
