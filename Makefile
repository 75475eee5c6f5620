GO ?= go
BIN := bin

.PHONY: check vet lint build race bench bench-pairs fuzz-smoke loc trace-smoke cluster-smoke fleet-trace-smoke run-ddpmd clean

## check: lint, build, test, fuzz-smoke and trace-smoke everything (the
## tier-1 gate), plus one pass of every Go benchmark in the tree at one
## iteration each (so a benchmark cited as evidence cannot rot unrun;
## timings from it mean nothing) and one race-detector pass over the
## packages whose tests exercise concurrency — the pipeline's shards and
## admin reads, the wire sessions, the fault-injecting network, the
## cluster's forward hop, gossip and chaos e2es, the blocklist's
## lock-free read index, and loadgen's delivery to live daemons. Whole packages, not an allowlist, so a new
## benchmark or concurrent test is covered without being named here.
check: lint
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -race -count=1 ./internal/pipeline/ ./internal/wire/ ./internal/faultnet/ ./internal/cluster/ ./internal/filter/ ./cmd/ddpmd/
	$(MAKE) fuzz-smoke
	$(MAKE) trace-smoke

## vet: static analysis only
vet:
	$(GO) vet ./...

## lint: vet + gofmt drift + staticcheck when it's on PATH (CI installs
## it; offline dev machines degrade to vet/gofmt with a note)
lint: vet
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

## build: compile the command binaries into bin/ (never the repo root)
build:
	$(GO) build -o $(BIN)/ ./cmd/...

## race: run the internal packages under the race detector
race:
	$(GO) test -race ./internal/...

## cluster-smoke: boot a three-instance fleet wired as one cluster,
## spray a seeded flood across all of them with loadgen -targets (its
## exit code asserts zero loss), and require every instance to report
## the full fleet alive with records forwarded between owners. A fourth
## instance then joins the running fleet with -join — knowing only one
## member — and every instance must converge on 4/4 alive. The join's
## rebalance must then move the flooded victim's state between the real
## processes: within 5 s exactly one instance, the joiner, holds it. The
## ring is a pure function of the fixed addresses, so the victim is
## picked once: node 63 is owned by :27430 on the three-member ring and
## by :27450 once it joins. `fleet status` must then list the 4 members
## alive, and `fleet victims` must name the joiner as victim 63's only
## reporter. Last, an operator block POSTed to the first
## instance must survive the second's restart: killed and started again
## under the same address (a new incarnation with an empty blocklist),
## within 5 s it must list the blocked node and agree with the first
## instance on every blocked node.
cluster-smoke: build
	@set -e; \
	$(BIN)/ddpmd serve -topo torus -dims 8x8 -tcp 127.0.0.1:27420 -http 127.0.0.1:27421 \
		-cluster 127.0.0.1:27420 -peers 127.0.0.1:27430,127.0.0.1:27440 >/dev/null & \
	p1=$$!; \
	$(BIN)/ddpmd serve -topo torus -dims 8x8 -tcp 127.0.0.1:27430 -http 127.0.0.1:27431 \
		-cluster 127.0.0.1:27430 -peers 127.0.0.1:27420,127.0.0.1:27440 >/dev/null & \
	p2=$$!; \
	$(BIN)/ddpmd serve -topo torus -dims 8x8 -tcp 127.0.0.1:27440 -http 127.0.0.1:27441 \
		-cluster 127.0.0.1:27440 -peers 127.0.0.1:27420,127.0.0.1:27430 >/dev/null & \
	p3=$$!; \
	trap 'kill $$p1 $$p2 $$p3 2>/dev/null || true' EXIT INT TERM; \
	for port in 27421 27431 27441; do \
		ok=0; for i in $$(seq 1 50); do \
			if $(BIN)/ddpmd status -http 127.0.0.1:$$port >/dev/null 2>&1; then ok=1; break; fi; \
			sleep 0.1; \
		done; \
		[ $$ok -eq 1 ] || { echo "cluster-smoke: instance on $$port never became ready"; exit 1; }; \
	done; \
	$(BIN)/ddpmd loadgen -topo torus -dims 8x8 -zombies 3 -victim 63 \
		-targets 127.0.0.1:27420,127.0.0.1:27430,127.0.0.1:27440; \
	fwd=0; \
	for port in 27421 27431 27441; do \
		out="$$($(BIN)/ddpmd cluster status -http 127.0.0.1:$$port)"; \
		echo "$$out" | grep -q '3/3 alive' || { \
			echo "cluster-smoke: instance on $$port does not see the full fleet:"; \
			echo "$$out"; exit 1; }; \
		n=$$(echo "$$out" | awk '/forwarded out/{print $$3}'); \
		fwd=$$((fwd + n)); \
	done; \
	[ $$fwd -gt 0 ] || { echo "cluster-smoke: no records were forwarded between owners"; exit 1; }; \
	echo "cluster-smoke: fleet healthy, $$fwd records forwarded to their owners"; \
	$(BIN)/ddpmd serve -topo torus -dims 8x8 -tcp 127.0.0.1:27450 -http 127.0.0.1:27451 \
		-cluster 127.0.0.1:27450 -join 127.0.0.1:27420 >/dev/null & \
	p4=$$!; \
	trap 'kill $$p1 $$p2 $$p3 $$p4 2>/dev/null || true' EXIT INT TERM; \
	ok=0; for i in $$(seq 1 50); do \
		if $(BIN)/ddpmd status -http 127.0.0.1:27451 >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ $$ok -eq 1 ] || { echo "cluster-smoke: joining instance never became ready"; exit 1; }; \
	for port in 27421 27431 27441 27451; do \
		ok=0; for i in $$(seq 1 50); do \
			if $(BIN)/ddpmd cluster status -http 127.0.0.1:$$port | grep -q '4/4 alive'; then ok=1; break; fi; \
			sleep 0.1; \
		done; \
		[ $$ok -eq 1 ] || { \
			echo "cluster-smoke: instance on $$port never converged on the joined fleet:"; \
			$(BIN)/ddpmd cluster status -http 127.0.0.1:$$port; exit 1; }; \
	done; \
	echo "cluster-smoke: runtime join converged, 4/4 alive on every instance"; \
	for i in $$(seq 1 50); do \
		held=""; \
		for port in 27421 27431 27441 27451; do \
			if $(BIN)/ddpmd status -http 127.0.0.1:$$port | awk '/^victims/ {v = 1; next} v && $$1 == 63 {f = 1} END {exit !f}'; then \
				held="$$held $$port"; fi; \
		done; \
		[ "$$held" = " 27451" ] && break; \
		sleep 0.1; \
	done; \
	[ "$$held" = " 27451" ] || { echo "cluster-smoke: victim 63 held by [$$held ], want the joiner (27451) alone"; exit 1; }; \
	echo "cluster-smoke: the join handed victim 63's state to the joiner"; \
	joiner=$$($(BIN)/ddpmd cluster status -http 127.0.0.1:27451 | sed -n 's/.*(member \([0-9a-f]*\)).*/\1/p'); \
	for i in $$(seq 1 50); do \
		fs="$$($(BIN)/ddpmd fleet status -http 127.0.0.1:27421)"; \
		echo "$$fs" | awk 'NR > 2 && $$4 == "true" && $$5 ~ /^v/ {n++} END {exit n != 4}' && break; \
		sleep 0.1; \
	done; \
	echo "$$fs" | awk 'NR > 2 && $$4 == "true" && $$5 ~ /^v/ {n++} END {exit n != 4}' || { \
		echo "cluster-smoke: fleet status does not list 4 alive members:"; echo "$$fs"; exit 1; }; \
	fv="$$($(BIN)/ddpmd fleet victims -http 127.0.0.1:27421)"; \
	echo "$$fv" | awk -v j="$$joiner" '$$1 == 63 && $$NF == j && ($$(NF-1) ~ /\)$$/ || $$(NF-1) == "-") {f = 1} END {exit !f}' || { \
		echo "cluster-smoke: fleet victims does not list victim 63 as reported by the joiner ($$joiner) alone:"; echo "$$fv"; exit 1; }; \
	echo "cluster-smoke: fleet status lists 4 alive members, fleet victims has victim 63 on the joiner alone"; \
	curl -sf -X POST -d '{"node":17}' http://127.0.0.1:27421/blocklist || { echo "cluster-smoke: operator block POST failed"; exit 1; }; \
	kill $$p2; wait $$p2 || true; \
	$(BIN)/ddpmd serve -topo torus -dims 8x8 -tcp 127.0.0.1:27430 -http 127.0.0.1:27431 \
		-cluster 127.0.0.1:27430 -peers 127.0.0.1:27420,127.0.0.1:27440 >/dev/null & \
	p2=$$!; \
	trap 'kill $$p1 $$p2 $$p3 $$p4 2>/dev/null || true' EXIT INT TERM; \
	nodes() { curl -sf http://127.0.0.1:$$1/blocklist | grep -o '"node":[0-9]*' | sort; }; \
	for i in $$(seq 1 50); do \
		b1="$$(nodes 27421)"; b2="$$(nodes 27431 || true)"; \
		echo "$$b2" | grep -qx '"node":17' && [ "$$b1" = "$$b2" ] && break; \
		sleep 0.1; \
	done; \
	echo "$$b2" | grep -qx '"node":17' && [ "$$b1" = "$$b2" ] || { \
		echo "cluster-smoke: restarted instance lists [$$b2], want instance 1's [$$b1] with node 17"; exit 1; }; \
	echo "cluster-smoke: the restarted instance re-converged on the operator block"

## bench: run the simulator benchmarks (events/sec, per-hop allocs,
## fabric throughput) and save their output to BENCH_netsim.txt. The
## daemon's numbers come from bench/ through bench-pairs.
bench:
	$(GO) test ./internal/netsim/ -run '^$$' -bench . -benchmem | tee BENCH_netsim.txt

## fuzz-smoke: a 5 s fuzzing pass over every Fuzz* target in the tree.
## Targets are discovered, not listed, so a new one cannot be forgotten
## (go test allows one -fuzz target per invocation, hence the loop).
fuzz-smoke:
	@set -e; \
	list="$$($(GO) test -list '^Fuzz' ./...)"; \
	echo "$$list" \
		| awk '/^Fuzz/ { t[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 }' \
		| while read -r pkg target; do \
			echo "fuzz-smoke: $$pkg $$target"; \
			$(GO) test "$$pkg" -run xxx -fuzz "^$$target\$$" -fuzztime 5s; \
		done

## loc: non-test line counts of the three daemon packages and their sum
## — the figure ROADMAP and CHANGES quote at each re-anchor — then the
## three packages the daemon's per-victim machinery lives in and the
## six-package total, then the two the victim-side decode and the
## scheme-backed blocklist live in and the eight-package total, so code
## moving between the groups shows up as a move, not a deletion; last,
## apart from those totals, every package under internal/ (the simulator
## packages included), the daemon's command (cmd/ddpmd) and every
## command under cmd/, whose deletions the package totals do not see
loc:
	@total=0; for p in pipeline wire cluster =total sketch traceback detect '=total (six)' marking filter '=total (eight)'; do \
		case "$$p" in =*) printf '%-18s %6d\n' "$${p#=}" $$total; continue;; esac; \
		n=$$(ls internal/$$p/*.go | grep -v _test.go | xargs cat | wc -l); \
		printf '%-18s %6d\n' internal/$$p $$n; total=$$((total + n)); \
	done; \
	printf '%-18s %6d\n' 'internal (all)' $$(find internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	printf '%-18s %6d\n' cmd/ddpmd $$(ls cmd/ddpmd/*.go | grep -v _test.go | xargs cat | wc -l); \
	printf '%-18s %6d\n' 'cmd (all)' $$(find cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)

## bench-pairs: the paired parent/change protocol for bench/ — N
## alternating runs of one workload on BASE and on the working tree,
## every run printed, then win count, medians and the base's
## interquartile distance per end-to-end metric (cmd/benchpairs).
## WORKLOAD takes one name, a comma-separated list or `all`; workloads
## run one after the other, and the report ends with every (workload,
## metric) whose median moved the wrong way past its BENCHMARK.json
## bound, and every workload whose tree failed the correctness gate or
## a larger share of operations; any such line exits 1, which is how CI
## gates a pull request on it. Needs git history and ~5 min per workload at
## N=10, so it is not part of check.
##   make bench-pairs BASE=HEAD~1 WORKLOAD=scan_carpet [N=10] [SEED=1]
##   make bench-pairs BASE=HEAD~1 WORKLOAD=all N=3
N ?= 10
SEED ?= 1
bench-pairs:
	@[ -n "$(BASE)" ] && [ -n "$(WORKLOAD)" ] || { echo "usage: make bench-pairs BASE=<git ref> WORKLOAD=<name[,name...]|all> [N=10] [SEED=1]"; exit 2; }
	$(GO) run ./cmd/benchpairs -base $(BASE) -workload $(WORKLOAD) -n $(N) -seed $(SEED)

## trace-smoke: end-to-end tracing proof on a live daemon — a traced
## loadgen flood must leave at least one tail-sampled block-outcome
## trace retrievable through /debug/traces, saved to trace-dump.json
## for the CI artifact. Boring-trace sampling is cranked to 1-in-2^20
## so whatever the assertion finds got there by tail sampling alone.
trace-smoke: build
	@set -e; \
	$(BIN)/ddpmd serve -topo torus -dims 8x8 -tcp 127.0.0.1:17420 \
		-http 127.0.0.1:17421 -trace-sample 1048576 -trace-buffer 16384 >/dev/null & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT INT TERM; \
	ok=0; for i in $$(seq 1 50); do \
		if $(BIN)/ddpmd status -http 127.0.0.1:17421 >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ $$ok -eq 1 ] || { echo "trace-smoke: daemon never became ready"; exit 1; }; \
	$(BIN)/ddpmd loadgen -topo torus -dims 8x8 -zombies 3 -addr 127.0.0.1:17420 -trace; \
	$(BIN)/ddpmd trace -http 127.0.0.1:17421 -outcome block -min 1; \
	$(BIN)/ddpmd trace -http 127.0.0.1:17421 -limit 0 -json -min 1 > trace-dump.json; \
	echo "trace-smoke: saved /debug/traces dump to trace-dump.json"

## fleet-trace-smoke: cross-node tracing proof on a live three-instance
## fleet (DESIGN.md §14) — a traced flood sprayed across the two
## ingresses that do not own the victim must yield at least one blocking
## record whose stitched timeline (the ingress's forwarded span + the
## owner's block span under one id) is retrievable from a member via
## `ddpmd fleet trace`; the stitched document lands in
## fleet-trace-dump.json for the CI artifact. The ring is a pure
## function of the member addresses, so node 63's owner is always
## :37440 here. Spraying past the owner matters: blocks
## land at victim-group granularity (DESIGN.md §11.3), so the zombies
## are all blocked by the one frame that raises the alarm, and that
## frame must have crossed a forward hop for there to be two spans.
## Boring traces are sampled out as in trace-smoke, so both halves of
## the timeline got there by tail sampling alone.
fleet-trace-smoke: build
	@set -e; \
	$(BIN)/ddpmd serve -topo torus -dims 8x8 -tcp 127.0.0.1:37420 -http 127.0.0.1:37421 \
		-cluster 127.0.0.1:37420 -peers 127.0.0.1:37430,127.0.0.1:37440 \
		-trace-sample 1048576 -trace-buffer 65536 >/dev/null & \
	p1=$$!; \
	$(BIN)/ddpmd serve -topo torus -dims 8x8 -tcp 127.0.0.1:37430 -http 127.0.0.1:37431 \
		-cluster 127.0.0.1:37430 -peers 127.0.0.1:37420,127.0.0.1:37440 \
		-trace-sample 1048576 -trace-buffer 65536 >/dev/null & \
	p2=$$!; \
	$(BIN)/ddpmd serve -topo torus -dims 8x8 -tcp 127.0.0.1:37440 -http 127.0.0.1:37441 \
		-cluster 127.0.0.1:37440 -peers 127.0.0.1:37420,127.0.0.1:37430 \
		-trace-sample 1048576 -trace-buffer 65536 >/dev/null & \
	p3=$$!; \
	trap 'kill $$p1 $$p2 $$p3 2>/dev/null || true' EXIT INT TERM; \
	for port in 37421 37431 37441; do \
		ok=0; for i in $$(seq 1 50); do \
			if $(BIN)/ddpmd status -http 127.0.0.1:$$port >/dev/null 2>&1; then ok=1; break; fi; \
			sleep 0.1; \
		done; \
		[ $$ok -eq 1 ] || { echo "fleet-trace-smoke: instance on $$port never became ready"; exit 1; }; \
	done; \
	$(BIN)/ddpmd loadgen -topo torus -dims 8x8 -zombies 8 -trace \
		-targets 127.0.0.1:37420,127.0.0.1:37430; \
	stitched=""; \
	for i in $$(seq 1 30); do \
		for port in 37421 37431 37441; do \
			for id in $$($(BIN)/ddpmd trace -http 127.0.0.1:$$port -outcome block 2>/dev/null | awk 'NR>2{print $$1}'); do \
				if $(BIN)/ddpmd fleet trace $$id -http 127.0.0.1:37441 -min 2 >/dev/null 2>&1; then \
					stitched=$$id; break 3; \
				fi; \
			done; \
		done; \
		sleep 0.5; \
	done; \
	[ -n "$$stitched" ] || { echo "fleet-trace-smoke: no blocking record produced a stitched cross-node timeline (does :37440 still own node 63?)"; exit 1; }; \
	$(BIN)/ddpmd fleet trace $$stitched -http 127.0.0.1:37421 -min 2; \
	$(BIN)/ddpmd fleet trace $$stitched -http 127.0.0.1:37421 -min 2 -json > fleet-trace-dump.json; \
	echo "fleet-trace-smoke: stitched timeline for $$stitched saved to fleet-trace-dump.json"

## run-ddpmd: start the daemon on an 8x8 torus with the default ports
run-ddpmd:
	$(GO) run ./cmd/ddpmd serve -topo torus -dims 8x8 -tcp :7420 -http :7421

## clean: remove built binaries and local bench/trace artifacts (all
## gitignored; CI uploads them before they would be cleaned)
clean:
	rm -rf $(BIN)
	rm -f BENCH_netsim.txt bench-pairs.txt trace-dump.json fleet-trace-dump.json
