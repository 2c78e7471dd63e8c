GO ?= go

.PHONY: check fmt vet build test lines lines-delta race race-spmd race-irregular race-tcp race-shm race-recovery node-smoke node-smoke-shm node-recovery node-recovery-shm run-smoke run-smoke-shm obs-smoke obs-recovery-trace trace-analyze-smoke bench bench-smoke speedup amortization overhead corpus fuzz fuzz-engine fuzz-irregular fuzz-interp fuzz-wire docs

check: fmt vet build test docs bench-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The E1–E13 experiments plus the facade and workload suites on the
# parallel spmd engine, under the race detector.
race-spmd:
	HPFNT_ENGINE=spmd $(GO) test -race -count=1 ./internal/exper ./hpf ./internal/workload

# The irregular (inspector–executor) workloads and equivalence tests
# on the spmd engine, under the race detector.
race-irregular:
	HPFNT_ENGINE=spmd $(GO) test -race -count=1 -run 'Irregular|Gather|Scatter' ./internal/workload ./internal/engine ./hpf

# The E1–E13 experiments and the workload/equivalence suites on the
# spmd engine with every message over the tcp transport's loopback
# sockets, under the race detector.
race-tcp:
	HPFNT_ENGINE=spmd HPFNT_TRANSPORT=tcp $(GO) test -race -count=1 ./internal/exper ./hpf ./internal/workload

# The same suites with every spmd message over the shm transport's
# lock-free shared-memory rings, plus the transport package's own
# suite (multi-process mesh, flood, failure paths), under the race
# detector.
race-shm:
	HPFNT_ENGINE=spmd HPFNT_TRANSPORT=shm $(GO) test -race -count=1 ./internal/exper ./hpf ./internal/workload ./internal/transport

# The corpus programs the multi-process smokes run.
CORPUS = internal/interp/testdata/programs

# Real 4-process localhost hpfrun jobs over the tcp transport, one job
# (and one job name) per corpus program: the dense Jacobi, the in-place
# heat2d and the INDIRECT gather/scatter. The leader verifies that each
# printed the output and computed the values and machine.Report of the
# in-process engine.
node-smoke:
	$(GO) run ./cmd/hpfrun -spawn -procs 4 -transport tcp -job smoke-jacobi $(CORPUS)/jacobi.hpf
	$(GO) run ./cmd/hpfrun -spawn -procs 4 -transport tcp -job smoke-heat2d $(CORPUS)/heat2d.hpf
	$(GO) run ./cmd/hpfrun -spawn -procs 4 -transport tcp -job smoke-gather $(CORPUS)/gather.hpf

# The same three jobs over the shm wire (one mmap'd file of
# shared-memory rings per job instead of sockets).
node-smoke-shm:
	$(GO) run ./cmd/hpfrun -spawn -procs 4 -transport shm -job smoke-shm-jacobi $(CORPUS)/jacobi.hpf
	$(GO) run ./cmd/hpfrun -spawn -procs 4 -transport shm -job smoke-shm-heat2d $(CORPUS)/heat2d.hpf
	$(GO) run ./cmd/hpfrun -spawn -procs 4 -transport shm -job smoke-shm-gather $(CORPUS)/gather.hpf

# The fault-tolerance suites — chaos wire, checkpoint store, elastic
# driver (single-process and in-binary multi-member recovery), the
# transport failure paths and the job supervisor (spawn, kill, respawn,
# bounded reap of real child processes) — under the race detector.
race-recovery:
	$(GO) test -race -count=1 ./internal/transport ./internal/job ./internal/ckpt ./internal/elastic

# Node-recovery smoke: heat2d as a real 4-process job in which the
# supervisor SIGKILLs process 2 right after the first checkpoint
# publishes; the survivors detect the loss, everyone rejoins at a
# bumped generation, restores the checkpoint and replays, and the
# leader verifies output, values and machine.Report identical to the
# in-process engine.
node-recovery:
	$(GO) run ./cmd/hpfrun -spawn -procs 4 -transport tcp -job recovery-tcp -param N=48,ITERS=12 \
		-checkpoint-every 3 -retries 4 -heartbeat 25ms -kill-proc 2 $(CORPUS)/heat2d.hpf

# The same SIGKILL-mid-job recovery over the shm wire (loss detected
# via frozen liveness stamps instead of dead sockets).
node-recovery-shm:
	$(GO) run ./cmd/hpfrun -spawn -procs 4 -transport shm -job recovery-shm -param N=48,ITERS=12 \
		-checkpoint-every 3 -retries 4 -heartbeat 25ms -kill-proc 2 $(CORPUS)/heat2d.hpf

# hpfrun multi-process smoke: the interpreted quickstart program as a
# real 3-process tcp job; the leader re-runs the program on the
# in-process engine and verifies output, values and machine.Report.
run-smoke:
	$(GO) run ./cmd/hpfrun -spawn -procs 3 -transport tcp examples/quickstart.hpf

# The same interpreted job over the shm wire, on the corpus program
# that exercises the INDIRECT gather/scatter path.
run-smoke-shm:
	$(GO) run ./cmd/hpfrun -spawn -procs 2 -transport shm internal/interp/testdata/programs/gather.hpf

# Observability smoke: a 2-process job with the full stack live —
# phase timers, per-process /metrics endpoints (each process
# self-scrapes and validates its own exposition text at exit), the
# per-worker detail table, and a merged Chrome trace.
obs-smoke:
	$(GO) run ./cmd/hpfrun -spawn -procs 2 -transport tcp -job obs-tcp \
		-http 127.0.0.1:0 -trace /tmp/hpfnt-obs-smoke.json -verbose $(CORPUS)/jacobi.hpf
	$(GO) run ./cmd/hpfrun -spawn -procs 2 -transport shm -job obs-shm \
		-http 127.0.0.1:0 $(CORPUS)/heat2d.hpf

# Recovery with the trace recorder on: the merged trace must contain
# the member-lost, rollback and rejoin instants of the SIGKILL story.
obs-recovery-trace:
	$(GO) run ./cmd/hpfrun -spawn -procs 4 -transport tcp -job recovery-trace -param N=48,ITERS=6 \
		-checkpoint-every 2 -retries 4 -heartbeat 25ms -kill-proc 2 \
		-trace /tmp/hpfnt-recovery-trace.json -http 127.0.0.1:0 $(CORPUS)/heat2d.hpf
	@for kind in "member-lost" "rolled back to epoch" "rejoined at generation"; do \
		grep -q "$$kind" /tmp/hpfnt-recovery-trace.json || \
			{ echo "recovery trace is missing a \"$$kind\" event"; exit 1; }; \
	done; echo "recovery trace contains member-lost, rollback and rejoin events"

# Trace-analysis smoke: a 3-process shm job writes per-process trace
# parts with causal flow IDs, the leader merges them, and hpftrace
# must diagnose a nonzero epoch critical path and a nonzero skew
# ratio from the merged trace.
trace-analyze-smoke:
	$(GO) run ./cmd/hpfrun -spawn -procs 3 -transport shm -job analyze \
		-trace /tmp/hpfnt-analyze-trace.json -http 127.0.0.1:0 $(CORPUS)/heat2d.hpf
	$(GO) run ./cmd/hpftrace -json /tmp/hpfnt-analyze-trace.json > /tmp/hpfnt-analyze-report.json
	$(GO) run ./cmd/hpftrace -gate /tmp/hpfnt-analyze-trace.json > /dev/null
	@grep -q '"max_critical_path_ns"' /tmp/hpfnt-analyze-report.json && \
		grep -q '"max_skew_ratio"' /tmp/hpfnt-analyze-report.json || \
		{ echo "hpftrace report is missing analysis fields"; exit 1; }
	@echo "trace analysis found a critical path and a skew diagnosis"

# Every internal package must carry a package-level godoc comment
# (go doc prints "Package <name> ..." on its third line iff one
# exists).
docs:
	@fail=0; for d in ./internal/*/; do \
		if ! $(GO) doc $$d 2>/dev/null | sed -n 3p | grep -q '^Package '; then \
			echo "missing package comment: $$d"; fail=1; fi; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi; echo "all internal packages documented"

# Non-test Go lines per package under cmd/, internal/, hpf/ and
# examples/, then their total: the count ROADMAP's line budgets use.
lines:
	@find cmd internal hpf examples -name '*.go' ! -name '*_test.go' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# The change of those counts since BASE, per package and in total, from
# git diff --numstat (added minus deleted lines of tracked files, the
# working tree included). BASE defaults to the merge base with
# origin/main: make lines-delta BASE=HEAD~1 for the last commit.
BASE ?= $(shell git merge-base HEAD origin/main 2>/dev/null)
lines-delta:
	@test -n "$(BASE)" || { echo "lines-delta: set BASE (no merge base with origin/main)"; exit 1; }
	@git diff --numstat --no-renames $(BASE) -- cmd internal hpf examples | \
		awk '$$3 ~ /\.go$$/ && $$3 !~ /_test\.go$$/ { d = $$3; sub("/[^/]*$$", "", d); n[d] += $$1 - $$2; t += $$1 - $$2 } \
		END { for (d in n) printf "%+6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%+6d total\n", t }'

bench:
	$(GO) test -run xxx -bench . -benchmem .

# bench/ is a Go module of its own, so the root build and test never
# compile it: vet it and run its tests (every workload at smoke scale,
# a few seconds, verified against its Go kernel and the pinned
# Logical() counts) so an internal/ API change cannot silently break
# the benchmark. Part of `make check`.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test .

# The 512² Jacobi schedule-replay speedup gate: the parallel dispatch
# of the plan (spmd) >= 1.5x its sequential dispatch (sim).
speedup:
	HPFNT_SPEEDUP=1 $(GO) test -run TestSpmdSpeedupJacobi -count=1 -v ./internal/workload

# The irregular schedule-reuse gate (steady-state >= 5x the inspector
# iteration on the 64k-nonzero sparse CG gather).
amortization:
	HPFNT_SPEEDUP=1 $(GO) test -run TestIrregularAmortization -count=1 -v ./internal/workload

# The observability overhead gate (tracing + phase timers must stay
# within 5% of the uninstrumented 512² Jacobi replay wall).
overhead:
	HPFNT_SPEEDUP=1 $(GO) test -run TestObservabilityOverhead -count=1 -v ./internal/workload

fuzz:
	$(GO) test -run xxx -fuzz FuzzFormatRoundTrip -fuzztime 30s ./internal/dist

# Differential fuzz of sim and spmd against the element-wise oracle,
# then of the run kernel against an element loop, bit for bit, of the
# layout's tile index against the element-by-element fill, and of the
# index's cell walk against its owner and slot lookup.
fuzz-engine:
	$(GO) test -run xxx -fuzz FuzzEngineEquivalence -fuzztime 30s ./internal/engine
	$(GO) test -run xxx -fuzz FuzzRunKernel -fuzztime 30s ./internal/spmd
	$(GO) test -run xxx -fuzz FuzzLayoutIndex -fuzztime 30s ./internal/spmd
	$(GO) test -run xxx -fuzz FuzzCellWalk -fuzztime 30s ./internal/spmd

# Differential fuzz of the irregular (inspector–executor) path: sim
# and spmd against the element-wise oracle, then the two-pass
# inspector against the map-based one it replaced.
fuzz-irregular:
	$(GO) test -run xxx -fuzz FuzzIrregularEquivalence -fuzztime 30s ./internal/engine
	$(GO) test -run xxx -fuzz FuzzInspectorBuild -fuzztime 30s ./internal/inspector

# The golden corpus differential under the race detector: every
# program in internal/interp/testdata/programs must produce
# byte-identical output, values and logical report on the element-wise
# oracle and on {sim,spmd} x {inproc,shm,tcp}, plus the
# interp-vs-handwritten oracle test.
# Regenerate goldens with: go test ./internal/interp -run TestCorpusGolden -update
corpus:
	$(GO) test -race -count=1 -run 'TestCorpus|TestInterp|TestRedistribute' ./internal/interp

# Fuzz the program front end: arbitrary text must never panic or hang
# the interpreter, generated well-formed programs must be identical on
# sim, on spmd and on the element-wise oracle, and compiled integer
# expressions must agree with a Go evaluation of their tree.
fuzz-interp:
	$(GO) test -run xxx -fuzz FuzzDirectiveProgram -fuzztime 30s ./internal/interp
	$(GO) test -run xxx -fuzz FuzzInterpEquivalence -fuzztime 30s ./internal/interp
	$(GO) test -run xxx -fuzz FuzzIntExpr -fuzztime 30s ./internal/interp
	$(GO) test -run xxx -fuzz FuzzCompile -fuzztime 30s ./internal/expr

# Fuzz the wires' decoders of bytes written by another process: the tcp
# handshake, the roster, the framing layer feeding every per-kind
# decoder, the shm header page and the checkpoint pointer. Nothing may
# panic, over-allocate or accept a payload that is not whole floats, a
# header validates exactly when it matches the config, and CURRENT
# never names a manifest outside its spill directory.
fuzz-wire:
	$(GO) test -run xxx -fuzz FuzzDecodeHello -fuzztime 30s ./internal/transport
	$(GO) test -run xxx -fuzz FuzzDecodeRoster -fuzztime 30s ./internal/transport
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 30s ./internal/transport
	$(GO) test -run xxx -fuzz FuzzValidateShmHeader -fuzztime 30s ./internal/transport
	$(GO) test -run xxx -fuzz FuzzLatest -fuzztime 30s ./internal/ckpt
