GO ?= go

.PHONY: build test race vet dmv-vet check bench fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# Standard vet plus the project's own invariant analyzers (cmd/dmv-vet).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/dmv-vet ./...

# The nine dmv-vet analyzers standalone (no go vet), package-parallel.
dmv-vet:
	$(GO) run ./cmd/dmv-vet ./...

# The fuzz targets, each for a fixed number of inputs so the run time stays
# bounded (plain go test runs only their seed corpora): the wire codec's
# binary bodies, the WAL record codec and the checkpoint decoder.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzWireBodies$$' -fuzztime 20000x ./internal/transport/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 20000x ./internal/persist/
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpoint$$' -fuzztime 20000x ./internal/heap/

# The full gate CI runs: build, vet, dmv-vet, race tests, dmvdebug chaos leg.
check:
	sh scripts/check.sh

# One iteration of every Go benchmark in every package: the heap, SQL and
# TPC-W micro-benchmarks at the root and the per-package ones. The paper's
# figures are shape tests (go test ./internal/experiments/) and print with
# go run ./cmd/dmv-bench; benchmark/run.sh judges performance.
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./...
