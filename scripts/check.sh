#!/usr/bin/env sh
# Full verification gate: build, standard vet, the project's own dmv-vet
# concurrency analyzers, the race-enabled test suite, and a chaos leg with
# the dmvdebug runtime assertions compiled in.
#
# Usage: scripts/check.sh   (or: make check)
set -eu
cd "$(dirname "$0")/.."

echo "==> go build"
go build ./...

echo "==> no net/rpc or encoding/gob in the module"
# The transport frames its own calls and every body has a hand-written or
# JSON encoding; neither package may come back, directly or through a
# dependency.
if go list -deps ./... | grep -x -e net/rpc -e encoding/gob; then
	echo "the module depends on the package(s) above" >&2
	exit 1
fi

echo "==> no sleeps in the replica and the on-disk engine"
# A node's simulated hardware (CPU, buffer cache, device) is one simdisk
# cost model; the engines call its charge methods and never sleep
# themselves, so the model cannot grow back into them.
if grep -n 'time\.Sleep' $(find internal/replica internal/innodb -name '*.go' ! -name '*_test.go'); then
	echo "production code under internal/replica or internal/innodb sleeps (charge the simdisk model instead)" >&2
	exit 1
fi

echo "==> no heap.Txn decorators in production code"
# An engine's sessions hold their heap.Txn as a field; a type that embeds
# one wraps the storage transaction the executor reads through, and the
# on-disk engine's statement counter was the last such wrapper. The
# benchmark's probes, outside the module's production code, may.
if grep -n -E '^[[:space:]]+heap\.Txn[[:space:]]*(//.*)?$' $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' ! -path './.bench_build/*'); then
	echo "production code embeds heap.Txn (hold it as a field instead)" >&2
	exit 1
fi

echo "==> unsafe only where an index key is rebuilt"
# An index entry's key is a pointer into its row plus the index's width,
# and internal/heap/index.go alone turns one back into a row with
# unsafe.Slice. No other production file of the module may import unsafe.
# The benchmark, a module of its own, is not scanned. -race turns on
# checkptr, so the race leg checks every unsafe.Slice the index tests run.
unsafe_allowed='./internal/heap/index.go'
if grep -l -E '^[[:space:]]*(import[[:space:]]+)?([A-Za-z_][A-Za-z0-9_]*[[:space:]]+)?"unsafe"' $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' ! -path './.bench_build/*') | grep -v -x -F "$unsafe_allowed"; then
	echo "production code above imports unsafe (only $unsafe_allowed may)" >&2
	exit 1
fi

echo "==> one master writer"
# Class mastership lives in the plane's member record: Plane.placeLocked
# derives each class's master and is the one production caller of
# Scheduler.SetMaster outside the scheduler. The benchmark, a module of its
# own, builds its topology by hand and is not scanned.
if grep -n '\.SetMaster(' $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './internal/scheduler/*' ! -path '*/testdata/*' ! -path './.bench_build/*') | grep -v '^./internal/cluster/plane.go:'; then
	echo "production code above calls SetMaster (only internal/cluster/plane.go may)" >&2
	exit 1
fi

echo "==> one plane worker"
# Every side effect the control plane decides runs on its action queue's one
# worker, in decision order (internal/cluster/actions.go). Production Go
# under internal/cluster starts goroutines in four places only: the worker,
# the periodic jobs, the probe fan-out and the bounded member call. A fifth
# go statement runs a plane action off the queue.
plane_go=$(cat $(find internal/cluster -name '*.go' ! -name '*_test.go') | grep -c -E '^[[:space:]]*go[[:space:]]+[A-Za-z_(]' || true)
if [ "$plane_go" -gt 4 ]; then
	grep -n -E '^[[:space:]]*go[[:space:]]+[A-Za-z_(]' $(find internal/cluster -name '*.go' ! -name '*_test.go') >&2
	echo "production code under internal/cluster has $plane_go go statements, more than 4 (enqueue the action instead)" >&2
	exit 1
fi

echo "==> column names resolve only at planning"
# A plan binds every column reference to its offset in the joined row
# (binder.bind in internal/exec/plan.go), so eval indexes the row and
# resolves no name per row. Only the planner calls colOffset, the name
# lookup, and the evaluation environment (env in internal/exec/eval.go)
# has no map-typed field to look a name up in.
if grep -n 'colOffset(' $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' ! -path './.bench_build/*') | grep -v '^./internal/exec/plan.go:'; then
	echo "production code above resolves a column name outside the planner (bind it in internal/exec/plan.go)" >&2
	exit 1
fi
env_struct=$(sed -n '/^type env struct {/,/^}/p' internal/exec/eval.go)
[ -n "$env_struct" ] || { echo "internal/exec/eval.go no longer declares env; update this step" >&2; exit 1; }
if echo "$env_struct" | grep -n 'map\['; then
	echo "internal/exec/eval.go: env has a map-typed field above (the plan binds names; eval reads offsets)" >&2
	exit 1
fi

echo "==> gofmt"
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || { echo "gofmt -l lists unformatted files:" >&2; echo "$unformatted" >&2; exit 1; }

echo "==> go vet"
go vet ./...

echo "==> benchmark module (go vet + go test)"
# benchmark/ is a module of its own over this one: an internal API change
# that breaks it, or a replica.Peer method its decorators lack, fails here
# rather than only in the perf pipeline.
(cd benchmark && go vet . && go test -count=1 .)

echo "==> dmv-vet (memory-safety + protocol-invariant analyzers, all nine)"
# The suite emits -json (stable machine-readable diagnostics) which the
# dmv-vet's own -fmt mode re-renders as sorted diff-friendly text. The
# metricname analyzer subsumes the old grep-based obs lint, and its rule 3
# checks that every catalogued metric name is read somewhere, so it
# type-checks every package's tests too.
vet_json=$(mktemp)
trap 'rm -f "$vet_json"' EXIT
vet_status=0
go run ./cmd/dmv-vet -json ./... >"$vet_json" || vet_status=$?
go run ./cmd/dmv-vet -fmt "$vet_json"
[ "$vet_status" -eq 0 ]

echo "==> obs race leg (obs unit suite + trace propagation + cluster aggregation)"
go test -race -count=1 ./internal/obs/
go test -race -count=1 -run 'TestTracePropagation|TestClusterViewMatchesInProcess' ./internal/transport/
go test -race -count=1 -run 'TestObsMetricsEnabled|TestStitchedTraceAcrossCluster|TestClusterLagGauges|TestLagConvergesAfterFailover' ./internal/cluster/
go test -race -count=1 -run 'TestRenderInProcessTier' ./cmd/dmv-top/

echo "==> faultnet chaos leg (seeded partitions, RPC deadlines, gray-failure detection)"
# Every scenario below runs on a fixed seed, so a failure here reproduces
# byte-for-byte: rerun the named test with the same seed from the source.
go test -race -count=1 ./internal/faultnet/
go test -tags dmvdebug -race -count=1 \
	-run 'TestPartitionedMasterFailover|TestStalledPeerDeadline|TestReconnectAfterConnDrop|TestRetryBudgetExhausted|TestOverloadDuringPartitionedFailover|TestRemotePlane|TestSetSubscribersReusesAndClosesClients|TestReadTxnRoundTrips|TestExpiredCommitReleasesSession|TestReadBegin|TestReadCommitAfterDeadlineMatchesInProcess|TestTwoClassRemoteTier|TestCommitReplyLostIsUncertain' \
	./internal/transport/
# The call multiplexer: a timed-out call keeps the connection, and a late
# reply is never taken for another call's. Ten runs, since a crossed reply
# would show only under some interleavings.
go test -tags dmvdebug -race -count=10 \
	-run 'TestTimedOutCallKeepsConnection|TestLateRepliesNeverCross' \
	./internal/transport/
go test -tags dmvdebug -race -count=1 \
	-run 'TestSuspectQuarantineAndClear|TestGrayMasterFailover|TestFailStopStillFast|TestOverloadActivatesSpare|TestPageIDWarmupLoopShipsPages|TestRestartReplacesKilledIncarnation|TestDeathVerdictSparesRestartedNode|TestSuspicionRecordedBeforeDeath|TestNewMasterSubscribedBeforePublished|TestRestartUnconfirmedMaster|TestDecisionOrderIsTimelineOrder|TestOneSparePerActivation|TestReportStormIsOneConfirm|TestCloseLeavesNothingRunning' \
	./internal/cluster/

echo "==> storage-fault crash-recovery leg (WAL, faultdisk, persistence tier)"
# Fixed-seed crash/recovery scenarios: a torn tail from a seeded faultdisk
# crash must never lose an acknowledged commit, two runs of one seed must
# recover byte-identical state, and mid-log corruption must be refused
# rather than silently truncated. A whole tier restarts through
# persist.Open: on the faultdisk past a checkpoint, after a backend is
# removed, and with a backend added. A record acknowledged before a segment
# roll must survive a crash (TestRollSyncsClosedSegment), and a checkpoint
# must delete a departed backend's manifest.
go test -race -count=1 ./internal/wal/ ./internal/faultdisk/
go test -race -count=1 \
	-run 'TestCrashRecoveryNoAckedCommitLoss|TestSeededCrashDeterminism|TestMidLogCorruptionDetected|TestApplyErrorQuarantinesBackend|TestLogTruncationBoundsMemory|TestConcurrentTierOps|TestWholeTierRestartUnderFaultdisk|TestRestartAfterRemovingBackend|TestBackendAddedAfterCheckpoint|TestCheckpointRemovesDepartedManifests|TestRollSyncsClosedSegment' \
	./internal/persist/ .

echo "==> flight-recorder leg (anomaly-triggered cluster dump + dmv-doctor post-mortem)"
# The seeded partitioned-master chaos run must emit a cluster-wide flight
# dump; dmv-doctor -check re-parses the artifact and names the fail-over
# trigger, closing the loop from anomaly to post-mortem.
flight_dir=$(mktemp -d)
trap 'rm -f "$vet_json"; rm -rf "$flight_dir"' EXIT
DMV_FLIGHT_DIR="$flight_dir" go test -tags dmvdebug -race -count=1 \
	-run 'TestFlightDumpOnPartitionedFailover' ./internal/transport/
ls "$flight_dir"/run1/flight-*.json >/dev/null 2>&1 || { echo "flight leg: no dump written" >&2; exit 1; }
go run ./cmd/dmv-doctor -check "$flight_dir"/run1/flight-*-failover-start.json | grep -q 'failover-start' \
	|| { echo "flight leg: dmv-doctor did not identify the fail-over trigger" >&2; exit 1; }

echo "==> overload leg (fixed-seed open-loop stampede: bounded p95 while shedding + overload dump)"
# The stampede smoke offers ~3x a tiny tier's capacity open-loop: admitted
# p95 must stay bounded while the excess sheds, and the shed-mode
# transition must leave a sustained-overload flight dump that dmv-doctor
# attributes to the admission trigger.
DMV_FLIGHT_DIR="$flight_dir" go test -race -count=1 \
	-run 'TestOverloadSmoke' ./internal/experiments/
ls "$flight_dir"/overload/flight-*-sustained-overload.json >/dev/null 2>&1 || { echo "overload leg: no dump written" >&2; exit 1; }
go run ./cmd/dmv-doctor -check "$flight_dir"/overload/flight-*-sustained-overload.json | grep -q 'sustained-overload' \
	|| { echo "overload leg: dmv-doctor did not attribute the overload trigger" >&2; exit 1; }

echo "==> scrub chaos leg (seeded silent corruption: detect, quarantine, repair, reintegrate + divergence dump)"
# A deterministic bit flip silently diverges one slave under OLTP load; the
# anti-entropy scrubber must detect it by digest, quarantine the node out of
# read placement, ship the master's pages, verify convergence, and lift the
# quarantine — twice with identical scrub timelines and zero acked-commit
# loss — leaving a divergence flight dump that dmv-doctor attributes.
DMV_FLIGHT_DIR="$flight_dir" go test -race -count=1 \
	-run 'TestScrubDivergenceRepair' ./internal/cluster/
ls "$flight_dir"/scrub/flight-*-replica-divergence.json >/dev/null 2>&1 || { echo "scrub leg: no dump written" >&2; exit 1; }
go run ./cmd/dmv-doctor -check "$flight_dir"/scrub/flight-*-replica-divergence.json | grep -q 'replica-divergence' \
	|| { echo "scrub leg: dmv-doctor did not attribute the divergence trigger" >&2; exit 1; }
# Repeated without dumps: a page install that let readers see half-built
# derived state failed this episode about one run in ten, so ten runs make
# such a regression fail the gate rather than slip through one run. The
# quarantine-ownership test rides along: neither the detector nor the sweep
# may lift the other's read quarantine.
go test -race -count=10 -run 'TestScrubDivergenceRepair$|TestScrubQuarantineOwnership$' ./internal/cluster/

echo "==> fuzz leg (wire bodies, WAL records and checkpoints, a fixed number of inputs each)"
# Iteration counts, not durations, keep the gate's run time bounded; a
# failing input is written under the package's testdata/fuzz and replays
# with plain go test.
go test -run '^$' -fuzz '^FuzzWireBodies$' -fuzztime 20000x ./internal/transport/
go test -run '^$' -fuzz '^FuzzDecodeRecord$' -fuzztime 20000x ./internal/persist/
go test -run '^$' -fuzz '^FuzzCheckpoint$' -fuzztime 20000x ./internal/heap/

echo "==> allocation ceilings (no -race, no dmvdebug)"
# The ceilings hold for a plain build only: -race and -tags dmvdebug
# instrument and seal-check, and allocate, so TestWireAllocs,
# TestUpdateCommitAllocs, TestApplyUnchangedKeysAllocs, TestIndexEntryAllocs,
# TestApplyWriteSetAllocs and TestPageBytes do not run under them and no
# other leg runs them. TestUpdateTxnAllocs pins a scheduler update
# transaction that no OnCommit subscriber logs. TestValueLayout pins the
# 32-byte Value every stored column costs; TestPageBytes the 320 bytes a
# page of 8 rows costs beside its rows; TestIndexEntryAllocs an index
# entry's amortized share of its tree's chunks (a 48-byte slot, under 0.01
# allocations).
go test -count=1 -run 'TestWireAllocs|TestUpdateCommitAllocs|TestApplyUnchangedKeysAllocs|TestIndexEntryAllocs|TestApplyWriteSetAllocs|TestStatementAllocs|TestPointLookupAllocs|TestValueLayout|TestPageBytes|TestUpdateTxnAllocs' \
	./internal/transport/ ./internal/heap/ ./internal/exec/ ./internal/value/ ./internal/page/ ./internal/scheduler/

echo "==> go test -race"
go test -race -count=1 ./...

echo "==> chaos under -tags dmvdebug (sealed-vector, sealed-row and write-set assertions active)"
go test -tags dmvdebug -race -count=1 -run 'TestChaos|TestSealed|TestUnsealed' . ./internal/vclock/ ./internal/value/
# Whole packages: the heap property tests and executor tests hand out
# published rows and index keys, so the row seals check them too; the
# TPC-W runs re-plan every cached plan they hit and compare. The
# BestSellers benchmark streams a four-table join over TPC-W data under
# the row seals.
go test -tags dmvdebug -race -count=1 ./internal/heap/ ./internal/page/ ./internal/exec/ ./internal/tpcw/
go test -tags dmvdebug -race -run '^$' -bench TPCW_BestSellersQuery -benchtime 3x .

echo "==> production Go lines (scripts/loc.sh; refactor PRs quote the delta in CHANGES.md)"
sh scripts/loc.sh

echo "==> all checks passed"
