package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// makeDump builds the recorded fail-over dump the golden test renders: a
// three-node cluster (scheduler + two survivors; the partitioned master is
// a peer error), the suspicion-to-fail-over causal chain in the scheduler
// ring, and a cross-node update trace stitched over master commit and
// write-set receive spans. All timestamps are fixed, so the render is
// byte-stable.
func makeDump() flight.Dump {
	base := int64(1_000_000_000) // t0, ns
	at := func(ms int64) int64 { return base + ms*1e6 }
	span := func(trace, id, parent uint64, kind, node, outcome string, startMS int64, total time.Duration, stages ...obs.SpanStage) *obs.Span {
		return &obs.Span{
			TraceID: trace, SpanID: id, ParentID: parent, Kind: kind, Node: node,
			Start: time.Unix(0, at(startMS)), Outcome: outcome, Total: total, Stages: stages,
		}
	}
	schedRing := []flight.Entry{
		{Seq: 0, TS: at(-250), Kind: flight.KindSpan, Node: "sched",
			Span: span(7, 11, 0, "update", "sched", "commit", -252, 2300*time.Microsecond,
				obs.SpanStage{Name: "tag-version", Offset: 40 * time.Microsecond},
				obs.SpanStage{Name: "master-exec", Offset: 300 * time.Microsecond},
				obs.SpanStage{Name: "commit", Offset: 2100 * time.Microsecond})},
		{Seq: 1, TS: at(-120), Kind: flight.KindHealth, Node: "m",
			Health: &flight.HealthTransition{Node: "m", From: "healthy", To: "suspect"}},
		{Seq: 2, TS: at(-120), Kind: flight.KindTrigger, Node: "m",
			Cause: flight.CauseSuspicion, Detail: "probe misses reached suspect threshold"},
		{Seq: 3, TS: at(-60), Kind: flight.KindDelta, Node: "sched",
			Deltas: map[string]int64{"dmv_sched_abort_peer_timeout_total": 3, "dmv_transport_rpc_timeouts_total": 5}},
		{Seq: 4, TS: at(-10), Kind: flight.KindHealth, Node: "m",
			Health: &flight.HealthTransition{Node: "m", From: "suspect", To: "dead"}},
		{Seq: 5, TS: at(0), Kind: flight.KindTrigger, Node: "m",
			Cause: flight.CauseFailover, Detail: "node confirmed dead, reconfiguring"},
	}
	s1Ring := []flight.Entry{
		{Seq: 0, TS: at(-251), Kind: flight.KindSpan, Node: "s1",
			Span: span(7, 12, 11, "ws-recv", "s1", "commit", -251, 400*time.Microsecond)},
		{Seq: 1, TS: at(-200), Kind: flight.KindEvent, Node: "s1",
			Event: &obs.Event{Time: time.Unix(0, at(-200)), Kind: "checkpoint", Node: "s1", Duration: 12 * time.Millisecond}},
	}
	s2Ring := []flight.Entry{
		{Seq: 0, TS: at(-251), Kind: flight.KindSpan, Node: "s2",
			Span: span(7, 13, 11, "ws-recv", "s2", "commit", -251, 700*time.Microsecond)},
	}
	return flight.Dump{
		Schema: flight.SchemaVersion,
		Trigger: flight.Trigger{
			Cause: flight.CauseFailover, Node: "m",
			Detail: "node confirmed dead, reconfiguring", TS: at(0),
		},
		Nodes: []flight.NodeDump{
			{Node: "s1", Entries: s1Ring, Runtime: flight.RuntimeSample{Goroutines: 24, HeapBytes: 9 << 20, GCPauseLastUS: 180, SchedLatP99US: 42}},
			{Node: "s2", Entries: s2Ring, Runtime: flight.RuntimeSample{Goroutines: 22, HeapBytes: 8 << 20, GCPauseLastUS: 90, SchedLatP99US: 37}, Dropped: 3},
			{Node: "sched", Entries: schedRing, Runtime: flight.RuntimeSample{Goroutines: 31, HeapBytes: 14 << 20, GCPauseLastUS: 210, SchedLatP99US: 55}},
		},
		Meta: flight.Meta{Origin: "sched", PeerErrors: []string{"m: rpc deadline exceeded"}},
	}
}

// TestRenderGolden renders the recorded fail-over dump and compares it to
// the checked-in report. Regenerate both testdata files with -update.
func TestRenderGolden(t *testing.T) {
	dumpPath := filepath.Join("testdata", "failover-dump.json")
	goldenPath := filepath.Join("testdata", "report.golden")
	if *update {
		blob, err := flight.Marshal(makeDump())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dumpPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := load(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Render(&buf, dumpPath, d)
	if *update {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("render differs from golden (rerun with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestRenderNamesTheCausalChain spot-checks that the report names the
// trigger and walks master partition -> suspicion -> fail-over in order.
func TestRenderNamesTheCausalChain(t *testing.T) {
	var buf bytes.Buffer
	Render(&buf, "dump.json", makeDump())
	out := buf.String()
	for _, want := range []string{
		"trigger: " + flight.CauseFailover + " node=m",
		"m: healthy -> suspect",
		flight.CauseSuspicion + " node=m",
		"m: suspect -> dead",
		"peer error: m: rpc deadline exceeded",
		"stitched trace 7",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	suspicion := bytes.Index([]byte(out), []byte("m: healthy -> suspect"))
	failover := bytes.Index([]byte(out), []byte(flight.CauseFailover+" node=m ("))
	if suspicion < 0 || failover < 0 || suspicion > failover {
		t.Fatalf("causal order wrong: suspicion at %d, fail-over at %d\n%s", suspicion, failover, out)
	}
}

// TestLoadRejectsBadDumps covers the -check failure paths.
func TestLoadRejectsBadDumps(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"not-json.json":   "{",
		"no-trigger.json": `{"Schema":1,"Trigger":{},"Nodes":[{"Node":"a"}],"Meta":{}}`,
		"no-nodes.json":   `{"Schema":1,"Trigger":{"Cause":"failover-start"},"Nodes":[],"Meta":{}}`,
		"bad-schema.json": `{"Schema":99,"Trigger":{"Cause":"failover-start"},"Nodes":[{"Node":"a"}],"Meta":{}}`,
	}
	for name, body := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := load(path); err == nil {
			t.Errorf("%s: load succeeded, want error", name)
		}
	}
}

// TestFailStopPostMortemNamesTruePriorState runs the real pipeline end to
// end — shared detector, flight recorder, dump, render — for a node that
// fail-stops without ever being suspected. The post-mortem must say the
// node went healthy -> dead: the detector used to record every death as
// suspect -> dead, sending the reader looking for a suspicion phase that
// never happened.
func TestFailStopPostMortemNamesTruePriorState(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	rec := flight.New(flight.Options{Node: "sched", Reg: reg, Dir: dir})
	defer rec.Close()
	c, err := cluster.New(cluster.Config{
		Slaves:    2,
		SchemaDDL: []string{`CREATE TABLE acct (id INT PRIMARY KEY, bal INT)`},
		Obs:       reg,
		Flight:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Kill("slave1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Health("slave1") != "dead" {
		if time.Now().After(deadline) {
			t.Fatalf("slave1 never declared dead; events: %+v", c.Events())
		}
		time.Sleep(2 * time.Millisecond)
	}
	rec.Close() // drains the trigger queue: the dump is on disk

	matches, err := filepath.Glob(filepath.Join(dir, "flight-*-"+flight.CauseFailover+".json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("fail-over dumps = %v, err = %v", matches, err)
	}
	d, err := load(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Render(&buf, matches[0], d)
	out := buf.String()
	if !strings.Contains(out, "slave1: healthy -> dead") {
		t.Fatalf("report does not show the fail-stop as healthy -> dead:\n%s", out)
	}
	if strings.Contains(out, "-> suspect") || strings.Contains(out, "suspect ->") {
		t.Fatalf("report invents a suspicion phase for a fail-stop:\n%s", out)
	}
}
