package main

import (
	"fmt"
	"testing"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/persist"
	"dmv/internal/replica"
	"dmv/internal/tpcw"
	"dmv/internal/transport"
)

// serveNodes serves three freshly loaded TPC-W nodes on loopback and
// returns the daemon arguments that name them and drive the ordering mix
// for a second, plus the node named master.
func serveNodes(t *testing.T) (args []string, master *replica.Node) {
	t.Helper()
	scale := tpcw.SmallScale()
	for i, id := range []string{"master0", "slave0", "slave1"} {
		eng := heap.NewEngine(heap.Options{NodeID: id})
		for _, ddl := range tpcw.SchemaDDL() {
			if err := exec.ExecDDL(eng, ddl); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		if err := scale.Load(eng); err != nil {
			t.Fatalf("load %s: %v", id, err)
		}
		n := replica.NewNode(replica.Options{ID: id, Engine: eng})
		srv, err := transport.ServeNode(n, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("serve %s: %v", id, err)
		}
		t.Cleanup(srv.Close)
		role := "-slave"
		if i == 0 {
			role, master = "-master", n
		}
		args = append(args, role, id+"="+srv.Addr())
	}
	args = append(args, "-drive", "ordering", "-duration", "1s", "-clients", "2",
		"-items", fmt.Sprint(scale.Items), "-customers", fmt.Sprint(scale.Customers))
	return args, master
}

// TestRunDrivesOrderingMix runs the daemon against three TPC-W nodes served
// on loopback: it assembles the tier, drives the ordering mix for a second
// and returns cleanly, leaving the first node master.
func TestRunDrivesOrderingMix(t *testing.T) {
	args, master := serveNodes(t)
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
	if role, err := master.Role(); err != nil || role != replica.RoleMaster {
		t.Fatalf("master0 role = %v (%v), want master", role, err)
	}
}

// TestRunKeepsDurableLog runs the daemon twice over one -wal-dir: the first
// run leaves its acknowledged commits in the log, and the second reopens
// that log and appends to it.
func TestRunKeepsDurableLog(t *testing.T) {
	dir := t.TempDir()
	logged := func() int {
		t.Helper()
		l, err := persist.OpenLog(persist.DurableConfig{Dir: dir})
		if err != nil {
			t.Fatalf("open log: %v", err)
		}
		if err := l.WAL.Close(); err != nil {
			t.Fatalf("close log: %v", err)
		}
		return l.Base + len(l.Records)
	}
	args, _ := serveNodes(t)
	if err := run(append(args, "-wal-dir", dir)); err != nil {
		t.Fatalf("first run: %v", err)
	}
	first := logged()
	if first <= 0 {
		t.Fatalf("first run logged %d commits, want some", first)
	}
	args, _ = serveNodes(t)
	if err := run(append(args, "-wal-dir", dir)); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if second := logged(); second <= first {
		t.Fatalf("log holds %d commits after the second run, want more than %d", second, first)
	}
}
