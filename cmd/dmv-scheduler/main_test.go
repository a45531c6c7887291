package main

import (
	"fmt"
	"testing"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/replica"
	"dmv/internal/tpcw"
	"dmv/internal/transport"
)

// TestRunDrivesOrderingMix runs the daemon against three TPC-W nodes served
// on loopback: it assembles the tier, drives the ordering mix for a second
// and returns cleanly, leaving the first node master.
func TestRunDrivesOrderingMix(t *testing.T) {
	scale := tpcw.SmallScale()
	var master *replica.Node
	var args []string
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
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
	if role, err := master.Role(); err != nil || role != replica.RoleMaster {
		t.Fatalf("master0 role = %v (%v), want master", role, err)
	}
}
