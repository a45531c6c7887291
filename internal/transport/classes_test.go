package transport

import (
	"reflect"
	"testing"
	"time"

	"dmv/internal/cluster"
	"dmv/internal/exec"
	"dmv/internal/faultnet"
	"dmv/internal/heap"
	"dmv/internal/replica"
	"dmv/internal/scheduler"
	"dmv/internal/value"
)

// twoClassConfig is a two-table tier with one conflict class per table.
var twoClassConfig = cluster.Config{
	Classes: []scheduler.ConflictClass{
		{Name: "a", Tables: []string{"a"}},
		{Name: "b", Tables: []string{"b"}},
	},
	SchemaDDL: []string{
		`CREATE TABLE a (id INT PRIMARY KEY, v INT)`,
		`CREATE TABLE b (id INT PRIMARY KEY, v INT)`,
	},
	Slaves:            1,
	HeartbeatInterval: 25 * time.Millisecond,
	PingTimeout:       80 * time.Millisecond,
}

// classCommits inserts one row into each table through run and returns the
// replica each insert committed on; then one read transaction must see both
// rows.
func classCommits(t *testing.T, run func(scheduler.TxnSpec, func(*scheduler.Txn) error) error) []string {
	t.Helper()
	var on []string
	for _, table := range []string{"a", "b"} {
		var ran string // the last attempt's
		err := run(scheduler.TxnSpec{Tables: []string{table}}, func(tx *scheduler.Txn) error {
			ran = tx.Replica()
			_, err := tx.Exec(`INSERT INTO `+table+` (id, v) VALUES (?, ?)`, value.NewInt(1), value.NewInt(7))
			return err
		})
		if err != nil {
			t.Fatalf("insert into %s: %v", table, err)
		}
		on = append(on, ran)
	}
	err := run(scheduler.TxnSpec{ReadOnly: true, Tables: []string{"a", "b"}}, func(tx *scheduler.Txn) error {
		for _, table := range []string{"a", "b"} {
			v, err := tx.QueryInt(`SELECT v FROM ` + table + ` WHERE id = 1`)
			if err != nil {
				return err
			}
			if v != 7 {
				t.Errorf("read on %s: %s row v = %d, want 7", tx.Replica(), table, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return on
}

// TestTwoClassRemoteTier assembles a two-class tier over faultnet, each
// class with its own master, and checks it against the in-process tier
// cluster.New builds from the same Config: updates commit on their class's
// master, every master ships to every other node, and the two tiers have
// the same members, masters and subscriber sets.
func TestTwoClassRemoteTier(t *testing.T) {
	const seed = 7
	tr := &remoteTier{nw: faultnet.New(seed), nodes: make(map[string]*replica.Node, 3)}
	var peers []replica.Peer
	for _, id := range []string{"master0", "master1", "slave0"} {
		e := heap.NewEngine(heap.Options{PageCap: 8})
		for _, ddl := range twoClassConfig.SchemaDDL {
			if err := exec.ExecDDL(e, ddl); err != nil {
				t.Fatalf("ddl: %v", err)
			}
		}
		peers = append(peers, tr.serve(t, replica.NewNode(replica.Options{ID: id, Engine: e}), seed))
	}
	tr.assemble(t, twoClassConfig, cluster.Members{Masters: peers[:2], Slaves: peers[2:]})

	if on := classCommits(t, tr.plane.Run); !reflect.DeepEqual(on, []string{"master0", "master1"}) {
		t.Errorf("class updates committed on %v, want [master0 master1]", on)
	}
	remoteSubs := map[string][]string{}
	for id, n := range tr.nodes {
		remoteSubs[id] = subscriberIDs(n)
	}
	want := map[string][]string{
		"master0": {"master1", "slave0"},
		"master1": {"master0", "slave0"},
		"slave0":  nil,
	}
	if !reflect.DeepEqual(remoteSubs, want) {
		t.Errorf("remote subscribers = %v, want %v", remoteSubs, want)
	}

	c, err := cluster.New(twoClassConfig)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer c.Close()
	if on := classCommits(t, c.Run); !reflect.DeepEqual(on, []string{"master0", "master1"}) {
		t.Errorf("in-process class updates committed on %v, want [master0 master1]", on)
	}
	localSubs := map[string][]string{}
	for _, id := range c.NodeIDs() {
		n, _ := c.Node(id)
		localSubs[id] = subscriberIDs(n)
	}
	if !reflect.DeepEqual(localSubs, remoteSubs) {
		t.Errorf("in-process subscribers = %v, remote = %v", localSubs, remoteSubs)
	}
	if got, want := c.NodeIDs(), tr.plane.NodeIDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("in-process members = %v, remote = %v", got, want)
	}
	for ci := 0; ci < 2; ci++ {
		if got, want := c.MasterID(ci), tr.plane.MasterID(ci); got != want {
			t.Errorf("class %d master: in-process %s, remote %s", ci, got, want)
		}
	}
}
