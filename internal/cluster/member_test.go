package cluster

import (
	"reflect"
	"testing"
	"time"

	"dmv/internal/scheduler"
	"dmv/internal/value"
)

// TestStaleSpareServesNoRead: a stale spare receives no write-set, so
// placement gives it no read, not even the warm-up share: with every read
// offered to the spares, each one still sees the deposit.
func TestStaleSpareServesNoRead(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 1, Spares: 1, SpareMode: SpareStale, WarmupShare: 1.0})
	if err := deposit(t, c, 1, 11, 1); err != nil {
		t.Fatalf("deposit: %v", err)
	}
	for i := 0; i < 50; i++ {
		var on string
		var bal int64
		err := c.Run(scheduler.TxnSpec{ReadOnly: true, Tables: []string{"account"}}, func(tx *scheduler.Txn) error {
			on = tx.Replica()
			v, err := tx.QueryInt(`SELECT a_balance FROM account WHERE a_id = ?`, value.NewInt(1))
			bal = v
			return err
		})
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if bal != 1011 {
			t.Fatalf("read %d ran on %s and returned %d, want 1011", i, on, bal)
		}
	}
}

// TestDivergedSlaveIsNoDonor: a slave the sweep found diverged is in read
// quarantine and holds wrong pages, so data migration never takes it as its
// donor: a healthy, unquarantined slave is chosen instead.
func TestDivergedSlaveIsNoDonor(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 2, Spares: 1, SpareMode: SpareStale, HeartbeatInterval: time.Hour})
	c.changeMember("slave0", func(m *member) { m.diverged = map[int]bool{0: true} })
	if q := c.Scheduler().Quarantined(); !reflect.DeepEqual(q, []string{"slave0"}) {
		t.Fatalf("quarantined = %v, want [slave0]", q)
	}
	d := c.pickSupportSlave("spare0")
	if d == nil || d.ID() != "slave1" {
		id := "none"
		if d != nil {
			id = d.ID()
		}
		t.Fatalf("donor = %s while slave0 is diverged, want slave1", id)
	}
}

// TestFailedActivationLeavesStaleSpare: a stale spare whose activation
// finds no donor leaves its join stage a stale spare again: off the
// master's stream and in no read set.
func TestFailedActivationLeavesStaleSpare(t *testing.T) {
	c := newTestCluster(t, Config{Slaves: 1, Spares: 1, SpareMode: SpareStale, HeartbeatInterval: time.Hour})
	// No donor: the one slave is quarantined and the master is suspect.
	c.changeMember("slave0", func(m *member) { m.diverged = map[int]bool{0: true} })
	c.changeMember("master0", func(m *member) { m.state = healthSuspect })
	if err := c.do(func() error { c.activateSpare(); return nil }); err != nil {
		t.Fatal(err)
	}
	master, _ := c.Node("master0")
	for _, s := range master.Subscribers() {
		if s.ID() == "spare0" {
			t.Fatal("master0 still ships to spare0 after its failed activation")
		}
	}
	if got := c.Scheduler().Spares(); len(got) != 0 {
		t.Fatalf("scheduler spare set = %v, want none: a stale spare serves no read", got)
	}
	failed := false
	for _, ev := range c.Events() {
		failed = failed || ev.Kind == EventMigrationDone && ev.Node == "spare0" && ev.Detail != ""
	}
	if !failed {
		t.Fatalf("no failed migration for spare0: %+v", c.Events())
	}
}
