package scheduler

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/page"
	"dmv/internal/replica"
	"dmv/internal/scrub"
	"dmv/internal/simdisk"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// fakePeer is a scriptable replica.Peer for routing tests.
type fakePeer struct {
	id      string
	begins  atomic.Int64
	failTx  error // returned from TxBegin when set
	version vclock.Vector
}

func (f *fakePeer) ID() string                                   { return f.id }
func (f *fakePeer) AbortActiveSessions() (int, error)            { return 0, nil }
func (f *fakePeer) Ping() error                                  { return nil }
func (f *fakePeer) ReceiveWriteSet(*heap.WriteSet) error         { return nil }
func (f *fakePeer) Role() (replica.Role, error)                  { return replica.RoleSlave, nil }
func (f *fakePeer) Promote([]int) error                          { return nil }
func (f *fakePeer) Demote(replica.Role) error                    { return nil }
func (f *fakePeer) DiscardAbove(vclock.Vector) error             { return nil }
func (f *fakePeer) MaxVersions() (vclock.Vector, error)          { return f.version, nil }
func (f *fakePeer) StartJoin() error                             { return nil }
func (f *fakePeer) PageVersions() (heap.PageVersionMap, error)   { return nil, nil }
func (f *fakePeer) InstallDelta([]page.Image) error              { return nil }
func (f *fakePeer) FinishJoin() error                            { return nil }
func (f *fakePeer) WarmPages([]simdisk.PageKey) error            { return nil }
func (f *fakePeer) ResidentPages(int) ([]simdisk.PageKey, error) { return nil, nil }
func (f *fakePeer) Digest(table int, version uint64, _ bool) (scrub.TableDigest, error) {
	return scrub.TableDigest{Table: table, Version: version}, nil
}
func (f *fakePeer) PageImages(int, []page.ID) ([]page.Image, error) { return nil, nil }
func (f *fakePeer) TxBegin(readOnly bool, _ vclock.Vector, _ time.Duration, _ obs.TraceContext) (uint64, error) {
	if f.failTx != nil {
		return 0, f.failTx
	}
	f.begins.Add(1)
	return uint64(f.begins.Load()), nil
}
func (f *fakePeer) TxExec(uint64, string, []value.Value) (*exec.Result, error) {
	return &exec.Result{}, nil
}
func (f *fakePeer) TxCommit(uint64) (vclock.Vector, error) { return f.version, nil }
func (f *fakePeer) TxRollback(uint64) error                { return nil }

var _ replica.Peer = (*fakePeer)(nil)

func tableID(name string) (int, bool) {
	tables := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3}
	id, ok := tables[name]
	return id, ok
}

func newSched(t *testing.T, opts Options) *Scheduler {
	t.Helper()
	s, err := New(opts, 4, tableID)
	if err != nil {
		t.Fatalf("new scheduler: %v", err)
	}
	return s
}

func TestConflictClassRouting(t *testing.T) {
	s := newSched(t, Options{Classes: []ConflictClass{
		{Name: "ab", Tables: []string{"a", "b"}},
		{Name: "cd", Tables: []string{"c", "d"}},
	}})
	m0 := &fakePeer{id: "m0"}
	m1 := &fakePeer{id: "m1"}
	s.SetMaster(0, m0)
	s.SetMaster(1, m1)
	s.AddSlave(&fakePeer{id: "s0"})

	run := func(tables ...string) {
		if err := s.Run(TxnSpec{Tables: tables}, func(tx *Txn) error { return nil }); err != nil {
			t.Fatalf("run %v: %v", tables, err)
		}
	}
	run("a")
	run("b")
	run("c", "d")
	run("e")      // unknown -> class 0
	run("a", "c") // spans classes -> class 0
	if m0.begins.Load() != 4 {
		t.Fatalf("class-0 master got %d txns, want 4", m0.begins.Load())
	}
	if m1.begins.Load() != 1 {
		t.Fatalf("class-1 master got %d txns, want 1", m1.begins.Load())
	}
}

func TestOverlappingClassesRejected(t *testing.T) {
	_, err := New(Options{Classes: []ConflictClass{
		{Name: "x", Tables: []string{"a"}},
		{Name: "y", Tables: []string{"a", "b"}},
	}}, 4, tableID)
	if err == nil {
		t.Fatal("overlapping classes accepted; they must be disjoint")
	}
}

func TestUnknownTableInClass(t *testing.T) {
	_, err := New(Options{Classes: []ConflictClass{{Name: "x", Tables: []string{"nope"}}}}, 4, tableID)
	if !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("err = %v", err)
	}
}

func TestNoReplicas(t *testing.T) {
	s := newSched(t, Options{})
	err := s.Run(TxnSpec{ReadOnly: true}, func(*Txn) error { return nil })
	if !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("read err = %v", err)
	}
	err = s.Run(TxnSpec{}, func(*Txn) error { return nil })
	if !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("update err = %v", err)
	}
}

func TestReadLoadBalancing(t *testing.T) {
	s := newSched(t, Options{VersionAffinity: true})
	peers := []*fakePeer{{id: "s0"}, {id: "s1"}, {id: "s2"}}
	for _, p := range peers {
		s.AddSlave(p)
	}
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Run(TxnSpec{ReadOnly: true}, func(tx *Txn) error { return nil })
		}()
	}
	wg.Wait()
	total := int64(0)
	for _, p := range peers {
		total += p.begins.Load()
	}
	if total != 30 {
		t.Fatalf("total reads = %d", total)
	}
	// With a constant version every replica is a safe candidate; the
	// least-loaded rule must not starve any of them entirely over 30 reads.
	for _, p := range peers {
		if p.begins.Load() == 0 {
			t.Fatalf("replica %s starved: %v", p.id, []int64{peers[0].begins.Load(), peers[1].begins.Load(), peers[2].begins.Load()})
		}
	}
}

func TestRetryOnNodeDownThenRemove(t *testing.T) {
	var reported []string
	var mu sync.Mutex
	s := newSched(t, Options{
		VersionAffinity: true,
		MaxRetries:      5,
		OnPeerFailure: func(id string) {
			mu.Lock()
			reported = append(reported, id)
			mu.Unlock()
		},
	})
	dead := &fakePeer{id: "dead", failTx: fmt.Errorf("%w: dead", replica.ErrNodeDown)}
	live := &fakePeer{id: "live"}
	s.AddSlave(dead)
	s.AddSlave(live)

	// Reads retried past the dead replica must eventually land on the live
	// one (the dead one may be tried first by load balancing).
	for i := 0; i < 10; i++ {
		if err := s.Run(TxnSpec{ReadOnly: true}, func(*Txn) error { return nil }); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	mu.Lock()
	seen := len(reported)
	mu.Unlock()
	if seen == 0 {
		t.Fatal("dead replica never reported")
	}
	s.Remove("dead")
	if got := s.Slaves(); len(got) != 1 || got[0] != "live" {
		t.Fatalf("slaves = %v", got)
	}
}

func TestSpareWarmupShare(t *testing.T) {
	s := newSched(t, Options{VersionAffinity: true, WarmupShare: 0.5, Seed: 1})
	slave := &fakePeer{id: "slave"}
	spare := &fakePeer{id: "spare"}
	s.AddSlave(slave)
	s.AddSpare(spare)
	for i := 0; i < 200; i++ {
		if err := s.Run(TxnSpec{ReadOnly: true}, func(*Txn) error { return nil }); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	got := spare.begins.Load()
	if got < 50 || got > 150 {
		t.Fatalf("spare served %d of 200 reads; want about half", got)
	}
}

func TestPromoteSpare(t *testing.T) {
	s := newSched(t, Options{})
	s.AddSpare(&fakePeer{id: "sp"})
	if !s.PromoteSpare("sp") {
		t.Fatal("promote failed")
	}
	if len(s.Spares()) != 0 || len(s.Slaves()) != 1 {
		t.Fatalf("spares=%v slaves=%v", s.Spares(), s.Slaves())
	}
	if s.PromoteSpare("sp") {
		t.Fatal("double promote succeeded")
	}
}

func TestVersionReportingAndReset(t *testing.T) {
	s := newSched(t, Options{})
	s.ReportVersion(vclock.Vector{3, 0, 0, 0})
	s.ReportVersion(vclock.Vector{1, 5, 0, 0})
	if got := s.Latest(); got.Get(0) != 3 || got.Get(1) != 5 {
		t.Fatalf("latest = %v", got)
	}
	s.ResetVersion(vclock.Vector{2, 2, 0, 0})
	if got := s.Latest(); got.Get(0) != 2 || got.Get(1) != 2 {
		t.Fatalf("after reset = %v", got)
	}
}

func TestUpdateCommitHookReceivesLoggedStmts(t *testing.T) {
	var recs []CommitRecord
	var mu sync.Mutex
	s := newSched(t, Options{OnCommit: func(r CommitRecord) {
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
	}})
	master := &fakePeer{id: "m", version: vclock.Vector{1, 0, 0, 0}}
	s.SetMaster(0, master)
	err := s.Run(TxnSpec{Tables: []string{"a"}}, func(tx *Txn) error {
		if _, err := tx.Exec(`UPDATE a SET x = 1 WHERE id = ?`, value.NewInt(1)); err != nil {
			return err
		}
		_, err := tx.Exec(`SELECT x FROM a WHERE id = ?`, value.NewInt(1))
		return err
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(recs) != 1 {
		t.Fatalf("commit records = %d", len(recs))
	}
	// Only the update statement is logged, not the SELECT.
	if len(recs[0].Stmts) != 1 {
		t.Fatalf("logged stmts = %d, want 1 (reads excluded)", len(recs[0].Stmts))
	}
}

func TestRetriesExhausted(t *testing.T) {
	s := newSched(t, Options{MaxRetries: 2})
	s.AddSlave(&fakePeer{id: "s0"})
	calls := 0
	err := s.Run(TxnSpec{ReadOnly: true}, func(tx *Txn) error {
		calls++
		return page.ErrVersionConflict
	})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 { // initial + 2 retries
		t.Fatalf("calls = %d", calls)
	}
	if s.Stats().VersionAborts.Load() == 0 {
		t.Fatal("aborts not counted")
	}
}
