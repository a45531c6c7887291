package main

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/page"
	"dmv/internal/replica"
	"dmv/internal/scrub"
	"dmv/internal/simdisk"
	"dmv/internal/tpcw"
	"dmv/internal/value"
	"dmv/internal/vclock"
	"dmv/internal/wal"
)

// recorder notes which methods of a fake were reached and hands back a
// configurable error, so a test can check both forwarding and that the
// error arrives as it was returned.
func testTracer(t *testing.T) *tracer {
	t.Helper()
	tr, err := newTracer(16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.free)
	return tr
}

type recorder struct {
	calls map[string]int
	err   error
}

func (r *recorder) note(name string) error {
	if r.calls == nil {
		r.calls = map[string]int{}
	}
	r.calls[name]++
	return r.err
}

type fakePeer struct{ recorder }

func (f *fakePeer) ID() string                           { _ = f.note("ID"); return "fake" }
func (f *fakePeer) Ping() error                          { return f.note("Ping") }
func (f *fakePeer) ReceiveWriteSet(*heap.WriteSet) error { return f.note("ReceiveWriteSet") }
func (f *fakePeer) TxRollback(uint64) error              { return f.note("TxRollback") }
func (f *fakePeer) AbortActiveSessions() (int, error)    { return 3, f.note("AbortActiveSessions") }
func (f *fakePeer) Role() (replica.Role, error)          { return replica.RoleSlave, f.note("Role") }
func (f *fakePeer) Promote([]int) error                  { return f.note("Promote") }
func (f *fakePeer) Demote(replica.Role) error            { return f.note("Demote") }
func (f *fakePeer) DiscardAbove(vclock.Vector) error     { return f.note("DiscardAbove") }
func (f *fakePeer) MaxVersions() (vclock.Vector, error)  { return nil, f.note("MaxVersions") }
func (f *fakePeer) StartJoin() error                     { return f.note("StartJoin") }
func (f *fakePeer) InstallDelta([]page.Image) error      { return f.note("InstallDelta") }
func (f *fakePeer) FinishJoin() error                    { return f.note("FinishJoin") }
func (f *fakePeer) RepairPages([]page.Image) error       { return f.note("RepairPages") }
func (f *fakePeer) WarmPages([]simdisk.PageKey) error    { return f.note("WarmPages") }
func (f *fakePeer) TxCommit(uint64) (vclock.Vector, error) {
	return vclock.Vector{4, 2}, f.note("TxCommit")
}
func (f *fakePeer) PageVersions() (heap.PageVersionMap, error) {
	return nil, f.note("PageVersions")
}
func (f *fakePeer) TxBegin(bool, vclock.Vector, time.Duration, obs.TraceContext) (uint64, error) {
	return 42, f.note("TxBegin")
}
func (f *fakePeer) TxExec(uint64, string, []value.Value) (*exec.Result, error) {
	return &exec.Result{Affected: 7}, f.note("TxExec")
}
func (f *fakePeer) DeltaSince(heap.PageVersionMap, vclock.Vector) ([]page.Image, error) {
	return nil, f.note("DeltaSince")
}
func (f *fakePeer) Digest(int, uint64, bool) (scrub.TableDigest, error) {
	return scrub.TableDigest{}, f.note("Digest")
}
func (f *fakePeer) PageImages(int, []page.ID) ([]page.Image, error) {
	return nil, f.note("PageImages")
}
func (f *fakePeer) ResidentPages(int) ([]simdisk.PageKey, error) {
	return nil, f.note("ResidentPages")
}

var _ replica.Peer = (*fakePeer)(nil)

// callEvery invokes each method of the interface type iface on v with zero
// arguments and returns the method names.
func callEvery(t *testing.T, v any, iface reflect.Type) []string {
	t.Helper()
	rv := reflect.ValueOf(v)
	var names []string
	for i := 0; i < iface.NumMethod(); i++ {
		m := iface.Method(i)
		args := make([]reflect.Value, m.Type.NumIn())
		for j := range args {
			in := m.Type.In(j)
			args[j] = reflect.Zero(in)
			if in.Kind() == reflect.Func { // a callback that declines to continue
				args[j] = reflect.MakeFunc(in, func([]reflect.Value) []reflect.Value {
					out := make([]reflect.Value, in.NumOut())
					for k := range out {
						out[k] = reflect.Zero(in.Out(k))
					}
					return out
				})
			}
		}
		if m.Name == "ReceiveWriteSet" { // the decorator reads the write-set it forwards
			args[0] = reflect.ValueOf(&heap.WriteSet{})
		}
		if m.Type.IsVariadic() {
			rv.MethodByName(m.Name).CallSlice(args)
		} else {
			rv.MethodByName(m.Name).Call(args)
		}
		names = append(names, m.Name)
	}
	return names
}

func TestPeerDecoratorsForwardEveryMethod(t *testing.T) {
	peerType := reflect.TypeOf((*replica.Peer)(nil)).Elem()
	tr := testTracer(t)
	tr.on.Store(true)
	for name, wrap := range map[string]func(replica.Peer) replica.Peer{
		"scheduler handle": func(p replica.Peer) replica.Peer { return &tracedPeer{Peer: p, t: tr} },
		"subscriber handle": func(p replica.Peer) replica.Peer {
			var kept []*heap.WriteSet
			return &tracedSubscriber{Peer: p, t: tr, idx: 1, keep: &kept}
		},
	} {
		fake := &fakePeer{}
		for _, m := range callEvery(t, wrap(fake), peerType) {
			if fake.calls[m] != 1 {
				t.Errorf("%s: %s reached the peer %d times, want 1", name, m, fake.calls[m])
			}
		}
	}
}

// The scheduler retries on page.ErrVersionConflict and gives up on
// replica.ErrDeadlineExpired by errors.Is; a decorator that rewrapped or
// replaced them would change what the benchmark measures.
func TestPeerDecoratorKeepsResultsAndErrorIdentity(t *testing.T) {
	tr := testTracer(t)
	tr.on.Store(true)
	for _, sentinel := range []error{page.ErrVersionConflict, replica.ErrDeadlineExpired} {
		fake := &fakePeer{}
		fake.err = fmt.Errorf("slave1: %w", sentinel)
		p := &tracedPeer{Peer: fake, t: tr}
		id, err := p.TxBegin(true, nil, 0, obs.TraceContext{})
		if id != 42 || !errors.Is(err, sentinel) {
			t.Errorf("TxBegin = %d, %v; want 42 and %v", id, err, sentinel)
		}
		res, err := p.TxExec(1, "SELECT 1", nil)
		if res == nil || res.Affected != 7 || !errors.Is(err, sentinel) {
			t.Errorf("TxExec = %v, %v", res, err)
		}
		ver, err := p.TxCommit(1)
		if !ver.Equal(vclock.Vector{4, 2}) || !errors.Is(err, sentinel) {
			t.Errorf("TxCommit = %v, %v", ver, err)
		}
		if err := p.TxRollback(1); !errors.Is(err, sentinel) {
			t.Errorf("TxRollback = %v", err)
		}
		sub := &tracedSubscriber{Peer: fake, t: tr, idx: 1}
		if err := sub.ReceiveWriteSet(&heap.WriteSet{}); !errors.Is(err, sentinel) {
			t.Errorf("ReceiveWriteSet = %v", err)
		}
	}
	failed := 0
	for _, s := range tr.spans.items() {
		if s.Failed {
			failed++
		}
	}
	if failed != 10 {
		t.Errorf("%d spans marked failed, want 10", failed)
	}
}

type fakeQuerier struct{ err error }

func (q fakeQuerier) Exec(string, ...value.Value) (*exec.Result, error) {
	return &exec.Result{Affected: 1}, q.err
}

func TestQuerierDecoratorsKeepErrorIdentity(t *testing.T) {
	tr := testTracer(t)
	var stmts []stmtRec
	inner := fakeQuerier{err: fmt.Errorf("exec: %w", page.ErrVersionConflict)}
	for name, q := range map[string]interface {
		Exec(string, ...value.Value) (*exec.Result, error)
	}{
		"writeCapture":  &writeCapture{q: inner},
		"tracedQuerier": &tracedQuerier{q: inner, t: tr, stmts: &stmts},
	} {
		if _, err := q.Exec("INSERT INTO orders (o_id) VALUES (?)", value.NewInt(1)); !errors.Is(err, page.ErrVersionConflict) {
			t.Errorf("%s: error identity lost: %v", name, err)
		}
	}
}

func TestWriteCaptureRecognizesTheThreeUpdates(t *testing.T) {
	w := &writeCapture{q: fakeQuerier{}}
	cases := []struct {
		stmt   string
		params []value.Value
		want   ack
	}{
		{"\n\t\tINSERT INTO orders (o_id, o_c_id) VALUES (?, ?)", []value.Value{value.NewInt(501), value.NewInt(9)},
			ack{kind: tpcw.BuyConfirm, id: 501}},
		{"INSERT INTO order_line (ol_id) VALUES (?)", []value.Value{value.NewInt(77)}, ack{kind: tpcw.BuyConfirm, id: 501}},
		{"INSERT INTO customer (c_id) VALUES (?)", []value.Value{value.NewInt(12)}, ack{kind: tpcw.CustomerRegistration, id: 12}},
		{"UPDATE item SET i_cost = ?, i_pub_date = ?, i_related1 = ?, i_thumbnail = ? WHERE i_id = ?",
			[]value.Value{value.NewFloat(9.5), value.NewInt(30), value.NewInt(2), value.NewString("t"), value.NewInt(5)},
			ack{kind: tpcw.AdminConfirm, id: 5, cost: 9.5, date: 30}},
	}
	for _, c := range cases {
		if _, err := w.Exec(c.stmt, c.params...); err != nil {
			t.Fatal(err)
		}
		if w.ack != c.want {
			t.Errorf("after %q: ack %+v, want %+v", c.stmt, w.ack, c.want)
		}
	}
}

type fakeTxn struct{ recorder }

func (f *fakeTxn) Engine() *heap.Engine { _ = f.note("Engine"); return nil }
func (f *fakeTxn) ReadOnly() bool       { _ = f.note("ReadOnly"); return true }
func (f *fakeTxn) Fetch(int, page.RowID) (value.Row, bool, error) {
	return value.Row{value.NewInt(1)}, true, f.note("Fetch")
}
func (f *fakeTxn) Scan(_ int, fn func(page.RowID, value.Row) bool) error {
	for i := 0; i < 3; i++ {
		if !fn(page.RowID(i), nil) {
			break
		}
	}
	return f.note("Scan")
}
func (f *fakeTxn) IndexScan(_, _ int, _ value.Row, fn func(value.Row, page.RowID) bool) error {
	for i := 0; i < 3; i++ {
		if !fn(nil, page.RowID(i)) {
			break
		}
	}
	return f.note("IndexScan")
}
func (f *fakeTxn) LookupEq(int, int, value.Row) ([]page.RowID, error) {
	return []page.RowID{5}, f.note("LookupEq")
}
func (f *fakeTxn) Insert(int, value.Row) (page.RowID, error) { return 9, f.note("Insert") }
func (f *fakeTxn) Update(int, page.RowID, value.Row) error   { return f.note("Update") }
func (f *fakeTxn) Delete(int, page.RowID) error              { return f.note("Delete") }

func TestTxnProbeForwardsAndCounts(t *testing.T) {
	fake := &fakeTxn{}
	fake.err = heap.ErrLockTimeout
	probe := &txnProbe{Txn: fake}
	for _, m := range callEvery(t, probe, reflect.TypeOf((*heap.Txn)(nil)).Elem()) {
		if fake.calls[m] != 1 {
			t.Errorf("%s reached the transaction %d times, want 1", m, fake.calls[m])
		}
	}
	if probe.calls != 7 {
		t.Errorf("probe counted %d storage calls, want 7", probe.calls)
	}
	if _, _, err := probe.Fetch(0, 0); !errors.Is(err, heap.ErrLockTimeout) {
		t.Errorf("Fetch error identity lost: %v", err)
	}
	// Rows handed up: Fetch hits and Scan rows, not index entries; a scan
	// the executor stops early stops in the engine too.
	probe = &txnProbe{Txn: &fakeTxn{}}
	seen := 0
	_ = probe.Scan(0, func(page.RowID, value.Row) bool { seen++; return seen < 2 })
	_ = probe.IndexScan(0, 0, nil, func(value.Row, page.RowID) bool { return true })
	_, _, _ = probe.Fetch(0, 0)
	if seen != 2 || probe.rows != 3 {
		t.Errorf("scan stopped after %d rows, probe counted %d rows; want 2 and 3", seen, probe.rows)
	}
}

type fakeFile struct{ recorder }

func (f *fakeFile) Read([]byte) (int, error)    { return 0, f.note("Read") }
func (f *fakeFile) Write(p []byte) (int, error) { return len(p), f.note("Write") }
func (f *fakeFile) Close() error                { return f.note("Close") }
func (f *fakeFile) Sync() error                 { return f.note("Sync") }
func (f *fakeFile) Truncate(int64) error        { return f.note("Truncate") }

type fakeFS struct {
	wal.FS
	file *fakeFile
}

func (f fakeFS) OpenFile(string, int, os.FileMode) (wal.File, error) { return f.file, nil }

func TestFileDecoratorForwardsAndCounts(t *testing.T) {
	tr := testTracer(t)
	tr.on.Store(true)
	fake := &fakeFile{}
	fake.err = errors.New("disk gone")
	file, err := tracedFS{FS: fakeFS{file: fake}, t: tr}.OpenFile("seg", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range callEvery(t, file, reflect.TypeOf((*wal.File)(nil)).Elem()) {
		if fake.calls[m] != 1 {
			t.Errorf("%s reached the file %d times, want 1", m, fake.calls[m])
		}
	}
	if err := file.Sync(); !errors.Is(err, fake.err) {
		t.Errorf("Sync error identity lost: %v", err)
	}
	if n, _ := file.Write(make([]byte, 100)); n != 100 || tr.walBytes.Load() != 100 {
		t.Errorf("wrote %d, counted %d bytes; want 100 and 100", n, tr.walBytes.Load())
	}
	syncs := 0
	for _, s := range tr.spans.items() {
		if s.Kind == kFsync && s.Failed {
			syncs++
		}
	}
	if syncs != 2 {
		t.Errorf("%d failed fsync spans, want 2", syncs)
	}
}
