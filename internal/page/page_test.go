package page

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"dmv/internal/value"
)

func intRow(vals ...int64) value.Row {
	r := make(value.Row, len(vals))
	for i, v := range vals {
		r[i] = value.NewInt(v)
	}
	return r
}

func mod(ver uint64, ops ...RowOp) Mod { return Mod{Version: ver, Ops: ops} }

func ins(rid RowID, v int64) RowOp { return RowOp{Kind: OpInsert, Row: rid, Data: intRow(v)} }
func upd(rid RowID, v int64) RowOp { return RowOp{Kind: OpUpdate, Row: rid, Data: intRow(v)} }
func del(rid RowID) RowOp          { return RowOp{Kind: OpDelete, Row: rid} }

func rowsAt(t *testing.T, p *Page, ver uint64) map[RowID]int64 {
	t.Helper()
	out := map[RowID]int64{}
	err := p.View(ver, func(rows Rows) error {
		rows.All(func(rid RowID, r value.Row) {
			out[rid] = r[0].AsInt()
		})
		return nil
	})
	if err != nil {
		t.Fatalf("view@%d: %v", ver, err)
	}
	return out
}

func TestLazyMaterialization(t *testing.T) {
	p := New(0, 0, 8, 0)
	p.Enqueue(mod(1, ins(1, 10)))
	p.Enqueue(mod(2, upd(1, 20)))
	p.Enqueue(mod(3, del(1)))

	if p.Applied() != 0 || p.PendingLen() != 3 {
		t.Fatalf("eager application happened: applied=%d pending=%d", p.Applied(), p.PendingLen())
	}
	// Materialize only up to version 2.
	got := rowsAt(t, p, 2)
	if got[1] != 20 {
		t.Fatalf("at v2: %v", got)
	}
	if p.Applied() != 2 || p.PendingLen() != 1 {
		t.Fatalf("applied=%d pending=%d, want 2/1", p.Applied(), p.PendingLen())
	}
	// And the delete at 3.
	got = rowsAt(t, p, 3)
	if len(got) != 0 {
		t.Fatalf("at v3: %v", got)
	}
}

func TestVersionConflictAbort(t *testing.T) {
	p := New(0, 0, 8, 0)
	p.Enqueue(mod(1, ins(1, 10)))
	p.Enqueue(mod(2, upd(1, 20)))
	_ = rowsAt(t, p, 2) // upgrade to v2
	err := p.View(1, func(Rows) error { return nil })
	if !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("err = %v, want ErrVersionConflict (old versions are never kept)", err)
	}
	// Reading at exactly the applied version is fine.
	if _, _, err := p.Get(1, 2); err != nil {
		t.Fatalf("get@2: %v", err)
	}
	// And higher versions with no pending mods are also valid states.
	if _, _, err := p.Get(1, 99); err != nil {
		t.Fatalf("get@99: %v", err)
	}
}

func TestEnqueueOutOfOrderAndDuplicates(t *testing.T) {
	p := New(0, 0, 8, 0)
	p.Enqueue(mod(3, upd(1, 30)))
	p.Enqueue(mod(1, ins(1, 10)))
	p.Enqueue(mod(2, upd(1, 20)))
	p.Enqueue(mod(2, upd(1, 999))) // duplicate version dropped
	got := rowsAt(t, p, 3)
	if got[1] != 30 {
		t.Fatalf("at v3: %v", got)
	}
}

func TestDiscardAbove(t *testing.T) {
	p := New(0, 0, 8, 0)
	p.Enqueue(mod(1, ins(1, 10)))
	p.Enqueue(mod(2, upd(1, 20)))
	p.Enqueue(mod(3, upd(1, 30)))
	p.DiscardAbove(1)
	got := rowsAt(t, p, 3) // 2 and 3 are gone
	if got[1] != 10 {
		t.Fatalf("after discard: %v", got)
	}
}

// The install rule: an image older than the page is refused, one at the
// page's version overwrites it, and a newer one installs while keeping the
// pending changes it does not cover. TestInstallNewerWins and
// TestReplaceOverwrites pin its three cases.
type installCase struct {
	version     uint64
	installed   bool
	wantPending int
	wantLatest  map[RowID]int64 // rows once every pending change applied
}

// checkInstall installs an image holding only row 9 into a page that holds
// row 1 at version 2, with changes 3 and 4 pending.
func checkInstall(t *testing.T, c installCase) {
	t.Helper()
	p := New(0, 0, 8, 0)
	p.Enqueue(mod(1, ins(1, 10)))
	p.Enqueue(mod(2, upd(1, 20)))
	p.Enqueue(mod(3, upd(1, 30)))
	p.Enqueue(mod(4, upd(1, 40)))
	_ = rowsAt(t, p, 2)
	p.LockX()
	got, prev, replaced := p.XInstall(Image{Version: c.version, Rows: map[RowID]value.Row{9: intRow(90)}})
	p.UnlockX()
	if got != c.installed || prev != 2 {
		t.Fatalf("XInstall = %v from version %d, want %v from 2", got, prev, c.installed)
	}
	if c.installed {
		// The replaced rows are the page brought up to the image version.
		if r, ok := replaced.Get(1); replaced.Len() != 1 || !ok || r[0].AsInt() != int64(c.version)*10 {
			t.Fatalf("replaced rows %v, want the page at version %d", replaced, c.version)
		}
		if at := rowsAt(t, p, c.version); !equalRows(at, map[RowID]int64{9: 90}) {
			t.Fatalf("rows at %d = %v, want the image", c.version, at)
		}
	}
	if p.PendingLen() != c.wantPending {
		t.Fatalf("pending = %d, want %d", p.PendingLen(), c.wantPending)
	}
	if at := rowsAt(t, p, 4); !equalRows(at, c.wantLatest) {
		t.Fatalf("rows at 4 = %v, want %v", at, c.wantLatest)
	}
}

func TestInstallNewerWins(t *testing.T) {
	t.Run("older refused", func(t *testing.T) {
		checkInstall(t, installCase{1, false, 2, map[RowID]int64{1: 40}})
	})
	t.Run("newer keeps newer pending", func(t *testing.T) {
		checkInstall(t, installCase{3, true, 1, map[RowID]int64{1: 40, 9: 90}})
	})
}

// TestReplaceOverwrites pins the scrub repair: an image at the page's own
// version overwrites its rows and leaves the pending changes alone.
func TestReplaceOverwrites(t *testing.T) {
	checkInstall(t, installCase{2, true, 2, map[RowID]int64{1: 40, 9: 90}})
}

func equalRows(a, b map[RowID]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for rid, v := range a {
		if w, ok := b[rid]; !ok || w != v {
			return false
		}
	}
	return true
}

func TestSnapshotSkipsDirty(t *testing.T) {
	p := New(0, 0, 8, 0)
	p.LockX()
	if _, ok := p.Snapshot(); ok {
		t.Fatal("snapshot of an exclusively latched (dirty) page must be skipped")
	}
	p.UnlockX()
	if _, ok := p.Snapshot(); !ok {
		t.Fatal("snapshot of a clean page failed")
	}
}

func TestStampCreateVersionLowersOnly(t *testing.T) {
	p := New(0, 0, 8, ^uint64(0))
	if p.CreateVersion() != ^uint64(0) {
		t.Fatal("sentinel expected")
	}
	p.StampCreateVersion(7)
	p.StampCreateVersion(9) // must not raise
	if p.CreateVersion() != 7 {
		t.Fatalf("createVer = %d", p.CreateVersion())
	}
}

// TestConcurrentReadersUpgrade has readers at increasing versions race on
// one page; all succeed or abort cleanly, and the final state is the newest.
func TestConcurrentReadersUpgrade(t *testing.T) {
	p := New(0, 0, 8, 0)
	const versions = 50
	for v := uint64(1); v <= versions; v++ {
		p.Enqueue(mod(v, upd(1, int64(v))))
	}
	p.Enqueue(mod(0, ins(1, 0))) // ignored: version 0 <= applied

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				v := uint64(rng.Intn(versions) + 1)
				err := p.View(v, func(rows Rows) error {
					if r, ok := rows.Get(1); ok && r[0].AsInt() > int64(v) {
						t.Errorf("view@%d saw future value %d", v, r[0].AsInt())
					}
					return nil
				})
				if err != nil && !errors.Is(err, ErrVersionConflict) {
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	got := rowsAt(t, p, versions)
	if got[1] != versions {
		t.Fatalf("final = %v", got)
	}
}

// TestApplyPrefixDeterministic (testing/quick): materializing any cut point
// v of a random modification sequence equals replaying the prefix <= v by
// hand — write-set application is deterministic and prefix-consistent.
func TestApplyPrefixDeterministic(t *testing.T) {
	f := func(seed int64, nOps uint8, cut uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nOps%40) + 1
		p := New(0, 0, 8, 0)
		ref := map[RowID]int64{}
		cutV := uint64(cut%uint8(n)) + 1
		for v := uint64(1); v <= uint64(n); v++ {
			rid := RowID(rng.Intn(5))
			var op RowOp
			switch rng.Intn(3) {
			case 0:
				op = ins(rid, int64(v)*100)
			case 1:
				op = upd(rid, int64(v))
			default:
				op = del(rid)
			}
			p.Enqueue(mod(v, op))
			if v <= cutV {
				switch op.Kind {
				case OpInsert, OpUpdate:
					ref[rid] = op.Data[0].AsInt()
				case OpDelete:
					delete(ref, rid)
				}
			}
		}
		got := map[RowID]int64{}
		err := p.View(cutV, func(rows Rows) error {
			rows.All(func(rid RowID, r value.Row) {
				got[rid] = r[0].AsInt()
			})
			return nil
		})
		if err != nil {
			return false
		}
		if len(got) != len(ref) {
			return false
		}
		for k, v := range ref {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
