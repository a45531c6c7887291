package heap

import (
	"fmt"
	"sync"
	"testing"

	"dmv/internal/scrub"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// runUpdates commits n update transactions on the master, each touching a
// few rows, and returns the captured write-sets with the final vector.
func runUpdates(t *testing.T, master *Engine, tbl, rows, n int) ([]*WriteSet, vclock.Vector) {
	t.Helper()
	var sets []*WriteSet
	var last vclock.Vector
	for i := 0; i < n; i++ {
		tx := master.BeginUpdate()
		for j := 0; j < 3; j++ {
			pk := int64((i*3+j)%rows + 1)
			rids, err := tx.LookupEq(tbl, 0, value.Row{value.NewInt(pk)})
			if err != nil || len(rids) != 1 {
				t.Fatalf("lookup pk %d: %v (%d rids)", pk, err, len(rids))
			}
			row, ok, err := tx.Fetch(tbl, rids[0])
			if !ok || err != nil {
				t.Fatalf("fetch pk %d: ok=%t err=%v", pk, ok, err)
			}
			row[2] = value.NewInt(int64(1000 + i))
			row[1] = value.NewString(fmt.Sprintf("upd-%d-%d", i, j))
			if err := tx.Update(tbl, rids[0], row); err != nil {
				t.Fatalf("update: %v", err)
			}
		}
		ver, err := tx.Commit(func(ws *WriteSet) error { sets = append(sets, ws); return nil })
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		last = ver
	}
	return sets, last
}

// TestDigestDeterministicAcrossApplyOrder is the satellite determinism
// check: two independently built engines that applied the same write-sets —
// one eagerly materializing after every set, one leaving every mod buffered
// for lazy application — must produce byte-identical root digests at the
// pinned version, and must match the master that executed the updates
// natively. The lazy engine is digested from two goroutines at once so the
// race detector exercises the concurrent snapshot-scan path.
func TestDigestDeterministicAcrossApplyOrder(t *testing.T) {
	const rows = 50
	master, tbl := newTestEngine(t)
	loadItems(t, master, tbl, rows)
	eager, _ := newTestEngine(t)
	loadItems(t, eager, tbl, rows)
	lazy, _ := newTestEngine(t)
	loadItems(t, lazy, tbl, rows)

	sets, final := runUpdates(t, master, tbl, rows, 20)
	for _, ws := range sets {
		if err := eager.ApplyWriteSet(ws); err != nil {
			t.Fatalf("eager apply: %v", err)
		}
		if err := eager.MaterializeAll(ws.Version); err != nil {
			t.Fatalf("materialize: %v", err)
		}
		if err := lazy.ApplyWriteSet(ws); err != nil {
			t.Fatalf("lazy apply: %v", err)
		}
	}

	v := final.Get(tbl)
	want, err := master.TableDigestAt(tbl, v, true)
	if err != nil {
		t.Fatalf("master digest: %v", err)
	}
	got, err := eager.TableDigestAt(tbl, v, true)
	if err != nil {
		t.Fatalf("eager digest: %v", err)
	}
	if got.Root != want.Root {
		t.Fatalf("eager root %x != master root %x", got.Root, want.Root)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := lazy.TableDigestAt(tbl, v, false)
			if err != nil {
				t.Errorf("lazy digest: %v", err)
				return
			}
			if d.Root != want.Root {
				t.Errorf("lazy root %x != master root %x", d.Root, want.Root)
			}
		}()
	}
	wg.Wait()
	if len(want.Pages) == 0 {
		t.Fatal("master digest carried no pages")
	}
}

// TestDigestPinnedVersionIgnoresLaterCommits checks the snapshot property:
// a digest at version v is unchanged by commits after v on the lazy side,
// and a master that already applied past v reports the conflict instead of
// silently hashing newer state.
func TestDigestPinnedVersionIgnoresLaterCommits(t *testing.T) {
	const rows = 30
	master, tbl := newTestEngine(t)
	loadItems(t, master, tbl, rows)
	slave, _ := newTestEngine(t)
	loadItems(t, slave, tbl, rows)

	sets, mid := runUpdates(t, master, tbl, rows, 5)
	for _, ws := range sets {
		if err := slave.ApplyWriteSet(ws); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	v := mid.Get(tbl)
	before, err := slave.TableDigestAt(tbl, v, false)
	if err != nil {
		t.Fatalf("digest at %d: %v", v, err)
	}

	// More commits, shipped to the slave but pinned digest stays at v.
	more, _ := runUpdates(t, master, tbl, rows, 5)
	for _, ws := range more {
		if err := slave.ApplyWriteSet(ws); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	after, err := slave.TableDigestAt(tbl, v, false)
	if err != nil {
		t.Fatalf("re-digest at %d: %v", v, err)
	}
	if before.Root != after.Root {
		t.Fatalf("pinned digest moved: %x -> %x", before.Root, after.Root)
	}
}

// TestCorruptionDivergesAndRepairConverges drives the full tentpole data
// path at engine level: a seeded bit flip silently diverges a slave (same
// applied versions, different bytes), the digest diff names exactly the
// damaged page, and shipping the master's current image through InstallDelta
// restores a matching root.
func TestCorruptionDivergesAndRepairConverges(t *testing.T) {
	const rows = 40
	master, tbl := newTestEngine(t)
	loadItems(t, master, tbl, rows)
	slave, _ := newTestEngine(t)
	loadItems(t, slave, tbl, rows)

	sets, final := runUpdates(t, master, tbl, rows, 10)
	for _, ws := range sets {
		if err := slave.ApplyWriteSet(ws); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	v := final.Get(tbl)

	table, pg, rid, err := slave.CorruptRandomRow(7)
	if err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	if table != tbl {
		t.Fatalf("corrupted table %d, want %d", table, tbl)
	}
	t.Logf("corrupted table %d page %d row %d", table, pg, rid)

	md, err := master.TableDigestAt(tbl, v, true)
	if err != nil {
		t.Fatalf("master digest: %v", err)
	}
	sd, err := slave.TableDigestAt(tbl, v, true)
	if err != nil {
		t.Fatalf("slave digest: %v", err)
	}
	if md.Root == sd.Root {
		t.Fatal("digest did not detect the corruption")
	}
	diff := scrub.DiffPages(md, sd)
	if len(diff) != 1 || diff[0] != pg {
		t.Fatalf("diff pages = %v, want exactly [%d]", diff, pg)
	}

	imgs, err := master.PageImages(tbl, diff)
	if err != nil {
		t.Fatalf("page images: %v", err)
	}
	if err := slave.InstallDelta(imgs); err != nil {
		t.Fatalf("repair: %v", err)
	}
	sd2, err := slave.TableDigestAt(tbl, v, false)
	if err != nil {
		t.Fatalf("post-repair digest: %v", err)
	}
	if sd2.Root != md.Root {
		t.Fatalf("repair did not converge: %x != %x", sd2.Root, md.Root)
	}

	// The repaired slave keeps working: reads resolve through the reconciled
	// derived state.
	tx := slave.BeginRead(nil)
	if _, ok := fetchByPK(t, tx, tbl, 1); !ok {
		t.Fatal("pk 1 unreadable after repair")
	}
}

// TestCorruptRandomRowSameSeedSameDamage pins the injector's determinism:
// identical engines damaged with the same seed diverge identically (equal
// digests to each other, both differing from a clean engine).
func TestCorruptRandomRowSameSeedSameDamage(t *testing.T) {
	build := func() (*Engine, int) {
		e, tbl := newTestEngine(t)
		loadItems(t, e, tbl, 25)
		return e, tbl
	}
	a, tbl := build()
	b, _ := build()
	clean, _ := build()

	ta, pa, ra, err := a.CorruptRandomRow(99)
	if err != nil {
		t.Fatalf("corrupt a: %v", err)
	}
	tb, pb, rb, err := b.CorruptRandomRow(99)
	if err != nil {
		t.Fatalf("corrupt b: %v", err)
	}
	if ta != tb || pa != pb || ra != rb {
		t.Fatalf("same seed picked different victims: (%d,%d,%d) vs (%d,%d,%d)", ta, pa, ra, tb, pb, rb)
	}
	da, err := a.TableDigestAt(tbl, 0, false)
	if err != nil {
		t.Fatalf("digest a: %v", err)
	}
	db, err := b.TableDigestAt(tbl, 0, false)
	if err != nil {
		t.Fatalf("digest b: %v", err)
	}
	dc, err := clean.TableDigestAt(tbl, 0, false)
	if err != nil {
		t.Fatalf("digest clean: %v", err)
	}
	if da.Root != db.Root {
		t.Fatal("same-seed corruption produced different state")
	}
	if da.Root == dc.Root {
		t.Fatal("corruption did not change the digest")
	}
}
