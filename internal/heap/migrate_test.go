package heap

import (
	"reflect"
	"testing"

	"dmv/internal/page"
	"dmv/internal/value"
)

// fetchChanged is the donor half of reintegration as Plane.migrate runs it:
// the pages ChangedPages picks, imaged by the donor's PageImages.
func fetchChanged(t testing.TB, joiner, donor *Engine) []page.Image {
	t.Helper()
	var out []page.Image
	for _, s := range ChangedPages(joiner.PageVersions(), donor.PageVersions()) {
		imgs, err := donor.PageImages(s.Table, s.Pages)
		if err != nil {
			t.Fatalf("page images: %v", err)
		}
		out = append(out, imgs...)
	}
	return out
}

// setVal sets the val column of the row with the given id (buildPair's
// schema).
func setVal(tid int, id, val int64) func(tx *UpdateTx) error {
	return func(tx *UpdateTx) error {
		rids, err := tx.LookupEq(tid, 0, value.Row{value.NewInt(id)})
		if err != nil {
			return err
		}
		row, _, err := tx.Fetch(tid, rids[0])
		if err != nil {
			return err
		}
		row[2] = value.NewInt(val)
		return tx.Update(tid, rids[0], row)
	}
}

// checkpointSkipping restores a fresh engine from a fuzzy checkpoint of a
// 20-row, 5-page table taken while an open update held page pg's latch; the
// update then rolls back. The checkpoint has no image of pg, so the
// restored engine lacks its rows. It returns the restored engine and the
// one the checkpoint was taken from.
func checkpointSkipping(t *testing.T, pg page.ID) (restored, donor *Engine, tid int) {
	t.Helper()
	donor, _, tid = buildPair(t, 0, 20)
	tx := donor.BeginUpdate()
	if err := setVal(tid, int64(pg)*4, 1)(tx); err != nil {
		t.Fatalf("update: %v", err)
	}
	cp := donor.FuzzyCheckpoint()
	if err := tx.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if len(cp.Images) != 4 {
		t.Fatalf("checkpoint holds %d images, want 4 (page %d latched)", len(cp.Images), pg)
	}
	restored, _, _ = buildPair(t, 0, 0)
	if err := restored.RestoreCheckpoint(cp); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return restored, donor, tid
}

// TestCheckpointSkippedPageShipsBack: a page the fuzzy checkpoint skipped
// comes back from the donor when the restarted engine reintegrates, even
// though neither side ever committed to it (both are at version 0).
func TestCheckpointSkippedPageShipsBack(t *testing.T) {
	joiner, donor, tid := checkpointSkipping(t, 1)
	if n, _ := joiner.RowCountAt(tid, VersionLatest); n != 16 {
		t.Fatalf("restored engine holds %d rows before reintegration, want 16", n)
	}
	if err := joiner.InstallDelta(fetchChanged(t, joiner, donor)); err != nil {
		t.Fatalf("install: %v", err)
	}
	if n, _ := joiner.RowCountAt(tid, VersionLatest); n != 20 {
		t.Fatalf("restarted engine holds %d of 20 rows after reintegration", n)
	}
}

// TestChangedPages is the shipping rule, case by case: each setup returns a
// joiner and a donor, ChangedPages must pick exactly the listed pages, and
// installing their images must leave the joiner equal to the donor.
func TestChangedPages(t *testing.T) {
	cases := []struct {
		name  string
		setup func(t *testing.T) (joiner, donor *Engine, tid int)
		want  []page.ID
	}{{
		// The donor's mods are all still buffered (applied version 0 on
		// every page), so only its received versions show the change.
		name: "donor mods buffered",
		setup: func(t *testing.T) (*Engine, *Engine, int) {
			master, slaves, tid := buildPair(t, 2, 20)
			for i := int64(0); i < 30; i++ {
				if err := slaves[0].ApplyWriteSet(commitOne(t, master, setVal(tid, i%20, i))); err != nil {
					t.Fatalf("apply: %v", err)
				}
			}
			return slaves[1], slaves[0], tid
		},
		want: []page.ID{0, 1, 2, 3, 4},
	}, {
		// The joiner applied write-set 1, missed 2 and buffered 3, all on
		// page 0: its received version equals the donor's, its applied
		// version does not.
		name: "joiner missed a write-set",
		setup: func(t *testing.T) (*Engine, *Engine, int) {
			master, slaves, tid := buildPair(t, 2, 8)
			donor, joiner := slaves[0], slaves[1]
			for v := int64(1); v <= 3; v++ {
				ws := commitOne(t, master, setVal(tid, v, v))
				if err := donor.ApplyWriteSet(ws); err != nil {
					t.Fatalf("apply: %v", err)
				}
				if v == 2 {
					continue
				}
				if err := joiner.ApplyWriteSet(ws); err != nil {
					t.Fatalf("apply: %v", err)
				}
				if v == 1 {
					if err := joiner.MaterializeAll([]uint64{1}); err != nil {
						t.Fatalf("materialize: %v", err)
					}
				}
			}
			return joiner, donor, tid
		},
		want: []page.ID{0},
	}, {
		// A rolled-back insert left the donor an empty page 4 at version 0
		// that the joiner never allocated: nothing to ship.
		name: "empty never-written page the joiner lacks",
		setup: func(t *testing.T) (*Engine, *Engine, int) {
			donor, slaves, tid := buildPair(t, 1, 16)
			tx := donor.BeginUpdate()
			if _, err := tx.Insert(tid, value.Row{value.NewInt(100), value.NewInt(0), value.NewInt(0)}); err != nil {
				t.Fatalf("insert: %v", err)
			}
			if err := tx.Rollback(); err != nil {
				t.Fatalf("rollback: %v", err)
			}
			if n := len(donor.PageVersions()[tid]); n != 5 {
				t.Fatalf("donor has %d pages, want 5", n)
			}
			return slaves[0], donor, tid
		},
	}, {
		name: "page with rows at version 0 the joiner lacks",
		setup: func(t *testing.T) (*Engine, *Engine, int) {
			return checkpointSkipping(t, 4)
		},
		want: []page.ID{4},
	}, {
		name: "checkpoint-skipped placeholder",
		setup: func(t *testing.T) (*Engine, *Engine, int) {
			return checkpointSkipping(t, 1)
		},
		want: []page.ID{1},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			joiner, donor, tid := c.setup(t)
			var want []PageSet
			if c.want != nil {
				want = []PageSet{{Table: tid, Pages: c.want}}
			}
			if got := ChangedPages(joiner.PageVersions(), donor.PageVersions()); !reflect.DeepEqual(got, want) {
				t.Fatalf("ChangedPages = %v, want %v", got, want)
			}
			if err := joiner.InstallDelta(fetchChanged(t, joiner, donor)); err != nil {
				t.Fatalf("install: %v", err)
			}
			v := donor.MaxVersions().Get(tid)
			if !equalStates(stateAt(t, donor, tid, v), stateAt(t, joiner, tid, v)) ||
				!equalStates(indexStateAt(t, donor, tid, v), indexStateAt(t, joiner, tid, v)) {
				t.Fatalf("joiner differs from the donor at version %d after the install", v)
			}
		})
	}
}
