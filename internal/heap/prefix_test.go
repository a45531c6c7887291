package heap

import (
	"math/rand"
	"slices"
	"testing"

	"dmv/internal/page"
	"dmv/internal/value"
)

// TestSeekPrefixMatchesCompareRows checks a cursor's seek against a sorted
// reference: over composite keys that hold NULLs, for probes of every length
// from 0 to one past the key's width, the first entry a cursor hands out is
// the first entry e, in (key, row id) order, with CompareRows(probe, e.key)
// <= 0. A shorter probe is padded with NULLs to the key's width, and a
// longer one is handled, not refused: it lands past every key equal to its
// head, where CompareRows puts the longer probe. Both key kinds are walked:
// a window onto the row (consecutive columns) and keyOf's copy; and both
// transaction kinds: a reader, and an update transaction whose own inserts
// the walk merges.
func TestSeekPrefixMatchesCompareRows(t *testing.T) {
	const width = 3
	rng := rand.New(rand.NewSource(11))
	domain := func() value.Value {
		if n := rng.Intn(5); n > 0 {
			return value.NewInt(int64(n))
		}
		return value.NewNull()
	}
	e := NewEngine(Options{PageCap: 8})
	tbl, err := e.CreateTable(TableDef{Name: "t", Cols: []Column{
		{Name: "a", Type: value.TInt}, {Name: "b", Type: value.TInt},
		{Name: "c", Type: value.TInt}, {Name: "id", Type: value.TInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var ords []int
	colSets := [][]int{{0, 1, 2}, {2, 0, 1}}
	for i, cols := range colSets {
		ord, err := e.CreateIndex(tbl, IndexDef{Name: []string{"ix_window", "ix_copy"}[i], Cols: cols})
		if err != nil {
			t.Fatal(err)
		}
		ords = append(ords, ord)
	}
	row := func(id int) value.Row {
		return value.Row{domain(), domain(), domain(), value.NewInt(int64(id))}
	}
	var rows []value.Row
	for id := 0; id < 300; id++ {
		rows = append(rows, row(id))
	}
	if err := e.Load(tbl, rows); err != nil {
		t.Fatal(err)
	}

	type ent struct {
		key value.Row
		rid page.RowID
	}
	reference := func(tx Txn, cols []int) []ent {
		var ref []ent
		if err := tx.Scan(tbl, func(rid page.RowID, r value.Row) bool {
			key := make(value.Row, len(cols))
			for i, c := range cols {
				key[i] = r[c]
			}
			ref = append(ref, ent{key, rid})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(ref, func(a, b ent) int {
			if c := value.CompareRows(a.key, b.key); c != 0 {
				return c
			}
			return int(a.rid - b.rid)
		})
		return ref
	}
	check := func(name string, tx Txn) {
		for i, cols := range colSets {
			ref := reference(tx, cols)
			var c IndexCursor
			for n := 0; n <= width+1; n++ {
				for trial := 0; trial < 60; trial++ {
					probe := make(value.Row, n)
					for j := range probe {
						probe[j] = domain()
					}
					if err := c.Seek(tx, tbl, ords[i], probe); err != nil {
						t.Fatal(err)
					}
					key, rid, ok := c.Next()
					j := slices.IndexFunc(ref, func(e ent) bool { return value.CompareRows(probe, e.key) <= 0 })
					switch {
					case j < 0 && ok:
						t.Fatalf("%s %v probe %v: cursor gave %v/%d, reference has no entry", name, cols, probe, key, rid)
					case j >= 0 && (!ok || rid != ref[j].rid || value.CompareRows(key, ref[j].key) != 0):
						t.Fatalf("%s %v probe %v: cursor gave %v/%d (ok %v), reference %v/%d", name, cols, probe, key, rid, ok, ref[j].key, ref[j].rid)
					}
				}
			}
		}
	}

	check("reader", e.BeginRead(nil))
	utx := e.BeginUpdate()
	defer func() { _ = utx.Rollback() }()
	for id := 300; id < 340; id++ {
		if _, err := utx.Insert(tbl, row(id)); err != nil {
			t.Fatal(err)
		}
	}
	check("update", utx)
}
