package heap

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dmv/internal/page"
	"dmv/internal/value"
)

// buildPair creates a master and n replica engines with identical schema and
// initial data.
func buildPair(t testing.TB, replicas int, rows int) (*Engine, []*Engine, int) {
	t.Helper()
	mk := func() (*Engine, int) {
		e := NewEngine(Options{PageCap: 4})
		tid, err := e.CreateTable(TableDef{
			Name: "t",
			Cols: []Column{
				{Name: "id", Type: value.TInt},
				{Name: "grp", Type: value.TInt},
				{Name: "val", Type: value.TInt},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.CreateIndex(tid, IndexDef{Name: "pk", Cols: []int{0}, Unique: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CreateIndex(tid, IndexDef{Name: "grp", Cols: []int{1}}); err != nil {
			t.Fatal(err)
		}
		data := make([]value.Row, rows)
		for i := range data {
			data[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 5)), value.NewInt(0)}
		}
		if err := e.Load(tid, data); err != nil {
			t.Fatal(err)
		}
		return e, tid
	}
	master, tid := mk()
	slaves := make([]*Engine, replicas)
	for i := range slaves {
		slaves[i], _ = mk()
	}
	return master, slaves, tid
}

// randomTxn runs one random update transaction on the master, replicating
// through broadcast, and returns the commit vector.
func randomTxn(t testing.TB, rng *rand.Rand, master *Engine, tid int, nextID *int64, bcast func(*WriteSet) error) []uint64 {
	t.Helper()
	tx := master.BeginUpdate()
	// Guarantee at least one effective operation so every transaction
	// produces a write-set (an update/delete may find no target row).
	*nextID++
	if _, err := tx.Insert(tid, value.Row{
		value.NewInt(*nextID + 1000),
		value.NewInt(int64(rng.Intn(5))),
		value.NewInt(int64(rng.Intn(100))),
	}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	nOps := rng.Intn(3)
	for i := 0; i < nOps; i++ {
		switch rng.Intn(4) {
		case 0: // insert
			*nextID++
			if _, err := tx.Insert(tid, value.Row{
				value.NewInt(*nextID + 1000),
				value.NewInt(int64(rng.Intn(5))),
				value.NewInt(int64(rng.Intn(100))),
			}); err != nil {
				t.Fatalf("insert: %v", err)
			}
		case 1, 2: // update random existing row via pk index
			target := value.Row{value.NewInt(int64(rng.Intn(20)))}
			rids, err := tx.LookupEq(tid, 0, target)
			if err != nil {
				t.Fatal(err)
			}
			if len(rids) == 0 {
				continue
			}
			row, ok, err := tx.Fetch(tid, rids[0])
			if err != nil || !ok {
				continue
			}
			row[2] = value.NewInt(int64(rng.Intn(1000)))
			if rng.Intn(4) == 0 {
				row[1] = value.NewInt(int64(rng.Intn(5))) // indexed column change
			}
			if err := tx.Update(tid, rids[0], row); err != nil {
				t.Fatal(err)
			}
		case 3: // delete
			target := value.Row{value.NewInt(int64(rng.Intn(20)))}
			rids, err := tx.LookupEq(tid, 0, target)
			if err != nil {
				t.Fatal(err)
			}
			if len(rids) == 1 {
				if err := tx.Delete(tid, rids[0]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ver, err := tx.Commit(bcast)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	return ver
}

// stateAt dumps the table contents visible at version v, sorted by primary
// key, via a full scan.
func stateAt(t testing.TB, e *Engine, tid int, v uint64) []string {
	t.Helper()
	tx := e.BeginRead([]uint64{v})
	var rows []string
	err := tx.Scan(tid, func(rid page.RowID, row value.Row) bool {
		rows = append(rows, fmt.Sprintf("%d|%d|%d", row[0].AsInt(), row[1].AsInt(), row[2].AsInt()))
		return true
	})
	if err != nil {
		t.Fatalf("scan@%d: %v", v, err)
	}
	sort.Strings(rows)
	return rows
}

// indexStateAt dumps the grp index contents visible at v.
func indexStateAt(t testing.TB, e *Engine, tid int, v uint64) []string {
	t.Helper()
	tx := e.BeginRead([]uint64{v})
	var out []string
	err := tx.IndexScan(tid, 1, nil, func(key value.Row, rid page.RowID) bool {
		out = append(out, fmt.Sprintf("%v", key))
		return true
	})
	if err != nil {
		t.Fatalf("index scan@%d: %v", v, err)
	}
	sort.Strings(out)
	return out
}

func equalStates(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPropertySnapshotEquivalence (testing/quick): after a random committed
// history, a replica read at ANY intermediate version equals a second
// replica that only received the prefix of write-sets up to that version —
// DESIGN.md property (a): reads at V observe exactly the prefix <= V.
func TestPropertySnapshotEquivalence(t *testing.T) {
	f := func(seed int64, nTxns uint8, cutRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nTxns%15) + 2
		cut := int(cutRaw)%n + 1

		master, slaves, tid := buildPair(t, 2, 20)
		full, prefix := slaves[0], slaves[1]

		var log []*WriteSet
		var nextID int64
		var cutVer uint64
		for i := 0; i < n; i++ {
			ver := randomTxn(t, rng, master, tid, &nextID, func(ws *WriteSet) error {
				log = append(log, ws)
				return full.ApplyWriteSet(ws)
			})
			if i == cut-1 {
				cutVer = ver[tid]
			}
		}
		// The prefix replica receives only the first `cut` write-sets.
		applied := 0
		for _, ws := range log {
			if ws.Version[tid] <= cutVer {
				if err := prefix.ApplyWriteSet(ws); err != nil {
					t.Fatal(err)
				}
				applied++
			}
		}
		if applied == 0 {
			return true
		}
		// A read at cutVer on the fully-replicated replica must equal the
		// latest state of the prefix replica.
		a := stateAt(t, full, tid, cutVer)
		b := stateAt(t, prefix, tid, cutVer)
		if !equalStates(a, b) {
			t.Logf("full@%d = %v", cutVer, a)
			t.Logf("prefix  = %v", b)
			return false
		}
		// Index views agree too.
		return equalStates(indexStateAt(t, full, tid, cutVer), indexStateAt(t, prefix, tid, cutVer))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyReplicaConvergence: after any history, master and replica are
// identical at the final version, including secondary indexes.
func TestPropertyReplicaConvergence(t *testing.T) {
	f := func(seed int64, nTxns uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nTxns%25) + 1
		master, slaves, tid := buildPair(t, 1, 20)
		slave := slaves[0]
		var nextID int64
		var last []uint64
		for i := 0; i < n; i++ {
			last = randomTxn(t, rng, master, tid, &nextID, func(ws *WriteSet) error {
				return slave.ApplyWriteSet(ws)
			})
		}
		v := last[tid]
		if !equalStates(stateAt(t, master, tid, v), stateAt(t, slave, tid, v)) {
			return false
		}
		return equalStates(indexStateAt(t, master, tid, v), indexStateAt(t, slave, tid, v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMigrationEquivalence: a stale node caught up by page-delta
// migration is identical to the support slave at the target version —
// DESIGN.md property (d).
func TestPropertyMigrationEquivalence(t *testing.T) {
	f := func(seed int64, nTxns uint8, staleAfter uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nTxns%20) + 2
		stopAt := int(staleAfter) % n

		master, slaves, tid := buildPair(t, 2, 20)
		support, stale := slaves[0], slaves[1]
		var nextID int64
		var last []uint64
		for i := 0; i < n; i++ {
			last = randomTxn(t, rng, master, tid, &nextID, func(ws *WriteSet) error {
				if err := support.ApplyWriteSet(ws); err != nil {
					return err
				}
				if i < stopAt {
					return stale.ApplyWriteSet(ws) // stale node dies after stopAt
				}
				return nil
			})
		}
		delta := fetchChanged(t, stale, support)
		if err := stale.InstallDelta(delta); err != nil {
			t.Fatal(err)
		}
		v := last[tid]
		if !equalStates(stateAt(t, support, tid, v), stateAt(t, stale, tid, v)) {
			return false
		}
		return equalStates(indexStateAt(t, support, tid, v), indexStateAt(t, stale, tid, v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCheckpointRestoreEquivalence: restore(checkpoint(s)) == s.
func TestPropertyCheckpointRestoreEquivalence(t *testing.T) {
	f := func(seed int64, nTxns uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nTxns%15) + 1
		master, _, tid := buildPair(t, 0, 20)
		var nextID int64
		var last []uint64
		for i := 0; i < n; i++ {
			last = randomTxn(t, rng, master, tid, &nextID, nil)
		}
		cp := master.FuzzyCheckpoint()
		blob, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeCheckpoint(blob)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _, _ := buildPair(t, 0, 0)
		if err := fresh.RestoreCheckpoint(decoded); err != nil {
			t.Fatal(err)
		}
		v := last[tid]
		return equalStates(stateAt(t, master, tid, v), stateAt(t, fresh, tid, v)) &&
			equalStates(indexStateAt(t, master, tid, v), indexStateAt(t, fresh, tid, v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
