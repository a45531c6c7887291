// Micro-benchmarks of the core mechanisms (make bench), plus the two
// page-shipping count claims of EXPERIMENTS.md's ablation table as tests.
// The paper's figures are asserted by the shape tests in
// internal/experiments and printed by cmd/dmv-bench.
//
// Run: go test -bench=. -benchmem
package dmv_test

import (
	"testing"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/page"
	"dmv/internal/tpcw"
	"dmv/internal/value"
)

// newKVEngine builds an engine with one table t(id INT, v INT), a unique
// index on id, and rows (i, 0) for i < rows.
func newKVEngine(tb testing.TB, rows int) (*heap.Engine, int) {
	tb.Helper()
	e := heap.NewEngine(heap.Options{})
	tid, err := e.CreateTable(heap.TableDef{
		Name: "t",
		Cols: []heap.Column{{Name: "id", Type: value.TInt}, {Name: "v", Type: value.TInt}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := e.CreateIndex(tid, heap.IndexDef{Name: "pk", Cols: []int{0}, Unique: true}); err != nil {
		tb.Fatal(err)
	}
	data := make([]value.Row, rows)
	for i := range data {
		data[i] = value.Row{value.NewInt(int64(i)), value.NewInt(0)}
	}
	if err := e.Load(tid, data); err != nil {
		tb.Fatal(err)
	}
	return e, tid
}

// setV runs one update transaction setting row id's v, handing the
// write-set to apply (nil: none).
func setV(tb testing.TB, e *heap.Engine, tid int, id, v int64, apply func(*heap.WriteSet) error) {
	tb.Helper()
	tx := e.BeginUpdate()
	rids, err := tx.LookupEq(tid, 0, value.Row{value.NewInt(id)})
	if err != nil || len(rids) != 1 {
		tb.Fatalf("lookup %d: %v (%d rids)", id, err, len(rids))
	}
	row, _, err := tx.Fetch(tid, rids[0])
	if err != nil {
		tb.Fatal(err)
	}
	row[1] = value.NewInt(v)
	if err := tx.Update(tid, rids[0], row); err != nil {
		tb.Fatal(err)
	}
	if _, err := tx.Commit(apply); err != nil {
		tb.Fatal(err)
	}
}

// shipDelta catches a freshly loaded replica up to master by page shipping
// and returns it with the number of pages shipped.
func shipDelta(t *testing.T, master *heap.Engine, rows int) (*heap.Engine, int) {
	t.Helper()
	stale, _ := newKVEngine(t, rows)
	var delta []page.Image
	for _, s := range heap.ChangedPages(stale.PageVersions(), master.PageVersions()) {
		imgs, err := master.PageImages(s.Table, s.Pages)
		if err != nil {
			t.Fatal(err)
		}
		delta = append(delta, imgs...)
	}
	if err := stale.InstallDelta(delta); err != nil {
		t.Fatal(err)
	}
	return stale, len(delta)
}

// TestPageShipCollapsesLogReplay: 2 000 updates over 50 hot rows reach a
// stale replica as at most one shipped page, because page shipping
// collapses each page's modification chain, where log replay applies all
// 2 000 records. Both catch-up paths end at the master's state.
func TestPageShipCollapsesLogReplay(t *testing.T) {
	const hotRows, updates = 50, 2000
	master, tid := newKVEngine(t, hotRows)
	var log []*heap.WriteSet
	for i := 0; i < updates; i++ {
		setV(t, master, tid, int64(i%hotRows), int64(i), func(ws *heap.WriteSet) error {
			log = append(log, ws)
			return nil
		})
	}
	shipped, pages := shipDelta(t, master, hotRows)
	if pages > 1 {
		t.Errorf("page shipping sent %d pages for %d hot rows, want <= 1", pages, hotRows)
	}
	replayed, _ := newKVEngine(t, hotRows)
	for _, ws := range log {
		if err := replayed.ApplyWriteSet(ws); err != nil {
			t.Fatal(err)
		}
	}
	if len(log) != updates {
		t.Fatalf("log replay applied %d records, want %d", len(log), updates)
	}
	v := master.MaxVersions()[tid]
	want, err := master.TableDigestAt(tid, v, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*heap.Engine{"page-shipped": shipped, "log-replayed": replayed} {
		got, err := e.TableDigestAt(tid, v, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Root != want.Root {
			t.Errorf("%s replica diverges from the master at version %d", name, v)
		}
	}
}

// TestCheckpointAgeShipsFewerPagesThanCommits: a replica 100, 1 000 and
// 4 000 commits behind ships a non-decreasing number of pages, each far
// below the commits it missed, since repeated updates to a page collapse.
func TestCheckpointAgeShipsFewerPagesThanCommits(t *testing.T) {
	const rows = 2000
	prev := 0
	for _, behind := range []int{100, 1000, 4000} {
		master, tid := newKVEngine(t, rows)
		for j := 0; j < behind; j++ {
			setV(t, master, tid, int64(j%rows), int64(j), nil)
		}
		_, pages := shipDelta(t, master, rows)
		t.Logf("%d commits behind: %d pages shipped", behind, pages)
		if pages < prev {
			t.Errorf("%d commits behind shipped %d pages, fewer than the %d of a fresher replica", behind, pages, prev)
		}
		if pages*10 > behind {
			t.Errorf("%d commits behind shipped %d pages, want <= 1/10 of the commits", behind, pages)
		}
		prev = pages
	}
}

// BenchmarkAblation_LazyVsEagerApply measures the cost structure behind lazy
// application: applying a write-set eagerly on receipt (per page) versus the
// enqueue-only path plus one lazy materialization.
func BenchmarkAblation_LazyVsEagerApply(b *testing.B) {
	mkEngines := func() (*heap.Engine, *heap.Engine, int) {
		master, tid := newKVEngine(b, 1000)
		slave, _ := newKVEngine(b, 1000)
		return master, slave, tid
	}
	b.Run("lazy", func(b *testing.B) {
		master, slave, tid := mkEngines()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx := master.BeginUpdate()
			rids, _ := tx.LookupEq(tid, 0, value.Row{value.NewInt(int64(i % 1000))})
			row, _, _ := tx.Fetch(tid, rids[0])
			row[1] = value.NewInt(int64(i))
			if err := tx.Update(tid, rids[0], row); err != nil {
				b.Fatal(err)
			}
			if _, err := tx.Commit(func(ws *heap.WriteSet) error { return slave.ApplyWriteSet(ws) }); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(slave.PendingMods()), "pending_mods")
	})
	b.Run("eager", func(b *testing.B) {
		master, slave, tid := mkEngines()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx := master.BeginUpdate()
			rids, _ := tx.LookupEq(tid, 0, value.Row{value.NewInt(int64(i % 1000))})
			row, _, _ := tx.Fetch(tid, rids[0])
			row[1] = value.NewInt(int64(i))
			if err := tx.Update(tid, rids[0], row); err != nil {
				b.Fatal(err)
			}
			ver, err := tx.Commit(func(ws *heap.WriteSet) error { return slave.ApplyWriteSet(ws) })
			if err != nil {
				b.Fatal(err)
			}
			// Eager: materialize immediately instead of waiting for a reader.
			if err := slave.MaterializeAll(ver); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- micro-benchmarks of the core mechanisms ----------------------------------

func newBenchEngine(b *testing.B, rows int) (*heap.Engine, int) {
	b.Helper()
	e := heap.NewEngine(heap.Options{})
	tid, err := e.CreateTable(heap.TableDef{
		Name: "t",
		Cols: []heap.Column{
			{Name: "id", Type: value.TInt},
			{Name: "grp", Type: value.TInt},
			{Name: "v", Type: value.TString},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.CreateIndex(tid, heap.IndexDef{Name: "pk", Cols: []int{0}, Unique: true}); err != nil {
		b.Fatal(err)
	}
	if _, err := e.CreateIndex(tid, heap.IndexDef{Name: "grp", Cols: []int{1}}); err != nil {
		b.Fatal(err)
	}
	data := make([]value.Row, rows)
	for i := range data {
		data[i] = value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 100)), value.NewString("payload")}
	}
	if err := e.Load(tid, data); err != nil {
		b.Fatal(err)
	}
	return e, tid
}

func BenchmarkHeap_PointRead(b *testing.B) {
	e, tid := newBenchEngine(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.BeginRead(nil)
		rids, err := tx.LookupEq(tid, 0, value.Row{value.NewInt(int64(i % 10000))})
		if err != nil || len(rids) != 1 {
			b.Fatalf("lookup: %v (%d)", err, len(rids))
		}
		if _, ok, err := tx.Fetch(tid, rids[0]); err != nil || !ok {
			b.Fatalf("fetch: %v", err)
		}
	}
}

func BenchmarkHeap_UpdateCommit(b *testing.B) {
	e, tid := newBenchEngine(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.BeginUpdate()
		rids, _ := tx.LookupEq(tid, 0, value.Row{value.NewInt(int64(i % 10000))})
		row, _, _ := tx.Fetch(tid, rids[0])
		row[2] = value.NewString("updated")
		if err := tx.Update(tid, rids[0], row); err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Commit(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeap_WriteSetApply(b *testing.B) {
	master, tid := newBenchEngine(b, 10000)
	slave, _ := newBenchEngine(b, 10000)
	sets := make([]*heap.WriteSet, 0, b.N)
	for i := 0; i < b.N; i++ {
		tx := master.BeginUpdate()
		rids, _ := tx.LookupEq(tid, 0, value.Row{value.NewInt(int64(i % 10000))})
		row, _, _ := tx.Fetch(tid, rids[0])
		row[2] = value.NewString("x")
		_ = tx.Update(tid, rids[0], row)
		_, err := tx.Commit(func(ws *heap.WriteSet) error { sets = append(sets, ws); return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for _, ws := range sets {
		if err := slave.ApplyWriteSet(ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQL_ParseSelect(b *testing.B) {
	const q = `
		SELECT i.i_id, i.i_title, a.a_fname, a.a_lname, SUM(ol.ol_qty) AS qty
		FROM item i
		JOIN order_line ol ON ol.ol_i_id = i.i_id
		JOIN orders o ON ol.ol_o_id = o.o_id
		JOIN author a ON i.i_a_id = a.a_id
		WHERE o.o_id > ? AND i.i_subject = ?
		GROUP BY i.i_id, i.i_title, a.a_fname, a.a_lname
		ORDER BY qty DESC LIMIT 50`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Prepare(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTPCW_BestSellersQuery(b *testing.B) {
	e := heap.NewEngine(heap.Options{})
	for _, d := range tpcw.SchemaDDL() {
		if err := exec.ExecDDL(e, d); err != nil {
			b.Fatal(err)
		}
	}
	if err := tpcw.BenchScale().Load(e); err != nil {
		b.Fatal(err)
	}
	p, err := exec.Prepare(`
		SELECT i.i_id, i.i_title, a.a_fname, a.a_lname, SUM(ol.ol_qty) AS qty
		FROM item i
		JOIN order_line ol ON ol.ol_i_id = i.i_id
		JOIN orders o ON ol.ol_o_id = o.o_id
		JOIN author a ON i.i_a_id = a.a_id
		WHERE o.o_id > ? AND i.i_subject = ?
		GROUP BY i.i_id, i.i_title, a.a_fname, a.a_lname
		ORDER BY qty DESC LIMIT 50`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.BeginRead(nil)
		if _, err := p.Exec(tx, []value.Value{value.NewInt(0), value.NewString(tpcw.Subjects[i%len(tpcw.Subjects)])}); err != nil {
			b.Fatal(err)
		}
	}
}
