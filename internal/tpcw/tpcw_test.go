package tpcw

import (
	"math/rand"
	"testing"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/value"
)

func loadEngine(t *testing.T, scale Scale) *heap.Engine {
	t.Helper()
	e := heap.NewEngine(heap.Options{})
	for _, ddl := range SchemaDDL() {
		if err := exec.ExecDDL(e, ddl); err != nil {
			t.Fatalf("ddl: %v", err)
		}
	}
	if err := scale.Load(e); err != nil {
		t.Fatalf("load: %v", err)
	}
	return e
}

func count(t *testing.T, e *heap.Engine, table string) int64 {
	t.Helper()
	tx := e.BeginRead(nil)
	res, err := exec.Run(tx, `SELECT COUNT(*) FROM `+table)
	if err != nil {
		t.Fatalf("count %s: %v", table, err)
	}
	return res.Rows[0][0].AsInt()
}

func TestSchemaHasEightTables(t *testing.T) {
	e := loadEngine(t, Scale{Items: 50, Customers: 20})
	if got := e.NumTables(); got != 8 {
		t.Fatalf("tables = %d, want the paper's 8", got)
	}
	for _, name := range TableNames() {
		if _, ok := e.TableID(name); !ok {
			t.Fatalf("missing table %s", name)
		}
	}
}

func TestDataGeneratorCardinalities(t *testing.T) {
	scale := Scale{Items: 100, Customers: 40}
	e := loadEngine(t, scale)
	checks := map[string]int64{
		"item":       100,
		"customer":   40,
		"address":    80,
		"country":    92,
		"orders":     40,
		"order_line": 120,
		"cc_xacts":   40,
		"author":     25, // floor
	}
	for table, want := range checks {
		if got := count(t, e, table); got != want {
			t.Errorf("%s rows = %d, want %d", table, got, want)
		}
	}
}

// TestDataGeneratorDeterministic: two engines loaded with the same scale are
// identical (every node mmaps the same image).
func TestDataGeneratorDeterministic(t *testing.T) {
	scale := Scale{Items: 60, Customers: 25}
	a := loadEngine(t, scale)
	b := loadEngine(t, scale)
	for _, table := range TableNames() {
		ta := a.BeginRead(nil)
		tb := b.BeginRead(nil)
		ra, err := exec.Run(ta, `SELECT * FROM `+table)
		if err != nil {
			t.Fatalf("scan a.%s: %v", table, err)
		}
		rb, err := exec.Run(tb, `SELECT * FROM `+table)
		if err != nil {
			t.Fatalf("scan b.%s: %v", table, err)
		}
		if len(ra.Rows) != len(rb.Rows) {
			t.Fatalf("%s: %d vs %d rows", table, len(ra.Rows), len(rb.Rows))
		}
		seen := make(map[string]bool, len(ra.Rows))
		for _, r := range ra.Rows {
			seen[r.Key()] = true
		}
		for _, r := range rb.Rows {
			if !seen[r.Key()] {
				t.Fatalf("%s: row %v only in b", table, r)
			}
		}
	}
}

func TestMixPickDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	counts := map[Interaction]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[ShoppingMix.Pick(rng)]++
	}
	updates := 0
	for it, c := range counts {
		if it.IsUpdate() {
			updates += c
		}
	}
	frac := float64(updates) / n
	if frac < 0.17 || frac > 0.23 {
		t.Fatalf("shopping update fraction = %.3f, want ~0.20", frac)
	}
	// Every interaction that has weight must show up.
	for it := Home; it <= AdminConfirm; it++ {
		if it == AdminRequest {
			continue // weight may be ~0 in some mixes
		}
		if counts[it] == 0 {
			t.Errorf("interaction %s never picked", it)
		}
	}
}

func TestInteractionTablesCoverSQL(t *testing.T) {
	// Every interaction must declare a non-empty table set (scheduler
	// routing depends on it).
	for it := Home; it <= AdminConfirm; it++ {
		if len(it.Tables()) == 0 {
			t.Errorf("%s declares no tables", it)
		}
	}
}

// storeOverEngine adapts a single engine to the Store interface for
// workload-only tests.
type storeOverEngine struct{ e *heap.Engine }

type engQuerier struct {
	e  *heap.Engine
	tx heap.Txn
}

// Exec resolves statements through the shared cache, as a node's session
// does, so repeated interactions run cached plans.
func (q engQuerier) Exec(stmt string, params ...value.Value) (*exec.Result, error) {
	p, err := exec.Cached(stmt)
	if err != nil {
		return nil, err
	}
	return p.Exec(q.tx, params)
}

func (s storeOverEngine) Run(readOnly bool, _ []string, fn func(Querier) error) error {
	if readOnly {
		return fn(engQuerier{e: s.e, tx: s.e.BeginRead(nil)})
	}
	tx := s.e.BeginUpdate()
	if err := fn(engQuerier{e: s.e, tx: tx}); err != nil {
		_ = tx.Rollback()
		return err
	}
	_, err := tx.Commit(nil)
	return err
}

func TestBuyConfirmMaintainsInvariants(t *testing.T) {
	scale := Scale{Items: 80, Customers: 30}
	e := loadEngine(t, scale)
	w := NewWorkload(storeOverEngine{e: e}, scale)
	s := w.NewSession(3)

	ordersBefore := count(t, e, "orders")
	for i := 0; i < 15; i++ {
		if err := w.Do(s, ShoppingCart); err != nil {
			t.Fatalf("cart: %v", err)
		}
		if err := w.Do(s, BuyConfirm); err != nil {
			t.Fatalf("buy: %v", err)
		}
	}
	ordersAfter := count(t, e, "orders")
	if ordersAfter != ordersBefore+15 {
		t.Fatalf("orders = %d, want %d", ordersAfter, ordersBefore+15)
	}
	// Every order got a credit-card transaction and >= 1 line.
	if cc := count(t, e, "cc_xacts"); cc != ordersAfter {
		t.Fatalf("cc_xacts = %d, want %d", cc, ordersAfter)
	}
	lines := count(t, e, "order_line")
	if lines < ordersAfter {
		t.Fatalf("order_line = %d < orders %d", lines, ordersAfter)
	}
	// Stock never drops below zero (restocking rule).
	tx := e.BeginRead(nil)
	res, err := exec.Run(tx, `SELECT MIN(i_stock) FROM item`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() < 0 {
		t.Fatalf("negative stock: %v", res.Rows[0][0])
	}
}

func TestCustomerRegistrationSwitchesSession(t *testing.T) {
	scale := Scale{Items: 40, Customers: 10}
	e := loadEngine(t, scale)
	w := NewWorkload(storeOverEngine{e: e}, scale)
	s := w.NewSession(4)
	before := s.Customer
	if err := w.Do(s, CustomerRegistration); err != nil {
		t.Fatalf("register: %v", err)
	}
	if s.Customer == before || s.Customer <= int64(scale.Customers) {
		t.Fatalf("session customer = %d (before %d)", s.Customer, before)
	}
	// The new customer exists and BuyRequest works for it.
	if err := w.Do(s, BuyRequest); err != nil {
		t.Fatalf("buy request for new customer: %v", err)
	}
}

func TestSequencesContinueFromPreload(t *testing.T) {
	scale := Scale{Items: 40, Customers: 10}
	w := NewWorkload(storeOverEngine{e: loadEngine(t, scale)}, scale)
	if got := w.LatestOrderID(); got != int64(scale.NumOrders()) {
		t.Fatalf("initial order seq = %d, want %d", got, scale.NumOrders())
	}
}

func TestMixByName(t *testing.T) {
	for _, name := range []string{"browsing", "shopping", "ordering"} {
		if _, ok := MixByName(name); !ok {
			t.Errorf("missing mix %s", name)
		}
	}
	if _, ok := MixByName("nope"); ok {
		t.Error("unknown mix resolved")
	}
}
