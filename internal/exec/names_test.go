package exec

import (
	"errors"
	"testing"

	"dmv/internal/heap"
	"dmv/internal/value"
)

// The tests below pin how the executor resolves column names: which
// column a reference reads, and when a name that resolves to nothing fails.

// newNamesDB builds two tables that share the column name id, so an
// unqualified id is ambiguous and binds to the first table in FROM.
func newNamesDB(t *testing.T) *heap.Engine {
	t.Helper()
	return newEngine(t, []string{
		`CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(20), i_grp INT)`,
		`CREATE TABLE lo (id INT PRIMARY KEY, v INT)`,
		`CREATE TABLE hi (id INT PRIMARY KEY, w INT)`,
	},
		`INSERT INTO item (i_id, i_title, i_grp) VALUES (1, 'one', 3), (2, 'two', 1), (3, 'three', 2), (4, 'four', 1)`,
		`INSERT INTO lo (id, v) VALUES (1, 100), (2, 200)`,
		`INSERT INTO hi (id, w) VALUES (11, 1100), (12, 1200)`,
	)
}

// queryErr runs q in a read transaction and returns its error.
func queryErr(e *heap.Engine, q string, params ...value.Value) (*Result, error) {
	return Run(e.BeginRead(nil), q, params...)
}

// TestQualifiedAndMixedCaseNames: a reference matches a column or table
// qualifier in any case, qualified by the alias when the table has one.
func TestQualifiedAndMixedCaseNames(t *testing.T) {
	e := newNamesDB(t)
	for q, want := range map[string]string{
		`SELECT I.I_ID, i_title FROM item I WHERE I.i_id = 2`:      "2,two",
		`SELECT i.i_id, I_TITLE FROM item i WHERE i_ID = 3`:        "3,three",
		`SELECT item.i_id, ITEM.I_TITLE FROM item WHERE i_id <= 2`: "1,one 2,two",
		`SELECT Item.I_Title FROM item WHERE ITEM.i_id = 4`:        "four",
	} {
		if got := rowsText(query(t, e, q)); got != want {
			t.Errorf("%s: rows %q, want %q", q, got, want)
		}
	}
	// Under an alias the table's own name no longer qualifies.
	if _, err := queryErr(e, `SELECT i_id FROM item x WHERE item.i_id = 1`); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("table name under an alias: err %v, want ErrUnknownColumn", err)
	}
}

// TestDuplicateNameBindsFirstTable: an unqualified name two FROM tables
// share reads the first of them.
func TestDuplicateNameBindsFirstTable(t *testing.T) {
	e := newNamesDB(t)
	for q, want := range map[string]string{
		`SELECT id, v, w FROM lo JOIN hi ON hi.id = lo.id + 10 ORDER BY id`:          "1,100,1100 2,200,1200",
		`SELECT id, v, w FROM hi JOIN lo ON hi.id = lo.id + 10 ORDER BY id DESC`:     "12,200,1200 11,100,1100",
		`SELECT lo.id, hi.id FROM hi JOIN lo ON hi.id = lo.id + 10 WHERE id = 12`:    "2,12",
		`SELECT hi.id FROM lo JOIN hi ON hi.id = lo.id + 10 WHERE id = 1`:            "11",
		`SELECT id, COUNT(*) FROM hi JOIN lo ON hi.id = lo.id + 10 GROUP BY id`:      "11,1 12,1",
		`SELECT lo.id AS x FROM lo JOIN hi ON hi.id = lo.id + 10 ORDER BY hi.w DESC`: "2 1",
	} {
		if got := rowsText(query(t, e, q)); got != want {
			t.Errorf("%s: rows %q, want %q", q, got, want)
		}
	}
}

// TestAliasResolution: ORDER BY, GROUP BY and HAVING may name a SELECT
// alias, but a real column of that name wins over it.
func TestAliasResolution(t *testing.T) {
	e := newNamesDB(t)
	for q, want := range map[string]string{
		`SELECT i_id AS x, i_title FROM item ORDER BY x DESC`:                       "4,four 3,three 2,two 1,one",
		`SELECT i_grp AS g, COUNT(*) AS n FROM item GROUP BY g ORDER BY g`:          "1,2 2,1 3,1",
		`SELECT i_grp AS g, COUNT(*) AS n FROM item GROUP BY g HAVING n > 1`:        "1,2",
		`SELECT i_grp AS g, SUM(i_id) AS s FROM item GROUP BY g ORDER BY s DESC, g`: "1,6 2,3 3,1",
		`SELECT i_grp + 1 AS g FROM item WHERE i_id < 3 ORDER BY g`:                 "2 4",
		// The real column i_grp wins over the alias i_grp (the item id).
		`SELECT i_id AS i_grp, i_grp AS g FROM item ORDER BY i_grp, i_id`:                     "2,1 4,1 3,2 1,3",
		`SELECT i_id AS i_grp, COUNT(*) AS n FROM item GROUP BY i_grp ORDER BY n DESC, i_grp`: "2,2 3,1 1,1",
	} {
		if got := rowsText(query(t, e, q)); got != want {
			t.Errorf("%s: rows %q, want %q", q, got, want)
		}
	}
}

// TestUpdateReadsOwnColumn: a SET expression reads the row's old value of
// the column it assigns.
func TestUpdateReadsOwnColumn(t *testing.T) {
	e := newNamesDB(t)
	tx := e.BeginUpdate()
	res, err := Run(tx, `UPDATE item SET i_grp = i_grp + 1, i_title = I_TITLE WHERE i_id >= 3`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Fatalf("affected %d, want 2", res.Affected)
	}
	if got := rowsText(query(t, e, `SELECT i_id, i_title, i_grp FROM item ORDER BY i_id`)); got != "1,one,3 2,two,1 3,three,3 4,four,2" {
		t.Fatalf("rows after update: %q", got)
	}
}

// TestInsertValuesColumnUnknown: no column is in scope in INSERT VALUES.
func TestInsertValuesColumnUnknown(t *testing.T) {
	e := newNamesDB(t)
	tx := e.BeginUpdate()
	defer func() { _ = tx.Rollback() }()
	if _, err := Run(tx, `INSERT INTO lo (id, v) VALUES (5, id)`); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("column in VALUES: err %v, want ErrUnknownColumn", err)
	}
}

// TestUnknownSelectColumnFailsPerRow: an unknown name in the SELECT list or
// ORDER BY fails when a row is evaluated, so a query that keeps no row
// returns no error; a grand aggregate over no rows still evaluates its one
// group. In WHERE, an unknown name fails at planning.
func TestUnknownSelectColumnFailsPerRow(t *testing.T) {
	e := newNamesDB(t)
	for _, q := range []string{
		`SELECT nope FROM item`,
		`SELECT i_id FROM item ORDER BY nope`,
		`SELECT i_grp, COUNT(*) FROM item GROUP BY nope`,
		`SELECT i_id, item.nope FROM item WHERE i_id = 2`,
		`SELECT nope, COUNT(*) FROM item WHERE i_id > 100`,
		`SELECT i_id FROM item WHERE nope = 1`,
		`SELECT i_id FROM item WHERE i_id > 100 AND nope = 1`,
	} {
		if _, err := queryErr(e, q); !errors.Is(err, ErrUnknownColumn) {
			t.Errorf("%s: err %v, want ErrUnknownColumn", q, err)
		}
	}
	for _, q := range []string{
		`SELECT nope FROM item WHERE i_id > 100`,
		`SELECT i_id FROM item WHERE i_id > 100 ORDER BY nope`,
		`SELECT nope, COUNT(*) FROM item WHERE i_id > 100 GROUP BY i_grp`,
	} {
		res, err := queryErr(e, q)
		if err != nil || len(res.Rows) != 0 {
			t.Errorf("%s over no rows: %v, %v; want no rows and no error", q, res, err)
		}
	}
}

// TestAggregatesInHavingAndOrderBy: an aggregate that only HAVING or ORDER
// BY names is computed per group like one in the SELECT list.
func TestAggregatesInHavingAndOrderBy(t *testing.T) {
	e := newNamesDB(t)
	for q, want := range map[string]string{
		`SELECT i_grp FROM item GROUP BY i_grp HAVING COUNT(*) > 1`:                                 "1",
		`SELECT i_grp FROM item GROUP BY i_grp ORDER BY COUNT(*) DESC, SUM(i_id) DESC`:              "1 2 3",
		`SELECT i_grp, SUM(i_id) FROM item GROUP BY i_grp HAVING SUM(i_id) >= 3 ORDER BY SUM(i_id)`: "2,3 1,6",
		`SELECT i_grp, COUNT(*) FROM item GROUP BY i_grp HAVING COUNT(i_title) = 1 ORDER BY i_grp`:  "2,1 3,1",
		`SELECT COUNT(*), SUM(i_grp) FROM item HAVING SUM(i_id) = 10`:                               "4,7",
	} {
		if got := rowsText(query(t, e, q)); got != want {
			t.Errorf("%s: rows %q, want %q", q, got, want)
		}
	}
}
