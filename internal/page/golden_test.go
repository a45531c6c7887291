package page_test

import (
	"encoding/hex"
	"math"
	"testing"

	"dmv/internal/page"
	"dmv/internal/scrub"
	"dmv/internal/value"
)

// TestEncodingGolden pins the bytes a mixed row has in every encoding that
// leaves the process or is compared across replicas: the row codec (wire and
// WAL), the page image (wire and checkpoint files), Row.Key and the scrub
// digest built from it. The expected bytes were recorded before Value folded
// its int64 and float64 into one payload word; a change to Value's layout
// must leave all of them as they are.
func TestEncodingGolden(t *testing.T) {
	r := value.Row{
		value.NewInt(-42),
		value.NewInt(math.MinInt64),
		value.NewInt(math.MaxInt64),
		value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(math.NaN()),
		value.NewFloat(math.Inf(1)),
		value.NewFloat(math.Inf(-1)),
		value.NewFloat(3.25),
		value.NewString(""),
		value.NewString("héllo"),
		value.NewNull(),
	}
	const rowHex = "0b015301ffffffffffffffffff0101feffffffffffffffff0102000000000000008002010000000000f87f02000000000000f07f02000000000000f0ff020000000000000a400300030668c3a96c6c6f00"
	if got := hex.EncodeToString(value.AppendRow(nil, r)); got != rowHex {
		t.Errorf("AppendRow = %s, want %s", got, rowHex)
	}
	img := page.Image{Table: 3, Page: 7, Version: 12, CreateVer: 2, Rows: map[page.RowID]value.Row{5: r, 1: {value.NewInt(1)}}}
	if got, want := hex.EncodeToString(page.AppendImage(nil, img)), "060e0c0202020101020a"+rowHex; got != want {
		t.Errorf("AppendImage = %s, want %s", got, want)
	}
	const key = "i-42;i-9223372036854775808;i9223372036854775807;f-0p-1074;fNaN;f+Inf;f-Inf;f7318349394477056p-51;s0:;s6:héllo;n;"
	if got := r.Key(); got != key {
		t.Errorf("Row.Key = %q, want %q", got, key)
	}
	const hash = "40fca102257db051bc9fdf6b7a8b02aa7608417453b644fbb2c841c76fbe2f64"
	ascending := func(fn func(page.RowID, value.Row)) {
		fn(1, img.Rows[1])
		fn(5, img.Rows[5])
	}
	if pd := scrub.HashPage(3, 7, ascending); hex.EncodeToString(pd.Hash[:]) != hash {
		t.Errorf("HashPage = %x, want %s", pd.Hash, hash)
	}
}
