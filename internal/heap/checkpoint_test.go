package heap

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"dmv/internal/page"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// TestCheckpointBytesStable: one checkpoint encodes to the same bytes every
// time, whatever order its row maps iterate in, and decodes to itself.
func TestCheckpointBytesStable(t *testing.T) {
	e, tbl := newTestEngine(t)
	loadItems(t, e, tbl, 40)
	for i := 1; i <= 5; i++ {
		tx := e.BeginUpdate()
		rids, _ := tx.LookupEq(tbl, 0, value.Row{value.NewInt(int64(i))})
		row, _, _ := tx.Fetch(tbl, rids[0])
		row[2] = value.NewInt(int64(1000 + i))
		if err := tx.Update(tbl, rids[0], row); err != nil {
			t.Fatalf("update: %v", err)
		}
		if _, err := tx.Commit(nil); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	cp := e.FuzzyCheckpoint()
	first, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, first) {
			t.Fatalf("encoding %d of one checkpoint differs from the first", i+1)
		}
	}
	got, err := DecodeCheckpoint(first)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("decoded checkpoint differs from the encoded one:\n got %+v\nwant %+v", got, cp)
	}
}

// FuzzCheckpoint: arbitrary bytes (what a crash may leave in a checkpoint
// file) decode or fail without panicking, allocate a bounded multiple of
// their length, and whatever decodes re-encodes to bytes that decode and
// encode to themselves.
func FuzzCheckpoint(f *testing.F) {
	sample := &Checkpoint{
		Versions: vclock.Vector{7, 0, 3},
		Images: []page.Image{
			{Table: 0, Page: 2, Version: 7, CreateVer: 1, Rows: map[page.RowID]value.Row{
				9: {value.NewInt(9), value.NewString("title"), value.NewFloat(2.5)},
				3: {value.NewInt(3), value.NewNull(), value.NewString("")},
			}},
			{Table: 2, Page: 0, Version: 3, Rows: map[page.RowID]value.Row{}},
		},
	}
	for _, cp := range []*Checkpoint{sample, {}} {
		b, err := EncodeCheckpoint(cp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add([]byte(checkpointMagic + "\x00\x80\x80\x80\x80\x08")) // an image count far past the bytes
	f.Add([]byte("not a checkpoint"))
	f.Fuzz(func(t *testing.T, b []byte) {
		// The fewest bytes of three decodes, as in the transport's
		// FuzzWireBodies: TotalAlloc counts the whole process.
		var cp *Checkpoint
		var err error
		var alloc uint64
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			cp, err = DecodeCheckpoint(b)
			runtime.ReadMemStats(&after)
			if a := after.TotalAlloc - before.TotalAlloc; i == 0 || a < alloc {
				alloc = a
			}
		}
		if alloc > 128*uint64(len(b))+4096 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(b), alloc)
		}
		if err != nil {
			return
		}
		enc, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		again, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if got, _ := EncodeCheckpoint(again); !bytes.Equal(got, enc) {
			t.Fatalf("round trip = %x, want %x", got, enc)
		}
	})
}
