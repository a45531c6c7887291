package persist

import (
	"bytes"
	"reflect"
	"testing"

	"dmv/internal/exec"
	"dmv/internal/scheduler"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// goldenRecord holds one param of every value kind.
var goldenRecord = scheduler.CommitRecord{
	Version: vclock.Vector{3, 0, 300},
	Stmts: []exec.LoggedStmt{{
		Text:   "UPDATE t SET a=?,b=?,c=? WHERE d=?",
		Params: []value.Value{value.NewInt(-300), value.NewFloat(12.5), value.NewString("héllo"), value.NewNull()},
	}},
}

// goldenBytes is EncodeRecord(goldenRecord) as the WAL has always written
// it: segment files on disk hold these bytes, so they never change.
var goldenBytes = []byte{
	0x3, 0x3, 0x0, 0xac, 0x2, // vector
	0x1, // one statement
	0x22, 0x55, 0x50, 0x44, 0x41, 0x54, 0x45, 0x20, 0x74, 0x20, 0x53, 0x45, 0x54, 0x20, 0x61,
	0x3d, 0x3f, 0x2c, 0x62, 0x3d, 0x3f, 0x2c, 0x63, 0x3d, 0x3f, 0x20, 0x57, 0x48, 0x45, 0x52,
	0x45, 0x20, 0x64, 0x3d, 0x3f, // text
	0x4,            // four params
	0x1, 0xd7, 0x4, // Int -300
	0x2, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x29, 0x40, // Float 12.5
	0x3, 0x6, 0x68, 0xc3, 0xa9, 0x6c, 0x6c, 0x6f, // String "héllo"
	0x0, // Null
}

func TestEncodeRecordGolden(t *testing.T) {
	if got := EncodeRecord(goldenRecord); !bytes.Equal(got, goldenBytes) {
		t.Fatalf("EncodeRecord = %#v\nwant %#v", got, goldenBytes)
	}
	if n := testing.AllocsPerRun(100, func() { EncodeRecord(goldenRecord) }); n != 1 {
		t.Errorf("EncodeRecord allocates %.0f times, want 1", n)
	}
	rec, err := DecodeRecord(goldenBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, goldenRecord) {
		t.Fatalf("DecodeRecord = %+v, want %+v", rec, goldenRecord)
	}
}

// TestDecodeRecordTruncated decodes every proper prefix of a record holding
// all four value kinds: each must be an error, never a panic (a short Float
// once indexed past the end of the payload).
func TestDecodeRecordTruncated(t *testing.T) {
	for i := 0; i < len(goldenBytes); i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("prefix of %d bytes panics: %v", i, r)
				}
			}()
			if _, err := DecodeRecord(goldenBytes[:i]); err == nil {
				t.Errorf("prefix of %d bytes decodes without error", i)
			}
		}()
	}
}

// FuzzDecodeRecord: arbitrary payloads decode or fail, never panic, and
// whatever decodes survives an encode/decode round trip unchanged (compared
// as bytes: varints accept overlong input, and NaN is not DeepEqual to
// itself).
func FuzzDecodeRecord(f *testing.F) {
	f.Add(goldenBytes)
	// A one-statement record with one Float param, cut inside the float.
	f.Add(EncodeRecord(scheduler.CommitRecord{Stmts: []exec.LoggedStmt{{
		Text: "x", Params: []value.Value{value.NewFloat(1.5)}}}})[:9])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodeRecord(b)
		if err != nil {
			return
		}
		enc := EncodeRecord(rec)
		again, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", enc, err)
		}
		if got := EncodeRecord(again); !bytes.Equal(got, enc) {
			t.Fatalf("round trip = %x, want %x", got, enc)
		}
	})
}
