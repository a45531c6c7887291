package faultdisk

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dmv/internal/wal"
)

func openWAL(t *testing.T, dir string, d *Disk) (*wal.WAL, wal.Recovery) {
	t.Helper()
	w, rec, err := wal.Open(wal.Options{Dir: dir, FS: d})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return w, rec
}

func appendDurable(t *testing.T, w *wal.WAL, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		seq, err := w.Append([]byte(fmt.Sprintf("payload-%06d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := w.WaitDurable(seq); err != nil {
			t.Fatalf("durable %d: %v", i, err)
		}
	}
}

func TestCrashDropsUnsyncedTailDeterministically(t *testing.T) {
	// Two runs of the same seed must recover the identical record count.
	counts := make([]int, 2)
	for run := 0; run < 2; run++ {
		dir := t.TempDir()
		d := New(1234)
		w, _ := openWAL(t, dir, d)
		appendDurable(t, w, 10)
		// The next writes are never fsynced: the disk may keep any seeded
		// fragment of them after the crash.
		d.LoseSyncs(true)
		for i := 0; i < 10; i++ {
			if _, err := w.Append([]byte(fmt.Sprintf("volatile-%06d", i))); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("flush (lost): %v", err)
		}
		if err := d.Crash(); err != nil {
			t.Fatalf("crash: %v", err)
		}
		_ = w.Close() // post-crash close; in-memory WAL is dead either way

		d.PowerOn()
		w2, rec := openWAL(t, dir, d)
		if len(rec.Records) < 10 {
			t.Fatalf("recovered %d records, want >= 10 (synced prefix lost)", len(rec.Records))
		}
		for i := 0; i < 10; i++ {
			if want := fmt.Sprintf("payload-%06d", i); string(rec.Records[i]) != want {
				t.Fatalf("record %d = %q, want %q", i, rec.Records[i], want)
			}
		}
		counts[run] = len(rec.Records)
		w2.Close()
	}
	if counts[0] != counts[1] {
		t.Fatalf("same seed recovered %d vs %d records", counts[0], counts[1])
	}
}

func TestFailSyncsInjectsError(t *testing.T) {
	d := New(7)
	w, _ := openWAL(t, t.TempDir(), d)
	defer w.Close()
	appendDurable(t, w, 3)
	d.FailSyncs(1)
	seq, err := w.Append([]byte("doomed"))
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.WaitDurable(seq); !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("durable err = %v, want ErrSyncFailed", err)
	}
	// fsyncgate: the failure is sticky — the WAL refuses further appends
	// rather than pretend a later fsync can cover the lost pages.
	if _, err := w.Append([]byte("after")); !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("append after failed fsync = %v, want sticky ErrSyncFailed", err)
	}
}

func TestBitFlipCaughtByChecksum(t *testing.T) {
	dir := t.TempDir()
	d := New(99)
	w, _ := openWAL(t, dir, d)
	appendDurable(t, w, 20)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Heavy read corruption: recovery must never return a damaged payload —
	// every surviving record's checksum vouched for it on this read.
	d.SetBitFlip(0.02)
	w2, rec, err := wal.Open(wal.Options{Dir: dir, FS: d})
	if err != nil {
		// Mid-log corruption is a legitimate outcome of flipped reads.
		if !errors.Is(err, wal.ErrCorrupt) {
			t.Fatalf("open: %v", err)
		}
		return
	}
	defer w2.Close()
	for i, p := range rec.Records {
		if want := fmt.Sprintf("payload-%06d", i); string(p) != want {
			t.Fatalf("record %d = %q, want %q (bit flip leaked through CRC)", i, p, want)
		}
	}
}

func TestShortReadsTolerated(t *testing.T) {
	dir := t.TempDir()
	d := New(5)
	w, _ := openWAL(t, dir, d)
	appendDurable(t, w, 50)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	d.SetShortRead(0.3)
	w2, rec, err := wal.Open(wal.Options{Dir: dir, FS: d})
	if err != nil {
		t.Fatalf("open under short reads: %v", err)
	}
	defer w2.Close()
	if len(rec.Records) != 50 {
		t.Fatalf("recovered %d, want 50 (short reads are not data loss)", len(rec.Records))
	}
}

func TestCorruptAtTargetsOneByte(t *testing.T) {
	dir := t.TempDir()
	d := New(3)
	w, _ := openWAL(t, dir, d)
	appendDurable(t, w, 10)
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("segments: %v %d", err, len(ents))
	}
	// Damage an early record's payload: recovery must refuse (mid-log).
	if err := d.CorruptAt(filepath.Join(dir, ents[0].Name()), 30); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	_, _, err = wal.Open(wal.Options{Dir: dir, FS: d})
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open = %v, want ErrCorrupt", err)
	}
}

func TestCrashedDiskRefusesOps(t *testing.T) {
	dir := t.TempDir()
	d := New(1)
	w, _ := openWAL(t, dir, d)
	if err := d.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if _, err := w.Append([]byte("x")); err == nil {
		t.Fatal("append on crashed disk succeeded")
	}
	_ = w.Close()
	if _, err := d.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open = %v, want ErrCrashed", err)
	}
	d.PowerOn()
	w2, _ := openWAL(t, dir, d)
	defer w2.Close()
	appendDurable(t, w2, 1)
}

func TestCountsSeeWritesAndSyncs(t *testing.T) {
	d := New(8)
	w, _ := openWAL(t, t.TempDir(), d)
	defer w.Close()
	appendDurable(t, w, 5)
	writes, syncs := d.Counts()
	if writes == 0 || syncs == 0 {
		t.Fatalf("counts = %d writes / %d syncs, want both > 0", writes, syncs)
	}
}

// TestRollSyncsClosedSegment acknowledges a record that a segment roll
// closed: with 32-byte segments, A fills the first segment and B rolls to a
// second. WaitDurable on both returns only once both are on disk, so after
// a crash the log opens with A and B. A roll that closed the old segment
// unsynced left A in the page cache and the crash tore it.
func TestRollSyncsClosedSegment(t *testing.T) {
	dir := t.TempDir()
	d := New(99)
	w, _, err := wal.Open(wal.Options{Dir: dir, FS: d, SegmentBytes: 32})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var seqs []uint64
	for _, p := range []string{"record-A-payload", "record-B-payload"} {
		seq, err := w.Append([]byte(p))
		if err != nil {
			t.Fatalf("append %s: %v", p, err)
		}
		seqs = append(seqs, seq)
	}
	if n := w.Segments(); n != 2 {
		t.Fatalf("%d segments after two appends, want 2 (B rolls)", n)
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		if err := w.WaitDurable(seqs[i]); err != nil {
			t.Fatalf("wait durable %d: %v", seqs[i], err)
		}
	}
	if err := d.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	_ = w.Close()

	d.PowerOn()
	w2, rec, err := wal.Open(wal.Options{Dir: dir, FS: d, SegmentBytes: 32})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer w2.Close()
	if len(rec.Records) != 2 || string(rec.Records[0]) != "record-A-payload" || string(rec.Records[1]) != "record-B-payload" {
		t.Fatalf("recovered %q, want A and B", rec.Records)
	}
}
