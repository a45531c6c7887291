package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"dmv/internal/exec"
	"dmv/internal/faultdisk"
	"dmv/internal/heap"
	"dmv/internal/scheduler"
	"dmv/internal/simdisk"
	"dmv/internal/wal"
)

// kvDigest hashes a backend's kv table contents in key order — a stable
// state fingerprint that two runs of the same seed must reproduce exactly.
func kvDigest(t *testing.T, b *Backend) string {
	t.Helper()
	return engineDigest(t, b.Eng)
}

// engineDigest is kvDigest over any engine holding the kv table.
func engineDigest(t *testing.T, e *heap.Engine) string {
	t.Helper()
	tx := e.BeginRead(nil)
	res, err := exec.Run(tx, `SELECT k, v FROM kv`)
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	rows := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		rows = append(rows, fmt.Sprintf("%d=%d", r[0].AsInt(), r[1].AsInt()))
	}
	sort.Strings(rows)
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runSeededCrash drives one crash/recovery round for a seed: acked commits
// go through an honest fsync, a volatile suffix rides on lying fsyncs, the
// disk crashes with a seeded torn tail, and the tier is rebuilt from the
// WAL directory. It returns the recovered record count and state digest.
func runSeededCrash(t *testing.T, seed int64) (recovered int, digest string) {
	t.Helper()
	dir := t.TempDir()
	disk := faultdisk.New(seed)
	rng := rand.New(rand.NewSource(seed))

	log, err := OpenLog(DurableConfig{Dir: dir, FS: disk, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	tier := NewTier(Options{Log: log}) // zero backends: the durable log IS the tier here
	const acked = 30
	for i := 0; i < acked; i++ {
		// OnCommit under SyncAlways returns only after the fsync: every one
		// of these records is acknowledged durable.
		tier.OnCommit(rec(uint64(i+1), set(int64(rng.Intn(10)+1), int64(rng.Intn(1000)))))
	}
	// The tail of the workload hits a lying disk: fsync says yes, platter
	// says nothing. These commits are NOT acknowledged durable by the test.
	disk.LoseSyncs(true)
	volatile := 5 + rng.Intn(10)
	for i := 0; i < volatile; i++ {
		tier.OnCommit(rec(uint64(acked+i+1), set(int64(rng.Intn(10)+1), int64(rng.Intn(1000)))))
	}
	if err := disk.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	tier.Close() // post-crash close errors are expected; state is gone anyway

	// Power back on and rebuild the whole tier from the WAL directory.
	disk.PowerOn()
	log2, err := OpenLog(DurableConfig{Dir: dir, FS: disk, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("reopen log: %v", err)
	}
	if log2.TruncatedBytes == 0 && volatile > 0 {
		t.Logf("seed %d: no torn tail this run (crash fell on a record boundary)", seed)
	}
	back := newBackend(t, "d0")
	tier2 := NewTier(Options{Backends: []*Backend{back}, Log: log2})
	defer tier2.Close()
	tier2.Flush()

	n := tier2.LogLen()
	if n < acked {
		t.Fatalf("seed %d: recovered %d records, want >= %d acked (acked-commit loss)", seed, n, acked)
	}
	if n > acked+volatile {
		t.Fatalf("seed %d: recovered %d records, more than the %d ever written", seed, n, acked+volatile)
	}
	return n, kvDigest(t, back)
}

func TestCrashRecoveryNoAckedCommitLoss(t *testing.T) {
	for _, seed := range []int64{1, 42, 7777} {
		runSeededCrash(t, seed)
	}
}

func TestSeededCrashDeterminism(t *testing.T) {
	const seed = 424242
	n1, d1 := runSeededCrash(t, seed)
	n2, d2 := runSeededCrash(t, seed)
	if n1 != n2 || d1 != d2 {
		t.Fatalf("same seed diverged: run1 = %d records %s, run2 = %d records %s", n1, d1, n2, d2)
	}
}

// TestWholeTierRestartUnderFaultdisk crashes a two-backend tier on a seeded
// faultdisk, past a checkpoint and with a volatile suffix on lying fsyncs,
// and restarts it through Open: every acknowledged commit comes back, and a
// node engine built by Open's loader and each backend hold the same state,
// that of the recovered prefix of the commits.
func TestWholeTierRestartUnderFaultdisk(t *testing.T) {
	for _, diskSeed := range []int64{1, 42, 7777} {
		dir := t.TempDir()
		disk := faultdisk.New(diskSeed)
		rng := rand.New(rand.NewSource(diskSeed))
		cfg := DurableConfig{Dir: dir, FS: disk, Policy: wal.SyncAlways}
		open := func() (*Tier, func(*heap.Engine) error) {
			t.Helper()
			tier, load, err := Open(cfg, Options{}, 2, simdisk.CostModel{}, testDDL, seed)
			if err != nil {
				t.Fatalf("seed %d: open: %v", diskSeed, err)
			}
			return tier, load
		}
		var all []scheduler.CommitRecord
		commit := func(tier *Tier, n int) {
			for i := 0; i < n; i++ {
				r := rec(uint64(len(all)+1), set(int64(rng.Intn(10)+1), int64(rng.Intn(1000))))
				all = append(all, r)
				tier.OnCommit(r)
			}
		}

		tier, _ := open()
		commit(tier, 20)
		tier.Flush()
		if _, err := tier.Checkpoint(); err != nil {
			t.Fatalf("seed %d: checkpoint: %v", diskSeed, err)
		}
		commit(tier, 15)
		acked := len(all)
		disk.LoseSyncs(true)
		commit(tier, 5+rng.Intn(10))
		if err := disk.Crash(); err != nil {
			t.Fatalf("seed %d: crash: %v", diskSeed, err)
		}
		tier.Close()

		disk.PowerOn()
		tier, load := open()
		tier.Flush()
		n := tier.LogLen()
		if n < acked || n > len(all) {
			t.Fatalf("seed %d: recovered %d records, want %d..%d", diskSeed, n, acked, len(all))
		}
		ref := newBackend(t, "ref")
		for _, r := range all[:n] {
			if err := exec.Replay(ref.Eng, r.Stmts); err != nil {
				t.Fatalf("seed %d: reference replay: %v", diskSeed, err)
			}
		}
		want := kvDigest(t, ref)
		node := heap.NewEngine(heap.Options{})
		for _, ddl := range testDDL {
			if err := exec.ExecDDL(node, ddl); err != nil {
				t.Fatal(err)
			}
		}
		if err := load(node); err != nil {
			t.Fatalf("seed %d: node load: %v", diskSeed, err)
		}
		if got := engineDigest(t, node); got != want {
			t.Errorf("seed %d: node built by the loader diverges from the %d recovered commits", diskSeed, n)
		}
		for _, b := range tier.Backends() {
			if got := b.Applied(); got != n {
				t.Errorf("seed %d: backend %s applied %d, want %d", diskSeed, b.ID, got, n)
			}
			if got := kvDigest(t, b); got != want {
				t.Errorf("seed %d: backend %s diverges from the %d recovered commits", diskSeed, b.ID, n)
			}
		}
		tier.Close()
	}
}

func TestMidLogCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	disk := faultdisk.New(9)
	log, err := OpenLog(DurableConfig{Dir: dir, FS: disk, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	tier := NewTier(Options{Log: log})
	for i := 0; i < 10; i++ {
		tier.OnCommit(rec(uint64(i+1), set(int64(i%10+1), int64(i))))
	}
	tier.Close()

	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("segments: %v %d", err, len(ents))
	}
	// Flip a byte inside an early record: intact records follow, so this
	// must be refused as corruption, never silently truncated away.
	if err := disk.CorruptAt(filepath.Join(dir, ents[0].Name()), 40); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	if _, err := OpenLog(DurableConfig{Dir: dir, FS: disk, Policy: wal.SyncAlways}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open over mid-log corruption = %v, want wal.ErrCorrupt", err)
	}
}

// TestLogTruncationBoundsMemory is the regression test for the unbounded
// in-memory query log: after a checkpoint, the applied-and-durable prefix
// must leave memory while LogLen (a since-genesis count) and Recover keep
// honoring global indexes.
func TestLogTruncationBoundsMemory(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenLog(DurableConfig{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	b := newBackend(t, "d0")
	tier := NewTier(Options{Backends: []*Backend{b}, Log: log})
	for i := 0; i < 30; i++ {
		tier.OnCommit(rec(uint64(i+1), set(int64(i%10+1), int64(i))))
	}
	tier.Flush()
	cut, err := tier.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if cut != 30 {
		t.Fatalf("cut = %d, want 30", cut)
	}
	if got := tier.Base(); got != 30 {
		t.Fatalf("base = %d, want 30 (prefix still in memory)", got)
	}
	if got := tier.LogLen(); got != 30 {
		t.Fatalf("LogLen = %d, want 30 (must count the truncated prefix)", got)
	}

	// New commits land beyond the truncated prefix.
	for i := 30; i < 40; i++ {
		tier.OnCommit(rec(uint64(i+1), set(int64(i%10+1), int64(i))))
	}
	tier.Flush()
	if got := tier.LogLen(); got != 40 {
		t.Fatalf("LogLen = %d, want 40", got)
	}
	if got := b.Applied(); got != 40 {
		t.Fatalf("applied = %d, want 40", got)
	}

	// A from-scratch backend can no longer be rebuilt by replay alone.
	stale := newBackend(t, "stale")
	if _, err := tier.Recover(stale); !errors.Is(err, ErrLogTruncated) {
		t.Fatalf("recover from-scratch = %v, want ErrLogTruncated", err)
	}
	want := kvDigest(t, b)
	tier.Close()

	// Restart: the checkpoint manifest restores the backend at the cut and
	// replay covers only the suffix.
	log2, err := OpenLog(DurableConfig{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if log2.Base != 30 || len(log2.Records) != 10 {
		t.Fatalf("recovered base=%d n=%d, want 30/10", log2.Base, len(log2.Records))
	}
	cp := log2.checkpoint("d0")
	if cp == nil || cp.Applied != 30 {
		t.Fatalf("manifest = %+v, want Applied 30", cp)
	}
	restored, err := restoreBackend("d0", b.Disk.Model(), 0, testDDL, cp)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	tier2 := NewTier(Options{Backends: []*Backend{restored}, Log: log2})
	defer tier2.Close()
	tier2.Flush()
	if got := restored.Applied(); got != 40 {
		t.Fatalf("restored applied = %d, want 40", got)
	}
	if got := kvDigest(t, restored); got != want {
		t.Fatalf("restored state diverged from pre-restart state")
	}
}

// TestCorruptManifestRefused: a checkpoint manifest cut short, one whose
// checkpoint magic has a flipped bit, or one whose last varint lost its end
// to a flipped bit fails OpenLog with wal.ErrCorrupt. (The manifest carries
// no checksum: a flip inside a value's bytes still decodes.)
func TestCorruptManifestRefused(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenLog(DurableConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tier := NewTier(Options{Backends: []*Backend{newBackend(t, "d0")}, Log: log})
	for i := 0; i < 5; i++ {
		tier.OnCommit(rec(uint64(i+1), set(int64(i+1), int64(i))))
	}
	tier.Flush()
	if _, err := tier.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	tier.Close()
	path := filepath.Join(dir, "ckpt-d0"+ckptSuffix)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(i int, bit byte) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= bit
		return b
	}
	for name, blob := range map[string][]byte{
		"empty":         {},
		"cut in magic":  good[:3],
		"cut at end":    good[:len(good)-1],
		"magic bit":     flip(2, 0x04),
		"last varint":   flip(len(good)-1, 0x80),
		"trailing byte": append(append([]byte(nil), good...), 0),
	} {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := OpenLog(DurableConfig{Dir: dir}); !errors.Is(err, wal.ErrCorrupt) {
			if l != nil {
				l.WAL.Close()
			}
			t.Errorf("%s: OpenLog err = %v, want wal.ErrCorrupt", name, err)
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(DurableConfig{Dir: dir})
	if err != nil {
		t.Fatalf("intact manifest: %v", err)
	}
	l.WAL.Close()
}

// TestConcurrentTierOps exercises OnCommit/Flush/Recover/Close running
// together; scripts/check.sh runs it under -race.
func TestConcurrentTierOps(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenLog(DurableConfig{Dir: dir, Policy: wal.SyncInterval})
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	b := newBackend(t, "d0")
	tier := NewTier(Options{Backends: []*Backend{b}, Log: log})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tier.OnCommit(rec(uint64(g*25+i+1), set(int64(g%10+1), int64(i))))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			tier.Flush()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		stale := newBackend(t, "stale")
		for i := 0; i < 3; i++ {
			if _, err := tier.Recover(stale); err != nil {
				t.Errorf("recover: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	tier.Flush()
	if got := tier.LogLen(); got != 100 {
		t.Fatalf("LogLen = %d, want 100", got)
	}
	if got := b.Applied(); got != 100 {
		t.Fatalf("applied = %d, want 100", got)
	}
	tier.Close()
	tier.Close() // idempotent, and safe concurrently with nothing running
}

// TestWALOnlyTierRetainsNoRecords: a tier with a WAL and no backends (the
// scheduler daemon's -wal-dir deployment) counts its commits but keeps none
// of them, nor the records it recovered, in memory: nothing would apply or
// trim them.
func TestWALOnlyTierRetainsNoRecords(t *testing.T) {
	dir := t.TempDir()
	retained := func(tier *Tier) int {
		tier.mu.Lock()
		defer tier.mu.Unlock()
		return len(tier.log)
	}
	log, err := OpenLog(DurableConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	tier := NewTier(Options{Log: log})
	const n = 50
	for i := 0; i < n; i++ {
		tier.OnCommit(rec(uint64(i+1), set(int64(i%10+1), int64(i))))
	}
	if got := tier.LogLen(); got != n {
		t.Fatalf("LogLen = %d, want %d", got, n)
	}
	if got := retained(tier); got != 0 {
		t.Fatalf("%d records retained in memory, want 0", got)
	}
	tier.Close()

	log2, err := OpenLog(DurableConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(log2.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(log2.Records), n)
	}
	tier2 := NewTier(Options{Log: log2})
	defer tier2.Close()
	tier2.OnCommit(rec(n+1, set(1, 1)))
	if got := tier2.LogLen(); got != n+1 {
		t.Fatalf("LogLen after recovery = %d, want %d", got, n+1)
	}
	if got := retained(tier2); got != 0 {
		t.Fatalf("%d records retained after recovery, want 0", got)
	}
}
