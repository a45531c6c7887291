package dmv_test

import (
	"os"
	"slices"
	"strings"
	"testing"

	"dmv"
)

// walConfig is a small durable cluster over dir.
func walConfig(dir string) dmv.Config {
	return dmv.Config{
		Slaves: 2,
		WALDir: dir,
		Schema: []string{`CREATE TABLE kv (k INT PRIMARY KEY, v INT)`},
		Load: func(l *dmv.Loader) error {
			rows := make([][]any, 0, 20)
			for i := 1; i <= 20; i++ {
				rows = append(rows, []any{i, 0})
			}
			return l.Load("kv", rows)
		},
	}
}

func kvSum(t *testing.T, c *dmv.Cluster) int64 {
	t.Helper()
	var sum int64
	err := c.Read([]string{"kv"}, func(tx *dmv.Tx) error {
		rows, err := tx.Query(`SELECT v FROM kv`)
		if err != nil {
			return err
		}
		sum = 0
		for i := 0; i < rows.Len(); i++ {
			sum += rows.Int(i, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return sum
}

func bumpKeys(t *testing.T, c *dmv.Cluster, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := i%20 + 1
		if err := c.Update([]string{"kv"}, func(tx *dmv.Tx) error {
			_, err := tx.Exec(`UPDATE kv SET v = v + 1 WHERE k = ?`, k)
			return err
		}); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
}

// TestClusterRestartFromWAL closes a durable cluster and reopens it from
// the WAL directory alone: the in-memory nodes and the persistence backend
// must both come back holding every acknowledged commit.
func TestClusterRestartFromWAL(t *testing.T) {
	dir := t.TempDir()
	c, err := dmv.Open(walConfig(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	bumpKeys(t, c, 40)
	want := kvSum(t, c)
	if want != 40 {
		t.Fatalf("sum = %d, want 40", want)
	}
	c.Close()

	c2, err := dmv.Open(walConfig(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	if got := kvSum(t, c2); got != want {
		t.Fatalf("restarted sum = %d, want %d", got, want)
	}
	if got := c2.Stats().PersistLogged; got != 40 {
		t.Fatalf("restarted log len = %d, want 40", got)
	}
	// The restarted cluster keeps committing durably.
	bumpKeys(t, c2, 10)
	if got := kvSum(t, c2); got != want+10 {
		t.Fatalf("post-restart sum = %d, want %d", got, want+10)
	}
}

// TestClusterRestartAfterCheckpoint restarts across a checkpoint boundary:
// the truncated WAL no longer holds full history, so recovery must restore
// the backend manifest and replay only the suffix.
func TestClusterRestartAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	c, err := dmv.Open(walConfig(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	bumpKeys(t, c, 30)
	c.FlushPersistence()
	cut, err := c.CheckpointPersistence()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if cut != 30 {
		t.Fatalf("cut = %d, want 30", cut)
	}
	bumpKeys(t, c, 15) // suffix past the checkpoint
	want := kvSum(t, c)
	c.Close()

	c2, err := dmv.Open(walConfig(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	if got := kvSum(t, c2); got != want {
		t.Fatalf("restarted sum = %d, want %d", got, want)
	}
	if got := c2.Stats().PersistLogged; got != 45 {
		t.Fatalf("restarted log len = %d, want 45 (global index survives truncation)", got)
	}
}

// blobConfig is a durable cluster over dir with n persistence backends and
// a kv table of wide values, so a few thousand inserts fill WAL segments.
func blobConfig(dir string, n int) dmv.Config {
	return dmv.Config{
		Slaves:          1,
		WALDir:          dir,
		WALFlushPolicy:  "never",
		PersistBackends: n,
		Schema:          []string{`CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(2000))`},
	}
}

func insertBlobs(t *testing.T, c *dmv.Cluster, from, n, size int) {
	t.Helper()
	v := strings.Repeat("x", size)
	for k := from; k < from+n; k++ {
		if err := c.Update([]string{"kv"}, func(tx *dmv.Tx) error {
			_, err := tx.Exec(`INSERT INTO kv (k, v) VALUES (?, ?)`, k, v)
			return err
		}); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
}

func checkpointAt(t *testing.T, c *dmv.Cluster, want int) {
	t.Helper()
	c.FlushPersistence()
	cut, err := c.CheckpointPersistence()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if cut != want {
		t.Fatalf("cut = %d, want %d", cut, want)
	}
}

func rowCount(t *testing.T, c *dmv.Cluster) int64 {
	t.Helper()
	var n int64
	if err := c.Read([]string{"kv"}, func(tx *dmv.Tx) error {
		rows, err := tx.Query(`SELECT COUNT(*) FROM kv`)
		if err != nil {
			return err
		}
		n = rows.Int(0, 0)
		return nil
	}); err != nil {
		t.Fatalf("count: %v", err)
	}
	return n
}

// TestRestartAfterRemovingBackend: a backend dropped from the tier leaves
// its manifest behind, and a later checkpoint of the remaining backend
// frees the segments that manifest would need. The leftover manifest is
// not a backend the tier builds, so it must not be the recovery base.
func TestRestartAfterRemovingBackend(t *testing.T) {
	dir := t.TempDir()
	c, err := dmv.Open(blobConfig(dir, 2))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	insertBlobs(t, c, 0, 5, 10)
	checkpointAt(t, c, 5)
	c.Close()

	c, err = dmv.Open(blobConfig(dir, 1))
	if err != nil {
		t.Fatalf("reopen with one backend: %v", err)
	}
	insertBlobs(t, c, 5, 1595, 1000)
	checkpointAt(t, c, 1600)
	c.Close()

	c, err = dmv.Open(blobConfig(dir, 1))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer c.Close()
	if got := rowCount(t, c); got != 1600 {
		t.Fatalf("restarted rows = %d, want 1600", got)
	}
	if got := c.Stats().PersistLogged; got != 1600 {
		t.Fatalf("restarted log len = %d, want 1600", got)
	}
}

// TestCheckpointRemovesDepartedManifests runs TestRestartAfterRemovingBackend's
// scenario: after a backend leaves the tier, the next checkpoint deletes its
// manifest, so the directory holds only the live backend's, and a restart
// still recovers every row.
func TestCheckpointRemovesDepartedManifests(t *testing.T) {
	dir := t.TempDir()
	c, err := dmv.Open(blobConfig(dir, 2))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	insertBlobs(t, c, 0, 5, 10)
	checkpointAt(t, c, 5)
	c.Close()
	if got := manifests(t, dir); !slices.Equal(got, []string{"ckpt-disk0.ckpt", "ckpt-disk1.ckpt"}) {
		t.Fatalf("manifests with two backends = %v", got)
	}

	c, err = dmv.Open(blobConfig(dir, 1))
	if err != nil {
		t.Fatalf("reopen with one backend: %v", err)
	}
	insertBlobs(t, c, 5, 1595, 1000)
	checkpointAt(t, c, 1600)
	c.Close()
	if got := manifests(t, dir); !slices.Equal(got, []string{"ckpt-disk0.ckpt"}) {
		t.Fatalf("manifests after the one-backend checkpoint = %v, want only disk0's", got)
	}

	c, err = dmv.Open(blobConfig(dir, 1))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer c.Close()
	if got := rowCount(t, c); got != 1600 {
		t.Fatalf("restarted rows = %d, want 1600", got)
	}
}

// manifests lists the checkpoint manifests in dir, sorted.
func manifests(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "ckpt-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestBackendAddedAfterCheckpoint: a backend added on a restart past a
// checkpoint starts from the recovered base, applies the log with the
// others and lets the next checkpoint move the cut.
func TestBackendAddedAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	c, err := dmv.Open(blobConfig(dir, 1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	insertBlobs(t, c, 0, 5, 10)
	checkpointAt(t, c, 5)
	c.Close()

	c, err = dmv.Open(blobConfig(dir, 2))
	if err != nil {
		t.Fatalf("reopen with two backends: %v", err)
	}
	defer c.Close()
	insertBlobs(t, c, 5, 3, 10)
	c.FlushPersistence()
	if got := c.PersistenceApplied(); !slices.Equal(got, []int{8, 8}) {
		t.Fatalf("applied = %v, want [8 8]", got)
	}
	checkpointAt(t, c, 8)
}
