package persist

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/innodb"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/scheduler"
	"dmv/internal/simdisk"
	"dmv/internal/wal"
)

// Durable persistence: the query log of Section 4.6 backed by the
// crash-durable WAL in internal/wal, plus per-backend checkpoint manifests
// that coordinate log truncation. On disk a tier directory holds:
//
//	wal-<base>.seg   segment files (internal/wal framing)
//	ckpt-<id>.ckpt   one manifest per backend: how many log records the
//	                 backend had applied when the checkpoint was cut (a
//	                 uvarint), then a complete engine checkpoint at exactly
//	                 that point (heap.EncodeCheckpoint); a manifest that does
//	                 not decode fails OpenLog with wal.ErrCorrupt
//
// The WAL base and every checkpoint's Applied mark are global record
// indexes (they survive truncation); the in-memory Tier keeps the same
// indexing so LogLen/Flush/Recover agree across restarts.

const ckptSuffix = ".ckpt"

// BackendCheckpoint is the durable manifest for one backend: a complete
// checkpoint of its engine taken at a known log position.
type BackendCheckpoint struct {
	// Applied is the global log index the backend had fully applied when
	// the checkpoint was cut; replay resumes at this index.
	Applied int
	// Checkpoint is the engine state at Applied.
	Checkpoint *heap.Checkpoint
}

// encode returns the manifest's file bytes: a uvarint Applied followed by
// the checkpoint in heap.EncodeCheckpoint's encoding.
func (m *BackendCheckpoint) encode() ([]byte, error) {
	cp, err := heap.EncodeCheckpoint(m.Checkpoint)
	if err != nil {
		return nil, err
	}
	return append(binary.AppendUvarint(nil, uint64(m.Applied)), cp...), nil
}

// decodeManifest parses encode's bytes.
func decodeManifest(b []byte) (*BackendCheckpoint, error) {
	applied, n := binary.Uvarint(b)
	if n <= 0 || applied > math.MaxInt {
		return nil, errors.New("bad applied mark")
	}
	cp, err := heap.DecodeCheckpoint(b[n:])
	if err != nil {
		return nil, err
	}
	return &BackendCheckpoint{Applied: int(applied), Checkpoint: cp}, nil
}

// DurableConfig configures OpenLog and Open.
type DurableConfig struct {
	// Dir is the tier directory (segments + checkpoint manifests).
	Dir string
	// FS interposes on file operations (default wal.OsFS; tests pass a
	// faultdisk.Disk).
	FS wal.FS
	// Policy is the fsync policy (default wal.SyncAlways).
	Policy wal.SyncPolicy
	// FlushInterval is the background fsync period for wal.SyncInterval.
	FlushInterval time.Duration
	// SegmentBytes caps segment size (default 1 MiB).
	SegmentBytes int
	// Obs, if non-nil, receives the WAL metrics.
	Obs *obs.Registry
	// Flight, if non-nil, is notified (as a wal-sticky-fatal anomaly
	// trigger) when the opened WAL enters its sticky-fatal state, so a
	// durability loss dumps the cluster's flight rings while the evidence
	// is still in them.
	Flight *flight.Recorder
}

// RecoveredLog is an opened durable query log: the live WAL plus whatever
// survived the last incarnation, already decoded and cut down to the
// suffix the checkpoints do not cover.
type RecoveredLog struct {
	// WAL is the live log; the Tier appends to it.
	WAL *wal.WAL
	// Base is the global index of Records[0].
	Base int
	// Records are the decoded commit records from Base onward.
	Records []scheduler.CommitRecord
	// TruncatedBytes counts torn-tail bytes recovery discarded.
	TruncatedBytes int64

	checkpoints map[string]*BackendCheckpoint
}

// checkpoint returns a backend's recovered manifest if the log covers its
// Applied mark, else nil: a manifest below the base was left by a backend
// that missed a later truncation, and one past the end holds records the
// log lost.
func (r *RecoveredLog) checkpoint(id string) *BackendCheckpoint {
	if cp := r.checkpoints[id]; cp != nil && cp.Applied >= r.Base && cp.Applied <= r.Base+len(r.Records) {
		return cp
	}
	return nil
}

// OpenLog opens (or creates) the durable query log in cfg.Dir: recovers
// the WAL (truncating a torn tail; mid-log corruption fails with an error
// wrapping wal.ErrCorrupt), decodes the surviving records, and loads the
// checkpoint manifests. Close the returned log's WAL via Tier.Close once
// it is handed to a tier.
func OpenLog(cfg DurableConfig) (*RecoveredLog, error) {
	var onFatal func(error)
	if fr := cfg.Flight; fr != nil {
		onFatal = func(err error) { fr.Trigger(flight.CauseWALFatal, "", err.Error()) }
	}
	w, rec, err := wal.Open(wal.Options{
		Dir:           cfg.Dir,
		FS:            cfg.FS,
		Policy:        cfg.Policy,
		FlushInterval: cfg.FlushInterval,
		SegmentBytes:  cfg.SegmentBytes,
		Obs:           cfg.Obs,
		OnFatal:       onFatal,
	})
	if err != nil {
		return nil, err
	}
	out := &RecoveredLog{
		WAL:            w,
		Base:           int(rec.Base),
		TruncatedBytes: rec.TruncatedBytes,
		checkpoints:    make(map[string]*BackendCheckpoint),
	}
	out.Records = make([]scheduler.CommitRecord, 0, len(rec.Records))
	for i, payload := range rec.Records {
		cr, derr := DecodeRecord(payload)
		if derr != nil {
			// The CRC passed, so the bytes are what was written — a decode
			// failure is corruption the frame could not see.
			w.Close()
			return nil, fmt.Errorf("persist: record %d: %v: %w", out.Base+i, derr, wal.ErrCorrupt)
		}
		out.Records = append(out.Records, cr)
	}
	if err := out.loadCheckpoints(cfg); err != nil {
		w.Close()
		return nil, err
	}
	return out, nil
}

// loadCheckpoints reads every ckpt-<id>.ckpt manifest and drops the log
// prefix all of them cover (the WAL's segment-granular base may trail the
// true cut; the decoded view is exact).
func (r *RecoveredLog) loadCheckpoints(cfg DurableConfig) error {
	fs := cfg.FS
	if fs == nil {
		fs = wal.OsFS{}
	}
	names, err := fs.ReadDir(cfg.Dir)
	if err != nil {
		return fmt.Errorf("persist: scan %s: %w", cfg.Dir, err)
	}
	for _, name := range names {
		id, ok := manifestID(name)
		if !ok {
			continue
		}
		blob, rerr := readAll(fs, filepath.Join(cfg.Dir, name))
		if rerr != nil {
			return fmt.Errorf("persist: read checkpoint %s: %w", name, rerr)
		}
		cp, derr := decodeManifest(blob)
		if derr != nil {
			return fmt.Errorf("persist: decode checkpoint %s: %v: %w", name, derr, wal.ErrCorrupt)
		}
		r.checkpoints[id] = cp
	}
	// Drop the prefix every manifest covers: a backend restored from its
	// checkpoint replays only from its Applied mark, so records below the
	// minimum mark are dead weight in memory.
	cut := -1
	for _, cp := range r.checkpoints {
		if cut < 0 || cp.Applied < cut {
			cut = cp.Applied
		}
	}
	if cut > r.Base {
		if cut > r.Base+len(r.Records) {
			return fmt.Errorf("persist: checkpoint applied mark %d beyond log end %d (missing WAL segments)", cut, r.Base+len(r.Records))
		}
		r.Records = append([]scheduler.CommitRecord(nil), r.Records[cut-r.Base:]...)
		r.Base = cut
	}
	return nil
}

// manifestName is the file name of backend id's checkpoint manifest.
func manifestName(id string) string { return "ckpt-" + id + ckptSuffix }

// manifestID returns the backend id whose manifest file name is name, and
// false for a file that is not a manifest.
func manifestID(name string) (string, bool) {
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ckptSuffix) {
		return "", false
	}
	return strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ckptSuffix), true
}

// readAll reads a whole file through the FS layer.
func readAll(fs wal.FS, path string) ([]byte, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Open builds the persistence tier of backends disk0..disk<n-1> and the
// loader of a node engine that matches it. With an empty cfg.Dir the tier
// is memory-only and the loader runs load. Otherwise a whole-tier restart
// resumes from the durable log in cfg.Dir: the base is the lowest Applied
// mark among these backends' manifests, or the start of history (load)
// without one. Each backend restores its own manifest, or else the base;
// the loader gives a node the base state and replays the log suffix.
// Open sets opts.Backends and opts.Log.
func Open(cfg DurableConfig, opts Options, n int, costs simdisk.CostModel, ddl []string, load func(*heap.Engine) error) (*Tier, func(*heap.Engine) error, error) {
	rlog := &RecoveredLog{}
	if cfg.Dir != "" {
		var err error
		if rlog, err = OpenLog(cfg); err != nil {
			return nil, nil, err
		}
		opts.Log = rlog
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("disk%d", i)
	}
	base, err := rlog.rebase(ids)
	for _, id := range ids {
		if err != nil {
			break
		}
		var b *Backend
		if cp := cmp.Or(rlog.checkpoint(id), base); cp != nil {
			b, err = restoreBackend(id, costs, 0, ddl, cp)
		} else {
			b, err = NewBackend(id, costs, 0, ddl, load)
		}
		opts.Backends = append(opts.Backends, b)
	}
	if err != nil {
		if opts.Log != nil {
			opts.Log.WAL.Close()
		}
		return nil, nil, err
	}
	records, from, baseLoad := rlog.Records, rlog.Base, stateOf(base, load)
	return NewTier(opts), func(e *heap.Engine) error {
		if baseLoad != nil {
			if err := baseLoad(e); err != nil {
				return err
			}
		}
		for i, rec := range records {
			if err := exec.Replay(e, rec.Stmts); err != nil {
				return fmt.Errorf("persist: replay record %d: %w", from+i, err)
			}
		}
		return nil
	}, nil
}

// rebase cuts the records to begin at the recovery base of backends ids,
// the manifest among theirs with the lowest Applied mark, and returns it;
// nil is the start of history, which the log must then still hold.
func (r *RecoveredLog) rebase(ids []string) (*BackendCheckpoint, error) {
	var base *BackendCheckpoint
	for _, id := range ids {
		if cp := r.checkpoint(id); cp != nil && (base == nil || cp.Applied < base.Applied) {
			base = cp
		}
	}
	switch {
	case base != nil:
		r.Records = r.Records[base.Applied-r.Base:]
		r.Base = base.Applied
	case r.Base > 0:
		return nil, fmt.Errorf("persist: log base %d has no checkpoint manifest", r.Base)
	}
	return base, nil
}

// stateOf returns the loader of cp's engine state, or load for a nil cp
// (the start of history).
func stateOf(cp *BackendCheckpoint, load func(*heap.Engine) error) func(*heap.Engine) error {
	if cp == nil {
		return load
	}
	return func(e *heap.Engine) error { return e.RestoreCheckpoint(cp.Checkpoint) }
}

// restoreBackend builds an on-disk backend at a checkpoint manifest: the
// schema, the checkpoint image and the applied mark the applier resumes
// from.
func restoreBackend(id string, costs simdisk.CostModel, cacheCap int, ddl []string, cp *BackendCheckpoint) (*Backend, error) {
	db, err := innodb.Open(id, innodb.Config{Costs: costs, CacheCapacity: cacheCap}, ddl, stateOf(cp, nil))
	if err != nil {
		return nil, err
	}
	return &Backend{ID: id, Eng: db.Eng, Disk: db.Disk, applied: cp.Applied}, nil
}
