package persist

import (
	"bytes"
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

// DurableConfig configures OpenLog.
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

// Checkpoint returns the recovered manifest for a backend ID, or nil.
func (r *RecoveredLog) Checkpoint(id string) *BackendCheckpoint {
	return r.checkpoints[id]
}

// MinApplied returns the smallest Applied mark among recovered manifests
// and the ID holding it, or (Base, "") when there are none.
func (r *RecoveredLog) MinApplied() (int, string) {
	min, minID := -1, ""
	for id, cp := range r.checkpoints {
		if min < 0 || cp.Applied < min {
			min, minID = cp.Applied, id
		}
	}
	if min < 0 {
		return r.Base, ""
	}
	return min, minID
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
		if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		id := strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ckptSuffix)
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
	if cut, _ := r.MinApplied(); cut > r.Base {
		if cut > r.Base+len(r.Records) {
			return fmt.Errorf("persist: checkpoint applied mark %d beyond log end %d (missing WAL segments)", cut, r.Base+len(r.Records))
		}
		r.Records = append([]scheduler.CommitRecord(nil), r.Records[cut-r.Base:]...)
		r.Base = cut
	}
	return nil
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

// RestoreBackend rebuilds an on-disk backend from a recovered checkpoint
// manifest: schema only (no initial load — the checkpoint IS the data),
// then the checkpoint image, with the applied mark set so Recover replays
// exactly the uncovered suffix.
func RestoreBackend(id string, costs simdisk.CostModel, cacheCap int, ddl []string, cp *BackendCheckpoint) (*Backend, error) {
	db, err := innodb.Open(id, innodb.Config{Costs: costs, CacheCapacity: cacheCap}, ddl, nil)
	if err != nil {
		return nil, err
	}
	if cp.Checkpoint != nil {
		if err := db.Eng.RestoreCheckpoint(cp.Checkpoint); err != nil {
			return nil, fmt.Errorf("backend %s restore: %w", id, err)
		}
	}
	return &Backend{ID: id, Eng: db.Eng, Disk: db.Disk, applied: cp.Applied}, nil
}

// ReplayInto executes the statements of recs, in order, against a node
// engine (crash-restart of the in-memory cluster replays the same records
// the persistence tier recovered).
func ReplayInto(e *heap.Engine, recs []scheduler.CommitRecord) error {
	for i, rec := range recs {
		if err := exec.Replay(e, rec.Stmts); err != nil {
			return fmt.Errorf("persist: replay record %d: %w", i, err)
		}
	}
	return nil
}
