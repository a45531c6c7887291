package heap

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"dmv/internal/page"
	"dmv/internal/vclock"
)

// Checkpoint is a fuzzy snapshot of a node's materialized pages together
// with their versions. Per the paper's modified fuzzy-checkpoint algorithm,
// it is taken without quiescing the system: each page is flushed atomically
// with its version, dirty (exclusively latched, uncommitted) pages are
// skipped, and pages in one checkpoint may carry different versions.
type Checkpoint struct {
	Images   []page.Image
	Versions vclock.Vector // per-table max version among the flushed pages
}

// FuzzyCheckpoint snapshots every page that can be latched without blocking.
// A skipped (dirty) page has no image in the checkpoint, so a restore leaves
// it an empty placeholder at version 0; reintegration ships it back from a
// support slave along with anything newer (ChangedPages).
func (e *Engine) FuzzyCheckpoint() *Checkpoint {
	tables := e.allTables()
	cp := &Checkpoint{Versions: vclock.New(len(tables))}
	for _, t := range tables {
		for _, pg := range t.pagesSnapshot() {
			img, ok := pg.Snapshot()
			if !ok {
				continue // dirty page: exclusively held by an in-flight txn
			}
			cp.Images = append(cp.Images, img)
			if img.Version > cp.Versions.Get(t.id) {
				cp.Versions[t.id] = img.Version
			}
		}
	}
	return cp
}

// RestoreCheckpoint installs a checkpoint into an engine that has the schema
// created but no data (a recovering node). It is InstallDelta into pages
// that are all empty: every row is new, so its index entries start at
// version 0 and its row location and row-id allocation point are published
// as it lands.
func (e *Engine) RestoreCheckpoint(cp *Checkpoint) error {
	return e.InstallDelta(cp.Images)
}

// EncodeCheckpoint serializes a checkpoint (gob) for local stable storage.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		return nil, fmt.Errorf("encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCheckpoint deserializes a checkpoint.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&cp); err != nil {
		return nil, fmt.Errorf("decode checkpoint: %w", err)
	}
	return &cp, nil
}
