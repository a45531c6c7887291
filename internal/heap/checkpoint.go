package heap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"dmv/internal/page"
	"dmv/internal/value"
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
// version 0 as it lands.
func (e *Engine) RestoreCheckpoint(cp *Checkpoint) error {
	return e.InstallDelta(cp.Images)
}

// checkpointMagic opens every encoded checkpoint; bytes in any other format
// (an older gob file, a foreign file) fail to decode.
const checkpointMagic = "dmvckpt\x01"

// EncodeCheckpoint serializes a checkpoint for local stable storage: the
// magic, the version vector (uvarint length, uvarint components), a uvarint
// image count and the images in page.AppendImage's encoding, the one they
// have on the wire. Equal checkpoints encode to equal bytes.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	b := append([]byte(nil), checkpointMagic...)
	b = binary.AppendUvarint(b, uint64(len(cp.Versions)))
	for _, v := range cp.Versions {
		b = binary.AppendUvarint(b, v)
	}
	b = binary.AppendUvarint(b, uint64(len(cp.Images)))
	for _, img := range cp.Images {
		b = page.AppendImage(b, img)
	}
	return b, nil
}

// DecodeCheckpoint deserializes an EncodeCheckpoint checkpoint. A wrong
// magic, malformed bytes or trailing bytes are an error.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	rest, ok := bytes.CutPrefix(b, []byte(checkpointMagic))
	if !ok {
		return nil, errors.New("decode checkpoint: not a checkpoint (bad magic)")
	}
	d := value.NewDecoder(rest)
	cp := &Checkpoint{Versions: vclock.New(d.Count())}
	for i := range cp.Versions {
		cp.Versions[i] = d.Uvarint()
	}
	if n := d.Count(); n > 0 {
		cp.Images = make([]page.Image, n)
		for i := range cp.Images {
			cp.Images[i] = page.ReadImage(&d)
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("decode checkpoint: %w", err)
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("decode checkpoint: %d trailing bytes", d.Len())
	}
	return cp, nil
}
