package flight

import (
	"encoding/json"
	"fmt"

	"dmv/internal/obs"
)

// SchemaVersion is the dump schema version. Bump on any incompatible field
// change; dmv-doctor refuses dumps from a different version rather than
// misrendering them.
const SchemaVersion = 1

// Dump is one cluster-wide flight dump: the trigger that caused it, every
// reachable node's frozen ring, and write-time metadata. Serialization is
// byte-stable for a given value: encoding/json emits struct fields in
// declaration order and map keys sorted, so the same recorded state always
// marshals to the same bytes. Meta carries the only wall-clock-of-write
// fields; StripMeta zeroes it for byte-compare determinism checks.
type Dump struct {
	Schema  int
	Trigger Trigger
	Nodes   []NodeDump
	Meta    Meta
}

// Trigger identifies the anomaly that caused a dump.
type Trigger struct {
	Cause  string // one of the Cause* constants
	Node   string // node the anomaly concerns (suspect node, quarantined backend's node, ...)
	Detail string // free-form context (error text, miss counts, ...)
	TS     int64  // recorder-clock unix nanos at trigger time
}

// Meta is dump-assembly metadata: everything here may legitimately differ
// between two otherwise-identical runs (gather wall time, which peers were
// reachable), so determinism comparisons strip it.
type Meta struct {
	WrittenUnixNano int64
	Origin          string   // node that assembled the dump
	GatherUS        int64    // peer-gather + assembly time
	PeerErrors      []string `json:",omitempty"`
}

// NodeDump is one node's frozen flight state inside a dump.
type NodeDump struct {
	Node    string
	Entries []Entry
	Metrics obs.Snapshot
	Runtime RuntimeSample
	Dropped uint64 // ring entries evicted before the freeze
}

// HealthTransition is one failure-detector state change.
type HealthTransition struct {
	Node string
	From string
	To   string
}

// Entry is one flight-ring record. Exactly one of Span/Event/Deltas/Health
// is set, matching Kind; trigger entries carry Cause/Detail inline.
type Entry struct {
	Seq    uint64
	TS     int64 // recorder-clock unix nanos
	Kind   string
	Node   string
	Span   *obs.Span         `json:",omitempty"`
	Event  *obs.Event        `json:",omitempty"`
	Deltas map[string]int64  `json:",omitempty"`
	Health *HealthTransition `json:",omitempty"`
	Cause  string            `json:",omitempty"`
	Detail string            `json:",omitempty"`
}

// Marshal renders a dump as indented JSON with a trailing newline. The
// output is byte-stable for a given dump value.
func Marshal(d Dump) ([]byte, error) {
	blob, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("flight: marshal dump: %w", err)
	}
	return append(blob, '\n'), nil
}

// Parse decodes and version-checks a dump.
func Parse(blob []byte) (Dump, error) {
	var d Dump
	if err := json.Unmarshal(blob, &d); err != nil {
		return Dump{}, fmt.Errorf("flight: parse dump: %w", err)
	}
	if d.Schema != SchemaVersion {
		return Dump{}, fmt.Errorf("flight: dump schema %d, this build reads %d", d.Schema, SchemaVersion)
	}
	return d, nil
}

// StripMeta returns the dump with its assembly metadata zeroed, for
// byte-identical determinism comparisons across runs of one seed.
func StripMeta(d Dump) Dump {
	d.Meta = Meta{}
	return d
}
