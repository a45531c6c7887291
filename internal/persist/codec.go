package persist

import (
	"encoding/binary"
	"fmt"

	"dmv/internal/exec"
	"dmv/internal/scheduler"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// WAL record codec for scheduler.CommitRecord. The encoding is a fully
// deterministic binary layout (no maps, no gob type streams), so the same
// commit sequence always produces byte-identical segment files — which is
// what lets the seeded crash tests demand identical recovered state across
// two runs of one seed.
//
// Layout (all varints are unsigned LEB128 via encoding/binary):
//
//	uvarint vectorLen, then vectorLen uvarint components
//	uvarint stmtCount, then per statement:
//	    uvarint textLen, textLen bytes of SQL
//	    the parameters as a value.AppendRow row (the layout the wire codec
//	    and page images use too)

// EncodeRecord serializes one commit record for the WAL.
func EncodeRecord(rec scheduler.CommitRecord) []byte {
	buf := make([]byte, 0, 64)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Version)))
	for _, v := range rec.Version {
		buf = binary.AppendUvarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.Stmts)))
	for _, s := range rec.Stmts {
		buf = binary.AppendUvarint(buf, uint64(len(s.Text)))
		buf = append(buf, s.Text...)
		buf = value.AppendRow(buf, s.Params)
	}
	return buf
}

// DecodeRecord parses an EncodeRecord payload. Any malformed or trailing
// bytes are an error: the WAL's CRC already vouches for media integrity,
// so a decode failure means a genuinely foreign or corrupt record.
func DecodeRecord(buf []byte) (scheduler.CommitRecord, error) {
	var rec scheduler.CommitRecord
	d := value.NewDecoder(buf)
	rec.Version = vclock.New(d.Count())
	for i := range rec.Version {
		rec.Version[i] = d.Uvarint()
	}
	rec.Stmts = make([]exec.LoggedStmt, d.Count())
	for i := range rec.Stmts {
		s := &rec.Stmts[i]
		s.Text = d.String()
		s.Params = value.ReadRow(&d, nil)
	}
	if err := d.Err(); err != nil {
		return rec, fmt.Errorf("persist: record payload: %w", err)
	}
	if d.Len() != 0 {
		return rec, fmt.Errorf("persist: %d trailing bytes after record", d.Len())
	}
	return rec, nil
}
