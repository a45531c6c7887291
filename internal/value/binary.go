package value

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary value layout, shared by the WAL record codec (persist), the wire
// codec (transport) and page images (page), so a Value has one encoding
// everywhere:
//
//	1 byte kind, then
//	Int:    varint (zig-zag) int64
//	Float:  8-byte little-endian IEEE 754 bits
//	String: uvarint length + bytes
//	Null:   nothing

// AppendBinary appends v's binary encoding to buf.
func AppendBinary(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.K))
	switch v.K {
	case Int:
		buf = binary.AppendVarint(buf, v.Int())
	case Float:
		buf = binary.LittleEndian.AppendUint64(buf, v.n)
	case String:
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		buf = append(buf, v.S...)
	}
	return buf
}

// ReadBinary decodes one AppendBinary value from d. An unknown kind byte
// fails d like truncation does.
func ReadBinary(d *Decoder) Value { return ReadBinaryLike(d, Value{}) }

// ReadBinaryLike is ReadBinary, except that a String equal to like's string
// shares like's bytes instead of copying them: an update's before-image
// repeats most of the after-image decoded next to it.
func ReadBinaryLike(d *Decoder, like Value) Value {
	v := Value{K: Kind(d.Byte())}
	switch v.K {
	case Null:
	case Int:
		v.n = uint64(d.Varint())
	case Float:
		v.n = d.Uint64()
	case String:
		b := d.Bytes(d.Uvarint())
		if like.K == String && like.S == string(b) {
			v.S = like.S
		} else {
			v.S = string(b)
		}
	default:
		d.Fail(fmt.Errorf("unknown value kind %d", v.K))
		return Value{}
	}
	return v
}

// AppendRow appends a row: a uvarint value count, then each value in
// AppendBinary's layout. The wire, the WAL and page images share it.
func AppendRow(buf []byte, r []Value) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, v := range r {
		buf = AppendBinary(buf, v)
	}
	return buf
}

// ReadRow decodes an AppendRow row into its own backing array (a decoded row
// may become a stored row, so it must pin nothing else); an empty row
// decodes as nil. A string equal to the one at the same position of like
// (nil for none) shares like's bytes, as in ReadBinaryLike: a write-set
// update's before-image decodes like its after-image, so the two share their
// unchanged strings.
func ReadRow(d *Decoder, like Row) Row {
	n := d.Count()
	if n == 0 {
		return nil
	}
	r := make(Row, n)
	for i := range r {
		var l Value
		if i < len(like) {
			l = like[i]
		}
		r[i] = ReadBinaryLike(d, l)
	}
	return r
}

// errTruncated is the failure a Decoder latches when its input runs out or a
// varint is malformed.
var errTruncated = errors.New("truncated binary payload")

// Decoder consumes a byte slice front to back, latching the first failure so
// call sites stay linear: after a failure every read returns a zero value,
// and the caller checks Err once at the end. Every read is bounds-checked,
// so no input makes it panic; callers size allocations with Count, which
// bounds them by the bytes left.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a Decoder reading buf.
func NewDecoder(buf []byte) Decoder { return Decoder{buf: buf} }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return len(d.buf) }

// Fail latches err (if no failure is latched yet) and drops the rest of the
// input.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf = nil
}

// Uvarint reads an unsigned LEB128 varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.Fail(errTruncated)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a zig-zag varint.
func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.Fail(errTruncated)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if len(d.buf) < 1 {
		d.Fail(errTruncated)
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// Uint64 reads a fixed 8-byte little-endian word.
func (d *Decoder) Uint64() uint64 {
	if len(d.buf) < 8 {
		d.Fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// Bytes reads n bytes. The result aliases the input; callers that keep it
// copy it.
func (d *Decoder) Bytes(n uint64) []byte {
	if uint64(len(d.buf)) < n {
		d.Fail(errTruncated)
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// String reads a uvarint length and that many bytes, copied into a new
// string.
func (d *Decoder) String() string {
	return string(d.Bytes(d.Uvarint()))
}

// Count reads a uvarint element count. Each element takes at least one byte,
// so a count above the bytes left fails d instead of sizing an allocation.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)) {
		d.Fail(fmt.Errorf("count %d overruns the %d bytes left", n, len(d.buf)))
		return 0
	}
	return int(n)
}
