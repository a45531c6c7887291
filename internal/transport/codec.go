package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net/rpc"
	"slices"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/page"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// The wire codec behind net/rpc (rpc.ClientCodec / rpc.ServerCodec). Each
// request and each response is one frame:
//
//	uint32 little-endian length of the rest (at most maxFrame)
//	uvarint seq
//	uvarint len + bytes: the method name (requests) or the error (responses)
//	1 byte body kind: bodyNone, bodyBinary or bodyGob
//	the body
//
// The data-path messages (Status, BeginArgs/BeginReply, ExecArgs/ExecReply,
// CommitArgs/CommitReply, the TxRollback id, *heap.WriteSet, and the empty
// struct{} argument) have hand-written binary bodies whose values use
// value.AppendBinary's layout, the WAL's. Every other body (page images,
// digests, obs snapshots, flight dumps, the rest of the control plane) is
// gob inside the frame, on one gob stream per connection direction.
//
// net/rpc serializes each direction of a connection (one reader goroutine,
// writes under its send mutex), so a codec needs no lock of its own. Decoded
// strings and slices never alias the read buffer, which the next frame
// reuses while the previous request's handler may still be running.

// maxFrame caps a frame's declared length. The largest frame the tests ship
// is a page-image set of about 4 KiB; the cap leaves room for migrating a
// whole database. A frame's buffer grows only as its bytes arrive, so even
// a corrupt length below the cap costs no more memory than the peer sends.
const maxFrame = 256 << 20

const (
	// readChunk is how far the read buffer grows ahead of the bytes read.
	readChunk = 64 << 10
	// keepBuf is the largest buffer a codec keeps between frames; a larger
	// one (a page-image shipment) is dropped after use.
	keepBuf = 64 << 10
)

// Body kinds.
const (
	bodyNone byte = iota
	bodyBinary
	bodyGob
)

// FrameError is a framing failure: a frame cut short by the connection
// ending, or a length prefix above maxFrame. The stream cannot be resumed
// after either, so the caller sees the node as down (callOnce).
type FrameError struct {
	Len    uint64 // the declared frame length
	Reason string
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("transport: bad frame of length %d: %s", e.Len, e.Reason)
}

// wire is one direction pair of a framed connection: the read side of one
// direction and the write side of the other.
type wire struct {
	conn io.ReadWriteCloser
	r    *bufio.Reader

	lenBuf [4]byte
	in     []byte // the frame being read; reused across frames
	kind   byte   // the current frame's body kind
	body   []byte // the current frame's body, a suffix of in
	out    []byte // the frame being written; reused across frames

	// names interns method names (server) or column names (client); stmts
	// interns statement texts (server).
	names, stmts interner

	// The gob stream for control-plane bodies, built on first use. gobSrc
	// holds one frame body at a time; being an io.ByteReader, it keeps the
	// decoder from buffering ahead into the next frame.
	gobIn   *gob.Decoder
	gobSrc  bytes.Reader
	gobOut  *gob.Encoder
	gobSink gobSink
}

func newWire(conn io.ReadWriteCloser) *wire {
	return &wire{conn: conn, r: bufio.NewReader(conn)}
}

// readFrame reads the next frame into w.in. A clean end of stream at a
// frame boundary is io.EOF; any other cut is a *FrameError.
func (w *wire) readFrame() error {
	if _, err := io.ReadFull(w.r, w.lenBuf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return &FrameError{Reason: "length prefix cut short"}
		}
		return err
	}
	n32 := binary.LittleEndian.Uint32(w.lenBuf[:])
	if n32 > maxFrame {
		return &FrameError{Len: uint64(n32), Reason: fmt.Sprintf("above the %d-byte cap", maxFrame)}
	}
	n := int(n32)
	buf := w.in[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), readChunk)
		buf = slices.Grow(buf, chunk)
		m, err := io.ReadFull(w.r, buf[len(buf):len(buf)+chunk])
		buf = buf[:len(buf)+m]
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return &FrameError{Len: uint64(n), Reason: fmt.Sprintf("cut short after %d bytes", len(buf))}
			}
			return err
		}
	}
	w.in = buf
	return nil
}

// readHeader reads a frame and parses its header, returning the seq and
// the raw name/error bytes (aliasing the read buffer).
func (w *wire) readHeader() (uint64, []byte, error) {
	if err := w.readFrame(); err != nil {
		return 0, nil, err
	}
	d := value.NewDecoder(w.in)
	seq := d.Uvarint()
	text := d.Bytes(d.Uvarint())
	w.kind = d.Byte()
	if err := d.Err(); err != nil {
		return 0, nil, fmt.Errorf("transport: frame header: %w", err)
	}
	w.body = w.in[len(w.in)-d.Len():]
	return seq, text, nil
}

// readBody decodes the current frame's body into target (nil discards it,
// keeping the gob stream in step).
func (w *wire) readBody(target any) error {
	defer func() {
		w.body = nil
		if cap(w.in) > keepBuf {
			w.in = nil
		}
	}()
	switch w.kind {
	case bodyNone:
		return nil
	case bodyBinary:
		if target == nil {
			return nil
		}
		return readBinaryBody(w.body, target, &w.names, &w.stmts)
	case bodyGob:
		if w.gobIn == nil {
			w.gobIn = gob.NewDecoder(&w.gobSrc)
		}
		w.gobSrc.Reset(w.body)
		err := w.gobIn.Decode(target)
		w.gobSrc.Reset(nil) // pin no frame between calls
		return err
	default:
		return fmt.Errorf("transport: unknown body kind %d", w.kind)
	}
}

// writeFrame encodes one frame (header text, then body) and writes it. An
// encoding failure closes the connection: a gob encoder may already have
// recorded type definitions the peer will never see.
func (w *wire) writeFrame(seq uint64, text string, body any) error {
	b := append(w.out[:0], 0, 0, 0, 0)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(len(text)))
	b = append(b, text...)
	if body == nil {
		b = append(b, bodyNone)
	} else if bb, ok := appendBinaryBody(append(b, bodyBinary), body); ok {
		b = bb
	} else {
		if w.gobOut == nil {
			w.gobOut = gob.NewEncoder(&w.gobSink)
		}
		w.gobSink.b = append(b, bodyGob)
		err := w.gobOut.Encode(body)
		b, w.gobSink.b = w.gobSink.b, nil
		if err != nil {
			_ = w.conn.Close()
			return err
		}
	}
	if len(b)-4 > maxFrame {
		_ = w.conn.Close()
		return &FrameError{Len: uint64(len(b) - 4), Reason: fmt.Sprintf("above the %d-byte cap", maxFrame)}
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	_, err := w.conn.Write(b)
	if cap(b) <= keepBuf {
		w.out = b
	} else {
		w.out = nil
	}
	return err
}

func (w *wire) Close() error { return w.conn.Close() }

// clientCodec is the rpc.ClientCodec of a RemoteNode.
type clientCodec struct{ *wire }

func newClientCodec(conn io.ReadWriteCloser) rpc.ClientCodec {
	return clientCodec{newWire(conn)}
}

func (c clientCodec) WriteRequest(r *rpc.Request, body any) error {
	return c.writeFrame(r.Seq, r.ServiceMethod, body)
}

func (c clientCodec) ReadResponseHeader(r *rpc.Response) error {
	seq, msg, err := c.readHeader()
	if err != nil {
		return err
	}
	r.Seq = seq
	if len(msg) > 0 {
		r.Error = string(msg)
	}
	return nil
}

func (c clientCodec) ReadResponseBody(body any) error { return c.readBody(body) }

// serverCodec is the rpc.ServerCodec of a served node.
type serverCodec struct{ *wire }

func newServerCodec(conn io.ReadWriteCloser) rpc.ServerCodec {
	return serverCodec{newWire(conn)}
}

func (c serverCodec) ReadRequestHeader(r *rpc.Request) error {
	seq, name, err := c.readHeader()
	if err != nil {
		return err
	}
	r.Seq = seq
	r.ServiceMethod = c.names.get(name)
	return nil
}

func (c serverCodec) ReadRequestBody(body any) error { return c.readBody(body) }

func (c serverCodec) WriteResponse(r *rpc.Response, body any) error {
	if r.Error != "" {
		body = nil // the client discards an error response's body
	}
	return c.writeFrame(r.Seq, r.Error, body)
}

// gobSink appends what the gob encoder writes to the frame being built.
type gobSink struct{ b []byte }

func (s *gobSink) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// interner returns one string per distinct byte sequence, so the names and
// statement texts a connection repeats on every call allocate once. It
// keeps at most maxInterned strings of at most maxInternLen bytes; past
// that it allocates like string(b). Only the connection's reader goroutine
// uses it.
type interner map[string]string

const (
	maxInterned  = 256
	maxInternLen = 1024
)

func (m *interner) get(b []byte) string {
	if m == nil {
		return string(b)
	}
	if s, ok := (*m)[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= maxInternLen && len(*m) < maxInterned {
		if *m == nil {
			*m = make(interner, 16)
		}
		(*m)[s] = s
	}
	return s
}

// --- binary bodies -----------------------------------------------------------

// appendBinaryBody appends body's binary form, reporting false for a type
// that has none (it then travels as gob). Arguments arrive as values on the
// client and replies as pointers on the server, so both forms encode.
func appendBinaryBody(b []byte, body any) ([]byte, bool) {
	switch x := body.(type) {
	case struct{}, *struct{}:
	case *Status:
		b = appendStatus(b, x)
	case uint64:
		b = binary.AppendUvarint(b, x)
	case *uint64:
		b = binary.AppendUvarint(b, *x)
	case BeginArgs:
		b = appendBeginArgs(b, &x)
	case *BeginArgs:
		b = appendBeginArgs(b, x)
	case *BeginReply:
		b = binary.AppendUvarint(b, x.ID)
		b = appendStatus(b, &x.Status)
	case ExecArgs:
		b = appendExecArgs(b, &x)
	case *ExecArgs:
		b = appendExecArgs(b, x)
	case *ExecReply:
		b = appendResult(b, x.Result)
		b = binary.AppendUvarint(b, x.TxID)
		b = appendStatus(b, &x.Status)
	case CommitArgs:
		b = appendCommitArgs(b, &x)
	case *CommitArgs:
		b = appendCommitArgs(b, x)
	case *CommitReply:
		b = appendVector(b, x.Version)
		b = appendStatus(b, &x.Status)
	case *heap.WriteSet:
		b = appendWriteSet(b, x)
	default:
		return b, false
	}
	return b, true
}

// readBinaryBody decodes an appendBinaryBody body into target, a pointer.
// names and stmts (either may be nil) intern column names and statement
// texts. The whole body must be consumed.
func readBinaryBody(body []byte, target any, names, stmts *interner) error {
	d := value.NewDecoder(body)
	switch x := target.(type) {
	case *struct{}:
	case *Status:
		readStatus(&d, x)
	case *uint64:
		*x = d.Uvarint()
	case *BeginArgs:
		readBeginArgs(&d, x)
	case *BeginReply:
		x.ID = d.Uvarint()
		readStatus(&d, &x.Status)
	case *ExecArgs:
		x.TxID = d.Uvarint()
		x.Stmt = stmts.get(d.Bytes(d.Uvarint()))
		x.Params = readRow(&d)
		x.DeadlineUS = d.Varint()
		x.Trace = readTrace(&d)
		if readBool(&d) {
			x.Begin = &BeginArgs{}
			readBeginArgs(&d, x.Begin)
		}
	case *ExecReply:
		x.Result = readResult(&d, names)
		x.TxID = d.Uvarint()
		readStatus(&d, &x.Status)
	case *CommitArgs:
		x.TxID = d.Uvarint()
		x.DeadlineUS = d.Varint()
	case *CommitReply:
		x.Version = readVector(&d)
		readStatus(&d, &x.Status)
	case *heap.WriteSet:
		readWriteSet(&d, x)
	default:
		return fmt.Errorf("transport: no binary body for %T", target)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("transport: %T body: %w", target, err)
	}
	if d.Len() != 0 {
		return fmt.Errorf("transport: %d trailing bytes after %T body", d.Len(), target)
	}
	return nil
}

var errBadBool = errors.New("bool byte above 1")

func appendStatus(b []byte, s *Status) []byte {
	b = binary.AppendVarint(b, int64(s.Code))
	return appendString(b, s.Msg)
}

func readStatus(d *value.Decoder, s *Status) {
	s.Code = int(d.Varint())
	s.Msg = d.String()
}

func appendBeginArgs(b []byte, a *BeginArgs) []byte {
	if a.ReadOnly {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendVector(b, a.Version)
	b = binary.AppendVarint(b, a.DeadlineUS)
	return appendTrace(b, a.Trace)
}

func readBeginArgs(d *value.Decoder, a *BeginArgs) {
	a.ReadOnly = readBool(d)
	a.Version = readVector(d)
	a.DeadlineUS = d.Varint()
	a.Trace = readTrace(d)
}

// appendExecArgs ends with a presence byte for the carried begin, then the
// begin itself when present.
func appendExecArgs(b []byte, a *ExecArgs) []byte {
	b = binary.AppendUvarint(b, a.TxID)
	b = appendString(b, a.Stmt)
	b = appendRow(b, a.Params)
	b = binary.AppendVarint(b, a.DeadlineUS)
	b = appendTrace(b, a.Trace)
	if a.Begin == nil {
		return append(b, 0)
	}
	return appendBeginArgs(append(b, 1), a.Begin)
}

func appendCommitArgs(b []byte, a *CommitArgs) []byte {
	b = binary.AppendUvarint(b, a.TxID)
	return binary.AppendVarint(b, a.DeadlineUS)
}

func readBool(d *value.Decoder) bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.Fail(errBadBool)
		return false
	}
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendVector(b []byte, v vclock.Vector) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, c := range v {
		b = binary.AppendUvarint(b, c)
	}
	return b
}

// readVector decodes a vector; an empty one decodes as nil, as gob did.
func readVector(d *value.Decoder) vclock.Vector {
	n := d.Count()
	if n == 0 {
		return nil
	}
	v := vclock.New(n)
	for i := range v {
		v[i] = d.Uvarint()
	}
	return v
}

func appendTrace(b []byte, tc obs.TraceContext) []byte {
	b = binary.LittleEndian.AppendUint64(b, tc.TraceID)
	return binary.LittleEndian.AppendUint64(b, tc.SpanID)
}

func readTrace(d *value.Decoder) obs.TraceContext {
	return obs.TraceContext{TraceID: d.Uint64(), SpanID: d.Uint64()}
}

func appendRow(b []byte, r []value.Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(r)))
	for _, v := range r {
		b = value.AppendBinary(b, v)
	}
	return b
}

// readRow decodes a row into its own backing array (a write-set row becomes
// a stored row, so it must pin nothing else); an empty row decodes as nil.
func readRow(d *value.Decoder) value.Row { return readRowLike(d, nil) }

// readRowLike is readRow, except that a string equal to the one at the same
// position of like shares like's bytes (value.ReadBinaryLike). A write-set
// update's before-image decodes like its after-image, so the two share
// their unchanged strings and the before-image pins no memory of its own.
func readRowLike(d *value.Decoder, like value.Row) value.Row {
	n := d.Count()
	if n == 0 {
		return nil
	}
	r := make(value.Row, n)
	for i := range r {
		var l value.Value
		if i < len(like) {
			l = like[i]
		}
		r[i] = value.ReadBinaryLike(d, l)
	}
	return r
}

// appendResult encodes a statement result: a presence byte, then the
// column names, the row count, the total value count (so the decoder can
// size one backing array), each row, and the affected count.
func appendResult(b []byte, res *exec.Result) []byte {
	if res == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.AppendUvarint(b, uint64(len(res.Cols)))
	for _, c := range res.Cols {
		b = appendString(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(res.Rows)))
	total := 0
	for _, r := range res.Rows {
		total += len(r)
	}
	b = binary.AppendUvarint(b, uint64(total))
	for _, r := range res.Rows {
		b = appendRow(b, r)
	}
	return binary.AppendVarint(b, int64(res.Affected))
}

// readResult decodes appendResult's form. The rows share one backing array,
// each capped (a[i:j:j]) so an append to one never writes into the next.
func readResult(d *value.Decoder, names *interner) *exec.Result {
	if !readBool(d) {
		return nil
	}
	res := &exec.Result{}
	if n := d.Count(); n > 0 {
		res.Cols = make([]string, n)
		for i := range res.Cols {
			res.Cols[i] = names.get(d.Bytes(d.Uvarint()))
		}
	}
	nRows, nVals := d.Count(), d.Count()
	vals := make([]value.Value, nVals)
	if nRows > 0 {
		res.Rows = make([]value.Row, nRows)
	}
	for i := range res.Rows {
		w := d.Uvarint()
		if w > uint64(len(vals)) {
			d.Fail(fmt.Errorf("row of %d values overruns the %d left", w, len(vals)))
			return nil
		}
		if w > 0 {
			res.Rows[i], vals = vals[:w:w], vals[w:]
			for j := range res.Rows[i] {
				res.Rows[i][j] = value.ReadBinary(d)
			}
		}
	}
	if len(vals) != 0 {
		d.Fail(fmt.Errorf("rows hold %d fewer values than the header says", len(vals)))
	}
	res.Affected = int(d.Varint())
	return res
}

func appendWriteSet(b []byte, ws *heap.WriteSet) []byte {
	b = binary.AppendUvarint(b, ws.TxID)
	b = appendVector(b, ws.Version)
	b = binary.AppendUvarint(b, uint64(len(ws.Tables)))
	for _, t := range ws.Tables {
		b = binary.AppendVarint(b, int64(t))
	}
	b = binary.AppendUvarint(b, uint64(len(ws.Records)))
	for i := range ws.Records {
		rec := &ws.Records[i]
		b = binary.AppendVarint(b, int64(rec.Table))
		b = binary.AppendVarint(b, int64(rec.Page))
		b = append(b, byte(rec.Op.Kind))
		b = binary.AppendVarint(b, int64(rec.Op.Row))
		b = appendRow(b, rec.Op.Data)
		b = appendRow(b, rec.Old)
	}
	return appendTrace(b, ws.Trace)
}

func readWriteSet(d *value.Decoder, ws *heap.WriteSet) {
	ws.TxID = d.Uvarint()
	ws.Version = readVector(d)
	if n := d.Count(); n > 0 {
		ws.Tables = make([]int, n)
		for i := range ws.Tables {
			ws.Tables[i] = int(d.Varint())
		}
	}
	if n := d.Count(); n > 0 {
		ws.Records = make([]heap.Record, n)
		for i := range ws.Records {
			rec := &ws.Records[i]
			rec.Table = int(d.Varint())
			rec.Page = page.ID(d.Varint())
			rec.Op.Kind = page.OpKind(d.Byte())
			rec.Op.Row = page.RowID(d.Varint())
			rec.Op.Data = readRow(d)
			rec.Old = readRowLike(d, rec.Op.Data)
		}
	}
	ws.Trace = readTrace(d)
}
