package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/page"
	"dmv/internal/replica"
	"dmv/internal/scrub"
	"dmv/internal/simdisk"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// The wire format. Each request and each reply is one frame:
//
//	uint32 little-endian length of the rest (at most maxFrame)
//	uvarint seq
//	uvarint len + bytes: the method name (requests) or the error (replies)
//	1 byte body kind: bodyNone, bodyBinary or bodyJSON
//	the body
//
// A reply carries its request's seq, so calls on one connection may be
// answered in any order (clientConn matches them up; serverConn runs each
// request on its own goroutine). An error reply has no body.
//
// Binary bodies are hand-written. The data-path messages (Status,
// BeginArgs/BeginReply, ExecArgs/ExecReply, CommitReply, the session id
// that TxCommit and TxRollback send, *heap.WriteSet, and the empty struct{}
// argument) have one, with rows in value.AppendRow's layout, the WAL's. So does every
// control-plane body that holds one entry per page, since those grow with
// the database: page images (page.AppendImage, the checkpoint files'
// encoding), PageImagesArgs, page-version maps, page-key lists and digests.
// Every other body (the role, vectors, counts, the subscriber map, obs
// snapshots, flight dumps) is JSON inside the frame, which keeps no state
// between frames.
//
// Each end of a connection reads frames on one goroutine and writes them
// under a mutex, so the read and write halves of a wire need no lock of
// their own. Decoded strings and slices never alias the read buffer, which
// the next frame reuses while the previous request's handler may still be
// running.

// maxFrame caps a frame's declared length. The largest frame the tests ship
// is a page-image set of about 4 KiB; the cap leaves room for migrating a
// whole database. A frame's buffer grows only as its bytes arrive, so even
// a corrupt length below the cap costs no more memory than the peer sends.
const maxFrame = 256 << 20

const (
	// readChunk is how far the read buffer grows ahead of the bytes read.
	readChunk = 64 << 10
	// keepBuf is the largest buffer a wire keeps between frames; a larger
	// one (a page-image shipment) is dropped after use.
	keepBuf = 64 << 10
)

// Body kinds.
const (
	bodyNone byte = iota
	bodyBinary
	bodyJSON
)

// FrameError is a framing failure: a frame cut short by the connection
// ending, or a length prefix above maxFrame. The stream cannot be resumed
// after either, so the caller sees the node as down (clientConn.fail).
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

	// names interns result column names (client); stmts interns statement
	// texts (server).
	names, stmts interner
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

// readBody decodes the current frame's body into target; a nil target
// discards it.
func (w *wire) readBody(target any) error {
	defer func() {
		w.body = nil
		if cap(w.in) > keepBuf {
			w.in = nil
		}
	}()
	if target == nil {
		return nil
	}
	switch w.kind {
	case bodyNone:
		return nil
	case bodyBinary:
		return readBinaryBody(w.body, target, &w.names, &w.stmts)
	case bodyJSON:
		return json.Unmarshal(w.body, target)
	default:
		return fmt.Errorf("transport: unknown body kind %d", w.kind)
	}
}

// errEncode wraps a body that failed to encode; nothing was written then.
var errEncode = errors.New("transport: encode body")

// writeFrame encodes one frame (header text, then body) and writes it.
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
		j, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("%w %T: %v", errEncode, body, err)
		}
		b = append(append(b, bodyJSON), j...)
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

// errDeadline is what roundTrip returns when a call's deadline passed first;
// callOnce turns it into ErrPeerTimeout.
var errDeadline = errors.New("transport: call deadline passed")

// clientConn multiplexes a RemoteNode's calls over one connection. Each
// request goes out as one frame under a fresh seq, and one reader goroutine
// (readLoop) hands each reply to the call waiting on its seq. Whoever
// removes a call from pending (the reader, the call's deadline timer, or a
// connection failure) is the one that completes it, so a reply is decoded
// only into a call that is still waiting for it.
type clientConn struct {
	id       string        // the peer, for error messages
	w        *wire         // read by readLoop alone; written under wmu
	readDone chan struct{} // closed when readLoop returns

	wmu sync.Mutex // one request frame at a time

	mu      sync.Mutex
	seq     uint64                  // guarded by mu; the next request's seq
	pending map[uint64]pendingEntry // guarded by mu; calls awaiting a reply
	writing bool                    // guarded by mu; a request frame is being written
	err     error                   // guarded by mu; why the connection failed (ErrNodeDown)
}

// pendingEntry is a call awaiting its reply; sent is set once its request
// frame is fully written.
type pendingEntry struct {
	call *pendingCall
	sent bool
}

// pendingCall is one call in flight: its reply target, its outcome and its
// completion signal, with the timer that enforces its deadline. Calls are
// recycled through pendingCalls. One goes back only when its timer never
// fired, so no timer callback can still be looking at it.
type pendingCall struct {
	c     *clientConn
	seq   uint64
	reply any
	err   error
	done  chan struct{} // receives once when the call completes
	t     *time.Timer   // runs expire; nil until the pooled call's first use
}

var pendingCalls = sync.Pool{New: func() any { return &pendingCall{done: make(chan struct{}, 1)} }}

func newClientConn(id string, conn io.ReadWriteCloser) *clientConn {
	c := &clientConn{id: id, w: newWire(conn), readDone: make(chan struct{}), pending: make(map[uint64]pendingEntry, 8)}
	go c.readLoop()
	return c
}

// roundTrip sends one request and waits for its reply, decoded into reply,
// for at most d. It returns errDeadline when d passed
// first, the error text of an error frame, or ErrNodeDown when the
// connection failed.
//
// A call whose request was written before its deadline is forgotten and the
// connection stays up; its late reply is discarded. A call whose request is
// still unwritten at its deadline closes the connection if a write is in
// progress (expire): a writer stalled on a dead link wakes no other way.
func (c *clientConn) roundTrip(method string, args, reply any, d time.Duration) error {
	pc := pendingCalls.Get().(*pendingCall)
	pc.c, pc.reply = c, reply
	c.mu.Lock()
	err := c.err
	if err == nil {
		pc.seq = c.seq
		c.seq++
		c.pending[pc.seq] = pendingEntry{call: pc}
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if pc.t == nil {
		pc.t = time.AfterFunc(d, pc.expire)
	} else {
		pc.t.Reset(d)
	}

	// A call its deadline already withdrew is not written.
	c.wmu.Lock()
	c.mu.Lock()
	_, live := c.pending[pc.seq]
	c.writing = live
	c.mu.Unlock()
	if live {
		err = c.w.writeFrame(pc.seq, method, args)
	}
	c.mu.Lock()
	c.writing = false
	if e, ok := c.pending[pc.seq]; ok && err == nil {
		e.sent = true
		c.pending[pc.seq] = e
	}
	c.mu.Unlock()
	c.wmu.Unlock()
	switch {
	case err == nil:
	case errors.Is(err, errEncode):
		// Nothing was written: the call fails alone.
		if c.claim(pc.seq) != nil {
			pc.err = err
			pc.done <- struct{}{}
		}
	default:
		c.fail(err)
	}

	<-pc.done
	err = pc.err
	if pc.t.Stop() {
		pc.c, pc.reply, pc.err = nil, nil, nil
		pendingCalls.Put(pc)
	}
	return err
}

// claim removes seq's call from pending; it is nil when seq has none.
func (c *clientConn) claim(seq uint64) *pendingCall {
	c.mu.Lock()
	pc := c.pending[seq].call
	delete(c.pending, seq)
	c.mu.Unlock()
	return pc
}

// expire is a call's deadline timer. A call still waiting to be written is
// withdrawn; but when a write is in progress, this call's or one ahead of
// it, the connection is closed, since that write may be stalled on a dead
// link and a half-written frame cannot be resumed.
func (pc *pendingCall) expire() {
	c := pc.c
	c.mu.Lock()
	e, ok := c.pending[pc.seq]
	delete(c.pending, pc.seq)
	blocked := !e.sent && c.writing
	c.mu.Unlock()
	if !ok {
		return // the reply or a failure came first
	}
	if blocked {
		c.fail(errors.New("deadline passed with a request write in progress"))
	}
	pc.err = errDeadline
	pc.done <- struct{}{}
}

// fail marks the connection failed and closes it; every pending call ends
// with ErrNodeDown, and one whose request was written also with
// ErrReplyLost, since the peer may have carried it out. The first failure's
// cause is kept.
func (c *clientConn) fail(cause error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s: %v", replica.ErrNodeDown, c.id, cause)
	}
	err, pending := c.err, c.pending
	c.pending = nil // no call registers once c.err is set
	c.mu.Unlock()
	_ = c.w.Close()
	for _, e := range pending {
		e.call.err = err
		if e.sent {
			e.call.err = fmt.Errorf("%w: %w", replica.ErrReplyLost, err)
		}
		e.call.done <- struct{}{}
	}
}

// failed reports whether the connection has failed.
func (c *clientConn) failed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// readLoop reads replies until the connection fails. A reply whose call is
// gone (it timed out) is read and discarded; an error frame fails its call
// with the error's text; a body that does not decode fails its call alone,
// since the frame was read whole and the stream is still in step.
func (c *clientConn) readLoop() {
	defer close(c.readDone)
	for {
		seq, text, err := c.w.readHeader()
		if err != nil {
			c.fail(err)
			return
		}
		pc := c.claim(seq)
		var target any
		if pc != nil && len(text) == 0 {
			target = pc.reply
		}
		err = c.w.readBody(target)
		if pc == nil {
			continue
		}
		if len(text) > 0 {
			err = errors.New(string(text))
		}
		pc.err = err
		pc.done <- struct{}{}
	}
}

// serverConn is one served connection: the reader goroutine decodes each
// request and hands it to a handler goroutine, and replies are written one
// frame at a time under wmu, in whatever order the handlers finish.
type serverConn struct {
	svc *NodeService
	w   *wire // read by NodeService.serve alone; written under wmu

	wmu sync.Mutex
}

// reply writes seq's reply frame: errText for an error, else body. A body
// that fails to encode is answered with the failure. A failed write closes
// the connection, since a half-written frame cannot be resumed.
func (c *serverConn) reply(seq uint64, errText string, body any) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	err := c.w.writeFrame(seq, errText, body)
	if errors.Is(err, errEncode) {
		err = c.w.writeFrame(seq, err.Error(), nil)
	}
	if err != nil {
		_ = c.w.Close()
	}
}

// handle decodes a request's argument into a fresh A and answers it with
// fn's reply on a goroutine of its own, so a slow call never holds up the
// frames behind it. An argument that does not decode is answered with the
// error.
func handle[A any](c *serverConn, seq uint64, fn func(*NodeService, *A) any) {
	a := new(A)
	if err := c.w.readBody(a); err != nil {
		c.reply(seq, err.Error(), nil)
		return
	}
	go func() { c.reply(seq, "", fn(c.svc, a)) }()
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
// that has none (it then travels as JSON). Bodies are pointers: the client
// sends its arguments as pointers and the server answers with pointers.
func appendBinaryBody(b []byte, body any) ([]byte, bool) {
	switch x := body.(type) {
	case *struct{}:
	case *Status:
		b = appendStatus(b, x)
	case *uint64:
		b = binary.AppendUvarint(b, *x)
	case *BeginArgs:
		b = appendBeginArgs(b, x)
	case *BeginReply:
		b = binary.AppendUvarint(b, x.ID)
		b = appendStatus(b, &x.Status)
	case *ExecArgs:
		b = appendExecArgs(b, x)
	case *ExecReply:
		b = appendResult(b, x.Result)
		b = binary.AppendUvarint(b, x.TxID)
		b = appendStatus(b, &x.Status)
	case *CommitReply:
		b = appendVector(b, x.Version)
		b = appendStatus(b, &x.Status)
	case *heap.WriteSet:
		b = appendWriteSet(b, x)
	case *[]page.Image:
		b = appendList(b, *x, page.AppendImage)
	case *Reply[[]page.Image]:
		b = appendStatus(appendList(b, x.Value, page.AppendImage), &x.Status)
	case *PageImagesArgs:
		b = appendList(binary.AppendVarint(b, int64(x.Table)), x.Pages, func(b []byte, p page.ID) []byte {
			return binary.AppendVarint(b, int64(p))
		})
	case *Reply[heap.PageVersionMap]:
		b = appendStatus(appendPageVersions(b, x.Value), &x.Status)
	case *[]simdisk.PageKey:
		b = appendList(b, *x, appendPageKey)
	case *Reply[[]simdisk.PageKey]:
		b = appendStatus(appendList(b, x.Value, appendPageKey), &x.Status)
	case *Reply[scrub.TableDigest]:
		b = appendStatus(appendDigest(b, &x.Value), &x.Status)
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
		x.Params = value.ReadRow(&d, nil)
		if readBool(&d) {
			x.Begin = &BeginArgs{}
			readBeginArgs(&d, x.Begin)
		}
	case *ExecReply:
		x.Result = readResult(&d, names)
		x.TxID = d.Uvarint()
		readStatus(&d, &x.Status)
	case *CommitReply:
		x.Version = readVector(&d)
		readStatus(&d, &x.Status)
	case *heap.WriteSet:
		readWriteSet(&d, x)
	case *[]page.Image:
		*x = readImages(&d)
	case *Reply[[]page.Image]:
		x.Value = readImages(&d)
		readStatus(&d, &x.Status)
	case *PageImagesArgs:
		x.Table = int(d.Varint())
		x.Pages = makeList[page.ID](&d)
		for i := range x.Pages {
			x.Pages[i] = page.ID(d.Varint())
		}
	case *Reply[heap.PageVersionMap]:
		x.Value = readPageVersions(&d)
		readStatus(&d, &x.Status)
	case *[]simdisk.PageKey:
		*x = readPageKeys(&d)
	case *Reply[[]simdisk.PageKey]:
		x.Value = readPageKeys(&d)
		readStatus(&d, &x.Status)
	case *Reply[scrub.TableDigest]:
		readDigest(&d, &x.Value)
		readStatus(&d, &x.Status)
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
	b = value.AppendRow(b, a.Params)
	if a.Begin == nil {
		return append(b, 0)
	}
	return appendBeginArgs(append(b, 1), a.Begin)
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

// readVector decodes a vector; an empty one decodes as nil.
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
		b = value.AppendRow(b, r)
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
		b = value.AppendRow(b, rec.Op.Data)
		b = value.AppendRow(b, rec.Old)
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
			rec.Op.Data = value.ReadRow(d, nil)
			// The before-image shares the after-image's unchanged strings,
			// so it pins no memory of its own.
			rec.Old = value.ReadRow(d, rec.Op.Data)
		}
	}
	ws.Trace = readTrace(d)
}

// --- per-page control-plane bodies ------------------------------------------

// appendList appends a uvarint count, then each element of xs.
func appendList[T any](b []byte, xs []T, add func([]byte, T) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = add(b, x)
	}
	return b
}

// makeList reads an appendList count and returns a list of that length for
// the caller to fill; an empty one is nil. The caller reads the elements
// itself: a decoder handed to a function value would escape to the heap.
func makeList[T any](d *value.Decoder) []T {
	if n := d.Count(); n > 0 {
		return make([]T, n)
	}
	return nil
}

func readImages(d *value.Decoder) []page.Image {
	imgs := makeList[page.Image](d)
	for i := range imgs {
		imgs[i] = page.ReadImage(d)
	}
	return imgs
}

// appendPageVersions encodes the tables in ascending id order, each as its
// id and its pages' (applied, received, rows) triples.
func appendPageVersions(b []byte, m heap.PageVersionMap) []byte {
	tables := make([]int, 0, len(m))
	for t := range m {
		tables = append(tables, t)
	}
	slices.Sort(tables)
	b = binary.AppendUvarint(b, uint64(len(m)))
	for _, t := range tables {
		b = appendList(binary.AppendVarint(b, int64(t)), m[t], func(b []byte, v heap.PageVersion) []byte {
			b = binary.AppendUvarint(b, v.Applied)
			b = binary.AppendUvarint(b, v.Received)
			return binary.AppendVarint(b, int64(v.Rows))
		})
	}
	return b
}

// readPageVersions decodes appendPageVersions' form; the map is never nil,
// a table with no pages maps to nil.
func readPageVersions(d *value.Decoder) heap.PageVersionMap {
	n := d.Count()
	m := make(heap.PageVersionMap, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		t := int(d.Varint())
		vers := makeList[heap.PageVersion](d)
		for j := range vers {
			vers[j] = heap.PageVersion{Applied: d.Uvarint(), Received: d.Uvarint(), Rows: int(d.Varint())}
		}
		m[t] = vers
	}
	return m
}

func appendPageKey(b []byte, k simdisk.PageKey) []byte {
	return binary.AppendVarint(binary.AppendVarint(b, int64(k.Table)), int64(k.Page))
}

func readPageKeys(d *value.Decoder) []simdisk.PageKey {
	keys := makeList[simdisk.PageKey](d)
	for i := range keys {
		keys[i] = simdisk.PageKey{Table: int(d.Varint()), Page: int32(d.Varint())}
	}
	return keys
}

// appendDigest encodes the table, the pinned version, the root and the
// leaves, each a page id and its hash.
func appendDigest(b []byte, dg *scrub.TableDigest) []byte {
	b = binary.AppendVarint(b, int64(dg.Table))
	b = binary.AppendUvarint(b, dg.Version)
	return appendList(append(b, dg.Root[:]...), dg.Pages, func(b []byte, p scrub.PageDigest) []byte {
		return append(binary.AppendVarint(b, int64(p.Page)), p.Hash[:]...)
	})
}

func readDigest(d *value.Decoder, dg *scrub.TableDigest) {
	dg.Table = int(d.Varint())
	dg.Version = d.Uvarint()
	copy(dg.Root[:], d.Bytes(uint64(len(dg.Root))))
	dg.Pages = makeList[scrub.PageDigest](d)
	for i := range dg.Pages {
		dg.Pages[i].Page = page.ID(d.Varint())
		copy(dg.Pages[i].Hash[:], d.Bytes(uint64(len(dg.Pages[i].Hash))))
	}
}
