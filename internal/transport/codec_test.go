package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/obs/flight"
	"dmv/internal/page"
	"dmv/internal/replica"
	"dmv/internal/scrub"
	"dmv/internal/simdisk"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// wireSamples holds one or more instance of every binary body, as the
// pointer a decoder fills. Empty slices are nil: they decode as nil.
func wireSamples() []any {
	rollback := uint64(1<<40 + 7)
	commit := uint64(5)
	trace := obs.TraceContext{TraceID: 9, SpanID: 1<<63 + 5}
	params := []value.Value{value.NewInt(-3), value.NewFloat(2.5), value.NewString("héllo"), value.NewNull(), value.NewString("")}
	item := value.Row{value.NewInt(17), value.NewString("title"), value.NewFloat(9.75)}
	images := sampleImages(item)
	keys := []simdisk.PageKey{{Table: 2, Page: 40}, {Table: 0, Page: 1}}
	return []any{
		&struct{}{},
		&Status{},
		&Status{Code: errVersionConflict, Msg: "page: required version already overwritten"},
		&rollback,
		&BeginArgs{ReadOnly: true, Version: vclock.Vector{1, 0, 7}, DeadlineUS: 1500, Trace: trace},
		&BeginArgs{DeadlineUS: -1},
		&BeginReply{ID: 42, Status: Status{Code: errNotMaster, Msg: "not master"}},
		&ExecArgs{TxID: 3, Stmt: "SELECT i_title FROM item WHERE i_id = ?", Params: params},
		&ExecArgs{TxID: 4, Stmt: "SELECT 1"},
		&ExecArgs{Stmt: "SELECT 1",
			Begin: &BeginArgs{ReadOnly: true, Version: vclock.Vector{1, 0, 7}, DeadlineUS: 800, Trace: trace}},
		&ExecReply{Result: &exec.Result{Cols: []string{"a", "b", "c"}, Rows: []value.Row{item, nil, {value.NewNull()}}}},
		&ExecReply{Result: &exec.Result{Affected: 3}},
		&ExecReply{Status: Status{Code: errOther, Msg: "boom"}},
		&ExecReply{TxID: 1<<40 + 3, Status: Status{Code: errVersionConflict, Msg: "conflict"}},
		&commit,
		&CommitReply{Version: vclock.Vector{2, 3}},
		&CommitReply{Status: Status{Code: errLockTimeout, Msg: "lock"}},
		&heap.WriteSet{
			TxID:    8,
			Version: vclock.Vector{4, 1},
			Tables:  []int{0, 2},
			Records: []heap.Record{
				{Table: 0, Page: 3, Op: page.RowOp{Kind: page.OpInsert, Row: 17, Data: item}},
				{Table: 2, Page: 1, Op: page.RowOp{Kind: page.OpUpdate, Row: 1, Data: item},
					Old: value.Row{value.NewInt(17), value.NewString("title"), value.NewFloat(1)}},
				{Table: 2, Page: 1, Op: page.RowOp{Kind: page.OpDelete, Row: 2}, Old: item},
			},
			Trace: trace,
		},
		&heap.WriteSet{TxID: 1},
		&images,
		&Reply[[]page.Image]{Value: images},
		&Reply[[]page.Image]{Status: Status{Code: errNodeDown, Msg: "down"}},
		&PageImagesArgs{Table: 3, Pages: []page.ID{0, 7, 1 << 20}},
		&PageImagesArgs{},
		&Reply[heap.PageVersionMap]{Value: heap.PageVersionMap{
			0: {{Applied: 3, Received: 5, Rows: 64}, {}},
			4: {{Applied: 1 << 40, Received: 1 << 40, Rows: 1}},
		}},
		&Reply[heap.PageVersionMap]{Value: heap.PageVersionMap{}, Status: Status{Code: errOther, Msg: "boom"}},
		&keys,
		&Reply[[]simdisk.PageKey]{Value: keys},
		&Reply[scrub.TableDigest]{Value: scrub.TableDigest{Table: 1, Version: 9, Root: scrub.Hash{1, 2, 3},
			Pages: []scrub.PageDigest{{Page: 0, Hash: scrub.Hash{31: 7}}, {Page: 5, Hash: scrub.Hash{4}}}}},
		&Reply[scrub.TableDigest]{Status: Status{Code: errVersionConflict, Msg: "conflict"}},
	}
}

// sampleImages returns two page images, one of them empty.
func sampleImages(item value.Row) []page.Image {
	return []page.Image{
		{Table: 2, Page: 3, Version: 11, CreateVer: 4, Rows: map[page.RowID]value.Row{
			17: item, 3: {value.NewNull(), value.NewString("")}, -1: {value.NewFloat(-0.5)},
		}},
		{Table: 0, Page: 0, Version: 1, Rows: map[page.RowID]value.Row{}},
	}
}

// encodeSample returns the binary body of a sample.
func encodeSample(t testing.TB, m any) []byte {
	b, ok := appendBinaryBody(nil, m)
	if !ok {
		t.Fatalf("%T has no binary body", m)
	}
	return b
}

// TestWireBodiesRoundTrip: every data-path body decodes to what was
// encoded, shares nothing with the buffer it was read from, and caps each
// result row so an append to one cannot write into the next.
func TestWireBodiesRoundTrip(t *testing.T) {
	for _, m := range wireSamples() {
		body := encodeSample(t, m)
		got := reflect.New(reflect.TypeOf(m).Elem()).Interface()
		if err := readBinaryBody(body, got, nil, nil); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		for i := range body {
			body[i] = 0xAA
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%T round trip:\n got %+v\nwant %+v", m, got, m)
		}
		if r, ok := got.(*ExecReply); ok && r.Result != nil && len(r.Result.Rows) > 0 {
			row := r.Result.Rows[0]
			if cap(row) != len(row) {
				t.Fatalf("result row has cap %d, len %d", cap(row), len(row))
			}
		}
	}
}

// TestCarriedBeginPresenceByte: an ExecArgs body whose begin-presence byte
// is neither 0 nor 1 is refused.
func TestCarriedBeginPresenceByte(t *testing.T) {
	body := encodeSample(t, &ExecArgs{TxID: 4, Stmt: "SELECT 1"})
	body[len(body)-1] = 2
	if err := readBinaryBody(body, &ExecArgs{}, nil, nil); !errors.Is(err, errBadBool) {
		t.Fatalf("presence byte 2: err = %v, want errBadBool", err)
	}
}

// TestWriteSetBeforeImageSharesStrings: an update's before-image shares the
// strings it repeats from the after-image instead of copying them.
func TestWriteSetBeforeImageSharesStrings(t *testing.T) {
	title := value.NewString("a title long enough to need its own allocation")
	ws := &heap.WriteSet{Records: []heap.Record{{
		Op:  page.RowOp{Kind: page.OpUpdate, Row: 1, Data: value.Row{value.NewInt(2), title}},
		Old: value.Row{value.NewInt(1), title},
	}}}
	body := encodeSample(t, ws)
	var got heap.WriteSet
	n := testing.AllocsPerRun(100, func() {
		got = heap.WriteSet{}
		if err := readBinaryBody(body, &got, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	// The record slice, the after-image row and its string, the
	// before-image row.
	if n != 4 {
		t.Fatalf("decoding the write-set allocates %.0f times, want 4", n)
	}
	if !reflect.DeepEqual(&got, ws) {
		t.Fatalf("decoded %+v, want %+v", got, ws)
	}
}

// FuzzWireBodies: arbitrary bytes decoded as any data-path body fail or
// succeed without panicking, allocate a bounded multiple of their length
// (no count can claim more elements than bytes remain), and whatever
// decodes survives an encode/decode round trip unchanged. The same bytes
// as a whole frame go through the frame reader without panicking.
func FuzzWireBodies(f *testing.F) {
	samples := wireSamples()
	for i, m := range samples {
		f.Add(uint8(i), encodeSample(f, m))
	}
	f.Add(uint8(10), []byte{1, 1, 0, 0x80, 0x80, 0x80, 0x80, 0x08}) // an ExecReply row count far past the body
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		typ := reflect.TypeOf(samples[int(which)%len(samples)]).Elem()
		// The fewest bytes of three decodes: TotalAlloc counts the whole
		// process, where the fuzzing engine and lazily refilled caches
		// allocate kilobytes now and then, while decoding the same bytes
		// allocates the same every time.
		var target any
		var err error
		var alloc uint64
		for i := 0; i < 3; i++ {
			target = reflect.New(typ).Interface()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = readBinaryBody(body, target, nil, nil)
			runtime.ReadMemStats(&after)
			if a := after.TotalAlloc - before.TotalAlloc; i == 0 || a < alloc {
				alloc = a
			}
		}
		if alloc > 128*uint64(len(body))+4096 {
			t.Fatalf("decoding %d bytes as %v allocated %d bytes", len(body), typ, alloc)
		}
		if err == nil {
			enc := encodeSample(t, target)
			again := reflect.New(typ).Interface()
			if err := readBinaryBody(enc, again, nil, nil); err != nil {
				t.Fatalf("re-decode of %x as %v: %v", enc, typ, err)
			}
			if got := encodeSample(t, again); !bytes.Equal(got, enc) {
				t.Fatalf("%v round trip = %x, want %x", typ, got, enc)
			}
		}

		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		w := newWire(readOnlyConn{bytes.NewReader(append(frame, body...))})
		if _, _, err := w.readHeader(); err == nil {
			_ = w.readBody(reflect.New(typ).Interface())
		}
	})
}

// TestJSONBodiesRoundTrip: every body without a binary form travels as
// JSON, written as a value or through a pointer, and decodes to what was
// encoded; a nil target discards a body and leaves the stream in step; a
// reply that cannot be encoded answers with the failure instead of nothing.
func TestJSONBodiesRoundTrip(t *testing.T) {
	snap := obs.Snapshot{
		Counters:   map[string]int64{"dmv_a_total": 3},
		Gauges:     map[string]float64{"dmv_g": 1.5},
		Histograms: map[string]obs.HistSnapshot{"dmv_h_us": {Count: 2, Sum: 30, Buckets: []obs.HistBucket{{Bound: 16, Count: 2}}}},
	}
	span := obs.Span{ID: 1, TraceID: 2, SpanID: 1<<63 + 3, Kind: "read", Node: "s1", Start: time.Unix(5, 6).UTC(),
		Total: time.Millisecond, Stages: []obs.SpanStage{{Name: "exec", Offset: time.Microsecond}}}
	for _, m := range []any{
		&map[string]string{"slave1": "127.0.0.1:7102", "slave2": "127.0.0.1:7103"},
		&[]int{0, 3},
		func() *replica.Role { r := replica.RoleSpare; return &r }(),
		&vclock.Vector{4, 0, 1 << 62},
		func() *int { n := 25; return &n }(),
		&DigestArgs{Table: 2, Version: 9, WithPages: true},
		&Reply[int]{Value: 3},
		&Reply[int]{Status: Status{Code: errNodeDown, Msg: "down"}},
		&Reply[vclock.Vector]{Value: vclock.Vector{7, 8}},
		&Reply[obs.NodeSnapshot]{Value: obs.NodeSnapshot{Node: "s1", Role: "slave", StartUnix: 10,
			Applied: []uint64{1, 2}, MaxVer: []uint64{2, 2}, PendingMods: 4, Snap: snap, Spans: []obs.Span{span}}},
		&Reply[flight.NodeDump]{Value: flight.NodeDump{Node: "s1", Metrics: snap, Dropped: 2,
			Runtime: flight.RuntimeSample{Goroutines: 12, HeapBytes: 1 << 20},
			Entries: []flight.Entry{{Seq: 1, TS: 99, Kind: "span", Node: "s1", Span: &span},
				{Seq: 2, Kind: "deltas", Deltas: map[string]int64{"dmv_a_total": 1}}}}},
	} {
		for _, form := range []any{reflect.ValueOf(m).Elem().Interface(), m} {
			w := newWire(&bufConn{})
			if err := w.writeFrame(1, "Node.X", form); err != nil {
				t.Fatalf("%T: write: %v", form, err)
			}
			if _, _, err := w.readHeader(); err != nil || w.kind != bodyJSON {
				t.Fatalf("%T: header err %v, body kind %d, want %d", form, err, w.kind, bodyJSON)
			}
			got := reflect.New(reflect.TypeOf(m).Elem()).Interface()
			if err := w.readBody(got); err != nil {
				t.Fatalf("%T: read: %v", form, err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("%T round trip:\n got %+v\nwant %+v", form, got, m)
			}
		}
	}

	w := newWire(&bufConn{})
	if err := w.writeFrame(1, "Node.X", &Reply[int]{Value: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.writeFrame(2, "Node.Y", &Reply[int]{Value: 6}); err != nil {
		t.Fatal(err)
	}
	var got Reply[int]
	if _, _, err := w.readHeader(); err != nil {
		t.Fatal(err)
	}
	if err := w.readBody(nil); err != nil {
		t.Fatalf("discarding a JSON body: %v", err)
	}
	if seq, _, err := w.readHeader(); err != nil || seq != 2 {
		t.Fatalf("frame after a discarded body: seq %d, err %v", seq, err)
	}
	if err := w.readBody(&got); err != nil || got.Value != 6 {
		t.Fatalf("frame after a discarded body = %+v, %v", got, err)
	}

	conn := &bufConn{}
	(&serverConn{w: newWire(conn)}).reply(7, "", &Reply[float64]{Value: math.Inf(1)})
	seq, text, err := newWire(conn).readHeader()
	if err != nil || seq != 7 || !strings.Contains(string(text), "encode") {
		t.Fatalf("unencodable reply answered seq %d, %q, %v; want seq 7 with an encode error", seq, text, err)
	}
}

// bufConn is a connection that reads back what was written to it.
type bufConn struct{ bytes.Buffer }

func (*bufConn) Close() error { return nil }

type readOnlyConn struct{ io.Reader }

func (readOnlyConn) Write(p []byte) (int, error) { return len(p), nil }
func (readOnlyConn) Close() error                { return nil }

// TestFrameErrors: a length prefix above the cap and a frame cut short are
// *FrameError, and a clean close at a frame boundary is io.EOF.
func TestFrameErrors(t *testing.T) {
	for _, c := range []struct {
		name   string
		stream []byte
	}{
		{"over cap", binary.LittleEndian.AppendUint32(nil, maxFrame+1)},
		{"short frame", append(binary.LittleEndian.AppendUint32(nil, 100), 1, 2, 3)},
		{"short length", []byte{1, 0}},
	} {
		var fe *FrameError
		if _, _, err := newWire(readOnlyConn{bytes.NewReader(c.stream)}).readHeader(); !errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want a *FrameError", c.name, err)
		}
	}
	if _, _, err := newWire(readOnlyConn{bytes.NewReader(nil)}).readHeader(); err != io.EOF {
		t.Errorf("clean close: err = %v, want io.EOF", err)
	}
}

// TestServerAnswersBadRequests: a request for an unknown method and one
// whose body does not decode each get an error frame with their seq, and
// the connection goes on serving: a Ping behind them succeeds.
func TestServerAnswersBadRequests(t *testing.T) {
	srv, err := ServeNode(newTPCNode(t, "n"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := newWire(conn)

	if err := w.writeFrame(1, "Node.NoSuchMethod", &struct{}{}); err != nil {
		t.Fatal(err)
	}
	begin := encodeSample(t, &BeginArgs{ReadOnly: true, Version: vclock.Vector{1, 2}, DeadlineUS: 1500})
	frame := binary.AppendUvarint(nil, 2)
	frame = append(binary.AppendUvarint(frame, uint64(len("Node.TxBegin"))), "Node.TxBegin"...)
	frame = append(append(frame, bodyBinary), begin[:len(begin)-3]...) // truncated
	if _, err := conn.Write(append(binary.LittleEndian.AppendUint32(nil, uint32(len(frame))), frame...)); err != nil {
		t.Fatal(err)
	}
	if err := w.writeFrame(3, "Node.Ping", &struct{}{}); err != nil {
		t.Fatal(err)
	}

	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for _, want := range []struct {
		seq    uint64
		errMsg string // in the error frame; "" for a successful reply
	}{{1, "unknown method"}, {2, "BeginArgs"}, {3, ""}} {
		seq, text, err := w.readHeader()
		if err != nil {
			t.Fatalf("reply to seq %d: %v", want.seq, err)
		}
		if seq != want.seq {
			t.Fatalf("reply seq %d, want %d", seq, want.seq)
		}
		var st Status
		if err := w.readBody(&st); err != nil {
			t.Fatalf("seq %d body: %v", seq, err)
		}
		switch {
		case want.errMsg != "" && !strings.Contains(string(text), want.errMsg):
			t.Fatalf("seq %d answered %q, want an error frame naming %q", seq, text, want.errMsg)
		case want.errMsg == "" && (len(text) > 0 || st.Err() != nil):
			t.Fatalf("ping behind the bad requests answered %q, %v", text, st.Err())
		}
	}
}

// TestFramingErrorRedials: a peer that answers with a garbage length prefix
// or a frame cut short, or a connection whose read fails, makes the call
// fail with ErrNodeDown, and the next call re-dials and succeeds. The read
// error's text does not say "connection": the error is the connection's
// because of where it came from.
func TestFramingErrorRedials(t *testing.T) {
	node := newTPCNode(t, "n")
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	streams := []struct {
		reply   []byte // what the peer answers; nil serves the call
		readErr error  // what the client's reads fail with; nil for none
		want    string // in the call's error
	}{
		{reply: []byte{0xff, 0xff, 0xff, 0xff}, want: "bad frame"},                                   // far above the cap
		{reply: append(binary.LittleEndian.AppendUint32(nil, 64), 1, 2, 3, 4, 5), want: "bad frame"}, // cut short
		{readErr: errors.New("injected read failure"), want: "injected read failure"},
	}
	accepted := make(chan struct{}, 8)
	go func() {
		for i := 0; ; i++ {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			accepted <- struct{}{}
			if i < len(streams) && streams[i].reply != nil {
				go func(reply []byte) {
					buf := make([]byte, 256)
					_, _ = conn.Read(buf) // the request
					_, _ = conn.Write(reply)
					_ = conn.Close()
				}(streams[i].reply)
				continue
			}
			go (&NodeService{node: node}).serve(conn)
		}
	}()
	dials := 0
	dial := func(network, addr string) (net.Conn, error) {
		conn, err := net.Dial(network, addr)
		i := dials
		dials++
		if err == nil && i < len(streams) && streams[i].readErr != nil {
			return &failingReadConn{Conn: conn, err: streams[i].readErr, wrote: make(chan struct{})}, nil
		}
		return conn, err
	}
	peer, err := DialNodeOpts("n", lis.Addr().String(), ClientOptions{RetryAttempts: -1, Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	for i, s := range streams {
		err := peer.Ping()
		if !errors.Is(err, replica.ErrNodeDown) || !strings.Contains(err.Error(), s.want) {
			t.Fatalf("ping %d = %v, want ErrNodeDown from %q", i, err, s.want)
		}
	}
	if err := peer.Ping(); err != nil {
		t.Fatalf("ping after re-dial: %v", err)
	}
	if n := len(accepted); n != len(streams)+1 {
		t.Fatalf("%d connections accepted, want %d (one re-dial per failed connection)", n, len(streams)+1)
	}
}

// failingReadConn is a connection whose reads fail with err once the first
// request has been written, so the failure meets a call in flight.
type failingReadConn struct {
	net.Conn
	err   error
	once  sync.Once
	wrote chan struct{}
}

func (c *failingReadConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.once.Do(func() { close(c.wrote) })
	return n, err
}

func (c *failingReadConn) Read([]byte) (int, error) {
	<-c.wrote
	return 0, c.err
}
