package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/rpc"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dmv/internal/exec"
	"dmv/internal/heap"
	"dmv/internal/obs"
	"dmv/internal/page"
	"dmv/internal/replica"
	"dmv/internal/value"
	"dmv/internal/vclock"
)

// wireSamples holds one or more instance of every data-path body, as the
// pointer a decoder fills. Empty slices are nil: they decode as nil.
func wireSamples() []any {
	rollback := uint64(1<<40 + 7)
	trace := obs.TraceContext{TraceID: 9, SpanID: 1<<63 + 5}
	params := []value.Value{value.NewInt(-3), value.NewFloat(2.5), value.NewString("héllo"), value.NewNull(), value.NewString("")}
	item := value.Row{value.NewInt(17), value.NewString("title"), value.NewFloat(9.75)}
	return []any{
		&struct{}{},
		&Status{},
		&Status{Code: errVersionConflict, Msg: "page: required version already overwritten"},
		&rollback,
		&BeginArgs{ReadOnly: true, Version: vclock.Vector{1, 0, 7}, DeadlineUS: 1500, Trace: trace},
		&BeginArgs{DeadlineUS: -1},
		&BeginReply{ID: 42, Status: Status{Code: errNotMaster, Msg: "not master"}},
		&ExecArgs{TxID: 3, Stmt: "SELECT i_title FROM item WHERE i_id = ?", Params: params, DeadlineUS: 900, Trace: trace},
		&ExecArgs{TxID: 4, Stmt: "SELECT 1"},
		&ExecArgs{Stmt: "SELECT 1", DeadlineUS: 700, Trace: trace,
			Begin: &BeginArgs{ReadOnly: true, Version: vclock.Vector{1, 0, 7}, DeadlineUS: 800, Trace: trace}},
		&ExecReply{Result: &exec.Result{Cols: []string{"a", "b", "c"}, Rows: []value.Row{item, nil, {value.NewNull()}}}},
		&ExecReply{Result: &exec.Result{Affected: 3}},
		&ExecReply{Status: Status{Code: errOther, Msg: "boom"}},
		&ExecReply{TxID: 1<<40 + 3, Status: Status{Code: errVersionConflict, Msg: "conflict"}},
		&CommitArgs{TxID: 5, DeadlineUS: 100},
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
	// The value forms the client sends encode like the pointers.
	for _, pair := range [][2]any{
		{BeginArgs{ReadOnly: true}, &BeginArgs{ReadOnly: true}},
		{ExecArgs{TxID: 2, Stmt: "x"}, &ExecArgs{TxID: 2, Stmt: "x"}},
		{CommitArgs{TxID: 2}, &CommitArgs{TxID: 2}},
		{uint64(9), func() *uint64 { u := uint64(9); return &u }()},
		{struct{}{}, &struct{}{}},
	} {
		if a, b := encodeSample(t, pair[0]), encodeSample(t, pair[1]); !bytes.Equal(a, b) {
			t.Fatalf("%T encodes %x, %T encodes %x", pair[0], a, pair[1], b)
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
// as a whole frame go through the server codec without panicking.
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
		c := newServerCodec(readOnlyConn{bytes.NewReader(append(frame, body...))})
		var req rpc.Request
		if c.ReadRequestHeader(&req) == nil {
			_ = c.ReadRequestBody(reflect.New(typ).Interface())
		}
	})
}

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
		codec := newClientCodec(readOnlyConn{bytes.NewReader(c.stream)})
		var fe *FrameError
		if err := codec.ReadResponseHeader(&rpc.Response{}); !errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want a *FrameError", c.name, err)
		}
	}
	codec := newClientCodec(readOnlyConn{bytes.NewReader(nil)})
	if err := codec.ReadResponseHeader(&rpc.Response{}); err != io.EOF {
		t.Errorf("clean close: err = %v, want io.EOF", err)
	}
}

// TestFramingErrorRedials: a peer that answers with a garbage length prefix
// or a frame cut short makes the call fail with ErrNodeDown, and the next
// call re-dials and succeeds.
func TestFramingErrorRedials(t *testing.T) {
	node := newTPCNode(t, "n")
	srv := rpc.NewServer()
	if err := srv.RegisterName("Node", &NodeService{node: node}); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	garbage := [][]byte{
		{0xff, 0xff, 0xff, 0xff}, // far above the cap
		append(binary.LittleEndian.AppendUint32(nil, 64), 1, 2, 3, 4, 5), // cut short
	}
	accepted := make(chan struct{}, 8)
	go func() {
		for i := 0; ; i++ {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			accepted <- struct{}{}
			if i < len(garbage) {
				go func(reply []byte) {
					buf := make([]byte, 256)
					_, _ = conn.Read(buf) // the request
					_, _ = conn.Write(reply)
					_ = conn.Close()
				}(garbage[i])
				continue
			}
			go srv.ServeCodec(newServerCodec(conn))
		}
	}()
	peer, err := DialNodeOpts("n", lis.Addr().String(), ClientOptions{RetryAttempts: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	for i := range garbage {
		err := peer.Ping()
		if !errors.Is(err, replica.ErrNodeDown) || !strings.Contains(err.Error(), "bad frame") {
			t.Fatalf("ping %d against garbage = %v, want ErrNodeDown from a bad frame", i, err)
		}
	}
	if err := peer.Ping(); err != nil {
		t.Fatalf("ping after re-dial: %v", err)
	}
	if n := len(accepted); n != len(garbage)+1 {
		t.Fatalf("%d connections accepted, want %d (one re-dial per bad frame)", n, len(garbage)+1)
	}
}
