// Package wal is a crash-durable, segmented write-ahead log for the
// persistence tier. Records are opaque byte payloads framed with a length
// prefix and a CRC-32C checksum and appended to segment files; durability
// is governed by a sync policy (group-committed fsync per append, a
// background flush interval, or never), and recovery scans the segments in
// order, truncates a torn tail at the first bad checksum in the newest
// segment, and reports genuine mid-log corruption — a bad record with
// intact records after it — as ErrCorrupt rather than silently dropping a
// suffix of acknowledged commits.
//
// All file operations go through the FS interface so tests can interpose
// fault injection (internal/faultdisk scripts torn writes, failed and lost
// fsyncs, bit flips, and short reads from a seed); production code uses
// OsFS.
//
// On-disk layout: <dir>/wal-<base>.seg, where <base> is the index of the
// segment's first record, as 16 hex digits. Each segment starts with a
// 16-byte header (8-byte magic, 8-byte little-endian base) followed by
// records framed as [4-byte LE payload length][4-byte LE CRC-32C][payload].
// A segment's record range is implied by its base and the next segment's
// base, so the cross-segment chain is itself checkable during recovery.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmv/internal/obs"

	"encoding/binary"
)

// Errors surfaced by the WAL.
var (
	// ErrCorrupt reports mid-log corruption: a record that fails its
	// checksum (or frame) with intact log state after it — in an older
	// segment, or breaking the cross-segment chain. Unlike a torn tail,
	// this cannot be repaired by truncation without losing acknowledged
	// commits, so recovery refuses and surfaces it.
	ErrCorrupt = errors.New("wal: corrupt record inside the log")
	// ErrClosed reports use of a closed WAL.
	ErrClosed = errors.New("wal: closed")
)

// SyncPolicy selects when appended records become durable.
type SyncPolicy uint8

// Sync policies.
const (
	// SyncAlways group-commits: every Append+WaitDurable pair blocks until
	// an fsync covers the record; concurrent committers share one fsync.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background flusher every FlushInterval;
	// appends return immediately and a crash loses at most one interval.
	SyncInterval
	// SyncNever never fsyncs: durability is whatever the OS page cache
	// survives. Clean shutdown still recovers (the bytes are in the file);
	// power loss does not.
	SyncNever
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy parses "always", "interval", or "never".
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return SyncAlways, fmt.Errorf("wal: unknown sync policy %q (want always|interval|never)", s)
	}
}

// File is the subset of *os.File the WAL needs; faultdisk wraps it.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// FS abstracts the filesystem operations underneath the WAL so fault
// injection can interpose on every byte.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadDir(dir string) ([]string, error)
	Remove(name string) error
	MkdirAll(dir string, perm os.FileMode) error
	Rename(oldpath, newpath string) error
}

// OsFS is the production FS backed by package os.
type OsFS struct{}

// OpenFile implements FS.
func (OsFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// ReadDir implements FS (names only, sorted).
func (OsFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

// Remove implements FS.
func (OsFS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OsFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

// Rename implements FS.
func (OsFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Options configure Open.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// FS interposes on file operations (default OsFS).
	FS FS
	// Policy selects the durability mode (default SyncAlways).
	Policy SyncPolicy
	// FlushInterval is the background fsync period for SyncInterval
	// (default 5ms).
	FlushInterval time.Duration
	// SegmentBytes rolls to a new segment once the active one exceeds this
	// size (default 1 MiB). Checkpoint truncation frees whole segments, so
	// smaller segments reclaim disk sooner at the cost of more files.
	SegmentBytes int
	// Obs, if non-nil, receives the WAL metrics (fsync latency, appended
	// bytes, live segment count, recovery truncation).
	Obs *obs.Registry
	// OnFatal, if non-nil, is invoked exactly once, from its own goroutine,
	// when the WAL enters its sticky-fatal state (a failed fsync or append
	// write). The callback may take arbitrary locks — it runs outside the
	// WAL mutex — so anomaly reporters (the flight recorder) can hook here.
	OnFatal func(error)
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// Base is the index of the first retained record (0 for a fresh log;
	// advanced by TruncateTo in a previous incarnation).
	Base uint64
	// Records holds the payloads of every intact record, in append order,
	// for indexes [Base, Base+len).
	Records [][]byte
	// TruncatedBytes counts torn-tail bytes discarded from the newest
	// segment (0 on clean shutdown).
	TruncatedBytes int64
}

const (
	segPrefix     = "wal-"
	segSuffix     = ".seg"
	headerLen     = 16
	frameLen      = 8        // 4-byte length + 4-byte CRC
	maxRecordSize = 64 << 20 // frame sanity bound; larger lengths are corruption
)

var (
	segMagic = [8]byte{'D', 'M', 'V', 'W', 'A', 'L', '0', '1'}
	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

type segmentRef struct {
	base uint64
	name string
}

// WAL is an open write-ahead log. All methods are safe for concurrent use.
type WAL struct {
	dir      string
	fs       FS
	policy   SyncPolicy
	segBytes int64

	mu          sync.Mutex
	cond        *sync.Cond    // signals sync completion and roll completion
	f           File          // guarded by mu; active segment append handle
	segs        []segmentRef  // guarded by mu; oldest first, last is active
	base        uint64        // guarded by mu; first retained record index
	next        uint64        // guarded by mu; index of the next record
	synced      uint64        // guarded by mu; records below this index are durable
	syncing     bool          // guarded by mu; a leader fsync is in flight
	activeBytes int64         // guarded by mu; bytes written to the active segment
	err         error         // guarded by mu; sticky fatal error (failed fsync)
	closed      bool          // guarded by mu
	stop        chan struct{} // closes the interval flusher
	done        chan struct{} // flusher exited
	onFatal     func(error)   // immutable after Open; fired once on the nil->err transition

	metFsyncUS  *obs.Histogram
	metBytes    *obs.Counter
	metTruncate *obs.Counter
}

// Open recovers the log in opts.Dir (creating it when missing) and returns
// the WAL ready for appends plus what recovery found. A torn tail in the
// newest segment is truncated (and synced) before Open returns; mid-log
// corruption aborts with an error wrapping ErrCorrupt.
func Open(opts Options) (*WAL, Recovery, error) {
	if opts.FS == nil {
		opts.FS = OsFS{}
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 1 << 20
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = 5 * time.Millisecond
	}
	w := &WAL{
		dir:         opts.Dir,
		fs:          opts.FS,
		policy:      opts.Policy,
		segBytes:    int64(opts.SegmentBytes),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		onFatal:     opts.OnFatal,
		metFsyncUS:  opts.Obs.Histogram(obs.WalFsyncUS),
		metBytes:    opts.Obs.Counter(obs.WalBytes),
		metTruncate: opts.Obs.Counter(obs.WalRecoveryTruncated),
	}
	w.cond = sync.NewCond(&w.mu)
	if err := w.fs.MkdirAll(w.dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: mkdir %s: %w", w.dir, err)
	}
	w.mu.Lock()
	rec, err := w.recoverLocked()
	w.mu.Unlock()
	if err != nil {
		return nil, Recovery{}, err
	}
	w.metTruncate.Add(rec.TruncatedBytes)
	if reg := opts.Obs; reg != nil {
		reg.GaugeFunc(obs.WalSegments, func() float64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			return float64(len(w.segs))
		})
	}
	if w.policy == SyncInterval {
		go w.flusher(opts.FlushInterval)
	} else {
		close(w.done)
	}
	return w, rec, nil
}

// recoverLocked scans the segment files, truncates a torn tail, and opens
// the newest segment for append. Called once from Open with w.mu held,
// before the WAL is shared.
func (w *WAL) recoverLocked() (Recovery, error) {
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return Recovery{}, fmt.Errorf("wal: scan %s: %w", w.dir, err)
	}
	var segs []segmentRef
	for _, name := range names {
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		base, perr := strconv.ParseUint(hex, 16, 64)
		if perr != nil {
			continue // foreign file; ignore
		}
		segs = append(segs, segmentRef{base: base, name: name})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })

	var rec Recovery
	if len(segs) == 0 {
		// Fresh log: create the first segment.
		if err := w.openActiveLocked(0, true); err != nil {
			return Recovery{}, err
		}
		return rec, nil
	}
	rec.Base = segs[0].base
	next := segs[0].base
	for i, s := range segs {
		final := i == len(segs)-1
		if s.base != next {
			return Recovery{}, fmt.Errorf("wal: segment %s starts at %d, want %d: %w", s.name, s.base, next, ErrCorrupt)
		}
		payloads, keep, torn, serr := w.scanSegment(s, final)
		if serr != nil {
			return Recovery{}, serr
		}
		if torn > 0 {
			if err := w.truncateSegment(s.name, keep); err != nil {
				return Recovery{}, err
			}
			rec.TruncatedBytes += torn
		}
		rec.Records = append(rec.Records, payloads...)
		next += uint64(len(payloads))
	}
	w.segs = segs
	w.base = segs[0].base
	w.next = next
	w.synced = next // everything recovered is on disk by definition
	if err := w.openActiveLocked(segs[len(segs)-1].base, false); err != nil {
		return Recovery{}, err
	}
	return rec, nil
}

// scanSegment reads one segment and returns its intact payloads, the byte
// offset after the last intact record, and how many torn bytes follow it.
// In a non-final segment any damage is mid-log corruption; in the final
// segment it is a torn tail to be truncated by the caller.
func (w *WAL) scanSegment(s segmentRef, final bool) (payloads [][]byte, keep int64, torn int64, err error) {
	f, err := w.fs.OpenFile(filepath.Join(w.dir, s.name), os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: open %s: %w", s.name, err)
	}
	defer f.Close()

	var hdr [headerLen]byte
	if n, err := io.ReadFull(f, hdr[:]); err != nil {
		if !final {
			return nil, 0, 0, fmt.Errorf("wal: segment %s: short header: %w", s.name, ErrCorrupt)
		}
		rest, _ := io.Copy(io.Discard, f)
		// Torn header: the segment holds nothing; rewrite it from scratch.
		return nil, 0, int64(n) + rest, nil
	}
	if [8]byte(hdr[:8]) != segMagic || binary.LittleEndian.Uint64(hdr[8:]) != s.base {
		if !final {
			return nil, 0, 0, fmt.Errorf("wal: segment %s: bad header: %w", s.name, ErrCorrupt)
		}
		rest, _ := io.Copy(io.Discard, f)
		return nil, 0, headerLen + rest, nil
	}
	off := int64(headerLen)
	for {
		var frame [frameLen]byte
		n, rerr := io.ReadFull(f, frame[:])
		if rerr == io.EOF {
			return payloads, off, 0, nil // clean end
		}
		if rerr != nil { // short frame
			if !final {
				return nil, 0, 0, fmt.Errorf("wal: segment %s at offset %d: short frame: %w", s.name, off, ErrCorrupt)
			}
			rest, _ := io.Copy(io.Discard, f)
			return payloads, off, int64(n) + rest, nil
		}
		length := binary.LittleEndian.Uint32(frame[:4])
		sum := binary.LittleEndian.Uint32(frame[4:])
		if length == 0 || length > maxRecordSize {
			if !final {
				return nil, 0, 0, fmt.Errorf("wal: segment %s at offset %d: bad length %d: %w", s.name, off, length, ErrCorrupt)
			}
			rest, _ := io.Copy(io.Discard, f)
			return payloads, off, frameLen + rest, nil
		}
		payload := make([]byte, length)
		pn, rerr := io.ReadFull(f, payload)
		if rerr != nil { // short payload
			if !final {
				return nil, 0, 0, fmt.Errorf("wal: segment %s at offset %d: short payload: %w", s.name, off, ErrCorrupt)
			}
			rest, _ := io.Copy(io.Discard, f)
			return payloads, off, frameLen + int64(pn) + rest, nil
		}
		if crc32.Checksum(payload, crcTable) != sum {
			if !final {
				return nil, 0, 0, fmt.Errorf("wal: segment %s at offset %d: checksum mismatch: %w", s.name, off, ErrCorrupt)
			}
			// The frame is complete but the payload fails its CRC. A torn
			// write can look exactly like this (the tail of the payload
			// never hit the platter), but so can a flipped bit in the
			// middle of the log. Disambiguate by chaining forward: if any
			// intact record follows, truncating here would silently drop
			// acknowledged commits — that is mid-log corruption.
			intact, drained := anyIntactRecordFollows(f)
			if intact {
				return nil, 0, 0, fmt.Errorf("wal: segment %s at offset %d: checksum mismatch with intact records after it: %w", s.name, off, ErrCorrupt)
			}
			return payloads, off, frameLen + int64(length) + drained, nil
		}
		payloads = append(payloads, payload)
		off += frameLen + int64(length)
	}
}

// anyIntactRecordFollows keeps walking the frame chain after a damaged
// record, reporting whether any later record passes its checksum (mid-log
// corruption) and how many bytes it consumed (all torn, otherwise). If the
// damage hit a length field the chain itself desyncs and the scan gives up
// at the first insane frame — that case reads as a torn tail, the
// unavoidable ambiguity of a byte stream with no record boundary markers.
func anyIntactRecordFollows(f File) (intact bool, drained int64) {
	for {
		var frame [frameLen]byte
		n, err := io.ReadFull(f, frame[:])
		drained += int64(n)
		if err != nil {
			return false, drained
		}
		length := binary.LittleEndian.Uint32(frame[:4])
		sum := binary.LittleEndian.Uint32(frame[4:])
		if length == 0 || length > maxRecordSize {
			rest, _ := io.Copy(io.Discard, f)
			return false, drained + rest
		}
		payload := make([]byte, length)
		pn, err := io.ReadFull(f, payload)
		drained += int64(pn)
		if err != nil {
			return false, drained
		}
		if crc32.Checksum(payload, crcTable) == sum {
			return true, drained
		}
	}
}

// truncateSegment cuts a torn tail and syncs the truncation so a re-crash
// during recovery cannot resurrect the torn bytes.
func (w *WAL) truncateSegment(name string, keep int64) error {
	f, err := w.fs.OpenFile(filepath.Join(w.dir, name), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: truncate %s: %w", name, err)
	}
	defer f.Close()
	if keep < headerLen {
		// Torn header: rebuild it in place (the segment base comes from the
		// file name, which survived).
		hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		base, _ := strconv.ParseUint(hex, 16, 64)
		if err := f.Truncate(0); err != nil {
			return fmt.Errorf("wal: truncate %s: %w", name, err)
		}
		var hdr [headerLen]byte
		copy(hdr[:8], segMagic[:])
		binary.LittleEndian.PutUint64(hdr[8:], base)
		if _, err := f.Write(hdr[:]); err != nil {
			return fmt.Errorf("wal: rewrite header %s: %w", name, err)
		}
	} else if err := f.Truncate(keep); err != nil {
		return fmt.Errorf("wal: truncate %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync truncation %s: %w", name, err)
	}
	return nil
}

// openActiveLocked opens (or creates) the append handle for the newest
// segment. Callers hold w.mu.
func (w *WAL) openActiveLocked(base uint64, create bool) error {
	name := segName(base)
	f, err := w.fs.OpenFile(filepath.Join(w.dir, name), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open active %s: %w", name, err)
	}
	if create {
		var hdr [headerLen]byte
		copy(hdr[:8], segMagic[:])
		binary.LittleEndian.PutUint64(hdr[8:], base)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return fmt.Errorf("wal: write header %s: %w", name, err)
		}
		w.segs = append(w.segs, segmentRef{base: base, name: name})
		w.activeBytes = headerLen
	} else {
		// Recovered segment: activeBytes only gates rolling, so the header
		// plus retained records is a fine (slightly conservative) floor.
		w.activeBytes = headerLen
	}
	w.f = f
	return nil
}

func segName(base uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, base, segSuffix)
}

// Append frames and writes one record to the active segment and returns
// its index. The write lands in the OS file immediately; durability
// follows the sync policy — call WaitDurable with the returned index to
// block until the record is covered by an fsync (a no-op for interval and
// never policies).
func (w *WAL) Append(payload []byte) (uint64, error) {
	if len(payload) == 0 || len(payload) > maxRecordSize {
		return 0, fmt.Errorf("wal: bad record size %d", len(payload))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.err != nil {
		return 0, w.err
	}
	if w.activeBytes >= w.segBytes {
		if err := w.rollLocked(); err != nil {
			return 0, err
		}
	}
	frame := make([]byte, frameLen+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[frameLen:], payload)
	if _, err := w.f.Write(frame); err != nil {
		// A partial frame write leaves a torn tail exactly like a crash
		// would; recovery truncates it. The record is not acknowledged.
		w.setFatalLocked(fmt.Errorf("wal: append: %w", err))
		w.cond.Broadcast()
		return 0, w.err
	}
	seq := w.next
	w.next++
	w.activeBytes += int64(len(frame))
	w.metBytes.Add(int64(len(frame)))
	return seq, nil
}

// rollLocked finalizes the active segment and starts the next one. Unless
// the policy is SyncNever, the old segment is fsynced first and synced
// covers it: the next leader fsyncs only the new segment, yet sets synced
// to every record appended. Callers hold w.mu.
func (w *WAL) rollLocked() error {
	// Wait out an in-flight leader fsync: it holds the old handle.
	for w.syncing {
		w.cond.Wait()
		if w.err != nil {
			return w.err
		}
	}
	if w.policy != SyncNever && w.synced < w.next {
		start := time.Now()
		err := w.f.Sync()
		w.metFsyncUS.Observe(time.Since(start).Microseconds())
		if err != nil {
			w.setFatalLocked(fmt.Errorf("wal: fsync before roll: %w", err))
			w.cond.Broadcast()
			return w.err
		}
		w.synced = w.next
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	return w.openActiveLocked(w.next, true)
}

// WaitDurable blocks until the record at seq is covered by an fsync under
// SyncAlways (group commit: one leader syncs for every waiter); under
// SyncInterval and SyncNever it only reports a sticky WAL failure, if any.
func (w *WAL) WaitDurable(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.policy != SyncAlways {
		return w.err
	}
	return w.syncToLocked(seq)
}

// Flush forces an fsync covering every appended record, regardless of
// policy (clean shutdown, tests).
func (w *WAL) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.next == 0 {
		return w.err
	}
	return w.syncToLocked(w.next - 1)
}

// syncToLocked is the group-commit core: wait until seq is durable,
// electing this goroutine as the fsync leader when none is in flight.
// Callers hold w.mu. A failed fsync is sticky: after fsync(2) reports an
// error, the kernel may have dropped the dirty pages, so no later fsync
// can be trusted to cover this record — the WAL refuses further appends
// and the tier surfaces the durability loss (cf. the 2018 "fsyncgate"
// semantics).
func (w *WAL) syncToLocked(seq uint64) error {
	for {
		if w.err != nil {
			return w.err
		}
		if w.synced > seq {
			return nil
		}
		if w.closed {
			return ErrClosed
		}
		if !w.syncing {
			w.syncing = true
			f, target := w.f, w.next
			w.mu.Unlock()
			start := time.Now()
			err := f.Sync()
			w.metFsyncUS.Observe(time.Since(start).Microseconds())
			w.mu.Lock()
			w.syncing = false
			if err != nil {
				w.setFatalLocked(fmt.Errorf("wal: fsync: %w", err))
			} else if target > w.synced {
				w.synced = target
			}
			w.cond.Broadcast()
			continue
		}
		w.cond.Wait()
	}
}

// setFatalLocked records the WAL's sticky fatal error on the first
// nil->non-nil transition and dispatches the OnFatal notification from its
// own goroutine (the callback may take locks well above the WAL's band).
// Callers hold w.mu. A later fatal never overwrites the first.
func (w *WAL) setFatalLocked(err error) {
	if w.err != nil {
		return
	}
	w.err = err
	if w.onFatal != nil {
		go w.onFatal(err)
	}
}

// flusher is the SyncInterval background loop.
func (w *WAL) flusher(interval time.Duration) {
	defer close(w.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
			w.mu.Lock()
			if !w.closed && w.err == nil && w.next > 0 && w.synced < w.next {
				_ = w.syncToLocked(w.next - 1)
			}
			w.mu.Unlock()
		}
	}
}

// Base returns the index of the first retained record.
func (w *WAL) Base() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base
}

// Next returns the index the next Append will receive.
func (w *WAL) Next() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next
}

// Segments returns the live segment-file count.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segs)
}

// Dir returns the log directory.
func (w *WAL) Dir() string { return w.dir }

// FS returns the file-operation layer (checkpoint writers share it so
// fault injection covers them too).
func (w *WAL) FS() FS { return w.fs }

// TruncateTo deletes every segment whose records all precede base —
// checkpoint-coordinated truncation. The WAL base advances to the oldest
// retained segment's base (segment granularity, so it may stay slightly
// below the requested cut); the active segment is never deleted.
func (w *WAL) TruncateTo(base uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.segs) >= 2 && w.segs[1].base <= base {
		dead := w.segs[0]
		if err := w.fs.Remove(filepath.Join(w.dir, dead.name)); err != nil {
			return fmt.Errorf("wal: remove %s: %w", dead.name, err)
		}
		w.segs = w.segs[1:]
	}
	if len(w.segs) > 0 {
		w.base = w.segs[0].base
	}
	return nil
}

// Close flushes (under always/interval) and closes the active segment.
// Idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	var flushErr error
	if w.policy != SyncNever && w.err == nil && w.next > 0 && w.synced < w.next {
		flushErr = w.syncToLocked(w.next - 1)
	}
	w.closed = true
	f := w.f
	w.cond.Broadcast()
	w.mu.Unlock()
	close(w.stop)
	<-w.done
	if f != nil {
		if err := f.Close(); err != nil && flushErr == nil {
			flushErr = err
		}
	}
	return flushErr
}

// WriteFileDurable writes blob to path via a temp file, fsyncs it, and
// atomically renames it into place — the standard crash-safe publish used
// for checkpoint manifests.
func WriteFileDurable(fs FS, path string, blob []byte) error {
	if fs == nil {
		fs = OsFS{}
	}
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, path)
}
