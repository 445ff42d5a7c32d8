// Package profstore persists rolling profile windows — the on-disk half
// of the continuous-profiling pipeline. Sealed windows append to
// length+CRC-framed records in numbered segment files; an in-memory
// index (rebuilt on open) serves time-range queries without scanning
// disk; retention evicts whole segments, oldest first, by byte budget
// and age. Reopening after a crash truncates a torn tail record and
// resumes appending — everything already sealed survives a daemon
// restart.
//
// The store is deliberately simple: one writer lock, no background
// compaction, no fsync per record (a crash loses at most the OS write-
// behind window; the framing makes the loss clean, never corrupt).
package profstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"emprof/internal/core"
)

// ErrNotRetained marks a query whose whole range lies in windows the
// retention policy has already evicted: the data existed but is gone for
// good (HTTP 410, not 404). A partially-evicted range is not an error —
// the retained windows return with Result.Truncated set.
var ErrNotRetained = errors.New("profstore: requested windows no longer retained")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("profstore: store closed")

// Options tunes a store.
type Options struct {
	// Dir is the segment directory; empty means a memory-only store with
	// the same retention semantics (windows then do not survive a
	// restart, but the query surface is identical).
	Dir string
	// MaxBytes bounds the summed segment payload; the oldest whole
	// segments are evicted past it. 0 means the default (256 MiB);
	// negative means unbounded.
	MaxBytes int64
	// MaxAge evicts segments whose newest record is older; 0 disables
	// age-based eviction.
	MaxAge time.Duration
	// SegmentBytes is the roll threshold for the active segment. 0 means
	// the default (4 MiB). Smaller segments evict at finer granularity.
	SegmentBytes int64
	// Now overrides the clock, for tests; nil means time.Now.
	Now func() time.Time
}

// Defaults for Options zero values.
const (
	DefaultMaxBytes     = 256 << 20
	DefaultSegmentBytes = 4 << 20
)

func (o Options) withDefaults() Options {
	if o.MaxBytes == 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// record is the persisted document: one sealed window plus its session
// and seal wall time.
type record struct {
	Session  string             `json:"session"`
	SealedNs int64              `json:"sealed_ns"`
	Window   core.ProfileWindow `json:"window"`
}

// Frame layout: magic, payload length, payload CRC32 (IEEE), payload.
var frameMagic = [4]byte{'E', 'M', 'P', 'W'}

const frameHeader = 4 + 4 + 4

// maxRecordBytes bounds one framed payload (a window's stall list for
// any sane window width sits far below this).
const maxRecordBytes = 64 << 20

type segment struct {
	name        string
	f           *os.File // nil in memory mode
	mem         []byte   // memory-mode backing
	size        int64    // framed bytes written
	maxSealedNs int64
	odd         [][]byte // window encodings a record's bytes do not hold
}

// entry indexes one record. A query serves the record's window as the
// bytes encoding/json writes for it: the n bytes at off in the segment,
// inside the record's payload, or, for a record holding other bytes
// there, seg.odd[-off-1] (see windowEntry).
type entry struct {
	seg    *segment
	off, n int64
	idx    int64
	startS float64
	endS   float64
}

// Store is an append-only window store with an in-memory index.
type Store struct {
	opt Options

	mu      sync.Mutex
	segs    []*segment // oldest first; the last is the active one
	index   map[string][]entry
	evicted map[string]int64 // session -> window indexes < this are gone
	total   int64
	nextSeg int
	closed  bool
	scratch []byte // reused append frame buffer; guarded by mu

	metricEvictions int64
}

// Open opens (or creates) a store. With a directory, existing segments
// are scanned, a torn tail record on the newest segment is truncated
// away, and appending resumes where the last clean record ended.
func Open(opt Options) (*Store, error) {
	st := &Store{
		opt:     opt.withDefaults(),
		index:   make(map[string][]entry),
		evicted: make(map[string]int64),
	}
	if st.opt.Dir == "" {
		return st, nil
	}
	if err := os.MkdirAll(st.opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("profstore: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(st.opt.Dir, "*.seg"))
	if err != nil {
		return nil, fmt.Errorf("profstore: %w", err)
	}
	sort.Strings(names)
	for i, name := range names {
		seg, err := st.openSegment(name, i == len(names)-1)
		if err != nil {
			return nil, err
		}
		if n := segNumber(name); n >= st.nextSeg {
			st.nextSeg = n + 1
		}
		st.segs = append(st.segs, seg)
		st.total += seg.size
	}
	st.loadEvictions()
	for s := range st.index {
		sort.Slice(st.index[s], func(i, j int) bool { return st.index[s][i].idx < st.index[s][j].idx })
	}
	return st, nil
}

func segNumber(path string) int {
	base := filepath.Base(path)
	var n int
	fmt.Sscanf(base, "%d.seg", &n)
	return n
}

// openSegment scans one segment file, indexing every clean record. A
// record that fails its frame check ends the scan: on the newest
// segment the file is truncated there (a torn append from a crash);
// elsewhere the remainder is simply ignored.
func (st *Store) openSegment(name string, newest bool) (*segment, error) {
	f, err := os.OpenFile(name, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("profstore: %w", err)
	}
	seg := &segment{name: name, f: f}
	var off int64
	hdr := make([]byte, frameHeader)
	var payload []byte
	for {
		if _, err := f.ReadAt(hdr, off); err != nil {
			break // io.EOF or a short tail: end of clean data
		}
		if [4]byte(hdr[:4]) != frameMagic {
			break
		}
		n := int64(binary.LittleEndian.Uint32(hdr[4:8]))
		want := binary.LittleEndian.Uint32(hdr[8:12])
		if n <= 0 || n > maxRecordBytes {
			break
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := f.ReadAt(payload, off+frameHeader); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != want {
			break
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		e, err := windowEntry(seg, off+frameHeader, payload, &rec.Window)
		if err != nil {
			break
		}
		st.indexRecord(rec.Session, rec.SealedNs, &rec.Window, e)
		off += frameHeader + n
		seg.size = off
	}
	if newest {
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, fmt.Errorf("profstore: truncating torn tail: %w", err)
		}
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("profstore: %w", err)
		}
	}
	return seg, nil
}

// windowEntry places the bytes a query serves for a decoded record: the
// encoding/json encoding of its window, which is what a decode and
// re-encode of the record would yield. A record the store wrote ends
// with exactly those bytes before its closing brace, so the entry points
// at them on disk; any other record that decodes (whitespace, another
// field order, numbers spelled differently) keeps the encoding in memory.
func windowEntry(seg *segment, payloadOff int64, payload []byte, w *core.ProfileWindow) (entry, error) {
	enc, err := json.Marshal(w)
	if err != nil {
		return entry{}, err
	}
	e := entry{seg: seg, n: int64(len(enc))}
	end := len(payload) - 1
	if start := end - len(enc); start >= 0 && payload[end] == '}' && bytes.Equal(payload[start:end], enc) {
		e.off = payloadOff + int64(start)
	} else {
		seg.odd = append(seg.odd, enc)
		e.off = -int64(len(seg.odd))
	}
	return e, nil
}

func (st *Store) indexRecord(session string, sealedNs int64, w *core.ProfileWindow, e entry) {
	e.idx, e.startS, e.endS = w.Index, w.StartS, w.EndS
	st.index[session] = append(st.index[session], e)
	if sealedNs > e.seg.maxSealedNs {
		e.seg.maxSealedNs = sealedNs
	}
}

// evictionsFile persists the per-session eviction watermarks so a query
// for evicted windows still answers "gone for good" (410) across a
// restart, not "never existed".
func (st *Store) evictionsFile() string { return filepath.Join(st.opt.Dir, "evictions.json") }

func (st *Store) loadEvictions() {
	data, err := os.ReadFile(st.evictionsFile())
	if err != nil {
		return
	}
	var m map[string]int64
	if json.Unmarshal(data, &m) == nil {
		for s, v := range m {
			st.evicted[s] = v
		}
	}
}

func (st *Store) saveEvictions() {
	if st.opt.Dir == "" {
		return
	}
	data, err := json.Marshal(st.evicted)
	if err != nil {
		return
	}
	tmp := st.evictionsFile() + ".tmp"
	if os.WriteFile(tmp, data, 0o644) == nil {
		os.Rename(tmp, st.evictionsFile())
	}
}

// Append persists one sealed window and applies retention. It is safe
// for concurrent use with Query. The record is the encoding/json
// encoding of the record struct, assembled around the window's encoding
// so the index knows where those bytes sit; it is framed into a scratch
// buffer the store reuses across appends.
func (st *Store) Append(session string, w *core.ProfileWindow) error {
	if session == "" {
		return fmt.Errorf("profstore: empty session ID")
	}
	sealedNs := st.opt.Now().UnixNano()
	win, err := json.Marshal(w)
	if err != nil {
		return fmt.Errorf("profstore: %w", err)
	}
	sess, err := json.Marshal(session)
	if err != nil {
		return fmt.Errorf("profstore: %w", err)
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	// Frame header (magic, payload length, payload CRC), then the payload
	// {"session":…,"sealed_ns":…,"window":{…}}.
	b := append(st.scratch[:0], frameMagic[:]...)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	b = append(b, `{"session":`...)
	b = append(b, sess...)
	b = append(b, `,"sealed_ns":`...)
	b = strconv.AppendInt(b, sealedNs, 10)
	b = append(b, `,"window":`...)
	winOff := int64(len(b))
	b = append(b, win...)
	b = append(b, '}')
	payload := b[frameHeader:]
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("profstore: window record of %d bytes exceeds the %d-byte frame bound", len(payload), maxRecordBytes)
	}
	st.scratch = b
	binary.LittleEndian.PutUint32(b[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[8:12], crc32.ChecksumIEEE(payload))

	seg, err := st.activeSegmentLocked(int64(len(b)))
	if err != nil {
		return err
	}
	if seg.f != nil {
		if _, err := seg.f.Write(b); err != nil {
			return fmt.Errorf("profstore: %w", err)
		}
	} else {
		seg.mem = append(seg.mem, b...)
	}
	st.indexRecord(session, sealedNs, w, entry{seg: seg, off: seg.size + winOff, n: int64(len(win))})
	seg.size += int64(len(b))
	st.total += int64(len(b))
	st.applyRetentionLocked()
	return nil
}

// activeSegmentLocked returns the segment the next frame appends to,
// rolling a new one when the active segment would overflow.
func (st *Store) activeSegmentLocked(frameLen int64) (*segment, error) {
	if n := len(st.segs); n > 0 && st.segs[n-1].size+frameLen <= st.opt.SegmentBytes {
		return st.segs[n-1], nil
	}
	seg := &segment{}
	if st.opt.Dir != "" {
		seg.name = filepath.Join(st.opt.Dir, fmt.Sprintf("%08d.seg", st.nextSeg))
		f, err := os.OpenFile(seg.name, os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
		if err != nil {
			return nil, fmt.Errorf("profstore: %w", err)
		}
		seg.f = f
	} else {
		// Memory mode: size the backing to the roll threshold up front —
		// the segment fills to it before rolling, and appends run on the
		// ingest requests that seal windows, where doubling-growth copies
		// would tax ingest.
		if cap := st.opt.SegmentBytes; frameLen <= cap {
			seg.mem = make([]byte, 0, cap)
		}
	}
	st.nextSeg++
	st.segs = append(st.segs, seg)
	return seg, nil
}

// applyRetentionLocked evicts whole oldest segments past the byte
// budget or age bound. The active (newest) segment is never evicted.
func (st *Store) applyRetentionLocked() {
	now := st.opt.Now().UnixNano()
	changed := false
	for len(st.segs) > 1 {
		oldest := st.segs[0]
		overBytes := st.opt.MaxBytes > 0 && st.total > st.opt.MaxBytes
		overAge := st.opt.MaxAge > 0 && oldest.maxSealedNs > 0 && now-oldest.maxSealedNs > int64(st.opt.MaxAge)
		if !overBytes && !overAge {
			break
		}
		st.evictSegmentLocked(oldest)
		st.segs = st.segs[1:]
		changed = true
	}
	if changed {
		st.saveEvictions()
	}
}

func (st *Store) evictSegmentLocked(seg *segment) {
	for session, entries := range st.index {
		keep := entries[:0]
		for _, e := range entries {
			if e.seg == seg {
				if e.idx+1 > st.evicted[session] {
					st.evicted[session] = e.idx + 1
				}
				continue
			}
			keep = append(keep, e)
		}
		if len(keep) == 0 {
			delete(st.index, session)
		} else {
			st.index[session] = keep
		}
	}
	st.total -= seg.size
	if seg.f != nil {
		seg.f.Close()
		os.Remove(seg.name)
	}
	st.metricEvictions++
}

// Query selects a session's retained windows overlapping the given
// range.
type Query struct {
	// FromS and ToS bound the stream-time range [FromS, ToS); ToS <= 0
	// means unbounded.
	FromS, ToS float64
	// HasAfter engages the pagination cursor: only windows with an index
	// strictly greater than AfterIndex are returned. The zero Query has
	// no cursor — every retained window in range matches. As a
	// convenience a bare AfterIndex > 0 also engages the cursor, so
	// copying Result.NextAfter straight into AfterIndex pages correctly
	// except across a page ending at window 0; cursor loops should set
	// HasAfter, which expresses "after window 0" unambiguously.
	HasAfter   bool
	AfterIndex int64
	// Limit caps the returned windows (<= 0 means the default 512).
	Limit int
	// Last, when > 0, keeps only the newest Last matching windows before
	// Limit applies — how `emprof top` tails a session.
	Last int
}

// DefaultQueryLimit caps windows per response when the query names none.
const DefaultQueryLimit = 512

// Result is one query page.
type Result struct {
	Windows []core.ProfileWindow `json:"windows"`
	// Truncated reports that part of the requested range existed but was
	// evicted by retention: the returned windows are the retained part.
	Truncated bool `json:"truncated,omitempty"`
	// More/NextAfter page: pass NextAfter as the next AfterIndex.
	More      bool  `json:"more,omitempty"`
	NextAfter int64 `json:"next_after,omitempty"`
	// LatestIndex is the newest retained window index for the session
	// (-1 when it has none).
	LatestIndex int64 `json:"latest_index"`
}

// RawResult is one query page with every window as the bytes
// encoding/json wrote for it when it was sealed. The other fields are
// Result's.
type RawResult struct {
	Windows     [][]byte
	Truncated   bool
	More        bool
	NextAfter   int64
	LatestIndex int64
}

// HasSession reports whether the store retains (or remembers evicting)
// any window of the session.
func (st *Store) HasSession(session string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.index[session]) > 0 || st.evicted[session] > 0
}

// Query returns the session's retained windows overlapping the range,
// oldest first: QueryRaw's page, decoded.
func (st *Store) Query(session string, q Query) (Result, error) {
	raw, err := st.QueryRaw(session, q)
	res := Result{
		Windows:   make([]core.ProfileWindow, len(raw.Windows)),
		Truncated: raw.Truncated, More: raw.More, NextAfter: raw.NextAfter, LatestIndex: raw.LatestIndex,
	}
	if err != nil {
		res.Windows = res.Windows[:0]
		return res, err
	}
	for i, b := range raw.Windows {
		if err := res.Windows[i].UnmarshalJSON(b); err != nil {
			return res, fmt.Errorf("profstore: %w", err)
		}
	}
	return res, nil
}

// QueryRaw returns the session's retained windows overlapping the range,
// oldest first, as their stored JSON bytes. A range that lies entirely in
// evicted windows is ErrNotRetained; a session the store has never seen
// returns an empty result (the caller decides whether that is a 404 —
// the store cannot know about live sessions that have not sealed a
// window yet).
func (st *Store) QueryRaw(session string, q Query) (RawResult, error) {
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultQueryLimit
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	res := RawResult{LatestIndex: -1}
	if st.closed {
		return res, ErrClosed
	}
	entries := st.index[session]
	evictedThrough := st.evicted[session]
	if len(entries) > 0 {
		res.LatestIndex = entries[len(entries)-1].idx
	}
	inRange := func(e entry) bool {
		if q.ToS > 0 && e.startS >= q.ToS {
			return false
		}
		return e.endS > q.FromS || (e.startS == e.endS && e.startS >= q.FromS)
	}
	if len(entries) == 0 {
		if evictedThrough > 0 {
			return res, fmt.Errorf("%w: session %q windows 0..%d evicted", ErrNotRetained, session, evictedThrough-1)
		}
		return res, nil
	}
	if evictedThrough > 0 && q.FromS < entries[0].startS {
		// The range reaches below the oldest retained window, into
		// territory retention reclaimed.
		if q.ToS > 0 && q.ToS <= entries[0].startS {
			return res, fmt.Errorf("%w: session %q range [%g, %g) precedes the oldest retained window at %g s",
				ErrNotRetained, session, q.FromS, q.ToS, entries[0].startS)
		}
		res.Truncated = true
	}
	cursor := q.HasAfter || q.AfterIndex > 0
	var picked []entry
	for _, e := range entries {
		if cursor && e.idx <= q.AfterIndex {
			continue
		}
		if inRange(e) {
			picked = append(picked, e)
		}
	}
	if q.Last > 0 && len(picked) > q.Last {
		picked = picked[len(picked)-q.Last:]
	}
	if len(picked) > limit {
		picked = picked[:limit]
		res.More = true
	}
	// One buffer holds the page; each window is a full slice of it.
	var size int64
	for _, e := range picked {
		size += e.n
	}
	buf := make([]byte, 0, size)
	res.Windows = make([][]byte, 0, len(picked))
	for _, e := range picked {
		start := len(buf)
		switch {
		case e.off < 0:
			buf = append(buf, e.seg.odd[-e.off-1]...)
		case e.seg.f != nil:
			buf = buf[:start+int(e.n)]
			if _, err := e.seg.f.ReadAt(buf[start:], e.off); err != nil {
				return res, fmt.Errorf("profstore: %w", err)
			}
		default:
			buf = append(buf, e.seg.mem[e.off:e.off+e.n]...)
		}
		res.Windows = append(res.Windows, buf[start:len(buf):len(buf)])
		res.NextAfter = e.idx
	}
	return res, nil
}

// Stats is the store's observable footprint.
type Stats struct {
	Segments  int
	Bytes     int64
	Sessions  int
	Evictions int64
}

// Stats snapshots the store's footprint.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return Stats{
		Segments:  len(st.segs),
		Bytes:     st.total,
		Sessions:  len(st.index),
		Evictions: st.metricEvictions,
	}
}

// Close releases segment handles. Appends and queries fail afterwards.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	for _, seg := range st.segs {
		if seg.f != nil {
			seg.f.Close()
		}
	}
	return nil
}
