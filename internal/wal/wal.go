// Package wal is the ingestion write-ahead log of the online dispatch
// engine: every accepted order placement and vehicle ping is appended to an
// on-disk segment before the producer is acknowledged, so a killed
// foodmatchd can rebuild exactly the ingestion backlog that had not yet
// reached a checkpointed world state.
//
// The format is deliberately boring — one record per line, a CRC32C of the
// JSON payload up front, segments named by the first sequence number they
// hold:
//
//	wal-00000000000000000001.log
//	  d1c5a3f7 {"seq":1,"k":"order","order":{...}}
//	  09ab44e0 {"seq":2,"k":"ping","ping":{...}}
//
// Sequence numbers are global and strictly increasing across both record
// kinds. A torn final line (the crash landed mid-write) is tolerated and
// dropped; corruption anywhere earlier is an error — silently skipping a
// record in the middle of the log would un-acknowledge an accepted order.
//
// Recovery protocol (see engine.ReplayWAL and cmd/foodmatchd):
//
//  1. Open reads every existing segment and hands the decoded records back
//     for replay; appending resumes after the highest recovered sequence.
//  2. The engine checkpoint stores, per record kind, the highest sequence
//     that had been drained into world state; replay applies only records
//     beyond it.
//  3. After a checkpoint is durably on disk, Rotate starts a fresh segment
//     and TruncateThrough deletes every segment whose records are all
//     covered by the checkpoint.
package wal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Record kinds.
const (
	KindOrder = "order"
	KindPing  = "ping"
)

// OrderRecord is the durable form of one accepted order placement — the
// admission-time fields only; lifecycle state is the checkpoint's business.
type OrderRecord struct {
	ID         int64   `json:"id"`
	Restaurant int64   `json:"restaurant"`
	Customer   int64   `json:"customer"`
	PlacedAt   float64 `json:"placed_at"`
	Items      int     `json:"items"`
	PrepSec    float64 `json:"prep_sec"`
}

// PingRecord is the durable form of one vehicle location/shift update.
// Node -1 means "no relocation" (shift-only update); nil shift bounds mean
// "leave unchanged" (the NaN sentinel of the in-memory queue is not
// JSON-encodable).
type PingRecord struct {
	Vehicle    int64    `json:"vehicle"`
	Node       int64    `json:"node"`
	ActiveFrom *float64 `json:"active_from,omitempty"`
	ActiveTo   *float64 `json:"active_to,omitempty"`
}

// Record is one WAL entry. Exactly one of Order / Ping is non-nil,
// matching Kind.
type Record struct {
	Seq   uint64       `json:"seq"`
	Kind  string       `json:"k"`
	Order *OrderRecord `json:"order,omitempty"`
	Ping  *PingRecord  `json:"ping,omitempty"`
}

// Metrics receives the log's operational counters. Nil-safe: a nil Metrics
// records nothing. All methods must be safe for concurrent use (the obs
// package's instruments are).
type Metrics struct {
	// AppendsOrder / AppendsPing count appended records by kind.
	AppendsOrder func()
	AppendsPing  func()
	// Fsync observes one fsync's wall-clock seconds.
	Fsync func(sec float64)
	// Replayed counts records recovered by Open.
	Replayed func(n int)
	// Truncated counts segments deleted by TruncateThrough.
	Truncated func(n int)
}

// Options tunes a Log.
type Options struct {
	// SyncEvery fsyncs the active segment after every N appended records;
	// 1 (the default) syncs every record — an acknowledged ingest survives
	// an immediate power cut. Larger values batch syncs (a crash may lose
	// up to N-1 acknowledged records); <= 0 defaults to 1.
	SyncEvery int
	// Metrics receives operational counters (nil = none).
	Metrics *Metrics
}

// Log is an append-only segmented WAL rooted at one directory. Append,
// Rotate, TruncateThrough and Close are safe for concurrent use with each
// other.
type Log struct {
	dir string
	opt Options

	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	nextSeq   uint64
	sinceSync int
	// segs maps the open order of on-disk segments: first seq -> last seq
	// written into it (the active segment's last updates on every append).
	segs   []segment
	closed bool
}

type segment struct {
	path  string
	first uint64
	last  uint64
}

const segPrefix = "wal-"

func segName(first uint64) string {
	return fmt.Sprintf("%s%020d.log", segPrefix, first)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Open recovers the WAL at dir (created if missing), returning every intact
// record in sequence order for replay. Appending resumes at the highest
// recovered sequence + 1, into a freshly created segment. A torn final line
// in the newest segment is dropped; corruption elsewhere is an error.
func Open(dir string, opt Options) (*Log, []Record, error) {
	if opt.SyncEvery <= 0 {
		opt.SyncEvery = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, opt: opt, nextSeq: 1}
	var recovered []Record
	for i, name := range names {
		path := filepath.Join(dir, name)
		recs, validLen, err := readSegment(path, i == len(names)-1)
		if err != nil {
			return nil, nil, err
		}
		if fi, err := os.Stat(path); err == nil && fi.Size() > validLen {
			// Repair the torn tail in place: the next Open must not find the
			// partial record mid-file (where it would no longer be tolerable).
			if err := os.Truncate(path, validLen); err != nil {
				return nil, nil, fmt.Errorf("wal: %w", err)
			}
		}
		if len(recs) == 0 {
			// A crash can leave a freshly rotated segment empty (or holding
			// only a torn line). Remove it outright — keeping it around
			// would collide with the fresh active segment created below.
			if err := os.Remove(path); err != nil {
				return nil, nil, fmt.Errorf("wal: %w", err)
			}
			continue
		}
		for _, r := range recs {
			if r.Seq < l.nextSeq {
				return nil, nil, fmt.Errorf("wal: %s: sequence %d not increasing (want >= %d)", name, r.Seq, l.nextSeq)
			}
			l.nextSeq = r.Seq + 1
		}
		l.segs = append(l.segs, segment{path: path, first: recs[0].Seq, last: recs[len(recs)-1].Seq})
		recovered = append(recovered, recs...)
	}
	if m := opt.Metrics; m != nil && m.Replayed != nil && len(recovered) > 0 {
		m.Replayed(len(recovered))
	}
	if err := l.openSegmentLocked(); err != nil {
		return nil, nil, err
	}
	return l, recovered, nil
}

// segmentNames lists wal-*.log files sorted by their embedded first
// sequence number.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, ".log") {
			continue
		}
		if _, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), ".log"), 10, 64); err != nil {
			return nil, fmt.Errorf("wal: unrecognised segment name %q", name)
		}
		names = append(names, name)
	}
	sort.Strings(names) // zero-padded first-seq names sort numerically
	return names, nil
}

// readSegment decodes one segment, returning the intact records and the
// byte length of the valid prefix. tolerateTail drops a torn or corrupt
// final line instead of failing — legal only for the newest segment, where
// a crash mid-append leaves exactly one partial record.
func readSegment(path string, tolerateTail bool) ([]Record, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	var recs []Record
	var validLen int64
	rest := string(data)
	for lineNo := 1; len(rest) > 0; lineNo++ {
		line, tail, sawNL := strings.Cut(rest, "\n")
		rest = tail
		last := !sawNL || len(rest) == 0
		rec, err := decodeLine(line)
		if err != nil {
			if tolerateTail && last {
				break // torn tail from the crash: everything before it is intact
			}
			return nil, 0, fmt.Errorf("wal: %s line %d: %w", filepath.Base(path), lineNo, err)
		}
		if !sawNL {
			// A record without its newline may have lost trailing bytes that
			// happen to still checksum — only possible for a torn tail.
			if tolerateTail {
				break
			}
			return nil, 0, fmt.Errorf("wal: %s line %d: unterminated record", filepath.Base(path), lineNo)
		}
		recs = append(recs, rec)
		validLen += int64(len(line)) + 1
	}
	return recs, validLen, nil
}

func decodeLine(line string) (Record, error) {
	crcHex, payload, ok := strings.Cut(line, " ")
	if !ok || len(crcHex) != 8 {
		return Record{}, fmt.Errorf("malformed frame")
	}
	want, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil {
		return Record{}, fmt.Errorf("malformed checksum: %w", err)
	}
	if got := crc32.Checksum([]byte(payload), crcTable); got != uint32(want) {
		return Record{}, fmt.Errorf("checksum mismatch (%08x != %08x)", got, want)
	}
	var rec Record
	if err := json.Unmarshal([]byte(payload), &rec); err != nil {
		return Record{}, fmt.Errorf("bad record: %w", err)
	}
	switch rec.Kind {
	case KindOrder:
		if rec.Order == nil {
			return Record{}, fmt.Errorf("order record %d without order body", rec.Seq)
		}
	case KindPing:
		if rec.Ping == nil {
			return Record{}, fmt.Errorf("ping record %d without ping body", rec.Seq)
		}
	default:
		return Record{}, fmt.Errorf("unknown record kind %q", rec.Kind)
	}
	return rec, nil
}

// openSegmentLocked creates and activates the segment starting at nextSeq.
func (l *Log) openSegmentLocked() error {
	path := filepath.Join(l.dir, segName(l.nextSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segs = append(l.segs, segment{path: path, first: l.nextSeq, last: 0})
	l.sinceSync = 0
	return nil
}

// AppendOrder appends an order record and returns its sequence number. The
// record is durable per the SyncEvery policy before the call returns.
func (l *Log) AppendOrder(o OrderRecord) (uint64, error) {
	rec := Record{Kind: KindOrder, Order: &o}
	seq, err := l.append(&rec)
	if err == nil {
		if m := l.opt.Metrics; m != nil && m.AppendsOrder != nil {
			m.AppendsOrder()
		}
	}
	return seq, err
}

// AppendPing appends a ping record and returns its sequence number.
func (l *Log) AppendPing(p PingRecord) (uint64, error) {
	rec := Record{Kind: KindPing, Ping: &p}
	seq, err := l.append(&rec)
	if err == nil {
		if m := l.opt.Metrics; m != nil && m.AppendsPing != nil {
			m.AppendsPing()
		}
	}
	return seq, err
}

func (l *Log) append(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	rec.Seq = l.nextSeq
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	if _, err := fmt.Fprintf(l.w, "%08x %s\n", crc32.Checksum(payload, crcTable), payload); err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	l.sinceSync++
	if l.sinceSync >= l.opt.SyncEvery {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	l.nextSeq++
	l.segs[len(l.segs)-1].last = rec.Seq
	return rec.Seq, nil
}

func (l *Log) syncLocked() error {
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if m := l.opt.Metrics; m != nil && m.Fsync != nil {
		m.Fsync(time.Since(start).Seconds())
	}
	l.sinceSync = 0
	return nil
}

// Sync flushes and fsyncs the active segment regardless of the batching
// policy (shutdown path).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

// Rotate closes the active segment and starts a new one at the next
// sequence. Called after a checkpoint lands so the pre-checkpoint segment
// becomes eligible for truncation.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if l.segs[len(l.segs)-1].last == 0 {
		// Nothing was ever appended to the active segment: reuse it instead
		// of stacking empty files (repeated checkpoints on a quiet engine).
		path := l.segs[len(l.segs)-1].path
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.f = f
		l.w = bufio.NewWriter(f)
		l.sinceSync = 0
		return nil
	}
	return l.openSegmentLocked()
}

// TruncateThrough deletes every closed segment whose records all have
// sequence <= seq — they are covered by a durable checkpoint. The active
// segment is never deleted. Returns how many segments were removed.
func (l *Log) TruncateThrough(seq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	keep := l.segs[:0]
	for i, s := range l.segs {
		active := i == len(l.segs)-1
		empty := s.last == 0
		if !active && (empty || s.last <= seq) {
			if err := os.Remove(s.path); err != nil {
				// Keep the bookkeeping consistent with disk on failure.
				keep = append(keep, l.segs[i:]...)
				l.segs = keep
				return removed, fmt.Errorf("wal: %w", err)
			}
			removed++
			continue
		}
		keep = append(keep, s)
	}
	l.segs = keep
	if removed > 0 {
		if m := l.opt.Metrics; m != nil && m.Truncated != nil {
			m.Truncated(removed)
		}
	}
	return removed, nil
}

// NextSeq returns the sequence number the next append will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Segments returns how many on-disk segments the log currently tracks
// (including the active one).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close flushes, fsyncs and closes the active segment. Further appends
// fail; the directory can be re-Opened.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.syncLocked(); err != nil {
		return err
	}
	return l.f.Close()
}
