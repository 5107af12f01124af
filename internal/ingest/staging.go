package ingest

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"time"

	"repro/internal/trace"
)

// Segment is one staged upload, decoded to a reference stream. The
// canonical SMRS encoding (with its SMTX index) is retained or produced
// lazily via Encoded, so the replay layer can carve shard payloads as
// byte-range sub-slices instead of re-encoding.
type Segment struct {
	Stream   *trace.Stream
	RawBytes int64  // wire size of the upload (the quota charge)
	Hash     uint64 // FNV-1a of the raw upload bytes (cache keying)
	enc      *segmentEnc
}

// segmentEnc caches a segment's SMRS encoding plus parsed index. It is
// shared by pointer across Segment value copies (staging snapshots), so
// the encode cost is paid at most once per staged upload.
type segmentEnc struct {
	once sync.Once
	data []byte       // complete SMRS encoding
	idx  *trace.Index // parsed SMTX footer; nil when data carries none
	err  error
}

// NewSegment wraps an already decoded stream as a segment with a lazy
// shared encoding — the form Push stages and tests build directly.
func NewSegment(st *trace.Stream) Segment {
	return Segment{Stream: st, enc: &segmentEnc{}}
}

// encodeSegment produces the canonical indexed SMRS encoding of st.
func encodeSegment(st *trace.Stream) ([]byte, *trace.Index, error) {
	var buf bytes.Buffer
	if err := trace.WriteStream(&buf, st); err != nil {
		return nil, nil, err
	}
	data := buf.Bytes()
	ix, err := trace.ParseIndex(data)
	if err != nil {
		// The encoder just wrote this footer; failing to parse it back
		// is a bug, not an input problem.
		return nil, nil, fmt.Errorf("ingest: reparsing encoded segment index: %w", err)
	}
	return data, ix, nil
}

// Encoded returns the segment's complete SMRS encoding and its parsed
// SMTX index. For SMRS uploads that already carried a verified index
// these are the original upload bytes (zero re-encode); otherwise the
// stream is encoded canonically once and cached. The index is nil only
// when the stream is too large for the encoder to index, which no
// staged upload is; shard payloads refuse such a segment.
func (seg Segment) Encoded() ([]byte, *trace.Index, error) {
	if seg.enc == nil {
		// Hand-built segment with no shared cache: encode per call.
		return encodeSegment(seg.Stream)
	}
	seg.enc.once.Do(func() {
		if seg.enc.data != nil {
			return // pre-filled by Push from the upload bytes
		}
		seg.enc.data, seg.enc.idx, seg.enc.err = encodeSegment(seg.Stream)
	})
	return seg.enc.data, seg.enc.idx, seg.enc.err
}

// SegmentInfo is the wire summary of a staged segment.
type SegmentInfo struct {
	Name   string `json:"name"`
	Refs   int    `json:"refs"`
	Blocks int    `json:"blocks"`
	Bytes  int64  `json:"bytes"`
	Hash   string `json:"hash"`
}

// Info summarises the segment for wire responses.
func (seg Segment) Info() SegmentInfo {
	return SegmentInfo{
		Name:   seg.Stream.Name,
		Refs:   len(seg.Stream.Refs),
		Blocks: blockCount(len(seg.Stream.Refs)),
		Bytes:  seg.RawBytes,
		Hash:   fmt.Sprintf("%016x", seg.Hash),
	}
}

// TenantStatus reports one tenant's staging state.
type TenantStatus struct {
	Tenant      string        `json:"tenant"`
	Segments    []SegmentInfo `json:"segments"`
	StagedBytes int64         `json:"staged_bytes"`
	QuotaBytes  int64         `json:"quota_bytes"`
	RateBytes   int64         `json:"rate_bytes,omitempty"`
}

// tenant is one tenant's staging state. Every field is serialised by
// the owning Staging's mutex; all methods are *Locked.
type tenant struct {
	// segments holds staged uploads in arrival order.
	// guarded by mu (the owning Staging's mutex)
	segments []Segment
	// bytes is the summed RawBytes of segments (the quota charge).
	// guarded by mu
	bytes int64
	// taken counts segments ever consumed off the front, so snapshot
	// marks stay valid across concurrent pushes.
	// guarded by mu
	taken int64
	// bucket is the tenant's ingest rate limiter.
	// guarded by mu
	bucket bucket
}

// admitLocked applies the pre-read gates: rate debt, segment cap, byte
// quota. It returns the typed rejection, or the byte allowance for the
// read on success.
func (t *tenant) admitLocked(l Limits, now time.Time) (int64, error) {
	if wait := t.bucket.admitLocked(now); wait > 0 {
		return 0, &RateLimitedError{RetryAfter: wait}
	}
	if len(t.segments) >= l.MaxSegments {
		return 0, &QuotaError{Reason: fmt.Sprintf("%d segments staged (cap %d)", len(t.segments), l.MaxSegments), RetryAfter: quotaRetryAfter}
	}
	room := l.TenantBytes - t.bytes
	if room <= 0 {
		return 0, &QuotaError{Reason: fmt.Sprintf("%d bytes staged (quota %d)", t.bytes, l.TenantBytes), RetryAfter: quotaRetryAfter}
	}
	return min(room, MaxSegmentBytes), nil
}

// commitLocked re-applies the caps (a racing push may have filled them
// between admit and commit) and stages the segment.
func (t *tenant) commitLocked(l Limits, seg Segment) error {
	if len(t.segments) >= l.MaxSegments {
		return &QuotaError{Reason: fmt.Sprintf("%d segments staged (cap %d)", len(t.segments), l.MaxSegments), RetryAfter: quotaRetryAfter}
	}
	if t.bytes+seg.RawBytes > l.TenantBytes {
		return &QuotaError{Reason: fmt.Sprintf("segment of %d bytes exceeds remaining quota %d", seg.RawBytes, l.TenantBytes-t.bytes), RetryAfter: quotaRetryAfter}
	}
	t.segments = append(t.segments, seg)
	t.bytes += seg.RawBytes
	return nil
}

func (t *tenant) chargeLocked(now time.Time, n int64) { t.bucket.chargeLocked(now, n) }

// snapshotLocked returns a copy of the staged segments plus a mark that
// consumeLocked uses to remove exactly these segments later, even if
// more were pushed in between.
func (t *tenant) snapshotLocked() ([]Segment, int64) {
	segs := make([]Segment, len(t.segments))
	copy(segs, t.segments)
	return segs, t.markLocked()
}

// markLocked is the consume mark covering everything currently staged.
func (t *tenant) markLocked() int64 { return t.taken + int64(len(t.segments)) }

// emptyLocked reports whether nothing is staged.
func (t *tenant) emptyLocked() bool { return len(t.segments) == 0 }

// consumeLocked removes the segments covered by a snapshot mark,
// returning the bytes and segment count freed.
func (t *tenant) consumeLocked(mark int64) (int64, int) {
	n := min(int(mark-t.taken), len(t.segments))
	if n <= 0 {
		return 0, 0
	}
	var freed int64
	for i := 0; i < n; i++ {
		freed += t.segments[i].RawBytes
	}
	t.segments = append(t.segments[:0:0], t.segments[n:]...)
	t.bytes -= freed
	t.taken += int64(n)
	return freed, n
}

func (t *tenant) statusLocked(id string, l Limits) TenantStatus {
	ts := TenantStatus{
		Tenant:      id,
		Segments:    make([]SegmentInfo, 0, len(t.segments)),
		StagedBytes: t.bytes,
		QuotaBytes:  l.TenantBytes,
		RateBytes:   l.RateBytes,
	}
	for _, seg := range t.segments {
		ts.Segments = append(ts.Segments, seg.Info())
	}
	return ts
}

// Staging holds every tenant's staged segments behind one mutex — the
// serving layer calls it from many request goroutines.
type Staging struct {
	limits Limits
	mu     sync.Mutex
	// now is the clock (injectable for rate-limit tests).
	// guarded by mu
	now func() time.Time
	// tenants maps tenant id to staging state.
	// guarded by mu
	tenants map[string]*tenant
	// stagedBytes totals staged bytes across tenants.
	// guarded by mu
	stagedBytes int64
}

// NewStaging builds a staging area under l (zero fields take defaults).
func NewStaging(l Limits) *Staging {
	return &Staging{limits: l.withDefaults(), now: time.Now, tenants: make(map[string]*tenant)}
}

// Limits returns the effective (default-filled) limits.
func (s *Staging) Limits() Limits { return s.limits }

// SetClock replaces the rate-limiter clock; for tests.
func (s *Staging) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// tenantLocked finds or creates a tenant, enforcing the tenant cap.
func (s *Staging) tenantLocked(id string) (*tenant, error) {
	if t, ok := s.tenants[id]; ok {
		return t, nil
	}
	if len(s.tenants) >= s.limits.MaxTenants {
		return nil, &QuotaError{Reason: fmt.Sprintf("%d tenants staged (cap %d)", len(s.tenants), s.limits.MaxTenants), RetryAfter: quotaRetryAfter}
	}
	t := &tenant{bucket: bucket{rate: s.limits.RateBytes, burst: s.limits.BurstBytes}}
	s.tenants[id] = t
	return t, nil
}

// Push streams one upload into the tenant's staging area. The reader is
// consumed through a bounded buffer: at most the tenant's remaining
// quota plus one byte is ever held, so over-quota uploads are rejected
// without buffering them. The upload is decoded in memory with
// trace.ReadRefs (SMTB, SMRS, or text) and staged as a reference
// stream; rejected and
// malformed uploads leave staging unchanged but are still charged
// against the tenant's rate bucket for the bytes read.
func (s *Staging) Push(tenantID string, r io.Reader) (Segment, error) {
	s.mu.Lock()
	t, err := s.tenantLocked(tenantID)
	var allow int64
	if err == nil {
		allow, err = t.admitLocked(s.limits, s.now())
	}
	s.mu.Unlock()
	if err != nil {
		return Segment{}, err
	}

	data, hash, over, readErr := readBounded(r, allow)

	// Decode outside the lock; it is CPU work on a bounded buffer.
	var seg Segment
	var decErr error
	if readErr == nil && !over {
		st, err := trace.ReadRefs(data)
		switch {
		case err != nil:
			decErr = &BadSegmentError{Err: err}
		case len(st.Refs) == 0:
			decErr = &BadSegmentError{Err: fmt.Errorf("trace has no events")}
		default:
			seg = NewSegment(st)
			seg.RawBytes = int64(len(data))
			seg.Hash = hash
			if trace.Sniff(data) == "refs" {
				// An SMRS upload whose SMTX footer just survived the
				// decoder's claim-by-claim verification: keep the
				// upload bytes as the segment's encoding, so shard
				// payloads slice them instead of re-encoding.
				if ix, err := trace.ParseIndex(data); err == nil && ix != nil {
					seg.enc.data, seg.enc.idx = data, ix
				}
			}
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	t2, err := s.tenantLocked(tenantID)
	if err != nil {
		return Segment{}, err
	}
	t2.chargeLocked(s.now(), int64(len(data)))
	switch {
	case readErr != nil:
		return Segment{}, fmt.Errorf("ingest: reading upload: %w", readErr)
	case over:
		return Segment{}, &QuotaError{Reason: fmt.Sprintf("upload exceeds allowance of %d bytes", allow), RetryAfter: quotaRetryAfter}
	case decErr != nil:
		return Segment{}, decErr
	}
	if err := t2.commitLocked(s.limits, seg); err != nil {
		return Segment{}, err
	}
	s.stagedBytes += seg.RawBytes
	return seg, nil
}

// Status reports a tenant's staging state; ok is false for a tenant
// with nothing staged and no state.
func (s *Staging) Status(tenantID string) (TenantStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[tenantID]
	if !ok {
		return TenantStatus{Tenant: tenantID, QuotaBytes: s.limits.TenantBytes, RateBytes: s.limits.RateBytes}, false
	}
	return t.statusLocked(tenantID, s.limits), true
}

// Drop discards a tenant's staged segments (and its rate-limit state),
// returning the bytes and segment count freed.
func (s *Staging) Drop(tenantID string) (int64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[tenantID]
	if !ok {
		return 0, 0
	}
	freed, n := t.consumeLocked(t.markLocked())
	delete(s.tenants, tenantID)
	s.stagedBytes -= freed
	return freed, n
}

// Snapshot returns a copy of the tenant's staged segments plus a mark
// for Consume. An empty snapshot is an error — there is nothing to run.
func (s *Staging) Snapshot(tenantID string) ([]Segment, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[tenantID]
	if !ok {
		return nil, 0, fmt.Errorf("ingest: tenant %q has nothing staged", tenantID)
	}
	segs, mark := t.snapshotLocked()
	if len(segs) == 0 {
		return nil, 0, fmt.Errorf("ingest: tenant %q has nothing staged", tenantID)
	}
	return segs, mark, nil
}

// Consume removes the segments covered by a Snapshot mark — called
// after a run lands, so the quota frees only once results are safe.
// Segments pushed after the snapshot stay staged.
func (s *Staging) Consume(tenantID string, mark int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[tenantID]
	if !ok {
		return
	}
	freed, _ := t.consumeLocked(mark)
	s.stagedBytes -= freed
	if t.emptyLocked() {
		delete(s.tenants, tenantID)
	}
}

// StagedBytes totals staged bytes across tenants (a metrics gauge).
func (s *Staging) StagedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stagedBytes
}

// TenantCount counts tenants with staging state (a metrics gauge).
func (s *Staging) TenantCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tenants)
}

// readBounded reads r to completion into memory, stopping one byte past
// limit (over reports truncation), and hashes the bytes read with
// FNV-1a. It reads straight into the buffer, with no copy buffer
// between, and hashes the bytes once they are all in.
func readBounded(r io.Reader, limit int64) (data []byte, hash uint64, over bool, err error) {
	var buf bytes.Buffer
	n, err := buf.ReadFrom(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, 0, false, err
	}
	if n > limit {
		return nil, 0, true, nil
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return buf.Bytes(), h.Sum64(), false, nil
}

// blockCount is the number of SMTB/SMRS blocks covering n refs.
func blockCount(n int) int {
	return (n + trace.BlockEvents - 1) / trace.BlockEvents
}
