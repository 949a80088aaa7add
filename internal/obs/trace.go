package obs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer serializes completed spans and structured events to an io.Writer
// as JSONL: one SpanRecord per line, spans written when they end (so
// children appear before their parents in the stream — readers reassemble
// the tree via the parent ids), events written immediately. A Tracer is
// safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	w      io.Writer
	err    error
	closed bool
	nextID atomic.Uint64
	epoch  time.Time
	ids    atomic.Pointer[IDSource]
}

// NewTracer returns a tracer writing JSONL records to w. Timestamps in the
// records are microsecond offsets from the tracer's creation. Trace IDs
// are minted from a clock-seeded source; call SeedTraceIDs to make them
// reproducible (the determinism gates do).
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: w, epoch: time.Now()}
	t.ids.Store(NewIDSource(time.Now().UnixNano()))
	return t
}

// tracerSeedSalt domain-separates a seeded tracer's mint stream from a
// plain NewIDSource(seed) stream. Clients (the load generator) mint their
// request trace IDs from NewIDSource(seed).At(n); the server's tracer mints
// local roots from Next(), which walks the same At sequence — without the
// salt, a server and its clients seeded alike would collide on trace IDs
// and locally-rooted spans (batches, transfers) would appear to live inside
// some request's trace.
const tracerSeedSalt = 0x7C1A5E21D0B5F3E9

// SeedTraceIDs replaces the tracer's trace-ID source with a deterministic
// one: same seed + same mint order = same IDs. Serial seeded runs become
// byte-reproducible up to CanonicalTrace; concurrent runs still need the
// canonical remapping because mint order races. The stream is
// domain-separated from NewIDSource(seed) so equally-seeded clients never
// mint a colliding trace ID.
func (t *Tracer) SeedTraceIDs(seed int64) {
	if t == nil {
		return
	}
	t.ids.Store(NewIDSource(seed ^ tracerSeedSalt))
}

func (t *Tracer) mintTraceID() TraceID {
	src := t.ids.Load()
	if src == nil {
		// Zero-value Tracer (not built by NewTracer): seed from the clock once.
		src = NewIDSource(time.Now().UnixNano())
		if !t.ids.CompareAndSwap(nil, src) {
			src = t.ids.Load()
		}
	}
	return src.Next()
}

// Err returns the first write error encountered, if any.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// TraceID is a W3C-shaped 16-byte trace identifier: every root span mints
// one and its whole subtree inherits it, so spans from different requests
// stay distinguishable even when they interleave in one JSONL stream.
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero value (which the
// W3C spec also forbids on the wire).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex characters; the zero ID
// renders as "" so omitempty JSON fields stay absent.
func (id TraceID) String() string {
	if id.IsZero() {
		return ""
	}
	return hex.EncodeToString(id[:])
}

// ParseTraceID parses a 32-hex-character trace ID.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 {
		return id, fmt.Errorf("obs: trace id %q: want 32 hex chars", s)
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return TraceID{}, fmt.Errorf("obs: trace id %q: %w", s, err)
	}
	copy(id[:], b)
	if id.IsZero() {
		return TraceID{}, fmt.Errorf("obs: trace id %q: all-zero is invalid", s)
	}
	return id, nil
}

// IDSource mints deterministic trace IDs from a seed: a splitmix64 stream,
// so the n-th ID of two sources with the same seed is identical. Safe for
// concurrent use.
type IDSource struct {
	seed uint64
	seq  atomic.Uint64
}

// NewIDSource returns an ID source for the seed.
func NewIDSource(seed int64) *IDSource {
	return &IDSource{seed: splitmix64(uint64(seed) ^ 0x9E3779B97F4A7C15)}
}

// Next mints the next trace ID of the stream.
func (s *IDSource) Next() TraceID { return s.At(s.seq.Add(1)) }

// At returns the n-th trace ID of the stream (n >= 1) independent of mint
// order — the per-index form concurrent load generators need.
func (s *IDSource) At(n uint64) TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], splitmix64(s.seed+2*n))
	binary.BigEndian.PutUint64(id[8:], splitmix64(s.seed+2*n+1))
	if id.IsZero() {
		id[15] = 1
	}
	return id
}

// SpanIDAt returns a deterministic nonzero span ID for the n-th remote
// parent of the stream. The high-entropy value cannot collide with the
// small sequential IDs a local Tracer assigns.
func (s *IDSource) SpanIDAt(n uint64) uint64 {
	v := splitmix64((s.seed ^ 0xD1B54A32D192ED03) + n)
	if v == 0 {
		v = 1
	}
	return v
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// high-quality 64-bit mix.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// SpanContext identifies one span for cross-boundary propagation: what a
// `traceparent` header carries, what a span link points at.
type SpanContext struct {
	Trace TraceID
	Span  uint64
}

// IsZero reports whether the context identifies nothing.
func (sc SpanContext) IsZero() bool { return sc.Trace.IsZero() || sc.Span == 0 }

// TraceparentHeader is the W3C Trace Context header name.
const TraceparentHeader = "traceparent"

// FormatTraceparent renders a span context as a W3C `traceparent` value:
// version 00, sampled flag set. A zero context renders as "".
func FormatTraceparent(sc SpanContext) string {
	if sc.IsZero() {
		return ""
	}
	return fmt.Sprintf("00-%s-%016x-01", sc.Trace.String(), sc.Span)
}

// ParseTraceparent parses a W3C `traceparent` header value. Unknown future
// versions are accepted as long as the leading fields parse (per spec);
// version ff, zero IDs, and malformed fields are errors.
func ParseTraceparent(s string) (SpanContext, error) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: want version-traceid-parentid-flags", s)
	}
	if len(parts[0]) != 2 || parts[0] == "ff" {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: bad version %q", s, parts[0])
	}
	trace, err := ParseTraceID(parts[1])
	if err != nil {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: %w", s, err)
	}
	if len(parts[2]) != 16 {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: parent id wants 16 hex chars", s)
	}
	var span uint64
	if _, err := fmt.Sscanf(parts[2], "%016x", &span); err != nil {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: parent id: %w", s, err)
	}
	if span == 0 {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: all-zero parent id is invalid", s)
	}
	return SpanContext{Trace: trace, Span: span}, nil
}

// KindEvent marks a point-in-time event record in the trace stream; span
// records leave Kind empty, which keeps pre-event traces parseable.
const KindEvent = "event"

// SpanLink points from one span at another span — possibly in a different
// trace. The serving layer uses links to make shared work attributable:
// one `serve.batch` span links every member request's span, so a request's
// trace and the batch that actually served it stay connected.
type SpanLink struct {
	Trace string `json:"trace"`
	Span  uint64 `json:"span"`
}

// SpanRecord is the JSONL wire format of one completed span, and — with
// Kind set to KindEvent and a zero duration — of one structured event.
// Trace and Links are omitted when empty, so pre-tracing streams and
// readers stay compatible.
type SpanRecord struct {
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	// Remote marks a span whose parent lives in another process (it was
	// adopted from a traceparent header), so readers know the parent id will
	// never appear in this stream — it's a clean trace root here, not the
	// debris of an aborted run.
	Remote  bool           `json:"remote,omitempty"`
	Kind    string         `json:"kind,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Links   []SpanLink     `json:"links,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// IsEvent reports whether the record is a structured event rather than a
// span.
func (r *SpanRecord) IsEvent() bool { return r.Kind == KindEvent }

// Span is one timed operation in the trace tree. Identity (id, trace,
// parent) is immutable after creation and safe to read from any goroutine
// via Context(); mutation (SetAttr, Link, End) is mutex-guarded, so a
// batching goroutine can annotate a request span that another goroutine
// owns. All methods are nil-safe so disabled tracing costs a pointer
// check.
type Span struct {
	t      *Tracer
	name   string
	id     uint64
	trace  TraceID
	parent uint64
	remote bool
	start  time.Time

	mu    sync.Mutex
	ended bool
	attrs map[string]any
	links []SpanLink
}

// StartSpan opens a root span in a freshly minted trace.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, id: t.nextID.Add(1), trace: t.mintTraceID(), start: time.Now()}
}

// StartSpanIn opens a span inside an existing trace under a remote parent
// — the server-side half of `traceparent` propagation. A zero remote falls
// back to StartSpan (fresh root, fresh trace).
func (t *Tracer) StartSpanIn(name string, remote SpanContext) *Span {
	if t == nil {
		return nil
	}
	if remote.IsZero() {
		return t.StartSpan(name)
	}
	return &Span{t: t, name: name, id: t.nextID.Add(1), trace: remote.Trace, parent: remote.Span, remote: true, start: time.Now()}
}

// StartChild opens a child span of s in the same trace.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{t: s.t, name: name, id: s.t.nextID.Add(1), trace: s.trace, parent: s.id, start: time.Now()}
}

// Context returns the span's propagation identity (zero on a nil span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.trace, Span: s.id}
}

// SetAttr attaches a key/value attribute to the span, overwriting any
// previous value for the key. Attributes set after End are dropped.
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if s.attrs == nil {
			s.attrs = make(map[string]any, 4)
		}
		s.attrs[key] = val
	}
	s.mu.Unlock()
}

// Link records that this span is causally connected to another span
// without being its child — e.g. a batch span links every request span it
// served. Zero contexts and links added after End are dropped.
func (s *Span) Link(sc SpanContext) {
	if s == nil || sc.IsZero() {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.links = append(s.links, SpanLink{Trace: sc.Trace.String(), Span: sc.Span})
	}
	s.mu.Unlock()
}

// End closes the span and writes its record. End is idempotent: the first
// call wins, later calls (and attribute writes racing with the first) are
// dropped.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs, links := s.attrs, s.links
	s.attrs, s.links = nil, nil
	s.mu.Unlock()
	rec := SpanRecord{
		Span:    s.id,
		Parent:  s.parent,
		Trace:   s.trace.String(),
		Remote:  s.remote,
		Name:    s.name,
		StartUS: s.start.Sub(s.t.epoch).Microseconds(),
		DurUS:   now.Sub(s.start).Microseconds(),
		Links:   links,
		Attrs:   attrs,
	}
	s.t.write(&rec)
}

func (t *Tracer) write(rec *SpanRecord) {
	line, err := json.Marshal(rec)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		if t.err == nil {
			t.err = fmt.Errorf("obs: marshal span %q: %w", rec.Name, err)
		}
		return
	}
	if t.err != nil || t.closed {
		return
	}
	line = append(line, '\n')
	if _, err := t.w.Write(line); err != nil {
		t.err = fmt.Errorf("obs: write span %q: %w", rec.Name, err)
	}
}

// Close flushes and closes the tracer. When the underlying writer is an
// io.Closer (the trace file) it is closed too, so an aborting CLI path can
// call Close once and know the JSONL tail reached disk. Records written
// after Close are dropped; Close is idempotent and returns the first error
// the tracer encountered (write, marshal, or close).
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.closed = true
	if c, ok := t.w.(io.Closer); ok {
		if err := c.Close(); err != nil && t.err == nil {
			t.err = fmt.Errorf("obs: close trace: %w", err)
		}
	}
	return t.err
}

// CanonicalTrace rewrites trace records into a timing-free canonical form
// for byte-comparison across runs: StartUS and DurUS are zeroed,
// wall-clock-valued attributes (key suffix "_us" or "_s") are dropped, and
// trace IDs — whose raw values depend on the mint seed and order — are
// remapped to "t1", "t2", ... in order of first appearance, both on the
// records and inside their links (links are also sorted, since batch
// membership order races under concurrency). Span ids, parentage, names,
// and the remaining attributes are untouched — for a seeded serial
// workload they are deterministic, so two runs produce byte-identical
// canonical traces even though every raw timestamp and trace ID differs.
// This is what the chaos tests pin fault-schedule reproducibility with.
// The input is not mutated.
func CanonicalTrace(recs []SpanRecord) []SpanRecord {
	out := make([]SpanRecord, len(recs))
	canon := map[string]string{}
	canonID := func(tr string) string {
		if tr == "" {
			return ""
		}
		c, ok := canon[tr]
		if !ok {
			c = fmt.Sprintf("t%d", len(canon)+1)
			canon[tr] = c
		}
		return c
	}
	for i, r := range recs {
		r.StartUS, r.DurUS = 0, 0
		r.Trace = canonID(r.Trace)
		if len(r.Links) > 0 {
			links := make([]SpanLink, len(r.Links))
			for j, l := range r.Links {
				l.Trace = canonID(l.Trace)
				links[j] = l
			}
			sort.Slice(links, func(a, b int) bool {
				if links[a].Trace != links[b].Trace {
					return links[a].Trace < links[b].Trace
				}
				return links[a].Span < links[b].Span
			})
			r.Links = links
		}
		if len(r.Attrs) > 0 {
			attrs := make(map[string]any, len(r.Attrs))
			for k, v := range r.Attrs {
				if strings.HasSuffix(k, "_us") || strings.HasSuffix(k, "_s") {
					continue
				}
				attrs[k] = v
			}
			if len(attrs) == 0 {
				attrs = nil
			}
			r.Attrs = attrs
		}
		out[i] = r
	}
	return out
}

// ReadJSONL decodes one T per non-blank line of r, in file order — the one
// reader under span traces. A final line that does not
// parse is a truncated tail (the writer was killed mid-line): it is
// skipped and reported. An unparsable line with another line after it is
// corruption and a hard error.
func ReadJSONL[T any](r io.Reader) (rows []T, truncated bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	bad := 0 // 1-based number of the first unparsable line
	for line := 1; sc.Scan(); line++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if bad != 0 {
			return nil, false, fmt.Errorf("obs: line %d is malformed (not a truncated tail: line %d follows)", bad, line)
		}
		var row T
		if json.Unmarshal(raw, &row) != nil {
			bad = line
			continue
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, false, fmt.Errorf("obs: read: %w", err)
	}
	return rows, bad != 0, nil
}

// ReadTrace parses a JSONL trace stream back into records, in file order
// (i.e. span-end order): the inverse of the Tracer's serialization.
func ReadTrace(r io.Reader) ([]SpanRecord, error) {
	recs, _, err := ReadJSONL[SpanRecord](r)
	return recs, err
}
