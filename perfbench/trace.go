package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records spans around the calls the benchmark makes into
// the system and at the HTTP boundaries it can wrap from outside:
// client.Pool calls, the pool's RoundTripper, middleware around
// Service.Handler(), the RoundTripper of the shards' peer probes, and
// Session.Do/Wide. Nothing inside the program is instrumented. Spans
// stay in memory and are written out when the benchmark ends.

// spanHeader carries "<span id>/<request id>" from the client-side
// transport to the server-side middleware, linking the two spans.
const spanHeader = "X-Perfbench-Span"

// fillHeader marks a peer fill probe (client.FillHeader).
const fillHeader = "X-Sortnetd-Fill"

// maxSpans bounds the spans kept in memory; later spans are counted
// as dropped and left out of the per-layer sums.
const maxSpans = 1 << 20

// span is one timed call: Start and End are nanoseconds since the
// tracer was made, RID the benchmark's request number.
type span struct {
	ID, Parent, RID uint64
	Name            string
	Start, End      int64
}

type tracer struct {
	on   atomic.Bool
	base time.Time
	ids  atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int

	bytes atomic.Int64 // request plus response body bytes through the client transport
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

type spanCtxKey struct{}

// spanRef is the parent link a context or header carries.
type spanRef struct{ id, rid uint64 }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// begin opens a span named name for request rid, returning a context
// carrying it as the parent of nested spans and the function that
// closes it. With tracing off both are no-ops. A nil tracer is off.
func (t *tracer) begin(ctx context.Context, name string, rid uint64) (context.Context, func()) {
	if t == nil || !t.on.Load() {
		return ctx, func() {}
	}
	s := span{ID: t.ids.Add(1), RID: rid, Name: name, Start: t.now()}
	if p, ok := ctx.Value(spanCtxKey{}).(spanRef); ok {
		s.Parent = p.id
	}
	return context.WithValue(ctx, spanCtxKey{}, spanRef{s.ID, rid}), func() {
		s.End = t.now()
		t.record(s)
	}
}

// transport wraps base in a span per round trip, from the request
// until the response body is drained or closed, and counts body bytes
// both ways.
func (t *tracer) transport(name string, base http.RoundTripper) http.RoundTripper {
	return &spanTransport{t: t, name: name, base: base}
}

type spanTransport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (st *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := st.t
	if !t.on.Load() {
		return st.base.RoundTrip(req)
	}
	s := span{ID: t.ids.Add(1), Name: st.name, Start: t.now()}
	if p, ok := req.Context().Value(spanCtxKey{}).(spanRef); ok {
		s.Parent, s.RID = p.id, p.rid
	}
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatUint(s.ID, 10)+"/"+strconv.FormatUint(s.RID, 10))
	if req.Body != nil {
		out.Body = &countingBody{ReadCloser: req.Body, n: &t.bytes}
	}
	resp, err := st.base.RoundTrip(out)
	if err != nil {
		s.End = t.now()
		t.record(s)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes, done: func() {
		s.End = t.now()
		t.record(s)
	}}
	return resp, nil
}

// countingBody counts the bytes read through it and runs done once,
// at EOF or Close, whichever comes first.
type countingBody struct {
	io.ReadCloser
	n    *atomic.Int64
	done func()
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *countingBody) finish() {
	if b.done != nil {
		b.once.Do(b.done)
	}
}

// middleware wraps a sortnetd handler in a span per request, linked to
// the client-side span named in the request's spanHeader. Peer fill
// probes get their own span name.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		s := span{ID: t.ids.Add(1), Name: "serve.handler", Start: t.now()}
		if r.Header.Get(fillHeader) != "" {
			s.Name = "serve.fill"
		}
		if id, rid, ok := strings.Cut(r.Header.Get(spanHeader), "/"); ok {
			// A malformed header leaves the span unlinked (zero ids).
			s.Parent, _ = strconv.ParseUint(id, 10, 64)
			s.RID, _ = strconv.ParseUint(rid, 10, 64)
		}
		h.ServeHTTP(w, r)
		s.End = t.now()
		t.record(s)
	})
}

// mark returns the current span count, so that a later sum can cover
// only the spans of one phase.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanSums is the per-name total and self time of a range of spans, in
// nanoseconds. Self time is a span's duration minus the durations of
// its recorded children.
type spanSums struct {
	total map[string]int64
	self  map[string]int64
}

func (t *tracer) sums(from, to int) spanSums {
	t.mu.Lock()
	spans := t.spans[from:to]
	t.mu.Unlock()
	child := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := spanSums{total: map[string]int64{}, self: map[string]int64{}}
	for _, s := range spans {
		d := s.End - s.Start
		out.total[s.Name] += d
		out.self[s.Name] += d - child[s.ID]
	}
	return out
}

// write dumps every recorded span as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"rid":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.RID, s.Name, s.Start, s.End)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
