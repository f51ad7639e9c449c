package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own wrappers around the program's public seams. Spans of one
// request share id, the X-Request-Id the benchmark sent.
type span struct {
	id       string
	layer    string // client, gateway, proxy or server
	node     string // which server answered (r0, r1, ...)
	path     string
	start    time.Time
	end      time.Time
	bytes    int   // response bytes
	selectNS int64 // client span of a single select: the decision's own latency_ns
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// spanLog keeps spans in memory until the run ends. The wrappers that
// feed it record only while it is on; while it is off they pass straight
// through, so one stack serves both the traced and the plain slices.
type spanLog struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

// recording reports whether spans are being recorded; a nil log never is.
func (l *spanLog) recording() bool { return l != nil && l.on.Load() }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTime is a span's duration minus the part of it that its children
// cover; overlapping children count once and only inside the parent.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.start, c.end
		if lo.Before(parent.start) {
			lo = parent.start
		}
		if hi.After(parent.end) {
			hi = parent.end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo.Before(ivs[b].lo) })
	covered := time.Duration(0)
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case x.lo.After(cur.hi):
			covered += cur.hi.Sub(cur.lo)
			cur = x
		case x.hi.After(cur.hi):
			cur.hi = x.hi
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi.Sub(cur.lo)
	}
	return parent.dur() - covered
}

// requestIDKey carries a request's ID from a traced handler to the
// gateway's outgoing proxy requests.
type requestIDKey struct{}

// tracedHandler records one span per request around an http.Handler: the
// admin.Server of a replica or the gateway.Gateway.
type tracedHandler struct {
	layer, node string
	next        http.Handler
	spans       *spanLog
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.spans.recording() {
		h.next.ServeHTTP(w, r)
		return
	}
	id := r.Header.Get("X-Request-Id")
	r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	h.spans.add(span{id: id, layer: h.layer, node: h.node, path: r.URL.Path, start: start, end: time.Now(), bytes: cw.n})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

// tracedTransport is the RoundTripper in gateway.Config.Client. It times
// each proxy attempt until the gateway closes the response body, and sends
// the client's request ID on to the replica so the two hops' spans join:
// the gateway itself does not forward X-Request-Id.
type tracedTransport struct {
	base  http.RoundTripper
	spans *spanLog
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.spans.recording() {
		return t.base.RoundTrip(req)
	}
	id, _ := req.Context().Value(requestIDKey{}).(string)
	out := req.Clone(req.Context())
	out.Header.Set("X-Request-Id", id)
	s := span{id: id, layer: "proxy", path: req.URL.Path, start: time.Now()}
	resp, err := t.base.RoundTrip(out)
	if err != nil {
		s.end = time.Now()
		t.spans.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.end = time.Now()
		t.spans.add(s)
	}}
	return resp, nil
}

// spanBody ends its proxy span when the gateway closes the body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
