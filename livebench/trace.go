package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/stats"
	"scalamedia/internal/transport"
	"scalamedia/internal/wire"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the call. Spans of one message share msg, the
// (sender, seq) id its payload carries; the Send span's id is derived from
// msg so receiver-side spans can name it as their parent.
type span struct {
	id, parent uint64
	msg        uint64 // sender<<32 | seq, when hasMsg
	hasMsg     bool
	name       string
	node       int // member slot
	start, end int64
}

func msgID(sender int, seq uint32) uint64 { return uint64(sender)<<32 | uint64(seq) }

// msgSpanID is the id of the Send span of a message: the top bit keeps it
// apart from the counter-allocated ids of every other span.
func msgSpanID(sender int, seq uint32) uint64 { return 1<<63 | msgID(sender, seq) }

// maxSpans caps the in-memory span log; later spans are counted, not kept.
const maxSpans = 400_000

// maxSamples caps each timing sample set; a capped set keeps its first
// samples, enough for stable percentiles at every rate used here.
const maxSamples = 1 << 21

// tracer collects spans and per-call timings during a traced run.
type tracer struct {
	every uint32 // message spans are kept for seq%every == 0

	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int

	send    samples // Node.Send / Node.Publish call duration, µs
	probe   samples // Node.View round trip, µs
	genLate samples // open-loop generator lateness, ms
}

func newTracer(every uint32) *tracer {
	return &tracer{every: max(every, 1)}
}

func (t *tracer) sampled(seq uint32) bool { return seq%t.every == 0 }
func (t *tracer) newID() uint64           { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// write dumps every kept span as one JSON object per line.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	type line struct {
		ID      uint64 `json:"id"`
		Parent  uint64 `json:"parent,omitempty"`
		Name    string `json:"name"`
		Node    int    `json:"node"`
		Msg     string `json:"msg,omitempty"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	for _, s := range t.spans {
		l := line{ID: s.id, Parent: s.parent, Name: s.name, Node: s.node + 1, StartNs: s.start, EndNs: s.end}
		if s.hasMsg {
			l.Msg = fmt.Sprintf("%d:%d", s.msg>>32+1, uint32(s.msg))
		}
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	if t.dropped > 0 {
		if err := enc.Encode(map[string]int{"spans_dropped": t.dropped}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// samples is a mutex-guarded, capped list of measurements.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	if len(s.v) < maxSamples {
		s.v = append(s.v, x)
	}
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// tracedEndpoint wraps a node's transport.Endpoint. It forwards the
// optional interfaces the inner endpoint implements, times Send, SendBatch
// and Flush, and counts datagrams by wire kind. While the benchmark has a
// sampled API call in flight on the node (active != 0), each transport
// call is also recorded as a span under it.
type tracedEndpoint struct {
	inner transport.Endpoint
	bs    transport.BatchSender
	tr    *tracer
	slot  int

	active atomic.Uint64 // span id of the sampled API call in flight

	kinds [256]atomic.Uint64 // datagrams sent, by wire.Kind

	// Written on the node's event loop only, read after the run.
	mu       sync.Mutex
	queued   int       // datagrams queued since the last Flush
	flushUs  []float64 // duration of each non-empty Flush
	perFlush []float64 // datagrams moved by each non-empty Flush
}

var (
	_ transport.Endpoint     = (*tracedEndpoint)(nil)
	_ transport.BatchSender  = (*tracedEndpoint)(nil)
	_ transport.Reachability = (*tracedEndpoint)(nil)
	_ transport.AddrLearner  = (*tracedEndpoint)(nil)
	_ transport.Instrumented = (*tracedEndpoint)(nil)
)

func newTracedEndpoint(inner transport.Endpoint, tr *tracer, slot int) *tracedEndpoint {
	e := &tracedEndpoint{inner: inner, tr: tr, slot: slot}
	e.bs, _ = inner.(transport.BatchSender)
	return e
}

func (e *tracedEndpoint) Self() id.Node                  { return e.inner.Self() }
func (e *tracedEndpoint) Recv() <-chan transport.Inbound { return e.inner.Recv() }
func (e *tracedEndpoint) Close() error                   { return e.inner.Close() }

func (e *tracedEndpoint) SetMetrics(reg *stats.Registry) {
	if inst, ok := e.inner.(transport.Instrumented); ok {
		inst.SetMetrics(reg)
	}
}

// CanReach answers as an endpoint without the interface would be treated:
// reachable.
func (e *tracedEndpoint) CanReach(n id.Node) bool {
	if r, ok := e.inner.(transport.Reachability); ok {
		return r.CanReach(n)
	}
	return true
}

func (e *tracedEndpoint) LearnPeer(n id.Node, addr string) error {
	if l, ok := e.inner.(transport.AddrLearner); ok {
		return l.LearnPeer(n, addr)
	}
	return nil
}

// spanFor records a transport call span when a sampled API call is in
// flight on this node.
func (e *tracedEndpoint) spanFor(name string, start, end int64) {
	if parent := e.active.Load(); parent != 0 {
		e.tr.record(span{id: e.tr.newID(), parent: parent, name: name, node: e.slot, start: start, end: end})
	}
}

func (e *tracedEndpoint) Send(to id.Node, msg *wire.Message) error {
	e.kinds[msg.Kind].Add(1)
	start := nowNs()
	err := e.inner.Send(to, msg)
	e.spanFor("transport.Send", start, nowNs())
	return err
}

func (e *tracedEndpoint) SendBatch(to id.Node, msg *wire.Message) error {
	if e.bs == nil {
		return e.Send(to, msg)
	}
	e.kinds[msg.Kind].Add(1)
	start := nowNs()
	err := e.bs.SendBatch(to, msg)
	e.spanFor("transport.SendBatch", start, nowNs())
	e.mu.Lock()
	e.queued++
	e.mu.Unlock()
	return err
}

func (e *tracedEndpoint) Flush() error {
	if e.bs == nil {
		return nil
	}
	start := nowNs()
	err := e.bs.Flush()
	end := nowNs()
	e.mu.Lock()
	if e.queued > 0 && len(e.flushUs) < maxSamples {
		e.flushUs = append(e.flushUs, float64(end-start)/1e3)
		e.perFlush = append(e.perFlush, float64(e.queued))
	}
	queued := e.queued
	e.queued = 0
	e.mu.Unlock()
	if queued > 0 {
		e.spanFor("transport.Flush", start, end)
	}
	return err
}

// timeCall runs one public Node call for a sampled message or probe,
// records its span, and marks it in flight on the node's endpoint so the
// transport calls it causes nest under it.
func (t *tracer) timeCall(ep *tracedEndpoint, name string, spanID, msg uint64, hasMsg, keep bool, call func()) time.Duration {
	if !keep {
		start := time.Now()
		call()
		return time.Since(start)
	}
	if spanID == 0 {
		spanID = t.newID()
	}
	ep.active.Store(spanID)
	start := nowNs()
	call()
	end := nowNs()
	ep.active.Store(0)
	t.record(span{id: spanID, msg: msg, hasMsg: hasMsg, name: name, node: ep.slot, start: start, end: end})
	return time.Duration(end - start)
}
