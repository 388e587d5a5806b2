package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scalamedia"
	"scalamedia/internal/transport"
)

// epoch anchors every benchmark timestamp; times are nanoseconds since it
// on the monotonic clock, so payload due times and delivery times compare
// directly inside one process.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// joinTimeout bounds one cluster's formation.
const joinTimeout = 30 * time.Second

// member is one node plus the benchmark's record of what it delivered.
// The record is written on the node's event loop (OnEvent) and read by
// the benchmark after the drain, so it sits behind mu.
type member struct {
	slot int
	id   scalamedia.NodeID
	node *scalamedia.Node
	ep   *tracedEndpoint // nil when untraced
	run  *runState

	mu  sync.Mutex
	chk *checker
	lat []uint32 // ns from due time to MessageReceived, saturating

	delivered atomic.Int64
	lastNs    atomic.Int64 // time of the latest delivery
	evicted   atomic.Bool
}

// runState is what every member's event callback shares.
type runState struct {
	w       *workload
	seed    int64
	tr      *tracer // nil when untraced
	objects *objectTracker
}

func (m *member) onEvent(ev scalamedia.Event) {
	switch ev.Kind {
	case scalamedia.MessageReceived:
		now := nowNs()
		h, _ := parseHeader(ev.Payload)
		m.mu.Lock()
		m.chk.observe(ev.Payload)
		m.lat = append(m.lat, saturate(now-h.due))
		m.mu.Unlock()
		m.lastNs.Store(now)
		m.delivered.Add(1)
		if tr := m.run.tr; tr != nil && tr.sampled(h.seq) {
			tr.record(span{
				id: tr.newID(), parent: msgSpanID(h.sender, h.seq), msg: msgID(h.sender, h.seq), hasMsg: true,
				name: "scalamedia.OnEvent.MessageReceived", node: m.slot, start: h.due, end: now,
			})
		}
	case scalamedia.ObjectReceived:
		if ev.Node == m.id {
			return // the origin's own copy
		}
		now := nowNs()
		m.run.objects.received(ev.Object, m.slot, now)
		if tr := m.run.tr; tr != nil {
			origin := int(ev.Node) - 1
			tr.record(span{
				id: tr.newID(), parent: msgSpanID(origin, uint32(ev.Object)), msg: msgID(origin, uint32(ev.Object)), hasMsg: true,
				name: "scalamedia.OnEvent.ObjectReceived", node: m.slot, start: now, end: now,
			})
		}
	case scalamedia.ObjectProgress:
		m.run.objects.progress(ev.Object, nowNs())
	case scalamedia.SelfEvicted:
		m.evicted.Store(true)
	}
}

func saturate(ns int64) uint32 {
	switch {
	case ns < 0:
		return 0
	case ns > 1<<32-1:
		return 1<<32 - 1
	}
	return uint32(ns)
}

// cluster is n started nodes that have all installed the full view.
type cluster struct {
	members []*member
	fabric  *transport.Fabric // nil on UDP
}

// startCluster starts w.n nodes, node 1 bootstrapping and the rest joining
// through it, and returns once every node's view holds all of them. The
// returned duration runs from the first Start to the last full view.
// fabricSeed drives the in-process fabric's loss decisions.
func startCluster(rs *runState, fabricSeed int64) (*cluster, time.Duration, error) {
	w := rs.w
	c := &cluster{}
	eps := make([]transport.Endpoint, w.n)
	switch {
	case !w.udp:
		c.fabric = transport.NewFabric(transport.WithSeed(fabricSeed))
		for i := range eps {
			ep, err := c.fabric.Attach(scalamedia.NodeID(i + 1))
			if err != nil {
				c.close()
				return nil, 0, fmt.Errorf("attach node %d: %w", i+1, err)
			}
			eps[i] = ep
		}
	case rs.tr != nil:
		// A traced UDP run wraps the endpoint, which hides it from the
		// Node's own address learning, so open the sockets here and give
		// every node every peer statically.
		udps := make([]*transport.UDPEndpoint, w.n)
		for i := range udps {
			u, err := transport.ListenUDP(scalamedia.NodeID(i+1), "127.0.0.1:0")
			if err != nil {
				closeAll(udps)
				return nil, 0, fmt.Errorf("listen node %d: %w", i+1, err)
			}
			udps[i] = u
		}
		for i, u := range udps {
			for j, peer := range udps {
				if i == j {
					continue
				}
				if err := u.AddPeer(scalamedia.NodeID(j+1), peer.LocalAddr().String()); err != nil {
					closeAll(udps)
					return nil, 0, fmt.Errorf("add peer %d to node %d: %w", j+1, i+1, err)
				}
			}
			eps[i] = u
		}
	}

	start := time.Now()
	for i := 0; i < w.n; i++ {
		m := &member{slot: i, id: scalamedia.NodeID(i + 1), run: rs, chk: newChecker(rs.seed, w.n)}
		cfg := scalamedia.Config{
			Self:     m.id,
			Group:    1,
			Ordering: w.ordering,
			OnEvent:  m.onEvent,
		}
		if i > 0 {
			cfg.Contact = 1
		}
		switch {
		case eps[i] != nil && rs.tr != nil:
			m.ep = newTracedEndpoint(eps[i], rs.tr, i)
			cfg.Endpoint = m.ep
		case eps[i] != nil:
			cfg.Endpoint = eps[i]
		default:
			cfg.ListenAddr = "127.0.0.1:0"
			if i > 0 {
				cfg.Peers = map[scalamedia.NodeID]string{1: c.members[0].node.Addr()}
			}
		}
		node, err := scalamedia.Start(cfg)
		if err != nil {
			c.close()
			for _, ep := range eps[i:] {
				if ep != nil {
					ep.Close()
				}
			}
			return nil, 0, fmt.Errorf("start node %d: %w", i+1, err)
		}
		m.node = node
		c.members = append(c.members, m)
	}
	for _, m := range c.members {
		if !m.node.WaitViewSize(w.n, joinTimeout) {
			c.close()
			return nil, 0, fmt.Errorf("node %d did not see %d members within %v", m.id, w.n, joinTimeout)
		}
	}
	return c, time.Since(start), nil
}

func closeAll(udps []*transport.UDPEndpoint) {
	for _, u := range udps {
		if u != nil {
			u.Close()
		}
	}
}

// startLoss switches on the workload's per-link loss. It is applied after
// setup, so setup_s times the formation path itself rather than the join
// retry timer a lost join datagram waits on.
func (c *cluster) startLoss(loss float64) {
	if c.fabric == nil || loss == 0 {
		return
	}
	for _, a := range c.members {
		for _, b := range c.members {
			if a != b {
				c.fabric.SetLink(a.id, b.id, transport.LinkConfig{Loss: loss})
			}
		}
	}
}

// close stops every node and the fabric; it waits for their goroutines.
func (c *cluster) close() {
	for _, m := range c.members {
		m.node.Close()
	}
	if c.fabric != nil {
		c.fabric.Close()
	}
}

// counters sums every node's snapshot counters.
func (c *cluster) counters() map[string]uint64 {
	sum := make(map[string]uint64)
	for _, m := range c.members {
		for k, v := range m.node.Snapshot().Counters {
			sum[k] += v
		}
	}
	return sum
}

// objectTracker follows bulk objects across members: which members raised
// ObjectReceived and when, and when the first ObjectProgress arrived.
type objectTracker struct {
	mu      sync.Mutex
	objs    map[uint64]*objectState
	changed chan struct{} // signalled (cap 1, non-blocking) on each receipt
}

type objectState struct {
	receivedAt    map[int]int64 // member slot -> ObjectReceived time
	firstProgress int64
}

func newObjectTracker() *objectTracker {
	return &objectTracker{objs: make(map[uint64]*objectState), changed: make(chan struct{}, 1)}
}

func (t *objectTracker) state(obj uint64) *objectState {
	s := t.objs[obj]
	if s == nil {
		s = &objectState{receivedAt: make(map[int]int64)}
		t.objs[obj] = s
	}
	return s
}

func (t *objectTracker) received(obj uint64, slot int, now int64) {
	t.mu.Lock()
	t.state(obj).receivedAt[slot] = now
	t.mu.Unlock()
	select {
	case t.changed <- struct{}{}:
	default:
	}
}

func (t *objectTracker) progress(obj uint64, now int64) {
	t.mu.Lock()
	if s := t.state(obj); s.firstProgress == 0 {
		s.firstProgress = now
	}
	t.mu.Unlock()
}

// snapshot returns the receipt times of obj so far and its first
// progress time.
func (t *objectTracker) snapshot(obj uint64) ([]int64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.state(obj)
	times := make([]int64, 0, len(s.receivedAt))
	for _, at := range s.receivedAt {
		times = append(times, at)
	}
	return times, s.firstProgress
}

// takeEndpointStats returns the traced endpoints' datagram counts by kind
// and moves their flush samples into out (discarding them when out is
// nil, as at the start of the measured phase).
func (c *cluster) takeEndpointStats(out *outcome) [256]uint64 {
	var kinds [256]uint64
	for _, m := range c.members {
		e := m.ep
		for k := range kinds {
			kinds[k] += e.kinds[k].Load()
		}
		e.mu.Lock()
		if out != nil {
			out.flushUs = append(out.flushUs, e.flushUs...)
			out.perFlush = append(out.perFlush, e.perFlush...)
		}
		e.flushUs, e.perFlush = nil, nil
		e.mu.Unlock()
	}
	return kinds
}
