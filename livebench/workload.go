package main

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"syscall"
	"time"

	"scalamedia"
)

// workload is one fixed shape of load. Only the seed varies between runs.
type workload struct {
	name     string
	n        int // group size
	udp      bool
	ordering scalamedia.Ordering
	loss     float64 // per-link datagram loss on the in-process fabric
	payload  int     // message size in bytes
	senders  int     // sender goroutines, one per sending member
	rate     float64 // messages/s per sender; 0 = closed loop
	object   int     // bulk object size; nonzero selects the bulk workload
}

// opsPerCall is how many ops one Send or Publish call attempts: a message
// is delivered at every member, an object reconstructed at every other.
func (w *workload) opsPerCall() int {
	if w.object > 0 {
		return w.n - 1
	}
	return w.n
}

func (w *workload) transport() string {
	if w.udp {
		return "udp-loopback"
	}
	return "inproc-fabric"
}

// The workloads stress different layers; README.md gives the reasons in
// full.
var workloads = []*workload{
	// Closed-loop Send with no kernel and no ordering hold: the per-message
	// CPU path through the API handoff, the event loop, rmcast and codec.
	{name: "flood-inproc", n: 4, ordering: scalamedia.Causal, payload: 64, senders: 1},
	// The interactive conference: open-loop Total order over real UDP
	// sockets, covering syscall batching, the decode pool and the
	// sequencer's ordering hold.
	{name: "paced-total-udp", n: 8, udp: true, ordering: scalamedia.Total, payload: 256, senders: 2, rate: 3000},
	// 2% seeded loss on every link, so SRM recovery (suppression timers,
	// requests, repairs) does most of the rmcast work.
	{name: "lossy-inproc", n: 8, ordering: scalamedia.Causal, loss: 0.02, payload: 256, senders: 1, rate: 1000},
	// Media-on-demand pre-distribution through bulk and fec, which no
	// message workload touches.
	{name: "bulk-inproc", n: 8, object: 256 << 10},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// setupRounds is how many times one run forms a cluster; setup_s is their
// median and the last cluster carries the measured phase.
const setupRounds = 9

// drainTimeout bounds the wait for outstanding deliveries after the load
// stops; anything still missing then is a failed op.
const drainTimeout = 30 * time.Second

// outcome is everything one pass of a workload measured.
type outcome struct {
	setups []float64 // seconds, one per setup round

	attempts  int // Send or Publish calls
	sends     int // calls that returned nil
	ops       int // ops attempted: members per message, receivers per object
	delivered int // ops completed
	fails     failures

	sendPhase    time.Duration // load generation
	deliverPhase time.Duration // first send to last delivery
	lat          []uint32      // ns, due time to delivery, every member
	opMs         []float64     // Publish to each receiver's ObjectReceived
	objectMs     []float64     // Publish to the last receiver's ObjectReceived
	firstProgMs  []float64     // Publish to the first ObjectProgress

	cpu      time.Duration // process user+sys over the measured phase
	rssMB    float64       // process peak RSS at the end of the pass
	counters map[string]uint64
	viewsRun uint64 // views installed after setup, summed over nodes

	phase time.Duration // the whole measured phase, drain included

	// Traced pass only.
	histPeak     int64       // largest rmcast.history_len seen on any node
	stabilityLag float64     // median over nodes of rmcast.stability_lag p50
	kinds        [256]uint64 // datagrams sent by wire.Kind, summed over nodes
	flushUs      []float64   // duration of each non-empty Flush
	perFlush     []float64   // datagrams moved by each non-empty Flush
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// runPass forms the cluster setupRounds times, drives the workload on the
// last one for the given duration, drains and checks every output.
func runPass(w *workload, seed int64, dur time.Duration, tr *tracer) (*outcome, error) {
	rs := &runState{w: w, seed: seed, tr: tr, objects: newObjectTracker()}
	out := &outcome{}
	var c *cluster
	for r := 0; r < setupRounds; r++ {
		cl, d, err := startCluster(rs, int64(mix(uint64(seed)^uint64(r)<<56)))
		if err != nil {
			return nil, fmt.Errorf("setup round %d: %w", r+1, err)
		}
		out.setups = append(out.setups, d.Seconds())
		if r < setupRounds-1 {
			cl.close()
		} else {
			c = cl
		}
	}
	defer c.close()
	c.startLoss(w.loss)

	before := c.counters()
	var kinds0 [256]uint64
	var sampler *snapshotSampler
	if tr != nil {
		kinds0 = c.takeEndpointStats(nil)
		sampler = startSampler(c)
	}
	cpu0 := cpuTime()
	start := nowNs()
	if w.object > 0 {
		runBulk(c, rs, out, start, dur)
	} else {
		runMessages(c, rs, out, start, dur)
	}
	out.cpu = cpuTime() - cpu0
	out.phase = time.Duration(nowNs() - start)
	if sampler != nil {
		out.histPeak = sampler.stop()
		out.stabilityLag = stabilityLagP50(c)
		out.kinds = c.takeEndpointStats(out)
		for k := range out.kinds {
			out.kinds[k] -= kinds0[k]
		}
	}
	after := c.counters()
	out.counters = make(map[string]uint64, len(after))
	for k, v := range after {
		out.counters[k] = v - before[k]
	}
	out.viewsRun = out.counters["member.views_installed"]

	for _, m := range c.members {
		if m.evicted.Load() || m.node.View().Size() != w.n {
			out.fails.evictions++
		}
	}
	out.rssMB = peakRSSMB()
	return out, nil
}

// runMessages drives the message workloads: w.senders goroutines on
// distinct members, each closed-loop or paced at w.rate, then waits for
// every member to deliver every message and checks the streams.
func runMessages(c *cluster, rs *runState, out *outcome, start int64, dur time.Duration) {
	w := rs.w
	end := start + int64(dur)
	sent := make([]uint32, w.n)
	errs := make([]int, w.n)
	tries := make([]int, w.n)
	var wg sync.WaitGroup
	stopProbe := make(chan struct{})
	var probeWG sync.WaitGroup
	if rs.tr != nil && w.rate == 0 {
		// A closed-loop sender has no idle time; probe the loop from
		// the side instead.
		probeWG.Add(1)
		go func() {
			defer probeWG.Done()
			probeLoop(rs.tr, c.members[0], stopProbe)
		}()
	}
	for s := 0; s < w.senders; s++ {
		m := c.members[s*w.n/w.senders]
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent[m.slot], tries[m.slot], errs[m.slot] = sendLoop(m, rs, start, end)
		}()
	}
	wg.Wait()
	close(stopProbe)
	probeWG.Wait()
	out.sendPhase = time.Duration(nowNs() - start)

	total := 0
	for s := range sent {
		total += int(sent[s])
		out.attempts += tries[s]
		out.fails.sendErrors += errs[s]
	}
	out.sends = total
	out.ops = out.attempts * w.opsPerCall()
	want := int64(total * w.n)
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		var got int64
		for _, m := range c.members {
			got += m.delivered.Load()
		}
		if got >= want {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	var last int64
	hashes := make([]uint64, 0, w.n)
	for _, m := range c.members {
		m.mu.Lock()
		out.fails.add(m.chk.finish(sent))
		hashes = append(hashes, m.chk.hash)
		out.lat = append(out.lat, m.lat...)
		m.mu.Unlock()
		out.delivered += int(m.delivered.Load())
		last = max(last, m.lastNs.Load())
	}
	if w.ordering == scalamedia.Total {
		out.fails.totalOrder += totalMismatches(hashes)
	}
	out.deliverPhase = time.Duration(last - start)
}

// sendLoop is one sender: closed loop when w.rate is 0, otherwise an open
// loop whose k-th message is due at start + k/rate. It returns messages
// sent, calls made and calls failed.
func sendLoop(m *member, rs *runState, start, end int64) (sent uint32, tries, errs int) {
	w, tr := rs.w, rs.tr
	var interval int64
	if w.rate > 0 {
		interval = int64(1e9 / w.rate)
	}
	for k := int64(0); ; k++ {
		due := nowNs()
		if interval > 0 {
			due = start + k*interval
			waitUntil(due, tr, m)
			if tr != nil {
				tr.genLate.add(float64(nowNs()-due) / 1e6)
			}
		}
		if due >= end {
			return sent, tries, errs
		}
		p := makePayload(w.payload, rs.seed, m.slot, sent, due)
		var err error
		tries++
		if tr != nil {
			d := tr.timeCall(m.ep, "scalamedia.Node.Send", msgSpanID(m.slot, sent), msgID(m.slot, sent), true,
				tr.sampled(sent), func() { err = m.node.Send(p) })
			tr.send.add(float64(d) / 1e3)
		} else {
			err = m.node.Send(p)
		}
		if err != nil {
			errs++
			continue
		}
		sent++
	}
}

// minProbeGap is the idle time below which a paced sender skips its loop
// probe, so the probe never makes it late.
const minProbeGap = 200 * time.Microsecond

// waitUntil sleeps until the given due time. A traced paced sender first
// spends its idle time on one loop probe when the gap allows it.
func waitUntil(due int64, tr *tracer, m *member) {
	gap := time.Duration(due - nowNs())
	if tr != nil && gap > minProbeGap {
		probe(tr, m)
		gap = time.Duration(due - nowNs())
	}
	if gap > 0 {
		time.Sleep(gap)
	}
}

// probe times one no-op public call (Node.View): the round trip through
// the node's event loop queue.
func probe(tr *tracer, m *member) {
	d := tr.timeCall(m.ep, "scalamedia.Node.View", 0, 0, false, false, func() { m.node.View() })
	tr.probe.add(float64(d) / 1e3)
}

// probeInterval paces the loop probes of closed-loop workloads.
const probeInterval = time.Millisecond

func probeLoop(tr *tracer, m *member, stop <-chan struct{}) {
	t := time.NewTicker(probeInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			probe(tr, m)
		}
	}
}

// objectWait bounds one bulk object's dissemination.
const objectWait = 30 * time.Second

// runBulk drives the bulk workload: member 1 publishes one object, waits
// until every other member has raised ObjectReceived and every member's
// Fetch returns the published bytes, then publishes the next.
func runBulk(c *cluster, rs *runState, out *outcome, start int64, dur time.Duration) {
	w, tr := rs.w, rs.tr
	pub := c.members[0]
	end := start + int64(dur)
	receivers := w.opsPerCall()
	var last int64
	for obj := uint64(1); nowNs() < end; obj++ {
		data := make([]byte, w.object)
		fill(data, objectKey(rs.seed, obj))
		out.attempts++
		out.ops += receivers
		pubStart := nowNs()
		var err error
		if tr != nil {
			d := tr.timeCall(pub.ep, "scalamedia.Node.Publish", msgSpanID(pub.slot, uint32(obj)), msgID(pub.slot, uint32(obj)),
				true, true, func() { err = pub.node.Publish(obj, data) })
			tr.send.add(float64(d) / 1e3)
		} else {
			err = pub.node.Publish(obj, data)
		}
		if err != nil {
			out.fails.sendErrors++
			continue
		}
		out.sends++

		times, firstProg := waitObject(rs, pub, obj, receivers)
		out.delivered += len(times)
		var lastNs int64
		for _, at := range times {
			out.opMs = append(out.opMs, float64(at-pubStart)/1e6)
			lastNs = max(lastNs, at)
		}
		if len(times) < receivers {
			out.fails.missing += receivers - len(times)
			last = nowNs()
			break
		}
		out.objectMs = append(out.objectMs, float64(lastNs-pubStart)/1e6)
		if firstProg > 0 {
			out.firstProgMs = append(out.firstProgMs, float64(firstProg-pubStart)/1e6)
		}
		last = lastNs
		for _, m := range c.members {
			var (
				b  []byte
				ok bool
			)
			if tr != nil {
				tr.timeCall(m.ep, "scalamedia.Node.Fetch", 0, msgID(pub.slot, uint32(obj)), true, true,
					func() { b, ok = m.node.Fetch(obj) })
			} else {
				b, ok = m.node.Fetch(obj)
			}
			switch {
			case !ok:
				out.fails.missing++
			case !bytes.Equal(b, data):
				out.fails.corrupt++
			}
		}
	}
	out.sendPhase = time.Duration(nowNs() - start)
	out.deliverPhase = time.Duration(last - start)
}

// waitObject blocks until obj reached the wanted receiver count or
// objectWait passed. A traced publisher probes its loop while it waits.
func waitObject(rs *runState, pub *member, obj uint64, want int) (times []int64, firstProg int64) {
	deadline := time.NewTimer(objectWait)
	defer deadline.Stop()
	var tick <-chan time.Time
	if rs.tr != nil {
		t := time.NewTicker(probeInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		times, firstProg = rs.objects.snapshot(obj)
		if len(times) >= want {
			return times, firstProg
		}
		select {
		case <-rs.objects.changed:
		case <-tick:
			probe(rs.tr, pub)
		case <-deadline.C:
			return times, firstProg
		}
	}
}

// snapshotSampler polls every node's metrics snapshot during a traced
// pass and keeps the largest rmcast history length it sees.
type snapshotSampler struct {
	stopC chan struct{}
	done  chan int64
}

const sampleEvery = 50 * time.Millisecond

func startSampler(c *cluster) *snapshotSampler {
	s := &snapshotSampler{stopC: make(chan struct{}), done: make(chan int64)}
	go func() {
		var peak int64
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			for _, m := range c.members {
				peak = max(peak, m.node.Snapshot().Gauges["rmcast.history_len"])
			}
			select {
			case <-s.stopC:
				s.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *snapshotSampler) stop() int64 {
	close(s.stopC)
	return <-s.done
}

// stabilityLagP50 is the median over nodes of each node's
// rmcast.stability_lag histogram median.
func stabilityLagP50(c *cluster) float64 {
	var v []float64
	for _, m := range c.members {
		if h, ok := m.node.Snapshot().Histograms["rmcast.stability_lag"]; ok && h.Count > 0 {
			v = append(v, h.P50)
		}
	}
	slices.Sort(v)
	return quantile(v, 0.5)
}
