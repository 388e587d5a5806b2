package scalamedia

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"scalamedia/internal/transport"
)

// TestSnapshotCoversLayers checks Node.Snapshot returns live counters
// from every instrumented layer after real group traffic: transport
// datagrams, rmcast sends and deliveries, membership view installs, the
// session message counter and the wire pool figures.
func TestSnapshotCoversLayers(t *testing.T) {
	a, b, _, logB := startFabricPair(t)
	waitFor(t, "view of size 2", func() bool {
		return a.View().Size() == 2 && b.View().Size() == 2
	})
	if err := a.Send([]byte("measured")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "message at b", func() bool { return logB.count(MessageReceived) > 0 })

	snap := a.Snapshot()
	for _, name := range []string{
		"transport.datagrams_sent",
		"transport.datagrams_recv",
		"rmcast.sent",
		"rmcast.delivered",
		"member.views_installed",
		"session.messages_recv",
		"wire.pool.buf_gets",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %q is zero or missing; counters: %v", name, snap.Counters)
		}
	}
	if _, ok := snap.Gauges["rmcast.history_len"]; !ok {
		t.Error("gauge rmcast.history_len missing")
	}
	if len(a.Timeline()) == 0 {
		t.Error("flight recorder empty after group traffic")
	}
}

// TestOverloadMetricsSurface checks the overload-robustness telemetry is
// reachable through Node.Snapshot: the flow-control counters move when a
// send hits backpressure, and every slow-member and degradation metric is
// registered so dashboards can rely on the names before the first
// increment.
func TestOverloadMetricsSurface(t *testing.T) {
	fab := transport.NewFabric(transport.WithSeed(7))
	t.Cleanup(fab.Close)
	epA, err := fab.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := fab.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Start(Config{
		Self: 1, Endpoint: epA, Group: 1,
		Tick:           5 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
		SuspectAfter:   400 * time.Millisecond,
		FlowWindow:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := Start(Config{
		Self: 2, Endpoint: epB, Group: 1, Contact: 1,
		Tick:           5 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
		SuspectAfter:   400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	waitFor(t, "view of size 2", func() bool {
		return a.View().Size() == 2 && b.View().Size() == 2
	})

	// A one-message window cannot hold two un-stabilized sends, so a
	// burst of TrySend must hit ErrBackpressure (stability needs a
	// gossip round trip the burst outruns).
	waitFor(t, "a TrySend rejection", func() bool {
		for i := 0; i < 8; i++ {
			if errors.Is(a.TrySend([]byte("burst")), ErrBackpressure) {
				return true
			}
		}
		return false
	})

	snap := a.Snapshot()
	if snap.Counters["rmcast.flow_rejected"] == 0 {
		t.Error("rmcast.flow_rejected did not move after a backpressure rejection")
	}
	for _, name := range []string{"member.slow_flagged", "member.slow_evicted", "media.frames_shed"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q not registered; counters: %v", name, snap.Counters)
		}
	}
	if _, ok := snap.Gauges["rmcast.flow_occupancy"]; !ok {
		t.Error("gauge rmcast.flow_occupancy not registered")
	}
	if _, ok := snap.Histograms["rmcast.flow_blocked_ms"]; !ok {
		t.Error("histogram rmcast.flow_blocked_ms not registered")
	}

	// The per-receiver queue-drop counter registers when a bounded
	// receiver opens.
	if _, err := a.OpenReceiver(ReceiverConfig{
		Spec: StreamSpec{ID: 4, Name: "spk"}, MaxBuffered: 8,
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Snapshot().Counters["media.queue_dropped"]; !ok {
		t.Error("counter media.queue_dropped not registered after OpenReceiver")
	}
}

// TestBulkMetricsSurface checks the bulk engine's counters reach
// Node.Snapshot. Three members: node 1 publishes, nodes 2 and 3 relay
// alternate symbols, and the link 2→3 drops everything, so node 3 must
// pull what node 2's fan would have brought it. The scatter leaves ahead
// of the manifest, so the relays also hold early symbols.
func TestBulkMetricsSurface(t *testing.T) {
	fab := transport.NewFabric(transport.WithSeed(9))
	t.Cleanup(fab.Close)
	nodes := make([]*Node, 3)
	logs := make([]*eventLog, 3)
	for i := range nodes {
		self := NodeID(i + 1)
		ep, err := fab.Attach(self)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Self: self, Endpoint: ep, Group: 1,
			Tick:           5 * time.Millisecond,
			HeartbeatEvery: 50 * time.Millisecond,
			// Long enough that the cut 2→3 link cannot evict node 2
			// before the pull finishes.
			SuspectAfter: 10 * time.Second,
		}
		if i > 0 {
			cfg.Contact = 1
		}
		logs[i] = &eventLog{}
		cfg.OnEvent = logs[i].add
		n, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i] = n
	}
	waitFor(t, "view of size 3", func() bool {
		for _, n := range nodes {
			if n.View().Size() != 3 {
				return false
			}
		}
		return true
	})
	fab.SetLink(2, 3, transport.LinkConfig{Loss: 1})
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := nodes[0].Publish(5, data); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "object at nodes 2 and 3", func() bool {
		return logs[1].count(ObjectReceived) == 1 && logs[2].count(ObjectReceived) == 1
	})

	origin, relay, puller := nodes[0].Snapshot(), nodes[1].Snapshot(), nodes[2].Snapshot()
	for _, c := range []struct {
		snap MetricsSnapshot
		name string
	}{
		{relay, "bulk.symbols_early"},
		{puller, "bulk.symbols_early"},
		{puller, "bulk.requests_sent"},
		{origin, "bulk.requests_served"},
		{relay, "bulk.decodes"},
		{puller, "bulk.decodes"},
		{relay, "bulk.objects_completed"},
		{puller, "bulk.objects_completed"},
	} {
		if c.snap.Counters[c.name] == 0 {
			t.Errorf("counter %q is zero or missing; counters: %v", c.name, c.snap.Counters)
		}
	}
	if _, ok := origin.Counters["bulk.early_dropped"]; !ok {
		t.Error("counter bulk.early_dropped not registered")
	}
	// Generations rebuilt from repair symbols are a subset of the
	// completed ones.
	for i, snap := range []MetricsSnapshot{origin, relay, puller} {
		p, ok := snap.Counters["bulk.parity_decodes"]
		if !ok {
			t.Errorf("node %d: counter bulk.parity_decodes not registered", i+1)
		} else if d := snap.Counters["bulk.decodes"]; p > d {
			t.Errorf("node %d: bulk.parity_decodes = %d exceeds bulk.decodes = %d", i+1, p, d)
		}
	}
}

// TestMetricsEndpoint is the HTTP smoke test scripts/check.sh runs: boot
// a node with MetricsAddr, GET /metrics, and check the JSON decodes into
// a snapshot carrying live counters. /timeline and /debug/vars must also
// respond.
func TestMetricsEndpoint(t *testing.T) {
	a, b, _, _ := startFabricPair(t)
	waitFor(t, "view of size 2", func() bool {
		return a.View().Size() == 2 && b.View().Size() == 2
	})
	addr, err := a.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if got := a.MetricsAddr(); got != addr {
		t.Fatalf("MetricsAddr() = %q, want %q", got, addr)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) []byte {
		t.Helper()
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return body
	}

	var snap MetricsSnapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics is not snapshot JSON: %v", err)
	}
	if snap.Counters["transport.datagrams_sent"] == 0 {
		t.Error("/metrics shows no datagrams sent")
	}

	var events []FlightEvent
	if err := json.Unmarshal(get("/timeline"), &events); err != nil {
		t.Fatalf("/timeline is not event JSON: %v", err)
	}
	if len(events) == 0 {
		t.Error("/timeline is empty after view formation")
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["scalamedia"]; !ok {
		t.Error(`/debug/vars missing the "scalamedia" per-node map`)
	}

	// The endpoint dies with the node.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("metrics endpoint still serving after Close")
	}
}

// TestMetricsAddrInConfig checks the Start-time opt-in path and that a
// bad address fails Start cleanly.
func TestMetricsAddrInConfig(t *testing.T) {
	n, err := Start(Config{Self: 9, ListenAddr: "127.0.0.1:0", Group: 3,
		MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.MetricsAddr() == "" {
		t.Fatal("Config.MetricsAddr did not start the endpoint")
	}
	if _, err := Start(Config{Self: 10, ListenAddr: "127.0.0.1:0", Group: 3,
		MetricsAddr: "256.0.0.1:bad"}); err == nil {
		t.Fatal("bad MetricsAddr accepted")
	}
}
