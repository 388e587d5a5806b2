package session

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"scalamedia/internal/bulk"
	"scalamedia/internal/id"
	"scalamedia/internal/media"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/stats"
	"scalamedia/internal/wire"
)

// TestSessionBulkPublish pushes a bulk object through the full session
// stack: manifest on the ordered channel, coded symbols scattered and
// relayed, ObjectProgress along the way and ObjectReceived with the
// bytes at the end.
func TestSessionBulkPublish(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 81})
	nodes := map[id.Node]*sessNode{1: addSession(s, 1, id.None)}
	for n := id.Node(2); n <= 4; n++ {
		nodes[n] = addSession(s, n, 1)
	}
	data := make([]byte, 40_000)
	rand.New(rand.NewSource(81)).Read(data)
	s.At(3*time.Second, func() {
		if err := nodes[1].eng.Publish(42, data); err != nil {
			t.Errorf("Publish: %v", err)
		}
	})
	s.Run(8 * time.Second)

	for n, sn := range nodes {
		got, ok := sn.eng.Fetch(42)
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("n%d Fetch(42): ok=%t len=%d", n, ok, len(got))
		}
		if n == 1 {
			continue // the publisher holds the object without events
		}
		recv := sn.eventsOf(ObjectReceived)
		if len(recv) != 1 || recv[0].Object != 42 || recv[0].Node != 1 ||
			!bytes.Equal(recv[0].Payload, data) {
			t.Fatalf("n%d ObjectReceived = %+v", n, recv)
		}
		prog := sn.eventsOf(ObjectProgress)
		if len(prog) == 0 {
			t.Fatalf("n%d saw no ObjectProgress events", n)
		}
		last := prog[len(prog)-1]
		if last.Done != last.Total || last.Total != 3 { // 40KB / (16·1024) → 3 generations
			t.Fatalf("n%d final progress = %d/%d", n, last.Done, last.Total)
		}
	}
}

// TestSessionBulkScatterBeatsManifest pins the live shape of a publish:
// the scatter leaves before the manifest's reliable multicast, so every
// relay sees its symbols ahead of the manifest. Those symbols must be
// kept and re-fanned once the manifest lands, so on a lossless network
// every member completes from the scatter alone — no symbol request at
// all, and well inside the first repair round.
func TestSessionBulkScatterBeatsManifest(t *testing.T) {
	const n = 8
	s := netsim.New(netsim.Config{Seed: 85, Profile: netsim.LANProfile(time.Millisecond, 500*time.Microsecond, 0)})
	nodes := make(map[id.Node]*sessNode)
	regs := make(map[id.Node]*stats.Registry)
	for i := id.Node(1); i <= n; i++ {
		contact := id.Node(1)
		if i == 1 {
			contact = id.None
		}
		sn, reg := &sessNode{}, stats.NewRegistry()
		nodes[i], regs[i] = sn, reg
		s.AddNode(i, func(env proto.Env) proto.Handler {
			sn.eng = New(env, Config{
				Group:          1,
				Contact:        contact,
				HeartbeatEvery: 40 * time.Millisecond,
				SuspectAfter:   200 * time.Millisecond,
				FlushTimeout:   300 * time.Millisecond,
				Metrics:        reg,
				OnEvent:        func(ev Event) { sn.events = append(sn.events, ev) },
			})
			return sn.eng
		})
	}
	data := make([]byte, 100_000)
	rand.New(rand.NewSource(85)).Read(data)
	const publishAt = 3 * time.Second
	s.At(publishAt, func() {
		if nodes[1].eng.View().Size() != n {
			t.Errorf("view before publish = %+v", nodes[1].eng.View())
		}
		if err := nodes[1].eng.Publish(42, data); err != nil {
			t.Errorf("Publish: %v", err)
		}
	})
	s.Run(publishAt + bulk.DefaultRequestEvery - time.Millisecond)

	early := uint64(0)
	for i, sn := range nodes {
		got, ok := sn.eng.Fetch(42)
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("n%d Fetch(42) within one request interval: ok=%t len=%d", i, ok, len(got))
		}
		early += regs[i].Snapshot().Counters["bulk.symbols_early"]
	}
	if early == 0 {
		t.Fatal("no symbol arrived ahead of the manifest: the race this test pins never happened")
	}
	s.Run(publishAt + time.Second)
	if reqs := s.Stats().SentByKind[wire.KindBulkReq]; reqs != 0 {
		t.Fatalf("%d symbol requests on a lossless publish, want 0", reqs)
	}
}

// TestSessionBulkPublishAutoHier publishes through the self-organizing
// overlay: the relayed fan must follow the formed tree (own cluster plus
// remote coordinators) and still complete everywhere.
func TestSessionBulkPublishAutoHier(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 82})
	nodes := map[id.Node]*sessNode{1: addAutoSession(s, 1, id.None)}
	for n := id.Node(2); n <= 6; n++ {
		nodes[n] = addAutoSession(s, n, 1)
	}
	data := make([]byte, 30_000)
	rand.New(rand.NewSource(82)).Read(data)
	s.At(5*time.Second, func() {
		if err := nodes[2].eng.Publish(7, data); err != nil {
			t.Errorf("Publish: %v", err)
		}
	})
	s.Run(12 * time.Second)

	for n, sn := range nodes {
		got, ok := sn.eng.Fetch(7)
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("n%d Fetch(7): ok=%t len=%d", n, ok, len(got))
		}
	}
}

// TestStateTransferOffMemberChannel pins the join-time state-transfer
// cost: a large directory must reach a late joiner as a bulk object, so
// the member-channel JoinAck carries only the fixed-size manifest and no
// longer scales with session history.
func TestStateTransferOffMemberChannel(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 83})
	a := addSession(s, 1, id.None)
	s.At(2*time.Second, func() {
		// ~8KB of directory: far past the inline threshold.
		for i := 0; i < 60; i++ {
			name := fmt.Sprintf("stream-%03d-%s", i, strings.Repeat("x", 80))
			if err := a.eng.Announce(media.TelephoneAudio(id.Stream(i+1), name), 8000); err != nil {
				t.Errorf("announce %d: %v", i, err)
			}
		}
	})
	c := &sessNode{}
	gate := &gatedHandler{}
	s.AddNode(2, func(env proto.Env) proto.Handler {
		c.eng = New(env, Config{
			Group: 1, Contact: 1,
			HeartbeatEvery: 40 * time.Millisecond,
			SuspectAfter:   200 * time.Millisecond,
			FlushTimeout:   300 * time.Millisecond,
			OnEvent:        func(ev Event) { c.events = append(c.events, ev) },
		})
		gate.inner = c.eng
		return gate
	})
	s.At(4*time.Second, func() { gate.open = true })
	s.Run(10 * time.Second)

	if c.eng.View().Size() != 2 {
		t.Fatalf("late joiner view = %+v", c.eng.View())
	}
	if got := len(c.eng.Directory()); got != 60 {
		t.Fatalf("late joiner directory = %d entries, want 60", got)
	}
	// The pinned bound: the snapshot frame handed to the membership layer
	// is a tagged manifest two orders of magnitude smaller than the
	// directory it describes ...
	inline := a.eng.snapshotDirectory()
	framed := a.eng.snapshotState()
	if framed[0] != stateTagManifest {
		t.Fatalf("snapshot frame tag = %d, want manifest", framed[0])
	}
	if len(framed) > 256 || len(inline) < 4096 {
		t.Fatalf("snapshot frame %dB for %dB directory: not constant-size", len(framed), len(inline))
	}
	// ... and the JoinAck traffic that actually crossed the member channel
	// stays under one inline snapshot, retries included.
	ack := s.Stats().BytesByKind[wire.KindJoinAck]
	if ack >= uint64(len(inline)) {
		t.Fatalf("JoinAck bytes = %d, want < inline directory %d", ack, len(inline))
	}
}

// TestStateTransferInlineSmall keeps the cheap path cheap: a small
// directory still rides inline in the JoinAck, no bulk object minted.
func TestStateTransferInlineSmall(t *testing.T) {
	s := netsim.New(netsim.Config{Seed: 84})
	a := addSession(s, 1, id.None)
	b := addSession(s, 2, 1)
	s.At(2*time.Second, func() {
		a.eng.Announce(media.TelephoneAudio(3, "small-mic"), 8000)
	})
	s.Run(4 * time.Second)
	framed := a.eng.snapshotState()
	if framed[0] != stateTagInline {
		t.Fatalf("small snapshot tag = %d, want inline", framed[0])
	}
	_ = b
}
