package bulk

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"scalamedia/internal/id"
	"scalamedia/internal/netsim"
	"scalamedia/internal/proto"
	"scalamedia/internal/wire"
)

func TestManifestRoundTrip(t *testing.T) {
	m := Manifest{
		Object:     0xdeadbeef,
		Size:       3*16*1024 - 100,
		Origin:     7,
		SymbolSize: 1024,
		K:          16,
		R:          4,
		GenHashes:  []uint64{1, 2, 3},
	}
	got, err := DecodeManifest(AppendManifest(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Object != m.Object || got.Size != m.Size || got.Origin != m.Origin ||
		got.SymbolSize != m.SymbolSize || got.K != m.K || got.R != m.R ||
		len(got.GenHashes) != 3 || got.GenHashes[2] != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestManifestRejectsMalformed(t *testing.T) {
	good := Manifest{Object: 1, Size: 100, Origin: 2, SymbolSize: 64, K: 4, R: 2, GenHashes: []uint64{9}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Manifest{
		{Object: 1, Size: 100, SymbolSize: 64, K: 0, R: 2, GenHashes: []uint64{9}},
		{Object: 1, Size: 100, SymbolSize: 0, K: 4, R: 2, GenHashes: []uint64{9}},
		{Object: 1, Size: 100, SymbolSize: 64, K: 4, R: 2},                          // no generations
		{Object: 1, Size: 9999, SymbolSize: 64, K: 4, R: 2, GenHashes: []uint64{9}}, // size overflows layout
		{Object: 1, Size: 100, SymbolSize: 64, K: 200, R: 100, GenHashes: []uint64{9}},
	}
	for i, m := range cases {
		if err := m.Validate(); !errors.Is(err, ErrBadManifest) {
			t.Fatalf("case %d: err = %v, want ErrBadManifest", i, err)
		}
		if _, err := DecodeManifest(AppendManifest(nil, m)); !errors.Is(err, ErrBadManifest) {
			t.Fatalf("case %d: decode err = %v, want ErrBadManifest", i, err)
		}
	}
	if _, err := DecodeManifest([]byte{1, 2, 3}); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("short decode err = %v", err)
	}
}

// fleet drives N bulk engines over netsim, each knowing the full
// membership — the shape core gives the engine after a view install.
type fleet struct {
	sim     *netsim.Sim
	nodes   []id.Node
	engines map[id.Node]*Engine
	objects map[id.Node][]Object
}

func newFleet(t *testing.T, n int, seed int64, profile netsim.Profile, cfg Config) *fleet {
	t.Helper()
	f := &fleet{
		sim:     netsim.New(netsim.Config{Seed: seed, Profile: profile}),
		engines: make(map[id.Node]*Engine),
		objects: make(map[id.Node][]Object),
	}
	for i := 1; i <= n; i++ {
		f.nodes = append(f.nodes, id.Node(i))
	}
	for _, node := range f.nodes {
		node := node
		c := cfg
		c.OnObject = func(o Object) { f.objects[node] = append(f.objects[node], o) }
		f.sim.AddNode(node, func(env proto.Env) proto.Handler {
			e := New(env, c)
			f.engines[node] = e
			return e
		})
	}
	for _, e := range f.engines {
		e.SetMembers(f.nodes)
	}
	return f
}

// publish has the origin publish at t=10ms and hands the manifest to
// every other engine, as the reliable control channel would.
func (f *fleet) publish(t *testing.T, origin id.Node, objID uint64, data []byte, scatter bool) {
	t.Helper()
	f.sim.At(10*time.Millisecond, func() {
		man, err := f.engines[origin].Publish(objID, data, scatter)
		if err != nil {
			t.Errorf("publish: %v", err)
			return
		}
		for _, node := range f.nodes {
			if node != origin {
				f.engines[node].OnManifest(man)
			}
		}
	})
}

func (f *fleet) assertAllComplete(t *testing.T, objID uint64, want []byte, skip map[id.Node]bool) {
	t.Helper()
	for _, node := range f.nodes {
		if skip[node] {
			continue
		}
		got, ok := f.engines[node].Object(objID)
		if !ok {
			done, total, _ := f.engines[node].Progress(objID)
			t.Fatalf("node %s incomplete: %d/%d generations", node, done, total)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("node %s object mismatch: %d bytes", node, len(got))
		}
	}
}

func testObject(size int, seed int64) []byte {
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestScatterDisseminates(t *testing.T) {
	const n = 16
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 8, RepairShards: 2}
	f := newFleet(t, n, 1, netsim.LANProfile(time.Millisecond, 0, 0), cfg)
	data := testObject(20_000, 42)
	f.publish(t, 1, 7, data, true)
	f.sim.Run(3 * time.Second)
	f.assertAllComplete(t, 7, data, nil)

	// Nothing is lost, so every generation completes from its data
	// symbols and no receiver runs a Reed-Solomon decode.
	for node, e := range f.engines {
		if got := e.m.parityDecodes.Value(); got != 0 {
			t.Errorf("node %s: parity_decodes = %d on a lossless run, want 0", node, got)
		}
	}

	// The scatter must actually spread transmission: with 16 members the
	// origin sends each symbol once, so its bytes stay well under the
	// flat-multicast sender cost of F·(n-1).
	stats := f.sim.Stats()
	origin := stats.SentBytesByNode[id.Node(1)]
	flat := uint64(len(data)) * (n - 1)
	if origin > flat/4 {
		t.Fatalf("origin transmitted %d bytes, want well under flat %d", origin, flat)
	}
}

// TestPullWithoutScatter exercises the state-transfer shape: the object
// is registered at the origin only, and receivers pull every symbol via
// requests.
func TestPullWithoutScatter(t *testing.T) {
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 8, RepairShards: 2}
	f := newFleet(t, 4, 2, netsim.LANProfile(time.Millisecond, 0, 0), cfg)
	data := testObject(10_000, 43)
	f.publish(t, 2, 9, data, false)
	f.sim.Run(5 * time.Second)
	f.assertAllComplete(t, 9, data, nil)
}

func TestLossRecovered(t *testing.T) {
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 8, RepairShards: 2}
	f := newFleet(t, 12, 3, netsim.LANProfile(time.Millisecond, 200*time.Microsecond, 0.05), cfg)
	data := testObject(30_000, 44)
	f.publish(t, 3, 11, data, true)
	f.sim.Run(10 * time.Second)
	f.assertAllComplete(t, 11, data, nil)
}

func TestPublishValidation(t *testing.T) {
	f := newFleet(t, 2, 4, nil, Config{Group: 1})
	e := f.engines[1]
	if _, err := e.Publish(1, nil, false); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("empty publish err = %v", err)
	}
	data := []byte("state snapshot")
	man, err := e.Publish(1, data, false)
	if err != nil {
		t.Fatal(err)
	}
	// Republishing identical bytes is idempotent (state re-offered to a
	// later joiner); different bytes under the same ID is refused.
	if again, err := e.Publish(1, data, false); err != nil || again.Object != man.Object {
		t.Fatalf("idempotent republish: %v", err)
	}
	if _, err := e.Publish(1, []byte("different"), false); !errors.Is(err, ErrDuplicateObject) {
		t.Fatalf("conflicting republish err = %v", err)
	}
}

func TestProgressEvents(t *testing.T) {
	var progress []Progress
	cfg := Config{Group: 1, SymbolSize: 128, DataShards: 4, RepairShards: 2}
	f := newFleet(t, 3, 5, nil, cfg)
	f.engines[2] = nil // rebuild node 2 with a progress hook
	c := cfg
	c.OnProgress = func(p Progress) { progress = append(progress, p) }
	f.sim.Replace(2, func(env proto.Env) proto.Handler {
		e := New(env, c)
		f.engines[2] = e
		e.SetMembers(f.nodes)
		return e
	})
	data := testObject(3*4*128, 45) // exactly 3 generations
	f.publish(t, 1, 5, data, true)
	f.sim.Run(3 * time.Second)
	if got, ok := f.engines[2].Object(5); !ok || !bytes.Equal(got, data) {
		t.Fatal("node 2 incomplete")
	}
	if len(progress) != 3 {
		t.Fatalf("progress events = %d, want 3", len(progress))
	}
	last := progress[len(progress)-1]
	if last.Done != 3 || last.Total != 3 || last.ID != 5 || last.Origin != 1 {
		t.Fatalf("final progress = %+v", last)
	}
}

func TestEvictionBoundsObjects(t *testing.T) {
	f := newFleet(t, 1, 6, nil, Config{Group: 1, MaxObjects: 3, SymbolSize: 64, DataShards: 2, RepairShards: 1})
	e := f.engines[1]
	for i := uint64(1); i <= 5; i++ {
		if _, err := e.Publish(i, testObject(200, int64(i)), false); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.objects) != 3 {
		t.Fatalf("retained %d objects, cap 3", len(e.objects))
	}
	if _, ok := e.Object(1); ok {
		t.Fatal("oldest object not evicted")
	}
	if _, ok := e.Object(5); !ok {
		t.Fatal("newest object evicted")
	}
}

// stubEnv is a minimal proto.Env for unit-testing target selection
// without a simulator.
type stubEnv struct{ self id.Node }

func (s stubEnv) Self() id.Node               { return s.self }
func (s stubEnv) Now() time.Time              { return time.Time{} }
func (s stubEnv) Send(id.Node, *wire.Message) {}

func TestNearestFirstPullTargets(t *testing.T) {
	// Distances: node 2 nearest, then 3, then 4; nodes 5..8 unknown (0).
	dist := map[id.Node]time.Duration{
		2: 2 * time.Millisecond,
		3: 5 * time.Millisecond,
		4: 9 * time.Millisecond,
	}
	e := New(stubEnv{self: 1}, Config{
		Group:    1,
		Distance: func(n id.Node) time.Duration { return dist[n] },
	})
	e.SetMembers([]id.Node{1, 2, 3, 4, 5, 6, 7, 8})
	e.refreshNear()
	if len(e.near) != 3 || e.near[0] != 2 || e.near[1] != 3 || e.near[2] != 4 {
		t.Fatalf("near = %v, want [2 3 4]", e.near)
	}

	// The rotation phase (t%3 == 2) must draw from the near set, not the
	// whole membership: over many rounds every non-relay, non-origin pick
	// is one of the measured-near peers.
	o := &object{man: Manifest{Object: 1, Origin: 9}, round: 1}
	nearSet := map[id.Node]bool{2: true, 3: true, 4: true}
	sawNear := false
	for round := uint64(1); round <= 24; round++ {
		o.round = round
		c := e.requestTarget(o, 0, 0, 1)
		if c == id.None || c == 1 {
			t.Fatalf("round %d: target %s", round, c)
		}
		if c != o.man.Origin && nearSet[c] {
			sawNear = true
		}
		if c != o.man.Origin && !nearSet[c] {
			t.Fatalf("round %d: target %s is neither origin nor a near peer", round, c)
		}
	}
	if !sawNear {
		t.Fatal("rotation never picked a near peer")
	}

	// No distance knowledge: the near set is empty and the classic
	// full-membership rotation still reaches members beyond the origin.
	e2 := New(stubEnv{self: 1}, Config{Group: 1})
	e2.SetMembers([]id.Node{1, 2, 3, 4, 5, 6, 7, 8})
	e2.refreshNear()
	if len(e2.near) != 0 {
		t.Fatalf("near without Distance = %v, want empty", e2.near)
	}
	picked := map[id.Node]bool{}
	for round := uint64(1); round <= 24; round++ {
		o.round = round
		picked[e2.requestTarget(o, 0, 0, 1)] = true
	}
	if len(picked) < 3 {
		t.Fatalf("fallback rotation visited only %v", picked)
	}
}

// recEnv is a proto.Env that records the symbols an engine sends, with
// a settable clock, for driving one engine by hand.
type recEnv struct {
	self id.Node
	now  time.Time
	sent []wire.Message // Kind, Flags, Aux and a copy of Body
}

func (r *recEnv) Self() id.Node  { return r.self }
func (r *recEnv) Now() time.Time { return r.now }
func (r *recEnv) Send(_ id.Node, msg *wire.Message) {
	r.sent = append(r.sent, wire.Message{
		Kind: msg.Kind, Flags: msg.Flags, Aux: msg.Aux, Body: append([]byte(nil), msg.Body...),
	})
}

// relayRig is one relay engine (node 2) in an 8-member group plus the
// coded symbols of an object published by node 1, so tests can hand
// the relay any symbol in any order.
type relayRig struct {
	env    *recEnv
	relay  *Engine
	man    Manifest
	shards [][][]byte // [generation][symbol]
}

func newRelayRig(t *testing.T) *relayRig {
	t.Helper()
	cfg := Config{Group: 1, SymbolSize: 64, DataShards: 4, RepairShards: 2}
	members := []id.Node{1, 2, 3, 4, 5, 6, 7, 8}
	origin := New(&recEnv{self: 1}, cfg)
	origin.SetMembers(members)
	man, err := origin.Publish(7, rigData(), false)
	if err != nil {
		t.Fatal(err)
	}
	r := &relayRig{env: &recEnv{self: 2}, man: man}
	for _, g := range origin.objects[7].gens {
		r.shards = append(r.shards, g.shards)
	}
	r.relay = New(r.env, cfg)
	r.relay.SetMembers(members)
	return r
}

// rigData is the two-generation object newRelayRig publishes.
func rigData() []byte { return testObject(2*4*64, 46) }

// sym builds symbol (gen, idx) of the rig's object as sent by from.
func (r *relayRig) sym(gen, idx int, flags uint8, sender id.Node) *wire.Message {
	return &wire.Message{
		Kind: wire.KindBulkSym, Flags: flags, Group: 1, Sender: sender,
		Seq: r.man.Object, Aux: uint64(gen)<<32 | uint64(idx), Body: r.shards[gen][idx],
	}
}

// fans counts the relay's sends of symbol (gen, idx).
func (r *relayRig) fans(gen, idx int) int {
	n := 0
	for _, m := range r.env.sent {
		if m.Kind == wire.KindBulkSym && m.Aux == uint64(gen)<<32|uint64(idx) {
			n++
		}
	}
	return n
}

// TestRelayFansAfterDecode checks a relay still re-fans its flagged
// symbol when its own copy of the generation decoded first: the other
// six receivers (everyone but the origin and the relay) still need it.
// A repeat of the same flagged symbol is not fanned again.
func TestRelayFansAfterDecode(t *testing.T) {
	r := newRelayRig(t)
	r.relay.OnManifest(r.man)
	for i := 0; i < r.man.K; i++ {
		r.relay.OnMessage(3, r.sym(0, i, 0, 1))
	}
	if done, _, _ := r.relay.Progress(7); done != 1 {
		t.Fatalf("generation 0 not decoded: %d done", done)
	}
	r.relay.OnMessage(1, r.sym(0, 4, wire.FlagBulkFan, 1))
	if got := r.fans(0, 4); got != 6 {
		t.Fatalf("relay sent %d fan datagrams after decoding, want 6", got)
	}
	r.relay.OnMessage(1, r.sym(0, 4, wire.FlagBulkFan, 1))
	if got := r.fans(0, 4); got != 6 {
		t.Fatalf("repeated flagged symbol fanned again: %d datagrams", got)
	}

	// A forged data symbol naming the origin, arriving after decode, is
	// fanned from the verified decoded copy, never from its own payload.
	forged := r.sym(0, 1, wire.FlagBulkFan, 1)
	forged.Body = make([]byte, len(forged.Body))
	r.relay.OnMessage(1, forged)
	if got := r.fans(0, 1); got != 6 {
		t.Fatalf("relay sent %d fan datagrams for data symbol 1, want 6", got)
	}
	for _, m := range r.env.sent {
		if m.Aux == 1 && !bytes.Equal(m.Body, r.shards[0][1]) {
			t.Fatal("relay fanned the forged payload instead of its decoded symbol")
		}
	}
}

// TestEarlySymbolsReplayed checks a flagged symbol that beats the
// manifest is held without fanning, then replayed on OnManifest with
// its sender neighbour intact, so the relay's fan is still group-wide.
func TestEarlySymbolsReplayed(t *testing.T) {
	r := newRelayRig(t)
	r.relay.OnMessage(1, r.sym(1, 2, wire.FlagBulkFan, 1))
	if len(r.env.sent) != 0 {
		t.Fatalf("relay fanned %d datagrams before the manifest", len(r.env.sent))
	}
	if got := r.relay.m.symbolsEarly.Value(); got != 1 {
		t.Fatalf("symbols_early = %d, want 1", got)
	}
	r.relay.OnManifest(r.man)
	if got := r.fans(1, 2); got != 6 {
		t.Fatalf("replayed symbol fanned to %d members, want the 6-member wide fan", got)
	}
	if r.relay.objects[7].gens[1].shards[2] == nil {
		t.Fatal("replayed symbol not stored")
	}
	if len(r.relay.early) != 0 || r.relay.earlyBytes != 0 {
		t.Fatalf("early buffer not emptied: %d objects, %d bytes", len(r.relay.early), r.relay.earlyBytes)
	}
}

// TestEarlySpoofedSenderDropped checks an early symbol claiming another
// origin than the manifest's is neither stored nor fanned on replay.
func TestEarlySpoofedSenderDropped(t *testing.T) {
	r := newRelayRig(t)
	r.relay.OnMessage(1, r.sym(0, 1, wire.FlagBulkFan, 5))
	r.relay.OnManifest(r.man)
	if len(r.env.sent) != 0 {
		t.Fatalf("spoofed symbol fanned: %d datagrams", len(r.env.sent))
	}
	if r.relay.objects[7].gens[0].shards[1] != nil {
		t.Fatal("spoofed symbol stored")
	}
	if got := r.relay.m.earlyDropped.Value(); got != 1 {
		t.Fatalf("early_dropped = %d, want 1", got)
	}
}

// TestEarlyBufferBounded checks the early buffer keeps to its byte cap
// and drops an object's held symbols once they outlive earlyMaxAge.
func TestEarlyBufferBounded(t *testing.T) {
	env := &recEnv{self: 2, now: time.Unix(100, 0)}
	e := New(env, Config{Group: 1})
	body := make([]byte, 1024)
	const extra = 10
	for i := 0; i < earlyMaxBytes/len(body)+extra; i++ {
		e.OnMessage(1, &wire.Message{
			Kind: wire.KindBulkSym, Flags: wire.FlagBulkFan, Group: 1, Sender: 1,
			Seq: uint64(1 + i%3), Aux: uint64(i), Body: body,
		})
	}
	if e.earlyBytes != earlyMaxBytes {
		t.Fatalf("early buffer holds %d bytes, cap %d", e.earlyBytes, earlyMaxBytes)
	}
	if got := e.m.earlyDropped.Value(); got != extra {
		t.Fatalf("early_dropped = %d, want %d over the cap", got, extra)
	}
	env.now = env.now.Add(earlyMaxAge - time.Millisecond)
	e.OnTick(env.now)
	if len(e.early) != 3 {
		t.Fatalf("held objects aged out early: %d left", len(e.early))
	}
	env.now = env.now.Add(time.Millisecond)
	e.OnTick(env.now)
	if len(e.early) != 0 || e.earlyBytes != 0 {
		t.Fatalf("aged-out symbols kept: %d objects, %d bytes", len(e.early), e.earlyBytes)
	}
	if got, want := e.m.earlyDropped.Value(), uint64(earlyMaxBytes/len(body)+extra); got != want {
		t.Fatalf("early_dropped = %d after age-out, want %d", got, want)
	}
	if len(env.sent) != 0 {
		t.Fatalf("early symbols caused %d sends", len(env.sent))
	}
}

// TestCorruptGenerationRepulled feeds a receiver one corrupted data
// symbol carrying the origin's name before the real ones arrive. The
// reconstruction fails its generation hash, is discarded, and the
// receiver pulls the generation again until it decodes the real bytes.
func TestCorruptGenerationRepulled(t *testing.T) {
	cfg := Config{Group: 1, SymbolSize: 256, DataShards: 8, RepairShards: 2}
	f := newFleet(t, 4, 9, netsim.LANProfile(time.Millisecond, 0, 0), cfg)
	data := testObject(10_000, 47)
	f.publish(t, 1, 9, data, false)
	f.sim.At(20*time.Millisecond, func() {
		bad := make([]byte, cfg.SymbolSize)
		copy(bad, data)
		bad[0] ^= 0xff
		f.engines[2].OnMessage(1, &wire.Message{
			Kind: wire.KindBulkSym, Group: 1, Sender: 1, Seq: 9, Aux: 0, Body: bad,
		})
	})
	f.sim.Run(5 * time.Second)
	// Exact bytes at node 2 mean the corrupted decode was thrown away
	// (kept, it would differ) and the generation pulled again (dropped
	// without a re-pull, node 2 would stay incomplete).
	f.assertAllComplete(t, 9, data, nil)
}

// TestEarlyOverflowFallsBackToPull measures an object too large for the
// early buffer. Before the manifest lands each of the n−1 relays holds
// its share of the scatter, 1.25·F/(n−1) bytes at the default 16+4
// coding, so at n=3 the share passes earlyMaxBytes above about 6.7 MiB.
// Under the bound the object completes from the scatter alone with no
// request; over it the overflow is dropped, never re-fanned, and pulled
// in repair rounds instead: slower, but every member still completes.
func TestEarlyOverflowFallsBackToPull(t *testing.T) {
	const n, manifestDelay = 3, 20 * time.Millisecond
	for _, tc := range []struct {
		name     string
		size     int
		overflow bool
	}{
		{"under-cap", 5 << 20, false},
		{"over-cap", 8 << 20, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFleet(t, n, 48, netsim.LANProfile(time.Millisecond, 0, 0), Config{Group: 1})
			data := testObject(tc.size, 48)
			var man Manifest
			f.sim.At(10*time.Millisecond, func() {
				var err error
				if man, err = f.engines[1].Publish(5, data, true); err != nil {
					t.Errorf("publish: %v", err)
				}
			})
			// The manifest trails the scatter, as on the live session path.
			f.sim.At(10*time.Millisecond+manifestDelay, func() {
				for _, node := range f.nodes[1:] {
					f.engines[node].OnManifest(man)
				}
			})
			firstPull := 10*time.Millisecond + manifestDelay + DefaultRequestEvery
			f.sim.Run(firstPull - time.Millisecond)
			var dropped, requests uint64
			scatterDone := true
			for _, node := range f.nodes[1:] {
				dropped += f.engines[node].m.earlyDropped.Value()
				if _, ok := f.engines[node].Object(5); !ok {
					scatterDone = false
				}
			}
			if scatterDone == tc.overflow {
				t.Fatalf("complete from the scatter alone = %t, want %t", scatterDone, !tc.overflow)
			}
			if (dropped > 0) != tc.overflow {
				t.Fatalf("early_dropped = %d, overflow expected %t", dropped, tc.overflow)
			}
			// Step one repair round at a time to time the completion.
			doneAt := firstPull - time.Millisecond
			for len(f.objects) < n-1 && doneAt < 10*time.Second {
				doneAt += DefaultRequestEvery
				f.sim.Run(doneAt)
			}
			f.assertAllComplete(t, 5, data, nil)
			for _, node := range f.nodes[1:] {
				requests += f.engines[node].m.requestsSent.Value()
			}
			if (requests > 0) != tc.overflow {
				t.Fatalf("requests_sent = %d, overflow expected %t", requests, tc.overflow)
			}
			t.Logf("F=%d MiB: early_dropped %d, requests_sent %d, complete by %v after publish",
				tc.size>>20, dropped, requests, doneAt-10*time.Millisecond)
		})
	}
}

// TestDataSymbolsCompleteWithoutDecoding hands the relay both repair
// symbols of generation 0 before its data symbols. K symbols are held
// after the second data symbol, but the generation waits for its last
// data symbol and then completes without touching the repair symbols.
func TestDataSymbolsCompleteWithoutDecoding(t *testing.T) {
	r := newRelayRig(t)
	r.relay.OnManifest(r.man)
	for _, i := range []int{4, 5, 0, 1, 2} {
		r.relay.OnMessage(3, r.sym(0, i, 0, 1))
	}
	if done, _, _ := r.relay.Progress(7); done != 0 {
		t.Fatalf("generation 0 completed with a data symbol still missing: %d done", done)
	}
	r.relay.OnMessage(3, r.sym(0, 3, 0, 1))
	if done, _, _ := r.relay.Progress(7); done != 1 {
		t.Fatalf("generation 0 not completed by its last data symbol: %d done", done)
	}
	if d, p := r.relay.m.decodes.Value(), r.relay.m.parityDecodes.Value(); d != 1 || p != 0 {
		t.Fatalf("decodes = %d, parity_decodes = %d, want 1 and 0", d, p)
	}
}

// TestStalledGenerationDecodesFromParity loses data symbol 2 of
// generation 0. The generation holds K symbols from the first arrivals,
// waits while symbols keep coming, and is rebuilt from parity two ticks
// after the last one — long before the first pull round, so no request
// is ever sent.
func TestStalledGenerationDecodesFromParity(t *testing.T) {
	const tick = 10 * time.Millisecond
	r := newRelayRig(t)
	start := time.Unix(100, 0)
	r.env.now = start
	r.relay.OnManifest(r.man)
	step := func(d time.Duration) {
		r.env.now = start.Add(d)
		r.relay.OnTick(r.env.now)
	}
	for i := 0; i < r.man.K; i++ {
		r.relay.OnMessage(3, r.sym(1, i, 0, 1))
	}
	for _, i := range []int{0, 1, 3, 4} {
		r.relay.OnMessage(3, r.sym(0, i, 0, 1))
	}
	step(tick)
	// A further repair symbol arrives: the generation is still moving.
	r.relay.OnMessage(3, r.sym(0, 5, 0, 1))
	step(2 * tick)
	if done, _, _ := r.relay.Progress(7); done != 1 {
		t.Fatalf("generation 0 decoded while symbols were still arriving: %d done", done)
	}
	step(3 * tick)
	if got, ok := r.relay.Object(7); !ok || !bytes.Equal(got, rigData()) {
		t.Fatal("object not rebuilt from parity two ticks after its last symbol")
	}
	if d, p := r.relay.m.decodes.Value(), r.relay.m.parityDecodes.Value(); d != 2 || p != 1 {
		t.Fatalf("decodes = %d, parity_decodes = %d, want 2 and 1", d, p)
	}
	for _, m := range r.env.sent {
		if m.Kind == wire.KindBulkReq {
			t.Fatalf("stalled generation sent a symbol request (aux %#x)", m.Aux)
		}
	}
}

// TestRequestMissingSkipsDecodableGenerations checks a pull round asks
// nothing for a generation that already holds K symbols, and every
// missing data symbol of one that does not.
func TestRequestMissingSkipsDecodableGenerations(t *testing.T) {
	r := newRelayRig(t)
	r.relay.OnManifest(r.man)
	for _, i := range []int{0, 1, 3, 4} {
		r.relay.OnMessage(3, r.sym(0, i, 0, 1))
	}
	o := r.relay.objects[7]
	o.round = 1
	r.relay.requestMissing(o)
	var reqs []uint64
	for _, m := range r.env.sent {
		if m.Kind == wire.KindBulkReq {
			reqs = append(reqs, m.Aux)
		}
	}
	if len(reqs) != r.man.K {
		t.Fatalf("sent %d requests, want the %d data symbols of generation 1", len(reqs), r.man.K)
	}
	for _, aux := range reqs {
		if aux>>32 != 1 {
			t.Fatalf("requested symbol %d of generation %d, which holds K symbols", aux&0xffffffff, aux>>32)
		}
	}
}

// TestAssembleAllocatesOnce completes an object whose size is not a
// multiple of the generation size: assembling it takes one allocation
// of exactly the object's size, with no regrowth for the padding.
func TestAssembleAllocatesOnce(t *testing.T) {
	cfg := Config{Group: 1}
	members := []id.Node{1, 2, 3}
	origin := New(&recEnv{self: 1}, cfg)
	origin.SetMembers(members)
	data := testObject(100<<10+1, 49)
	man, err := origin.Publish(3, data, false)
	if err != nil {
		t.Fatal(err)
	}
	e := New(&recEnv{self: 2}, cfg)
	e.SetMembers(members)
	e.OnManifest(man)
	for gen, g := range origin.objects[3].gens {
		for i := 0; i < man.K; i++ {
			e.OnMessage(3, &wire.Message{
				Kind: wire.KindBulkSym, Group: 1, Sender: 1, Seq: 3,
				Aux: uint64(gen)<<32 | uint64(i), Body: g.shards[i],
			})
		}
	}
	got, ok := e.Object(3)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("object not assembled")
	}
	if cap(got) != len(data) {
		t.Fatalf("assembled object cap = %d, want %d", cap(got), len(data))
	}
	if allocs := testing.AllocsPerRun(10, func() { e.assemble(e.objects[3]) }); allocs != 1 {
		t.Fatalf("assemble made %v allocations, want 1", allocs)
	}
}
