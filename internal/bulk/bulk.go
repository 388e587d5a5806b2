// Package bulk implements erasure-coded bulk-object dissemination: the
// pre-distribution and state-transfer path the paper's architecture
// promises but plain reliable multicast cannot scale to. A publisher
// splits an object into generations of k data symbols, extends each
// generation with r Reed-Solomon repair symbols (internal/fec), and
// scatters each coded symbol to exactly one member, which re-fans its
// 1/N-th share to the rest of the group. The sender therefore transmits
// Θ(F) bytes for an F-byte object instead of the Θ(F·N) a flat reliable
// multicast costs it, and no single member transmits more than ~2F(1+r/k)
// — the raptorcast shape. Only the manifest (object ID, size, geometry,
// per-generation hashes) rides the ordered reliable channel.
//
// Receivers reconstruct each generation from ANY k of its k+r symbols;
// whatever the scatter and loss leave missing is pulled with unicast
// symbol requests that rotate over the symbol's designated relay, the
// origin and the remaining members, so one crashed relay never strands a
// transfer. Symbols that outrun their manifest (the scatter leaves
// before the manifest's reliable multicast) wait in a bounded early
// buffer and are replayed, fan included, once the manifest installs.
// Under Config.RelayPlan the re-fan follows the hierarchical
// overlay: a relay fans to its own cluster plus the remote cluster
// coordinators (FlagBulkFan), and each coordinator re-fans locally,
// bounding relay depth at two hops.
//
// The engine is a proto.Handler like every other layer: synchronous,
// deterministic (no randomness; request targets rotate by counter), and
// identical under netsim and live UDP.
package bulk

import (
	"fmt"
	"hash/crc64"
	"sort"
	"time"

	"scalamedia/internal/fec"
	"scalamedia/internal/id"
	"scalamedia/internal/proto"
	"scalamedia/internal/stats"
	"scalamedia/internal/wire"
)

// Geometry and engine defaults.
const (
	// DefaultSymbolSize is the coded-symbol payload length.
	DefaultSymbolSize = 1024
	// DefaultDataShards is k, the data symbols per generation.
	DefaultDataShards = 16
	// DefaultRepairShards is r, the repair symbols per generation.
	DefaultRepairShards = 4
	// DefaultRequestEvery is the repair-request cadence.
	DefaultRequestEvery = 100 * time.Millisecond
	// DefaultMaxRequests bounds symbol requests per object per round.
	DefaultMaxRequests = 64
	// DefaultMaxObjects bounds retained objects; beyond it the oldest
	// completed object is evicted.
	DefaultMaxObjects = 8
	// MaxObjectSize bounds a published object.
	MaxObjectSize = 1 << 28
)

// Early-symbol buffer bounds: symbols that arrive before their object's
// manifest are held up to earlyMaxBytes of payload in total, and an
// object's held symbols are dropped earlyMaxAge after the first of them
// arrived if no manifest has claimed them by then.
const (
	earlyMaxBytes = 4 << 20
	earlyMaxAge   = 2 * time.Second
)

// Errors.
var (
	// ErrTooLarge reports an object above MaxObjectSize (or empty).
	ErrTooLarge = fmt.Errorf("bulk: object empty or larger than %d bytes", MaxObjectSize)
	// ErrDuplicateObject reports a Publish reusing a live object ID.
	ErrDuplicateObject = fmt.Errorf("bulk: object ID already in use")
)

// Object is one completed bulk object, handed to Config.OnObject.
type Object struct {
	ID     uint64
	Origin id.Node
	Data   []byte
}

// Progress reports transfer advancement, handed to Config.OnProgress
// after each completed generation.
type Progress struct {
	ID     uint64
	Origin id.Node
	// Done and Total count generations.
	Done, Total int
}

// Config parameterizes an Engine.
type Config struct {
	// Group tags the engine's symbol traffic.
	Group id.Group
	// SymbolSize, DataShards, RepairShards fix the coding geometry for
	// objects published by this node (zero values take the defaults).
	SymbolSize   int
	DataShards   int
	RepairShards int
	// RequestEvery is the repair-request cadence; MaxRequests bounds the
	// unicast symbol requests per object per round.
	RequestEvery time.Duration
	MaxRequests  int
	// MaxObjects bounds retained objects.
	MaxObjects int
	// RelayPlan, when non-nil, supplies the hierarchical fan-out for a
	// relayed symbol: the members of this node's own cluster and the
	// coordinators of the remote clusters. Empty slices (topology not
	// formed yet) fall back to the flat everyone fan.
	RelayPlan func() (local, remote []id.Node)
	// Distance, when non-nil, estimates the one-way delay to a peer
	// (AutoHier stacks wire it to the overlay's RTT matrix). Repair
	// requests then prefer the nearest peers instead of rotating blindly
	// over the membership; peers with no estimate yet (a zero return)
	// and a nil Distance keep the pure-rotation fallback.
	Distance func(id.Node) time.Duration
	// OnObject receives completed objects.
	OnObject func(Object)
	// OnProgress receives per-generation progress.
	OnProgress func(Progress)
	// Metrics, when non-nil, receives the engine's live counters under
	// the "bulk." prefix. When nil the engine still counts but registers
	// nothing.
	Metrics *stats.Registry
}

// engMetrics is the engine's counter set, resolved once at New.
type engMetrics struct {
	symbolsEarly     *stats.Counter // symbols held for a manifest not yet installed
	earlyDropped     *stats.Counter // held symbols dropped: over the cap, aged out or spoofed
	requestsSent     *stats.Counter
	requestsServed   *stats.Counter
	decodes          *stats.Counter // generations reconstructed and verified
	objectsCompleted *stats.Counter // received objects fully assembled
}

func newEngMetrics(reg *stats.Registry) engMetrics {
	counter := func(name string) *stats.Counter {
		if reg == nil {
			return &stats.Counter{}
		}
		return reg.Counter("bulk." + name)
	}
	return engMetrics{
		symbolsEarly:     counter("symbols_early"),
		earlyDropped:     counter("early_dropped"),
		requestsSent:     counter("requests_sent"),
		requestsServed:   counter("requests_served"),
		decodes:          counter("decodes"),
		objectsCompleted: counter("objects_completed"),
	}
}

// generation tracks one generation's symbols at a receiver.
type generation struct {
	shards [][]byte // k+r slots; nil = missing
	have   int
	done   bool
	fanned [4]uint64 // bitset over the k+r symbols this node re-fanned
}

// object is one transfer, publishing or receiving.
type object struct {
	man      Manifest
	rs       *fec.RS
	gens     []generation
	doneGens int
	complete bool
	data     []byte // assembled object once complete
	nextReq  time.Time
	round    uint64 // request-target rotation counter
}

// earlySym is one symbol that arrived before its object's manifest, with
// everything onSymbol needs to replay it.
type earlySym struct {
	from   id.Node
	flags  uint8
	sender id.Node
	aux    uint64
	body   []byte
}

// earlyObj holds the early symbols of one object.
type earlyObj struct {
	first time.Time // arrival of the first held symbol, for the age-out
	syms  []earlySym
}

// Engine is one node's bulk-dissemination state. It implements
// proto.Handler for the KindBulkSym / KindBulkReq plane; manifests enter
// through OnManifest (they travel on the caller's reliable channel).
type Engine struct {
	env     proto.Env
	cfg     Config
	members []id.Node // sorted; the scatter/request universe
	near    []id.Node // members with known distance, nearest first
	objects map[uint64]*object
	order   []uint64 // insertion order, for deterministic ticks + eviction
	// early holds symbols that raced ahead of their manifest;
	// earlyBytes is their total payload, bounded by earlyMaxBytes.
	early      map[uint64]*earlyObj
	earlyBytes int
	m          engMetrics
}

var _ proto.Handler = (*Engine)(nil)

// New returns an empty engine.
func New(env proto.Env, cfg Config) *Engine {
	if cfg.SymbolSize <= 0 {
		cfg.SymbolSize = DefaultSymbolSize
	}
	if cfg.DataShards <= 0 {
		cfg.DataShards = DefaultDataShards
	}
	if cfg.RepairShards <= 0 {
		cfg.RepairShards = DefaultRepairShards
	}
	if cfg.RequestEvery <= 0 {
		cfg.RequestEvery = DefaultRequestEvery
	}
	if cfg.MaxRequests <= 0 {
		cfg.MaxRequests = DefaultMaxRequests
	}
	if cfg.MaxObjects <= 0 {
		cfg.MaxObjects = DefaultMaxObjects
	}
	return &Engine{
		env:     env,
		cfg:     cfg,
		objects: make(map[uint64]*object),
		early:   make(map[uint64]*earlyObj),
		m:       newEngMetrics(cfg.Metrics),
	}
}

// SetMembers installs the current group membership, the universe symbols
// scatter over and repair requests rotate through.
func (e *Engine) SetMembers(ms []id.Node) {
	e.members = e.members[:0]
	for _, m := range ms {
		if m != id.None {
			e.members = append(e.members, m)
		}
	}
	sort.Slice(e.members, func(i, j int) bool { return e.members[i] < e.members[j] })
}

// genTable is the CRC-64 table behind genHash.
var genTable = crc64.MakeTable(crc64.ECMA)

// genHash is the per-generation content hash: CRC-64 (ECMA polynomial)
// chained over the k padded data symbols in index order.
func genHash(shards [][]byte, k int) uint64 {
	var h uint64
	for i := 0; i < k; i++ {
		h = crc64.Update(h, genTable, shards[i])
	}
	return h
}

// Publish splits data into coded symbols, retains them for serving, and
// — when scatter is set — stripes the symbols across the group for peer
// relay. It returns the manifest the caller must carry to receivers on
// the reliable channel. With scatter off (state-transfer objects) the
// object is merely registered; receivers pull every symbol they need.
func (e *Engine) Publish(objID uint64, data []byte, scatter bool) (Manifest, error) {
	if len(data) == 0 || len(data) > MaxObjectSize {
		return Manifest{}, ErrTooLarge
	}
	if o, exists := e.objects[objID]; exists {
		// Republishing the same bytes (a state snapshot re-offered to a
		// second joiner) is idempotent; anything else is a caller bug.
		if o.complete && string(o.data) == string(data) {
			return o.man, nil
		}
		return Manifest{}, fmt.Errorf("%w: %d", ErrDuplicateObject, objID)
	}
	k, r, symSize := e.cfg.DataShards, e.cfg.RepairShards, e.cfg.SymbolSize
	rs, err := fec.NewRS(k, r)
	if err != nil {
		return Manifest{}, fmt.Errorf("bulk publish: %w", err)
	}
	perGen := k * symSize
	genCount := (len(data) + perGen - 1) / perGen
	man := Manifest{
		Object:     objID,
		Size:       uint64(len(data)),
		Origin:     e.env.Self(),
		SymbolSize: symSize,
		K:          k,
		R:          r,
		GenHashes:  make([]uint64, genCount),
	}
	o := &object{
		man:      man,
		rs:       rs,
		gens:     make([]generation, genCount),
		doneGens: genCount,
		complete: true,
		data:     append([]byte(nil), data...),
	}
	for g := 0; g < genCount; g++ {
		shards := make([][]byte, k+r)
		for i := 0; i < k; i++ {
			shards[i] = make([]byte, symSize)
			off := g*perGen + i*symSize
			if off < len(data) {
				copy(shards[i], data[off:])
			}
		}
		if err := rs.Encode(shards); err != nil {
			return Manifest{}, fmt.Errorf("bulk publish: %w", err)
		}
		man.GenHashes[g] = genHash(shards, k)
		o.gens[g] = generation{shards: shards, have: k + r, done: true}
	}
	e.insert(objID, o)
	if scatter {
		e.scatter(o)
	}
	return man, nil
}

// insert registers an object, evicting the oldest completed object
// beyond the retention cap.
func (e *Engine) insert(objID uint64, o *object) {
	e.objects[objID] = o
	e.order = append(e.order, objID)
	if len(e.order) <= e.cfg.MaxObjects {
		return
	}
	// Prefer evicting the oldest completed object; an incomplete
	// transfer is only sacrificed when nothing completed remains.
	victim := -1
	for i, oid := range e.order {
		if e.objects[oid].complete {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
	}
	delete(e.objects, e.order[victim])
	e.order = append(e.order[:victim], e.order[victim+1:]...)
}

// relayOf returns the member designated to re-fan symbol (gen, idx):
// the scatter stripes symbols round-robin over the sorted membership
// minus the origin, which already transmits every symbol once.
func (e *Engine) relayOf(man Manifest, gen, idx int) id.Node {
	peers := 0
	for _, m := range e.members {
		if m != man.Origin {
			peers++
		}
	}
	if peers == 0 {
		return id.None
	}
	want := (gen*(man.K+man.R) + idx) % peers
	for _, m := range e.members {
		if m == man.Origin {
			continue
		}
		if want == 0 {
			return m
		}
		want--
	}
	return id.None
}

// scatter sends each coded symbol to its designated relay, flagged so
// the relay re-fans it to the rest of the group.
func (e *Engine) scatter(o *object) {
	for g := range o.gens {
		for i, shard := range o.gens[g].shards {
			relay := e.relayOf(o.man, g, i)
			if relay == id.None {
				continue
			}
			if relay == e.env.Self() {
				// This node is its own relay for the symbol: fan directly.
				e.fan(o.man, g, i, shard, true)
				continue
			}
			e.sendSym(relay, o.man, g, i, shard, wire.FlagBulkFan)
		}
	}
}

// sendSym transmits one symbol. Aux packs generation<<32|index.
func (e *Engine) sendSym(to id.Node, man Manifest, gen, idx int, payload []byte, flags uint8) {
	e.env.Send(to, &wire.Message{
		Kind:   wire.KindBulkSym,
		Flags:  flags,
		Group:  e.cfg.Group,
		Sender: man.Origin,
		Seq:    man.Object,
		Aux:    uint64(gen)<<32 | uint64(idx),
		Body:   payload,
	})
}

// fan re-distributes a symbol this node is responsible for. wide relays
// fan to the whole group (or, under a relay plan, to their own cluster
// plus the remote coordinators, flagged for local re-fan); coordinators
// re-fanning a FlagBulkFan symbol fan only their own cluster.
func (e *Engine) fan(man Manifest, gen, idx int, payload []byte, wide bool) {
	self := e.env.Self()
	if e.cfg.RelayPlan != nil {
		local, remote := e.cfg.RelayPlan()
		if len(local) > 0 || len(remote) > 0 {
			for _, m := range local {
				if m != self && m != man.Origin {
					e.sendSym(m, man, gen, idx, payload, 0)
				}
			}
			if wide {
				for _, m := range remote {
					if m != self && m != man.Origin {
						e.sendSym(m, man, gen, idx, payload, wire.FlagBulkFan)
					}
				}
			}
			return
		}
	}
	if !wide {
		return
	}
	for _, m := range e.members {
		if m != self && m != man.Origin {
			e.sendSym(m, man, gen, idx, payload, 0)
		}
	}
}

// OnManifest begins (or serves) a transfer described by a manifest
// received on the reliable channel. Unknown objects start collecting
// symbols, beginning with any that arrived ahead of the manifest;
// already-held objects are ignored.
func (e *Engine) OnManifest(man Manifest) {
	if err := man.Validate(); err != nil {
		return
	}
	if _, exists := e.objects[man.Object]; exists {
		return
	}
	early := e.takeEarly(man.Object)
	if man.Origin == e.env.Self() {
		e.m.earlyDropped.Add(uint64(len(early)))
		return
	}
	rs, err := fec.NewRS(man.K, man.R)
	if err != nil {
		e.m.earlyDropped.Add(uint64(len(early)))
		return
	}
	o := &object{
		man:  man,
		rs:   rs,
		gens: make([]generation, man.Generations()),
	}
	for g := range o.gens {
		o.gens[g].shards = make([][]byte, man.K+man.R)
	}
	// Give the scatter one request interval to land before pulling; a
	// scatterless (state-transfer) object starts fetching after the
	// same grace.
	o.nextReq = e.env.Now().Add(e.cfg.RequestEvery)
	e.insert(man.Object, o)
	e.replayEarly(man, early)
}

// holdEarly buffers a symbol for an object with no manifest yet. The
// relay fan it may ask for waits too: nothing is re-sent until a
// manifest the session has origin-checked claims the symbol.
func (e *Engine) holdEarly(from id.Node, msg *wire.Message) {
	if e.earlyBytes+len(msg.Body) > earlyMaxBytes {
		e.m.earlyDropped.Inc()
		return
	}
	eo := e.early[msg.Seq]
	if eo == nil {
		eo = &earlyObj{first: e.env.Now()}
		e.early[msg.Seq] = eo
	}
	eo.syms = append(eo.syms, earlySym{
		from:   from,
		flags:  msg.Flags,
		sender: msg.Sender,
		aux:    msg.Aux,
		body:   append([]byte(nil), msg.Body...),
	})
	e.earlyBytes += len(msg.Body)
	e.m.symbolsEarly.Inc()
}

// takeEarly removes and returns an object's held symbols.
func (e *Engine) takeEarly(objID uint64) []earlySym {
	eo := e.early[objID]
	if eo == nil {
		return nil
	}
	delete(e.early, objID)
	for _, es := range eo.syms {
		e.earlyBytes -= len(es.body)
	}
	return eo.syms
}

// replayEarly feeds held symbols to the freshly installed object in
// arrival order, each with the neighbour it came from so a relay's wide
// fan stays wide. Symbols naming another origin than the manifest are
// dropped unreplayed: they are neither stored nor fanned.
func (e *Engine) replayEarly(man Manifest, syms []earlySym) {
	for _, es := range syms {
		if es.sender != man.Origin {
			e.m.earlyDropped.Inc()
			continue
		}
		e.onSymbol(es.from, &wire.Message{
			Kind:   wire.KindBulkSym,
			Flags:  es.flags,
			Group:  e.cfg.Group,
			Sender: es.sender,
			Seq:    man.Object,
			Aux:    es.aux,
			Body:   es.body,
		})
	}
}

// ageEarly drops the held symbols of objects whose manifest has not come
// within earlyMaxAge of their first symbol.
func (e *Engine) ageEarly(now time.Time) {
	for objID, eo := range e.early {
		if now.Sub(eo.first) >= earlyMaxAge {
			e.m.earlyDropped.Add(uint64(len(e.takeEarly(objID))))
		}
	}
}

// Object returns a completed object's data.
func (e *Engine) Object(objID uint64) ([]byte, bool) {
	o, ok := e.objects[objID]
	if !ok || !o.complete {
		return nil, false
	}
	return o.data, true
}

// Progress returns a transfer's generation counts.
func (e *Engine) Progress(objID uint64) (done, total int, ok bool) {
	o, okObj := e.objects[objID]
	if !okObj {
		return 0, 0, false
	}
	return o.doneGens, len(o.gens), true
}

// Evict drops a retained object.
func (e *Engine) Evict(objID uint64) {
	if _, ok := e.objects[objID]; !ok {
		return
	}
	delete(e.objects, objID)
	for i, oid := range e.order {
		if oid == objID {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
}

// OnMessage handles the symbol plane.
func (e *Engine) OnMessage(from id.Node, msg *wire.Message) {
	if msg.Group != e.cfg.Group {
		return
	}
	switch msg.Kind {
	case wire.KindBulkSym:
		e.onSymbol(from, msg)
	case wire.KindBulkReq:
		e.onRequest(from, msg)
	}
}

// onSymbol stores one arriving coded symbol and re-fans it when this
// node is the symbol's designated distributor.
func (e *Engine) onSymbol(from id.Node, msg *wire.Message) {
	o, ok := e.objects[msg.Seq]
	if !ok {
		// No manifest yet: the scatter raced ahead of the reliable
		// channel. Hold the symbol until the manifest installs.
		e.holdEarly(from, msg)
		return
	}
	gen, idx := int(msg.Aux>>32), int(msg.Aux&0xffffffff)
	if msg.Sender != o.man.Origin || gen >= len(o.gens) ||
		idx >= o.man.K+o.man.R || len(msg.Body) != o.man.SymbolSize {
		return
	}
	g := &o.gens[gen]
	// Re-fan first, once per symbol, even when this node's own copy of
	// the generation is already done: a flagged symbol makes this node
	// the distributor — group-wide when it came straight from the
	// origin, own-cluster only when a relay forwarded it for local
	// re-fan — and the other receivers still need it. A done
	// generation's data symbol is fanned from the hash-verified copy,
	// not from the unchecked payload.
	if bit := uint64(1) << (idx % 64); msg.Flags&wire.FlagBulkFan != 0 && g.fanned[idx/64]&bit == 0 {
		g.fanned[idx/64] |= bit
		body := msg.Body
		if g.done && idx < o.man.K {
			body = g.shards[idx]
		}
		e.fan(o.man, gen, idx, body, from == o.man.Origin)
	}
	if o.complete || g.done || g.shards[idx] != nil {
		return
	}
	g.shards[idx] = append([]byte(nil), msg.Body...)
	g.have++
	if g.have >= o.man.K {
		e.reconstruct(o, gen)
	}
}

// reconstruct decodes one generation from any K held symbols, verifies
// it against the manifest hash, and completes the object when it was the
// last generation outstanding.
func (e *Engine) reconstruct(o *object, gen int) {
	g := &o.gens[gen]
	if err := o.rs.Reconstruct(g.shards); err != nil {
		return
	}
	if genHash(g.shards, o.man.K) != o.man.GenHashes[gen] {
		// Corrupt reconstruction: discard the generation and re-pull.
		for i := range g.shards {
			g.shards[i] = nil
		}
		g.have = 0
		return
	}
	// Keep the data symbols (to serve peer requests); the repair symbols
	// have done their job.
	for i := o.man.K; i < len(g.shards); i++ {
		g.shards[i] = nil
	}
	g.have = o.man.K
	g.done = true
	o.doneGens++
	e.m.decodes.Inc()
	if e.cfg.OnProgress != nil {
		e.cfg.OnProgress(Progress{ID: o.man.Object, Origin: o.man.Origin, Done: o.doneGens, Total: len(o.gens)})
	}
	if o.doneGens == len(o.gens) {
		e.assemble(o)
	}
}

// assemble concatenates the decoded generations into the final object.
func (e *Engine) assemble(o *object) {
	data := make([]byte, 0, int(o.man.Size))
	for g := range o.gens {
		for i := 0; i < o.man.K; i++ {
			data = append(data, o.gens[g].shards[i]...)
		}
	}
	o.data = data[:o.man.Size]
	o.complete = true
	e.m.objectsCompleted.Inc()
	if e.cfg.OnObject != nil {
		e.cfg.OnObject(Object{ID: o.man.Object, Origin: o.man.Origin, Data: o.data})
	}
}

// onRequest serves a symbol this node holds.
func (e *Engine) onRequest(from id.Node, msg *wire.Message) {
	o, ok := e.objects[msg.Seq]
	if !ok {
		return
	}
	gen, idx := int(msg.Aux>>32), int(msg.Aux&0xffffffff)
	if gen >= len(o.gens) || idx >= o.man.K+o.man.R {
		return
	}
	if shard := o.gens[gen].shards[idx]; shard != nil {
		e.sendSym(from, o.man, gen, idx, shard, 0)
		e.m.requestsServed.Inc()
	}
}

// OnTick runs the repair rounds: each incomplete transfer asks for the
// data symbols it is still missing, rotating targets over the symbol's
// designated relay, the origin, and the rest of the group so a crashed
// relay only costs one round. It also ages out unclaimed early symbols.
func (e *Engine) OnTick(now time.Time) {
	e.ageEarly(now)
	refreshed := false
	for _, objID := range e.order {
		o := e.objects[objID]
		if o == nil || o.complete || now.Before(o.nextReq) {
			continue
		}
		if !refreshed {
			// Distance estimates (the AutoHier RTT matrix) fill in over
			// time; re-rank the pull-target preference once per request
			// tick rather than per symbol.
			e.refreshNear()
			refreshed = true
		}
		o.nextReq = now.Add(e.cfg.RequestEvery)
		o.round++
		e.requestMissing(o)
	}
}

// refreshNear rebuilds the nearest-first pull-target ranking: every
// member (excluding self) with a known distance estimate, sorted by
// (distance, id) so the order is deterministic. Members without an
// estimate are left to the rotation fallback.
func (e *Engine) refreshNear() {
	e.near = e.near[:0]
	if e.cfg.Distance == nil {
		return
	}
	self := e.env.Self()
	dist := make(map[id.Node]time.Duration, len(e.members))
	for _, m := range e.members {
		if m == self {
			continue
		}
		if d := e.cfg.Distance(m); d > 0 {
			dist[m] = d
			e.near = append(e.near, m)
		}
	}
	sort.Slice(e.near, func(i, j int) bool {
		di, dj := dist[e.near[i]], dist[e.near[j]]
		if di != dj {
			return di < dj
		}
		return e.near[i] < e.near[j]
	})
}

// requestMissing pulls up to MaxRequests missing data symbols. Only
// data symbols are requested: any completed peer holds all of them,
// while repair symbols survive only where the scatter put them.
func (e *Engine) requestMissing(o *object) {
	budget := e.cfg.MaxRequests
	self := e.env.Self()
	for g := range o.gens {
		if o.gens[g].done {
			continue
		}
		for i := 0; i < o.man.K && budget > 0; i++ {
			if o.gens[g].shards[i] != nil {
				continue
			}
			target := e.requestTarget(o, g, i, self)
			if target == id.None {
				return
			}
			e.env.Send(target, &wire.Message{
				Kind:  wire.KindBulkReq,
				Group: e.cfg.Group,
				Seq:   o.man.Object,
				Aux:   uint64(g)<<32 | uint64(i),
			})
			e.m.requestsSent.Inc()
			budget--
		}
		if budget == 0 {
			return
		}
	}
}

// nearWindow bounds how many of the nearest peers the third request
// phase rotates over: near enough to keep pulls cheap, wide enough that
// receivers missing the same symbol don't all dogpile the single
// nearest holder.
const nearWindow = 4

// requestTarget rotates a missing symbol's pull target: the designated
// relay first, the origin next, then the nearest peers by the distance
// estimate (AutoHier RTT matrix) — falling back to round-robin over the
// whole membership when no estimates exist.
func (e *Engine) requestTarget(o *object, gen, idx int, self id.Node) id.Node {
	// Build the candidate preference deterministically per (round, symbol,
	// requester): folding self in keeps the receivers that miss the same
	// symbol from dogpiling one server every round.
	turn := o.round - 1 + uint64(gen) + uint64(idx) + uint64(self)
	relay := e.relayOf(o.man, gen, idx)
	for attempt := uint64(0); attempt < 3+uint64(len(e.members)); attempt++ {
		var c id.Node
		switch t := turn + attempt; {
		case t%3 == 0 && relay != id.None:
			c = relay
		case t%3 == 1:
			c = o.man.Origin
		default:
			switch {
			case len(e.near) > 0:
				w := len(e.near)
				if w > nearWindow {
					w = nearWindow
				}
				c = e.near[int(t/3)%w]
			case len(e.members) == 0:
				c = o.man.Origin
			default:
				c = e.members[int(t/3)%len(e.members)]
			}
		}
		if c != self && c != id.None {
			return c
		}
	}
	if o.man.Origin != self {
		return o.man.Origin
	}
	return id.None
}
