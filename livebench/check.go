package main

import "encoding/binary"

// Payload layout of every benchmark message:
//
//	[0:2)   sender index (member slot, little endian)
//	[2:6)   per-sender sequence number, from 0
//	[6:14)  due time, nanoseconds since the run epoch
//	[14:)   body bytes generated from (seed, sender, seq)
//
// The receiver reads the header to time and check the delivery and
// regenerates the body to detect corruption.
const headerLen = 14

// mix is the splitmix64 finalizer; it turns a counter into well-spread
// pseudo-random bits, so inputs are a pure function of the seed.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fill writes the deterministic byte stream for key into b.
func fill(b []byte, key uint64) {
	x := mix(key)
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, x)
		x = mix(x)
		b = b[8:]
	}
	for i := range b {
		b[i] = byte(x >> (8 * i))
	}
}

// matches reports whether b equals the stream fill(b, key) would write,
// without allocating.
func matches(b []byte, key uint64) bool {
	x := mix(key)
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != x {
			return false
		}
		x = mix(x)
		b = b[8:]
	}
	for i := range b {
		if b[i] != byte(x>>(8*i)) {
			return false
		}
	}
	return true
}

func bodyKey(seed int64, sender int, seq uint32) uint64 {
	return uint64(seed)<<40 ^ uint64(sender)<<32 ^ uint64(seq)
}

func objectKey(seed int64, obj uint64) uint64 {
	return ^(uint64(seed)<<40 ^ obj)
}

// makePayload builds one message of size bytes (at least headerLen).
func makePayload(size int, seed int64, sender int, seq uint32, due int64) []byte {
	p := make([]byte, size)
	binary.LittleEndian.PutUint16(p[0:], uint16(sender))
	binary.LittleEndian.PutUint32(p[2:], seq)
	binary.LittleEndian.PutUint64(p[6:], uint64(due))
	fill(p[headerLen:], bodyKey(seed, sender, seq))
	return p
}

// header is the decoded fixed part of a payload.
type header struct {
	sender int
	seq    uint32
	due    int64
}

func parseHeader(p []byte) (header, bool) {
	if len(p) < headerLen {
		return header{}, false
	}
	return header{
		sender: int(binary.LittleEndian.Uint16(p[0:])),
		seq:    binary.LittleEndian.Uint32(p[2:]),
		due:    int64(binary.LittleEndian.Uint64(p[6:])),
	}, true
}

// failures counts failed ops by cause. Each field is one failed op per
// occurrence, except sendErrors, which costs every op the call attempted.
type failures struct {
	sendErrors int // Send or Publish returned an error
	missing    int // a delivery or object absent at drain
	duplicates int // a message delivered twice at one member
	order      int // a per-sender order violation at one member
	corrupt    int // payload or fetched bytes differ from what was sent
	totalOrder int // a member whose Total delivery sequence hash differs
	evictions  int // a member evicted during the measured phase
}

func (f failures) ops(opsPerCall int) int {
	return f.sendErrors*opsPerCall + f.missing + f.duplicates + f.order +
		f.corrupt + f.totalOrder + f.evictions
}

func (f *failures) add(o failures) {
	f.sendErrors += o.sendErrors
	f.missing += o.missing
	f.duplicates += o.duplicates
	f.order += o.order
	f.corrupt += o.corrupt
	f.totalOrder += o.totalOrder
	f.evictions += o.evictions
}

// checker validates one member's delivery stream online: exactly once,
// per-sender order (every ordering the benchmark uses is at least FIFO,
// so each sender's sequence numbers must arrive as 0, 1, 2, ...), intact
// bodies, and a running hash of the delivery sequence for the Total
// agreement check.
type checker struct {
	seed  int64
	seen  [][]uint64 // per sender: bitmap of delivered seqs
	top   []uint32   // per sender: highest seq delivered so far, plus one
	hash  uint64     // FNV-1a over (sender, seq) in delivery order
	fails failures
}

func newChecker(seed int64, senders int) *checker {
	return &checker{
		seed: seed,
		seen: make([][]uint64, senders),
		top:  make([]uint32, senders),
		hash: fnvOffset,
	}
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// observe checks one delivered payload.
func (c *checker) observe(p []byte) {
	h, ok := parseHeader(p)
	if !ok || h.sender >= len(c.seen) || !matches(p[headerLen:], bodyKey(c.seed, h.sender, h.seq)) {
		c.fails.corrupt++
		return
	}
	bits := c.seen[h.sender]
	w := int(h.seq / 64)
	for w >= len(bits) {
		bits = append(bits, 0)
	}
	c.seen[h.sender] = bits
	mask := uint64(1) << (h.seq % 64)
	if bits[w]&mask != 0 {
		c.fails.duplicates++
		return
	}
	bits[w] |= mask
	// A seq below one already delivered arrived out of order; a gap
	// alone is not an order violation but a missing delivery, which
	// finish counts once.
	if h.seq < c.top[h.sender] {
		c.fails.order++
	} else {
		c.top[h.sender] = h.seq + 1
	}
	for _, b := range [6]byte{byte(h.sender), byte(h.sender >> 8), byte(h.seq), byte(h.seq >> 8), byte(h.seq >> 16), byte(h.seq >> 24)} {
		c.hash ^= uint64(b)
		c.hash *= fnvPrime
	}
}

// finish counts the deliveries still missing given how many messages each
// sender sent, and returns every failure seen. Deliveries with a seq at or
// beyond the sent count cannot come from the generator and count as
// corrupt.
func (c *checker) finish(sent []uint32) failures {
	f := c.fails
	for s, bits := range c.seen {
		want := uint32(0)
		if s < len(sent) {
			want = sent[s]
		}
		for i, word := range bits {
			for b := 0; b < 64; b++ {
				seq := uint32(i*64 + b)
				got := word&(1<<b) != 0
				switch {
				case seq < want && !got:
					f.missing++
				case seq >= want && got:
					f.corrupt++
				}
			}
		}
		if have := uint32(len(bits) * 64); want > have {
			f.missing += int(want - have)
		}
	}
	return f
}

// totalMismatches returns how many members' delivery hashes differ from
// the most common one: under Total every member must deliver the same
// sequence.
func totalMismatches(hashes []uint64) int {
	count := make(map[uint64]int, len(hashes))
	best := 0
	for _, h := range hashes {
		count[h]++
		best = max(best, count[h])
	}
	return len(hashes) - best
}
