package main

import (
	"bytes"
	"testing"
)

// deliveries builds the payload stream a member would deliver when each
// of senders sends count messages, interleaved round-robin.
func deliveries(seed int64, senders, count int) [][]byte {
	var out [][]byte
	for seq := 0; seq < count; seq++ {
		for s := 0; s < senders; s++ {
			out = append(out, makePayload(64, seed, s, uint32(seq), int64(seq)))
		}
	}
	return out
}

func runChecker(seed int64, senders int, stream [][]byte, sent []uint32) (failures, uint64) {
	c := newChecker(seed, senders)
	for _, p := range stream {
		c.observe(p)
	}
	return c.finish(sent), c.hash
}

func TestCheckerCleanStream(t *testing.T) {
	f, _ := runChecker(7, 2, deliveries(7, 2, 100), []uint32{100, 100})
	if f != (failures{}) {
		t.Fatalf("clean stream reported %+v", f)
	}
}

// The planted defects below must each make exactly their check fail.

func TestCheckerCatchesDroppedDelivery(t *testing.T) {
	stream := deliveries(7, 2, 100)
	stream = append(stream[:51], stream[52:]...)
	f, _ := runChecker(7, 2, stream, []uint32{100, 100})
	if f != (failures{missing: 1}) {
		t.Fatalf("dropped delivery: got %+v, want one missing", f)
	}
}

func TestCheckerCatchesSwappedPair(t *testing.T) {
	stream := deliveries(7, 1, 100)
	stream[10], stream[11] = stream[11], stream[10]
	f, _ := runChecker(7, 1, stream, []uint32{100})
	if f != (failures{order: 1}) {
		t.Fatalf("swapped pair: got %+v, want one order violation", f)
	}
}

func TestCheckerCatchesCorruptedByte(t *testing.T) {
	stream := deliveries(7, 2, 100)
	stream[30][headerLen+5] ^= 0x40
	f, _ := runChecker(7, 2, stream, []uint32{100, 100})
	// The corrupted copy is rejected, so its delivery is also missing.
	if f != (failures{corrupt: 1, missing: 1}) {
		t.Fatalf("corrupted byte: got %+v, want one corrupt and one missing", f)
	}
}

func TestCheckerCatchesDuplicate(t *testing.T) {
	stream := deliveries(7, 2, 10)
	stream = append(stream, stream[3])
	f, _ := runChecker(7, 2, stream, []uint32{10, 10})
	if f != (failures{duplicates: 1}) {
		t.Fatalf("duplicate: got %+v, want one duplicate", f)
	}
}

func TestTotalOrderHashCatchesSwap(t *testing.T) {
	// Two senders' messages interleaved differently at one member keep
	// per-sender order but break the Total agreement.
	a := deliveries(7, 2, 50)
	b := deliveries(7, 2, 50)
	b[20], b[21] = b[21], b[20] // sender 0 and sender 1, same seq
	sent := []uint32{50, 50}
	fa, ha := runChecker(7, 2, a, sent)
	fb, hb := runChecker(7, 2, b, sent)
	if fa != (failures{}) || fb != (failures{}) {
		t.Fatalf("per-sender checks flagged a cross-sender swap: %+v %+v", fa, fb)
	}
	if got := totalMismatches([]uint64{ha, ha, hb, ha}); got != 1 {
		t.Fatalf("total-order mismatches = %d, want 1", got)
	}
	if got := totalMismatches([]uint64{ha, ha, ha}); got != 0 {
		t.Fatalf("identical sequences reported %d mismatches", got)
	}
}

// TestObjectBytesCheck pins the bulk check: the generated object is a
// pure function of (seed, id), and one flipped byte breaks the equality
// runBulk tests on every member's Fetch.
func TestObjectBytesCheck(t *testing.T) {
	a := make([]byte, 4096)
	b := make([]byte, 4096)
	fill(a, objectKey(3, 9))
	fill(b, objectKey(3, 9))
	if !bytes.Equal(a, b) {
		t.Fatal("object bytes are not a function of (seed, id)")
	}
	b[1000] ^= 1
	if bytes.Equal(a, b) {
		t.Fatal("corrupted object compared equal")
	}
	fill(b, objectKey(4, 9))
	if bytes.Equal(a, b) {
		t.Fatal("two seeds generated the same object")
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	p := makePayload(256, 5, 3, 77, 123456)
	h, ok := parseHeader(p)
	if !ok || h.sender != 3 || h.seq != 77 || h.due != 123456 {
		t.Fatalf("header round trip: %+v %v", h, ok)
	}
	if !matches(p[headerLen:], bodyKey(5, 3, 77)) || matches(p[headerLen:], bodyKey(6, 3, 77)) {
		t.Fatal("body does not depend on exactly (seed, sender, seq)")
	}
}
