package fec

import (
	"math/rand"
	"testing"
)

// TestGFMulAddSliceMatchesScalar pins the word-wide kernel to the scalar
// log/exp reference for every coefficient, every length across the
// word boundary and the byte tail, and sub-slices that start off any
// 8-byte alignment.
func TestGFMulAddSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	srcBuf := make([]byte, 32)
	dstBuf := make([]byte, 32)
	for c := 0; c < 256; c++ {
		for n := 0; n <= 17; n++ {
			for off := 0; off < 8; off++ {
				rng.Read(srcBuf)
				rng.Read(dstBuf)
				src := srcBuf[off : off+n]
				dst := dstBuf[(off+3)%8 : (off+3)%8+n]
				want := make([]byte, n)
				for i := range want {
					want[i] = dst[i] ^ gfMul(byte(c), src[i])
				}
				gfMulAddSlice(dst, src, byte(c))
				for i := range want {
					if dst[i] != want[i] {
						t.Fatalf("c=%d n=%d off=%d: byte %d = %#x, want %#x", c, n, off, i, dst[i], want[i])
					}
				}
			}
		}
	}
}

// TestGFMulSliceMatchesScalar covers the non-accumulating kernel the
// matrix inversion uses, including in-place scaling.
func TestGFMulSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	buf := make([]byte, 17)
	for c := 0; c < 256; c++ {
		rng.Read(buf)
		want := make([]byte, len(buf))
		for i, s := range buf {
			want[i] = gfMul(byte(c), s)
		}
		gfMulSlice(buf, buf, byte(c))
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("c=%d: byte %d = %#x, want %#x", c, i, buf[i], want[i])
			}
		}
	}
}

func BenchmarkGFMulAddSlice(b *testing.B) {
	src := make([]byte, 1024)
	dst := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gfMulAddSlice(dst, src, byte(i%255)+1)
	}
}
