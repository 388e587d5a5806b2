// GF(256) arithmetic for the Reed-Solomon coder. The field is the
// classic RS-255 field GF(2^8) with the primitive polynomial
// x^8+x^4+x^3+x^2+1 (0x11d), the same one used by CD-ROM, QR and RAID-6
// codes; addition is XOR and multiplication goes through log/exp tables
// built once at init. The bulk slice kernels use a full 64 KiB product
// table instead, so their inner loop is a branch-free lookup per byte.
package fec

import "encoding/binary"

// gfPoly is the primitive reduction polynomial (0x11d without the x^8 bit
// once the overflow shift is applied).
const gfPoly = 0x1d

var (
	gfExp [512]byte // doubled so gfMul can skip a modular reduction
	gfLog [256]byte
	// gfMulTable[c][s] = c·s: one 256-byte row per coefficient, so a
	// slice kernel indexes a single row with no zero-operand branch.
	gfMulTable [256][256]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfLog[x] = byte(i)
		carry := x&0x80 != 0
		x <<= 1
		if carry {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := 1; c < 256; c++ {
		for s := 1; s < 256; s++ {
			gfMulTable[c][s] = gfMul(byte(c), byte(s))
		}
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfInv returns the multiplicative inverse of a nonzero element.
func gfInv(a byte) byte {
	return gfExp[255-int(gfLog[a])]
}

// gfMulSlice sets dst[i] = c * src[i] for each i.
func gfMulSlice(dst, src []byte, c byte) {
	mt := &gfMulTable[c]
	for i, s := range src {
		dst[i] = mt[s]
	}
}

// gfMulAddSlice sets dst[i] ^= c * src[i] for each i — the inner loop of
// both encode and decode. It works a 64-bit word at a time: eight table
// lookups are packed into one word and XORed into dst with a single
// load and store, then a byte loop finishes the tail.
func gfMulAddSlice(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	mt := &gfMulTable[c]
	n := len(src)
	dst = dst[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i : i+8])
		p := uint64(mt[byte(s)]) |
			uint64(mt[byte(s>>8)])<<8 |
			uint64(mt[byte(s>>16)])<<16 |
			uint64(mt[byte(s>>24)])<<24 |
			uint64(mt[byte(s>>32)])<<32 |
			uint64(mt[byte(s>>40)])<<40 |
			uint64(mt[byte(s>>48)])<<48 |
			uint64(mt[byte(s>>56)])<<56
		d := dst[i : i+8]
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^p)
	}
	for ; i < n; i++ {
		dst[i] ^= mt[src[i]]
	}
}

// matrix is a byte matrix in row-major order.
type matrix struct {
	rows, cols int
	d          []byte
}

func newMatrix(rows, cols int) matrix {
	return matrix{rows: rows, cols: cols, d: make([]byte, rows*cols)}
}

func (m matrix) at(r, c int) byte     { return m.d[r*m.cols+c] }
func (m matrix) set(r, c int, v byte) { m.d[r*m.cols+c] = v }
func (m matrix) row(r int) []byte     { return m.d[r*m.cols : (r+1)*m.cols] }

// vandermonde returns the rows×cols matrix V[i][j] = α_i^j with α_i the
// i-th power of the field generator — distinct evaluation points, so any
// cols×cols submatrix is invertible (the classic Vandermonde property).
func vandermonde(rows, cols int) matrix {
	m := newMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		// α_r = gfExp[r]; α_r^c = gfExp[(r*c) % 255].
		for c := 0; c < cols; c++ {
			m.set(r, c, gfExp[(r*c)%255])
		}
	}
	return m
}

// mul returns m·o.
func (m matrix) mul(o matrix) matrix {
	out := newMatrix(m.rows, o.cols)
	for r := 0; r < m.rows; r++ {
		orow := out.row(r)
		for k := 0; k < m.cols; k++ {
			gfMulAddSlice(orow, o.row(k), m.at(r, k))
		}
	}
	return out
}

// invert returns the inverse of a square matrix via Gauss-Jordan
// elimination, or ok == false when the matrix is singular.
func (m matrix) invert() (matrix, bool) {
	if m.rows != m.cols {
		return matrix{}, false
	}
	n := m.rows
	// Augment [work | I] and reduce work to I in place.
	work := newMatrix(n, n)
	copy(work.d, m.d)
	inv := newMatrix(n, n)
	for i := 0; i < n; i++ {
		inv.set(i, i, 1)
	}
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return matrix{}, false
		}
		if pivot != col {
			wp, wc := work.row(pivot), work.row(col)
			for i := range wp {
				wp[i], wc[i] = wc[i], wp[i]
			}
			ip, ic := inv.row(pivot), inv.row(col)
			for i := range ip {
				ip[i], ic[i] = ic[i], ip[i]
			}
		}
		// Scale the pivot row to 1.
		if p := work.at(col, col); p != 1 {
			pi := gfInv(p)
			gfMulSlice(work.row(col), work.row(col), pi)
			gfMulSlice(inv.row(col), inv.row(col), pi)
		}
		// Eliminate the column everywhere else.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if f := work.at(r, col); f != 0 {
				gfMulAddSlice(work.row(r), work.row(col), f)
				gfMulAddSlice(inv.row(r), inv.row(col), f)
			}
		}
	}
	return inv, true
}
