// Package bits provides the bit-level node algebra for d-dimensional
// hypercube node identifiers, following the conventions of Flocchini,
// Huang and Luccio (IPPS 2005).
//
// A node of the hypercube H_d is a d-bit binary string stored in a Node
// (an unsigned integer). Bit positions are numbered 1..d, where position
// i corresponds to the integer value 1<<(i-1). The paper's "most
// significant bit" function m(x) is Msb: the highest set position, with
// m(0) = 0. The paper's lexicographic order on binary strings coincides
// with unsigned integer order, which this package uses throughout.
package bits

import (
	"fmt"
	mathbits "math/bits"
	"strings"
)

// Node is a hypercube node identifier: a d-bit binary string packed into
// an unsigned integer. The dimension d is carried separately (the zero
// string of every dimension is the integer 0).
type Node uint32

// MaxDim is the largest supported hypercube dimension. 30 keeps every
// node id inside a Node and every node count inside an int on all
// platforms; simulations in this repository use far smaller dimensions.
const MaxDim = 30

// CheckDim panics if d is outside [0, MaxDim]. It is used by
// constructors of dimension-parameterized structures.
func CheckDim(d int) {
	if d < 0 || d > MaxDim {
		panic(fmt.Sprintf("bits: dimension %d out of range [0,%d]", d, MaxDim))
	}
}

// Msb returns m(x): the position (1-based) of the most significant set
// bit of x, with Msb(0) = 0.
func Msb(x Node) int {
	return mathbits.Len32(uint32(x))
}

// Dim returns d such that n == 2^d: the hypercube dimension recovered
// from its node count. It panics unless n is a power of two in
// [1, 2^MaxDim].
func Dim(n int) int {
	if n <= 0 || n&(n-1) != 0 || n > 1<<MaxDim {
		panic(fmt.Sprintf("bits: %d is not a hypercube order", n))
	}
	return mathbits.TrailingZeros32(uint32(n))
}

// Level returns the level of x in the hypercube's level decomposition:
// the number of 1-bits in its binary string.
func Level(x Node) int {
	return mathbits.OnesCount32(uint32(x))
}

// Bit reports whether position i (1-based) of x is set.
func Bit(x Node, i int) bool {
	return x&(1<<(i-1)) != 0
}

// Set returns x with position i (1-based) set.
func Set(x Node, i int) Node {
	return x | 1<<(i-1)
}

// Clear returns x with position i (1-based) cleared.
func Clear(x Node, i int) Node {
	return x &^ (1 << (i - 1))
}

// Flip returns x with position i (1-based) flipped. Flipping position i
// moves along the hypercube edge labelled i.
func Flip(x Node, i int) Node {
	return x ^ 1<<(i-1)
}

// Label returns the hypercube edge label λ_x(x, y): the position of the
// single bit in which the neighbouring nodes x and y differ. It panics
// if x and y are not hypercube neighbours.
func Label(x, y Node) int {
	diff := uint32(x ^ y)
	if diff == 0 || diff&(diff-1) != 0 {
		panic(fmt.Sprintf("bits: %d and %d are not neighbours", x, y))
	}
	return mathbits.Len32(diff)
}

// IsNeighbour reports whether x and y differ in exactly one bit
// position, i.e. whether (x, y) is a hypercube edge.
func IsNeighbour(x, y Node) bool {
	diff := uint32(x ^ y)
	return diff != 0 && diff&(diff-1) == 0
}

// Neighbours returns the d neighbours of x in H_d, ordered by edge label
// 1..d. The result is freshly allocated.
func Neighbours(x Node, d int) []Node {
	out := make([]Node, d)
	for i := 1; i <= d; i++ {
		out[i-1] = Flip(x, i)
	}
	return out
}

// VisitNeighbours calls yield for each neighbour of x in H_d in
// increasing label order (the order Neighbours returns), stopping early
// when yield returns false. It allocates nothing: each neighbour is one
// XOR away.
func VisitNeighbours(x Node, d int, yield func(y Node) bool) {
	for i := 1; i <= d; i++ {
		if !yield(x ^ 1<<(i-1)) {
			return
		}
	}
}

// VisitSmallerNeighbours calls yield for each neighbour y of x with
// label λ(x,y) <= m(x), in increasing label order, allocation-free.
func VisitSmallerNeighbours(x Node, yield func(y Node) bool) {
	m := Msb(x)
	for i := 1; i <= m; i++ {
		if !yield(x ^ 1<<(i-1)) {
			return
		}
	}
}

// VisitBiggerNeighbours calls yield for each neighbour y of x with
// label λ(x,y) > m(x) — the broadcast-tree children of x in H_d — in
// increasing label order, allocation-free.
func VisitBiggerNeighbours(x Node, d int, yield func(y Node) bool) {
	for i := Msb(x) + 1; i <= d; i++ {
		if !yield(x | 1<<(i-1)) {
			return
		}
	}
}

// SmallerNeighbours returns the neighbours y of x with label
// λ(x,y) <= m(x) (Definition 2 of the paper), ordered by label. The root
// 0 has no smaller neighbours.
func SmallerNeighbours(x Node, d int) []Node {
	m := Msb(x)
	if m > d {
		panic(fmt.Sprintf("bits: node %d does not fit in dimension %d", x, d))
	}
	out := make([]Node, 0, m)
	for i := 1; i <= m; i++ {
		out = append(out, Flip(x, i))
	}
	return out
}

// BiggerNeighbours returns the neighbours y of x with label
// λ(x,y) > m(x), ordered by label. These are exactly the children of x
// in the broadcast (heap queue) spanning tree of H_d.
func BiggerNeighbours(x Node, d int) []Node {
	m := Msb(x)
	if m > d {
		panic(fmt.Sprintf("bits: node %d does not fit in dimension %d", x, d))
	}
	out := make([]Node, 0, d-m)
	for i := m + 1; i <= d; i++ {
		out = append(out, Set(x, i))
	}
	return out
}

// Parent returns the broadcast-tree parent of x: x with its most
// significant bit cleared. It panics on the root 0, which has no parent.
func Parent(x Node) Node {
	if x == 0 {
		panic("bits: the root 0 has no broadcast-tree parent")
	}
	return Clear(x, Msb(x))
}

// TreeType returns k such that x is the root of a heap-queue subtree of
// type T(k) in the broadcast tree of H_d: d - m(x). The hypercube root 0
// has type T(d); broadcast-tree leaves have type T(0).
func TreeType(x Node, d int) int {
	m := Msb(x)
	if m > d {
		panic(fmt.Sprintf("bits: node %d does not fit in dimension %d", x, d))
	}
	return d - m
}

// IsTreeLeaf reports whether x is a leaf of the broadcast tree of H_d,
// i.e. of type T(0): its most significant bit is at position d.
func IsTreeLeaf(x Node, d int) bool {
	return TreeType(x, d) == 0
}

// Class returns i such that x belongs to class C_i of the paper's
// Section 4: the set of nodes whose most significant bit is at position
// i (C_0 = {0}).
func Class(x Node) int {
	return Msb(x)
}

// HammingDistance returns the number of bit positions in which x and y
// differ: the hypercube graph distance between them.
func HammingDistance(x, y Node) int {
	return mathbits.OnesCount32(uint32(x ^ y))
}

// HammingPath returns a shortest hypercube path from x to y, inclusive
// of both endpoints. Differing bits are corrected in increasing label
// order, clearing bits (moving toward lower levels) before setting bits;
// this keeps intermediate nodes at the lowest levels available, which
// matters to the coordinated strategy's synchronizer (lower levels are
// the already-clean region).
func HammingPath(x, y Node, d int) []Node {
	path := make([]Node, 0, HammingDistance(x, y)+1)
	cur := x
	path = append(path, cur)
	for i := 1; i <= d; i++ { // clear bits set in x but not in y
		if Bit(cur, i) && !Bit(y, i) {
			cur = Clear(cur, i)
			path = append(path, cur)
		}
	}
	for i := 1; i <= d; i++ { // then set bits missing from x
		if !Bit(cur, i) && Bit(y, i) {
			cur = Set(cur, i)
			path = append(path, cur)
		}
	}
	return path
}

// NextHopToward returns the neighbour of cur that is the next vertex on
// HammingPath(cur, dst, d), or cur itself when cur == dst. Stepping
// this function until arrival visits exactly the vertices HammingPath
// returns — bits that must be cleared go first, lowest position first,
// then bits that must be set, lowest first — without allocating the
// path slice. Walkers use it for incremental routing.
func NextHopToward(cur, dst Node) Node {
	if extra := uint32(cur &^ dst); extra != 0 {
		return cur &^ Node(extra&-extra) // clear the lowest surplus bit
	}
	if missing := uint32(dst &^ cur); missing != 0 {
		return cur | Node(missing&-missing) // set the lowest missing bit
	}
	return cur
}

// String renders x as a d-bit binary string, most significant position
// (d) first, matching the figures of the paper.
func String(x Node, d int) string {
	var b strings.Builder
	b.Grow(d)
	for i := d; i >= 1; i-- {
		if Bit(x, i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Parse converts a binary string (most significant position first, as
// produced by String) back into a Node. It returns an error on empty
// input, input longer than MaxDim, or non-binary characters.
func Parse(s string) (Node, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("bits: empty node string")
	}
	if len(s) > MaxDim {
		return 0, fmt.Errorf("bits: node string %q longer than max dimension %d", s, MaxDim)
	}
	var x Node
	for _, c := range s {
		switch c {
		case '0':
			x <<= 1
		case '1':
			x = x<<1 | 1
		default:
			return 0, fmt.Errorf("bits: invalid character %q in node string %q", c, s)
		}
	}
	return x, nil
}

// NodesAtLevel returns all nodes of H_d with exactly l one-bits, in
// increasing (lexicographic) order. It panics if l is outside [0, d].
func NodesAtLevel(d, l int) []Node {
	CheckDim(d)
	if l < 0 || l > d {
		panic(fmt.Sprintf("bits: level %d out of range [0,%d]", l, d))
	}
	out := make([]Node, 0)
	if l == 0 {
		return append(out, 0)
	}
	for v, limit := Node(1)<<l-1, Node(1)<<d; v < limit; v = NextAtLevel(v) {
		out = append(out, v)
	}
	return out
}

// NextAtLevel returns the smallest node above x with as many one-bits
// as x (Gosper's hack): stepping it from the level's first node
// 1<<l - 1 enumerates level l in increasing order. x must be non-zero.
func NextAtLevel(x Node) Node {
	c := x & -x
	r := x + c
	return ((r^x)>>2)/c | r
}

// VisitNodesAtLevel calls yield for every node of H_d with exactly l
// one-bits, in increasing (lexicographic) order, stopping early when
// yield returns false. It enumerates with Gosper's hack and allocates
// nothing — the big-board engines walk million-node levels through it
// without materializing the level slice. It panics if l is outside
// [0, d].
func VisitNodesAtLevel(d, l int, yield func(x Node) bool) {
	CheckDim(d)
	if l < 0 || l > d {
		panic(fmt.Sprintf("bits: level %d out of range [0,%d]", l, d))
	}
	if l == 0 {
		yield(0)
		return
	}
	for v, limit := Node(1)<<l-1, Node(1)<<d; v < limit; v = NextAtLevel(v) {
		if !yield(v) {
			return
		}
	}
}

// NodesInClass returns all nodes of class C_i in increasing order:
// C_0 = {0}; for i >= 1, the 2^(i-1) nodes with msb at position i.
func NodesInClass(d, i int) []Node {
	CheckDim(d)
	if i < 0 || i > d {
		panic(fmt.Sprintf("bits: class %d out of range [0,%d]", i, d))
	}
	if i == 0 {
		return []Node{0}
	}
	base := Node(1) << (i - 1)
	out := make([]Node, 0, 1<<(i-1))
	for low := Node(0); low < base; low++ {
		out = append(out, base|low)
	}
	return out
}
