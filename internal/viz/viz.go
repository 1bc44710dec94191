// Package viz renders the paper's figures as deterministic ASCII art:
// Figure 1 (the broadcast tree T(6) of H_6), Figure 2 (the cleaning
// order under Algorithm CLEAN), Figure 3 (the classes C_i), and
// Figure 4 (the cleaning schedule under CLEAN WITH VISIBILITY).
package viz

import (
	"fmt"
	"sort"
	"strings"

	"hypersearch/internal/bits"
	"hypersearch/internal/board"
	"hypersearch/internal/heapqueue"
	"hypersearch/internal/hypercube"
)

// MaxFullBoardDim is the largest dimension the CLIs render a full
// board for or keep an in-memory trace of: 2^16 nodes. Past it such
// output would exhaust memory; streaming the trace to disk works at
// any dimension.
const MaxFullBoardDim = 16

// BroadcastTree renders the broadcast tree T(d) of H_d, one node per
// line, indented by depth, annotated with the node's bitstring and its
// heap-queue type — the content of the paper's Figure 1.
func BroadcastTree(d int) string {
	bt := heapqueue.New(d)
	var b strings.Builder
	fmt.Fprintf(&b, "Broadcast tree T(%d) of H_%d (%d nodes, %d leaves)\n",
		d, d, bt.Order(), len(bt.Leaves()))
	var rec func(v, depth int)
	rec = func(v, depth int) {
		fmt.Fprintf(&b, "%s%s  T(%d)\n", strings.Repeat("  ", depth),
			bits.String(bits.Node(v), d), bt.Type(v))
		for _, c := range bt.Children(v) {
			rec(c, depth+1)
		}
	}
	rec(0, 0)
	return b.String()
}

// Classes renders the class decomposition C_0..C_d of H_d — the
// content of the paper's Figure 3.
func Classes(d int) string {
	h := hypercube.New(d)
	var b strings.Builder
	fmt.Fprintf(&b, "Classes C_i of H_%d (C_i = nodes with msb at position i)\n", d)
	for i := 0; i <= d; i++ {
		nodes := h.NodesInClass(i)
		names := make([]string, len(nodes))
		for j, v := range nodes {
			names[j] = h.String(v)
		}
		fmt.Fprintf(&b, "C_%d (%2d): %s\n", i, len(nodes), strings.Join(names, " "))
	}
	return b.String()
}

// CleanOrder renders the order in which nodes settled in a finished
// run, grouped by level — the content of Figures 2 and 4. The order
// function is board.CleanOrder for the sequential figure (Figure 2)
// and board.CleanTime for the parallel schedule (Figure 4).
func CleanOrder(h *hypercube.Hypercube, b *board.Board, byTime bool) string {
	d := h.Dim()
	var out strings.Builder
	if byTime {
		out.WriteString("Cleaning schedule (node: settle step)\n")
	} else {
		out.WriteString("Cleaning order (node: settle rank)\n")
	}
	for l := 0; l <= d; l++ {
		nodes := h.NodesAtLevel(l)
		type entry struct {
			v    int
			mark int64
		}
		entries := make([]entry, 0, len(nodes))
		for _, v := range nodes {
			if byTime {
				entries = append(entries, entry{v, b.CleanTime(v)})
			} else {
				entries = append(entries, entry{v, int64(b.CleanOrder(v))})
			}
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].mark < entries[j].mark })
		parts := make([]string, len(entries))
		for i, e := range entries {
			parts[i] = fmt.Sprintf("%s:%d", h.String(e.v), e.mark)
		}
		fmt.Fprintf(&out, "level %d: %s\n", l, strings.Join(parts, " "))
	}
	return out.String()
}

// States renders a snapshot of node states level by level, one symbol
// per node: '#' contaminated, 'G' guarded, '.' clean. Handy for traces
// and the examples.
func States(h *hypercube.Hypercube, b *board.Board) string {
	d := h.Dim()
	var out strings.Builder
	for l := 0; l <= d; l++ {
		fmt.Fprintf(&out, "level %d: ", l)
		for _, v := range h.NodesAtLevel(l) {
			switch b.StateOf(v) {
			case board.Contaminated:
				out.WriteByte('#')
			case board.Guarded:
				out.WriteByte('G')
			default:
				out.WriteByte('.')
			}
		}
		out.WriteByte('\n')
	}
	return out.String()
}
