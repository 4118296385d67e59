package workloads

import (
	"runtime"
	"testing"

	"pimsim/internal/graph"
	"pimsim/internal/memlayout"
)

// layoutBytes returns the heap bytes one LayoutGraph of g onto a fresh
// store allocates.
func layoutBytes(g *graph.Graph) uint64 {
	st := memlayout.NewStore()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	LayoutGraph(st, g)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLayoutGraphNoCopy holds LayoutGraph to a constant number of bytes
// whatever the edge count: the store maps the graph's edge array instead
// of copying it. A 256x larger graph must allocate no more than a small
// one, and both far less than one edge array.
func TestLayoutGraphNoCopy(t *testing.T) {
	small := graph.RMAT(1<<10, 1<<12, 5)
	large := graph.RMAT(1<<14, 1<<20, 5)
	smallBytes, largeBytes := layoutBytes(small), layoutBytes(large)
	for range 3 { // keep the least of a few tries, in case a runtime goroutine allocated
		smallBytes, largeBytes = min(smallBytes, layoutBytes(small)), min(largeBytes, layoutBytes(large))
	}
	if largeBytes > smallBytes || largeBytes >= 4*uint64(small.NumEdges()) {
		t.Fatalf("LayoutGraph allocates %d B for %d edges and %d B for %d edges, want the same few bytes for both",
			smallBytes, small.NumEdges(), largeBytes, large.NumEdges())
	}
	st := memlayout.NewStore()
	gm := LayoutGraph(st, large)
	for _, e := range []int{0, 1, large.NumEdges() / 2, large.NumEdges() - 1} {
		if got, want := st.ReadU32(gm.EdgeAddr(int64(e))), uint32(large.Edges[e]); got != want {
			t.Fatalf("edge %d reads %d from the store, want %d", e, got, want)
		}
	}
}
