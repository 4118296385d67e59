package workloads

import (
	"fmt"
	"runtime"
	"sync"

	"pimsim/internal/graph"
	"pimsim/internal/machine"
	"pimsim/internal/memlayout"
)

// GraphMem is a CSR graph laid out in simulated memory: the edge-target
// array lives in the store so edge-list traversal generates real
// sequential loads, while per-vertex property arrays are allocated by
// each workload.
type GraphMem struct {
	G        *graph.Graph
	edgeBase uint64
}

// LayoutGraph places g's edge array (4 bytes per target) in the store.
// The store maps g.Edges read-only rather than copying it: graphs are
// immutable once built, and the simulated loads use only the addresses.
// An edgeless graph still takes one zero word, so later allocations
// land where they always have.
func LayoutGraph(st *memlayout.Store, g *graph.Graph) *GraphMem {
	gm := &GraphMem{G: g}
	if len(g.Edges) == 0 {
		gm.edgeBase = st.Alloc(4, 64)
	} else {
		gm.edgeBase = st.MapU32(g.Edges, 64)
	}
	return gm
}

// EdgeAddr returns the simulated address of edge index e.
func (gm *GraphMem) EdgeAddr(e int64) uint64 { return gm.edgeBase + uint64(e)*4 }

// graphInput resolves a Params into the Table 3 graph for the size,
// scaled down by Scale.
func graphInput(p Params) graph.DatasetSpec {
	if p.Graph != nil {
		return p.Graph.Scaled(p.Scale)
	}
	var spec graph.DatasetSpec
	switch p.Size {
	case Small:
		spec = graph.Table3Graphs["small"]
	case Medium:
		spec = graph.Table3Graphs["medium"]
	default:
		spec = graph.Table3Graphs["large"]
	}
	spec.Seed += p.Seed * 131
	return spec.Scaled(p.Scale)
}

// graphCache memoizes generated graphs (and their symmetrized forms)
// across runs: the experiment harness builds the same dataset for each
// of the four system configurations, and generation dominates build time
// at large scales. Each key holds a *graphEntry, built once however many
// cells ask for it at the same time. Graphs are immutable after
// construction, so sharing is safe.
var graphCache sync.Map

type graphEntry struct {
	once sync.Once
	g    *graph.Graph
}

// cachedGraph returns spec's graph, symmetrized if asked, building it on
// first use; a symmetrized graph is derived from the cached directed one.
//
// A call that builds ends with one garbage collection, however many
// graphs it built. A build allocates about twice the graph it keeps
// (the builder's keys beside Edges), and a collection that fires
// mid-build would set the next heap goal from that transient;
// collecting once the scratch is dead sets it from what the run keeps
// instead (see DESIGN.md, "Footprint").
func cachedGraph(spec graph.DatasetSpec, symmetrize bool) *graph.Graph {
	g, built := loadGraph(spec, symmetrize)
	if built {
		runtime.GC()
	}
	return g
}

// loadGraph is cachedGraph without the collection; built reports
// whether this call ran the build.
func loadGraph(spec graph.DatasetSpec, symmetrize bool) (g *graph.Graph, built bool) {
	key := graphKey(spec, symmetrize)
	v, ok := graphCache.Load(key)
	if !ok {
		v, _ = graphCache.LoadOrStore(key, new(graphEntry))
	}
	e := v.(*graphEntry)
	e.once.Do(func() {
		built = true
		if symmetrize {
			d, _ := loadGraph(spec, false)
			e.g = d.Symmetrize()
		} else {
			e.g = spec.Generate()
		}
	})
	return e.g, built
}

func graphKey(spec graph.DatasetSpec, symmetrize bool) string {
	return fmt.Sprintf("%s/%d/%d/%d/%v", spec.Name, spec.Vertices, spec.Edges, spec.Seed, symmetrize)
}

// buildGraph generates (with caching) and lays out the input graph.
func buildGraph(m *machine.Machine, spec graph.DatasetSpec) *GraphMem {
	return LayoutGraph(m.Store, cachedGraph(spec, false))
}
