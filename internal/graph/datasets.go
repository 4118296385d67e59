package graph

import "fmt"

// DatasetSpec names a synthetic stand-in for one of the real graphs used
// in Figures 2 and 8. Vertices/Edges match the published sizes of the
// originals (SNAP [45] / LAW [29]); Generate builds an R-MAT graph of
// that shape. See DESIGN.md §3 for why R-MAT preserves the relevant
// behaviour (footprint and power-law degree skew).
type DatasetSpec struct {
	Name     string
	Vertices int
	Edges    int
	Seed     int64
}

// Figure2Graphs lists the nine graphs of Figures 2 and 8 in ascending
// vertex-count order, the order the paper plots them in.
var Figure2Graphs = []DatasetSpec{
	{Name: "p2p-Gnutella31", Vertices: 62_586, Edges: 147_892, Seed: 1},
	{Name: "soc-Slashdot0811", Vertices: 77_360, Edges: 905_468, Seed: 2},
	{Name: "web-Stanford", Vertices: 281_903, Edges: 2_312_497, Seed: 3},
	{Name: "amazon-2008", Vertices: 735_323, Edges: 5_158_388, Seed: 4},
	{Name: "web-Google", Vertices: 875_713, Edges: 5_105_039, Seed: 5},
	{Name: "frwiki-2013", Vertices: 1_352_053, Edges: 34_378_431, Seed: 6},
	{Name: "wiki-Talk", Vertices: 2_394_385, Edges: 5_021_410, Seed: 7},
	{Name: "cit-Patents", Vertices: 3_774_768, Edges: 16_518_948, Seed: 8},
	{Name: "soc-LiveJournal1", Vertices: 4_847_571, Edges: 68_993_773, Seed: 9},
}

// Table3Graphs gives the small/medium/large graph inputs of Table 3.
var Table3Graphs = map[string]DatasetSpec{
	"small":  {Name: "soc-Slashdot0811", Vertices: 77_360, Edges: 905_468, Seed: 2},
	"medium": {Name: "frwiki-2013", Vertices: 1_352_053, Edges: 34_378_431, Seed: 6},
	"large":  {Name: "soc-LiveJournal1", Vertices: 4_847_571, Edges: 68_993_773, Seed: 9},
}

// Scaled returns the spec shrunk by factor (vertices and edges divided),
// used to keep simulations laptop-scale while preserving the
// footprint-to-cache-size ratios when the cache configuration is scaled
// by the same factor.
func (d DatasetSpec) Scaled(factor int) DatasetSpec {
	if factor <= 1 {
		return d
	}
	s := d
	s.Name = fmt.Sprintf("%s/%d", d.Name, factor)
	s.Vertices = max(16, d.Vertices/factor)
	s.Edges = max(32, d.Edges/factor)
	return s
}

// Generate builds the synthetic graph.
func (d DatasetSpec) Generate() *Graph {
	g := RMAT(d.Vertices, d.Edges, d.Seed)
	g.Name = d.Name
	return g
}
