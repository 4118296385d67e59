package graph

import (
	"bytes"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

func TestReadEdgeListRejectsBadHeader(t *testing.T) {
	for _, in := range []string{
		"# vertices -5 edges 0\n",
		"# vertices 2147483648 edges 0\n",
		"0 1\n# vertices -1 edges 1\n",
	} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("ReadEdgeList(%q): expected an error", in)
		}
	}
	if _, err := FromEdgeList(-1, nil, nil); err == nil {
		t.Error("FromEdgeList(-1): expected an error")
	}
}

// A header after the edges must not shrink the vertex count below
// max id + 1.
func TestReadEdgeListLateHeader(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 7\n# vertices 3 edges 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 8 || g.NumEdges() != 1 {
		t.Fatalf("size %d/%d, want 8/1", g.NumVertices(), g.NumEdges())
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := RMAT(64, 256, 9)
	path := filepath.Join(t.TempDir(), "g.el")
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCSR(g, g2) {
		t.Fatal("SaveFile/LoadFile changed the graph")
	}
}

func sameCSR(a, b *Graph) bool {
	return slices.Equal(a.Offsets, b.Offsets) && slices.Equal(a.Edges, b.Edges)
}

// declaresHuge reports whether any decimal number in the input exceeds
// 1<<20, which could ask ReadEdgeList for a graph too big to fuzz with.
func declaresHuge(in string) bool {
	for _, f := range strings.FieldsFunc(in, func(r rune) bool { return !unicode.IsDigit(r) }) {
		if v, err := strconv.ParseUint(f, 10, 64); err != nil || v > 1<<20 {
			return true
		}
	}
	return false
}

// FuzzReadEdgeList: every input yields an error or a graph that survives
// a WriteEdgeList/ReadEdgeList round trip unchanged.
func FuzzReadEdgeList(f *testing.F) {
	for _, g := range []*Graph{RMAT(16, 40, 1), RMAT(5, 12, 2), {Offsets: []int64{0}}} {
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("# vertices -5 edges 0\n")
	f.Add("0 7\n# vertices 3 edges 1\n")
	f.Add("3 1\n\n  2 0  \n")
	f.Fuzz(func(t *testing.T, in string) {
		if declaresHuge(in) {
			t.Skip()
		}
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-reading %q: %v", buf.String(), err)
		}
		if !sameCSR(g, g2) {
			t.Fatalf("round trip changed the graph read from %q", in)
		}
	})
}
