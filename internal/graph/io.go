package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// WriteEdgeList writes the graph as "numVertices" header line followed
// by "src dst" pairs, a format users can swap for real SNAP downloads.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# vertices %d edges %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, d := range g.Successors(v) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", v, d); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the WriteEdgeList format (or a raw SNAP edge list
// when the header is absent — vertex count inferred as max id + 1).
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var src, dst []int32
	// The vertex count is the header's, grown to cover every edge id
	// wherever the header sits.
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var v, e int
			if _, err := fmt.Sscanf(line, "# vertices %d edges %d", &v, &e); err == nil {
				if v < 0 || v > math.MaxInt32 {
					return nil, fmt.Errorf("graph: header vertex count %d out of range [0,%d]", v, math.MaxInt32)
				}
				n = max(n, v)
			}
			continue
		}
		var s, d int32
		if _, err := fmt.Sscanf(line, "%d %d", &s, &d); err != nil {
			return nil, fmt.Errorf("graph: bad edge line %q: %w", line, err)
		}
		src = append(src, s)
		dst = append(dst, d)
		n = max(n, int(s)+1, int(d)+1)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromEdgeList(n, src, dst)
}

// SaveFile and LoadFile are file-path conveniences.
func (g *Graph) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteEdgeList(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}
