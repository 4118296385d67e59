package snap

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
)

// Blob identifies one stored snapshot: the machine's content-address
// digest plus the phase boundary and cycle it was taken at. Filenames
// encode all three (<digest>-p<phase>-c<cycle>.snap) so the store is
// both content-addressed and listable — tests and sweeps can pick the
// deepest usable phase without opening any blob.
type Blob struct {
	Digest string
	Phase  int
	Cycle  int64
	Path   string
	Size   int64
}

var blobName = regexp.MustCompile(`^([0-9a-f]+)-p(\d+)-c(\d+)\.snap$`)

// StoreStats is a point-in-time snapshot of the store's counters, the
// shape the harness's warm-start report consumes.
type StoreStats struct {
	Hits, Misses int64
	BytesWritten int64
	Entries      int
	Bytes        int64
}

// Store is a filesystem-backed, content-addressed snapshot blob store.
// It keeps every blob it is given; it is safe for concurrent use.
type Store struct {
	mu  sync.Mutex
	dir string

	hits, misses, bytesWritten int64
}

// NewStore opens (creating if needed) a snapshot store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("snap: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snap: creating store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// list returns the store's blobs whose names start with prefix ("" for
// all), unsorted. Other entries are skipped by name alone, before any
// parsing or stat.
func (s *Store) list(prefix string) []Blob {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var blobs []Blob
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		m := blobName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		phase, err1 := strconv.Atoi(m[2])
		cycle, err2 := strconv.ParseInt(m[3], 10, 64)
		info, err3 := e.Info()
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		blobs = append(blobs, Blob{
			Digest: m[1],
			Phase:  phase,
			Cycle:  cycle,
			Path:   filepath.Join(s.dir, e.Name()),
			Size:   info.Size(),
		})
	}
	return blobs
}

// Best returns the deepest (highest-phase) snapshot stored for digest,
// counting a hit or miss. Only entries named for digest are examined.
func (s *Store) Best(digest string) (Blob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best Blob
	found := false
	for _, b := range s.list(digest + "-p") {
		if !found || b.Phase > best.Phase {
			best, found = b, true
		}
	}
	if !found {
		s.misses++
		return Blob{}, false
	}
	s.hits++
	return best, true
}

// Put stores the snapshot for (digest, phase, cycle) that write
// produces. write streams straight into a temp file in the store's
// directory, which is renamed into place only if write and the close
// succeed, so readers never see a torn blob and a failed write leaves
// nothing behind. The store's lock is held only for the rename and the
// counters, so concurrent Puts write their files in parallel.
func (s *Store) Put(digest string, phase int, cycle int64, write func(io.Writer) error) error {
	name := fmt.Sprintf("%s-p%d-c%d.snap", digest, phase, cycle)
	tmp, err := os.CreateTemp(s.dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("snap: store put: %w", err)
	}
	err = write(tmp)
	info, serr := tmp.Stat()
	if err == nil {
		err = serr
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snap: store put: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snap: store put: %w", err)
	}
	s.bytesWritten += info.Size()
	return nil
}

// Stats returns a consistent snapshot of the store's counters plus its
// current entry count and resident bytes.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Hits:         s.hits,
		Misses:       s.misses,
		BytesWritten: s.bytesWritten,
	}
	for _, b := range s.list("") {
		st.Entries++
		st.Bytes += b.Size
	}
	return st
}
