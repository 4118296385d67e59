package snap

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
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

	atime time.Time // mtime when listed: the LRU's access time
}

var blobName = regexp.MustCompile(`^([0-9a-f]+)-p(\d+)-c(\d+)\.snap$`)

// StoreStats is a point-in-time snapshot of the store's counters, the
// shape Prometheus gauges and the harness's warm-start report consume.
type StoreStats struct {
	Hits, Misses int64
	BytesWritten int64
	Evictions    int64
	Entries      int
	Bytes        int64
}

// Store is a filesystem-backed, content-addressed snapshot blob store
// with a byte-budget LRU (access-time order, mirroring the serve result
// cache's eviction discipline). It is safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	dir    string
	budget int64 // bytes; <= 0 means unlimited

	hits, misses, bytesWritten, evictions int64
}

// NewStore opens (creating if needed) a snapshot store rooted at dir
// with the given byte budget (<= 0 for unlimited).
func NewStore(dir string, budget int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("snap: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snap: creating store: %w", err)
	}
	return &Store{dir: dir, budget: budget}, nil
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
			atime:  info.ModTime(),
		})
	}
	return blobs
}

// Best returns the deepest (highest-phase) snapshot stored for digest,
// counting a hit or miss. Only entries named for digest are examined.
// A hit refreshes the blob's access time so the LRU keeps warm prefixes
// resident.
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
	now := time.Now()
	_ = os.Chtimes(best.Path, now, now)
	return best, true
}

// Put stores the snapshot for (digest, phase, cycle) that write
// produces, then evicts least-recently-used blobs beyond the byte
// budget. write streams straight into a temp file in the store's
// directory, which is renamed into place only if write and the close
// succeed, so readers never see a torn blob and a failed write leaves
// nothing behind. The store's lock is held only for the rename, the
// counters and eviction, so concurrent Puts write their files in
// parallel.
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
	s.evict()
	return nil
}

// evict removes least-recently-used blobs until the store fits the
// budget. Caller holds mu. A single blob larger than the whole budget
// is evicted too — mirroring the result cache's "oversized values are
// not retained" rule.
func (s *Store) evict() {
	if s.budget <= 0 {
		return
	}
	blobs := s.list("")
	var used int64
	for _, b := range blobs {
		used += b.Size
	}
	if used <= s.budget {
		return
	}
	sort.Slice(blobs, func(i, j int) bool {
		if !blobs[i].atime.Equal(blobs[j].atime) {
			return blobs[i].atime.Before(blobs[j].atime)
		}
		return blobs[i].Path < blobs[j].Path
	})
	for _, b := range blobs {
		if used <= s.budget {
			break
		}
		if os.Remove(b.Path) == nil {
			used -= b.Size
			s.evictions++
		}
	}
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
		Evictions:    s.evictions,
	}
	for _, b := range s.list("") {
		st.Entries++
		st.Bytes += b.Size
	}
	return st
}
