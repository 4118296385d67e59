package snap

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// put stores data as the blob for (digest, phase, cycle).
func put(s *Store, digest string, phase int, cycle int64, data []byte) error {
	return s.Put(digest, phase, cycle, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func TestStoreBestPicksDeepestPhase(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const digest = "feedface"
	if _, ok := s.Best(digest); ok {
		t.Fatal("empty store claimed a blob")
	}
	for phase, cycle := range map[int]int64{1: 100, 3: 900, 2: 400} {
		if err := put(s, digest, phase, cycle, []byte{byte(phase)}); err != nil {
			t.Fatal(err)
		}
	}
	put(s, "0123ef", 9, 999, []byte("x")) // different digest must not win

	b, ok := s.Best(digest)
	if !ok || b.Phase != 3 || b.Cycle != 900 || b.Digest != digest {
		t.Fatalf("Best = %+v, ok %v; want phase 3 cycle 900", b, ok)
	}
	data, err := os.ReadFile(b.Path)
	if err != nil || len(data) != 1 || data[0] != 3 {
		t.Fatalf("blob contents %v (%v)", data, err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 4 {
		t.Fatalf("stats %+v; want 1 hit, 1 miss, 4 entries", st)
	}
	if st.BytesWritten != 4 {
		t.Fatalf("bytes written %d, want 4", st.BytesWritten)
	}
}

func TestStoreEvictsLRUBeyondBudget(t *testing.T) {
	s, err := NewStore(t.TempDir(), 256)
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 100)
	for i, d := range []string{"aaaa", "bbbb", "cccc"} {
		if err := put(s, d, 1, 10, blob); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so LRU order is deterministic on coarse
		// filesystem timestamps.
		ts := time.Now().Add(time.Duration(i-10) * time.Second)
		os.Chtimes(filepath.Join(s.Dir(), d+"-p1-c10.snap"), ts, ts)
	}
	// 300 bytes resident vs a 256 budget: the oldest blob goes.
	put(s, "dddd", 1, 10, []byte{})
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions: %+v", st)
	}
	if st.Bytes > 256 {
		t.Fatalf("store over budget: %+v", st)
	}
	if _, ok := s.Best("aaaa"); ok {
		t.Fatal("oldest blob survived eviction")
	}
	if _, ok := s.Best("cccc"); !ok {
		t.Fatal("newest blob was evicted")
	}
}

func TestStoreBestRefreshesAccessTime(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	put(s, "aaaa", 1, 10, []byte("x"))
	old := time.Now().Add(-time.Hour)
	path := filepath.Join(s.Dir(), "aaaa-p1-c10.snap")
	os.Chtimes(path, old, old)
	if _, ok := s.Best("aaaa"); !ok {
		t.Fatal("blob vanished")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().After(old.Add(time.Minute)) {
		t.Fatalf("hit did not refresh access time: %v", info.ModTime())
	}
}

func TestStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a blob"), 0o644)
	os.WriteFile(filepath.Join(dir, "zzzz-p1-c10.snap.tmp123"), []byte("torn"), 0o644)
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("foreign files counted as blobs: %+v", st)
	}
	if _, ok := s.Best("zzzz"); ok {
		t.Fatal("temp file served as a blob")
	}
}

func TestStorePutFailureLeavesNothing(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := put(s, "aaaa", 1, 10, []byte("good")); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().BytesWritten
	boom := errors.New("encoder failed")
	err = s.Put("bbbb", 2, 20, func(w io.Writer) error {
		w.Write([]byte("half a blob"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Put returned %v, want the callback's error", err)
	}
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "aaaa-p1-c10.snap" {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("failed Put left files behind: %v", names)
	}
	if got := s.Stats().BytesWritten; got != before {
		t.Fatalf("BytesWritten %d after a failed Put, want %d", got, before)
	}
	if _, ok := s.Best("bbbb"); ok {
		t.Fatal("Best served the blob of a failed Put")
	}
}

func TestStoreBestMatchesWholeDigest(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := put(s, "aaaab", 1, 10, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if b, ok := s.Best("aaaa"); ok {
		t.Fatalf("Best(aaaa) served %s", b.Path)
	}
	if b, ok := s.Best("aaaab"); !ok || b.Digest != "aaaab" {
		t.Fatalf("Best(aaaab) = %+v, %v", b, ok)
	}
}

// TestStoreConcurrent runs Put, Best and Stats from many goroutines
// over a budgeted store; run it under -race.
func TestStoreConcurrent(t *testing.T) {
	s, err := NewStore(t.TempDir(), 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(g)}, 512)
			for i := 0; i < 20; i++ {
				digest := fmt.Sprintf("%04x", g*100+i%5)
				if err := put(s, digest, i, int64(i), data); err != nil {
					t.Error(err)
					return
				}
				s.Best(digest)
				s.Stats()
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Hits+st.Misses != 8*20 {
		t.Fatalf("lookups %d, want %d: %+v", st.Hits+st.Misses, 8*20, st)
	}
	if st.BytesWritten != 8*20*512 {
		t.Fatalf("bytes written %d, want %d", st.BytesWritten, 8*20*512)
	}
	if st.Bytes > 4<<10 {
		t.Fatalf("store over budget: %+v", st)
	}
}
