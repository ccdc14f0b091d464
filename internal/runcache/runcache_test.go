package runcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"suvtm/internal/stats"
)

func testEntry(cycles uint64) *Entry {
	e := &Entry{
		Cycles:     cycles,
		PerCore:    make([]stats.Breakdown, 2),
		PoolPages:  3,
		RedirectEn: 7,
	}
	e.Breakdown.Cycles[stats.Trans] = cycles / 2
	e.Counters.TxCommitted = 42
	return e
}

func testKey(b byte) Key {
	var k Key
	k[0] = b
	return k
}

func TestMemoryTier(t *testing.T) {
	c := New()
	k := testKey(1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	e := testEntry(1000)
	if err := c.Put(k, e); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || !got.Equal(e) {
		t.Fatalf("Get after Put: ok=%v entry=%+v", ok, got)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Stores != 1 || s.DiskWrites != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestCoalesced: a miss whose key another run then stored is recounted
// as a hit; a key nobody stored stays a miss.
func TestCoalesced(t *testing.T) {
	c := New()
	k, absent := testKey(1), testKey(2)
	c.Get(k)
	c.Get(absent)
	e := testEntry(1000)
	if err := c.Put(k, e); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Coalesced(k); !ok || got != e {
		t.Fatalf("Coalesced(stored) = %v, %v", got, ok)
	}
	if _, ok := c.Coalesced(absent); ok {
		t.Fatal("Coalesced served a key nobody stored")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Stores != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 store", s)
	}
}

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := New()
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	k, e := testKey(2), testEntry(2000)
	if err := c.Put(k, e); err != nil {
		t.Fatal(err)
	}
	path := c.EntryPath(k)
	if !strings.Contains(path, filepath.Join(dir, fmt.Sprintf("v%d", Version))) {
		t.Fatalf("entry path %q is not under the versioned dir", path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry not on disk: %v", err)
	}

	// A second cache over the same dir must serve the entry from disk.
	c2 := New()
	if err := c2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(k)
	if !ok || !got.Equal(e) {
		t.Fatalf("disk read back: ok=%v entry=%+v", ok, got)
	}
	s := c2.Stats()
	if s.DiskHits != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// The disk hit was promoted: a second Get stays in memory.
	if _, ok := c2.Get(k); !ok {
		t.Fatal("promoted entry lost")
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.Hits != 2 {
		t.Fatalf("stats after promotion = %+v", s)
	}
}

// TestCorruptEntries checks every corruption mode degrades to a miss
// (live re-run) instead of an error: garbage bytes, truncation, a
// version mismatch, and a key mismatch (misplaced file).
func TestCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	seed := New()
	if err := seed.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	k, e := testKey(3), testEntry(3000)
	if err := seed.Put(k, e); err != nil {
		t.Fatal(err)
	}
	path := seed.EntryPath(k)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"garbage":   []byte("not json at all"),
		"truncated": valid[:len(valid)/2],
		"empty":     nil,
	}
	var de diskEntry
	if err := json.Unmarshal(valid, &de); err != nil {
		t.Fatal(err)
	}
	de.Version = Version + 1
	cases["version-mismatch"], _ = json.Marshal(de)
	de.Version = Version
	de.Key = strings.Repeat("ab", 32)
	cases["key-mismatch"], _ = json.Marshal(de)

	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			c := New()
			if err := c.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(k); ok {
				t.Fatal("corrupt entry was served")
			}
			s := c.Stats()
			if s.Corrupt != 1 || s.Misses != 1 {
				t.Fatalf("stats = %+v", s)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry was not removed: %v", err)
			}
			// The slot is reusable: a fresh Put serves again.
			if err := c.Put(k, e); err != nil {
				t.Fatal(err)
			}
			c2 := New()
			if err := c2.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			if got, ok := c2.Get(k); !ok || !got.Equal(e) {
				t.Fatal("rewrite after corruption did not take")
			}
		})
	}
}

// TestAtomicWrite checks no partially-written entry file is ever left
// visible under the final name: the directory holds only complete
// entries (plus possibly temp files, which Get never reads).
func TestAtomicWrite(t *testing.T) {
	dir := t.TempDir()
	c := New()
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				k := testKey(byte(i*20 + j))
				if err := c.Put(k, testEntry(uint64(j))); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	entries, err := os.ReadDir(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", de.Name())
		}
		data, err := os.ReadFile(filepath.Join(c.Dir(), de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var env diskEntry
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("entry %s is not complete JSON: %v", de.Name(), err)
		}
	}
	if len(entries) != 160 {
		t.Fatalf("expected 160 entries, found %d", len(entries))
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := testKey(byte(i % 32))
				if e, ok := c.Get(k); ok {
					if e.Counters.TxCommitted != 42 {
						t.Error("torn entry")
						return
					}
				} else {
					c.Put(k, testEntry(uint64(i)))
				}
				c.Bypass()
			}
		}(w)
	}
	wg.Wait()
	if c.Len() != 32 {
		t.Fatalf("expected 32 entries, got %d", c.Len())
	}
	if got := c.Stats().Bypasses; got != 8*200 {
		t.Fatalf("bypasses = %d", got)
	}
}

func TestEntryEqual(t *testing.T) {
	a, b := testEntry(10), testEntry(10)
	if !a.Equal(b) {
		t.Fatal("identical entries unequal")
	}
	b.PerCore[1].Cycles[stats.Wasted] = 1
	if a.Equal(b) {
		t.Fatal("per-core divergence not detected")
	}
	b = testEntry(11)
	if a.Equal(b) {
		t.Fatal("cycle divergence not detected")
	}
	if a.Equal(nil) {
		t.Fatal("nil comparison")
	}
}

// TestConcurrentWritersSharedDir models two cache tenants (two
// processes in real life, two Cache instances here) pounding one disk
// directory: overlapping writers on the same and different keys, a
// reader racing them, and a pre-planted corrupt entry that must be
// evicted — never served — while the writers run. Exercises the
// O_EXCL per-writer temp names: without them, interleaved writes into
// a shared temp file would publish torn entries.
func TestConcurrentWritersSharedDir(t *testing.T) {
	dir := t.TempDir()
	a, b := New(), New()
	if err := a.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := b.SetDir(dir); err != nil {
		t.Fatal(err)
	}

	// Plant a corrupt entry under a key both tenants will read.
	corrupt := testKey(200)
	if err := os.WriteFile(a.EntryPath(corrupt), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	const keys = 8
	const rounds = 25
	var wg sync.WaitGroup
	for _, c := range []*Cache{a, b} {
		wg.Add(1)
		go func(c *Cache) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < keys; i++ {
					k := testKey(byte(i))
					if err := c.Put(k, testEntry(uint64(1000+i))); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				}
				if _, ok := c.Get(corrupt); ok {
					t.Error("corrupt entry was served")
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() { // a cold reader racing the writers sees whole entries only
		defer wg.Done()
		r := New()
		if err := r.SetDir(dir); err != nil {
			t.Error(err)
			return
		}
		for n := 0; n < keys*rounds; n++ {
			k := testKey(byte(n % keys))
			if e, ok := r.Get(k); ok && e.Cycles != uint64(1000+n%keys) {
				t.Errorf("torn entry for key %d: cycles=%d", n%keys, e.Cycles)
				return
			}
		}
	}()
	wg.Wait()

	if got := a.Stats().Corrupt + b.Stats().Corrupt; got == 0 {
		t.Error("corrupt entry was never detected")
	}
	// The eviction leaves the slot rewritable: a fresh Put round-trips.
	if err := a.Put(corrupt, testEntry(7)); err != nil {
		t.Fatal(err)
	}
	fresh := New()
	if err := fresh.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if e, ok := fresh.Get(corrupt); !ok || e.Cycles != 7 {
		t.Fatalf("rewritten entry not served: ok=%v", ok)
	}
	// No temp litter: every .tmp-* either renamed into place or removed.
	ents, err := os.ReadDir(a.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", de.Name())
		}
	}
}
