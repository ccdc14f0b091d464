package runcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"suvtm/internal/stats"
)

func testEntry(cycles uint64) *Entry {
	e := &Entry{PoolPages: 3, RedirectEn: 7}
	e.Cycles = cycles
	e.PerCore = make([]stats.Breakdown, 2)
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

// TestDo: a hit is served without running; a miss runs and stores; four
// concurrent misses on one key run once when the run stores, and each
// runs itself when it stores nothing.
func TestDo(t *testing.T) {
	c := New()
	stored, e := testKey(1), testEntry(1000)
	if err := c.Put(stored, e); err != nil {
		t.Fatal(err)
	}
	if got, hit := c.Do(stored, func() *Entry { t.Fatal("a hit ran"); return nil }); !hit || got != e {
		t.Fatalf("hit: Do = %v, %v", got, hit)
	}
	miss := testEntry(2000)
	if got, hit := c.Do(testKey(2), func() *Entry { return miss }); hit || got != miss {
		t.Fatalf("miss: Do = %v, %v", got, hit)
	}
	if got, ok := c.Get(testKey(2)); !ok || got != miss {
		t.Fatal("a miss's entry was not stored")
	}
	if s := c.Stats(); s.Hits != 2 || s.Misses != 1 || s.Stores != 2 {
		t.Fatalf("stats = %+v, want 2 hits, 1 miss, 2 stores", s)
	}

	// concurrently has four callers miss on k at once (the first run
	// waits until every caller has counted its miss) and returns how many
	// times run ran and how many callers were served a hit.
	concurrently := func(k Key, entry *Entry) (runs, hits int) {
		c.Reset()
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, hit := c.Do(k, func() *Entry {
					for c.Stats().Misses < 4 {
						runtime.Gosched()
					}
					mu.Lock()
					runs++
					mu.Unlock()
					return entry
				})
				if got != entry {
					t.Errorf("Do returned %v, want the run's %v", got, entry)
				}
				if hit {
					mu.Lock()
					hits++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return runs, hits
	}
	if runs, hits := concurrently(testKey(3), testEntry(3000)); runs != 1 || hits != 3 {
		t.Errorf("storing run: %d runs and %d hits for 4 concurrent misses, want 1 and 3", runs, hits)
	}
	if s := c.Stats(); s.Hits != 3 || s.Misses != 1 || s.Stores != 1 {
		t.Errorf("storing run: stats = %+v, want 3 hits, 1 miss, 1 store", s)
	}
	if runs, hits := concurrently(testKey(4), nil); runs != 4 || hits != 0 {
		t.Errorf("non-storing run: %d runs and %d hits for 4 concurrent misses, want 4 and 0", runs, hits)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 4 || s.Stores != 0 {
		t.Errorf("non-storing run: stats = %+v, want 4 misses and nothing stored or served", s)
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

// TestEntryDiskBytes pins the on-disk entry format byte for byte: the
// envelope, the entry's field names and order, and every value. A change
// here orphans or misreads every cache directory written before it, so it
// must come with a Version bump. The fixed entry is then read back
// through a fresh cache.
func TestEntryDiskBytes(t *testing.T) {
	e := &Entry{PoolPages: 5, RedirectEn: 11}
	e.Cycles = 123456
	e.Breakdown.Cycles[stats.NoTrans] = 1000
	e.Breakdown.Cycles[stats.Trans] = 2000
	e.Breakdown.Cycles[stats.Wasted] = 300
	e.PerCore = make([]stats.Breakdown, 2)
	e.PerCore[0].Cycles[stats.Trans] = 1200
	e.PerCore[1].Cycles[stats.Stalled] = 40
	e.Counters.TxStarted = 50
	e.Counters.TxCommitted = 42
	e.Counters.TxAborted = 8
	e.Counters.NACKsSent = 3
	e.Counters.L1Hits = 9000
	e.Counters.RedirectEntriesAdd = 17
	const want = `{"version":4,"key":"0900000000000000000000000000000000000000000000000000000000000000",` +
		`"entry":{"cycles":123456,"breakdown":{"Cycles":[1000,2000,0,0,0,300,0,0]},` +
		`"per_core":[{"Cycles":[0,1200,0,0,0,0,0,0]},{"Cycles":[0,0,0,0,40,0,0,0]}],` +
		`"counters":{"TxStarted":50,"TxCommitted":42,"TxAborted":8,"NACKsSent":3,"NACKsReceived":0,` +
		`"CycleAborts":0,"RemoteAborts":0,"FalsePositive":0,"L1Hits":9000,"L1Misses":0,"L2Hits":0,` +
		`"L2Misses":0,"Writebacks":0,"Invalidations":0,"CacheOverflowTx":0,"SpecLineEvicted":0,` +
		`"UndoLogEntries":0,"UndoLogRestores":0,"SoftwareTraps":0,"LazyCommitMerges":0,` +
		`"RedirectLookups":0,"RedirectL1Hits":0,"RedirectL2Hits":0,"RedirectMemLookups":0,` +
		`"RedirectEntriesAdd":17,"RedirectBacks":0,"SummaryFiltered":0,"SummaryFalsePos":0,` +
		`"TableOverflowTx":0,"PoolPagesAlloc":0,"EagerTx":0,"LazyTx":0,"InjectedNACKs":0,` +
		`"MeshTimeouts":0,"MeshRetries":0,"MeshDuplicates":0,"PoolReclaimStalls":0,` +
		`"StarveEscalations":0,"TokenGrants":0,"GracefulDegradation":0,"IsoWindowCycles":0,` +
		`"IsoWindows":0},"pool_pages":5,"redirect_entries":11}}`

	dir := t.TempDir()
	c := New()
	if err := c.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	k := testKey(9)
	if err := c.Put(k, e); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(c.EntryPath(k))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("on-disk entry bytes changed:\n got %s\nwant %s", got, want)
	}

	// A fresh cache over a directory holding only the literal serves it.
	fresh := t.TempDir()
	r := New()
	if err := r.SetDir(fresh); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(r.EntryPath(k), []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
	if back, ok := r.Get(k); !ok || !back.Equal(e) {
		t.Fatalf("literal read back: ok=%v entry=%+v", ok, back)
	}
}
