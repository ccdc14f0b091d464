// Package runcache is a content-addressed outcome cache for pure
// simulator runs. Every simulation is bit-deterministic for a given
// resolved configuration (app, scheme, cores, seed, scale, the fully
// resolved htm.Config, and — when present — the canonical fault-plan
// text), so an outcome may be served from a previous identical run
// instead of re-simulating: repeated points inside one campaign (Fig 7
// and Fig 8 share their default-geometry baseline) dedup through the
// in-process tier, and an optional versioned on-disk tier survives
// across processes.
//
// Only *pure* runs belong here: specs requesting traces, metrics,
// Chrome traces or fault injection carry outputs that live outside the
// cached entry and must bypass the cache (the experiments layer
// enforces this).
package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"suvtm/internal/sim"
	"suvtm/internal/stats"
)

// Version is the cache schema/fingerprint version. Bump it whenever the
// canonical fingerprint or the Entry schema changes meaning (a new
// htm.Config field, a new counter with timing effect, ...): old on-disk
// entries then land in a different directory and are never served. The
// golden-digest test in fingerprint_test.go fails when htm.Config
// changes shape, forcing exactly this bump.
const Version = 4

// Key is the content address of one resolved run.
type Key [sha256.Size]byte

// String returns the key as lowercase hex (also the on-disk file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Entry is the cached outcome of one pure run: everything a campaign
// consumer reads from a successful, invariant-clean simulation.
type Entry struct {
	Cycles     sim.Cycles        `json:"cycles"`
	Breakdown  stats.Breakdown   `json:"breakdown"`
	PerCore    []stats.Breakdown `json:"per_core"`
	Counters   stats.Counters    `json:"counters"`
	PoolPages  uint64            `json:"pool_pages"`
	RedirectEn int               `json:"redirect_entries"`
}

// Equal reports whether two entries are bit-identical — the comparison
// -cache-verify uses to cross-check a cached outcome against a live
// re-simulation.
func (e *Entry) Equal(o *Entry) bool {
	if e == nil || o == nil {
		return e == o
	}
	if e.Cycles != o.Cycles || e.Breakdown != o.Breakdown ||
		e.Counters != o.Counters || e.PoolPages != o.PoolPages ||
		e.RedirectEn != o.RedirectEn || len(e.PerCore) != len(o.PerCore) {
		return false
	}
	for i := range e.PerCore {
		if e.PerCore[i] != o.PerCore[i] {
			return false
		}
	}
	return true
}

// Stats counts the cache's activity. All fields are cumulative.
type Stats struct {
	Hits     uint64 // entries served (memory or disk tier)
	Misses   uint64 // lookups that fell through to a live run
	Bypasses uint64 // specs that skipped the cache (impure runs)
	Stores   uint64 // entries written to the memory tier

	DiskHits   uint64 // hits satisfied by reading the disk tier
	DiskWrites uint64 // entries persisted to the disk tier
	Corrupt    uint64 // unreadable/mismatched disk entries discarded
}

// Cache is a two-tier content-addressed store: an always-on in-process
// map and an optional on-disk directory (SetDir). Safe for concurrent
// use. Entries handed out by Get are shared and must be treated as
// immutable.
type Cache struct {
	mu    sync.Mutex
	mem   map[Key]*Entry
	dir   string // versioned subdirectory; "" = memory tier only
	stats Stats
}

// New returns an empty cache with no disk tier.
func New() *Cache { return &Cache{mem: make(map[Key]*Entry)} }

// SetDir attaches (or, with "", detaches) the on-disk tier rooted at
// dir. Entries live under dir/v<Version>/, so a fingerprint-version bump
// abandons stale entries instead of serving them.
func (c *Cache) SetDir(dir string) error {
	if dir == "" {
		c.mu.Lock()
		c.dir = ""
		c.mu.Unlock()
		return nil
	}
	vdir := filepath.Join(dir, fmt.Sprintf("v%d", Version))
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	c.mu.Lock()
	c.dir = vdir
	c.mu.Unlock()
	return nil
}

// Dir returns the active versioned disk directory ("" when disabled).
func (c *Cache) Dir() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dir
}

// EntryPath returns where key's entry lives (or would live) on disk.
// Empty when no disk tier is attached.
func (c *Cache) EntryPath(k Key) string {
	dir := c.Dir()
	if dir == "" {
		return ""
	}
	return filepath.Join(dir, k.String()+".json")
}

// Get returns the cached entry for k, consulting the memory tier first
// and then the disk tier. A disk hit is promoted into the memory tier.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	if e, ok := c.mem[k]; ok {
		c.stats.Hits++
		c.mu.Unlock()
		return e, true
	}
	dir := c.dir
	c.mu.Unlock()
	if dir != "" {
		if e, ok := c.loadDisk(k, dir); ok {
			c.mu.Lock()
			c.mem[k] = e
			c.stats.Hits++
			c.stats.DiskHits++
			c.mu.Unlock()
			return e, true
		}
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, false
}

// Coalesced serves k to a caller whose Get missed while a concurrent
// run of the same key was in flight. When that run has stored its entry
// in the memory tier, the caller is served it and its earlier miss is
// recounted as a hit.
func (c *Cache) Coalesced(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.mem[k]
	if ok {
		c.stats.Misses--
		c.stats.Hits++
	}
	return e, ok
}

// Peek reports whether k is resident in either tier without counting a
// hit or a miss (admission probes must not skew the cache statistics).
// A disk-resident entry is promoted into the memory tier exactly like
// Get; a corrupt disk entry is still evicted and counted.
func (c *Cache) Peek(k Key) bool {
	c.mu.Lock()
	_, ok := c.mem[k]
	dir := c.dir
	c.mu.Unlock()
	if ok {
		return true
	}
	if dir == "" {
		return false
	}
	e, ok := c.loadDisk(k, dir)
	if ok {
		c.mu.Lock()
		c.mem[k] = e
		c.mu.Unlock()
	}
	return ok
}

// Put stores e under k in the memory tier and, when attached, the disk
// tier (atomically: temp file + rename, so a concurrent reader never
// sees a truncated entry). A disk-write failure degrades the cache, not
// the run — the entry stays served from memory and the error is
// returned for callers that care.
func (c *Cache) Put(k Key, e *Entry) error {
	c.mu.Lock()
	c.mem[k] = e
	c.stats.Stores++
	dir := c.dir
	c.mu.Unlock()
	if dir == "" {
		return nil
	}
	if err := c.storeDisk(k, e, dir); err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.DiskWrites++
	c.mu.Unlock()
	return nil
}

// Bypass records a spec that skipped the cache.
func (c *Cache) Bypass() {
	c.mu.Lock()
	c.stats.Bypasses++
	c.mu.Unlock()
}

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of memory-tier entries (tests).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// diskEntry is the on-disk JSON envelope. Version and Key are stored
// redundantly (the directory and filename already encode them) so a
// misplaced or hand-edited file is detected as corrupt rather than
// silently served.
type diskEntry struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	Entry   *Entry `json:"entry"`
}

// loadDisk reads k's entry from dir. A missing file is a plain miss; an
// unreadable, truncated or mismatched file counts as corrupt, is
// best-effort removed so the next run rewrites it, and also misses —
// corruption degrades to a live re-run, never to an error.
func (c *Cache) loadDisk(k Key, dir string) (*Entry, bool) {
	path := filepath.Join(dir, k.String()+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.markCorrupt(path)
		}
		return nil, false
	}
	var de diskEntry
	if err := json.Unmarshal(data, &de); err != nil ||
		de.Version != Version || de.Key != k.String() || de.Entry == nil {
		c.markCorrupt(path)
		return nil, false
	}
	return de.Entry, true
}

func (c *Cache) markCorrupt(path string) {
	os.Remove(path) // best effort; a live run will rewrite it
	c.mu.Lock()
	c.stats.Corrupt++
	c.mu.Unlock()
}

// tmpSeq disambiguates temp files created by this process; combined
// with the pid in the name it makes every temp path unique across all
// concurrent writers sharing one cache directory.
var tmpSeq atomic.Uint64

// createTemp opens a collision-free temp file in dir. The name embeds
// the pid and a process-local sequence number and the file is opened
// with O_EXCL, so two processes (or two caches in one process) pointed
// at the same directory can never interleave writes into one temp file
// — each rename then publishes a complete entry or nothing.
func createTemp(dir, stem string) (*os.File, error) {
	for {
		name := filepath.Join(dir, fmt.Sprintf(".tmp-%d-%d-%s", os.Getpid(), tmpSeq.Add(1), stem))
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			return f, nil
		}
		if !os.IsExist(err) {
			return nil, err
		}
		// A leftover from a previous crashed process with a recycled
		// pid; the sequence number advances, so the loop terminates.
	}
}

// storeDisk writes k's entry atomically: marshal, write an exclusive
// per-process temp file in the same directory, rename into place.
func (c *Cache) storeDisk(k Key, e *Entry, dir string) error {
	data, err := json.Marshal(diskEntry{Version: Version, Key: k.String(), Entry: e})
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	tmp, err := createTemp(dir, k.String()[:16])
	if err != nil {
		return fmt.Errorf("runcache: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), filepath.Join(dir, k.String()+".json"))
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runcache: %w", werr)
	}
	return nil
}
