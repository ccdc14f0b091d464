package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"reflect"

	"suvtm/internal/experiments"
	"suvtm/internal/htm"
)

// pinnedFile holds the workload digests of `-seed 1` at scale 1. A
// change that moves one of them changed what the simulator computes; it
// must be re-pinned deliberately, with the reason in CHANGES.md.
//
//go:embed digests.json
var pinnedFile []byte

type pinSet struct {
	Seed    uint64            `json:"seed"`
	Scale   float64           `json:"scale"`
	Digests map[string]string `json:"digests"`
}

// pinned returns the pinned digest for a workload run with seed and
// scale, or "" when no pin applies.
func pinned(name string, seed uint64, scale float64) (string, error) {
	var p pinSet
	if err := json.Unmarshal(pinnedFile, &p); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	if p.Seed != seed || p.Scale != scale {
		return "", nil
	}
	return p.Digests[name], nil
}

// resolve applies experiments.Spec's documented defaults (16 cores,
// seed 1, scale 1.0).
func resolve(s experiments.Spec) (cores int, seed uint64, scale float64) {
	cores, seed, scale = s.Cores, s.Seed, s.Scale
	if cores == 0 {
		cores = 16
	}
	if seed == 0 {
		seed = 1
	}
	if scale == 0 {
		scale = 1
	}
	return cores, seed, scale
}

// specDigest hashes one run: the spec's identity (app, scheme, resolved
// cores, seed and scale, and the first-level redirect-table size the
// spec's Tweak leaves, which is all the benchmark's tweaks change) and
// the outcome's Cycles, Breakdown, PerCore, Counters, PoolPages and
// RedirectEn. Observer outputs are not part of it: they are the
// observers' view of the same run.
func specDigest(out *experiments.Outcome) [32]byte {
	cores, seed, scale := resolve(out.Spec)
	cfg := htm.DefaultConfig(cores)
	if out.Spec.Tweak != nil {
		out.Spec.Tweak(&cfg)
	}
	var b []byte
	b = appendString(b, out.Spec.App)
	b = appendString(b, string(out.Spec.Scheme))
	b = binary.LittleEndian.AppendUint64(b, uint64(cores))
	b = binary.LittleEndian.AppendUint64(b, seed)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(scale))
	b = binary.LittleEndian.AppendUint64(b, uint64(cfg.Redirect.L1Entries))
	b = appendValue(b, reflect.ValueOf(&out.Cycles).Elem())
	b = appendValue(b, reflect.ValueOf(&out.Breakdown).Elem())
	b = appendValue(b, reflect.ValueOf(&out.PerCore).Elem())
	b = appendValue(b, reflect.ValueOf(&out.Counters).Elem())
	b = binary.LittleEndian.AppendUint64(b, out.PoolPages)
	b = binary.LittleEndian.AppendUint64(b, uint64(out.RedirectEn))
	return sha256.Sum256(b)
}

func appendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}

// appendValue encodes v field by field, so a counter added to
// stats.Counters is digested without this file changing. The digested
// types hold only unsigned integers; another kind panics in the tests.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.LittleEndian.AppendUint64(b, v.Uint())
	case reflect.Slice:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Len()))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = appendValue(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendValue(b, v.Field(i))
		}
		return b
	}
	panic(fmt.Sprintf("suvbench: cannot digest a %s", v.Type()))
}

// folder folds per-spec digests, in spec order, into one workload digest.
type folder struct{ h hash.Hash }

func newFolder() *folder { return &folder{h: sha256.New()} }

func (f *folder) add(d [32]byte) { f.h.Write(d[:]) }

func (f *folder) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }
