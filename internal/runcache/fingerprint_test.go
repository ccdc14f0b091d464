package runcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"suvtm/internal/htm"
)

// goldenDefaultConfigDigest pins the canonical encoding of the paper's
// Table III configuration (htm.DefaultConfig(16)).
//
// IF THIS TEST FAILS you changed the shape or defaults of htm.Config.
// That is allowed — but cached outcomes computed under the old machine
// model must never be served for the new one, so you must:
//  1. bump runcache.Version, and
//  2. update this constant to the new digest the failure message prints.
const goldenDefaultConfigDigest = "6dd5eed90368e9b566afa23b8cad027683fbf099998f652f959f1a9a5222e8d8"

func TestGoldenConfigDigest(t *testing.T) {
	text := CanonicalConfig(htm.DefaultConfig(16))
	sum := sha256.Sum256([]byte(text))
	got := hex.EncodeToString(sum[:])
	if got != goldenDefaultConfigDigest {
		t.Fatalf("htm.Config canonical fingerprint changed:\n  got  %s\n  want %s\ncanonical text: %s\n\nA Config shape/default change invalidates every cached outcome: bump runcache.Version AND update goldenDefaultConfigDigest (see the constant's comment).",
			got, goldenDefaultConfigDigest, text)
	}
}

// TestCanonicalConfigNamesFields guards the property the golden test
// relies on: the encoding spells out field names in declared order, so
// a renamed or newly added field cannot produce the same text.
func TestCanonicalConfigNamesFields(t *testing.T) {
	text := CanonicalConfig(htm.DefaultConfig(16))
	typ := reflect.TypeOf(htm.Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !strings.Contains(text, name+"=") {
			t.Errorf("canonical encoding is missing field %q", name)
		}
	}
}

// The reflective encoder below is the fingerprint as it was first
// written, kept as the oracle the compiled plan must match byte for
// byte: every cache directory ever written is keyed by its output.

// reflectiveCanonical is CanonicalConfig through writeCanonical.
func reflectiveCanonical(cfg htm.Config) string {
	var sb strings.Builder
	writeCanonical(&sb, reflect.ValueOf(cfg))
	return sb.String()
}

// writeCanonical emits one value. Only the kinds htm.Config actually
// uses are supported; a new field of an unsupported kind (map, slice,
// func, pointer...) panics loudly at fingerprint time rather than
// encoding ambiguously.
func writeCanonical(sb *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		sb.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			sb.WriteString(t.Field(i).Name)
			sb.WriteByte('=')
			writeCanonical(sb, v.Field(i))
			sb.WriteByte(';')
		}
		sb.WriteByte('}')
	case reflect.Bool:
		sb.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		sb.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		sb.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		sb.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		sb.WriteString(strconv.Quote(v.String()))
	default:
		panic(fmt.Sprintf("runcache: cannot canonically encode kind %s (%s) — extend writeCanonical and bump Version", v.Kind(), v.Type()))
	}
}

// reflectiveKeyOf is KeyOf over the reflective encoding.
func reflectiveKeyOf(app, scheme string, cores int, seed uint64, scale float64, cfg htm.Config, faultPlanText string) Key {
	h := sha256.New()
	fmt.Fprintf(h, "suvtm-runcache/v%d\n", Version)
	fmt.Fprintf(h, "app=%s\nscheme=%s\ncores=%d\nseed=%d\nscale=%s\n",
		app, scheme, cores, seed, strconv.FormatFloat(scale, 'g', -1, 64))
	io.WriteString(h, "config=")
	io.WriteString(h, reflectiveCanonical(cfg))
	io.WriteString(h, "\nfaults=")
	io.WriteString(h, faultPlanText)
	var k Key
	h.Sum(k[:0])
	return k
}

// eachLeaf calls fn on every scalar field under v, depth first in
// declared order, with its dotted path below v.
func eachLeaf(v reflect.Value, path string, fn func(path string, v reflect.Value)) {
	if v.Kind() != reflect.Struct {
		fn(path, v)
		return
	}
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if path != "" {
			name = path + "." + name
		}
		eachLeaf(v.Field(i), name, fn)
	}
}

// TestKeySensitivity perturbs every leaf of Config, nested ones
// included, plus every non-config key component, and checks the
// fingerprint moves for each.
func TestKeySensitivity(t *testing.T) {
	base := htm.DefaultConfig(16)
	baseKey := KeyOf("intruder", "SUV-TM", 16, 1, 1.0, base, "")

	var paths []string
	eachLeaf(reflect.ValueOf(&base).Elem(), "", func(path string, _ reflect.Value) { paths = append(paths, path) })
	if n := len(configPlan().leaves); len(paths) != n {
		t.Fatalf("the walker found %d leaves, the plan %d", len(paths), n)
	}
	for n, path := range paths {
		cfg := htm.DefaultConfig(16)
		i := 0
		eachLeaf(reflect.ValueOf(&cfg).Elem(), "", func(_ string, v reflect.Value) {
			if i == n && !mutate(v) {
				t.Fatalf("don't know how to mutate Config.%s (kind %s) — extend the test", path, v.Kind())
			}
			i++
		})
		if KeyOf("intruder", "SUV-TM", 16, 1, 1.0, cfg, "") == baseKey {
			t.Errorf("mutating Config.%s did not change the fingerprint", path)
		}
	}

	if KeyOf("vacation", "SUV-TM", 16, 1, 1.0, base, "") == baseKey {
		t.Error("app does not affect the fingerprint")
	}
	if KeyOf("intruder", "LogTM-SE", 16, 1, 1.0, base, "") == baseKey {
		t.Error("scheme does not affect the fingerprint")
	}
	if KeyOf("intruder", "SUV-TM", 8, 1, 1.0, base, "") == baseKey {
		t.Error("cores do not affect the fingerprint")
	}
	if KeyOf("intruder", "SUV-TM", 16, 2, 1.0, base, "") == baseKey {
		t.Error("seed does not affect the fingerprint")
	}
	if KeyOf("intruder", "SUV-TM", 16, 1, 0.5, base, "") == baseKey {
		t.Error("scale does not affect the fingerprint")
	}
	if KeyOf("intruder", "SUV-TM", 16, 1, 1.0, base, "plan nack-storm\n") == baseKey {
		t.Error("fault-plan text does not affect the fingerprint")
	}
}

// mutate changes one leaf.
func mutate(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		return false
	}
	return true
}

// randomize sets every leaf under v, favouring the edges: zero, one,
// the type's extremes and, for signed kinds, negative values.
func randomize(r *rand.Rand, v reflect.Value) {
	eachLeaf(v, "", func(_ string, v reflect.Value) {
		pick := r.Intn(6)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(pick%2 == 0)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			bits := v.Type().Bits()
			v.SetInt([]int64{0, 1, -1, 1<<(bits-1) - 1, -1 << (bits - 1), int64(r.Uint64())}[pick])
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			bits := v.Type().Bits()
			v.SetUint([]uint64{0, 1, 2, math.MaxUint64 >> (64 - bits), uint64(r.Intn(1 << 16)), r.Uint64()}[pick])
		case reflect.Float32, reflect.Float64:
			v.SetFloat([]float64{0, 1, -0.05, 1e-7, 1e21, r.NormFloat64() * math.Pow(10, float64(r.Intn(80)-40))}[pick])
		case reflect.String:
			b := make([]byte, r.Intn(12))
			r.Read(b)
			v.SetString([]string{"", "yada", `q"uo\te`, "ünï\tcode", "\xff\xfe", string(b)}[pick])
		default:
			panic(fmt.Sprintf("randomize: kind %s", v.Kind()))
		}
	})
}

// keyCase is one KeyOf input.
type keyCase struct {
	app, scheme string
	cores       int
	seed        uint64
	cfg         htm.Config
}

// oracleCases are the configurations the encoders are compared on: the
// paper's configuration at every core count, with and without the
// progress ladder, the zero Config, and n random ones.
func oracleCases(n int) []keyCase {
	cases := []keyCase{{app: "", scheme: "", cfg: htm.Config{}}}
	for c := 1; c <= 64; c++ {
		cfg := htm.DefaultConfig(c)
		cases = append(cases,
			keyCase{"intruder", "SUV-TM", c, 1, cfg},
			keyCase{"yada", "DynTM+SUV", c, 1_000_001, cfg.WithProgressLadder()})
	}
	r := rand.New(rand.NewSource(1))
	apps := []string{"bayes", "labyrinth", "ünï\"code", "\xff"}
	for i := 0; i < n; i++ {
		kc := keyCase{app: apps[r.Intn(len(apps))], scheme: "LogTM-SE", cores: int(r.Int63()) - math.MaxInt64/2, seed: r.Uint64()}
		randomize(r, reflect.ValueOf(&kc.cfg).Elem())
		cases = append(cases, kc)
	}
	return cases
}

// faultTexts spans an empty text, one that fits the stack buffer and
// one that spills it.
func faultTexts() []string {
	long := strings.Repeat("plan nack-storm\nnack core=3 at=100 rate=0.5\n", 60)
	return []string{"", long[:100], long[:2000]}
}

// TestKeyOfMatchesReflective: the compiled plan writes exactly the
// reflective encoder's bytes, and KeyOf its key, for every case.
func TestKeyOfMatchesReflective(t *testing.T) {
	scales := []float64{1, 0.05, 1e-7, 1e21}
	for i, kc := range oracleCases(1000) {
		if got, want := CanonicalConfig(kc.cfg), reflectiveCanonical(kc.cfg); got != want {
			t.Fatalf("case %d: canonical text differs:\n got  %s\n want %s", i, got, want)
		}
		for _, scale := range scales {
			for _, faults := range faultTexts() {
				got := KeyOf(kc.app, kc.scheme, kc.cores, kc.seed, scale, kc.cfg, faults)
				want := reflectiveKeyOf(kc.app, kc.scheme, kc.cores, kc.seed, scale, kc.cfg, faults)
				if got != want {
					t.Fatalf("case %d, scale %g, %d-byte fault text: key %s, reflective %s", i, scale, len(faults), got, want)
				}
			}
		}
	}

	t.Run("concurrent", func(t *testing.T) {
		cases := oracleCases(8 * 32)
		serial := make([]Key, len(cases))
		for i, kc := range cases {
			serial[i] = reflectiveKeyOf(kc.app, kc.scheme, kc.cores, kc.seed, 0.05, kc.cfg, "")
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(cases); i += 8 {
					kc := cases[i]
					if k := KeyOf(kc.app, kc.scheme, kc.cores, kc.seed, 0.05, kc.cfg, ""); k != serial[i] {
						t.Errorf("goroutine %d, case %d: key %s, serial %s", g, i, k, serial[i])
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// allKinds has a leaf of every kind the plan supports, nested structs
// and an empty one, so the kinds htm.Config does not use yet are
// checked against the oracle too.
type allKinds struct {
	B   bool
	I   int
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	U   uint
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	F32 float32
	F64 float64
	S   string
	N   struct {
		X     int8
		Inner struct{ Y string }
		Z     bool
	}
	Empty struct{}
}

func TestCompilePlanEveryKind(t *testing.T) {
	p := compilePlan(reflect.TypeOf(allKinds{}))
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		var v allKinds
		if i > 0 {
			randomize(r, reflect.ValueOf(&v).Elem())
		}
		var want strings.Builder
		writeCanonical(&want, reflect.ValueOf(v))
		if got := string(p.appendTo(nil, unsafe.Pointer(&v))); got != want.String() {
			t.Fatalf("value %d: plan writes\n %s\nthe oracle\n %s", i, got, want.String())
		}
	}

	for _, bad := range []any{struct{ M map[int]int }{}, struct {
		A int
		P *int
	}{}, struct{ S []byte }{}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "bump Version") {
					t.Errorf("compiling %T: panic %q, want the bump-Version message", bad, msg)
				}
			}()
			compilePlan(reflect.TypeOf(bad))
		}()
	}
}

// decodeLeaves fills every leaf under v from data, eight little-endian
// bytes a leaf (zero once data runs out), and returns what is left.
func decodeLeaves(v reflect.Value, data []byte) []byte {
	eachLeaf(v, "", func(_ string, v reflect.Value) {
		var w [8]byte
		data = data[copy(w[:], data):]
		x := binary.LittleEndian.Uint64(w[:])
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(x&1 != 0)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(int64(x))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(x)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(math.Float64frombits(x))
		default:
			panic(fmt.Sprintf("decodeLeaves: kind %s", v.Kind()))
		}
	})
	return data
}

// FuzzCanonicalConfig decodes the input into every Config leaf, the
// rest of it into the fault text, and compares the two encoders.
func FuzzCanonicalConfig(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(strings.Repeat("\xff\x7f\x80\x00\x01", 90)))
	f.Add([]byte(strings.Repeat("suvtm", 500)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg htm.Config
		faults := string(decodeLeaves(reflect.ValueOf(&cfg).Elem(), data))
		if got, want := CanonicalConfig(cfg), reflectiveCanonical(cfg); got != want {
			t.Fatalf("canonical text differs:\n got  %s\n want %s", got, want)
		}
		scale := math.Float64frombits(cfg.Seed ^ uint64(cfg.Cores))
		got := KeyOf("genome", "FasTM", cfg.Cores, cfg.Seed, scale, cfg, faults)
		if want := reflectiveKeyOf("genome", "FasTM", cfg.Cores, cfg.Seed, scale, cfg, faults); got != want {
			t.Fatalf("key %s, reflective %s", got, want)
		}
	})
}
