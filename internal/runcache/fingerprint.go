package runcache

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"unsafe"

	"suvtm/internal/htm"
)

// CanonicalConfig renders a fully resolved machine configuration as a
// canonical text encoding: every field in declared order as name=value,
// recursing into nested structs. Field *names* are part of the encoding
// on purpose — adding, renaming or reordering a Config field changes the
// text (and so every fingerprint), which the golden-digest test turns
// into a forced, explicit Version bump instead of silently serving
// outcomes computed under a different machine model. KeyOf appends the
// same bytes without building the string.
func CanonicalConfig(cfg htm.Config) string {
	return string(appendCanonical(nil, &cfg))
}

// leaf is one scalar field of a flattened struct: the literal that
// precedes its value (the run of '{', "Name=", ';' and '}' since the
// previous leaf), where the value lives, and how to read it.
type leaf struct {
	pre  string
	off  uintptr
	kind reflect.Kind
}

// canonPlan is a struct type's canonical encoding, compiled once: the
// leaves in declared order, nested structs flattened, and the literal
// that closes the text after the last leaf.
type canonPlan struct {
	leaves []leaf
	tail   string
}

// configPlan is htm.Config's plan. A compile panic repeats on every
// call, so an unsupported field cannot fall back to a partial encoding.
var configPlan = sync.OnceValue(func() *canonPlan {
	return compilePlan(reflect.TypeOf(htm.Config{}))
})

// compilePlan flattens t into its leaves. Only the kinds the encoder
// reads are supported; a field of any other kind (map, slice, func,
// pointer...) panics here rather than encoding ambiguously.
func compilePlan(t reflect.Type) *canonPlan {
	p := &canonPlan{}
	var pre []byte
	var walk func(t reflect.Type, off uintptr)
	walk = func(t reflect.Type, off uintptr) {
		switch t.Kind() {
		case reflect.Struct:
			pre = append(pre, '{')
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				pre = append(pre, f.Name...)
				pre = append(pre, '=')
				walk(f.Type, off+f.Offset)
				pre = append(pre, ';')
			}
			pre = append(pre, '}')
		case reflect.Bool, reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			p.leaves = append(p.leaves, leaf{pre: string(pre), off: off, kind: t.Kind()})
			pre = pre[:0]
		default:
			panic(fmt.Sprintf("runcache: cannot canonically encode kind %s (%s) — extend compilePlan, appendLeaf and the test oracle writeCanonical, and bump Version", t.Kind(), t))
		}
	}
	walk(t, 0)
	p.tail = string(pre)
	return p
}

// appendCanonical appends CanonicalConfig(*cfg) to b.
//
//suv:hotpath
func appendCanonical(b []byte, cfg *htm.Config) []byte {
	return configPlan().appendTo(b, unsafe.Pointer(cfg))
}

// appendTo encodes the struct at base, whose type p was compiled from.
//
//suv:hotpath
func (p *canonPlan) appendTo(b []byte, base unsafe.Pointer) []byte {
	for i := range p.leaves {
		l := &p.leaves[i]
		b = append(b, l.pre...)
		b = appendLeaf(b, l.kind, unsafe.Add(base, l.off))
	}
	return append(b, p.tail...)
}

// appendLeaf formats the value of kind k at v, reading it as its own Go
// type: integers in base 10, floats widened to float64 in the shortest
// 'g' form, strings quoted.
//
//suv:hotpath
func appendLeaf(b []byte, k reflect.Kind, v unsafe.Pointer) []byte {
	switch k {
	case reflect.Bool:
		return strconv.AppendBool(b, *(*bool)(v))
	case reflect.Int:
		return strconv.AppendInt(b, int64(*(*int)(v)), 10)
	case reflect.Int8:
		return strconv.AppendInt(b, int64(*(*int8)(v)), 10)
	case reflect.Int16:
		return strconv.AppendInt(b, int64(*(*int16)(v)), 10)
	case reflect.Int32:
		return strconv.AppendInt(b, int64(*(*int32)(v)), 10)
	case reflect.Int64:
		return strconv.AppendInt(b, *(*int64)(v), 10)
	case reflect.Uint:
		return strconv.AppendUint(b, uint64(*(*uint)(v)), 10)
	case reflect.Uint8:
		return strconv.AppendUint(b, uint64(*(*uint8)(v)), 10)
	case reflect.Uint16:
		return strconv.AppendUint(b, uint64(*(*uint16)(v)), 10)
	case reflect.Uint32:
		return strconv.AppendUint(b, uint64(*(*uint32)(v)), 10)
	case reflect.Uint64:
		return strconv.AppendUint(b, *(*uint64)(v), 10)
	case reflect.Float32:
		return strconv.AppendFloat(b, float64(*(*float32)(v)), 'g', -1, 64)
	case reflect.Float64:
		return strconv.AppendFloat(b, *(*float64)(v), 'g', -1, 64)
	case reflect.String:
		return strconv.AppendQuote(b, *(*string)(v))
	default:
		panic("runcache: leaf kind outside the compiled plan")
	}
}

// KeyOf digests one resolved run: the workload identity (app, scheme,
// cores, seed, scale), the machine configuration after every default and
// Spec.Tweak has been applied, and the canonical fault-plan text
// (faults.EncodeString; empty for fault-free runs). Two specs that
// resolve to the same KeyOf produce bit-identical simulations.
//
// The whole preimage is built in one stack buffer and hashed once; only
// a fault-plan text that overflows the buffer costs an allocation.
//
//suv:hotpath
func KeyOf(app, scheme string, cores int, seed uint64, scale float64, cfg htm.Config, faultPlanText string) Key {
	var buf [1024]byte
	b := append(buf[:0], "suvtm-runcache/v"...)
	b = strconv.AppendInt(b, Version, 10)
	b = append(b, "\napp="...)
	b = append(b, app...)
	b = append(b, "\nscheme="...)
	b = append(b, scheme...)
	b = append(b, "\ncores="...)
	b = strconv.AppendInt(b, int64(cores), 10)
	b = append(b, "\nseed="...)
	b = strconv.AppendUint(b, seed, 10)
	b = append(b, "\nscale="...)
	b = strconv.AppendFloat(b, scale, 'g', -1, 64)
	b = append(b, "\nconfig="...)
	b = appendCanonical(b, &cfg)
	b = append(b, "\nfaults="...)
	b = append(b, faultPlanText...)
	return sha256.Sum256(b)
}
