package runcache

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

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

// TestKeySensitivity perturbs each top-level Config field (plus every
// non-config key component) and checks the fingerprint moves.
func TestKeySensitivity(t *testing.T) {
	base := htm.DefaultConfig(16)
	baseKey := KeyOf("intruder", "SUV-TM", 16, 1, 1.0, base, "")

	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < v.NumField(); i++ {
		cfg := htm.DefaultConfig(16)
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		if !mutate(f) {
			t.Fatalf("don't know how to mutate field %s (kind %s) — extend the test", v.Type().Field(i).Name, f.Kind())
		}
		if KeyOf("intruder", "SUV-TM", 16, 1, 1.0, cfg, "") == baseKey {
			t.Errorf("mutating Config.%s did not change the fingerprint", v.Type().Field(i).Name)
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

// mutate flips the first mutable leaf of v, recursing into structs.
func mutate(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if mutate(v.Field(i)) {
				return true
			}
		}
		return false
	case reflect.Bool:
		v.SetBool(!v.Bool())
		return true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
		return true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
		return true
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
		return true
	case reflect.String:
		v.SetString(v.String() + "x")
		return true
	}
	return false
}
