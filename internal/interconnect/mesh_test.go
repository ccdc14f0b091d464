package interconnect

import (
	"testing"
	"testing/quick"
)

func TestDimensions(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{16, 4, 4}, {8, 4, 2}, {4, 2, 2}, {1, 1, 1}, {12, 4, 3}, {2, 2, 1},
	}
	for _, c := range cases {
		w, h := Dimensions(c.n)
		if w != c.w || h != c.h {
			t.Errorf("Dimensions(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
	}
}

func TestMeshHops(t *testing.T) {
	m := NewMesh(16, 2, 1) // 4x4, Table III latencies
	if m.Hops(0, 0) != 0 {
		t.Fatal("self hops != 0")
	}
	if m.Hops(0, 15) != 6 { // (3,3) from (0,0)
		t.Fatalf("corner-to-corner hops = %d, want 6", m.Hops(0, 15))
	}
	if m.Hops(0, 3) != 3 || m.Hops(0, 12) != 3 {
		t.Fatal("row/column hop counts wrong")
	}
}

func TestMeshLatency(t *testing.T) {
	m := NewMesh(16, 2, 1)
	// Local: one router traversal.
	if m.Latency(5, 5) != 1 {
		t.Fatalf("local latency = %d", m.Latency(5, 5))
	}
	// One hop: wire(2) + route(1) per hop + final route(1) = 4.
	if m.Latency(0, 1) != 4 {
		t.Fatalf("one-hop latency = %d", m.Latency(0, 1))
	}
	if m.RoundTrip(0, 1) != 8 {
		t.Fatalf("round trip = %d", m.RoundTrip(0, 1))
	}
	if m.MaxLatency() != 6*3+1 {
		t.Fatalf("max latency = %d", m.MaxLatency())
	}
}

func TestMeshSymmetry(t *testing.T) {
	m := NewMesh(16, 2, 1)
	f := func(a, b uint8) bool {
		x, y := int(a%16), int(b%16)
		return m.Latency(x, y) == m.Latency(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeshTriangleInequality(t *testing.T) {
	m := NewMesh(16, 2, 1)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a%16), int(b%16), int(c%16)
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHomeTileDistribution(t *testing.T) {
	m := NewMesh(16, 2, 1)
	counts := make([]int, 16)
	for line := uint64(0); line < 1600; line++ {
		counts[m.HomeTile(line)]++
	}
	for tile, n := range counts {
		if n != 100 {
			t.Fatalf("tile %d owns %d lines, want 100", tile, n)
		}
	}
}

func TestMeshBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0 tiles")
		}
	}()
	NewMesh(0, 2, 1)
}
