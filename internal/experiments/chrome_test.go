package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestChromeTraceGolden pins one real run's Chrome trace byte for byte:
// intruder under SUV-TM on 4 cores with the mixed fault plan and a
// counter sample every 1000 cycles, so thread-name (M), span (X),
// instant (i) and counter (C) records all appear, fault instants on the
// faults track included. A change to the trace's bytes must show here
// and be a deliberate rebaseline of the file.
func TestChromeTraceGolden(t *testing.T) {
	out, err := Run(Spec{App: "intruder", Scheme: SUVTM, Cores: 4, Scale: 0.05,
		FaultPlan: "mixed", SampleInterval: 1000, ChromeTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.CheckErr != nil {
		t.Fatal(out.CheckErr)
	}
	var got bytes.Buffer
	if err := out.Chrome.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome", "intruder-suvtm-mixed.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{`"ph":"M"`, `"ph":"X"`, `"ph":"i"`, `"ph":"C"`, `"name":"fault-on `} {
		if !bytes.Contains(want, []byte(rec)) {
			t.Fatalf("%s holds no %s record: the golden no longer covers every record type", path, rec)
		}
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	at := 0
	for at < got.Len() && at < len(want) && got.Bytes()[at] == want[at] {
		at++
	}
	t.Fatalf("Chrome trace differs from %s at byte %d of %d (want %d bytes):\n got: %s\nwant: %s",
		path, at, got.Len(), len(want), excerpt(got.Bytes(), at), excerpt(want, at))
}

// excerpt returns up to 80 bytes of b around offset at.
func excerpt(b []byte, at int) string {
	lo, hi := max(at-40, 0), min(at+40, len(b))
	return string(b[lo:hi])
}
