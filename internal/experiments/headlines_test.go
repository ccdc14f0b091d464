package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"suvtm/internal/stats"
	"suvtm/internal/workload"
)

// headlinesPath holds the paper's headline numbers as this simulator
// measures them at the paper's configuration (16 cores, seed 1, scale
// 1): the four Figure 6 and two Figure 9 speedups, and Table V's SUV-TM
// pool pages. EXPERIMENTS.md quotes the file verbatim.
var headlinesPath = filepath.Join("testdata", "golden", "headlines.md")

// experimentsDoc is the document that quotes headlinesPath.
var experimentsDoc = filepath.Join("..", "..", "EXPERIMENTS.md")

// renderHeadlines runs the 40 Figure 6 + Figure 9 specs uncached and
// renders the headline table as a Markdown table.
func renderHeadlines() (string, error) {
	var specs []Spec
	for _, app := range workload.StampApps {
		for _, s := range AllSchemes {
			specs = append(specs, Spec{App: app, Scheme: s, Cores: 16, Seed: 1, Scale: 1})
		}
	}
	outs, err := RunManyWith(specs, BatchOptions{NoCache: true})
	if err != nil {
		return "", err
	}
	m := &Matrix{Apps: workload.StampApps, Schemes: AllSchemes, Outcomes: make(map[string]map[Scheme]*Outcome)}
	for _, out := range outs {
		if out.CheckErr != nil {
			return "", fmt.Errorf("%s under %s: %w", out.Spec.App, out.Spec.Scheme, out.CheckErr)
		}
		if m.Outcomes[out.Spec.App] == nil {
			m.Outcomes[out.Spec.App] = make(map[Scheme]*Outcome)
		}
		m.Outcomes[out.Spec.App][out.Spec.Scheme] = out
	}

	var b strings.Builder
	row := func(figure, quantity, scope, measured, paper string) {
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n", figure, quantity, scope, measured, paper)
	}
	row("figure", "quantity", "scope", "measured", "paper")
	b.WriteString("|---|---|---|---|---|\n")
	speedups := []struct {
		figure     string
		base, mine Scheme
		all, high  float64
	}{
		{"Fig. 6", LogTMSE, SUVTM, PaperFig6.OverLogTMAll, PaperFig6.OverLogTMHigh},
		{"Fig. 6", FasTM, SUVTM, PaperFig6.OverFasTMAll, PaperFig6.OverFasTMHigh},
		{"Fig. 9", DynTM, DynTMSUV, PaperFig9.All, PaperFig9.High},
	}
	for _, s := range speedups {
		quantity := fmt.Sprintf("%s vs %s", s.mine, s.base)
		row(s.figure, quantity, "all apps", stats.Pct(m.MeanSpeedup(s.base, s.mine, false)), stats.Pct(s.all))
		row(s.figure, quantity, "high-contention 5", stats.Pct(m.MeanSpeedup(s.base, s.mine, true)), stats.Pct(s.high))
	}
	for _, app := range Table5Apps {
		row("Table V", "SUV-TM pool pages", app, fmt.Sprint(m.Get(app, SUVTM).PoolPages), "–")
	}
	return b.String(), nil
}

// TestPaperHeadlines pins the headline numbers EXPERIMENTS.md reports,
// at the scale it reports them: the SUV-vs-LogTM-SE ratio moves with
// scale (75.2% high-contention at scale 1, above 100% at 0.2), so a
// reduced-scale proxy would let the documented number drift. A change
// that moves a number fails here with the regenerated table; a
// deliberate model change replaces the testdata file and its quote in
// EXPERIMENTS.md with it and says why in CHANGES.md.
func TestPaperHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 40-spec Figure 6 + Figure 9 grid at scale 1")
	}
	got, err := renderHeadlines()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(headlinesPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("headline numbers differ from %s; if the change is a deliberate model change, replace the file and its quote in %s with:\n%s",
			headlinesPath, experimentsDoc, got)
	}
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), got) {
		t.Fatalf("%s does not quote %s verbatim; it must contain:\n%s", experimentsDoc, headlinesPath, got)
	}
}
