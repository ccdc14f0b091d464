package experiments

import (
	"fmt"
	"strings"

	"suvtm/internal/mem"
	"suvtm/internal/stats"
	"suvtm/internal/workload"
)

// LiteratureAbort is one row of the paper's Table I: abort behaviour
// reported in prior studies, motivating abort-path optimization.
type LiteratureAbort struct {
	Study       string
	AbortRatio  string
	Environment string
}

// Table1Literature reproduces the survey rows of Table I.
var Table1Literature = []LiteratureAbort{
	{"LogTM [7]", "up to 15%", "Splash2 applications run under LogTM"},
	{"PTM [8]", "up to 24%", "Splash2 applications run under PTM"},
	{"LogTM-SE [9]", "30% to 40%", "Raytrace and BerkeleyDB under LogTM-SE"},
	{"FasTM [10]", "up to 4.0%", "Micro-benchmarks, Splash2 and STAMP under FasTM"},
	{"SBCR-HTM [11]", "up to 75.9%", "STAMP under HTM with speculation-based conflict resolution"},
	{"LiteTM [12]", "up to 79.4%", "STAMP under TokenTM"},
	{"Lee-TM [13]", "up to 72%", "Five implementations of Lee's routing algorithm under DSTM2"},
	{"TransPlant [14]", "up to 79%", "Generated programs with desired characteristics"},
	{"RMS-TM [15]", "up to 69%", "RMS applications under Intel's prototype STM compiler"},
}

// Table1 pairs the literature survey with abort ratios measured on this
// reproduction's workloads under the baseline scheme.
type Table1 struct {
	Measured *Matrix
}

// RunTable1 measures abort ratios of the eight apps under LogTM-SE.
func RunTable1(opts Options) (*Table1, error) {
	mtx, err := RunMatrix(opts, []Scheme{LogTMSE})
	if err != nil {
		return nil, err
	}
	return &Table1{Measured: mtx}, nil
}

// Render prints the literature survey and the measured ratios.
func (t *Table1) Render() string {
	var sb strings.Builder
	sb.WriteString("Table I: abort behaviours reported in published studies\n")
	tab := stats.NewTable("study", "abort ratio", "evaluation environment and workloads")
	for _, row := range Table1Literature {
		tab.AddRow(row.Study, row.AbortRatio, row.Environment)
	}
	sb.WriteString(tab.String())
	sb.WriteString("\nMeasured on this reproduction (LogTM-SE, Stall policy):\n")
	tab2 := stats.NewTable("app", "attempts", "aborted", "abort ratio", "contention")
	for _, app := range t.Measured.Apps {
		out := t.Measured.Get(app, LogTMSE)
		cont := "Low"
		if workload.IsHighContention(app) {
			cont = "High"
		}
		tab2.AddRow(app,
			fmt.Sprintf("%d", out.Counters.TxCommitted+out.Counters.TxAborted),
			fmt.Sprintf("%d", out.Counters.TxAborted),
			stats.Pct(out.Counters.AbortRatio()), cont)
	}
	sb.WriteString(tab2.String())
	return sb.String()
}

// RenderTable4 prints the Table IV workload characteristics, pairing the
// paper's reported per-transaction lengths with the generator metadata.
func RenderTable4() string {
	var sb strings.Builder
	sb.WriteString("Table IV: workload characteristics of the benchmarks\n")
	tab := stats.NewTable("app", "input parameters", "length", "contention")
	for _, name := range workload.StampApps {
		gen, err := workload.Get(name)
		if err != nil {
			continue
		}
		memory := mem.NewMemory()
		alloc := mem.NewAllocator(heapBase, heapSize)
		app := gen(workload.GenConfig{Cores: 2, Seed: 1, Scale: 0.05}, alloc, memory)
		cont := "Low"
		if app.HighContention {
			cont = "High"
		}
		tab.AddRow(name, app.InputDesc, fmtLen(app.MeanTxLen), cont)
	}
	sb.WriteString(tab.String())
	return sb.String()
}

func fmtLen(n int) string {
	if n >= 1000 {
		return fmt.Sprintf("%.1fK", float64(n)/1000)
	}
	return fmt.Sprintf("%d", n)
}

// Table5Apps are the three coarse-grained apps whose overflow statistics
// the paper tabulates.
var Table5Apps = []string{"bayes", "labyrinth", "yada"}

// Table5 holds the overflow statistics experiment.
type Table5 struct {
	Mtx *Matrix
}

// RunTable5 measures transactional data overflows (LogTM-SE/FasTM) and
// redirect-table overflows (SUV-TM) on bayes, labyrinth and yada.
func RunTable5(opts Options) (*Table5, error) {
	opts.Apps = Table5Apps
	mtx, err := RunMatrix(opts, Fig6Schemes)
	if err != nil {
		return nil, err
	}
	return &Table5{Mtx: mtx}, nil
}

// Render prints the Table V analogue. For LogTM-SE and FasTM the
// relevant overflow is transactional data exceeding the L1 cache (FasTM
// additionally degenerates when a speculative line is evicted); SUV-TM
// keeps no speculative cache state — both versions live at real
// addresses — so its only virtualization event is a redirect-table
// overflow (a write-set beyond 512 distinct lines).
func (t *Table5) Render() string {
	var sb strings.Builder
	sb.WriteString("Table V: overflow statistics for bayes, labyrinth and yada\n")
	tab := stats.NewTable("app", "scheme", "attempts", "overflowed tx", "overflow kind",
		"spec evictions", "redirect entries", "pool pages")
	for _, app := range t.Mtx.Apps {
		for _, s := range t.Mtx.Schemes {
			out := t.Mtx.Get(app, s)
			overflow, kind := out.Counters.CacheOverflowTx, "L1 data cache"
			if s == SUVTM {
				overflow, kind = out.Counters.TableOverflowTx, "redirect table"
			}
			tab.AddRow(app, string(s),
				fmt.Sprintf("%d", out.Counters.TxCommitted+out.Counters.TxAborted),
				fmt.Sprintf("%d", overflow),
				kind,
				fmt.Sprintf("%d", out.Counters.SpecLineEvicted),
				fmt.Sprintf("%d", out.RedirectEn),
				fmt.Sprintf("%d", out.PoolPages))
		}
	}
	sb.WriteString(tab.String())
	sb.WriteString("\nThe redirect table is fully associative and holds a mapping per line, so\nSUV-TM only overflows past 512 distinct written lines, while the 4-way L1\noverflows on set conflicts — the mechanism behind the paper's 'redirect\ntable avoids nearly half of the transactional data overflow'.\n")
	return sb.String()
}
