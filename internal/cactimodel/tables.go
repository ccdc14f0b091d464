package cactimodel

import (
	"fmt"
	"strings"

	"suvtm/internal/stats"
)

// Processor is one row of the paper's Table VI: parameters of
// contemporary processors used to put the SUV overheads in context.
type Processor struct {
	Name    string
	TechNm  int
	ClockG  float64
	Cores   int
	Threads int
	TDPW    int
	AreaMm2 int
}

// Table6 reproduces Table VI.
var Table6 = []Processor{
	{"UltraSPARC T1", 90, 1.4, 8, 32, 72, 378},
	{"UltraSPARC T2", 65, 1.4, 8, 64, 84, 342},
	{"Rock Processor", 65, 2.3, 16, 32, 250, 396},
}

// RenderTable6 prints Table VI.
func RenderTable6() string {
	var sb strings.Builder
	sb.WriteString("Table VI: parameters of some contemporary processors\n")
	tab := stats.NewTable("processor", "tech (nm)", "clock (GHz)", "cores/threads", "TDP (W)", "area (mm2)")
	for _, p := range Table6 {
		tab.AddRow(p.Name,
			fmt.Sprintf("%d", p.TechNm),
			fmt.Sprintf("%.1f", p.ClockG),
			fmt.Sprintf("%d/%d", p.Cores, p.Threads),
			fmt.Sprintf("%d", p.TDPW),
			fmt.Sprintf("%d", p.AreaMm2))
	}
	sb.WriteString(tab.String())
	return sb.String()
}

// RenderTable7 prints the Table VII estimates for the 512-entry
// fully-associative first-level table across technology nodes.
func RenderTable7() string {
	var sb strings.Builder
	sb.WriteString("Table VII: overheads of the first-level fully-associative table\n")
	tab := stats.NewTable("tech (nm)", "access time (ns)", "read (nJ)", "write (nJ)", "area (mm2)", "cycles @1.2GHz")
	for _, n := range Nodes {
		est, err := FullyAssociative(n.Nm, 512, 64)
		if err != nil {
			continue
		}
		tab.AddRow(
			fmt.Sprintf("%d", n.Nm),
			fmt.Sprintf("%.3f", est.AccessNs),
			fmt.Sprintf("%.3f", est.ReadNj),
			fmt.Sprintf("%.3f", est.WriteNj),
			fmt.Sprintf("%.3f", est.AreaMm2),
			fmt.Sprintf("%d", est.CyclesAt(1.2)))
	}
	sb.WriteString(tab.String())
	return sb.String()
}

// RenderSectionVC prints the Section V-C complexity summary for the
// paper's 16-core configuration.
func RenderSectionVC() string {
	cost, err := PaperSectionVC(16, 1.2)
	if err != nil {
		return err.Error()
	}
	var sb strings.Builder
	sb.WriteString("Section V-C: complexity of SUV (16 cores, 1.2 GHz, 45 nm)\n")
	tab := stats.NewTable("metric", "value", "paper")
	tab.AddRow("per-core storage", fmt.Sprintf("%.3f KiB", cost.PerCoreBytes/1024), "1.875 KiB")
	tab.AddRow("fraction of 32KB L1", stats.Pct(cost.PctOfL1), "5.86%")
	tab.AddRow("max table search power", fmt.Sprintf("%.2f W", cost.MaxPowerW), "~3 W")
	tab.AddRow("fraction of Rock TDP", stats.Pct(cost.PctOfRockPower), "~1.2%")
	tab.AddRow("total table area", fmt.Sprintf("%.2f mm2", cost.TotalTableAreaM2), "2.26 mm2")
	tab.AddRow("fraction of Rock area", stats.Pct(cost.PctOfRockArea), "0.6%")
	sb.WriteString(tab.String())
	return sb.String()
}
