// Package cactimodel is an analytical hardware-cost model for the SUV
// first-level redirect table: a fully-associative (CAM-tagged) array
// evaluated for access time, dynamic read/write energy and silicon area
// across CMOS technology nodes — reproducing the paper's Table VII,
// which the authors obtained from CACTI 5.3, plus the Section V-C
// storage/energy/area arithmetic and the Table VI survey of contemporary
// processors.
//
// The model is calibrated per node at the paper's reference
// configuration (512 entries x 8 bytes = 4 KB, the minimum line size
// CACTI accepts) and extrapolates with standard CAM scaling laws: access
// time grows with the match-line RC (~ sqrt of entry count), dynamic
// energy with the number of simultaneously searched entries and the
// entry width, and area with total bit count.
package cactimodel

import (
	"fmt"
	"math"

	"suvtm/internal/htm"
	"suvtm/internal/redirect"
)

// NodeParams holds the per-technology calibration point: the CACTI 5.3
// outputs for the 512-entry, 8-byte-line fully-associative table
// (Table VII of the paper).
type NodeParams struct {
	Nm       int
	AccessNs float64
	ReadNj   float64
	WriteNj  float64
	AreaMm2  float64
}

// Nodes lists the calibrated technology nodes in Table VII order.
var Nodes = []NodeParams{
	{90, 1.382, 0.403, 0.434, 0.951},
	{65, 0.995, 0.239, 0.260, 0.589},
	{45, 0.588, 0.150, 0.163, 0.282},
	{32, 0.412, 0.072, 0.078, 0.143},
}

// refEntries and refEntryBits define the calibration configuration.
const (
	refEntries   = 512
	refEntryBits = 64
)

// Estimate is the model's output for one table configuration.
type Estimate struct {
	Nm       int
	Entries  int
	EntryBit int
	AccessNs float64
	ReadNj   float64
	WriteNj  float64
	AreaMm2  float64
}

// NodeByNm returns the calibration point for a technology node.
func NodeByNm(nm int) (NodeParams, error) {
	for _, n := range Nodes {
		if n.Nm == nm {
			return n, nil
		}
	}
	return NodeParams{}, fmt.Errorf("cactimodel: no calibration for %d nm", nm)
}

// FullyAssociative estimates a fully-associative table with the given
// geometry at a technology node.
//
// Scaling laws relative to the calibration point:
//   - access time ~ sqrt(entries): the match line and the entry decoder
//     deepen with the array;
//   - dynamic energy ~ entries (every match line is precharged and
//     searched) x entry width;
//   - area ~ entries x entry width (bit-cell dominated).
func FullyAssociative(nm, entries, entryBits int) (Estimate, error) {
	ref, err := NodeByNm(nm)
	if err != nil {
		return Estimate{}, err
	}
	if entries <= 0 || entryBits <= 0 {
		return Estimate{}, fmt.Errorf("cactimodel: bad geometry %dx%db", entries, entryBits)
	}
	er := float64(entries) / refEntries
	br := float64(entryBits) / refEntryBits
	return Estimate{
		Nm:       nm,
		Entries:  entries,
		EntryBit: entryBits,
		AccessNs: ref.AccessNs * math.Sqrt(er),
		ReadNj:   ref.ReadNj * er * (0.5 + 0.5*br),
		WriteNj:  ref.WriteNj * (0.5 + 0.5*er*br),
		AreaMm2:  ref.AreaMm2 * er * br,
	}, nil
}

// CyclesAt returns the pipeline cycles one access costs at the given
// clock (the paper checks the 45 nm table completes in 1 cycle at
// 1.2 GHz).
func (e Estimate) CyclesAt(clockGHz float64) int {
	cycle := 1.0 / clockGHz // ns
	n := int(math.Ceil(e.AccessNs / cycle))
	if n < 1 {
		n = 1
	}
	return n
}

// SUVCost aggregates the Section V-C per-core and whole-chip overheads
// of the SUV machinery.
type SUVCost struct {
	PerCoreBytes     float64 // summary signature + bit vector + L1 table payload
	PctOfL1          float64 // relative to a 32 KB L1 data cache
	MaxPowerW        float64 // upper bound on table search power across the CMP
	PctOfRockPower   float64
	TotalTableAreaM2 float64 // mm^2, halved per the paper's 22b-vs-64b argument
	PctOfRockArea    float64
}

// RockTDPWatts and RockAreaMm2 are the Rock processor reference points
// (Table VI).
const (
	RockTDPWatts = 250.0
	RockAreaMm2  = 396.0
)

// SectionVC computes the paper's Section V-C overhead arithmetic for a
// CMP with the given core count and clock, using the 45 nm estimate. The
// paper halves CACTI's energy and area because a real entry is 22 bits,
// not the 64-bit minimum CACTI models.
func SectionVC(cores int, clockGHz float64, summaryBits, onceBits, l1Entries, entryBits int) (SUVCost, error) {
	est, err := FullyAssociative(45, refEntries, refEntryBits)
	if err != nil {
		return SUVCost{}, err
	}
	perCoreBits := float64(summaryBits+onceBits) + float64(entryBits*l1Entries)
	perCoreBytes := perCoreBits / 8
	// Upper bound: every core searches the table every cycle, read and
	// write alternating; the 0.5 factor is the 22-bit vs 64-bit scaling.
	maxPower := 0.5 * (est.ReadNj + est.WriteNj) * 1e-9 * float64(cores) * clockGHz * 1e9
	area := 0.5 * float64(cores) * est.AreaMm2
	return SUVCost{
		PerCoreBytes:     perCoreBytes,
		PctOfL1:          perCoreBytes / float64(32<<10),
		MaxPowerW:        maxPower,
		PctOfRockPower:   maxPower / RockTDPWatts,
		TotalTableAreaM2: area,
		PctOfRockArea:    area / RockAreaMm2,
	}, nil
}

// PaperSectionVC is SectionVC for the SUV hardware of the paper's
// Table III machine, which owns every input: the summary signature and
// its set-once deletion vector are SigBits wide, the first-level table
// holds Redirect.L1Entries entries, and each entry is as wide as
// redirect.Geometry lays it out for the L1 and the TLB (22 bits).
func PaperSectionVC(cores int, clockGHz float64) (SUVCost, error) {
	cfg := htm.DefaultConfig(cores)
	sigBits := int(cfg.SigBits)
	entryBits := redirect.NewGeometry(cfg.L1, cfg.TLBEntries).EntryBits()
	return SectionVC(cores, clockGHz, sigBits, sigBits, cfg.Redirect.L1Entries, entryBits)
}
