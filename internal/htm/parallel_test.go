package htm_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"suvtm/internal/htm"
	"suvtm/internal/htm/fastm"
	"suvtm/internal/htm/logtmse"
	"suvtm/internal/htm/suvtm"
	"suvtm/internal/mem"
	"suvtm/internal/sim"
	"suvtm/internal/workload"
)

// soloRun generates app on fresh memory and runs it to completion,
// returning the result and the final memory image. It reports failure
// as an error rather than through t so it can run on any goroutine.
func soloRun(app string, vm htm.VersionManager, cores int, scale float64) (*htm.Result, map[sim.Addr]sim.Word, error) {
	memory := mem.NewMemory()
	alloc := mem.NewAllocator(arenaHeapBase, arenaHeapSize)
	gen, err := workload.Get(app)
	if err != nil {
		return nil, nil, err
	}
	a := gen(workload.GenConfig{Cores: cores, Seed: 1, Scale: scale}, alloc, memory)
	m := htm.New(htm.DefaultConfig(cores), vm, a.Programs, memory, alloc)
	res, err := m.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", app, err)
	}
	if err := a.Check(m.ArchMem()); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", app, err)
	}
	return res, memory.Snapshot(), nil
}

// TestParallelBitIdentical pins that machines share no mutable state:
// for every scheme and a spread of workloads, machines built from the
// same spec and run at the same time on separate goroutines — the way
// the fleet, suvd and sweep run specs — must each be bit-identical to
// a run made alone: same Result (cycles, aggregate and per-core
// breakdowns, counters) and same final memory image, word for word.
// Under -race it also catches package-level state that one machine
// writes while another reads it.
func TestParallelBitIdentical(t *testing.T) {
	const runners = 4

	cases := []struct {
		app    string
		scheme string
		mk     func() htm.VersionManager
		cores  int
		scale  float64
	}{
		{"sessionstore", "SUV-TM", func() htm.VersionManager { return suvtm.New() }, 4, 0.2},
		{"sessionstore", "LogTM-SE", func() htm.VersionManager { return logtmse.New() }, 4, 0.2},
		{"sessionstore", "FasTM", func() htm.VersionManager { return fastm.New() }, 4, 0.2},
		{"vacation", "SUV-TM", func() htm.VersionManager { return suvtm.New() }, 4, 0.1},
		{"intruder", "LogTM-SE", func() htm.VersionManager { return logtmse.New() }, 4, 0.1},
		{"kmeans", "FasTM", func() htm.VersionManager { return fastm.New() }, 4, 0.1},
		{"bank", "SUV-TM", func() htm.VersionManager { return suvtm.New() }, 8, 0.2},
		{"genome", "SUV-TM", func() htm.VersionManager { return suvtm.New() }, 8, 0.05},
	}
	for _, tc := range cases {
		t.Run(tc.app+"/"+tc.scheme, func(t *testing.T) {
			want, wantImage, err := soloRun(tc.app, tc.mk(), tc.cores, tc.scale)
			if err != nil {
				t.Fatal(err)
			}

			type outcome struct {
				res   *htm.Result
				image map[sim.Addr]sim.Word
				err   error
			}
			outs := make([]outcome, runners)
			var wg sync.WaitGroup
			for i := range outs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					o := &outs[i]
					o.res, o.image, o.err = soloRun(tc.app, tc.mk(), tc.cores, tc.scale)
				}()
			}
			wg.Wait()

			for i, o := range outs {
				if o.err != nil {
					t.Fatalf("runner %d: %v", i, o.err)
				}
				got := o.res
				if got.Cycles != want.Cycles {
					t.Errorf("runner %d: cycles %d, alone %d", i, got.Cycles, want.Cycles)
				}
				if got.Breakdown != want.Breakdown {
					t.Errorf("runner %d: breakdown diverged:\nconcurrent %+v\nalone      %+v", i, got.Breakdown, want.Breakdown)
				}
				if got.Counters != want.Counters {
					t.Errorf("runner %d: counters diverged:\nconcurrent %+v\nalone      %+v", i, got.Counters, want.Counters)
				}
				if !reflect.DeepEqual(got.PerCore, want.PerCore) {
					t.Errorf("runner %d: per-core breakdowns diverged", i)
				}
				if len(o.image) != len(wantImage) {
					t.Fatalf("runner %d: memory image %d words, alone %d", i, len(o.image), len(wantImage))
				}
				for addr, w := range wantImage {
					if o.image[addr] != w {
						t.Fatalf("runner %d: memory diverged at %#x: concurrent %#x, alone %#x", i, addr, o.image[addr], w)
					}
				}
			}
		})
	}
}
