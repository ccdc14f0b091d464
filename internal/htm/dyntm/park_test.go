package dyntm

import (
	"reflect"
	"testing"

	"suvtm/internal/htm"
	"suvtm/internal/mem"
	"suvtm/internal/trace"
	"suvtm/internal/workload"
)

// TestParkedLazyRequesterDoomedByStore parks a lazy transaction's load
// behind an eager writer, then lets another core store non-transactionally
// to a line the lazy transaction read. The store dooms the lazy
// transaction (strong isolation), so its next retry must abort instead of
// stalling: the parked core must wake at the store, not at the writer's
// commit much later.
func TestParkedLazyRequesterDoomedByStore(t *testing.T) {
	run := func(traced bool) (*htm.Machine, *htm.Result) {
		memory := mem.NewMemory()
		alloc := mem.NewAllocator(0x100000, 1<<30)
		region := workload.NewRegion(alloc, 2)
		held, read := region.WordAddr(0, 0), region.WordAddr(1, 0)
		writer := workload.NewBuilder().Begin(1).StoreImm(held, 1).Compute(30_000).Commit().Barrier(0)
		lazy := workload.NewBuilder().Compute(100).Begin(2).Load(0, read).Load(1, held).Commit().Barrier(0)
		storer := workload.NewBuilder().Compute(3_000).StoreImm(read, 5).Barrier(0)
		vm := New()
		m := htm.New(htm.DefaultConfig(3), vm, []workload.Program{writer.Build(), lazy.Build(), storer.Build()}, memory, alloc)
		vm.predictor[2] = predictLazyAt // site 2 runs lazy
		if traced {
			m.SetTracer(trace.NewRecorder(1))
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m, res
	}
	traced, want := run(true)
	if c := traced.Cores[1].Counters; c.LazyTx == 0 || c.RemoteAborts == 0 {
		t.Fatalf("setup: lazy transactions %d, remote aborts %d", c.LazyTx, c.RemoteAborts)
	}
	m, got := run(false)
	if m.SettledRetries() == 0 {
		t.Fatal("the lazy requester never parked")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parked run differs from the per-retry loop:\n got %+v\nwant %+v", got, want)
	}
}
