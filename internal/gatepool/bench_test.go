package gatepool

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"wedge/internal/kernel"
	"wedge/internal/policy"
	"wedge/internal/sthread"
)

// BenchmarkQueuedSessions prices a session on a pool under queueing: 64
// producers share 4 slots, each session from a fresh principal, so most
// leases find no free ring at Acquire and wait in the pool queue until a
// worker binds them from its Complete hook. Besides ns per session it
// reports the realized entries per worker sweep (one doorbell covers a
// sweep) and the share of sessions whose lease Acquire returned unbound.
func BenchmarkQueuedSessions(b *testing.B) {
	const producers, slots = 64, 4
	app := sthread.Boot(kernel.New())
	err := app.Main(func(root *sthread.Sthread) {
		p, err := New(root, Config{
			Name:  "bench",
			Slots: slots,
			Gates: []GateDef{{Name: "worker", SC: policy.New(), Batch: batchEcho}},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		var next, queued atomic.Int64
		var wg sync.WaitGroup
		b.ResetTimer()
		for g := 0; g < producers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1)
					if i > int64(b.N) {
						return
					}
					l, err := p.Acquire("principal-" + strconv.FormatInt(i, 10))
					if err != nil {
						b.Error(err)
						return
					}
					if l.Arg == 0 {
						queued.Add(1)
					}
					_, err = l.CallBatch(root, 0, -1, 0)
					l.Release()
					if err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		st := p.Stats()
		b.ReportMetric(float64(st.BatchEntries)/float64(max(st.Batches, 1)), "entries/sweep")
		b.ReportMetric(float64(queued.Load())/float64(b.N), "queued/op")
	})
	if err != nil {
		b.Fatal(err)
	}
}
