package sim

import (
	"testing"

	"heterogen/internal/workload"
)

// BenchmarkFigure10Matrix is the simulator's layer row: the full-scale
// 13 × 3 Figure 10 matrix (Table III machine, full-length traces) on one
// worker. ns/msg divides the matrix time by the coherence messages it simulated; the time includes
// each job's trace generation and fusion, as in a sweep.
func BenchmarkFigure10Matrix(b *testing.B) {
	var jobs []Job
	for _, params := range workload.Benchmarks() {
		for _, v := range Figure10Variants() {
			jobs = append(jobs, Job{Pair: DefaultPair(), Params: params, Variant: v})
		}
	}
	b.ReportAllocs()
	var msgs uint64
	for i := 0; i < b.N; i++ {
		for _, r := range Sweep(TableIII(), jobs, 1) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			msgs += r.Stats.Messages
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
}
