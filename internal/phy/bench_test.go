package phy

import (
	"fmt"
	"testing"
)

// BenchmarkFrameEndOverlap isolates the reception-verdict path: at n=100
// stations around the AP (every node listening), k stations start a data
// frame in the same instant — a k-way DCF collision — and the frame ends
// deliver verdicts to every audible receiver. k=1 is the clean-frame
// baseline. One op is one episode: k transmissions and their frame ends.
func BenchmarkFrameEndOverlap(b *testing.B) {
	for _, k := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			sched, m := newTestMedium()
			m.AddNode(APPosition(), nopListener{})
			var sts []*Node
			for _, p := range StationGrid(100) {
				sts = append(sts, m.AddNode(p, nopListener{}))
			}
			episode := func(i int) {
				for j := 0; j < k; j++ {
					st := sts[(i*7+j*13)%len(sts)]
					m.Transmit(st, Rate54Mbps, 1088, Payload{Src: st.ID})
				}
				sched.Run(0)
			}
			for i := 0; i < 3; i++ { // warm the Tx pool and scratch buffers
				episode(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				episode(i)
			}
		})
	}
}

// BenchmarkTopologyBuild measures what a cell pays for its topology at
// n=150: "cold" builds the gain matrix, audible sets and weakest-power
// bounds from scratch (a cache miss); "medium" is the path every cell
// takes — a fresh Medium, 151 AddNode calls and the first power query,
// served from the shared cache after the first op.
func BenchmarkTopologyBuild(b *testing.B) {
	cfg := DefaultConfig()
	ps := withAP(StationGrid(150))
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buildTopology(&cfg, ps)
		}
	})
	b.Run("medium", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, m := newTestMedium()
			for _, p := range ps {
				m.AddNode(p, nopListener{})
			}
			m.RxPower(m.nodes[1], m.nodes[0])
		}
	})
}
