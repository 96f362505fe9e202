package streaming

import (
	"fmt"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/datagen"
	"sssj/internal/stream"
)

// Microbenchmarks for the scan kernels. Each iteration replays a
// realistic stream through a fresh index, so ns/op measures the full
// candidate-generation path at two candidate densities (θ low = dense
// candidate sets, θ high = sparse, where the reject tier does most of
// the work).

func benchKernelItems(b *testing.B) []stream.Item {
	b.Helper()
	return datagen.RCV1Profile().Scaled(0.05).Generate(7)
}

// BenchmarkVerifyBlock: frozen scalar kernel vs block kernel, per index
// kind and candidate density. The STR-L2 cells run through a counting
// kernel and report exp/op, the decay factors evaluated per replay —
// one per live posting entry for the scalar kernel, about one per
// candidate for the block kernel. (STR-L2AP insists on the concrete
// exponential kernel, so its cells report time only.)
func BenchmarkVerifyBlock(b *testing.B) {
	items := benchKernelItems(b)
	for _, kind := range []Kind{L2, L2AP} {
		for _, theta := range []float64{0.5, 0.9} {
			for _, mode := range []string{"scalar", "vec"} {
				b.Run(fmt.Sprintf("%v/theta%.1f/%s", kind, theta, mode), func(b *testing.B) {
					p := apss.Params{Theta: theta, Lambda: 0.1}
					opts := Options{Ablations: Ablations{ScalarKernel: mode == "scalar"}}
					var exps int64
					if kind == L2 {
						opts.Kernel = countingKernel{apss.Exponential{Lambda: p.Lambda}, &exps}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						ix, err := New(kind, p, opts)
						if err != nil {
							b.Fatal(err)
						}
						for _, it := range items {
							if _, err := ix.Add(it); err != nil {
								b.Fatal(err)
							}
						}
					}
					if kind == L2 {
						b.ReportMetric(float64(exps)/float64(b.N), "exp/op")
					}
				})
			}
		}
	}
}
