package irgrid

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"irgrid/internal/core"
)

// benchRecord is one benchmark result in BENCH_evaluate.json.
type benchRecord struct {
	Name        string  `json:"name"`
	Nets        int     `json:"nets"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type benchDoc struct {
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	GoVersion  string        `json:"go_version"`
	Results    []benchRecord `json:"results"`
}

// TestWriteEvaluateBenchJSON regenerates BENCH_evaluate.json, the
// machine-readable record of the evaluation-engine benchmarks (ns/op
// and allocs/op of the IR-grid score path, with and without a context
// armed, and of the pooled wrapper).
// It runs only when IRGRID_BENCH_JSON is set:
//
//	IRGRID_BENCH_JSON=1 go test -run TestWriteEvaluateBenchJSON .
func TestWriteEvaluateBenchJSON(t *testing.T) {
	if os.Getenv("IRGRID_BENCH_JSON") == "" {
		t.Skip("set IRGRID_BENCH_JSON=1 to regenerate BENCH_evaluate.json")
	}

	doc := benchDoc{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}

	// Steady-state engine on the 500-net synthetic instance, without
	// and with a live (never-canceled) context armed, as the annealer
	// runs it under RunContext; the second row documents the cost of
	// the ctx checks every 64 nets.
	chip, nets := syntheticNets(500)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, cfg := range []struct {
		name string
		ctx  context.Context
	}{{"BenchmarkIRGridScore500/seq", nil}, {"BenchmarkIRGridScore500/seq+ctx", ctx}} {
		e := core.Model{Pitch: 30, Ctx: cfg.ctx}.NewEvaluator()
		e.Score(chip, nets) // warm arenas and memos outside the measurement
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s := e.Score(chip, nets); s <= 0 {
					b.Fatal("zero score")
				}
			}
		})
		doc.Results = append(doc.Results, benchRecord{
			Name: cfg.name, Nets: len(nets),
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
		})
	}

	// The legacy pooled-wrapper benchmark on the ami33 fixture, for
	// continuity with the pre-engine numbers.
	sol := ami33Solution(t)
	m := core.Model{Pitch: 30}
	m.Score(sol.Placement.Chip, sol.Nets) // warm the wrapper pool
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s := m.Score(sol.Placement.Chip, sol.Nets); s <= 0 {
				b.Fatal("zero score")
			}
		}
	})
	doc.Results = append(doc.Results, benchRecord{
		Name: "BenchmarkIRGridScore", Nets: len(sol.Nets),
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
	})

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_evaluate.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_evaluate.json:\n%s", buf)
}
