// Command congest evaluates the congestion of a floorplan produced by
// `floorplan -json`: it re-scores the decomposed two-pin nets under a
// chosen congestion model and renders an ASCII heat map with the most
// congested regions.
//
// Example:
//
//	floorplan -circuit ami33 -json > ami33.json
//	congest -in ami33.json -model ir-grid -pitch 30 -heatmap
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"irgrid/congestion"
	"irgrid/internal/ascii"
	"irgrid/internal/buildinfo"
	"irgrid/internal/cli"
	"irgrid/telemetry"
)

type floorplanDoc struct {
	Circuit string       `json:"circuit"`
	ChipW   float64      `json:"chip_w"`
	ChipH   float64      `json:"chip_h"`
	Nets    [][4]float64 `json:"nets"`
}

func main() {
	var (
		in      = flag.String("in", "", "floorplan JSON produced by `floorplan -json` (default stdin)")
		model   = flag.String("model", "ir-grid", "congestion model: ir-grid, ir-grid-exact, fixed-grid, fixed-grid-lz, routed")
		pitch   = flag.Float64("pitch", 30, "grid pitch in um")
		top     = flag.Int("top", 5, "number of hotspots to list")
		heatmap = flag.Bool("heatmap", false, "render an ASCII heat map")
		csvOut  = flag.String("csv", "", "write the congestion map as CSV to this file ('-' for stdout)")
		metrics = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof/ on this host:port during evaluation")
		timeout = flag.Duration("timeout", 0, "abort the evaluation after this duration (exit 124; also stops on SIGINT/SIGTERM)")
		version = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Version())
		return
	}

	var doc floorplanDoc
	var dec *json.Decoder
	if *in == "" {
		dec = json.NewDecoder(os.Stdin)
	} else {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		dec = json.NewDecoder(f)
	}
	if err := dec.Decode(&doc); err != nil {
		fatal(fmt.Errorf("parsing floorplan document: %w", err))
	}

	nets := make([]congestion.Net, len(doc.Nets))
	for i, n := range doc.Nets {
		nets[i] = congestion.Net{X1: n[0], Y1: n[1], X2: n[2], Y2: n[3]}
	}
	opts := congestion.Options{Pitch: *pitch}
	if *metrics != "" {
		opts.Obs = telemetry.NewRegistry()
		opts.Spans = telemetry.NewSpans()
		srv, addr, err := telemetry.ServeHub(*metrics, telemetry.Hub{Reg: opts.Obs, Spans: opts.Spans})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "congest: serving metrics at http://%s/metrics\n", addr)
	}

	ctx, stop := cli.SignalContext(*timeout)
	defer stop()

	var mp *congestion.Map
	var err error
	switch *model {
	case "ir-grid":
		mp, err = congestion.EstimateIRContext(ctx, doc.ChipW, doc.ChipH, nets, opts)
	case "ir-grid-exact":
		opts.Exact = true
		mp, err = congestion.EstimateIRContext(ctx, doc.ChipW, doc.ChipH, nets, opts)
	case "fixed-grid":
		mp, err = congestion.EstimateFixed(doc.ChipW, doc.ChipH, nets, opts)
	case "fixed-grid-lz":
		opts.BendLimited = true
		mp, err = congestion.EstimateFixed(doc.ChipW, doc.ChipH, nets, opts)
	case "routed":
		mp, err = congestion.EstimateRouted(doc.ChipW, doc.ChipH, nets, congestion.RouteOptions{Pitch: *pitch})
	default:
		cli.Fatalf("congest", cli.ExitUsage, "unknown model %q", *model)
	}
	if err != nil {
		cli.Fatal("congest", err, congestion.ErrInvalidInput)
	}

	fmt.Printf("circuit   %s (%.0f x %.0f um, %d two-pin nets)\n", doc.Circuit, doc.ChipW, doc.ChipH, len(nets))
	fmt.Printf("model     %s, pitch %.0f um, %d cells\n", mp.Model, *pitch, mp.Cells)
	fmt.Printf("score     %.6g (top-10%% average density, 1/um2)\n", mp.Score)
	fmt.Printf("max cell  %.6g\n", mp.MaxDensity())

	fmt.Printf("\ntop %d hotspots:\n", *top)
	hs := hotspots(mp, *top)
	for _, h := range hs {
		fmt.Printf("  [%6.0f %6.0f .. %6.0f %6.0f]  density %.6g\n", h.x1, h.y1, h.x2, h.y2, h.d)
	}

	if *heatmap {
		fmt.Println()
		fmt.Print(ascii.HeatMap(mp.XLines, mp.YLines, mp.Density, 64, 24))
		fmt.Print(ascii.Legend())
	}

	if *csvOut != "" {
		w := os.Stdout
		if *csvOut != "-" {
			f, err := os.Create(*csvOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := writeCSV(w, mp); err != nil {
			fatal(err)
		}
	}
}

// writeCSV emits one row per cell: x1,y1,x2,y2,density.
func writeCSV(w io.Writer, mp *congestion.Map) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"x1", "y1", "x2", "y2", "density"}); err != nil {
		return err
	}
	for iy := 0; iy+1 < len(mp.YLines); iy++ {
		for ix := 0; ix+1 < len(mp.XLines); ix++ {
			rec := []string{
				strconv.FormatFloat(mp.XLines[ix], 'g', -1, 64),
				strconv.FormatFloat(mp.YLines[iy], 'g', -1, 64),
				strconv.FormatFloat(mp.XLines[ix+1], 'g', -1, 64),
				strconv.FormatFloat(mp.YLines[iy+1], 'g', -1, 64),
				strconv.FormatFloat(mp.Density[iy][ix], 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

type hotspot struct{ x1, y1, x2, y2, d float64 }

func hotspots(mp *congestion.Map, k int) []hotspot {
	var hs []hotspot
	for iy := 0; iy+1 < len(mp.YLines); iy++ {
		for ix := 0; ix+1 < len(mp.XLines); ix++ {
			hs = append(hs, hotspot{
				x1: mp.XLines[ix], y1: mp.YLines[iy],
				x2: mp.XLines[ix+1], y2: mp.YLines[iy+1],
				d: mp.Density[iy][ix],
			})
		}
	}
	for i := 0; i < len(hs); i++ { // selection sort of the top k
		best := i
		for j := i + 1; j < len(hs); j++ {
			if hs[j].d > hs[best].d {
				best = j
			}
		}
		hs[i], hs[best] = hs[best], hs[i]
		if i+1 >= k {
			break
		}
	}
	if k < len(hs) {
		hs = hs[:k]
	}
	return hs
}

func fatal(err error) {
	cli.Fatal("congest", err, congestion.ErrInvalidInput)
}
