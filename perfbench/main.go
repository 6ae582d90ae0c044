// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload for a fixed measuring
// window, checks the program's outputs, prints every metric by name
// and unit, and ends with a one-line JSON result:
//
//	perfbench --workload anneal-ami33 --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs the same workload with timing wrappers around the layers and
// prints the per-layer metrics instead. The metric names and units
// come from BENCHMARK.json in the working directory, the repository
// root. run.sh builds the binary from source and forwards its
// arguments. README.md lists the workloads, the metrics and how they
// relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"irgrid/internal/buildinfo"
)

// metric is one named, unit-carrying figure of a run.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"-"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: its metrics, how many
// operations it attempted and failed, and free-form lines (workload
// parameters, per-repetition spreads, sample counts) printed above
// the result.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	notes     []string
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one correctness check; a failed check counts as a
// failed operation.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		r.note("CHECK FAILED: "+format, args...)
	}
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	tmp     string // scratch directory for on-disk state
}

type workload struct {
	name string
	run  func(options) (*report, error)
}

// spec is the part of BENCHMARK.json the program checks its output
// against: the metrics each mode prints, with their units.
type spec struct {
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &sp, nil
}

// complete checks rep's metrics against the set its mode must print:
// a metric outside the set, with another unit, or (end to end)
// missing is a failed check. The output carries every per-layer
// metric, so one the workload does not exercise is printed as 0 and
// named in a note.
func (r *report) complete(want []metric, perLayer bool) {
	units := map[string]string{}
	for _, w := range want {
		units[w.Name] = w.Unit
	}
	have := map[string]bool{}
	for _, m := range r.metrics {
		have[m.Name] = true
		r.check(units[m.Name] == m.Unit, "metric %s (%s) is not declared for this mode", m.Name, m.Unit)
	}
	var idle []string
	for _, w := range want {
		switch {
		case have[w.Name]:
		case perLayer:
			r.add(w.Name, 0, w.Unit)
			idle = append(idle, w.Name)
		default:
			r.check(false, "metric %s missing", w.Name)
		}
	}
	if len(idle) > 0 {
		r.note("not exercised by this workload, printed as 0: %v", idle)
	}
}

var workloads = []workload{
	{"anneal-ami33", func(o options) (*report, error) { return runAnneal(o, ami33) }},
	{"service-ami33", runService},
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "measuring window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	tmp := flag.String("tmp", os.TempDir(), "scratch directory for the service workload's state")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\nworkloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	sp, err := loadSpec("BENCHMARK.json") // run from the repository root
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, tmp: *tmp}
	fmt.Printf("# %s seed=%d seconds=%g trace=%d\n", w.name, o.seed, o.seconds, *trace)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s build=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), buildinfo.Version())
	start := time.Now()
	rep, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if o.trace {
		rep.complete(sp.PerLayer, true)
	} else {
		rep.complete(sp.EndToEnd, false)
	}
	for _, n := range rep.notes {
		fmt.Println("# " + n)
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	fmt.Printf("# wall %.1fs, max RSS %d MiB\n", time.Since(start).Seconds(), ru.Maxrss>>10)
	if !emit(rep) {
		os.Exit(1)
	}
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, st := range bi.Settings {
			if st.Key == "vcs.revision" {
				return st.Value
			}
		}
	}
	return "unknown"
}

// emit prints the metric table and the JSON result line, and reports
// whether the run passed every check.
func emit(rep *report) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.check(false, "metric %s is %g", m.Name, m.Value)
			continue
		}
		ms[m.Name] = value{m.Value, m.Unit}
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	if rep.attempted < 1 {
		rep.attempted = 1
		rep.failed = 1
	}
	if rep.failed > rep.attempted {
		rep.failed = rep.attempted
	}
	out, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, ms})
	fmt.Println(string(out))
	return rep.failed == 0
}
