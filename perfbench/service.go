package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"irgrid/floorplan"
	"irgrid/internal/server"
	"irgrid/internal/server/harness"
)

// The service workload: floorpland in process with its default
// configuration (one worker, a checkpoint every 5 temperatures) on a
// fresh state directory per repetition, driven over loopback HTTP by
// serviceClients closed-loop clients that each submit jobsPerClient
// small ami33 jobs with distinct seeds, wait for each to finish and
// fetch its result.
const (
	serviceClients = 2
	jobsPerClient  = 10
	jobMoves       = 10
	jobTemps       = 5
)

// jobSpec is a service job as an anneal the benchmark runs itself: the
// traced run replays each distinct job through it to split the job's
// work by layer.
var jobSpec = annealSpec{circuit: "ami33", moves: jobMoves, temps: jobTemps, seeds: 1, replay: 8}

func jobRequest(seed int64) *server.JobRequest {
	return &server.JobRequest{Benchmark: "ami33", Options: server.RunOptions{
		Alpha: 0.4, Beta: 0.2, Gamma: 0.4, Model: floorplan.ModelIRGrid, Pitch: pitch,
		Seed: seed, MovesPerTemp: jobMoves, MaxTemps: jobTemps,
	}}
}

// jobOptions is what the server runs for jobRequest(seed).
func jobOptions(seed int64) floorplan.Options {
	return floorplan.Options{
		Alpha: 0.4, Beta: 0.2, Gamma: 0.4,
		Congestion: floorplan.Congestion{Model: floorplan.ModelIRGrid, Pitch: pitch},
		Seed:       seed, MovesPerTemp: jobMoves, MaxTemps: jobTemps,
	}
}

// jobSeed gives client c's k-th job of the run its own seed.
func jobSeed(seed int64, c, k int) int64 {
	return seed*1000 + int64(c*jobsPerClient+k)
}

// jobTiming is one job as a client saw it, plus the server's own
// timestamps (traced runs only).
type jobTiming struct {
	id                         string
	seed                       int64
	total, submit, result      time.Duration
	created, started, finished int64
	res                        *server.JobResult
	err                        error
}

// doJob runs one job closed-loop: submit, follow its event stream until
// the job is terminal, fetch the result.
func doJob(ctx context.Context, cl *harness.Client, seed int64) jobTiming {
	jt := jobTiming{seed: seed}
	t0 := time.Now()
	st, err := cl.Submit(ctx, jobRequest(seed))
	if err != nil {
		jt.err = fmt.Errorf("submit: %w", err)
		return jt
	}
	jt.submit = time.Since(t0)
	jt.id = st.ID
	if _, err := cl.Events(ctx, st.ID, true); err != nil {
		jt.err = fmt.Errorf("events: %w", err)
		return jt
	}
	t1 := time.Now()
	jt.res, err = cl.Result(ctx, st.ID)
	jt.total = time.Since(t0)
	jt.result = time.Since(t1)
	if err != nil {
		jt.err = fmt.Errorf("result: %w", err)
	}
	return jt
}

// serviceRep is one repetition: server start and a warm-up job
// (set-up), then the job set with every client in parallel (timed).
// Traced, it then lists the jobs to read the server's timestamps, and
// returns how long that took.
func serviceRep(o options, dir string, traced bool) (sample, []jobTiming, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	defer os.RemoveAll(dir)
	t0 := settle()
	srv, err := server.New(server.Config{StateDir: dir})
	if err != nil {
		return sample{}, nil, 0, err
	}
	defer srv.Shutdown(context.Background())
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return sample{}, nil, 0, err
	}
	cl := harness.NewClient("http://" + addr.String())
	if w := doJob(ctx, cl, o.seed*1000-1); w.err != nil {
		return sample{}, nil, 0, fmt.Errorf("warm-up job: %w", w.err)
	}
	setup := time.Since(t0).Seconds()

	jobs := make([]jobTiming, serviceClients*jobsPerClient)
	var wg sync.WaitGroup
	sec := begin()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < jobsPerClient; k++ {
				jobs[c*jobsPerClient+k] = doJob(ctx, cl, jobSeed(o.seed, c, k))
			}
		}(c)
	}
	wg.Wait()
	var cost float64
	for _, j := range jobs {
		if j.res != nil {
			cost += j.res.Cost
		}
	}
	s := sec.end(len(jobs), o.seed, cost)
	s.setup = setup
	for _, j := range jobs {
		if j.err == nil {
			s.lat = append(s.lat, float64(j.total)/1e6)
		}
	}
	if !traced {
		return s, jobs, 0, nil
	}
	t := time.Now()
	sts, err := cl.List(ctx)
	if err != nil {
		return s, nil, 0, err
	}
	list := time.Since(t)
	byID := map[string]*server.JobStatus{}
	for _, st := range sts {
		byID[st.ID] = st
	}
	for i := range jobs {
		if st := byID[jobs[i].id]; st != nil {
			jobs[i].created, jobs[i].started, jobs[i].finished = st.CreatedUnixNs, st.StartedUnixNs, st.FinishedUnixNs
		}
	}
	return s, jobs, list, nil
}

// serviceMinReps repetitions give the latency p95 its 200 samples.
const serviceMinReps = 200/(serviceClients*jobsPerClient) + 1

func runService(o options) (*report, error) {
	rep := &report{}
	rep.note("params: floorpland default config (1 worker, checkpoint every 5 temps); %d closed-loop clients x %d ami33 jobs of %dx%d per repetition, seeds %d..%d",
		serviceClients, jobsPerClient, jobMoves, jobTemps, jobSeed(o.seed, 0, 0), jobSeed(o.seed, serviceClients-1, jobsPerClient-1))
	var (
		reps       []sample
		done       []jobTiming
		list, wall time.Duration
		want       = map[int64]*server.JobResult{}
	)
	w := newWindow(o.seconds)
	for i := 0; w.next(serviceMinReps); i++ {
		dir := filepath.Join(o.tmp, fmt.Sprintf("perfbench-service-%d-%d", os.Getpid(), i))
		s, jobs, l, err := serviceRep(o, dir, o.trace)
		if err != nil {
			return nil, err
		}
		reps = append(reps, s)
		list += l
		wall += time.Duration(s.wall * float64(time.Second))
		for _, j := range jobs {
			rep.attempted++
			if j.err != nil {
				rep.check(false, "job seed %d: %v", j.seed, j.err)
				continue
			}
			if prev, seen := want[j.seed]; seen {
				rep.check(sameResult(prev, j.res), "job seed %d: result differs between repetitions", j.seed)
			} else {
				want[j.seed] = j.res
			}
			done = append(done, j)
		}
	}
	if err := checkDirect(want, rep); err != nil {
		return nil, err
	}
	if !o.trace {
		return rep, endToEnd(rep, reps, "jobs submitted, run and fetched")
	}
	// Tracing adds only the job listing after each timed section.
	rep.add("trace.overhead_share", float64(list)/float64(wall+list), "ratio")
	serviceTraced(rep, done)
	return rep, jobLayers(o, want, rep)
}

// jobLayers splits the service's job work by layer: it reruns every
// distinct job as a traced anneal of its own, checks that the rerun
// reaches the service's result, and reports the anneal, full
// evaluation and checkpoint layers of the reruns.
func jobLayers(o options, got map[int64]*server.JobResult, rep *report) error {
	dir, err := os.MkdirTemp(o.tmp, "perfbench-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var tr tracedRuns
	for _, seed := range sortedSeeds(got) {
		ar, err := annealOnce(jobSpec, seed, true, dir)
		if err != nil {
			return err
		}
		rep.check(ar.cost == got[seed].Cost, "job seed %d: traced rerun cost %v != service's %v", seed, ar.cost, got[seed].Cost)
		if err := tr.add(ar, jobSpec, seed, rep); err != nil {
			return err
		}
	}
	if err := fullEvalLayers(0, tr.finals, rep); err != nil {
		return err
	}
	return tr.report(rep)
}

func sortedSeeds(m map[int64]*server.JobResult) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkDirect reruns every distinct job with floorplan.Run and checks
// that the service returned the same result.
func checkDirect(got map[int64]*server.JobResult, rep *report) error {
	c, err := floorplan.Benchmark("ami33")
	if err != nil {
		return err
	}
	for _, seed := range sortedSeeds(got) {
		direct, err := floorplan.Run(c, jobOptions(seed))
		if err != nil {
			return err
		}
		rep.check(sameResult(got[seed], &server.JobResult{
			Circuit: direct.Circuit, ChipW: direct.ChipW, ChipH: direct.ChipH, Area: direct.Area,
			Wirelength: direct.Wirelength, CongestionCost: direct.CongestionCost, Cost: direct.Cost,
			Modules: direct.Modules, Temperatures: direct.Temperatures, Moves: direct.Moves,
			CalibrationMoves: direct.CalibrationMoves, Accepted: direct.Accepted,
		}), "job seed %d: service result differs from floorplan.Run", seed)
	}
	return nil
}

// sameResult compares the deterministic part of two job results.
func sameResult(a, b *server.JobResult) bool {
	if a.Circuit != b.Circuit || a.ChipW != b.ChipW || a.ChipH != b.ChipH || a.Area != b.Area ||
		a.Wirelength != b.Wirelength || a.CongestionCost != b.CongestionCost || a.Cost != b.Cost ||
		a.Temperatures != b.Temperatures || a.Moves != b.Moves ||
		a.CalibrationMoves != b.CalibrationMoves || a.Accepted != b.Accepted || len(a.Modules) != len(b.Modules) {
		return false
	}
	for i := range a.Modules {
		if a.Modules[i] != b.Modules[i] {
			return false
		}
	}
	return true
}

// serviceTraced reports the service phases of the completed jobs:
// client-side request times and the server's own timestamps.
func serviceTraced(rep *report, jobs []jobTiming) {
	var submit, wait, run, result []float64
	for _, j := range jobs {
		submit = append(submit, float64(j.submit)/1e6)
		wait = append(wait, float64(j.started-j.created)/1e6)
		run = append(run, float64(j.finished-j.started)/1e6)
		result = append(result, float64(j.result)/1e6)
	}
	rep.add("server.submit_ms_p50", median(submit), "ms")
	rep.add("server.queue_wait_ms_p50", median(wait), "ms")
	rep.add("server.run_ms_p50", median(run), "ms")
	rep.add("server.result_ms_p50", median(result), "ms")
	p95, ok := percentile(wait, 0.95)
	rep.check(ok, "%d jobs cannot support server.queue_wait_ms_p95", len(wait))
	rep.add("server.queue_wait_ms_p95", p95, "ms")
	rep.note("%d jobs traced", len(jobs))
}
