package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/spec"
)

// sizes are the workload dimensions. fullSizes is what the benchmark
// measures; the package test runs the same code at tiny sizes.
type sizes struct {
	stationaryN int
	recoveryN   int
	meshN       int
	shards      int
	// warmRounds are run before a stationary or mesh window opens, so
	// the first-touch faults and the one-per-bin start stay out of it.
	warmRounds int64
	// setupMin/setupMax/setupBudget bound the repeated set-ups behind
	// setup_s: at least setupMin, then more until setupBudget of wall time
	// (tear-downs included) is spent.
	setupMin, setupMax int
	setupBudget        time.Duration
	// probeBudget is the time each per-layer probe measures for.
	probeBudget time.Duration
	serve       serveSizes
}

var fullSizes = sizes{
	stationaryN: 1 << 24,
	recoveryN:   1 << 15,
	meshN:       1 << 20,
	shards:      8,
	warmRounds:  2,
	setupMin:    3,
	setupMax:    200,
	setupBudget: time.Second,
	probeBudget: 400 * time.Millisecond,
	serve:       fullServeSizes,
}

// simSpec is the RunSpec of a simulation workload: the original process
// with m = n on S shards, quantiles tracked as rbb-sim -json tracks them.
func simSpec(workload string, seed uint64, z sizes) (spec.RunSpec, error) {
	sp := spec.RunSpec{
		Seed:      seed,
		Rounds:    math.MaxInt32, // an upper bound: runs stop on time or on legitimacy
		Shards:    z.shards,
		Quantiles: []float64{0.5, 0.99},
	}
	switch workload {
	case "stationary":
		sp.N, sp.Init = z.stationaryN, string(config.GenOnePerBin)
	case "recovery":
		sp.N, sp.Init = z.recoveryN, string(config.GenAllInOne)
	case "mesh":
		// Two self-spawned loopback workers with one phase worker each:
		// the load stays within the box's two cores.
		sp.N, sp.Init = z.meshN, string(config.GenOnePerBin)
		sp.Placement = spec.Placement{Transport: spec.TransportTCPMesh, Procs: 2, Workers: 1}
	default:
		return sp, fmt.Errorf("not a simulation workload: %q", workload)
	}
	return sp, sp.Normalize(0)
}

// buildRepeated builds sp until the set-up budget is spent, closing every
// process but the last, and returns the set-up durations and that process.
func buildRepeated(sp spec.RunSpec, z sizes) ([]time.Duration, spec.Process, error) {
	var ds []time.Duration
	start := time.Now()
	for {
		runtime.GC() // the previous set-up's garbage must not be collected inside this one
		t := time.Now()
		p, err := sp.Build(0)
		d := time.Since(t)
		if err != nil {
			return nil, nil, fmt.Errorf("build: %w", err)
		}
		ds = append(ds, d)
		if len(ds) >= z.setupMax || (len(ds) >= z.setupMin && time.Since(start) >= z.setupBudget) {
			return ds, p, nil
		}
		if err := p.Close(); err != nil {
			return nil, nil, fmt.Errorf("close: %w", err)
		}
	}
}

// driveResult is the timing of one drive call.
type driveResult struct {
	durs []time.Duration // per round: step plus the pipeline's observation
	wall time.Duration
}

// drive steps p through checkpoint.Run — the frontends' observe loop,
// here without a checkpoint path — with pipe observing every round, and
// times each round, until stop returns true after a round. The round
// times are appended to buf[:0], so a caller reusing buf keeps the
// benchmark's own memory the same however many rounds it has timed.
func drive(p checkpoint.Process, pipe *shard.Pipeline, seed uint64, buf []time.Duration, stop func(s engine.Stepper, elapsed time.Duration) bool) (driveResult, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := driveResult{durs: buf[:0]}
	start := time.Now()
	last := start
	timer := engine.ObserverFunc(func(s engine.Stepper) {
		now := time.Now()
		res.durs = append(res.durs, now.Sub(last))
		last = now
		if stop(s, now.Sub(start)) {
			cancel()
		}
	})
	_, _, err := checkpoint.Run(ctx, p, math.MaxInt64, checkpoint.Policy{Seed: seed, Pipeline: pipe}, timer)
	res.wall = time.Since(start)
	return res, err
}

// simRun is what an untraced simulation run leaves for the checks and the
// traced replay.
type simRun struct {
	spec    spec.RunSpec
	rounds  int64 // rounds of the (first) run, warm-up included
	wall    time.Duration
	summary []byte
	// released is the last round's released-ball count, for the
	// working-set figure.
	released int
}

// summaryJSON encodes a Summary exactly as rbb-sim -json and the serve
// result endpoint do.
func summaryJSON(pipe *shard.Pipeline, s engine.Stepper) ([]byte, error) {
	blob, err := json.Marshal(pipe.SummaryFor(s))
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// checkConservation checks ball conservation on p: the engine invariants
// (which include it) in process, the gathered load vector's sum across
// processes.
func checkConservation(rep *report, p spec.Process, m int) error {
	if inv, ok := p.(interface{ CheckInvariants() error }); ok {
		err := inv.CheckInvariants()
		rep.check(err == nil, "invariants after the run: %v", err)
		return nil
	}
	snap, err := p.(checkpoint.Process).Snapshot()
	if err != nil {
		return fmt.Errorf("gathering the final state: %w", err)
	}
	var sum int64
	for _, sh := range snap.Shards {
		for _, l := range sh.Loads {
			sum += int64(l)
		}
	}
	rep.check(sum == int64(m), "balls not conserved: %d in the bins, %d thrown in", sum, m)
	return nil
}

// runSim runs the stationary, recovery or mesh workload.
func runSim(opt options, rep *report) error {
	z := opt.sizes
	sp, err := simSpec(opt.workload, opt.seed, z)
	if err != nil {
		return err
	}
	legit := config.LegitimateThreshold(sp.N, config.Beta)
	rep.note("workload %s: process=%s n=%d m=%d shards=%d init=%s transport=%s procs=%d legit_threshold=%d",
		opt.workload, sp.Process, sp.N, sp.M, sp.Shards, sp.Init, sp.Placement.Transport, sp.Placement.Procs, legit)

	setups, proc, err := buildRepeated(sp, z)
	if err != nil {
		return err
	}
	var run simRun
	if opt.workload == "recovery" {
		run, err = runRecovery(opt, rep, sp, proc, legit)
	} else {
		run, setups, err = runWindow(opt, rep, sp, proc, setups, legit)
	}
	if err != nil {
		return err
	}
	rep.set("setup_s", median(seconds(setups)), "s", len(setups), "")
	rep.set("spec.build_s", median(seconds(setups)), "s", len(setups), "")
	// Working set: loads and arrival cells at one byte per bin, the
	// worklist bit per bin, and a four-byte exchange entry per thrown
	// ball (the last round's count).
	ws := int64(sp.N)*2 + int64(sp.N)/8 + int64(run.released)*4
	rep.workingSet(ws, fmt.Sprintf("2 B/bin load+arrival cells + 1 bit/bin worklist + 4 B x %d exchanged balls", run.released))
	if opt.trace {
		return traceSim(opt, rep, run, legit)
	}
	return nil
}

// segments is how many freshly built engines a stationary or mesh window
// is split across. Round times drift with the machine's load over seconds
// and differ from one allocation of the engine to the next; taking each
// figure as the median over several builds keeps a disturbance confined
// to one of them out of the result.
const segments = 4

// prefixRounds is the round count at which every mesh segment's Summary
// is compared with the pool's.
const prefixRounds = 128

// runWindow runs the stationary or mesh workload: segments fresh builds of
// the spec, each run for warm-up rounds and then its share of the window,
// every round checked against the legitimacy threshold (Theorem 1: the
// process stays legitimate). It returns the set-up durations extended by
// the segments' builds.
func runWindow(opt options, rep *report, sp spec.RunSpec, proc spec.Process, setups []time.Duration, legit int32) (simRun, []time.Duration, error) {
	z := opt.sizes
	mesh := sp.Placement.Transport == spec.TransportTCPMesh
	defer func() {
		if proc != nil { // an error return: still stop the engine and reap its workers
			proc.Close()
		}
	}()
	var (
		run      simRun
		segs     []segment
		buf      []time.Duration
		timed    int
		over     int64
		rounds   int64
		prefixes [][]byte
		tcpDelta tcpCounters
		workers  []float64 // mesh: each segment's largest worker peak RSS, MiB
	)
	for k := 0; k < segments; k++ {
		if k > 0 {
			runtime.GC()
			t := time.Now()
			var err error
			if proc, err = sp.Build(0); err != nil {
				return simRun{}, nil, fmt.Errorf("build: %w", err)
			}
			setups = append(setups, time.Since(t))
		}
		p := proc.(checkpoint.Process)
		pipe, err := shard.NewPipeline(sp.Quantiles)
		if err != nil {
			return simRun{}, nil, err
		}
		runtime.GC() // the build's garbage is set-up work: collect it before the clock runs
		var prefix []byte
		observe := func(s engine.Stepper) {
			if s.MaxLoad() > legit {
				over++
			}
			if s.Round() == prefixRounds {
				prefix, _ = json.Marshal(pipe.Summary())
			}
		}
		warm, err := drive(p, pipe, sp.Seed, nil, func(s engine.Stepper, _ time.Duration) bool {
			observe(s)
			return s.Round() >= z.warmRounds
		})
		if err != nil {
			return simRun{}, nil, err
		}
		var before tcpCounters
		if mesh {
			before = readTCP()
		}
		share := opt.window / segments
		seg, err := drive(p, pipe, sp.Seed, buf, func(s engine.Stepper, elapsed time.Duration) bool {
			observe(s)
			return elapsed >= share && (!mesh || s.Round() >= prefixRounds)
		})
		if err != nil {
			return simRun{}, nil, err
		}
		if mesh {
			d := readTCP().sub(before)
			tcpDelta.bytes += d.bytes
			tcpDelta.barrierSeconds += d.barrierSeconds
			tcpDelta.barrierCount += d.barrierCount
		}
		segs = append(segs, segmentOf(sp.N, seg.durs))
		buf = seg.durs
		timed += len(seg.durs)
		rounds += p.Round()
		prefixes = append(prefixes, prefix)
		if err := checkConservation(rep, proc, sp.M); err != nil {
			return simRun{}, nil, err
		}
		if mesh {
			mb, live, err := workersPeakRSSMB()
			if err != nil {
				return simRun{}, nil, err
			}
			rep.check(live == sp.Placement.Procs, "segment %d: %d live worker processes, want %d", k, live, sp.Placement.Procs)
			workers = append(workers, mb)
		}
		if k == 0 {
			sum, err := summaryJSON(pipe, p)
			if err != nil {
				return simRun{}, nil, err
			}
			run = simRun{spec: sp, rounds: p.Round(), wall: warm.wall + seg.wall, summary: sum, released: releasedOf(proc)}
		}
		if err := proc.Close(); err != nil {
			return simRun{}, nil, fmt.Errorf("close: %w", err)
		}
		proc = nil // let the next segment's set-up collect this engine
	}
	rep.checks(rounds, over, "%d of %d rounds exceeded the legitimacy threshold %d", over, rounds, legit)
	rep.setSegments(segs)
	rep.set("rounds", float64(rounds), "count", segments, "")
	if mesh {
		// The workers hold the state: their peak, not the coordinator's.
		// Each segment's workers are read before they are closed. Not
		// RUSAGE_CHILDREN: a child spawned with vfork, as os/exec does,
		// takes the parent's peak resident set at the spawn as its own
		// maxrss, so that reports the coordinator whenever it is larger.
		rep.set("peak_rss_mb", median(workers), "MB", len(workers), "largest worker VmHWM, median over segments")
		rep.note("mesh worker peak RSS per segment (MiB): %.2f", workers)
		if own, err := peakRSSMB(); err == nil {
			rep.set("coordinator_peak_rss_mb", own, "MB", 0, "VmHWM")
		}
		rep.set("tcp.coord_barrier_ms", tcpDelta.barrierSeconds*1e3/float64(max(tcpDelta.barrierCount, 1)), "ms", int(tcpDelta.barrierCount), "")
		rep.set("tcp.coord_bytes_per_round", float64(tcpDelta.bytes)/float64(timed), "B", timed, "")
		if err := checkAgainstPool(rep, sp, prefixes); err != nil {
			return simRun{}, nil, err
		}
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return simRun{}, nil, err
		}
		rep.set("peak_rss_mb", rss, "MB", 0, "VmHWM")
	}
	return run, setups, nil
}

// releasedOf reads the last round's released-ball count from the engines
// that expose it.
func releasedOf(p spec.Process) int {
	switch e := p.(type) {
	case *shard.Process:
		return e.Engine().Released()
	case interface{ Released() int }:
		return e.Released()
	}
	return 0
}

// checkAgainstPool runs the same spec in process on the pool for
// prefixRounds rounds and checks that every mesh segment's Summary at that
// round is byte-equal to the pool's.
func checkAgainstPool(rep *report, sp spec.RunSpec, prefixes [][]byte) error {
	ref := sp
	ref.Placement = spec.Placement{}
	if err := ref.Normalize(0); err != nil {
		return err
	}
	proc, err := ref.Build(0)
	if err != nil {
		return fmt.Errorf("pool reference: %w", err)
	}
	defer proc.Close()
	pipe, err := shard.NewPipeline(ref.Quantiles)
	if err != nil {
		return err
	}
	if _, err := drive(proc.(checkpoint.Process), pipe, ref.Seed, nil, func(s engine.Stepper, _ time.Duration) bool {
		return s.Round() >= prefixRounds
	}); err != nil {
		return fmt.Errorf("pool reference: %w", err)
	}
	want, err := json.Marshal(pipe.Summary())
	if err != nil {
		return err
	}
	for k, got := range prefixes {
		rep.check(string(got) == string(want), "mesh segment %d Summary at round %d %q differs from the pool Summary %q",
			k, prefixRounds, got, want)
	}
	return nil
}

// segment is the round statistics of one segment of a run: a fresh build,
// or one convergence.
type segment struct {
	p50, p90 float64 // round latency, ms
	tput     float64 // bin-rounds per second
	rounds   int
}

// segmentOf summarizes the round times of one segment over n bins.
func segmentOf(n int, ds []time.Duration) segment {
	ms := make([]float64, len(ds))
	var busy time.Duration
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
		busy += d
	}
	return segment{
		p50:    quantile(ms, 0.5),
		p90:    quantile(ms, 0.9),
		tput:   float64(n) * float64(len(ds)) / busy.Seconds(),
		rounds: len(ds),
	}
}

// setSegments records the round metrics of a run made of several
// segments: the round latency median and 90th percentile and the
// bin-round throughput, each as the median over the segments of that
// segment's figure, so one segment slowed by a passing disturbance of the
// machine does not move the run's result.
func (r *report) setSegments(segs []segment) {
	var p50, p90, tput []float64
	rounds := 0
	for _, sg := range segs {
		p50 = append(p50, sg.p50)
		p90 = append(p90, sg.p90)
		tput = append(tput, sg.tput)
		rounds += sg.rounds
	}
	label := fmt.Sprintf("median over %d segments", len(segs))
	tail := label + "; " + beyondNote(rounds, 0.9)
	for _, name := range []string{"latency_ms", "round_ms"} {
		r.set(name+"_p50", median(p50), "ms", rounds, label)
		r.set(name+"_p90", median(p90), "ms", rounds, tail)
	}
	r.set("bin_rounds_per_s", median(tput), "1/s", rounds, label)
}

// runRecovery runs the recovery workload: all-in-one start, run until the
// max load first reaches the legitimacy threshold (the convergence
// theorem). Convergences repeat, each on its own seed derived from the
// workload seed, until the window is spent.
func runRecovery(opt options, rep *report, sp spec.RunSpec, proc spec.Process, legit int32) (simRun, error) {
	// The theorem's linear-time bound with a generous constant: a run
	// that has not converged by then is a failure.
	limit := int64(16 * sp.N)
	var (
		first      simRun
		all        []segment
		buf        []time.Duration
		toLegit    []float64
		roundsList []float64
		elapsed    time.Duration
	)
	for i := 0; i == 0 || elapsed < opt.window; i++ {
		isp := sp
		if i > 0 {
			isp.Seed = rng.NewStream(sp.Seed, uint64(i)).Uint64()
			var err error
			if proc, err = isp.Build(0); err != nil {
				return simRun{}, fmt.Errorf("build: %w", err)
			}
		}
		p := proc.(checkpoint.Process)
		pipe, err := shard.NewPipeline(isp.Quantiles)
		if err != nil {
			return simRun{}, err
		}
		runtime.GC()
		res, err := drive(p, pipe, isp.Seed, buf, func(s engine.Stepper, _ time.Duration) bool {
			return s.MaxLoad() <= legit || s.Round() >= limit
		})
		if err != nil {
			return simRun{}, err
		}
		rounds := p.Round()
		rep.checks(rounds, 0, "")
		rep.check(p.MaxLoad() <= legit, "seed %d: max load %d after %d rounds, not legitimate (threshold %d)",
			isp.Seed, p.MaxLoad(), rounds, legit)
		if err := checkConservation(rep, proc, isp.M); err != nil {
			return simRun{}, err
		}
		if i == 0 {
			sum, err := summaryJSON(pipe, p)
			if err != nil {
				return simRun{}, err
			}
			first = simRun{spec: isp, rounds: rounds, wall: res.wall, summary: sum, released: releasedOf(proc)}
		}
		if err := proc.Close(); err != nil {
			return simRun{}, fmt.Errorf("close: %w", err)
		}
		all = append(all, segmentOf(sp.N, res.durs))
		buf = res.durs
		toLegit = append(toLegit, res.wall.Seconds())
		roundsList = append(roundsList, float64(rounds))
		elapsed += res.wall
	}
	rep.setSegments(all)
	rep.set("time_to_legit_s", median(toLegit), "s", len(toLegit), "")
	rep.set("rounds_to_legit", median(roundsList), "count", len(roundsList), "")
	rss, err := peakRSSMB()
	if err != nil {
		return simRun{}, err
	}
	rep.set("peak_rss_mb", rss, "MB", 0, "VmHWM")
	return first, nil
}

// traceSim is the traced half of a --trace 1 simulation run: a traced
// replay of the untraced run's rounds, checked against it, then the
// per-layer probes.
func traceSim(opt options, rep *report, run simRun, legit int32) error {
	sp := run.spec
	workers := runtime.GOMAXPROCS(0)
	if workers > sp.Shards {
		workers = sp.Shards
	}
	tr := newTracer()
	rp, err := replay(sp, run.rounds, workers, tr, legit)
	if err != nil {
		return err
	}
	rep.check(string(rp.summary) == string(run.summary), "traced replay Summary %q differs from the untraced run's %q", rp.summary, run.summary)
	if opt.workload == "recovery" {
		rep.check(rp.firstLegit == run.rounds, "traced replay reached legitimacy at round %d, the untraced run at %d", rp.firstLegit, run.rounds)
	}
	rep.note("replay: %d rounds, untraced %.3f ms/round, traced replay %.3f ms/round",
		run.rounds, run.wall.Seconds()*1e3/float64(run.rounds), rp.wall.Seconds()*1e3/float64(run.rounds))
	accountTracer, accountWall := tr, rp.wall
	overhead := rp.wall.Seconds() / run.wall.Seconds()
	if sp.Placement.Transport == spec.TransportTCPMesh {
		// The replay is in process; the overhead and the account of the
		// mesh come from a traced mesh run of the same rounds.
		mt := newTracer()
		sum, wall, err := tracedRounds(sp, run.rounds, mt)
		if err != nil {
			return err
		}
		rep.check(string(sum) == string(run.summary), "traced mesh Summary %q differs from the untraced run's %q", sum, run.summary)
		overhead = wall.Seconds() / run.wall.Seconds()
		accountTracer, accountWall = mt, wall
		if err := mt.write(filepath.Join(opt.spanDir, fmt.Sprintf("%s-%d-mesh.json", opt.workload, opt.seed))); err != nil {
			return err
		}
	}
	rep.set("trace.overhead_ratio", overhead, "ratio", 0, "")
	rep.account(accountTracer, accountWall, 1)
	if err := tr.write(filepath.Join(opt.spanDir, fmt.Sprintf("%s-%d.json", opt.workload, opt.seed))); err != nil {
		return err
	}
	rep.setReplay(rp)
	return probeLayers(opt, rep, sp, rp, workers, run.wall)
}

// tracedRounds runs sp for rounds rounds with spans around each Step and
// each observation, returning the Summary encoding and the wall time.
func tracedRounds(sp spec.RunSpec, rounds int64, tr *tracer) ([]byte, time.Duration, error) {
	proc, err := sp.Build(0)
	if err != nil {
		return nil, 0, err
	}
	defer proc.Close()
	pipe, err := shard.NewPipeline(sp.Quantiles)
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	start := time.Now()
	for r := int64(0); r < rounds; r++ {
		root := tr.begin("loop", -1, 0, r)
		s := tr.begin("tcp.step", root, 0, r)
		proc.Step()
		tr.end(s)
		o := tr.begin("shard.observe", root, 0, r)
		pipe.Observe(proc)
		tr.end(o)
		tr.end(root)
	}
	wall := time.Since(start)
	sum, err := summaryJSON(pipe, proc)
	return sum, wall, err
}

// tcpCounters are the coordinator-side tcp telemetry the program already
// keeps: link bytes both ways and the round-closing barrier wait.
type tcpCounters struct {
	bytes          uint64
	barrierSeconds float64
	barrierCount   uint64
}

// readTCP reads the coordinator's link byte counters and barrier
// histogram from the process registry.
func readTCP() tcpCounters {
	var c tcpCounters
	for _, peer := range []string{"w0", "w1"} {
		lbl := obs.Label{Key: "peer", Value: peer}
		c.bytes += obs.Default.Counter("rbb_tcp_tx_bytes_total", "", lbl).Value()
		c.bytes += obs.Default.Counter("rbb_tcp_rx_bytes_total", "", lbl).Value()
	}
	h := obs.Default.Histogram("rbb_coord_barrier_seconds", "", nil, obs.Label{Key: "transport", Value: spec.TransportTCPMesh})
	c.barrierSeconds, c.barrierCount = h.Sum(), h.Count()
	return c
}

func (c tcpCounters) sub(o tcpCounters) tcpCounters {
	return tcpCounters{c.bytes - o.bytes, c.barrierSeconds - o.barrierSeconds, c.barrierCount - o.barrierCount}
}
