package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/shard/transport/local"
	"repro/internal/spec"
)

// relaunch is the rbb arrival rule: every released ball is thrown again.
func relaunch(_, released int, _ *rng.Source) int { return released }

// groupStepper exposes a whole-run shard.Group as an engine.Stepper so
// the observer pipeline can fold the replay's rounds exactly as it folds
// the engine's.
type groupStepper struct {
	g     *shard.Group
	round int64
}

func (s *groupStepper) Step() {
	s.g.Release(relaunch)
	s.g.Commit()
	s.round++
}
func (s *groupStepper) Round() int64      { return s.round }
func (s *groupStepper) N() int            { return s.g.N() }
func (s *groupStepper) MaxLoad() int32    { return s.g.MaxLoad() }
func (s *groupStepper) EmptyBins() int    { return s.g.EmptyBins() }
func (s *groupStepper) NonEmptyBins() int { return s.g.N() - s.g.EmptyBins() }
func (s *groupStepper) Load(u int) int32  { return s.g.Load(u) }
func (s *groupStepper) LoadsCopy() []int32 {
	return s.g.AppendLoads(make([]int32, 0, s.g.N()))
}
func (s *groupStepper) LoadBytes() int64 { return s.g.LoadBytes() }

// replayResult is what the traced replay measured.
type replayResult struct {
	summary    []byte
	wall       time.Duration
	release    []time.Duration
	commit     []time.Duration
	exchange   int64 // balls sent to another shard, over all rounds
	crossWire  int64 // of those, balls crossing between the two halves of the shards
	released   int64 // balls released, over all rounds
	firstLegit int64 // first round whose max load is legitimate (−1: none)
	snapshot   *checkpoint.Snapshot
}

// replay re-runs sp's rounds through shard.NewGroup on a local.Pool —
// the layers shard.Process is made of — with spans around Group.Release,
// the exchange count taken from Group.Outgoing, Group.Commit and the
// pipeline's observation.
func replay(sp spec.RunSpec, rounds int64, workers int, tr *tracer, legit int32) (replayResult, error) {
	loads, err := sp.MakeLoads()
	if err != nil {
		return replayResult{}, err
	}
	s := sp.Shards
	g, err := shard.NewGroup(sp.N, s, 0, s, loads, sp.Seed, local.NewPool(s, workers),
		shard.GroupOptions{Width: engine.Width(sp.LoadWidth), Kernel: sp.Kernel()})
	if err != nil {
		return replayResult{}, err
	}
	defer g.Close()
	pipe, err := shard.NewPipeline(sp.Quantiles)
	if err != nil {
		return replayResult{}, err
	}
	st := &groupStepper{g: g}
	half := shard.PartitionStart(s, 2, 1) // the first shard of the second of two workers
	res := replayResult{
		firstLegit: -1,
		release:    make([]time.Duration, 0, rounds),
		commit:     make([]time.Duration, 0, rounds),
	}
	runtime.GC()
	start := time.Now()
	for r := int64(0); r < rounds; r++ {
		root := tr.begin("loop", -1, 0, r)
		rs := tr.begin("shard.release", root, 0, r)
		t0 := time.Now()
		g.Release(relaunch)
		t1 := time.Now()
		tr.end(rs)
		cnt := tr.begin("trace.count", root, 0, r)
		for src := 0; src < s; src++ {
			for dst := 0; dst < s; dst++ {
				if src == dst {
					continue
				}
				k := int64(len(g.Outgoing(src, dst)))
				res.exchange += k
				if (src < half) != (dst < half) {
					res.crossWire += k
				}
			}
		}
		res.released += int64(g.Released())
		tr.end(cnt)
		cm := tr.begin("shard.commit", root, 0, r)
		t2 := time.Now()
		g.Commit()
		t3 := time.Now()
		tr.end(cm)
		st.round++
		ob := tr.begin("shard.observe", root, 0, r)
		pipe.Observe(st)
		if res.firstLegit < 0 && st.MaxLoad() <= legit {
			res.firstLegit = st.round
		}
		tr.end(ob)
		tr.end(root)
		res.release = append(res.release, t1.Sub(t0))
		res.commit = append(res.commit, t3.Sub(t2))
	}
	res.wall = time.Since(start)
	if res.summary, err = summaryJSON(pipe, st); err != nil {
		return replayResult{}, err
	}
	es := &shard.EngineSnapshot{N: sp.N, Round: rounds, Shards: make([]shard.ShardSnapshot, s)}
	for i := range es.Shards {
		if es.Shards[i], err = g.SnapshotShard(i); err != nil {
			return replayResult{}, err
		}
	}
	res.snapshot = &checkpoint.Snapshot{Seed: sp.Seed, Engine: es, Observer: pipe.Snapshot()}
	return res, nil
}

// setReplay records the shard- and wire-layer figures of a replay.
func (r *report) setReplay(rp replayResult) {
	n := float64(len(rp.release))
	r.setDurationMedian("shard.release_ms", rp.release)
	r.setDurationMedian("shard.commit_ms", rp.commit)
	r.set("shard.exchange_balls_per_round", float64(rp.exchange)/n, "count", len(rp.release), "")
	r.set("wire.cross_worker_bytes_per_round", float64(rp.crossWire)*4/n, "B", len(rp.release),
		"computed: 4 B per ball crossing a two-worker split")
}

// setDurationMedian records the median of ds in milliseconds.
func (r *report) setDurationMedian(name string, ds []time.Duration) {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	r.set(name, median(ms), "ms", len(ms), "")
}

// probeLayers runs the standalone per-layer probes sized by the workload
// and records the figures derived from them and the replay.
func probeLayers(opt options, rep *report, sp spec.RunSpec, rp replayResult, workers int, untraced time.Duration) error {
	z := opt.sizes
	bins := shard.PartitionSize(sp.N, sp.Shards, 0)
	ep, err := probeEngine(bins, sp.Seed, z.probeBudget)
	if err != nil {
		return err
	}
	rep.check(ep.conserved, "engine probe lost balls")
	rep.set("engine.decrement_ns_per_bin", ep.decrement, "ns", ep.rounds, "")
	rep.set("engine.draw_ns_per_ball", ep.draw, "ns", ep.rounds, "")
	rep.set("engine.stage_ns_per_ball", ep.stage, "ns", ep.rounds, "")
	rep.set("engine.commit_ns_per_bin", ep.commit, "ns", ep.rounds, "")
	rep.set("engine.kernel_ns_per_bin", ep.kernel, "ns", ep.kernelRounds, "")
	rep.set("engine.bytes_per_bin_round", ep.bytesPerBin, "B", 0, "computed")
	rep.note("engine probe: %d bins (one shard), width %d bytes, %.3f of the bins release per round", bins, ep.width, ep.releaseFrac)

	// Release wall time on W workers against the decrement and draw work
	// of the same balls done by one thread, spread over those workers.
	rounds := float64(len(rp.release))
	relMS, _ := rep.get("shard.release_ms")
	ballsPerRound := float64(rp.released) / rounds
	kernelMS := (ep.decrement*float64(sp.N) + ep.draw*ballsPerRound) / 1e6 / float64(workers)
	rep.set("shard.release_vs_kernel", relMS.v/kernelMS, "ratio", len(rp.release), "")

	barrier := probeBarrier(sp.Shards, workers, z.probeBudget)
	rep.set("local.barrier_us", barrier/1e3, "us", 0, "")
	rep.set("local.barrier_share", 2*barrier/1e9*rounds/untraced.Seconds(), "ratio", 0,
		"computed: two phase barriers per round")

	enc, dec, file, size, ok, err := probeCheckpoint(rp.snapshot, z.setupMin, opt.scratch)
	if err != nil {
		return err
	}
	rep.check(ok, "checkpoint round trip changed the state")
	rep.set("checkpoint.encode_ms", enc*1e3, "ms", z.setupMin, "")
	rep.set("checkpoint.decode_ms", dec*1e3, "ms", z.setupMin, "")
	rep.set("checkpoint.write_file_ms", file*1e3, "ms", z.setupMin, "encode, fsync and rename into the scratch directory")
	rep.set("checkpoint.bytes", float64(size), "B", 0, "")

	var ml []float64
	for i := 0; i < z.setupMin; i++ {
		runtime.GC()
		t := time.Now()
		if _, err := sp.MakeLoads(); err != nil {
			return err
		}
		ml = append(ml, time.Since(t).Seconds())
	}
	rep.set("spec.make_loads_s", median(ml), "s", len(ml), "")
	return nil
}

// engineProbe is the per-pass cost of a shard-sized engine.State.
type engineProbe struct {
	decrement, draw, stage, commit float64 // ns per bin (decrement, commit) or per ball (draw, stage)
	kernel                         float64 // ns per bin of ReleaseUniform + Commit
	bytesPerBin                    float64
	releaseFrac                    float64
	width                          int
	rounds, kernelRounds           int
	conserved                      bool
}

// probeEngine drives a standalone State of bins bins, m = n, through the
// four passes of a dense round one call at a time — ReleaseEach(nil) is
// the decrement, Drawer.Fill the draw, DepositBatch the staging and Commit
// the commit — after warming it to the stationary regime, and separately
// through ReleaseUniform + Commit, the batched kernel doing all four.
func probeEngine(bins int, seed uint64, budget time.Duration) (engineProbe, error) {
	loads, err := config.Make(config.GenOnePerBin, bins, bins, rng.New(seed))
	if err != nil {
		return engineProbe{}, err
	}
	newWarm := func(stream uint64) (*engine.State, *engine.Drawer, error) {
		st, err := engine.New(loads, engine.Options{})
		if err != nil {
			return nil, nil, err
		}
		d := engine.NewDrawer(rng.NewStream(seed, stream))
		for i := 0; i < 32; i++ {
			st.ReleaseUniform(d, nil)
			st.Commit()
		}
		return st, d, nil
	}
	st, d, err := newWarm(1)
	if err != nil {
		return engineProbe{}, err
	}
	dests := make([]int32, bins)
	var dec, draw, stage, commit []float64
	var balls, bytes float64
	w := float64(st.Width() / 8)
	for start := time.Now(); time.Since(start) < budget || len(dec) < 5; {
		t0 := time.Now()
		k := st.ReleaseEach(nil)
		t1 := time.Now()
		d.Fill(dests[:k], bins)
		t2 := time.Now()
		st.DepositBatch(dests[:k], 0)
		t3 := time.Now()
		st.Commit()
		t4 := time.Now()
		nb, nk := float64(bins), float64(max(k, 1))
		dec = append(dec, float64(t1.Sub(t0))/nb)
		draw = append(draw, float64(t2.Sub(t1))/nk)
		stage = append(stage, float64(t3.Sub(t2))/nk)
		commit = append(commit, float64(t4.Sub(t3))/nb)
		balls += float64(k)
		// Bytes a pass touches at cell width w: the decrement reads and
		// writes each load cell, the draw writes and the staging reads a
		// 4-byte destination per ball and updates its arrival cell, and
		// the commit reads load and arrival cells and writes both back.
		bytes += nb*2*w + float64(k)*(4+4+2*w) + nb*4*w
	}
	p := engineProbe{
		decrement: median(dec), draw: median(draw), stage: median(stage), commit: median(commit),
		rounds: len(dec), width: int(w),
	}
	p.releaseFrac = balls / float64(len(dec)) / float64(bins)
	p.bytesPerBin = bytes / float64(len(dec)) / float64(bins)
	p.conserved = st.Sum() == int64(bins)

	kst, kd, err := newWarm(2)
	if err != nil {
		return engineProbe{}, err
	}
	var kern []float64
	for start := time.Now(); time.Since(start) < budget || len(kern) < 5; {
		t0 := time.Now()
		kst.ReleaseUniform(kd, nil)
		kst.Commit()
		kern = append(kern, float64(time.Since(t0))/float64(bins))
	}
	p.kernel, p.kernelRounds = median(kern), len(kern)
	p.conserved = p.conserved && kst.Sum() == int64(bins)
	return p, nil
}

// probeBarrier returns the median cost in nanoseconds of one
// local.Pool.Run of a no-op over shards shards on workers workers: the
// bare phase barrier.
func probeBarrier(shards, workers int, budget time.Duration) float64 {
	pool := local.NewPool(shards, workers)
	defer pool.Close()
	noop := func(int) {}
	const batch = 256
	var per []float64
	for start := time.Now(); time.Since(start) < budget || len(per) < 5; {
		t := time.Now()
		for i := 0; i < batch; i++ {
			pool.Run(noop)
		}
		per = append(per, float64(time.Since(t))/batch)
	}
	return median(per)
}

// probeCheckpoint encodes snap with SaveOptions to io.Discard and decodes
// it with Load, reps times each, then writes it reps times with WriteFile
// (the file layer the server persists through: temp file, fsync, rename)
// into dir. It returns the median seconds of each, the encoded size, and
// whether the decoded state and the file equal the encoded ones.
func probeCheckpoint(snap *checkpoint.Snapshot, reps int, dir string) (enc, dec, file float64, size int64, ok bool, err error) {
	var buf bytes.Buffer
	if err := checkpoint.SaveOptions(&buf, snap, checkpoint.Options{}); err != nil {
		return 0, 0, 0, 0, false, fmt.Errorf("checkpoint encode: %w", err)
	}
	size = int64(buf.Len())
	var es, ds []float64
	var got *checkpoint.Snapshot
	for i := 0; i < reps; i++ {
		runtime.GC()
		t := time.Now()
		if err := checkpoint.SaveOptions(io.Discard, snap, checkpoint.Options{}); err != nil {
			return 0, 0, 0, 0, false, fmt.Errorf("checkpoint encode: %w", err)
		}
		es = append(es, time.Since(t).Seconds())
		runtime.GC()
		t = time.Now()
		if got, err = checkpoint.Load(bytes.NewReader(buf.Bytes())); err != nil {
			return 0, 0, 0, 0, false, fmt.Errorf("checkpoint decode: %w", err)
		}
		ds = append(ds, time.Since(t).Seconds())
	}
	ok = got.Seed == snap.Seed && got.Engine.N == snap.Engine.N && got.Engine.Round == snap.Engine.Round &&
		len(got.Engine.Shards) == len(snap.Engine.Shards)
	for i := 0; ok && i < len(got.Engine.Shards); i++ {
		a, b := got.Engine.Shards[i], snap.Engine.Shards[i]
		ok = a.RNG == b.RNG && a.Width == b.Width && slices.Equal(a.Loads, b.Loads)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, 0, 0, false, err
	}
	path := filepath.Join(dir, "probe.ckpt")
	defer os.Remove(path)
	var fs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t := time.Now()
		if err := checkpoint.WriteFile(path, snap); err != nil {
			return 0, 0, 0, 0, false, fmt.Errorf("checkpoint write: %w", err)
		}
		fs = append(fs, time.Since(t).Seconds())
	}
	written, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, 0, false, err
	}
	ok = ok && bytes.Equal(written, buf.Bytes())
	return median(es), median(ds), median(fs), size, ok, nil
}
