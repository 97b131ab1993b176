package shard

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/tetris"
)

// Process is the sharded repeated balls-into-bins engine: the law of
// core.Process (every non-empty bin releases one ball to an independently
// and uniformly chosen bin) executed by the data-parallel Engine. It
// implements engine.Stepper. Create with NewProcess; one Step fans out to
// the engine's workers internally, so a *Process itself must not be shared
// between goroutines.
type Process struct {
	eng *Engine
	m   int64
}

// NewProcess builds a sharded process over a copy of loads. Shard s draws
// from rng.NewStream(seed, s); the run is a pure function of
// (seed, len(loads), opts.Shards).
func NewProcess(loads []int32, seed uint64, opts Options) (*Process, error) {
	if opts.OnEmptied != nil {
		return nil, errors.New("shard: NewProcess does not support OnEmptied")
	}
	return newProcess(NewEngine(loads, seed, opts))
}

// Snapshot captures the full process state for checkpointing. A Process
// holds no randomized state beyond its engine (the ball count is derived
// from the loads), so the engine snapshot is the whole checkpoint.
func (p *Process) Snapshot() (*EngineSnapshot, error) { return p.eng.Snapshot() }

// RestoreProcess rebuilds a sharded process from a snapshot taken with
// Snapshot. The restored process continues the trajectory exactly: for any
// round r past the snapshot, its loads are byte-identical to those of the
// uninterrupted run.
func RestoreProcess(snap *EngineSnapshot, opts Options) (*Process, error) {
	if opts.OnEmptied != nil {
		return nil, errors.New("shard: RestoreProcess does not support OnEmptied")
	}
	return newProcess(RestoreEngine(snap, opts))
}

// newProcess wraps a freshly built engine, whose balls must fit one int32
// bin.
func newProcess(eng *Engine, err error) (*Process, error) {
	if err != nil {
		return nil, err
	}
	m := eng.Sum()
	if m > math.MaxInt32 {
		eng.Close()
		return nil, fmt.Errorf("shard: %d balls exceed int32 bin capacity", m)
	}
	return &Process{eng: eng, m: m}, nil
}

// relaunch is the RBB arrival rule: every released ball is re-thrown.
func relaunch(_, released int, _ *rng.Source) int { return released }

// Step advances one synchronous round.
func (p *Process) Step() { p.eng.Step(relaunch) }

// Run advances the process by k rounds.
func (p *Process) Run(k int64) {
	for i := int64(0); i < k; i++ {
		p.Step()
	}
}

// Engine returns the underlying sharded engine.
func (p *Process) Engine() *Engine { return p.eng }

// Close releases the engine's transport resources. Idempotent.
func (p *Process) Close() error { return p.eng.Close() }

// N returns the number of bins.
func (p *Process) N() int { return p.eng.N() }

// Balls returns the number of balls m.
func (p *Process) Balls() int64 { return p.m }

// Round returns the number of completed rounds.
func (p *Process) Round() int64 { return p.eng.Round() }

// MaxLoad returns the current maximum bin load.
func (p *Process) MaxLoad() int32 { return p.eng.MaxLoad() }

// EmptyBins returns the current number of empty bins.
func (p *Process) EmptyBins() int { return p.eng.EmptyBins() }

// NonEmptyBins returns |W(t)|, the current number of non-empty bins.
func (p *Process) NonEmptyBins() int { return p.eng.NonEmptyBins() }

// Load returns the load of bin u.
func (p *Process) Load(u int) int32 { return p.eng.Load(u) }

// LoadsCopy returns a fresh copy of the current load vector.
func (p *Process) LoadsCopy() []int32 { return p.eng.LoadsCopy() }

// LoadBytes returns the resident bytes of the load vectors and staging
// areas (see Engine.LoadBytes).
func (p *Process) LoadBytes() int64 { return p.eng.LoadBytes() }

// CheckInvariants verifies ball conservation and the engine invariants.
func (p *Process) CheckInvariants() error {
	if err := p.eng.CheckInvariants(); err != nil {
		return err
	}
	if s := p.eng.Sum(); s != p.m {
		return fmt.Errorf("shard: balls not conserved: %d != %d", s, p.m)
	}
	return nil
}

// TetrisOptions configures a sharded Tetris process.
type TetrisOptions struct {
	// Options configures the sharding (OnEmptied must be nil; the Tetris
	// process owns the hook for its first-emptying tracker).
	Options
	// Law is the arrival law (default tetris.Deterministic).
	Law tetris.ArrivalLaw
	// Lambda is the arrival rate per bin; 0 means the paper's 3/4.
	Lambda float64
}

// Tetris is the sharded Tetris / batched-arrival ("leaky bins") process:
// every round each non-empty bin discards one ball and K fresh balls land
// uniformly at random. It implements engine.Stepper.
//
// The batch is decomposed exactly across shards so the sharded law matches
// the sequential one: under tetris.Deterministic, K = ⌈λn⌉ is split into
// fixed per-shard quotas summing to K (uniform destinations make any split
// law-neutral); under tetris.BinomialArrivals shard s draws
// Binomial(n_s, λ) and under tetris.PoissonArrivals it draws
// Poisson(λ·n_s) from its own stream — sums of independent binomials with
// a common p, and of independent Poissons, recover Binomial(n, λ) and
// Poisson(λn) exactly.
type Tetris struct {
	eng    *Engine
	rule   ArrivalRule
	arrive Arrivals
	balls  int64

	// firstEmpty[u] is the first round at which global bin u was empty (0
	// if it started empty), or −1 if it has never been empty. Written only
	// by u's owning shard during commit (disjoint slices ⇒ race-free);
	// perShardNever counts that shard's never-emptied bins.
	firstEmpty    []int64
	perShardNever []int64
	roundNow      int64 // snapshot of the in-flight round, read by the hook
}

// NewTetris builds a sharded Tetris process over a copy of loads.
func NewTetris(loads []int32, seed uint64, opts TetrisOptions) (*Tetris, error) {
	if opts.OnEmptied != nil {
		return nil, errors.New("shard: NewTetris does not support a caller OnEmptied")
	}
	n := len(loads)
	rule, err := RuleForLaw(opts.Law, opts.Lambda)
	if err != nil {
		return nil, err
	}
	if rule, err = rule.Normalize(); err != nil {
		return nil, err
	}
	t := &Tetris{
		rule:       rule,
		firstEmpty: make([]int64, n),
	}
	shOpts := opts.Options
	shOpts.OnEmptied = t.markEmptied
	eng, err := NewEngine(loads, seed, shOpts)
	if err != nil {
		return nil, err
	}
	t.eng = eng
	t.balls = eng.Sum()
	s := eng.Shards()
	t.perShardNever = make([]int64, s)
	for u, l := range loads {
		if l == 0 {
			t.firstEmpty[u] = 0
		} else {
			t.firstEmpty[u] = -1
			t.perShardNever[eng.g.ShardOf(u)]++
		}
	}
	if t.arrive, err = rule.Arrivals(n, s); err != nil {
		return nil, err
	}
	return t, nil
}

// markEmptied is the engine's OnEmptied hook. It runs during the commit
// phase on the owning shard's worker; different shards touch disjoint
// firstEmpty entries and their own perShardNever slot.
func (t *Tetris) markEmptied(u int) {
	if t.firstEmpty[u] < 0 {
		t.firstEmpty[u] = t.roundNow + 1
		t.perShardNever[t.eng.g.ShardOf(u)]--
	}
}

// Rule returns the canonical arrival rule the process executes.
func (t *Tetris) Rule() ArrivalRule { return t.rule }

// Step advances one round: departures, then the decomposed batch of
// uniform arrivals.
func (t *Tetris) Step() {
	t.roundNow = t.eng.Round()
	t.eng.Step(t.arrive)
	t.balls += int64(t.eng.Staged()) - int64(t.eng.Released())
}

// Run advances the process by k rounds.
func (t *Tetris) Run(k int64) {
	for i := int64(0); i < k; i++ {
		t.Step()
	}
}

// Engine returns the underlying sharded engine.
func (t *Tetris) Engine() *Engine { return t.eng }

// LoadBytes returns the resident bytes of the load vectors and staging
// areas (see Engine.LoadBytes).
func (t *Tetris) LoadBytes() int64 { return t.eng.LoadBytes() }

// Close releases the engine's transport resources. Idempotent.
func (t *Tetris) Close() error { return t.eng.Close() }

// N returns the number of bins.
func (t *Tetris) N() int { return t.eng.N() }

// Round returns the number of completed rounds.
func (t *Tetris) Round() int64 { return t.eng.Round() }

// MaxLoad returns the current maximum bin load.
func (t *Tetris) MaxLoad() int32 { return t.eng.MaxLoad() }

// EmptyBins returns the current number of empty bins.
func (t *Tetris) EmptyBins() int { return t.eng.EmptyBins() }

// NonEmptyBins returns the current number of non-empty bins.
func (t *Tetris) NonEmptyBins() int { return t.eng.NonEmptyBins() }

// Balls returns the current total number of balls (Tetris does not
// conserve balls).
func (t *Tetris) Balls() int64 { return t.balls }

// Load returns the load of bin u.
func (t *Tetris) Load(u int) int32 { return t.eng.Load(u) }

// LoadsCopy returns a fresh copy of the load vector.
func (t *Tetris) LoadsCopy() []int32 { return t.eng.LoadsCopy() }

// FirstEmptyRound returns the first round at which bin u was empty, or −1
// if it has not emptied yet.
func (t *Tetris) FirstEmptyRound(u int) int64 { return t.firstEmpty[u] }

// AllEmptiedRound returns the first round by which every bin had been
// empty at least once, or −1 if some bin has never emptied (Lemma 4: from
// any start this is at most 5n w.h.p.).
func (t *Tetris) AllEmptiedRound() (int64, bool) {
	for _, c := range t.perShardNever {
		if c > 0 {
			return -1, false
		}
	}
	var worst int64
	for _, r := range t.firstEmpty {
		if r > worst {
			worst = r
		}
	}
	return worst, true
}

// CheckInvariants verifies the engine invariants and the ball counter.
func (t *Tetris) CheckInvariants() error {
	if err := t.eng.CheckInvariants(); err != nil {
		return err
	}
	if s := t.eng.Sum(); s != t.balls {
		return fmt.Errorf("shard: tetris ball counter %d != actual %d", t.balls, s)
	}
	return nil
}

// Steppers (compile-time check).
var (
	_ engine.Stepper = (*Process)(nil)
	_ engine.Stepper = (*Tetris)(nil)
)
