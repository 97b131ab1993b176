package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/spec"
)

// serveSizes are the dimensions of the serve workload.
type serveSizes struct {
	n       int
	rounds  int64
	shards  int
	clients int
}

// pollInterval is the polling clients' interval between result requests.
const pollInterval = time.Millisecond

// fullServeSizes: every computed request is the run the serve package's
// TestSubmitStreamResult submits (n = 2048, 400 rounds, S = 4), as rbb or
// as tetris. One client on one run slot: with two, both cores compute and
// a submit waits about 2 ms for one.
var fullServeSizes = serveSizes{n: 2048, rounds: 400, shards: 4, clients: 1}

// The request kinds. Cached requests re-read the result of an earlier
// computed one, some under another placement; the rest compute.
type reqKind int

const (
	kindCached reqKind = iota
	kindRBBStream
	kindRBBPoll
	kindTetris
)

var kindNames = [...]string{"cached", "rbb", "rbb", "tetris"}

// request is one generated submission.
type request struct {
	kind   reqKind
	body   []byte
	spec   spec.RunSpec // normalized, for the reference and the bin-round count
	target int          // cached: the index of the request it re-reads; −1 otherwise
}

// requestGen generates the request sequence, a pure function of the seed.
// The three kinds of request have equal shares: cached resubmits, rbb
// runs (half streamed, half polled) and tetris runs at the default λ =
// 0.75. A resubmit re-reads the latest computed request at least two
// back, so it is usually done; it goes out under the target's placement,
// the spawn transport or the scalar kernel, with equal probability. The
// first two requests compute, so every resubmit has a target.
type requestGen struct {
	r        *rng.Source
	z        serveSizes
	specs    []spec.RunSpec
	computed []int // indices of the computed requests, in order
}

// resubmitPlacements are the placements a resubmit goes out under. None
// is part of the result key, so each must hit the cache.
var resubmitPlacements = [...]spec.Placement{{}, {Transport: spec.TransportSpawn}, {Kernel: engine.KernelScalar.String()}}

func newRequestGen(seed uint64, z serveSizes) *requestGen {
	return &requestGen{r: rng.New(seed), z: z}
}

// next returns the next request of the sequence.
func (g *requestGen) next() (request, error) {
	j := len(g.specs)
	kind := [...]reqKind{kindCached, kindCached, kindRBBStream, kindRBBPoll, kindTetris, kindTetris}[g.r.Intn(6)]
	if j < 2 && kind == kindCached {
		kind = kindRBBStream
	}
	var sp spec.RunSpec
	target := -1
	if kind == kindCached {
		for _, i := range slices.Backward(g.computed) {
			if i <= j-2 {
				target = i
				break
			}
		}
		sp = g.specs[target]
		sp.Placement = resubmitPlacements[g.r.Intn(len(resubmitPlacements))]
	} else {
		sp = spec.RunSpec{
			Seed:      g.r.Uint64(),
			N:         g.z.n,
			Rounds:    g.z.rounds,
			Shards:    g.z.shards,
			Quantiles: []float64{0.5, 0.99},
		}
		if kind == kindTetris {
			sp.Process = spec.ProcessTetris
		}
		g.computed = append(g.computed, j)
	}
	if err := sp.Normalize(0); err != nil {
		return request{}, err
	}
	body, err := json.Marshal(sp)
	if err != nil {
		return request{}, err
	}
	g.specs = append(g.specs, sp)
	return request{kind: kind, body: body, spec: sp, target: target}, nil
}

// reference computes a spec's Summary in process through the same entry
// points the server uses: checkpoint.Run for rbb, engine.RunContext for
// tetris, each with a pipeline.
func reference(sp spec.RunSpec) ([]byte, error) {
	proc, err := sp.Build(1)
	if err != nil {
		return nil, err
	}
	defer proc.Close()
	pipe, err := shard.NewPipeline(sp.Quantiles)
	if err != nil {
		return nil, err
	}
	if cp, ok := proc.(checkpoint.Process); ok && sp.Process == spec.ProcessRBB {
		if _, _, err := checkpoint.Run(context.Background(), cp, sp.Rounds, checkpoint.Policy{Seed: sp.Seed, Pipeline: pipe}); err != nil {
			return nil, err
		}
	} else {
		engine.RunContext(context.Background(), proc, sp.Rounds, pipe)
	}
	return summaryJSON(pipe, proc)
}

// prepare generates requests and computes the computed ones' reference
// Summaries on z.clients goroutines, in sequence order, until the
// references' summed compute time reaches z.clients × window. The server
// computes the same runs on as many run slots, with HTTP on top, so it
// cannot get through the prepared requests much before the
// window closes. A resubmit shares its target's reference.
func prepare(seed uint64, z serveSizes, window time.Duration) ([]request, [][]byte, error) {
	gen := newRequestGen(seed, z)
	budget := time.Duration(z.clients) * window
	var (
		mu       sync.Mutex
		reqs     []request
		refs     [][]byte
		busy     time.Duration
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < z.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for firstErr == nil && busy < budget {
				req, err := gen.next()
				if err != nil {
					firstErr = err
					return
				}
				j := len(reqs)
				reqs, refs = append(reqs, req), append(refs, nil)
				if req.kind == kindCached {
					continue
				}
				mu.Unlock()
				t := time.Now()
				ref, err := reference(req.spec)
				d := time.Since(t)
				mu.Lock()
				if err != nil {
					firstErr = fmt.Errorf("reference: %w", err)
					return
				}
				refs[j] = ref
				busy += d
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	for j := range reqs {
		if t := reqs[j].target; t >= 0 {
			refs[j] = refs[t]
		}
	}
	return reqs, refs, nil
}

// maxHistory bounds the server's retained terminal runs, so the registry
// every listing and retention sweep walks stays the same size however
// many requests a run gets through. rbb-serve retains every run by
// default; the growth of that default is not measured here. Resubmits
// target runs a few requests back, which stay retained.
const maxHistory = 64

// server is one in-process serve.Server behind a loopback HTTP listener.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{} // closed when the HTTP server's Serve returns
}

// startServer starts an in-memory server (no data directory) with a
// budget of slots runs, one phase worker per run and bounded history, and
// waits until it answers /healthz. With a data directory every run
// transition fsyncs the manifest, and the host disk's fsync latency, not
// the program, then sets the request latency: on a shared disk the median
// went from 13.6 to 23.1 ms between runs minutes apart. The file layer is
// measured on its own by checkpoint.write_file_ms.
func startServer(slots int, client *http.Client) (*server, error) {
	srv, err := serve.New(serve.Options{Workers: slots, RunWorkers: 1, MaxHistory: maxHistory})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	resp, err := client.Get(s.base + "/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return s, nil
}

// stop shuts the HTTP layer and the scheduler down.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	s.srv.Shutdown()
	return err
}

// outcome is what one request measured.
type outcome struct {
	taken   bool
	ok      bool
	latency time.Duration // submit → result received
	submit  time.Duration // the POST alone
	first   time.Duration // submit → first stream line (streamed requests)
	missed  bool          // a resubmit the server computed again
	err     string
}

// loadRun is one closed-loop pass over a request sequence.
type loadRun struct {
	out  []outcome
	wall time.Duration
	hits uint64 // result-cache hits the server counted
}

// closedLoop sends reqs from z.clients clients, each sending its next
// request only when the previous one has completed, until the sequence
// or (when deadline is positive) the time runs out. Each result is
// compared with its reference. tr, when non-nil, records spans.
func closedLoop(base string, client *http.Client, reqs []request, refs [][]byte, z serveSizes, deadline time.Duration, tr *tracer) loadRun {
	lr := loadRun{out: make([]outcome, len(reqs))}
	done := make([]chan struct{}, len(reqs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	hits0 := obs.Default.Counter("rbb_serve_cache_hits_total", "").Value()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < z.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// The clock is read before an index is claimed, so every
				// claimed request is sent: the sent ones are a prefix of
				// reqs, and no resubmit waits on a target never sent.
				if deadline > 0 && time.Since(start) >= deadline {
					return
				}
				j := int(next.Add(1) - 1)
				if j >= len(reqs) {
					return
				}
				if t := reqs[j].target; t >= 0 {
					<-done[t]
				}
				o := doRequest(base, client, reqs[j], tr, int32(c), int64(j))
				o.taken = true
				if o.ok && !bytes.Equal(o.blob, refs[j]) {
					o.ok, o.err = false, "result differs from the in-process reference"
				}
				lr.out[j] = o.outcome
				close(done[j])
			}
		}()
	}
	wg.Wait()
	lr.wall = time.Since(start)
	lr.hits = obs.Default.Counter("rbb_serve_cache_hits_total", "").Value() - hits0
	return lr
}

// result is an outcome plus the result bytes it received.
type result struct {
	outcome
	blob []byte
}

// doRequest submits one request and waits for its result: a resubmit
// reads it straight away, a streamed run tails its event stream first,
// the others poll the result endpoint.
func doRequest(base string, client *http.Client, req request, tr *tracer, lane int32, id int64) result {
	var res result
	fail := func(format string, args ...any) result {
		res.ok, res.err = false, fmt.Sprintf(format, args...)
		return res
	}
	span := func(name string, parent int32) int32 {
		if tr == nil {
			return -1
		}
		return tr.begin(name, parent, lane, id)
	}
	end := func(i int32) {
		if tr != nil {
			tr.end(i)
		}
	}
	root := span("request", -1)
	defer end(root)
	t0 := time.Now()
	sub := span("serve.submit", root)
	resp, err := client.Post(base+"/v1/runs", "application/json", bytes.NewReader(req.body))
	if err != nil {
		end(sub)
		return fail("submit: %v", err)
	}
	var info serve.RunInfo
	derr := json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	end(sub)
	res.submit = time.Since(t0)
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		return fail("submit: %s (%v)", resp.Status, derr)
	}
	// A resubmit the result cache answers is done at once. One that
	// misses is computed again and polled like a computed request: the
	// server turns a run done before it feeds the cache, so a resubmit
	// sent just after its target's result arrived can miss.
	hit := req.kind == kindCached && info.Cached && info.Status == serve.StatusDone
	res.missed = req.kind == kindCached && !hit
	if req.kind == kindRBBStream {
		st := span("serve.stream", root)
		first, status, err := tail(client, base+"/v1/runs/"+info.ID+"/stream", t0)
		end(st)
		if err != nil {
			return fail("stream: %v", err)
		}
		if status != serve.StatusDone {
			return fail("stream ended with status %s", status)
		}
		res.first = first
	}
	var blob []byte
	if hit || req.kind == kindRBBStream {
		g := span("serve.result", root)
		blob, err = getResult(client, base+"/v1/runs/"+info.ID+"/result")
		end(g)
	} else {
		p := span("serve.poll", root)
		for {
			blob, err = getResult(client, base+"/v1/runs/"+info.ID+"/result")
			if !errors.Is(err, errNotDone) {
				break
			}
			time.Sleep(pollInterval)
		}
		end(p)
	}
	if err != nil {
		return fail("result: %v", err)
	}
	res.latency = time.Since(t0)
	res.ok, res.blob = true, blob
	return res
}

var errNotDone = errors.New("run not done")

// getResult fetches a run's result: the Summary bytes on 200, errNotDone
// on 409 (the run is still queued or running).
func getResult(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return blob, nil
	case http.StatusConflict:
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(blob, &e) == nil && strings.HasPrefix(e.Error, "run is ") {
			return nil, errNotDone
		}
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(blob))
	}
	return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(blob))
}

// tail reads a run's NDJSON stream to its end, returning the time from t0
// to the first line and the status of the terminal RunInfo line.
func tail(client *http.Client, url string, t0 time.Time) (time.Duration, serve.Status, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("%s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	var first time.Duration
	var last []byte
	for sc.Scan() {
		if first == 0 {
			first = time.Since(t0)
		}
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return 0, "", err
	}
	var info serve.RunInfo
	if err := json.Unmarshal(last, &info); err != nil {
		return 0, "", fmt.Errorf("terminal line: %w", err)
	}
	return first, info.Status, nil
}

// runServe runs the serve workload: a closed loop of z.clients clients
// against an in-process server with as many run slots, every result
// checked against its reference.
func runServe(opt options, rep *report) error {
	z := opt.sizes.serve
	reqs, refs, err := prepare(opt.seed, z, opt.window)
	if err != nil {
		return err
	}
	rep.note("workload serve: closed loop, %d clients, %d requests prepared (equal shares of cached resubmits, rbb half streamed and half polled, and tetris lambda=0.75); runs n=%d shards=%d rounds=%d; server: %d runs at once, 1 phase worker each, in memory, %d runs retained",
		z.clients, len(reqs), z.n, z.shards, z.rounds, z.clients, maxHistory)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: z.clients * 2, MaxConnsPerHost: z.clients * 2}}
	defer client.CloseIdleConnections()

	// Set-up: a fresh server until it answers /healthz, repeated.
	var setups []time.Duration
	var srv *server
	start := time.Now()
	for i := 0; ; i++ {
		runtime.GC()
		t := time.Now()
		srv, err = startServer(z.clients, client)
		d := time.Since(t)
		if err != nil {
			return fmt.Errorf("start server: %w", err)
		}
		setups = append(setups, d)
		if len(setups) >= opt.sizes.setupMax || (len(setups) >= opt.sizes.setupMin && time.Since(start) >= opt.sizes.setupBudget) {
			break
		}
		if err := srv.stop(); err != nil {
			return err
		}
	}
	rep.set("setup_s", median(seconds(setups)), "s", len(setups), "")

	// The window's own peak: VmHWM would also hold the reference and
	// set-up phases before it.
	rss := sampleRSS(10 * time.Millisecond)
	lr := closedLoop(srv.base, client, reqs, refs, z, opt.window, nil)
	peak, err := rss.Stop()
	if err != nil {
		return err
	}
	if err := checkCacheHits(rep, srv.base, client, reqs, refs, lr); err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	rep.set("peak_rss_mb", peak, "MB", 0, "VmRSS sampled every 10 ms over the window")
	taken := rep.setServe(lr, reqs)
	// Working set: the server holds at most z.clients runs' states at once.
	ws := int64(z.clients * (z.n*2 + z.n/8 + z.n*4))
	rep.workingSet(ws, fmt.Sprintf("%d concurrent runs: 2 B/bin cells + 1 bit/bin worklist + 4 B/bin exchange entries", z.clients))
	if !opt.trace {
		return nil
	}

	// Traced pass: a fresh server, the same requests, spans around every
	// HTTP call.
	tr := newTracer()
	srv, err = startServer(z.clients, client)
	if err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	tl := closedLoop(srv.base, client, reqs[:taken], refs[:taken], z, 0, tr)
	if err := srv.stop(); err != nil {
		return err
	}
	bad := int64(0)
	for _, o := range tl.out {
		if !o.ok {
			bad++
		}
	}
	rep.checks(int64(taken), bad, "%d of %d traced requests failed", bad, taken)
	rep.set("trace.overhead_ratio", tl.wall.Seconds()/lr.wall.Seconds(), "ratio", taken, "")
	rep.account(tr, tl.wall, z.clients)
	if err := tr.write(filepath.Join(opt.spanDir, fmt.Sprintf("serve-%d.json", opt.seed))); err != nil {
		return err
	}

	// The layers under the server, measured on the first computed rbb
	// request's spec with one phase worker, as the server runs it.
	var sp spec.RunSpec
	for _, r := range reqs {
		if r.kind == kindRBBStream || r.kind == kindRBBPoll {
			sp = r.spec
			break
		}
	}
	var builds []float64
	for i := 0; i < opt.sizes.setupMin; i++ {
		runtime.GC()
		t := time.Now()
		p, err := sp.Build(1)
		if err != nil {
			return err
		}
		builds = append(builds, time.Since(t).Seconds())
		p.Close()
	}
	rep.set("spec.build_s", median(builds), "s", len(builds), "")
	t := time.Now()
	want, err := reference(sp)
	if err != nil {
		return err
	}
	untraced := time.Since(t)
	rp, err := replay(sp, sp.Rounds, 1, newTracer(), config.LegitimateThreshold(sp.N, config.Beta))
	if err != nil {
		return err
	}
	rep.check(bytes.Equal(rp.summary, want), "traced replay Summary %q differs from the reference %q", rp.summary, want)
	rep.setReplay(rp)
	return probeLayers(opt, rep, sp, rp, 1, untraced)
}

// checkCacheHits checks, once the window has closed, that the result
// cache answers a resubmit under each placement in resubmitPlacements. The
// target is the last computed request at least 16 before the last one
// sent: still retained, and done long enough ago that the check does not
// race the server's cache feed (in-window resubmits that did are counted
// in serve.resubmit_misses).
func checkCacheHits(rep *report, base string, client *http.Client, reqs []request, refs [][]byte, lr loadRun) error {
	last := 0
	for j, o := range lr.out {
		if o.taken {
			last = j
		}
	}
	t := 0
	for j := range max(last-16, 0) + 1 {
		if reqs[j].kind != kindCached {
			t = j
		}
	}
	for _, pl := range resubmitPlacements {
		sp := reqs[t].spec
		sp.Placement = pl
		if err := sp.Normalize(0); err != nil {
			return err
		}
		body, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		resp, err := client.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var info serve.RunInfo
		derr := json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if !rep.check(derr == nil && info.Cached && info.Status == serve.StatusDone,
			"resubmit of request %d under placement %+v: %s status %s cached=%v (%v), want a result-cache hit", t, pl, resp.Status, info.Status, info.Cached, derr) {
			continue
		}
		blob, err := getResult(client, base+"/v1/runs/"+info.ID+"/result")
		rep.check(err == nil && bytes.Equal(blob, refs[t]), "resubmit of request %d under placement %+v: result %q (%v) differs from the reference", t, pl, blob, err)
	}
	return nil
}

// setServe records the serve metrics of a closed-loop pass, counts every
// request taken as an attempt, and returns how many were taken.
func (r *report) setServe(lr loadRun, reqs []request) int {
	var all, submits, firsts []time.Duration
	byKind := map[string][]time.Duration{}
	var binRounds float64
	taken, bad, resubmits, misses := 0, int64(0), 0, 0
	var firstErr string
	for j, o := range lr.out {
		if !o.taken {
			continue
		}
		taken++
		if !o.ok {
			bad++
			if firstErr == "" {
				firstErr = fmt.Sprintf("request %d (%s): %s", j, kindNames[reqs[j].kind], o.err)
			}
			continue
		}
		all = append(all, o.latency)
		submits = append(submits, o.submit)
		byKind[kindNames[reqs[j].kind]] = append(byKind[kindNames[reqs[j].kind]], o.latency)
		if reqs[j].kind == kindRBBStream {
			firsts = append(firsts, o.first)
		}
		if reqs[j].kind == kindCached {
			resubmits++
			if o.missed {
				misses++
			}
		}
		if reqs[j].kind != kindCached {
			binRounds += float64(reqs[j].spec.N) * float64(reqs[j].spec.Rounds)
		}
	}
	r.checks(int64(taken), bad, "%d of %d requests failed; first: %s", bad, taken, firstErr)
	r.setLatency("latency_ms_p50", "latency_ms_p90", all)
	r.setLatency("request_ms_p50", "request_ms_p90", all)
	r.set("requests_per_s", float64(len(all))/lr.wall.Seconds(), "1/s", len(all), "")
	r.set("bin_rounds_per_s", binRounds/lr.wall.Seconds(), "1/s", len(all), "computed runs only")
	r.setDurationMedian("first_event_ms_p50", firsts)
	r.setDurationMedian("serve.submit_ms_p50", submits)
	r.setDurationMedian("serve.cached_ms_p50", byKind["cached"])
	r.setDurationMedian("serve.rbb_ms_p50", byKind["rbb"])
	r.setDurationMedian("serve.tetris_ms_p50", byKind["tetris"])
	r.set("serve.cache_hit_ratio", float64(lr.hits)/float64(max(taken, 1)), "ratio", taken, "hits / submits")
	r.set("serve.resubmit_misses", float64(misses), "count", resubmits, "resubmits computed again")
	if misses > 0 {
		r.note("serve: %d of %d resubmits missed the result cache and were computed again: the server turns a run done before it feeds the cache", misses, resubmits)
	}
	if taken == len(reqs) {
		r.note("serve: all %d prepared requests were sent before the window closed", taken)
	}
	return taken
}
