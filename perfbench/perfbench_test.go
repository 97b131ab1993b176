package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/shard/transport/tcp"
)

// TestMain lets this test binary double as a self-spawned tcp-mesh
// worker, exactly as the benchmark binary does in main.
func TestMain(m *testing.M) {
	tcp.MaybeWorker()
	os.Exit(m.Run())
}

// tinySizes run every workload's code path in well under a second.
var tinySizes = sizes{
	stationaryN: 1 << 12,
	recoveryN:   1 << 10,
	meshN:       1 << 12,
	shards:      4,
	warmRounds:  2,
	setupMin:    2,
	setupMax:    3,
	probeBudget: 20 * time.Millisecond,
	serve:       serveSizes{n: 256, rounds: 64, shards: 2, clients: 2},
}

// TestWorkloadsTiny runs every workload untraced and traced at tiny sizes
// and checks the output contract: a last line of JSON with every metric of
// the mode, each also printed by name with its unit, and every output
// check passing.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range []string{"stationary", "recovery", "mesh", "serve"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "0.4", "--trace", trace, "--scratch", t.TempDir()}
				code := run(args, &out, &errb, tinySizes)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultJSON
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, out.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, name := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit == "" {
						t.Errorf("result metric %s missing or without unit: %+v", name, m)
					}
					printed := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(name) + ` +\S+ +` + regexp.QuoteMeta(m.Unit) + `\b`)
					if !printed.MatchString(out.String()) {
						t.Errorf("metric %s is not printed with its unit %q", name, m.Unit)
					}
				}
				// The roots' own time (the benchmark's loop or request
				// handling) is covered by no layer span.
				if u, ok := res.Metrics["account.unaccounted_share"]; trace == "1" && (!ok || u.Value <= 0) {
					t.Errorf("account.unaccounted_share %v, want above 0", u.Value)
				}
			})
		}
	}
}

// TestUnaccountedShare pins the account: time in a root span that no
// layer span covers, and time in the benchmark's own trace.* spans, is
// unaccounted.
func TestUnaccountedShare(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{name: "loop", parent: -1, start: 0, end: 100},
		{name: "shard.release", parent: 0, start: 10, end: 50},
		{name: "trace.count", parent: 0, start: 50, end: 60},
		{name: "shard.commit", parent: 0, start: 60, end: 80},
	}
	rep := newReport()
	rep.account(tr, 100*time.Nanosecond, 1)
	v, ok := rep.get("account.unaccounted_share")
	if !ok || math.Abs(v.v-0.4) > 1e-12 {
		t.Fatalf("account.unaccounted_share %v (recorded %v), want 0.4: 60 of 100 ns are in layer spans", v.v, ok)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the metrics
// the command reports, in the same order, and the workloads it accepts.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end %v, command reports %v", got, endToEnd)
	}
	if got := names(b.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer %v, command reports %v", got, perLayer)
	}
	var ws []string
	for _, w := range b.Workloads {
		ws = append(ws, w.Name)
	}
	if want := []string{"stationary", "recovery", "mesh", "serve"}; !slices.Equal(ws, want) {
		t.Errorf("workloads %v, want %v", ws, want)
	}
}

// TestSameSeedSameRequests pins that the serve request sequence is a pure
// function of the seed.
func TestSameSeedSameRequests(t *testing.T) {
	a, b := newRequestGen(9, tinySizes.serve), newRequestGen(9, tinySizes.serve)
	kinds := map[reqKind]int{}
	for i := 0; i < 600; i++ {
		x, err := a.next()
		if err != nil {
			t.Fatal(err)
		}
		y, err := b.next()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x.body, y.body) || x.kind != y.kind || x.target != y.target {
			t.Fatalf("request %d differs between two generations with the same seed", i)
		}
		if x.kind == kindCached && (x.target < 0 || x.target > i-2) {
			t.Fatalf("request %d re-reads request %d, want at least two back", i, x.target)
		}
		kinds[x.kind]++
	}
	// Equal shares of cached, rbb (streamed or polled) and tetris.
	for _, n := range []int{kinds[kindCached], kinds[kindRBBStream] + kinds[kindRBBPoll], kinds[kindTetris]} {
		if n < 150 || n > 250 {
			t.Fatalf("kind counts %v, want about 200 of each of the three kinds", kinds)
		}
	}
}
