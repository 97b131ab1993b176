// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload through the same public entry points the frontends use —
// spec.RunSpec → Build, checkpoint.Run with a shard.Pipeline, and
// serve.New + Handler over loopback HTTP — checks every output, and prints
// each metric by name with its unit, ending with one JSON result line.
//
//	perfbench --workload stationary|recovery|mesh|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no benchmark tracing. With --trace 1 the same untraced run is followed by
// a traced replay of the same work and by per-layer probes; the result then
// carries the per-layer metrics. Spans are recorded by this package around
// its own calls into each layer (nothing inside the program is
// instrumented for the benchmark), kept in memory, and written at the end
// to .bench_build/spans/ as Chrome trace JSON.
//
// The process exits 0 when every output check passed, 1 when a check
// failed (the result line still prints, with "correct": false), and 2 on a
// usage or setup error (no result line).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/shard/transport/tcp"
)

// endToEnd and perLayer are the metric names of BENCHMARK.json, in its
// order: a --trace 0 result carries exactly endToEnd, a --trace 1 result
// exactly perLayer. Every workload reports every one of them.
var (
	endToEnd = []string{
		"setup_s", "peak_rss_mb", "latency_ms_p50",
	}
	perLayer = []string{
		"engine.decrement_ns_per_bin", "engine.draw_ns_per_ball", "engine.stage_ns_per_ball",
		"engine.commit_ns_per_bin", "engine.kernel_ns_per_bin", "engine.bytes_per_bin_round",
		"shard.release_ms", "shard.commit_ms", "shard.release_vs_kernel", "shard.exchange_balls_per_round",
		"local.barrier_us", "local.barrier_share",
		"wire.cross_worker_bytes_per_round",
		"checkpoint.encode_ms", "checkpoint.decode_ms", "checkpoint.write_file_ms", "checkpoint.bytes",
		"spec.make_loads_s", "spec.build_s",
		"account.unaccounted_share", "trace.overhead_ratio",
	}
)

// options are the parsed command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	spanDir  string // where the traced run writes its spans
	scratch  string // the directory the benchmark may write to
	sizes    sizes
}

func main() {
	// A self-spawned tcp-mesh worker re-executes this binary: it must
	// serve its session and exit before any benchmark code runs.
	tcp.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullSizes))
}

// run executes one benchmark invocation at the given workload sizes and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer, z sizes) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: stationary | recovery | mesh | serve")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured window per run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: also a traced replay and per-layer metrics")
	scratch := fs.String("scratch", ".bench_build", "directory for the spans and the serve data directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	opt := options{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		spanDir:  filepath.Join(*scratch, "spans"),
		scratch:  *scratch,
		sizes:    z,
	}
	rep, err := runWorkload(opt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := rep.print(stdout, opt); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload dispatches one workload and returns its filled report.
func runWorkload(opt options) (*report, error) {
	rep := newReport()
	rep.machine = readMachine()
	var err error
	switch opt.workload {
	case "stationary", "recovery", "mesh":
		err = runSim(opt, rep)
	case "serve":
		err = runServe(opt, rep)
	default:
		return nil, fmt.Errorf("unknown workload %q (want stationary|recovery|mesh|serve)", opt.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	return rep, nil
}
