package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"
)

// value is one reported measurement.
type value struct {
	name  string
	v     float64
	unit  string
	n     int    // samples behind the value (0: a single measurement)
	label string // "computed" for derived figures, "" for measured ones
}

// report collects a run's measurements, its output checks and the
// machine record. Checks count against attempts: every operation the run
// performs (a round, a request) and every whole-run comparison is one
// attempt, and each one whose output is wrong is one failure.
type report struct {
	values    []value
	attempted int64
	failed    int64
	failures  []string
	machine   machine
	notes     []string // free-form lines printed before the metrics
}

func newReport() *report { return &report{} }

// set records (or replaces) a measurement.
func (r *report) set(name string, v float64, unit string, n int, label string) {
	for i := range r.values {
		if r.values[i].name == name {
			r.values[i] = value{name, v, unit, n, label}
			return
		}
	}
	r.values = append(r.values, value{name, v, unit, n, label})
}

// get returns a recorded measurement.
func (r *report) get(name string) (value, bool) {
	for _, v := range r.values {
		if v.name == name {
			return v, true
		}
	}
	return value{}, false
}

// note adds a free-form line to the printed report.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one attempted output check; a false ok is a failure whose
// message is kept (the first few are printed).
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// checks records n attempted operations of which bad failed, with one
// message for the lot.
func (r *report) checks(n, bad int64, format string, args ...any) {
	r.attempted += n
	if bad > 0 {
		r.failed += bad
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// metricJSON is one entry of the result line's metrics object.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// print writes the human-readable report and, last, the JSON result line
// carrying the metric set of the run's mode. A metric of that set missing
// from the report is an error of the benchmark itself.
func (r *report) print(w io.Writer, opt options) error {
	mode := 0
	names := endToEnd
	if opt.trace {
		mode, names = 1, perLayer
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n",
		opt.workload, opt.seed, opt.window.Seconds(), mode)
	fmt.Fprintln(w, r.machine.String())
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, v := range r.values {
		line := fmt.Sprintf("metric %-36s %14.6g %-6s", v.name, v.v, v.unit)
		if v.n > 0 {
			line += fmt.Sprintf(" n=%d", v.n)
		}
		if v.label != "" {
			line += " (" + v.label + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "check FAILED:", f)
	}
	fmt.Fprintf(w, "checks attempted=%d failed=%d\n", r.attempted, r.failed)
	res := resultJSON{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricJSON, len(names)),
	}
	for _, n := range names {
		v, ok := r.get(n)
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("metric %s is %v", n, v.v)
		}
		res.Metrics[n] = metricJSON{Value: v.v, Unit: v.unit}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}

// quantile returns the q-quantile of xs by the nearest-rank rule (xs need
// not be sorted; it is not modified). It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyondNote states how many samples lie beyond the q-quantile of n, and
// flags it when fewer than the ten that make the percentile meaningful.
func beyondNote(n int, q float64) string {
	beyond := int(math.Floor(float64(n) * (1 - q)))
	if beyond < 10 {
		return fmt.Sprintf("only %d samples beyond", beyond)
	}
	return fmt.Sprintf("%d samples beyond", beyond)
}

// setLatency records a latency distribution as its median and 90th
// percentile under the given metric names.
func (r *report) setLatency(p50, p90 string, ds []time.Duration) {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	r.set(p50, quantile(ms, 0.5), "ms", len(ms), "")
	r.set(p90, quantile(ms, 0.9), "ms", len(ms), beyondNote(len(ms), 0.9))
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
