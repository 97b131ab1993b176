package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// machine is the record printed with every run: what the numbers were
// measured on.
type machine struct {
	cpu        string
	nproc      int
	gomaxprocs int
	goVersion  string
	revision   string
	caches     map[string]int64 // "L1d", "L2", "L3" → bytes (per cache instance)
}

// readMachine gathers the machine record from /proc and /sys (missing
// files leave fields unknown; they never fail a run).
func readMachine() machine {
	m := machine{
		cpu:        "unknown",
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		revision:   obs.Build().Revision,
		caches:     map[string]int64{},
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		typ := readTrim(filepath.Join(d, "type"))
		size := parseSize(readTrim(filepath.Join(d, "size")))
		if level == "" || size <= 0 || typ == "Instruction" {
			continue
		}
		name := "L" + level
		if typ == "Data" {
			name += "d"
		}
		m.caches[name] = size
	}
	return m
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseSize parses a sysfs cache size such as "2048K" or "32M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}

func (m machine) String() string {
	return fmt.Sprintf("machine cpu=%q nproc=%d gomaxprocs=%d go=%s revision=%s l1d_bytes=%d l2_bytes=%d l3_bytes=%d",
		m.cpu, m.nproc, m.gomaxprocs, m.goVersion, m.revision, m.caches["L1d"], m.caches["L2"], m.caches["L3"])
}

// workingSet prints a workload's computed working set against the cache
// sizes.
func (r *report) workingSet(bytes int64, parts string) {
	l2, l3 := r.machine.caches["L2"], r.machine.caches["L3"]
	ratio := func(c int64) string {
		if c <= 0 {
			return "unknown"
		}
		return strconv.FormatFloat(float64(bytes)/float64(c), 'f', 2, 64)
	}
	r.note("working_set bytes=%d (computed: %s) vs_l2=%s vs_l3=%s", bytes, parts, ratio(l2), ratio(l3))
}

// peakRSSMB returns this process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) { return statusMB("/proc/self/status", "VmHWM:") }

// statusMB reads one kB-valued field of a /proc/<pid>/status file, in MiB.
func statusMB(path, field string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in %s", field, path)
}

// rssSampler records the largest resident set (VmRSS) seen while it runs:
// the peak of one phase of a process whose earlier phases set VmHWM.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64
	err  error
}

// sampleRSS starts sampling every interval until Stop.
func sampleRSS(interval time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			mb, err := statusMB("/proc/self/status", "VmRSS:")
			if err != nil {
				s.err = err
				return
			}
			s.peak = max(s.peak, mb)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// Stop ends the sampling and returns the peak in MiB.
func (s *rssSampler) Stop() (float64, error) {
	close(s.stop)
	<-s.done
	return s.peak, s.err
}

// workersPeakRSSMB returns the largest peak resident set (VmHWM) among
// this process's live child processes, in MiB, and how many there are.
func workersPeakRSSMB() (float64, int, error) {
	self := strconv.Itoa(os.Getpid())
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return 0, 0, err
	}
	var peak float64
	n := 0
	for _, e := range ents {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		dir := filepath.Join("/proc", e.Name())
		stat, err := os.ReadFile(filepath.Join(dir, "stat"))
		if err != nil {
			continue // exited since the listing
		}
		// The parent pid is the second field after the parenthesized
		// command name, which may itself hold spaces.
		i := strings.LastIndexByte(string(stat), ')')
		if f := strings.Fields(string(stat[i+1:])); len(f) < 2 || f[1] != self {
			continue
		}
		mb, err := statusMB(filepath.Join(dir, "status"), "VmHWM:")
		if err != nil {
			continue
		}
		peak = max(peak, mb)
		n++
	}
	return peak, n, nil
}
