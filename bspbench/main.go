// Command bspbench is the repository's benchmark: three single-process
// BSP programs at p = 2, each checked against an oracle on every run.
//
//	bspbench -workload ocean-tcp -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it times untraced runs and prints the end-to-end
// metrics; with -trace 1 it alternates untraced runs with runs over a
// timing decorator of the transport and prints the per-layer metrics.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 1 when any
// run fails or misses its oracle. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/transport"
)

// setupReps is how many times set-up (input generation plus one checked
// warm-up run) is repeated; setup_s is their median.
const setupReps = 5

// minRuns keeps the measurement going past -seconds until the tail
// percentile has 10 runs beyond it; maxOverrun bounds that extension.
const (
	minRuns    = 11
	maxOverrun = 60 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload: ocean-tcp, hrel-tcp or nbody-shm")
	seed := flag.Int64("seed", 1, "seed of the workload's input generator")
	seconds := flag.Int("seconds", 30, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1 = per-layer metrics from traced runs, 0 = end-to-end metrics")
	ledgerDir := flag.String("ledger-dir", "", "directory to write the last traced run's superstep ledger to, as ledger-<workload>.json")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *ledgerDir); err != nil {
		fmt.Fprintln(os.Stderr, "bspbench:", err)
		os.Exit(1)
	}
}

// sample is one timed run.
type sample struct {
	runS, rawS float64 // rawS keeps any in-program oracle time; runS does not
	cpuS       float64
	allocB     uint64
	mallocs    uint64
	gcs        uint32
	gcPauseS   float64
	// layer is the traced run reduced to per-layer figures at once, so
	// that no run's output or ledger outlives it (nil when untraced).
	layer layerRun
}

// bench is one invocation's state.
type bench struct {
	a         app
	tr        transport.Transport
	attempted int
	failed    int
	firstErr  error
	// lastLedger is the last traced run's ledger, written out at exit.
	lastLedger *ledger
}

func run(name string, seed int64, seconds, traced int, ledgerDir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	tr, err := transport.New(w.transport)
	if err != nil {
		return err
	}
	b := &bench{a: w.newApp(), tr: tr}
	if err := b.a.reference(seed); err != nil {
		return fmt.Errorf("%s: oracle reference: %w", name, err)
	}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		b.a.generate(seed)
		b.timed(nil)
		setups = append(setups, time.Since(t0).Seconds())
	}

	var plain, tracedRuns []sample
	start := time.Now()
	window := time.Duration(seconds) * time.Second
	for i := 0; ; i++ {
		el := time.Since(start)
		if el >= window+maxOverrun || (el >= window && len(plain) >= minRuns && (traced == 0 || len(tracedRuns) >= minRuns)) {
			break
		}
		if traced == 1 && i%2 == 1 {
			if s, ok := b.timed(newLedger(i, w.timeSends)); ok {
				tracedRuns = append(tracedRuns, s)
			}
			continue
		}
		if s, ok := b.timed(nil); ok {
			plain = append(plain, s)
		}
	}

	fmt.Printf("workload %s  seed %d  transport %s  p=%d  runs %d untraced + %d traced (+%d set-up)  failed %d\n",
		name, seed, w.transport, nproc, len(plain), len(tracedRuns), setupReps, b.failed)
	if b.firstErr != nil {
		fmt.Printf("first failure: %v\n", b.firstErr)
	}
	var metrics []metric
	var tracedRunS float64
	if traced == 0 {
		metrics = endToEnd(plain, setups)
	} else {
		metrics, tracedRunS = perLayer(w, plain, tracedRuns)
		if ledgerDir != "" && b.lastLedger != nil {
			path := filepath.Join(ledgerDir, "ledger-"+name+".json")
			if err := writeLedger(path, b.lastLedger); err != nil {
				return err
			}
		}
	}
	fmt.Printf("%-34s %.6g\n", "failed_ratio", float64(b.failed)/float64(b.attempted))
	for _, m := range metrics {
		fmt.Printf("%-34s %-14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	if traced == 1 {
		printDesignCheck(w.name, metrics, tracedRunS)
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, map[string]map[string]any{}}
	for _, m := range metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) { // only when every run failed
			v = 0
		}
		res.Metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if b.failed > 0 {
		os.Exit(1)
	}
	return nil
}

// timed runs the program once, over the ledger's decorator when led is
// non-nil, and checks its output. ok is false when the run failed; a
// failed run counts against failed_ratio and is left out of every
// timing.
func (b *bench) timed(led *ledger) (s sample, ok bool) {
	b.attempted++
	tr := b.tr
	if led != nil {
		tr = tracedTransport{inner: b.tr, l: led}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	out, err := b.a.run(tr)
	wall := time.Since(t0)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	if err == nil {
		err = b.a.check(out)
	}
	if err != nil {
		b.failed++
		if b.firstErr == nil {
			b.firstErr = err
		}
		return sample{}, false
	}
	s = sample{
		runS:     (wall - out.inProgramCheck).Seconds(),
		rawS:     wall.Seconds(),
		cpuS:     cpu1 - cpu0,
		allocB:   m1.TotalAlloc - m0.TotalAlloc,
		mallocs:  m1.Mallocs - m0.Mallocs,
		gcs:      m1.NumGC - m0.NumGC,
		gcPauseS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
	}
	if led != nil {
		s.layer = layers(out, led, s.runS, s.rawS)
		b.lastLedger = led
	}
	return s, true
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's maximum resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func writeLedger(path string, l *ledger) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if err := l.writeTo(f); err != nil {
		f.Close()
		return fmt.Errorf("ledger: %w", err)
	}
	return f.Close()
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// median returns the median of xs; xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest percentile of xs that has at least 10
// samples beyond it, with that percentile. ok is false when there are
// fewer than 11 samples, so no such percentile exists.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n < minRuns {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - minRuns // s[k+1:] holds exactly 10 samples
	return s[k], 100 * float64(k+1) / float64(n), true
}

func field(ss []sample, f func(sample) float64) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return xs
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func endToEnd(ss []sample, setups []float64) []metric {
	runs := field(ss, func(s sample) float64 { return s.runS })
	tv, tp, ok := tail(runs)
	tnote := fmt.Sprintf("p%.1f of n=%d (10 runs beyond)", tp, len(runs))
	if !ok {
		tv = quantile(runs, 1)
		tnote = fmt.Sprintf("max of n=%d: too few runs for 10 beyond", len(runs))
	}
	return []metric{
		{"run_s", median(runs), "s", fmt.Sprintf("median of n=%d", len(runs))},
		{"run_tail_s", tv, "s", tnote},
		{"setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups))},
		{"cpu_s_per_run", median(field(ss, func(s sample) float64 { return s.cpuS })), "s", "median user+sys"},
		{"alloc_mb_per_run", mean(field(ss, func(s sample) float64 { return float64(s.allocB) / (1 << 20) })), "MB", "TotalAlloc delta"},
		{"allocs_per_run", mean(field(ss, func(s sample) float64 { return float64(s.mallocs) })), "count", "Mallocs delta"},
		{"peak_rss_mb", peakRSSMB(), "MB", "max RSS of the process"},
	}
}
