package main

import (
	"fmt"
	"time"
)

// layerRun is one traced run reduced to per-layer figures.
type layerRun map[string]float64

// layerNames fixes the per-layer metrics, their units and print order.
var layerNames = []struct{ name, unit string }{
	{"apps.compute_s", "s"},
	{"apps.work_units", "count"},
	{"apps.load_imbalance", "ratio"},
	{"core.supersteps", "count"},
	{"core.h_pkts", "pkts"},
	{"core.sends", "count"},
	{"core.pack_s", "s"},
	{"core.deliver_s", "s"},
	{"transport.open_s", "s"},
	{"transport.sync_s", "s"},
	{"transport.exchange_s", "s"},
	{"transport.wait_s", "s"},
	{"transport.sync_p50_us", "us"},
	{"transport.sync_p99_us", "us"},
	{"transport.bytes", "B"},
	{"transport.frames", "count"},
	{"wire.bytes_computed", "B"},
	{"runtime.allocs_per_superstep", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"cost.g_us_per_pkt", "us/pkt"},
	{"cost.L_us", "us"},
	{"cost.eq1_ratio", "ratio"},
	{"ledger.coverage", "ratio"},
	{"ledger.trace_overhead", "ratio"},
}

// layers reduces one traced run to its per-layer figures.
func layers(out *runOut, led *ledger, runS, rawS float64) layerRun {
	st := out.st
	h := make([]int, st.S())
	for i := range h {
		h[i] = st.Steps[i].MaxH
	}
	rc := led.reconcile(h)
	pack, deliver := rc.pack, time.Duration(0)
	if br := out.brackets; br != nil {
		// The program timed its own pack and drain loops; per superstep
		// the slowest rank's slice is the one on the critical path.
		pack = 0
		for step := range br[0] {
			var p, d time.Duration
			for r := range br {
				p = max(p, br[r][step].pack)
				d = max(d, br[r][step].drain)
			}
			pack += p
			deliver += d
		}
	}
	fit := fitGL(rc.hPerStep, rc.exchangeUs)
	lr := layerRun{
		"apps.compute_s":        st.W().Seconds(),
		"apps.work_units":       float64(st.WUnits()),
		"apps.load_imbalance":   st.LoadImbalance(),
		"core.supersteps":       float64(st.S()),
		"core.h_pkts":           float64(st.H()),
		"core.sends":            float64(rc.sends),
		"core.pack_s":           pack.Seconds(),
		"core.deliver_s":        deliver.Seconds(),
		"transport.open_s":      rc.open.Seconds(),
		"transport.sync_s":      rc.sync.Seconds(),
		"transport.exchange_s":  rc.exchange.Seconds(),
		"transport.wait_s":      rc.wait.Seconds(),
		"transport.sync_p50_us": rc.syncP50Us,
		"transport.sync_p99_us": rc.syncP99Us,
		"transport.bytes":       float64(rc.bytes),
		"transport.frames":      float64(rc.frames),
		"wire.bytes_computed":   float64(rc.wireBytes),
		"cost.g_us_per_pkt":     fit.G,
		"cost.L_us":             fit.L,
		"ledger.coverage":       rc.covered.Seconds() / rawS,
		"run_s":                 runS,
	}
	if pred := fit.Predict(st.W(), st.H(), st.S()); pred > 0 {
		lr["cost.eq1_ratio"] = rawS / pred.Seconds()
	}
	return lr
}

// perLayer returns the per-layer metrics, each the median over the
// traced runs, and the traced runs' median run_s. Runtime counters come
// from the untraced runs, so the decorator's own bookkeeping does not
// show in them; a collection cycle spans several short runs, so they
// are means per run, not medians.
func perLayer(w workload, plain, traced []sample) ([]metric, float64) {
	med := func(key string) float64 {
		return median(field(traced, func(s sample) float64 { return s.layer[key] }))
	}
	plainRun := median(field(plain, func(s sample) float64 { return s.runS }))
	steps := med("core.supersteps")
	rt := map[string]float64{
		"runtime.allocs_per_superstep": mean(field(plain, func(s sample) float64 { return float64(s.mallocs) })) / max(steps, 1),
		"runtime.gc_cycles":            mean(field(plain, func(s sample) float64 { return float64(s.gcs) })),
		"runtime.gc_pause_s":           mean(field(plain, func(s sample) float64 { return s.gcPauseS })),
		"ledger.trace_overhead":        med("run_s") / plainRun,
	}
	var ms []metric
	for _, ln := range layerNames {
		v, ok := rt[ln.name]
		if !ok {
			v = med(ln.name)
		}
		note := fmt.Sprintf("median of %d traced runs", len(traced))
		switch ln.name {
		case "core.deliver_s":
			if w.name != "hrel-tcp" {
				note = "not timeable from outside the program (only hrel brackets its drain loop)"
			}
		case "wire.bytes_computed":
			note = "computed: payload + 4 B frame prefix per remote message + 8 B tcp batch header per pair and superstep"
		case "runtime.allocs_per_superstep", "runtime.gc_cycles", "runtime.gc_pause_s":
			note = fmt.Sprintf("mean per run over %d untraced runs", len(plain))
		case "ledger.trace_overhead":
			note = fmt.Sprintf("traced run_s %.4g s / untraced run_s %.4g s", med("run_s"), plainRun)
		}
		ms = append(ms, metric{ln.name, v, ln.unit, note})
	}
	return ms, med("run_s")
}

// printDesignCheck prints whether the traced run confirms what the
// workload was chosen to stress.
func printDesignCheck(name string, ms []metric, runS float64) {
	v := map[string]float64{}
	for _, m := range ms {
		v[m.name] = m.value
	}
	var lhs, want float64
	var what string
	switch name {
	case "nbody-shm":
		lhs, want, what = v["apps.compute_s"], 0.9, "apps.compute_s"
	case "ocean-tcp":
		lhs, want, what = v["transport.sync_s"], 0.5, "transport.sync_s"
	case "hrel-tcp":
		lhs, want, what = v["core.pack_s"]+v["transport.sync_s"]+v["core.deliver_s"], 0.8, "core.pack_s + transport.sync_s + core.deliver_s"
	}
	verdict := "ok"
	if lhs < want*runS {
		verdict = "NOT MET"
	}
	fmt.Printf("design check: %s = %.4g s = %.3f x traced run_s %.4g s (want >= %.1f): %s\n",
		what, lhs, lhs/runS, runS, want, verdict)
}
