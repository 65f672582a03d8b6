package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// table3Rows are the paper's Table III rows as differences of interface
// costs (ns per simulated instruction), following expt.TableIII: the base
// is One/Min, and each increment is an interface's cost minus the cost of
// the interface it adds that detail to.
var table3Rows = []struct {
	name     string
	rung, of string // cost(rung) - cost(of); of == "" for the base row
}{
	{"base", "one_min", ""},
	{"decode_info", "one_decode", "one_min"},
	{"full_info", "one_all", "one_min"},
	{"block_call", "block_min", "one_min"},
	{"multiple_calls", "step_all", "one_all"},
	{"speculation", "one_all_spec", "one_all"},
}

// traceRun is the traced run. Every per-layer metric comes from one
// traced pass of a workload's seeded job set (all of it, after the full
// set-up), whichever workload is named, so a metric means the same in
// every traced run: a metric more than one workload measures (isa.load_ms,
// say) is taken from the first of them in declaration order. The named
// workload also runs an untraced phase of --seconds before its traced
// pass; the two give the tracing overhead. Spans are written to
// .bench_build/spans/ when the run ends.
func traceRun(w *workload, e *env, decl []specMetric) int {
	if err := os.MkdirAll(spanDir(), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	attempted, failed := 0, 0
	byWorkload := map[*workload]map[string]float64{}
	for _, o := range append([]*workload{w}, others(w)...) {
		var untraced *result
		if o == w {
			untraced = newResult()
		}
		tr := newTracer()
		res, err := tracedPass(o, e, tr, untraced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced %s: %v\n", o.name, err)
			return 1
		}
		attempted += res.attempted
		failed += res.failed
		for _, s := range res.errs {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", s)
		}
		spans := tr.snapshot()
		spanLayers(spans, res.layers)
		byWorkload[o] = res.layers
		file := fmt.Sprintf("%s-seed%d-also-%s.jsonl", w.name, e.seed, o.name)
		if o == w {
			file = fmt.Sprintf("%s-seed%d.jsonl", w.name, e.seed)
			if err := overhead(untraced, res, res.layers); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			cov := coverage(spans, res.window[0], res.window[1])
			res.layers["trace.self_coverage_pct"] = 100 * cov
			printSelfTimes(w.name, spans, res.window)
			fmt.Printf("# traced %s seed=%d jobs=%d (untraced %d) self-time coverage %.1f%%\n",
				w.name, e.seed, len(res.jobMs), len(untraced.jobMs), 100*cov)
		}
		if err := writeSpanFile(filepath.Join(spanDir(), file), spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	layers := map[string]float64{}
	for _, o := range workloads {
		for k, v := range byWorkload[o] {
			if _, ok := layers[k]; !ok {
				layers[k] = v
			}
		}
	}
	deriveTable3(layers)
	m, missing := selectMetrics(decl, layers)
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: metrics not measured: %v\n", missing)
	}
	printReport(report{Correct: failed == 0 && len(missing) == 0, Attempted: attempted, Failed: failed, Metrics: m})
	return 0
}

// others is every workload but w, in declaration order.
func others(w *workload) []*workload {
	var out []*workload
	for _, o := range workloads {
		if o != w {
			out = append(out, o)
		}
	}
	return out
}

// tracedPass sets a workload up with spans on, prepares it, and runs one
// traced pass of its job set. When untraced is not nil, an untraced phase
// of --seconds runs first and is accounted there.
func tracedPass(w *workload, e *env, tr *tracer, untraced *result) (*result, error) {
	et := *e
	et.tr = tr
	st, _, err := timedSetup(w, &et)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if c, ok := st.(interface{ close() }); ok {
		defer c.close()
	}
	res := newResult()
	if err := w.runPrepare(&et, st, res); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	if untraced != nil {
		if err := measurePhase(w, e, st, untraced); err != nil {
			return nil, err
		}
		res.attempted += untraced.attempted
		res.failed += untraced.failed
		res.errs = append(res.errs, untraced.errs...)
	}
	if err := runPhase(w, &et, st, phase{maxJobs: w.passLen}, res); err != nil {
		return nil, err
	}
	return res, nil
}

// spanLayers derives the per-layer metrics that are plain span statistics.
func spanLayers(spans []span, layers map[string]float64) {
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur())/1e6)
	}
	mean := func(xs []float64) float64 {
		var t float64
		for _, x := range xs {
			t += x
		}
		return t / float64(len(xs))
	}
	for name, key := range map[string]string{
		"isa.load":         "isa.load_ms",
		"kernels.assemble": "kernels.assemble_ms",
		"core.synthesize":  "core.synthesize_ms",
		"aot.cache_hit":    "aot.cache_hit_ms",
	} {
		if xs := byName[name]; len(xs) > 0 {
			layers[key] = mean(xs)
		}
	}
	if xs := byName["aot.build"]; len(xs) > 0 {
		layers["aot.build_s"] = mean(xs) / 1e3
	}
}

// deriveTable3 computes the Table III rows for both backends from the
// per-interface costs, when all of a backend's rungs were measured.
func deriveTable3(layers map[string]float64) {
	for _, b := range []struct{ prefix, suffix string }{{"core.", "interp_ns"}, {"aot.", "aot_ns"}} {
		cost := func(iface string) (float64, bool) {
			v, ok := layers[b.prefix+iface+".ns_per_instr"]
			return v, ok
		}
		for _, row := range table3Rows {
			v, ok := cost(row.rung)
			if !ok {
				continue
			}
			if row.of != "" {
				o, ok := cost(row.of)
				if !ok {
					continue
				}
				v -= o
			}
			layers["table3."+row.name+"."+b.suffix] = v
		}
	}
}

// overhead reports how much slower the traced phase ran than the untraced
// one, as a percentage of the untraced median job latency.
func overhead(base, traced *result, layers map[string]float64) error {
	if len(base.jobMs) == 0 || len(traced.jobMs) == 0 {
		return fmt.Errorf("no jobs to compare for the tracing overhead")
	}
	b, t := median(base.jobMs), median(traced.jobMs)
	layers["trace.overhead_p50_pct"] = 100 * (t - b) / b
	return nil
}

// printSelfTimes prints each span name's self time within the measured
// window as a share of it.
func printSelfTimes(name string, spans []span, window [2]int64) {
	var in []span
	for _, s := range spans {
		if s.Start >= window[0] && s.End <= window[1] {
			in = append(in, s)
		}
	}
	self := selfByName(in)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	wall := float64(window[1] - window[0])
	fmt.Printf("# self time in the traced %s phase (%.3f s; spans of concurrent jobs overlap):\n", name, wall/1e9)
	for _, n := range names {
		fmt.Printf("#   %-32s %10.3f ms %6.2f%%\n", n, float64(self[n])/1e6, 100*float64(self[n])/wall)
	}
}
