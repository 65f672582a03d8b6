// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator's packages from outside, through their public functions, on
// seeded workloads, checks every result, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics) as one JSON line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload ladder --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer map.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// env is what one workload run is given: the seed, the length of the
// measured phase, the tracer (nil when untraced) and a scratch directory
// inside the checkout that is removed when the run ends.
type env struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer
	dir     string
	// aotCache, when set, is an existing runner cache to build into.
	aotCache string
}

// phase bounds a measured phase: it runs whole passes of the seeded job
// order, at least one, and ends at the first pass boundary after the
// deadline, so every run holds every job equally often. A phase with
// maxJobs set runs exactly that many jobs instead.
type phase struct {
	deadline time.Time
	passLen  int
	maxJobs  int
}

// done reports whether the phase ends after n jobs.
func (p phase) done(n int) bool {
	if p.maxJobs > 0 {
		return n >= p.maxJobs
	}
	return n > 0 && n%p.passLen == 0 && !time.Now().Before(p.deadline)
}

// pass collects one pass of a measured phase.
type pass struct {
	attempted int
	jobMs     []float64
	rates     *cellRates
	instr     uint64
	// end is when the pass's last job finished.
	end time.Time
}

// result collects one measured phase.
type result struct {
	attempted, failed int
	errs              []string
	// jobMs is every successful job's latency; passes split the jobs by
	// the pass of the seeded order they belong to.
	jobMs   []float64
	passes  []*pass
	passLen int
	instr   uint64
	start   time.Time
	wall    time.Duration
	// window is the measured phase on the tracer's clock.
	window [2]int64
	layers map[string]float64
}

func newResult() *result {
	return &result{layers: map[string]float64{}}
}

// job accounts the phase's n-th job when it finishes: its cell, the
// instructions it retired and its latency. A failed job counts against
// the attempted total and contributes no latency. A job with no cell adds
// its instructions to its pass only (the pass's rate is then its
// instructions per second of the pass).
func (r *result) job(n int, cell string, instr uint64, d time.Duration, err error) {
	r.attempted++
	k := 0
	if r.passLen > 0 {
		k = n / r.passLen
	}
	for len(r.passes) <= k {
		r.passes = append(r.passes, &pass{rates: newCellRates()})
	}
	p := r.passes[k]
	p.attempted++
	if now := time.Now(); now.After(p.end) {
		p.end = now
	}
	if err != nil {
		r.fail(err)
		return
	}
	ms := float64(d.Nanoseconds()) / 1e6
	r.jobMs = append(r.jobMs, ms)
	p.jobMs = append(p.jobMs, ms)
	r.instr += instr
	p.instr += instr
	if cell != "" {
		p.rates.add(cell, instr, d.Nanoseconds())
	}
}

// check accounts one run-level correctness check as an attempted
// operation.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
}

// workload is one seeded benchmark workload. Why each exists, and why
// only ladder and orgs are declared in BENCHMARK.json, is in README.md.
type workload struct {
	name string
	// setupReps is how many times a run sets up (once in-process, the rest
	// in fresh child processes); setup_s is their median.
	setupReps int
	// setup is timed as setup_s and returns the prepared state.
	setup func(e *env) (any, error)
	// prepare, when set, runs untimed between set-up and the measured
	// phase (warm-up passes, reference results).
	prepare func(e *env, st any, res *result) error
	// measure runs the measured phase, bounded by ph.
	measure func(e *env, st any, ph phase, res *result) error
	// passLen is the number of jobs in one pass of the seeded order.
	passLen int
	// peakRSS, when set, replaces the run's own peak resident set.
	peakRSS func(e *env, st any) (float64, error)
}

var workloads = []*workload{ladderWorkload, ladderAOTWorkload, orgsWorkload, serviceWorkload}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload: ladder, ladder-aot, orgs or service")
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 30, "length of the measured phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	probe := flag.Bool("setup-probe", false, "internal: set up once in this process and print the set-up time")
	mem := flag.Bool("mem-probe", false, "internal: run one AOT job in this process and print the peak resident set")
	aotCache := flag.String("aot-cache", "", "internal: runner cache of the parent run")
	job := flag.String("job", "", "internal: the job (cell,kernel) a memory probe runs")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	w := findWorkload(*name)
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	spec, err := loadSpec()
	if err != nil {
		fatalf("%v", err)
	}
	root, err := os.MkdirTemp(".bench_build", "run-")
	if err == nil {
		// Absolute, because the AOT build runs the go tool in another
		// directory.
		root, err = filepath.Abs(root)
	}
	if err != nil {
		fatalf("scratch dir: %v", err)
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: root, aotCache: *aotCache}
	code := 0
	switch {
	case *mem:
		var j [2]int
		if _, err := fmt.Sscanf(*job, "%d,%d", &j[0], &j[1]); err != nil {
			fatalf("--job %q: %v", *job, err)
		}
		if err := memProbe(e, j); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: memory probe:", err)
			code = 1
		}
	case *probe:
		code = setupProbe(w, e)
	case *traceFlag == 1:
		code = traceRun(w, e, spec.PerLayer)
	default:
		code = e2eRun(w, e, spec.EndToEnd)
	}
	os.RemoveAll(root)
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func (w *workload) runPrepare(e *env, st any, res *result) error {
	if w.prepare == nil {
		return nil
	}
	return w.prepare(e, st, res)
}

// timedSetup runs the workload's set-up and returns its wall time.
func timedSetup(w *workload, e *env) (any, float64, error) {
	start := time.Now()
	st, err := w.setup(e)
	return st, time.Since(start).Seconds(), err
}

// setupProbe is the child side of a set-up repetition: a fresh process
// sets up once and reports the time on its last output line.
func setupProbe(w *workload, e *env) int {
	st, s, err := timedSetup(w, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	if c, ok := st.(interface{ close() }); ok {
		c.close()
	}
	fmt.Printf("%.9f\n", s)
	return 0
}

// setupSamples repeats the set-up n-1 times in fresh child processes, so
// every repetition pays the same cold costs (ISA parse, toolchain probe,
// empty runner cache) as the first.
func setupSamples(w *workload, e *env, first float64, n int) ([]float64, error) {
	out := []float64{first}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	for k := 1; k < n; k++ {
		v, err := probeCmd(self, "--setup-probe", "--workload", w.name,
			"--seed", strconv.FormatUint(e.seed, 10))
		if err != nil {
			return nil, fmt.Errorf("setup probe %d: %w", k, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// probeCmd runs a child probe to completion and parses the number on the
// last line of its output.
func probeCmd(name string, args ...string) (float64, error) {
	cmd := exec.Command(name, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(lastLine(stdout.String())), 64)
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// measurePhase runs the workload's measured phase for e.seconds.
func measurePhase(w *workload, e *env, st any, res *result) error {
	return runPhase(w, e, st, phase{deadline: time.Now().Add(e.seconds), passLen: w.passLen}, res)
}

// runPhase runs one bounded phase of the workload's jobs.
func runPhase(w *workload, e *env, st any, ph phase, res *result) error {
	start := time.Now()
	res.start, res.passLen = start, w.passLen
	if e.tr != nil {
		res.window[0] = time.Since(e.tr.t0).Nanoseconds()
	}
	err := w.measure(e, st, ph, res)
	res.wall = time.Since(start)
	if e.tr != nil {
		res.window[1] = time.Since(e.tr.t0).Nanoseconds()
	}
	return err
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of the benchmark's output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printReport(rep report) {
	b, err := json.Marshal(rep)
	if err != nil {
		fatalf("encoding report: %v", err)
	}
	fmt.Println(string(b))
}

// e2eRun is the untraced run: set up (several times), measure, check and
// print the end-to-end metrics. Once jobs have run, the report is always
// printed: a failed job counts against the attempted ones, and a metric
// the successful jobs cannot give is left out of a report marked
// incorrect, rather than ending the run without one.
func e2eRun(w *workload, e *env, decl []specMetric) int {
	st, first, err := timedSetup(w, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	if c, ok := st.(interface{ close() }); ok {
		defer c.close()
	}
	setups, err := setupSamples(w, e, first, w.setupReps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := newResult()
	if err := w.runPrepare(e, st, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: prepare:", err)
		return 1
	}
	if err := measurePhase(w, e, st, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: measure:", err)
		return 1
	}
	rss := peakRSSMB()
	if w.peakRSS != nil {
		rss, err = w.peakRSS(e, st)
		res.check(err)
	}
	for _, s := range res.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", s)
	}
	rep, problems := e2eReport(res, decl, median(setups), rss)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	per, _ := passMetrics(res)
	fmt.Printf("# %s seed=%d jobs=%d setup_samples=%d measured_s=%.3f instr=%d pass_mips=%.4g\n",
		w.name, e.seed, len(res.jobMs), len(setups), res.wall.Seconds(), res.instr, per["mips"])
	printReport(rep)
	return 0
}

// e2eReport builds the untraced report from a measured phase. problems
// names every metric it could not give; the report is then incorrect.
func e2eReport(res *result, decl []specMetric, setupS, rssMB float64) (report, []string) {
	values, problems := e2eMetrics(res)
	values["setup_s"] = setupS
	if rssMB > 0 {
		values["peak_rss_mb"] = rssMB
	} else {
		problems = append(problems, "peak_rss_mb: no peak resident set")
	}
	m, missing := selectMetrics(decl, values)
	if len(missing) > 0 {
		problems = append(problems, fmt.Sprintf("metrics not measured: %v", missing))
	}
	return report{
		Correct:   res.failed == 0 && len(problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   m,
	}, problems
}

// e2eMetrics derives the job metrics of a measured phase from its
// successful jobs, and says why any of them could not be derived. Each is
// taken per whole pass, and the run's value is the median over its passes,
// so a slow stretch of the host that covers less than half of the run does
// not move it.
func e2eMetrics(res *result) (map[string]float64, []string) {
	per, problems := passMetrics(res)
	values := map[string]float64{}
	for _, name := range []string{"job_p50_ms", "job_p90_ms", "mips"} {
		if len(per[name]) == 0 {
			problems = append(problems, name+": no whole pass gives it")
			continue
		}
		values[name] = median(per[name])
	}
	return values, problems
}

// passMetrics gives each job metric once per whole pass. A pass's rate is
// the geomean of its cell MIPS, or for jobs without a cell its retired
// instructions per second of the pass.
func passMetrics(res *result) (map[string][]float64, []string) {
	per := map[string][]float64{}
	var problems []string
	prev := res.start
	for _, p := range res.passes {
		wall := p.end.Sub(prev).Seconds()
		prev = p.end
		if p.attempted != res.passLen || len(p.jobMs) == 0 {
			continue
		}
		for _, q := range []struct {
			name string
			p    float64
		}{{"job_p50_ms", 50}, {"job_p90_ms", 90}} {
			if v, err := percentile(p.jobMs, q.p); err == nil {
				per[q.name] = append(per[q.name], v)
			} else {
				problems = append(problems, q.name+": "+err.Error())
			}
		}
		if len(p.rates.order) == 0 {
			per["mips"] = append(per["mips"], float64(p.instr)/wall/1e6)
		} else if g, err := p.rates.geoMIPS(); err == nil {
			per["mips"] = append(per["mips"], g)
		} else {
			problems = append(problems, "mips: "+err.Error())
		}
	}
	return per, problems
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, _ := strconv.ParseFloat(fields[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// spanDir is where traced runs leave their span files, inside the
// checkout's build directory.
func spanDir() string { return filepath.Join(".bench_build", "spans") }
