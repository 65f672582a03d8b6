package main

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if _, err := percentile(seq(99), 90); err == nil {
		t.Fatal("p90 of 99 samples leaves 9 beyond it; want an error")
	}
	v, err := percentile(seq(100), 90)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if v != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90 (nearest rank)", v)
	}
	if v, err := percentile(seq(200), 90); err != nil || v != 180 {
		t.Fatalf("p90 of 1..200 = %v, %v; want 180", v, err)
	}
	// The median needs no tail.
	if v, err := percentile(seq(5), 50); err != nil || v != 3 {
		t.Fatalf("p50 of 1..5 = %v, %v; want 3", v, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("percentile of no samples: want an error")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestGeomean(t *testing.T) {
	g, err := geomean([]float64{1, 4, 16})
	if err != nil || math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(1,4,16) = %v, %v; want 4", g, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}, {math.Inf(1)}, {math.NaN()}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v): want an error", bad)
		}
	}
}

func TestCellGeomean(t *testing.T) {
	c := newCellRates()
	// Cell a: 2000 instructions in 1000 ns over two jobs = 2000 MIPS.
	c.add("a", 1000, 400)
	c.add("a", 1000, 600)
	// Cell b: 500 instructions in 1000 ns = 500 MIPS.
	c.add("b", 500, 1000)
	if m := c.mips("a"); m != 2000 {
		t.Fatalf("mips(a) = %v, want 2000", m)
	}
	g, err := c.geoMIPS()
	if err != nil || math.Abs(g-1000) > 1e-9 {
		t.Fatalf("geoMIPS = %v, %v; want 1000 (geomean of 2000 and 500)", g, err)
	}
	// A cell that never completed a job cannot hide in the mean.
	c.add("c", 0, 0)
	if _, err := c.geoMIPS(); err == nil {
		t.Fatal("geoMIPS with an empty cell: want an error")
	}
}

func TestScheduleRoundsAreBalanced(t *testing.T) {
	const cells, kernels = 18, 6
	order := schedule(rand.New(rand.NewSource(7)), cells, kernels)
	if len(order) != cells*kernels {
		t.Fatalf("pass has %d jobs, want %d", len(order), cells*kernels)
	}
	seen := map[[2]int]bool{}
	for r := 0; r < kernels; r++ {
		inRound := map[int]bool{}
		for _, job := range order[r*cells : (r+1)*cells] {
			inRound[job[0]] = true
			seen[job] = true
		}
		if len(inRound) != cells {
			t.Fatalf("round %d runs %d distinct cells, want %d", r, len(inRound), cells)
		}
	}
	if len(seen) != cells*kernels {
		t.Fatalf("pass covers %d distinct (cell, kernel) jobs, want %d", len(seen), cells*kernels)
	}
	again := schedule(rand.New(rand.NewSource(7)), cells, kernels)
	for i := range order {
		if order[i] != again[i] {
			t.Fatal("the same seed gave a different order")
		}
	}
}

func TestPhaseRunsWholePasses(t *testing.T) {
	past := time.Now().Add(-time.Second)
	p := phase{deadline: past, passLen: 4}
	for n, want := range map[int]bool{0: false, 3: false, 4: true, 6: false, 8: true} {
		if got := p.done(n); got != want {
			t.Errorf("done(%d) = %v, want %v", n, got, want)
		}
	}
	future := phase{deadline: time.Now().Add(time.Hour), passLen: 1}
	if future.done(100) {
		t.Error("phase ended before its deadline")
	}
	if !(phase{maxJobs: 3}).done(3) || (phase{maxJobs: 3}).done(2) {
		t.Error("maxJobs phase must run exactly maxJobs jobs")
	}
}

var e2eDecl = []specMetric{
	{"setup_s", "s"}, {"mips", "MIPS"}, {"job_p50_ms", "ms"}, {"job_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// phaseWith fills a result as a measured phase of one pass of n jobs over
// two cells, the first failed of them failing, would.
func phaseWith(n, failed int) *result {
	res := newResult()
	res.passLen, res.start = n, time.Now().Add(-time.Second)
	for k := 0; k < n; k++ {
		var err error
		if k < failed {
			err = fmt.Errorf("job %d failed", k)
		}
		res.job(k, []string{"a", "b"}[k%2], 1000, time.Duration(k+1)*time.Millisecond, err)
	}
	return res
}

func TestE2EReportCountsFailedJobs(t *testing.T) {
	rep, problems := e2eReport(phaseWith(120, 0), e2eDecl, 0.5, 60)
	if !rep.Correct || rep.Attempted != 120 || rep.Failed != 0 || len(problems) != 0 {
		t.Fatalf("clean phase: %+v, problems %v", rep, problems)
	}
	if len(rep.Metrics) != len(e2eDecl) {
		t.Fatalf("clean phase reports %d metrics, want %d", len(rep.Metrics), len(e2eDecl))
	}

	// One pass of 108 jobs with 9 failed leaves 99 samples: too few for
	// p90. The report still comes, incorrect, with the counts.
	rep, problems = e2eReport(phaseWith(108, 9), e2eDecl, 0.5, 60)
	if rep.Correct || rep.Attempted != 108 || rep.Failed != 9 {
		t.Fatalf("phase with failures: %+v", rep)
	}
	if _, ok := rep.Metrics["job_p90_ms"]; ok || len(problems) == 0 {
		t.Fatalf("p90 from 99 samples was reported (problems %v)", problems)
	}
	if _, ok := rep.Metrics["job_p50_ms"]; !ok {
		t.Fatal("p50 missing though 99 jobs succeeded")
	}

	// Every job failing leaves no job metric at all.
	rep, _ = e2eReport(phaseWith(120, 120), e2eDecl, 0.5, 60)
	if rep.Correct || rep.Failed != 120 {
		t.Fatalf("all jobs failed: %+v", rep)
	}
	if _, ok := rep.Metrics["mips"]; ok {
		t.Fatal("mips reported with no successful job")
	}
	if _, ok := rep.Metrics["setup_s"]; !ok {
		t.Fatal("setup_s dropped from a report with failed jobs")
	}
}

func TestE2EMetricsAreMediansOverPasses(t *testing.T) {
	res := newResult()
	res.passLen, res.start = 100, time.Now()
	// Three passes of 100 one-cell jobs, each retiring 1000 instructions;
	// the second pass runs every job 10 times slower.
	for n := 0; n < 300; n++ {
		d := time.Millisecond
		if n/100 == 1 {
			d = 10 * time.Millisecond
		}
		res.job(n, "a", 1000, d, nil)
	}
	values, problems := e2eMetrics(res)
	if len(problems) != 0 {
		t.Fatalf("problems: %v", problems)
	}
	if values["job_p50_ms"] != 1 || values["job_p90_ms"] != 1 {
		t.Errorf("p50, p90 = %v, %v; want the fast passes' 1 ms", values["job_p50_ms"], values["job_p90_ms"])
	}
	if math.Abs(values["mips"]-1) > 1e-9 {
		t.Errorf("mips = %v, want the fast passes' 1", values["mips"])
	}

	// A pass that did not run all its jobs gives nothing.
	res.job(300, "a", 1000, 50*time.Millisecond, nil)
	if again, _ := e2eMetrics(res); again["mips"] != values["mips"] {
		t.Errorf("an unfinished pass moved mips from %v to %v", values["mips"], again["mips"])
	}
}
