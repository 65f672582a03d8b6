package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"singlespec/internal/aot"
	"singlespec/internal/core"
	"singlespec/internal/isa"
	"singlespec/internal/lis"
	"singlespec/internal/mach"
	"singlespec/internal/sysemu"
)

// ladderIfaces are the paper's Table III rungs: base (One/Min), decode and
// full information, the block call, multiple calls (Step) and speculation.
var ladderIfaces = []string{"one_min", "one_decode", "one_all", "block_min", "step_all", "one_all_spec"}

// maxJobInstr bounds one job, so a program that stops halting fails its
// job instead of hanging the benchmark.
const maxJobInstr = 50_000_000

// ladderCell is one (ISA, interface) pair with its synthesized simulator
// and, for the AOT ladder, its runner binary.
type ladderCell struct {
	isa   *isa.ISA
	iface string
	sim   *core.Sim
	bin   string
}

func (c *ladderCell) key() string { return c.isa.Name + "/" + c.iface }

type ladder struct {
	aot      bool
	cells    []*ladderCell
	progs    [][]*program // [isa][kernel]
	order    [][2]int
	cacheDir string
	// digest is each job's record-stream digest from its warm-up run, on
	// the AOT ladder from the interpreter's run of the same job.
	digest map[[2]int]uint64
	// instret is, on the AOT ladder, each job's retired-instruction count
	// as the interpreter retires it.
	instret map[[2]int]uint64
	// heaviest is the AOT job that delivered the most records in the
	// last measured phase.
	heaviest [2]int
}

// setupLadder is the timed set-up of both ladders: ISA load, kernel
// assembly, synthesis, and for the AOT ladder building every runner into
// an empty runner cache made for this run.
func setupLadder(e *env, withAOT bool) (*ladder, error) {
	rng := rand.New(rand.NewSource(int64(e.seed)))
	sizes := mixSizes(rng)
	l := &ladder{aot: withAOT, instret: map[[2]int]uint64{}}
	root := e.tr.begin("setup", 0, "")
	defer e.tr.end(root)
	if withAOT {
		l.cacheDir = e.aotCache
		if l.cacheDir == "" {
			l.cacheDir = filepath.Join(e.dir, "aot-cache")
		}
		if err := os.MkdirAll(l.cacheDir, 0o755); err != nil {
			return nil, err
		}
	}
	progs, err := loadPrograms(e, root, isa.Names(), sizes)
	if err != nil {
		return nil, err
	}
	l.progs = progs
	for _, row := range progs {
		i := row[0].isa
		for _, iface := range ladderIfaces {
			c := &ladderCell{isa: i, iface: iface}
			if _, err := e.tr.timed("core.synthesize", root, "", func() (err error) {
				c.sim, err = core.Synthesize(i.Spec, iface, core.Options{})
				return err
			}); err != nil {
				return nil, err
			}
			l.cells = append(l.cells, c)
		}
	}
	if withAOT {
		if err := l.buildRunners(e, root); err != nil {
			return nil, err
		}
	}
	l.order = schedule(rng, len(l.cells), len(sizes))
	return l, nil
}

// buildRunners builds every cell's runner, nproc builds at a time as the
// experiment engine's workers do.
func (l *ladder) buildRunners(e *env, parent int) error {
	cells := make(chan *ladderCell)
	errs := make(chan error, len(l.cells))
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cells {
				_, err := e.tr.timed("aot.build", parent, "", func() error {
					b, err := aot.Build(c.sim, aot.RunnerConvFor(c.isa.Conv), l.cacheDir, nil)
					if err == nil {
						c.bin = b.BinPath
					}
					return err
				})
				errs <- err
			}
		}()
	}
	for _, c := range l.cells {
		cells <- c
	}
	close(cells)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// program returns a scheduled job's cell and program.
func (l *ladder) program(job [2]int) (*ladderCell, *program) {
	c := l.cells[job[0]]
	return c, l.progs[job[0]/len(ladderIfaces)][job[1]]
}

// interpJob runs one program to halt on a fresh machine through the
// cell's interface, feeding every record to the consumer.
func interpJob(e *env, job string, parent int, c *ladderCell, p *program, cons *consumer) (uint64, core.ExecStats, time.Duration, error) {
	var m *mach.Machine
	var x *core.Exec
	e.tr.timed("mach.load", parent, job, func() error {
		m = p.isa.Spec.NewMachine()
		emu := sysemu.New(p.isa.Conv)
		emu.Install(m)
		p.prog.LoadInto(m)
		x = c.sim.NewExec(m)
		return nil
	})
	exec, _ := e.tr.timed("core.exec", parent, job, func() error {
		execProgram(c.sim, x, m, cons)
		return nil
	})
	if err := checkHalt(p, m.Halted, int64(m.ExitCode), func() uint32 {
		v, _ := m.Mem.Load(p.result, 4)
		return uint32(v)
	}); err != nil {
		return 0, x.Stats(), exec, fmt.Errorf("%s/%s: %w", p.key(), c.iface, err)
	}
	return m.Instret, x.Stats(), exec, nil
}

// execProgram drives the interface the buildset derives: a block per
// ExecBlock call, every entrypoint of an instruction per StepCall (the
// consumer reads the record after each call), or one instruction per
// ExecOne call.
func execProgram(sim *core.Sim, x *core.Exec, m *mach.Machine, cons *consumer) {
	switch {
	case sim.BS.Mode == lis.ModeBlock:
		var b core.Batch
		for !m.Halted && m.Instret < maxJobInstr {
			ok := x.ExecBlock(&b)
			cons.batch(&b)
			if !ok {
				break
			}
		}
	case len(sim.BS.Entrypoints) > 1:
		var rec core.Record
		eps := len(sim.BS.Entrypoints)
		for !m.Halted && m.Instret < maxJobInstr {
			rec.PC = m.PC
			for ep := 0; ep < eps; ep++ {
				x.StepCall(ep, &rec)
				cons.record(&rec)
			}
			if rec.Fault != mach.FaultNone {
				break
			}
		}
	default:
		var rec core.Record
		for !m.Halted && m.Instret < maxJobInstr {
			ok := x.ExecOne(&rec)
			cons.record(&rec)
			if !ok {
				break
			}
		}
	}
}

// checkHalt is the per-job correctness gate shared by every workload:
// the program halted, exited 0, and stored the reference checksum.
func checkHalt(p *program, halted bool, exit int64, result func() uint32) error {
	if !halted {
		return fmt.Errorf("did not halt")
	}
	if exit != 0 {
		return fmt.Errorf("exit code %d", exit)
	}
	if got := result(); got != p.kernel.ref {
		return fmt.Errorf("checksum %#x, want %#x (n=%d)", got, p.kernel.ref, p.kernel.n)
	}
	return nil
}

// aotStages are the AOT job's timed stages.
type aotStages struct {
	spawn, init, run, consume, close time.Duration
	runnerNs                         uint64
	records                          int
	// recBytes is the records' size on the wire: a 32-byte header plus
	// eight bytes per visible field.
	recBytes uint64
}

// aotJob runs one program through a freshly spawned runner, with records
// on or off, feeding every delivered record to the consumer.
func aotJob(e *env, job string, parent int, c *ladderCell, p *program, cons *consumer, wantRecs bool) (uint64, aotStages, error) {
	var st aotStages
	var r *aot.Runner
	var err error
	if st.spawn, err = e.tr.timed("aot.spawn", parent, job, func() (err error) {
		r, err = aot.SpawnWithDeadline(c.bin, nil, time.Minute)
		return err
	}); err != nil {
		return 0, st, fmt.Errorf("%s/%s: %w", p.key(), c.iface, err)
	}
	var res *aot.RunResult
	err = func() error {
		var err error
		if st.init, err = e.tr.timed("aot.init", parent, job, func() error {
			return r.Init(p.prog, nil)
		}); err != nil {
			return err
		}
		if st.run, err = e.tr.timed("aot.run", parent, job, func() (err error) {
			res, err = r.Run(maxJobInstr, wantRecs, p.result)
			return err
		}); err != nil {
			return err
		}
		st.consume, _ = e.tr.timed("consumer", parent, job, func() error {
			for i := range res.Records {
				cons.record(&res.Records[i])
			}
			return nil
		})
		return nil
	}()
	var cerr error
	st.close, _ = e.tr.timed("aot.close", parent, job, func() error {
		cerr = r.Close()
		return nil
	})
	if err != nil {
		return 0, st, fmt.Errorf("%s/%s: %w", p.key(), c.iface, err)
	}
	if cerr != nil {
		return 0, st, fmt.Errorf("%s/%s: closing runner: %w", p.key(), c.iface, cerr)
	}
	st.runnerNs = res.ElapsedNs
	st.records = len(res.Records)
	for i := range res.Records {
		st.recBytes += 32 + 8*uint64(len(res.Records[i].Vals))
	}
	if err := checkHalt(p, res.Halted, res.ExitCode, func() uint32 { return res.ResultWord }); err != nil {
		return 0, st, fmt.Errorf("%s/%s: %w", p.key(), c.iface, err)
	}
	return res.Instret, st, nil
}

var ladderWorkload = &workload{
	name:      "ladder",
	setupReps: 31,
	passLen:   len(ladderIfaces) * 3 * 6,
	setup:     func(e *env) (any, error) { return setupLadder(e, false) },
	prepare:   func(e *env, st any, res *result) error { return st.(*ladder).warm(e, res) },
	measure:   func(e *env, st any, ph phase, res *result) error { return st.(*ladder).measure(e, ph, res) },
}

var ladderAOTWorkload = &workload{
	name:      "ladder-aot",
	setupReps: 3,
	passLen:   len(ladderIfaces) * 3 * 6,
	setup:     func(e *env) (any, error) { return setupLadder(e, true) },
	prepare:   func(e *env, st any, res *result) error { return st.(*ladder).warm(e, res) },
	measure:   func(e *env, st any, ph phase, res *result) error { return st.(*ladder).measure(e, ph, res) },
	peakRSS:   func(e *env, st any) (float64, error) { return st.(*ladder).peakRSS(e) },
}

func jobID(prefix string, n int) string { return prefix + strconv.Itoa(n) }

// warm runs the untimed step before the measured phase. The interpreter
// ladder runs every job once, filling each Sim's translation caches (the
// measured jobs then run warm, as in the paper's long runs). The AOT
// ladder runs every job through the interpreter to get the reference each
// AOT job must match: its retired-instruction count and, on every
// interface that publishes records per call, the consumer's digest of its
// record stream. When traced, it also times a runner-cache hit per cell.
// A job that fails here counts as a failed check.
func (l *ladder) warm(e *env, res *result) error {
	l.digest = map[[2]int]uint64{}
	if l.aot {
		for _, job := range l.order {
			c, p := l.program(job)
			var cons consumer
			instr, _, _, err := interpJob(&env{}, "", 0, c, p, &cons)
			res.check(err)
			if err != nil {
				continue
			}
			l.instret[job] = instr
			if c.sim.BS.Mode != lis.ModeBlock {
				l.digest[job] = cons.digest
			}
		}
		if e.tr != nil {
			for _, c := range l.cells {
				c := c
				_, err := e.tr.timed("aot.cache_hit", 0, "", func() error {
					b, err := aot.Build(c.sim, aot.RunnerConvFor(c.isa.Conv), l.cacheDir, nil)
					if err == nil && !b.Cached {
						err = fmt.Errorf("%s: runner cache missed after a build", c.key())
					}
					return err
				})
				res.check(err)
			}
		}
		return nil
	}
	var stats core.ExecStats
	var cold time.Duration
	for n, job := range l.order {
		c, p := l.program(job)
		id := jobID("w", n)
		root := e.tr.begin("core.cold_job", 0, id)
		start := time.Now()
		var cons consumer
		_, xs, _, err := interpJob(e, id, root, c, p, &cons)
		cold += time.Since(start)
		e.tr.end(root)
		res.check(err)
		stats.Merge(xs)
		if err == nil {
			l.digest[job] = cons.digest
		}
	}
	res.layers["core.cold_job_ms"] = cold.Seconds() * 1e3 / float64(len(l.order))
	res.layers["core.unit_translations"] = float64(stats.UnitTranslations)
	res.layers["core.block_builds"] = float64(stats.BlockBuilds)
	return nil
}

// checkAgainstInterp compares an AOT job with the interpreter's run of
// the same program through the same interface: the retired-instruction
// count always, and the record stream wherever the interface publishes
// records per call (a block-interface run delivers none to compare).
func (l *ladder) checkAgainstInterp(job [2]int, instr uint64, digest uint64) error {
	c, p := l.program(job)
	want, ok := l.instret[job]
	if !ok {
		return fmt.Errorf("%s/%s: no interpreter reference", p.key(), c.iface)
	}
	if instr != want {
		return fmt.Errorf("%s/%s: retired %d instructions, interpreter retired %d", p.key(), c.iface, instr, want)
	}
	if c.sim.BS.Mode == lis.ModeBlock {
		return nil
	}
	if ref, ok := l.digest[job]; !ok {
		return fmt.Errorf("%s/%s: no interpreter record stream", p.key(), c.iface)
	} else if ref != digest {
		return fmt.Errorf("%s/%s: record stream differs from the interpreter's", p.key(), c.iface)
	}
	return nil
}

// ladderAcc accumulates per-cell delivery time (the interface calls plus
// the consumer) and the AOT stages of a measured phase.
type ladderAcc struct {
	deliverNs            map[string]int64
	instr                map[string]uint64
	stats                core.ExecStats
	records, fields      uint64
	consumeNs            int64
	runnerNs, norecNs    uint64
	recordCostNs         int64
	recBytes             uint64
	spawn, initMs, close []float64
}

// measure runs jobs in the seeded order until the phase ends. Every job
// is checked: checksum, exit code and halt; on the interpreter ladder the
// record digest against the warm-up run of the same job, on the AOT ladder
// the retired-instruction count and record digest against the
// interpreter's (see checkAgainstInterp).
func (l *ladder) measure(e *env, ph phase, res *result) error {
	acc := &ladderAcc{deliverNs: map[string]int64{}, instr: map[string]uint64{}}
	var heaviest [2]int
	mostRecords := -1
	for n := 0; !ph.done(n); n++ {
		job := l.order[n%len(l.order)]
		c, p := l.program(job)
		id := jobID("j", n)
		root := e.tr.begin("job", 0, id)
		start := time.Now()
		var cons consumer
		var instr uint64
		var err error
		var deliver, run time.Duration
		if l.aot {
			var st aotStages
			instr, st, err = aotJob(e, id, root, c, p, &cons, true)
			if err == nil {
				err = l.checkAgainstInterp(job, instr, cons.digest)
			}
			deliver, run = st.run+st.consume, st.run
			acc.addAOT(st)
			if st.records > mostRecords {
				heaviest, mostRecords = job, st.records
			}
		} else {
			var xs core.ExecStats
			instr, xs, deliver, err = interpJob(e, id, root, c, p, &cons)
			acc.stats.Merge(xs)
		}
		d := time.Since(start)
		e.tr.end(root)
		if err == nil && !l.aot {
			if ref, ok := l.digest[job]; !ok {
				err = fmt.Errorf("%s/%s: no warm-up run to compare the record stream with", p.key(), c.iface)
			} else if ref != cons.digest {
				err = fmt.Errorf("%s/%s: record stream differs from the warm-up run", p.key(), c.iface)
			}
		}
		res.job(n, c.key(), instr, d, err)
		if err != nil {
			continue
		}
		acc.deliverNs[c.key()] += deliver.Nanoseconds()
		acc.instr[c.key()] += instr
		acc.records += cons.records
		acc.fields += cons.fields
		if l.aot && e.tr != nil {
			// Traced replay with records off: the runner's own time for
			// the same program when nothing is delivered.
			rid := jobID("r", n)
			rr := e.tr.begin("aot.replay", 0, rid)
			var rc consumer
			ri, rs, rerr := aotJob(e, rid, rr, c, p, &rc, false)
			e.tr.end(rr)
			res.check(rerr)
			if rerr == nil && ri == instr {
				acc.norecNs += rs.runnerNs
				// What delivering the records added: the host-side Run
				// with records minus the runner's own time without them.
				acc.recordCostNs += run.Nanoseconds() - int64(rs.runnerNs)
			}
		}
	}
	if mostRecords >= 0 {
		l.heaviest = heaviest
	}
	if e.tr != nil {
		l.layers(acc, res)
	}
	return nil
}

// memProbes is how many fresh processes measure the AOT ladder's peak
// resident set.
const memProbes = 3

// peakRSS is the AOT ladder's peak resident set: the median over fresh
// processes that each set up the ladder (runner cache hits) and run the
// measured phase's record-heaviest job once. That job is where the run's
// peak is reached, with all its records in memory; in one long process,
// whether the garbage of the record slice's growth is still uncollected at
// that moment depends on when the collector last ran, which made the
// whole-run peak jump by a fifth from run to run.
func (l *ladder) peakRSS(e *env) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var peaks []float64
	for k := 0; k < memProbes; k++ {
		out, err := probeCmd(self, "--mem-probe", "--workload", "ladder-aot",
			"--seed", strconv.FormatUint(e.seed, 10), "--aot-cache", l.cacheDir,
			"--job", fmt.Sprintf("%d,%d", l.heaviest[0], l.heaviest[1]))
		if err != nil {
			return 0, fmt.Errorf("memory probe %d: %w", k, err)
		}
		peaks = append(peaks, out)
	}
	return median(peaks), nil
}

// memProbe is the child side of peakRSS.
func memProbe(e *env, job [2]int) error {
	l, err := setupLadder(e, true)
	if err != nil {
		return err
	}
	if job[0] < 0 || job[0] >= len(l.cells) || job[1] < 0 || job[1] >= len(l.progs[0]) {
		return fmt.Errorf("no job %v", job)
	}
	c, p := l.program(job)
	var cons consumer
	if _, _, err := aotJob(e, "", 0, c, p, &cons, true); err != nil {
		return err
	}
	fmt.Printf("%.6f\n", peakRSSMB())
	return nil
}

func (a *ladderAcc) addAOT(st aotStages) {
	a.consumeNs += st.consume.Nanoseconds()
	a.runnerNs += st.runnerNs
	a.recBytes += st.recBytes
	a.spawn = append(a.spawn, ms(st.spawn))
	a.initMs = append(a.initMs, ms(st.init))
	a.close = append(a.close, ms(st.close))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// layers derives the ladder's per-layer metrics from a traced phase.
func (l *ladder) layers(acc *ladderAcc, res *result) {
	prefix := "core."
	if l.aot {
		prefix = "aot."
	}
	var totalInstr uint64
	for _, iface := range ladderIfaces {
		var ns []float64
		for _, c := range l.cells {
			if c.iface == iface && acc.instr[c.key()] > 0 {
				ns = append(ns, float64(acc.deliverNs[c.key()])/float64(acc.instr[c.key()]))
				totalInstr += acc.instr[c.key()]
			}
		}
		if g, err := geomean(ns); err == nil {
			res.layers[prefix+iface+".ns_per_instr"] = g
		}
	}
	if totalInstr == 0 {
		return
	}
	ti := float64(totalInstr)
	if !l.aot {
		s := acc.stats
		probes := s.UnitL1Hits + s.UnitSharedHits + s.UnitTranslations + s.UnitL1GenEvictions + s.UnitL1Conflicts +
			s.BlockL1Hits + s.BlockSharedHits + s.BlockBuilds + s.BlockL1GenEvictions + s.BlockL1Conflicts
		res.layers["core.l1_hit_ratio"] = ratio(float64(s.UnitL1Hits+s.BlockL1Hits), float64(probes))
		dispatch := s.BlockChainFollows + s.BlockL1Hits + s.BlockSharedHits + s.BlockBuilds
		res.layers["core.chain_follow_ratio"] = ratio(float64(s.BlockChainFollows), float64(dispatch))
		res.layers["core.records_per_instr"] = float64(acc.records) / ti
		return
	}
	res.layers["aot.runner_ns_per_instr"] = float64(acc.runnerNs) / ti
	res.layers["aot.runner_norec_ns_per_instr"] = float64(acc.norecNs) / ti
	res.layers["aot.record_ns"] = ratio(float64(acc.recordCostNs), float64(acc.records))
	res.layers["aot.record_bytes_per_instr"] = float64(acc.recBytes) / ti
	res.layers["consumer.ns_per_field"] = ratio(float64(acc.consumeNs), float64(acc.fields))
	res.layers["aot.spawn_ms"] = median(acc.spawn)
	res.layers["aot.init_ms"] = median(acc.initMs)
	res.layers["aot.close_ms"] = median(acc.close)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
