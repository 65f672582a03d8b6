package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"singlespec/internal/asm"
	"singlespec/internal/core"
	"singlespec/internal/isa"
	"singlespec/internal/orgs"
)

// orgBudget is the organizations' instruction budget: far above any mix
// program, so every run ends by halting.
const orgBudget = maxJobInstr

// organization is one of the paper's Figure 1 organizations, with the
// buildsets its run synthesizes (for the traced synthesis split).
type organization struct {
	name      string
	buildsets []string
	run       func(i *isa.ISA, p *asm.Program) (*orgs.Result, error)
}

var organizations = []organization{
	{"integrated", []string{"one_all"}, func(i *isa.ISA, p *asm.Program) (*orgs.Result, error) {
		return orgs.RunIntegrated(i, p, orgBudget)
	}},
	{"funcfirst", []string{"one_decode"}, func(i *isa.ISA, p *asm.Program) (*orgs.Result, error) {
		return orgs.RunFunctionalFirst(i, p, orgBudget)
	}},
	{"blockff", []string{"block_decode"}, func(i *isa.ISA, p *asm.Program) (*orgs.Result, error) {
		return orgs.RunBlockFunctionalFirst(i, p, orgBudget)
	}},
	{"timingdirected", []string{"step_all"}, func(i *isa.ISA, p *asm.Program) (*orgs.Result, error) {
		return orgs.RunTimingDirected(i, p, orgBudget)
	}},
	{"timingfirst", []string{"one_all", "one_min"}, func(i *isa.ISA, p *asm.Program) (*orgs.Result, error) {
		return orgs.RunTimingFirst(i, p, orgBudget, nil)
	}},
	{"specff", []string{"one_decode_spec"}, func(i *isa.ISA, p *asm.Program) (*orgs.Result, error) {
		return orgs.RunSpecFunctionalFirst(i, p, orgBudget, 64, nil)
	}},
	{"sampled", []string{"step_all", "block_min"}, func(i *isa.ISA, p *asm.Program) (*orgs.Result, error) {
		return orgs.RunSampled(i, p, orgBudget, 1000, 20000)
	}},
	{"tracedriven", []string{"one_decode"}, func(i *isa.ISA, p *asm.Program) (*orgs.Result, error) {
		return orgs.RunTraceDriven(i, p, orgBudget)
	}},
}

// orgsDefaultDigest is the SHA-256 of every organization's simulated
// statistics over the default seed's programs (see statsLine). Simulated
// time is deterministic, so a change that only speeds up the simulator
// must leave it unchanged.
const orgsDefaultDigest = "3827be46fb760cf9e294f496ccb9c2217be63abd78cf48a8198aea1963934379"

type orgsState struct {
	seed  uint64
	progs [][]*program // [isa][kernel]
	order [][2]int     // (cell = isa*len(organizations)+org, kernel)
	// stats is each job's simulated statistics from its first run.
	stats map[[2]int]string
}

func setupOrgs(e *env) (any, error) {
	rng := rand.New(rand.NewSource(int64(e.seed)))
	sizes := mixSizes(rng)
	s := &orgsState{seed: e.seed, stats: map[[2]int]string{}}
	root := e.tr.begin("setup", 0, "")
	defer e.tr.end(root)
	progs, err := loadPrograms(e, root, isa.Names(), sizes)
	if err != nil {
		return nil, err
	}
	s.progs = progs
	s.order = schedule(rng, len(isa.Names())*len(organizations), len(sizes))
	return s, nil
}

var orgsWorkload = &workload{
	name:      "orgs",
	setupReps: 31,
	passLen:   len(organizations) * 3 * 6,
	setup:     setupOrgs,
	measure:   func(e *env, st any, ph phase, res *result) error { return st.(*orgsState).measure(e, ph, res) },
}

// statsLine renders a run's simulated statistics; it must repeat exactly.
func statsLine(p *program, o organization, r *orgs.Result) string {
	return fmt.Sprintf("%s %s n=%d %s instrs=%d cycles=%d mismatches=%d rollbacks=%d ff=%d pipe=%+v ooo=%+v",
		p.isa.Name, p.kernel.name, p.kernel.n, o.name, r.Instrs, r.Cycles, r.Mismatches, r.Rollbacks, r.FFInstrs, r.Pipeline, r.OoO)
}

func (s *orgsState) measure(e *env, ph phase, res *result) error {
	no := len(organizations)
	runNs := map[string]int64{}
	instr := map[string]uint64{}
	cycles := map[string]uint64{}
	for n := 0; !ph.done(n); n++ {
		job := s.order[n%len(s.order)]
		o := organizations[job[0]%no]
		p := s.progs[job[0]/no][job[1]]
		id := jobID("j", n)
		root := e.tr.begin("job", 0, id)
		start := time.Now()
		var r *orgs.Result
		run, err := e.tr.timed("orgs."+o.name+".run", root, id, func() (err error) {
			r, err = o.run(p.isa, p.prog)
			return err
		})
		if err == nil {
			err = checkHalt(p, r.Halted, int64(r.ExitCode), func() uint32 {
				v, _ := r.Machine.Mem.Load(p.result, 4)
				return uint32(v)
			})
		}
		d := time.Since(start)
		e.tr.end(root)
		if err == nil {
			line := statsLine(p, o, r)
			if ref, ok := s.stats[job]; !ok {
				s.stats[job] = line
			} else if ref != line {
				err = fmt.Errorf("simulated statistics changed between passes:\n  %s\n  %s", ref, line)
			}
		}
		cell := p.isa.Name + "/" + o.name
		if err != nil {
			res.job(n, cell, 0, d, fmt.Errorf("%s/%s: %w", p.key(), o.name, err))
			continue
		}
		res.job(n, cell, r.Instrs, d, nil)
		runNs[cell] += run.Nanoseconds()
		instr[cell] += r.Instrs
		if n < len(s.order) {
			cycles[o.name] += r.Cycles
		}
	}
	s.crossCheck(res)
	if e.tr != nil {
		s.layers(e, runNs, instr, cycles, res)
	}
	return nil
}

// crossCheck compares organizations against each other and, for the
// default seed, against the committed statistics digest: the trace-driven
// organization replays the functional-first stream into the same pipeline
// model, so their cycle counts must agree.
func (s *orgsState) crossCheck(res *result) {
	cyc := func(line string) string {
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "cycles=") {
				return f
			}
		}
		return ""
	}
	byProg := map[string]map[string]string{}
	var lines []string
	for job, line := range s.stats {
		o := organizations[job[0]%len(organizations)]
		p := s.progs[job[0]/len(organizations)][job[1]]
		if byProg[p.key()] == nil {
			byProg[p.key()] = map[string]string{}
		}
		byProg[p.key()][o.name] = cyc(line)
		lines = append(lines, line)
	}
	for key, m := range byProg {
		ff, ok1 := m["funcfirst"]
		td, ok2 := m["tracedriven"]
		if ok1 && ok2 {
			var err error
			if ff != td {
				err = fmt.Errorf("%s: trace-driven %s, functional-first %s", key, td, ff)
			}
			res.check(err)
		}
	}
	if s.seed == defaultSeed && len(lines) == len(s.order) {
		sort.Strings(lines)
		sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
		got := hex.EncodeToString(sum[:])
		var err error
		if got != orgsDefaultDigest {
			err = fmt.Errorf("orgs statistics digest %s, committed %s", got, orgsDefaultDigest)
		}
		res.check(err)
	}
}

// layers derives the organizations' per-layer metrics. The synthesis
// share of a run is timed apart: each organization's buildsets are
// synthesized once more per ISA, outside the jobs.
func (s *orgsState) layers(e *env, runNs map[string]int64, instr map[string]uint64, cycles map[string]uint64, res *result) {
	for _, o := range organizations {
		var ns []float64
		var synth time.Duration
		for _, row := range s.progs {
			i := row[0].isa
			cell := i.Name + "/" + o.name
			if instr[cell] > 0 {
				ns = append(ns, float64(runNs[cell])/float64(instr[cell]))
			}
			d, _ := e.tr.timed("orgs."+o.name+".synth", 0, "", func() error {
				for _, bs := range o.buildsets {
					if _, err := core.Synthesize(i.Spec, bs, core.Options{}); err != nil {
						return err
					}
				}
				return nil
			})
			synth += d
		}
		if g, err := geomean(ns); err == nil {
			res.layers["orgs."+o.name+".ns_per_instr"] = g
		}
		res.layers["orgs."+o.name+".synth_ms"] = ms(synth) / float64(len(s.progs))
		res.layers["timing."+o.name+".cycles"] = float64(cycles[o.name])
	}
}
