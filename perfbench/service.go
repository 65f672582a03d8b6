package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"singlespec/internal/core"
	"singlespec/internal/isa"
	"singlespec/internal/serve"
)

// serviceClients is the number of closed-loop clients: each waits for its
// job to finish before submitting the next, over one keep-alive
// connection of its own.
const serviceClients = 2

// The job sequence is made of rounds of serviceRound jobs: one kernel job
// per ladder interface and two small fault campaigns. Every round has the
// same composition, and the whole sequence holds every (ISA, kernel) pair
// once per interface and every (class, campaign kernel) pair equally
// often, so per-run percentiles do not move with the seed's draw.
const (
	serviceRounds = 18 // = ISAs × mix kernels, so each interface sees every pair once
	serviceRound  = 8
	serviceTenant = "bench"
	// ckptEvery makes a kernel job save a checkpoint every this many
	// retired instructions: one to four fsynced ring saves per run of the
	// larger mix kernels. Every save waits on the disk, and a cadence that
	// saved eight times per job left the workload's latency at the mercy
	// of the host's fsync latency, which varied from 0.2 to 5 ms at p90.
	ckptEvery = 50000
)

// campaignClasses and campaignKernels span the campaign jobs: one class
// on one kernel (at its default size), over every ISA. The syscall class
// runs a program of its own rather than a mix kernel, so it is left out.
var (
	campaignClasses = []string{"load", "fetch", "squash", "codegen"}
	campaignKernels = []string{"fib_iter", "sieve", "crc32"}
)

// serviceJob is one job of the seeded sequence.
type serviceJob struct {
	req  serve.JobRequest
	kind string
	// wantInstr is the instruction count a kernel job must report: its
	// warm-up run plus its measured run of the program, as the
	// interpreter retires it.
	wantInstr uint64
}

type serviceState struct {
	srv    *serve.Server
	ln     net.Listener
	served chan error
	addr   string
	dir    string
	seq    []serviceJob
}

// setupService starts an in-process daemon over loopback on a fresh
// durable state dir and waits for its first healthy /healthz.
func setupService(e *env) (any, error) {
	rng := rand.New(rand.NewSource(int64(e.seed)))
	s := &serviceState{seq: serviceSequence(rng)}
	root := e.tr.begin("setup", 0, "")
	defer e.tr.end(root)
	var err error
	if s.dir, err = os.MkdirTemp(e.dir, "ssd-state-"); err != nil {
		return nil, err
	}
	if _, err := e.tr.timed("serve.new", root, "", func() (err error) {
		s.srv, err = serve.New(serve.Config{
			StateDir: s.dir,
			Workers:  1,
			Tenants: map[string]serve.TenantPolicy{
				serviceTenant: {MaxActive: 1, MaxQueued: serviceClients},
			},
		})
		return err
	}); err != nil {
		return nil, err
	}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		s.srv.Close()
		return nil, err
	}
	s.addr = s.ln.Addr().String()
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(s.ln) }()
	c := s.client()
	defer c.HTTP.CloseIdleConnections()
	if _, err := e.tr.timed("serve.healthz", root, "", func() error {
		deadline := time.Now().Add(10 * time.Second)
		for {
			h, err := c.Healthz()
			if err == nil && h.OK {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("daemon not healthy after 10s: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the daemon and its listener and waits for Serve to return.
func (s *serviceState) close() {
	s.srv.Close()
	s.ln.Close()
	<-s.served
	os.RemoveAll(s.dir)
}

// client returns a daemon client with a single keep-alive connection.
func (s *serviceState) client() *serve.Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	return &serve.Client{Addr: s.addr, HTTP: &http.Client{Transport: tr, Timeout: 5 * time.Minute}}
}

// serviceSequence draws the seeded job sequence: for each interface a
// seeded order of the (ISA, kernel) pairs at the seed's sizes, checkpoints
// on; a seeded order of the campaign (class, kernel) pairs with seeded
// fault seeds; each round shuffled.
func serviceSequence(rng *rand.Rand) []serviceJob {
	sizes := mixSizes(rng)
	names := isa.Names()
	perIface := make([][]int, len(ladderIfaces))
	for i := range perIface {
		perIface[i] = rng.Perm(len(names) * len(sizes))
	}
	ncamp := len(campaignClasses) * len(campaignKernels)
	var camps []int
	for len(camps) < serviceRounds*(serviceRound-len(ladderIfaces)) {
		camps = append(camps, rng.Perm(ncamp)...)
	}
	var out []serviceJob
	for r := 0; r < serviceRounds; r++ {
		var round []serviceJob
		for i, iface := range ladderIfaces {
			pair := perIface[i][r]
			ks := sizes[pair%len(sizes)]
			round = append(round, serviceJob{kind: "kernel", req: serve.JobRequest{
				Kind: "kernel", ISA: names[pair/len(sizes)], Buildset: iface,
				Kernel: ks.name, N: ks.n, CkptEvery: ckptEvery,
			}})
		}
		for len(round) < serviceRound {
			c := camps[0]
			camps = camps[1:]
			round = append(round, serviceJob{kind: "campaign", req: serve.JobRequest{
				Kind: "campaign", FaultSeed: uint64(rng.Int63()), FaultEvents: 2,
				FaultClasses: campaignClasses[c%len(campaignClasses)],
				FaultKernels: campaignKernels[c/len(campaignClasses)],
			}})
		}
		rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		out = append(out, round...)
	}
	return out
}

var serviceWorkload = &workload{
	name:      "service",
	setupReps: 31,
	passLen:   serviceRound * serviceRounds,
	setup:     setupService,
	prepare:   func(e *env, st any, res *result) error { return st.(*serviceState).reference() },
	measure:   func(e *env, st any, ph phase, res *result) error { return st.(*serviceState).measure(e, ph, res) },
}

// reference computes each kernel job's expected instruction count with
// the interpreter, outside the daemon.
func (s *serviceState) reference() error {
	refs := map[string]uint64{}
	for k := range s.seq {
		j := &s.seq[k]
		if j.kind != "kernel" {
			continue
		}
		key := fmt.Sprintf("%s/%s/%d", j.req.ISA, j.req.Kernel, j.req.N)
		if _, ok := refs[key]; !ok {
			i, err := isa.Load(j.req.ISA)
			if err != nil {
				return err
			}
			p, err := assemble(i, newKernelSize(j.req.Kernel, j.req.N))
			if err != nil {
				return err
			}
			sim, err := core.Synthesize(i.Spec, "block_min", core.Options{})
			if err != nil {
				return err
			}
			var cons consumer
			instr, _, _, err := interpJob(&env{}, "", 0, &ladderCell{isa: i, iface: "block_min", sim: sim}, p, &cons)
			if err != nil {
				return fmt.Errorf("service reference: %w", err)
			}
			refs[key] = instr
		}
		j.wantInstr = 2 * refs[key]
	}
	return nil
}

// jobTimes are one job's client-side stage durations.
type jobTimes struct {
	submit, queue, run, result time.Duration
	instr                      uint64
	// progress counts the job's progress events: one per checkpoint its
	// kernel cell saved.
	progress int
}

// runJob submits one job and follows its event stream to the terminal
// state; the latency ends when the client sees that state. The result is
// fetched and checked afterwards, outside the latency.
func (s *serviceState) runJob(e *env, c *serve.Client, id string, j serviceJob) (time.Duration, jobTimes, error) {
	var jt jobTimes
	root := e.tr.begin("job", 0, id)
	start := time.Now()
	var st serve.JobStatus
	var err error
	if jt.submit, err = e.tr.timed("serve.submit", root, id, func() (err error) {
		st, err = c.Submit(serviceTenant, j.req)
		return err
	}); err != nil {
		e.tr.end(root)
		return 0, jt, fmt.Errorf("submit %s: %w", j.kind, err)
	}
	submitted := time.Now()
	running, final, progress, err := s.follow(c, st.ID)
	jt.progress = progress
	end := time.Now()
	if running.IsZero() {
		running = submitted
	}
	jt.queue, jt.run = running.Sub(submitted), end.Sub(running)
	e.tr.record("serve.queue", root, id, submitted, running)
	e.tr.record("serve.run", root, id, running, end)
	e.tr.end(root)
	latency := end.Sub(start)
	if err != nil {
		return 0, jt, fmt.Errorf("%s %s: %w", j.kind, st.ID, err)
	}
	if final != "done" {
		return 0, jt, fmt.Errorf("%s %s ended %s", j.kind, st.ID, final)
	}
	jt.result, err = e.tr.timed("serve.result", 0, id, func() error {
		return s.checkResult(c, st.ID, j, &jt)
	})
	return latency, jt, err
}

// follow reads a job's NDJSON event stream to its end (the daemon closes
// it once the job is at rest, and reading to EOF keeps the connection
// alive for the next call). It returns when the job was first seen
// running, its last state and its number of progress events.
func (s *serviceState) follow(c *serve.Client, id string) (running time.Time, state string, progress int, err error) {
	resp, err := c.HTTP.Get("http://" + s.addr + "/jobs/" + id + "/stream?from=0")
	if err != nil {
		return running, state, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return running, state, 0, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return running, state, progress, fmt.Errorf("stream: %w", err)
		}
		if ev.Type == "progress" {
			progress++
		}
		if ev.Type == "state" {
			state = ev.State
			if ev.State == "running" && running.IsZero() {
				running = time.Now()
			}
		}
	}
	return running, state, progress, sc.Err()
}

// checkResult fetches the finished job's status and result and checks
// them: no cell error, and a kernel job retired exactly the interpreter's
// count.
func (s *serviceState) checkResult(c *serve.Client, id string, j serviceJob, jt *jobTimes) error {
	st, err := c.Status(id)
	if err != nil {
		return err
	}
	res, err := c.Result(id)
	if err != nil {
		return err
	}
	for _, cell := range res.Bench.Cells {
		if cell.Error != "" {
			return fmt.Errorf("%s %s: cell %s/%s: %s", j.kind, id, cell.ISA, cell.Buildset, cell.Error)
		}
	}
	if st.State != "done" || st.CellsDone != st.CellsTotal {
		return fmt.Errorf("%s %s: state %s with %d of %d cells", j.kind, id, st.State, st.CellsDone, st.CellsTotal)
	}
	if j.kind == "kernel" && st.Instret != j.wantInstr {
		return fmt.Errorf("kernel %s (%s/%s/%s n=%d): retired %d instructions, interpreter says %d",
			id, j.req.ISA, j.req.Buildset, j.req.Kernel, j.req.N, st.Instret, j.wantInstr)
	}
	jt.instr = st.Instret
	return nil
}

func (s *serviceState) measure(e *env, ph phase, res *result) error {
	var mu sync.Mutex
	issued := 0
	stopped := false
	var stages []jobTimes
	kindMs := map[string][]float64{}
	mc := s.client()
	defer mc.HTTP.CloseIdleConnections()
	counters := func() map[string]uint64 {
		if e.tr == nil {
			return nil
		}
		snap, err := mc.Metrics()
		if err != nil {
			return nil
		}
		return snap.Counters
	}
	before := counters()
	var bytesBefore int64
	if e.tr != nil {
		bytesBefore = dirBytes(s.dir)
	}
	var wg sync.WaitGroup
	for k := 0; k < serviceClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.client()
			defer c.HTTP.CloseIdleConnections()
			for {
				mu.Lock()
				if stopped || ph.done(issued) {
					stopped = true
					mu.Unlock()
					return
				}
				n := issued
				issued++
				mu.Unlock()
				j := s.seq[n%len(s.seq)]
				d, jt, err := s.runJob(e, c, jobID("j", n), j)
				mu.Lock()
				res.job(n, "", jt.instr, d, err)
				if err == nil {
					stages = append(stages, jt)
					kindMs[j.kind] = append(kindMs[j.kind], ms(d))
				}
				mu.Unlock()
			}
		}()
	}
	// The daemon's jobs are not timed cell by cell from outside: its rate
	// is the instructions they retired per second of the pass.
	wg.Wait()
	if e.tr != nil && len(stages) > 0 {
		s.layers(stages, kindMs, before, counters(), dirBytes(s.dir)-bytesBefore, res)
	}
	return nil
}

func (s *serviceState) layers(stages []jobTimes, kindMs map[string][]float64, before, after map[string]uint64, stateBytes int64, res *result) {
	var sub, q, run, resl []float64
	progress := 0
	for _, jt := range stages {
		progress += jt.progress
		sub = append(sub, ms(jt.submit))
		q = append(q, ms(jt.queue))
		run = append(run, ms(jt.run))
		resl = append(resl, ms(jt.result))
	}
	res.layers["serve.submit_ms"] = median(sub)
	res.layers["serve.queue_ms"] = median(q)
	res.layers["serve.run_ms"] = median(run)
	res.layers["serve.result_ms"] = median(resl)
	res.layers["serve.kernel.job_ms"] = median(kindMs["kernel"])
	res.layers["serve.campaign.job_ms"] = median(kindMs["campaign"])
	res.layers["serve.state_bytes_per_job"] = float64(stateBytes) / float64(len(stages))
	res.layers["serve.progress_per_job"] = float64(progress) / float64(len(stages))
	for _, name := range []string{"serve.queue.enqueued", "serve.queue.dispatched"} {
		res.layers[name] = float64(after[name] - before[name])
	}
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
