package main

import (
	"fmt"
	"math/rand"

	"singlespec/internal/asm"
	"singlespec/internal/expt"
	"singlespec/internal/isa"
	"singlespec/internal/kernels"
)

// Seeds. defaultSeed is the flag's default and the seed the orgs
// statistics digest is committed for; confirmSeed is the held-out seed a later change uses to confirm a
// claim it tuned on the default.
const (
	defaultSeed = 1
	confirmSeed = 20261017
)

// sizeJitter is the largest relative change the seed makes to a kernel's
// problem size around expt.Mix(1). It is small on purpose: the seed varies
// the inputs, but a job's cost must stay comparable across seeds so that
// per-run percentiles do not move with the seed.
const sizeJitter = 0.02

// kernelSize is one mix kernel at the seed's problem size.
type kernelSize struct {
	name string
	n    int
	ref  uint32
}

// mixSizes draws the seed's problem size for each kernel of expt.Mix(1).
// listchase stays a power of two, so it keeps its Mix(1) size.
func mixSizes(rng *rand.Rand) []kernelSize {
	var out []kernelSize
	for _, me := range expt.Mix(1) {
		n := me.N
		if me.Kernel != "listchase" {
			f := 1 + sizeJitter*(2*rng.Float64()-1)
			n = int(float64(n)*f + 0.5)
		}
		out = append(out, newKernelSize(me.Kernel, n))
	}
	return out
}

func newKernelSize(name string, n int) kernelSize {
	return kernelSize{name: name, n: n, ref: kernels.ByName(name).Ref(n)}
}

// program is one assembled kernel for one ISA.
type program struct {
	isa    *isa.ISA
	kernel kernelSize
	prog   *asm.Program
	result uint64 // address of the checksum word
}

func (p *program) key() string { return p.isa.Name + "/" + p.kernel.name }

// assemble builds one kernel for one ISA.
func assemble(i *isa.ISA, ks kernelSize) (*program, error) {
	k := kernels.ByName(ks.name)
	prog, err := kernels.BuildProgram(i, k.Build(ks.n))
	if err != nil {
		return nil, fmt.Errorf("assemble %s/%s: %w", i.Name, ks.name, err)
	}
	addr, ok := prog.Symbols["result"]
	if !ok {
		return nil, fmt.Errorf("assemble %s/%s: no result symbol", i.Name, ks.name)
	}
	return &program{isa: i, kernel: ks, prog: prog, result: addr}, nil
}

// loadPrograms loads each ISA and assembles every kernel for it at the
// seed's sizes, timing both layers under parent. Rows are ISAs, columns
// kernels.
func loadPrograms(e *env, parent int, isas []string, sizes []kernelSize) ([][]*program, error) {
	var progs [][]*program
	for _, name := range isas {
		var i *isa.ISA
		if _, err := e.tr.timed("isa.load", parent, "", func() (err error) {
			i, err = isa.Load(name)
			return err
		}); err != nil {
			return nil, err
		}
		var row []*program
		for _, ks := range sizes {
			var p *program
			if _, err := e.tr.timed("kernels.assemble", parent, "", func() (err error) {
				p, err = assemble(i, ks)
				return err
			}); err != nil {
				return nil, err
			}
			row = append(row, p)
		}
		progs = append(progs, row)
	}
	return progs, nil
}

// schedule orders a pass over cells × kernels in rounds: each round runs
// every cell once, on a kernel that rotates from round to round, so any
// whole number of rounds holds every cell equally often. The seed shuffles
// the cells within each round and picks each cell's kernel rotation.
// Entries are (cell index, kernel index).
func schedule(rng *rand.Rand, cells, kernels int) [][2]int {
	offset := rng.Perm(cells)
	var out [][2]int
	for r := 0; r < kernels; r++ {
		for _, c := range rng.Perm(cells) {
			out = append(out, [2]int{c, (r + offset[c]) % kernels})
		}
	}
	return out
}
