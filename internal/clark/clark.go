// Package clark provides the empirical sampling distributions the Chapter
// 5 simulator draws from: the list complexity metrics (n, p) measured in
// §3.3.1 (Table 3.1 / Figs 3.3a-b), and the list-cell pointer distance
// distributions from Clark's static studies (§3.2.1), which the thesis
// used to assign heap addresses when splitting objects (§5.2.5).
//
// The original numbers are qualitative in the thesis text: pointer
// distances are "either one or small", cdr pointers are mostly linearized,
// n averages about 10 and p below 3 for most benchmarks. The samplers
// reproduce those shapes with geometric tails.
package clark

import (
	"math/rand"

	"repro/internal/heap"
	"repro/internal/sexpr"
)

// Model is a seeded sampler.
type Model struct {
	rng *rand.Rand
	// MeanN and MeanP tune the list complexity distributions; defaults
	// follow Table 3.1's typical benchmark (n≈10, p≈2).
	MeanN float64
	MeanP float64
	// syms numbers generated atoms so distinct objects stay distinct.
	syms int64
	// shape and items are genShape's result and its fold worklist, kept
	// between calls for their storage.
	shape heap.Shape
	items []span
}

// span is one top-level item of a list being folded: the atoms first
// through last.
type span struct{ first, last int }

// New returns a model seeded deterministically.
func New(seed int64) *Model {
	return &Model{rng: rand.New(rand.NewSource(seed)), MeanN: 10, MeanP: 2}
}

// Reseed restores the model to the state New(seed) would produce,
// reusing the RNG allocation (the simulator pool reseeds one model per
// run instead of allocating a fresh one).
func (m *Model) Reseed(seed int64) {
	m.rng.Seed(seed)
	m.MeanN, m.MeanP = 10, 2
	m.syms = 0
}

// geometric samples a geometric variate with the given mean, at least 1.
func (m *Model) geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1
	for m.rng.Float64() > p && n < 400 {
		n++
	}
	return n
}

// SampleNP draws a list complexity pair following the Fig 3.3 shapes:
// most lists are short and nearly flat, with long geometric tails.
func (m *Model) SampleNP() sexpr.Metrics {
	n := m.geometric(m.MeanN)
	pMax := n - 1
	p := m.geometric(m.MeanP+1) - 1
	if p > pMax {
		p = pMax
	}
	if p < 0 {
		p = 0
	}
	return sexpr.Metrics{N: n, P: p}
}

// ObjectCells returns the two-pointer cell footprint of a freshly sampled
// list object: n+p cells (Fig 3.2).
func (m *Model) ObjectCells() int {
	met := m.SampleNP()
	return met.N + met.P
}

// CdrDistance samples a cdr pointer distance. Clark: once linearized,
// lists stay linearized; cdr pointers overwhelmingly point at the next
// cell.
func (m *Model) CdrDistance() int64 {
	r := m.rng.Float64()
	switch {
	case r < 0.70:
		return 1
	case r < 0.90:
		return int64(1 + m.rng.Intn(8))
	default:
		return int64(1 + m.rng.Intn(64))
	}
}

// CarDistance samples a car pointer distance: small but more dispersed
// than cdr, occasionally far.
func (m *Model) CarDistance() int64 {
	r := m.rng.Float64()
	var d int64
	switch {
	case r < 0.35:
		d = 1
	case r < 0.80:
		d = int64(1 + m.rng.Intn(16))
	default:
		d = int64(1 + m.rng.Intn(256))
	}
	if m.rng.Intn(2) == 0 {
		return -d
	}
	return d
}

// genShape samples the shape of a list with exactly the given metrics:
// n fresh atoms and p nested sublists, shaped randomly. The shape is
// the model's own buffer, valid until its next sample.
func (m *Model) genShape(met sexpr.Metrics) *heap.Shape {
	n, p := met.N, met.P
	if n < 1 {
		n = 1
	}
	sh := &m.shape
	sh.Reset(n, m.syms+1)
	m.syms += int64(n)
	// Start with a flat list of n atoms, then fold random consecutive
	// runs into sublists p times.
	items := m.items[:0]
	for i := 0; i < n; i++ {
		items = append(items, span{i, i})
	}
	for i := 0; i < p && len(items) > 1; i++ {
		// Choose a run [a, a+l) to wrap. Never wrap the entire list, so
		// each fold adds exactly one internal parenthesis pair.
		a := m.rng.Intn(len(items) - 1)
		maxLen := len(items) - a
		if a == 0 {
			maxLen--
		}
		l := 1 + m.rng.Intn(maxLen)
		sub := span{items[a].first, items[a+l-1].last}
		sh.Wrap(sub.first, sub.last)
		// Replace the run with the sublist and shift the tail left.
		copy(items[a+1:], items[a+l:])
		items[a] = sub
		items = items[:len(items)-l+1]
	}
	m.items = items
	return sh
}

// SampleShape samples the shape of a fresh list drawn from the (n, p)
// model: Sample without the s-expression. The simulator reads its fresh
// objects in from shapes (heap.TwoPtr.BuildShape).
func (m *Model) SampleShape() *heap.Shape {
	return m.genShape(m.SampleNP())
}

// GenList builds a random s-expression with exactly the given metrics:
// the list genShape samples, each atom a symbol named "s" and then its
// fresh-atom number in base 26, as heap.Shape.Value names it.
func (m *Model) GenList(met sexpr.Metrics) sexpr.Value {
	return m.genShape(met).Value()
}

// Sample generates a fresh random list drawn from the (n, p) model.
func (m *Model) Sample() sexpr.Value {
	return m.GenList(m.SampleNP())
}

// Float64 exposes the model's RNG for auxiliary decisions.
func (m *Model) Float64() float64 { return m.rng.Float64() }

// Intn exposes the model's RNG.
func (m *Model) Intn(n int) int { return m.rng.Intn(n) }
