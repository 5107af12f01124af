package trace

import "strings"

// RefKind discriminates preprocessed events.
type RefKind uint8

const (
	// RefPrim is a preprocessed list primitive call.
	RefPrim RefKind = iota
	// RefEnter is a user function entry.
	RefEnter
	// RefExit is a user function exit.
	RefExit
)

// Ref is one event of the preprocessed reference stream of §5.2.1. Each
// list argument of the original trace is replaced by a unique integer
// identifier (textually identical lists share an identifier, as in the
// thesis) and a chaining flag that is set when the argument is the value
// returned by the immediately preceding primitive call in the trace.
type Ref struct {
	Kind   RefKind
	Op     Opcode // interned primitive or function name (see OpName)
	Args   []int  // identifiers of list arguments; 0 for atom arguments
	Result int    // identifier of the result if it is a list, else 0
	NArgs  int    // for RefEnter
	Chain  bool   // first list argument chains from the previous result
	Depth  int
}

// Stream is a preprocessed trace plus its identifier universe.
type Stream struct {
	Name  string
	Refs  []Ref
	MaxID int // identifiers are 1..MaxID
	// IDText is the dense identifier -> s-expression text table:
	// IDText[id] for id in 1..MaxID; IDText[0] is "".
	IDText []string
}

// Text returns the s-expression text of an identifier, or "" when the
// identifier is out of range (0, or a stream loaded without texts).
func (st *Stream) Text(id int) string {
	if id > 0 && id < len(st.IDText) {
		return st.IDText[id]
	}
	return ""
}

// Preprocess converts a raw trace into the (identifier, chaining flag)
// stream used by the Chapter 3 locality analyses and the Chapter 5
// simulator. Identifier 0 is reserved for "not a list".
func Preprocess(t *Trace) *Stream {
	ids := make(map[string]int)
	st := &Stream{Name: t.Name, Refs: make([]Ref, 0, len(t.Events)), IDText: make([]string, 1, 64)}
	// Every prim's Args are carved from one shared array, sized by a
	// first pass; the full slice expressions keep an append to one Ref's
	// Args from running into its neighbour's.
	nargs := 0
	for i := range t.Events {
		if t.Events[i].Kind == KindPrim {
			nargs += len(t.Events[i].Args)
		}
	}
	args := make([]int, 0, nargs)
	intern := func(s string) int {
		if !isListText(s) {
			return 0
		}
		if id, ok := ids[s]; ok {
			return id
		}
		st.MaxID++
		ids[s] = st.MaxID
		st.IDText = append(st.IDText, s)
		return st.MaxID
	}
	prevResult := 0
	for i := range t.Events {
		ev := &t.Events[i]
		op := InternOp(ev.Op)
		switch ev.Kind {
		case KindEnter:
			st.Refs = append(st.Refs, Ref{Kind: RefEnter, Op: op, NArgs: ev.NArgs, Depth: ev.Depth})
		case KindExit:
			st.Refs = append(st.Refs, Ref{Kind: RefExit, Op: op, Depth: ev.Depth})
		case KindPrim:
			r := Ref{Kind: RefPrim, Op: op, Depth: ev.Depth}
			if len(ev.Args) > 0 {
				start := len(args)
				for _, a := range ev.Args {
					args = append(args, intern(a))
				}
				r.Args = args[start:len(args):len(args)]
			}
			r.Result = intern(ev.Result)
			for _, id := range r.Args {
				if id != 0 && id == prevResult && prevResult != 0 {
					r.Chain = true
					break
				}
			}
			st.Refs = append(st.Refs, r)
			prevResult = r.Result
		}
	}
	return st
}

// isListText reports whether an s-expression's printed form denotes a
// non-nil list.
func isListText(s string) bool {
	return strings.HasPrefix(s, "(")
}

// SummarizeStream computes Stats directly from a preprocessed stream,
// so serialized .refs files can be reported on without the original
// trace text. For st = Preprocess(t) it agrees with Summarize(t).
func SummarizeStream(st *Stream) Stats {
	s := Stats{PerOp: make(map[string]int)}
	for i := range st.Refs {
		r := &st.Refs[i]
		switch r.Kind {
		case RefPrim:
			s.Primitives++
			s.PerOp[OpName(r.Op)]++
		case RefEnter:
			s.Functions++
			if r.Depth > s.MaxDepth {
				s.MaxDepth = r.Depth
			}
		}
	}
	return s
}

// MeasureNPStream computes the Table 3.1 n/p metrics from a
// preprocessed stream's identifier table: every distinct list-valued
// primitive argument appears there exactly once. For st = Preprocess(t)
// it agrees with MeasureNP(t).
func MeasureNPStream(st *Stream) NPStats {
	np := NPStats{NDist: make(map[int]int), PDist: make(map[int]int)}
	// Decoded streams guarantee MaxID <= maxTableCount (stream.go), but
	// hand-built ones carry no such promise; clamp at the allocation.
	maxID := min(st.MaxID, maxTableCount)
	seen := make([]bool, maxID+1)
	var order []int
	for i := range st.Refs {
		r := &st.Refs[i]
		if r.Kind != RefPrim {
			continue
		}
		for _, id := range r.Args {
			if id > 0 && id <= maxID && !seen[id] {
				seen[id] = true
				order = append(order, id)
			}
		}
	}
	var sumN, sumP int
	for _, id := range order {
		m, ok := measureText(st.Text(id))
		if !ok {
			continue
		}
		np.Lists++
		sumN += m.N
		sumP += m.P
		np.NDist[m.N]++
		np.PDist[m.P]++
	}
	if np.Lists > 0 {
		np.AvgN = float64(sumN) / float64(np.Lists)
		np.AvgP = float64(sumP) / float64(np.Lists)
	}
	return np
}

// ChainStats computes Table 3.2: the percentage of car and cdr calls whose
// argument was produced by the immediately preceding primitive call.
type ChainStats struct {
	CarPct float64
	CdrPct float64
	AllPct float64 // over every primitive call
}

// Chaining measures primitive function chaining over a preprocessed stream.
func Chaining(st *Stream) ChainStats {
	var car, carC, cdr, cdrC, all, allC int
	for i := range st.Refs {
		r := &st.Refs[i]
		if r.Kind != RefPrim {
			continue
		}
		all++
		if r.Chain {
			allC++
		}
		switch r.Op {
		case OpCar:
			car++
			if r.Chain {
				carC++
			}
		case OpCdr:
			cdr++
			if r.Chain {
				cdrC++
			}
		}
	}
	pct := func(c, n int) float64 {
		if n == 0 {
			return 0
		}
		return 100 * float64(c) / float64(n)
	}
	return ChainStats{CarPct: pct(carC, car), CdrPct: pct(cdrC, cdr), AllPct: pct(allC, all)}
}
