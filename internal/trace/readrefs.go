package trace

import (
	"bytes"
	"io"
)

// ReadRefs decodes a trace file held in memory, in any supported
// format, to its reference stream. The stream, and any error text, is
// the one ReadAuto followed by Preprocess gives for the same bytes.
//
// SMTB traces and SMRS streams are decoded over data in place: no
// read-ahead buffer and no copy of the input. An SMTB trace builds no
// events: each string-table entry resolves to its identifier once, at
// its first use, instead of every argument text being hashed again per
// event. Text traces go through Read and Preprocess. The stream shares
// no memory with data.
func ReadRefs(data []byte) (*Stream, error) {
	switch Sniff(data) {
	case "binary":
		d := newBytesDecoder(data, 0)
		if err := d.readHeader(); err != nil {
			return nil, err
		}
		return d.readRefs()
	case "refs":
		sc := &StreamScanner{d: streamDecoder{*newBytesDecoder(data, 0)}}
		if err := sc.start(); err != nil {
			return nil, err
		}
		return sc.readAll()
	}
	t, err := Read(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return Preprocess(t), nil
}

// readRefs decodes the events of a binary trace straight into Refs,
// numbering list texts as Preprocess does.
func (d *Decoder) readRefs() (*Stream, error) {
	ops := make([]Opcode, len(d.ops))
	for i, s := range d.ops {
		ops[i] = InternOp(s)
	}
	st := &Stream{Name: d.name, Refs: make([]Ref, 0, min(d.total, preallocCap)), IDText: make([]string, 1, 64)}
	ids := refIDs{strs: d.strs, ids: make([]int32, len(d.strs)), byText: make(map[string]int32), st: st}
	var arena []int // chunked backing storage for Ref Args
	prevResult := 0
	for {
		e, err := d.step()
		if err == io.EOF {
			return st, nil
		}
		if err != nil {
			return nil, err
		}
		// Kind and RefKind number prim, enter and exit alike.
		r := Ref{Kind: RefKind(e.kind), Op: ops[e.op], Depth: e.depth, NArgs: e.nargs}
		if e.kind == KindPrim {
			if n := len(d.argix); n > 0 {
				if len(arena)+n > cap(arena) {
					arena = make([]int, 0, max(4*blockEvents, n))
				}
				start := len(arena)
				for _, ai := range d.argix {
					id := ids.of(ai)
					if id != 0 && id == prevResult {
						r.Chain = true
					}
					arena = append(arena, id)
				}
				r.Args = arena[start:len(arena):len(arena)]
			}
			r.Result = ids.of(d.resix)
			prevResult = r.Result
		}
		st.Refs = append(st.Refs, r)
	}
}

// refIDs gives each string-table entry of a binary trace its
// identifier at the entry's first use, in event order, as Preprocess
// interns texts: list texts are numbered 1, 2, ... in order of first
// use, two entries with equal text share one identifier, and any other
// text is 0. Only an entry's first use looks its text up.
type refIDs struct {
	strs   []string
	ids    []int32 // per entry: 0 before its first use, notList, or its identifier
	byText map[string]int32
	st     *Stream
}

// notList marks an entry whose text is not a list.
const notList = -1

// of returns the identifier of string-table entry ix.
func (r *refIDs) of(ix uint32) int {
	if id := r.ids[ix]; id != 0 {
		return int(max(id, 0))
	}
	return r.first(ix)
}

// first resolves entry ix on its first use.
func (r *refIDs) first(ix uint32) int {
	s := r.strs[ix]
	if !isListText(s) {
		r.ids[ix] = notList
		return 0
	}
	id, ok := r.byText[s]
	if !ok {
		r.st.MaxID++
		id = int32(r.st.MaxID)
		r.byText[s] = id
		r.st.IDText = append(r.st.IDText, s)
	}
	r.ids[ix] = id
	return int(id)
}
