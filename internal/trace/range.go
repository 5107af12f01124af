// Block-range slicing over preprocessed streams.
//
// The SMTB/SMRS codecs lay events out in fixed-size blocks precisely so
// that contiguous block ranges can be carved out and replayed
// independently (the ingest layer's shard planner cuts only at block
// boundaries). In process a range is a SubStream view; on the wire it
// is an AppendSlicePayload byte-range slice of the indexed encoding.
package trace

import "fmt"

// BlockEvents is the event-block granularity of the SMTB trace and SMRS
// stream codecs: encoders start a fresh column block every BlockEvents
// events, so ref offsets that are multiples of BlockEvents are natural
// shard cut points.
const BlockEvents = blockEvents

// SubStream returns a zero-copy view over refs [lo, hi) of st: the
// refs slice is shared (ids stay absolute) and the id-text table is the
// parent's. The simulator reads only kind, op, nargs, chain, and depth,
// never identifier values, so replaying the view is replaying the
// range.
func SubStream(st *Stream, lo, hi int) (*Stream, error) {
	if lo < 0 || hi < lo || hi > len(st.Refs) {
		return nil, fmt.Errorf("trace: slice bounds [%d,%d) out of range 0..%d", lo, hi, len(st.Refs))
	}
	return &Stream{Name: st.Name, MaxID: st.MaxID, IDText: st.IDText, Refs: st.Refs[lo:hi:hi]}, nil
}
