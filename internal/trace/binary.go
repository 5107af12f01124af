// Binary trace codec ("SMTB", version 1).
//
// The text format of Write/Read spends most of its bytes repeating op
// names and s-expression argument texts, and most of its decode time in
// strings.Split/strconv.Atoi and per-line allocation. The binary format
// writes each distinct op name and argument text once, into two
// front-loaded tables, and encodes the event sequence as varint columns
// in fixed-size blocks:
//
//	magic   4 bytes "SMTB"
//	version 1 byte
//	name    uvarint length + bytes
//	ops     uvarint count, then count x (uvarint length + bytes)
//	strs    uvarint count, then count x (uvarint length + bytes);
//	        entry 0 is always ""
//	events  uvarint count
//	blocks, each covering min(1024, remaining) events:
//	  kinds  one byte per event: bits 0-1 the kind (0=P 1=E 2=X),
//	         bits 2-7 the argument count n (prim arg indices / enter
//	         nargs); n = 63 means the true count follows in aux
//	  depths one uvarint per event
//	  ops    one uvarint per event (index into the op table)
//	  aux    per event, in order:
//	    P: uvarint result index, [uvarint nargs if n = 63],
//	       nargs x uvarint arg index
//	    E: [uvarint nargs if n = 63]
//	    X: nothing
//
// Front-loaded tables plus per-block columns mean a Decoder can yield
// events one at a time without materializing the whole trace, sharing
// one string per distinct op/argument. Versioning rule: the magic pins
// the family; any layout change bumps the version byte, and decoders
// reject versions they do not know.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

var (
	magicTrace  = [4]byte{'S', 'M', 'T', 'B'}
	magicStream = [4]byte{'S', 'M', 'R', 'S'}
)

const (
	traceVersion  = 1
	streamVersion = 1
	blockEvents   = 1024

	// Kind-byte packing. Both formats keep the kind in the low bits and
	// fold the event's argument count into the rest of the byte, with a
	// sentinel meaning "count too big, explicit varint in aux". The
	// stream format reserves bit 2 for the chaining flag, so its count
	// field is narrower.
	kindMask            = 0x03
	kindNArgsShift      = 2
	kindNArgsOverflow   = 0x3F // 6-bit field: 0..62 inline, 63 = explicit
	streamNArgsShift    = 3
	streamNArgsOverflow = 0x1F // 5-bit field: 0..30 inline, 31 = explicit

	// Decode limits. They reject absurd claims early (a hostile header
	// promising 2^60 strings) while admitting anything the tracer or
	// text decoder can produce.
	maxNameLen    = 1 << 16
	maxOpLen      = 1 << 12
	maxStrLen     = 1 << 24
	maxTableCount = 1 << 28
	maxEventCount = 1 << 31
	maxEventArgs  = 1 << 20
	maxDepth      = 1 << 30
	// preallocCap bounds capacity hints taken from header counts, so
	// memory grows with actual file bytes, not with hostile claims.
	preallocCap = 1 << 16
)

// encErrorf reports an unencodable in-memory trace (negative depth,
// empty op, ...): WriteBinary is strict so that everything it emits is
// accepted back by ReadBinary.
func encErrorf(format string, args ...any) error {
	return fmt.Errorf("trace: binary encode: "+format, args...)
}

// appendUvarint is binary.AppendUvarint for a reused scratch buffer.
func writeUvarint(bw *bufio.Writer, scratch []byte, v uint64) error {
	n := binary.PutUvarint(scratch, v)
	_, err := bw.Write(scratch[:n])
	return err
}

func writeTableString(bw *bufio.Writer, scratch []byte, s string) error {
	if err := writeUvarint(bw, scratch, uint64(len(s))); err != nil {
		return err
	}
	_, err := bw.WriteString(s)
	return err
}

// countingWriter tracks bytes written through it so the encoders can
// record section and block offsets for the SMTX index footer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// WriteBinary encodes t in the binary trace format with an SMTX index
// footer. The encoder is strict: events a text Write could not
// represent (negative depth or nargs, empty or tab-bearing op names)
// are rejected rather than written, so binary files never smuggle
// records past the text format's invariants.
func WriteBinary(w io.Writer, t *Trace) error {
	return writeBinary(w, t, true)
}

// WriteBinaryNoIndex encodes t without the SMTX footer — the pre-index
// v1 layout, byte-for-byte. Kept for compatibility tooling (tracegen
// -noindex) and for tests of the decode-everything fallback.
func WriteBinaryNoIndex(w io.Writer, t *Trace) error {
	return writeBinary(w, t, false)
}

func writeBinary(w io.Writer, t *Trace, withIndex bool) error {
	if strings.ContainsAny(t.Name, "\n\r") {
		return encErrorf("trace name contains a newline")
	}
	// First pass: build the op and string tables in first-appearance
	// order (deterministic, so re-encoding a decoded trace is
	// byte-identical).
	opIdx := make(map[string]uint64)
	var opNames []string
	strIdx := map[string]uint64{"": 0}
	strs := []string{""}
	internStr := func(s string) (uint64, error) {
		if i, ok := strIdx[s]; ok {
			return i, nil
		}
		if strings.ContainsAny(s, "\t\n\r") {
			return 0, encErrorf("argument text %q contains a tab or newline", s)
		}
		i := uint64(len(strs))
		strIdx[s] = i
		strs = append(strs, s)
		return i, nil
	}
	for i := range t.Events {
		ev := &t.Events[i]
		if ev.Kind > KindExit {
			return encErrorf("event %d: unknown kind %d", i, ev.Kind)
		}
		if ev.Op == "" {
			return encErrorf("event %d: empty op", i)
		}
		if strings.ContainsAny(ev.Op, "\t\n\r") {
			return encErrorf("event %d: op %q contains a tab or newline", i, ev.Op)
		}
		if ev.Depth < 0 {
			return encErrorf("event %d: negative depth %d", i, ev.Depth)
		}
		if _, ok := opIdx[ev.Op]; !ok {
			opIdx[ev.Op] = uint64(len(opNames))
			opNames = append(opNames, ev.Op)
		}
		switch ev.Kind {
		case KindPrim:
			if _, err := internStr(ev.Result); err != nil {
				return err
			}
			for _, a := range ev.Args {
				if _, err := internStr(a); err != nil {
					return err
				}
			}
		case KindEnter:
			if ev.NArgs < 0 {
				return encErrorf("event %d: negative nargs %d", i, ev.NArgs)
			}
		}
	}

	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	off := func() int64 { return cw.n + int64(bw.Buffered()) }
	scratch := make([]byte, binary.MaxVarintLen64)
	if _, err := bw.Write(magicTrace[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(traceVersion); err != nil {
		return err
	}
	if err := writeTableString(bw, scratch, t.Name); err != nil {
		return err
	}
	if err := writeUvarint(bw, scratch, uint64(len(opNames))); err != nil {
		return err
	}
	for _, s := range opNames {
		if err := writeTableString(bw, scratch, s); err != nil {
			return err
		}
	}
	if err := writeUvarint(bw, scratch, uint64(len(strs))); err != nil {
		return err
	}
	for _, s := range strs {
		if err := writeTableString(bw, scratch, s); err != nil {
			return err
		}
	}
	copyEnd := off()
	if err := writeUvarint(bw, scratch, uint64(len(t.Events))); err != nil {
		return err
	}

	// An absurdly large trace cannot be represented in a footer its own
	// decoders would accept; emit it un-indexed rather than fail.
	withIndex = withIndex && len(t.Events) <= maxEventCount && len(strs)-1 <= maxTableCount
	ix := &Index{
		Total:   len(t.Events),
		MaxID:   len(strs) - 1,
		CopyEnd: copyEnd,
		IDStart: copyEnd,
	}
	if withIndex {
		nb := blockCountOf(len(t.Events))
		ix.Offs = append(make([]int64, 0, min(nb, maxIndexBlocks)+1), off())
		ix.Counts = make([]int, 0, min(nb, maxIndexBlocks))
		ix.Marks = make([]int, 0, min(nb, maxIndexBlocks))
		ix.IDEnds = make([]int64, 0, min(nb, maxIndexBlocks))
	}
	runMax := 0

	for start := 0; start < len(t.Events); start += blockEvents {
		end := min(start+blockEvents, len(t.Events))
		block := t.Events[start:end]
		for i := range block {
			ev := &block[i]
			b := byte(ev.Kind)
			if n := eventNArgs(ev); n < kindNArgsOverflow {
				b |= byte(n) << kindNArgsShift
			} else {
				b |= kindNArgsOverflow << kindNArgsShift
			}
			if err := bw.WriteByte(b); err != nil {
				return err
			}
		}
		for i := range block {
			if err := writeUvarint(bw, scratch, uint64(block[i].Depth)); err != nil {
				return err
			}
		}
		for i := range block {
			if err := writeUvarint(bw, scratch, opIdx[block[i].Op]); err != nil {
				return err
			}
		}
		for i := range block {
			ev := &block[i]
			switch ev.Kind {
			case KindPrim:
				ri := strIdx[ev.Result]
				runMax = max(runMax, int(ri))
				if err := writeUvarint(bw, scratch, ri); err != nil {
					return err
				}
				if n := len(ev.Args); n >= kindNArgsOverflow {
					if err := writeUvarint(bw, scratch, uint64(n)); err != nil {
						return err
					}
				}
				for _, a := range ev.Args {
					ai := strIdx[a]
					runMax = max(runMax, int(ai))
					if err := writeUvarint(bw, scratch, ai); err != nil {
						return err
					}
				}
			case KindEnter:
				if ev.NArgs >= kindNArgsOverflow {
					if err := writeUvarint(bw, scratch, uint64(ev.NArgs)); err != nil {
						return err
					}
				}
			}
		}
		if withIndex {
			ix.Offs = append(ix.Offs, off())
			ix.Counts = append(ix.Counts, end-start)
			ix.Marks = append(ix.Marks, runMax)
			// SMTB has no id-text section; the table watermark is
			// pinned to the end of the header prefix.
			ix.IDEnds = append(ix.IDEnds, copyEnd)
		}
	}
	if withIndex {
		if _, err := bw.Write(appendIndexFooterBytes(nil, ix)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// eventNArgs is the argument count packed into an event's kind byte:
// prims carry their argument-index count, enters the declared NArgs.
func eventNArgs(ev *Event) int {
	switch ev.Kind {
	case KindPrim:
		return len(ev.Args)
	case KindEnter:
		return ev.NArgs
	}
	return 0
}

// Decoder streams events out of a binary trace without materializing
// the whole Trace. Construct with NewDecoder, then call Next until it
// returns io.EOF. Decoded events share the decoder's interned op and
// argument strings, and Next reuses the caller's Args backing array, so
// steady-state decoding allocates nothing per event.
type Decoder struct {
	r    io.Reader
	buf  []byte
	pos  int   // next unread byte in buf
	lim  int   // valid bytes in buf
	rerr error // deferred read error; io.EOF at a clean end of input
	off  int64 // bytes consumed; decode errors carry this offset

	name    string
	ops     []string
	strs    []string
	total   int
	copyEnd int64 // offset past the last front-loaded table

	remaining int // events not yet handed out, including current block
	blockN    int // events in the current block
	blockI    int // next event within the block
	event     int // absolute index of the next event (for errors)
	cols      BlockScratch

	// What the SMTX footer check needs: the offset where each block
	// starts and, once decoded, where the last one ends; and the running
	// maximum string index through each block.
	offs   []int64
	marks  []int
	runMax int
	resix  uint32   // the current prim's result index
	argix  []uint32 // the current prim's argument indices
	end    error    // once the last event is out: io.EOF, or why the trailer failed
}

// errf wraps a decode failure with the current byte offset and event
// index — the binary-format analogue of the text decoder's line number.
func (d *Decoder) errf(format string, args ...any) error {
	return fmt.Errorf("trace: binary: offset %d (event %d): %s",
		d.off, d.event, fmt.Sprintf(format, args...))
}

// decodeBufSize is the decoder's read-ahead window. The hot path
// decodes varints with direct slice indexing into this buffer; an
// io.Reader round trip happens once per window, not per byte.
const decodeBufSize = 16 << 10

// fill compacts unread bytes to the front of the buffer and reads more
// from the source, stopping as soon as it makes progress.
func (d *Decoder) fill() {
	if d.pos > 0 {
		d.lim = copy(d.buf, d.buf[d.pos:d.lim])
		d.pos = 0
	}
	for d.rerr == nil && d.lim < len(d.buf) {
		n, err := d.r.Read(d.buf[d.lim:])
		d.lim += n
		if err != nil {
			d.rerr = err
		}
		if n > 0 {
			return
		}
	}
}

func (d *Decoder) readByte() (byte, error) {
	for d.pos == d.lim {
		if d.rerr != nil {
			return 0, d.rerr
		}
		d.fill()
	}
	b := d.buf[d.pos]
	d.pos++
	d.off++
	return b, nil
}

// readFull is io.ReadFull against the decoder's buffer; on a short read
// it returns the bytes it got with the underlying error.
func (d *Decoder) readFull(dst []byte) (int, error) {
	got := 0
	for got < len(dst) {
		if d.pos == d.lim {
			if d.rerr != nil {
				return got, d.rerr
			}
			d.fill()
			continue
		}
		n := copy(dst[got:], d.buf[d.pos:d.lim])
		got += n
		d.pos += n
		d.off += int64(n)
	}
	return got, nil
}

// readUvarint decodes a varint by direct indexing into the buffered
// window — one of these runs per column entry, so it must not pay an
// interface call per byte. The single-byte case (depths, op indices,
// small tables) stays small enough for the compiler to inline.
func (d *Decoder) readUvarint(what string) (uint64, error) {
	if d.pos < d.lim {
		if b := d.buf[d.pos]; b < 0x80 {
			d.pos++
			d.off++
			return uint64(b), nil
		}
	}
	return d.readUvarintSlow(what)
}

func (d *Decoder) readUvarintSlow(what string) (uint64, error) {
	for d.lim-d.pos < binary.MaxVarintLen64 && d.rerr == nil {
		d.fill()
	}
	v, n := binary.Uvarint(d.buf[d.pos:d.lim])
	if n > 0 {
		d.pos += n
		d.off += int64(n)
		return v, nil
	}
	if n < 0 {
		return 0, d.errf("reading %s: varint overflows 64 bits", what)
	}
	// n == 0: the varint runs past the end of input.
	if d.rerr != nil && d.rerr != io.EOF {
		return 0, d.errf("reading %s: %v", what, d.rerr)
	}
	return 0, d.errf("unexpected EOF reading %s", what)
}

// readCount reads a uvarint bounded by limit.
func (d *Decoder) readCount(what string, limit uint64) (int, error) {
	v, err := d.readUvarint(what)
	if err != nil {
		return 0, err
	}
	if v > limit {
		return 0, d.errf("%s %d exceeds limit %d", what, v, limit)
	}
	return int(v), nil
}

func (d *Decoder) readTableString(what string, maxLen int) (string, error) {
	n, err := d.readCount(what+" length", uint64(maxLen))
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", nil
	}
	buf := make([]byte, n)
	got, err := d.readFull(buf)
	if err != nil {
		return "", d.errf("unexpected EOF reading %s (%d of %d bytes)", what, got, n)
	}
	s := string(buf)
	if strings.ContainsAny(s, "\t\n\r") {
		return "", d.errf("%s %q contains a tab or newline", what, s)
	}
	return s, nil
}

// readTable reads count length-prefixed entries, packing their bytes
// into one shared backing string so decoding a table costs O(1) string
// allocations instead of one per entry. The capacity hints stay bounded
// by preallocCap; memory grows with bytes actually read from the file.
func (d *Decoder) readTable(what string, count, maxLen int, allowEmpty bool) ([]string, error) {
	out := make([]string, 0, min(count, preallocCap))
	if count == 0 {
		return out, nil
	}
	lens := make([]int, 0, min(count, preallocCap))
	lenWhat := what + " length"
	var buf []byte
	for i := 0; i < count; i++ {
		n, err := d.readCount(lenWhat, uint64(maxLen))
		if err != nil {
			return nil, err
		}
		if n == 0 && !allowEmpty {
			return nil, d.errf("%s table entry %d is empty", what, i)
		}
		if cap(buf)-len(buf) < n {
			nb := make([]byte, len(buf), max(2*cap(buf), len(buf)+n))
			copy(nb, buf)
			buf = nb
		}
		start := len(buf)
		buf = buf[:start+n]
		got, err := d.readFull(buf[start:])
		if err != nil {
			return nil, d.errf("unexpected EOF reading %s (%d of %d bytes)", what, got, n)
		}
		lens = append(lens, n)
	}
	backing := string(buf)
	pos := 0
	for i, n := range lens {
		s := backing[pos : pos+n]
		pos += n
		if strings.ContainsAny(s, "\t\n\r") {
			return nil, d.errf("%s entry %d %q contains a tab or newline", what, i, s)
		}
		out = append(out, s)
	}
	return out, nil
}

// NewDecoder reads the header and tables of a binary trace and prepares
// to stream its events.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{r: r, buf: make([]byte, decodeBufSize)}
	if err := d.readHeader(); err != nil {
		return nil, err
	}
	return d, nil
}

// readHeader reads the magic, version, name, op and string tables and
// event count of a binary trace.
func (d *Decoder) readHeader() error {
	var magic [4]byte
	got, err := d.readFull(magic[:])
	if err != nil || magic != magicTrace {
		return d.errf("not a binary trace (bad magic %q)", magic[:got])
	}
	ver, err := d.readByte()
	if err != nil {
		return d.errf("unexpected EOF reading version")
	}
	if ver != traceVersion {
		return d.errf("unsupported binary trace version %d (want %d)", ver, traceVersion)
	}
	if d.name, err = d.readTableString("trace name", maxNameLen); err != nil {
		return err
	}
	nops, err := d.readCount("op table count", maxTableCount)
	if err != nil {
		return err
	}
	if d.ops, err = d.readTable("op name", nops, maxOpLen, false); err != nil {
		return err
	}
	// Share the canonical interned instance across traces; if the global
	// op table is full, keep the table-backed substring.
	for i, s := range d.ops {
		if c := InternOp(s); c != OpNone {
			d.ops[i] = OpName(c)
		}
	}
	nstrs, err := d.readCount("string table count", maxTableCount)
	if err != nil {
		return err
	}
	if d.strs, err = d.readTable("string table entry", nstrs, maxStrLen, true); err != nil {
		return err
	}
	d.copyEnd = d.off
	if d.total, err = d.readCount("event count", maxEventCount); err != nil {
		return err
	}
	d.remaining = d.total
	nb := blockCountOf(d.total)
	d.offs = append(make([]int64, 0, min(nb+1, preallocCap)), d.off)
	d.marks = make([]int, 0, min(nb, preallocCap))
	return nil
}

// Name returns the trace name from the header.
func (d *Decoder) Name() string { return d.name }

// Events returns the total event count from the header.
func (d *Decoder) Events() int { return d.total }

// readBlock loads the next block's kind/depth/op columns.
func (d *Decoder) readBlock() error {
	n := min(blockEvents, d.remaining)
	d.blockN, d.blockI = n, 0
	got, err := d.readFull(d.cols.kinds[:n])
	if err != nil {
		return d.errf("unexpected EOF reading kind column (%d of %d bytes)", got, n)
	}
	for i := 0; i < n; i++ {
		kb := d.cols.kinds[i]
		if kb&kindMask > byte(KindExit) {
			return d.errf("unknown event kind %d", kb&kindMask)
		}
		if kb&kindMask == byte(KindExit) && kb>>kindNArgsShift != 0 {
			return d.errf("exit event kind byte %#x carries an argument count", kb)
		}
	}
	for i := 0; i < n; i++ {
		v, err := d.readUvarint("depth")
		if err != nil {
			return err
		}
		if v > maxDepth {
			return d.errf("depth %d exceeds limit %d", v, int64(maxDepth))
		}
		d.cols.depths[i] = int64(v)
	}
	for i := 0; i < n; i++ {
		v, err := d.readUvarint("op index")
		if err != nil {
			return err
		}
		if v >= uint64(len(d.ops)) {
			return d.errf("op index %d out of range (table has %d)", v, len(d.ops))
		}
		d.cols.opix[i] = uint32(v)
	}
	return nil
}

// nextBlock closes the block just decoded and loads the next one's
// columns. After the last block it checks the end of input once, as
// every reader of the format must: the event count is authoritative,
// so trailing bytes are either an SMTX index footer (verified claim by
// claim against the block offsets and watermarks recorded here) or
// corruption. It then answers io.EOF, or the trailer's fault, for good.
func (d *Decoder) nextBlock() error {
	if d.end != nil {
		return d.end
	}
	if d.event > 0 {
		d.offs = append(d.offs, d.off)
		d.marks = append(d.marks, d.runMax)
	}
	if d.remaining == 0 {
		d.end = d.verifyTrailer("events", d.total, len(d.strs)-1, d.copyEnd, d.copyEnd,
			d.offs, d.marks, func(int) int64 { return d.copyEnd })
		if d.end == nil {
			d.end = io.EOF
		}
		return d.end
	}
	return d.readBlock()
}

// rawEvent is one decoded event as table indices, before anything is
// built from it. A prim's result and argument indices are in
// Decoder.resix and Decoder.argix. (Four fields keep it in registers.)
type rawEvent struct {
	kind  Kind
	op    uint32 // op table index
	depth int
	nargs int // KindEnter: the declared argument count
}

// step decodes the next event: its kind, depth and op from the block
// columns, and for a prim the result and argument indices, each
// range-checked against the string table and folded into the running
// maximum the SMTX check needs. Next, ReadBinary and ReadRefs differ
// only in what they build from it. After the last event it returns
// io.EOF (see nextBlock).
func (d *Decoder) step() (rawEvent, error) {
	if d.blockI >= d.blockN {
		if err := d.nextBlock(); err != nil {
			return rawEvent{}, err
		}
	}
	i := d.blockI
	kb := d.cols.kinds[i]
	e := rawEvent{kind: Kind(kb & kindMask), op: d.cols.opix[i], depth: int(d.cols.depths[i])}
	nargs := int(kb >> kindNArgsShift)
	switch e.kind {
	case KindPrim:
		ri, err := d.readUvarint("result index")
		if err != nil {
			return rawEvent{}, err
		}
		if ri >= uint64(len(d.strs)) {
			return rawEvent{}, d.errf("result index %d out of range (table has %d)", ri, len(d.strs))
		}
		d.runMax = max(d.runMax, int(ri))
		d.resix = uint32(ri)
		if nargs == kindNArgsOverflow {
			if nargs, err = d.readCount("argument count", maxEventArgs); err != nil {
				return rawEvent{}, err
			}
		}
		d.argix = d.argix[:0]
		for j := 0; j < nargs; j++ {
			ai, err := d.readUvarint("argument index")
			if err != nil {
				return rawEvent{}, err
			}
			if ai >= uint64(len(d.strs)) {
				return rawEvent{}, d.errf("argument index %d out of range (table has %d)", ai, len(d.strs))
			}
			d.runMax = max(d.runMax, int(ai))
			d.argix = append(d.argix, uint32(ai))
		}
	case KindEnter:
		if nargs == kindNArgsOverflow {
			var err error
			if nargs, err = d.readCount("nargs", maxEventArgs); err != nil {
				return rawEvent{}, err
			}
		}
		e.nargs = nargs
	}
	d.blockI++
	d.event++
	d.remaining--
	return e, nil
}

// Next decodes the next event into ev, reusing ev's Args backing array
// when its capacity suffices. It returns io.EOF after the last event,
// once the end of input has passed the same checks ReadBinary makes.
// The strings placed in ev are shared with the decoder's tables: valid
// indefinitely, but common to all events.
func (d *Decoder) Next(ev *Event) error {
	e, err := d.step()
	if err != nil {
		return err
	}
	// Keep the caller's Args backing array across every event kind —
	// enter/exit events must not drop it, or the next prim reallocates.
	args := ev.Args[:0]
	*ev = Event{Kind: e.kind, Op: d.ops[e.op], Depth: e.depth, Args: args}
	switch e.kind {
	case KindPrim:
		ev.Result = d.strs[d.resix]
		for _, ai := range d.argix {
			args = append(args, d.strs[ai])
		}
		ev.Args = args
	case KindEnter:
		ev.NArgs = e.nargs
	}
	return nil
}

// ReadBinary decodes a complete binary trace written by WriteBinary.
// Event argument slices are carved out of shared chunked arrays and the
// strings are interned per table entry, so decoding allocates orders of
// magnitude less than the text Read.
func ReadBinary(r io.Reader) (*Trace, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{Name: d.name, Events: make([]Event, 0, min(d.total, preallocCap))}
	var arena []string // chunked backing storage for event Args
	for {
		e, err := d.step()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		ev := Event{Kind: e.kind, Op: d.ops[e.op], Depth: e.depth}
		switch e.kind {
		case KindPrim:
			ev.Result = d.strs[d.resix]
			if n := len(d.argix); n > 0 {
				if len(arena)+n > cap(arena) {
					arena = make([]string, 0, max(4*blockEvents, n))
				}
				start := len(arena)
				for _, ai := range d.argix {
					arena = append(arena, d.strs[ai])
				}
				ev.Args = arena[start:len(arena):len(arena)]
			}
		case KindEnter:
			ev.NArgs = e.nargs
		}
		t.Events = append(t.Events, ev)
	}
}
