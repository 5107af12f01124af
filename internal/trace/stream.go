// Serialized reference streams ("SMRS", version 1).
//
// Preprocess re-parses and re-interns a trace's s-expression text on
// every load. A Stream written once with WriteStream is memory-loaded
// by ReadStream with no parsing and no interning — reruns of an
// experiment skip Preprocess entirely. The layout mirrors the binary
// trace format (front-loaded tables, varint columns in blocks):
//
//	magic   4 bytes "SMRS"
//	version 1 byte
//	name    uvarint length + bytes
//	ops     uvarint count, then count x (uvarint length + bytes)
//	maxid   uvarint; identifiers are 1..maxid
//	idtext  maxid x (uvarint length + bytes), texts for ids 1..maxid
//	refs    uvarint count
//	blocks, each covering min(1024, remaining) refs:
//	  kinds  one byte per ref: bits 0-1 the RefKind, bit 2 the chaining
//	         flag (RefPrim only), bits 3-7 the argument count n (prim
//	         arg ids / enter nargs); n = 31 means the true count
//	         follows in aux
//	  depths one uvarint per ref
//	  ops    one uvarint per ref (index into the op table)
//	  aux    per ref, in order:
//	    prim : uvarint result id, [uvarint nargs if n = 31],
//	           nargs x uvarint arg id
//	    enter: [uvarint nargs if n = 31]
//	    exit : nothing
//
// Same versioning rule as the binary trace format: layout changes bump
// the version byte; unknown versions are rejected.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"strings"
)

const streamChainBit = 0x04

// WriteStream encodes a preprocessed stream as a .refs file with an
// SMTX index footer.
func WriteStream(w io.Writer, st *Stream) error {
	return writeStream(w, st, true)
}

// WriteStreamNoIndex encodes st without the SMTX footer — the
// pre-index v1 layout, byte-for-byte.
func WriteStreamNoIndex(w io.Writer, st *Stream) error {
	return writeStream(w, st, false)
}

func writeStream(w io.Writer, st *Stream, withIndex bool) error {
	if strings.ContainsAny(st.Name, "\n\r") {
		return encErrorf("stream name contains a newline")
	}
	if st.MaxID < 0 {
		return encErrorf("negative MaxID %d", st.MaxID)
	}
	opIdx := make(map[Opcode]uint64)
	var opNames []string
	for i := range st.Refs {
		r := &st.Refs[i]
		if r.Kind > RefExit {
			return encErrorf("ref %d: unknown kind %d", i, r.Kind)
		}
		if r.Depth < 0 {
			return encErrorf("ref %d: negative depth %d", i, r.Depth)
		}
		if r.NArgs < 0 {
			return encErrorf("ref %d: negative nargs %d", i, r.NArgs)
		}
		if r.Result < 0 || r.Result > st.MaxID {
			return encErrorf("ref %d: result id %d out of range 0..%d", i, r.Result, st.MaxID)
		}
		for _, id := range r.Args {
			if id < 0 || id > st.MaxID {
				return encErrorf("ref %d: arg id %d out of range 0..%d", i, id, st.MaxID)
			}
		}
		if _, ok := opIdx[r.Op]; !ok {
			opIdx[r.Op] = uint64(len(opNames))
			opNames = append(opNames, opNameForEncode(r.Op))
		}
	}

	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	off := func() int64 { return cw.n + int64(bw.Buffered()) }
	scratch := make([]byte, binary.MaxVarintLen64)
	if _, err := bw.Write(magicStream[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(streamVersion); err != nil {
		return err
	}
	if err := writeTableString(bw, scratch, st.Name); err != nil {
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
	copyEnd := off()
	if err := writeUvarint(bw, scratch, uint64(st.MaxID)); err != nil {
		return err
	}
	idStart := off()
	// Streams too large for a decodable footer are emitted un-indexed.
	withIndex = withIndex && st.MaxID <= maxTableCount && len(st.Refs) <= maxEventCount
	var idEnd []int64 // idEnd[w]: byte offset just past id-text entry w
	if withIndex {
		idEnd = make([]int64, 1, min(st.MaxID, maxTableCount)+1)
		idEnd[0] = idStart
	}
	for id := 1; id <= st.MaxID; id++ {
		if err := writeTableString(bw, scratch, st.Text(id)); err != nil {
			return err
		}
		if withIndex {
			idEnd = append(idEnd, off())
		}
	}
	if err := writeUvarint(bw, scratch, uint64(len(st.Refs))); err != nil {
		return err
	}
	ix := &Index{Total: len(st.Refs), MaxID: st.MaxID, CopyEnd: copyEnd, IDStart: idStart}
	if withIndex {
		nb := blockCountOf(len(st.Refs))
		ix.Offs = append(make([]int64, 0, min(nb, maxIndexBlocks)+1), off())
		ix.Counts = make([]int, 0, min(nb, maxIndexBlocks))
		ix.Marks = make([]int, 0, min(nb, maxIndexBlocks))
		ix.IDEnds = make([]int64, 0, min(nb, maxIndexBlocks))
	}
	runMax := 0

	for start := 0; start < len(st.Refs); start += blockEvents {
		end := min(start+blockEvents, len(st.Refs))
		block := st.Refs[start:end]
		for i := range block {
			r := &block[i]
			b := byte(r.Kind)
			if r.Chain && r.Kind == RefPrim {
				b |= streamChainBit
			}
			if n := refNArgs(r); n < streamNArgsOverflow {
				b |= byte(n) << streamNArgsShift
			} else {
				b |= streamNArgsOverflow << streamNArgsShift
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
			r := &block[i]
			switch r.Kind {
			case RefPrim:
				runMax = max(runMax, r.Result)
				if err := writeUvarint(bw, scratch, uint64(r.Result)); err != nil {
					return err
				}
				if n := len(r.Args); n >= streamNArgsOverflow {
					if err := writeUvarint(bw, scratch, uint64(n)); err != nil {
						return err
					}
				}
				for _, id := range r.Args {
					runMax = max(runMax, id)
					if err := writeUvarint(bw, scratch, uint64(id)); err != nil {
						return err
					}
				}
			case RefEnter:
				if r.NArgs >= streamNArgsOverflow {
					if err := writeUvarint(bw, scratch, uint64(r.NArgs)); err != nil {
						return err
					}
				}
			}
		}
		if withIndex {
			ix.Offs = append(ix.Offs, off())
			ix.Counts = append(ix.Counts, end-start)
			ix.Marks = append(ix.Marks, runMax)
			ix.IDEnds = append(ix.IDEnds, idEnd[runMax])
		}
	}
	if withIndex {
		if _, err := bw.Write(appendIndexFooterBytes(nil, ix)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// refNArgs is the argument count packed into a ref's kind byte.
func refNArgs(r *Ref) int {
	switch r.Kind {
	case RefPrim:
		return len(r.Args)
	case RefEnter:
		return r.NArgs
	}
	return 0
}

// streamDecoder carries the offset bookkeeping for ReadStream; it
// reuses the Decoder's primitives with the stream's magic and tables.
type streamDecoder struct{ Decoder }

// readStreamHeader decodes the front-loaded header of an SMRS stream —
// name, op table, maxid, id texts, ref count — and reports the section
// offsets the SMTX index describes: copyEnd is the end of the verbatim
// prefix (through the op table), idStart the first id-text byte.
func readStreamHeader(d *streamDecoder) (st *Stream, ops []Opcode, copyEnd, idStart int64, nrefs int, err error) {
	var magic [4]byte
	got, err := d.readFull(magic[:])
	if err != nil || magic != magicStream {
		return nil, nil, 0, 0, 0, d.errf("not a reference stream (bad magic %q)", magic[:got])
	}
	ver, err := d.readByte()
	if err != nil {
		return nil, nil, 0, 0, 0, d.errf("unexpected EOF reading version")
	}
	if ver != streamVersion {
		return nil, nil, 0, 0, 0, d.errf("unsupported stream version %d (want %d)", ver, streamVersion)
	}
	st = &Stream{}
	if st.Name, err = d.readTableString("stream name", maxNameLen); err != nil {
		return nil, nil, 0, 0, 0, err
	}
	nops, err := d.readCount("op table count", maxTableCount)
	if err != nil {
		return nil, nil, 0, 0, 0, err
	}
	opNames, err := d.readTable("op name", nops, maxOpLen, true)
	if err != nil {
		return nil, nil, 0, 0, 0, err
	}
	ops = make([]Opcode, len(opNames))
	for i, s := range opNames {
		ops[i] = InternOp(s)
	}
	copyEnd = d.off
	if st.MaxID, err = d.readCount("max identifier", maxTableCount); err != nil {
		return nil, nil, 0, 0, 0, err
	}
	idStart = d.off
	idtext, err := d.readTable("identifier text", st.MaxID, maxStrLen, true)
	if err != nil {
		return nil, nil, 0, 0, 0, err
	}
	st.IDText = make([]string, 1, len(idtext)+1)
	st.IDText = append(st.IDText, idtext...)
	if nrefs, err = d.readCount("ref count", maxEventCount); err != nil {
		return nil, nil, 0, 0, 0, err
	}
	return st, ops, copyEnd, idStart, nrefs, nil
}

// BlockScratch holds the column arrays used while decoding one block.
// Callers that decode block after block (the scanner, the prefetcher)
// reuse one across calls; a Decoder holds one, which its SMTB events
// and a StreamScanner's SMRS refs both decode through.
type BlockScratch struct {
	kinds  [blockEvents]byte
	depths [blockEvents]int64
	opix   [blockEvents]uint32
}

// decodeBlock decodes one n-ref column block from d, appending refs to
// refs and arg ids to the chunked arena. Every id is range-checked
// against maxID and every op index against the table — this is the
// decode loop ReadStream always ran, factored out so seekable block
// readers share it. maxSeen reports the largest id referenced.
func (bs *BlockScratch) decodeBlock(d *streamDecoder, ops []Opcode, maxID, n int, refs []Ref, arena []int) (_ []Ref, _ []int, maxSeen int, err error) {
	got, err := d.readFull(bs.kinds[:n])
	if err != nil {
		return refs, arena, 0, d.errf("unexpected EOF reading kind column (%d of %d bytes)", got, n)
	}
	for i := 0; i < n; i++ {
		kb := bs.kinds[i]
		kind := kb & kindMask
		if kind > byte(RefExit) ||
			(kb&streamChainBit != 0 && kind != byte(RefPrim)) ||
			(kind == byte(RefExit) && kb>>streamNArgsShift != 0) {
			return refs, arena, 0, d.errf("bad ref kind byte %#x", kb)
		}
	}
	for i := 0; i < n; i++ {
		v, err := d.readUvarint("depth")
		if err != nil {
			return refs, arena, 0, err
		}
		if v > maxDepth {
			return refs, arena, 0, d.errf("depth %d exceeds limit %d", v, int64(maxDepth))
		}
		bs.depths[i] = int64(v)
	}
	for i := 0; i < n; i++ {
		v, err := d.readUvarint("op index")
		if err != nil {
			return refs, arena, 0, err
		}
		if v >= uint64(len(ops)) {
			return refs, arena, 0, d.errf("op index %d out of range (table has %d)", v, len(ops))
		}
		bs.opix[i] = uint32(v)
	}
	readID := func(what string) (int, error) {
		v, err := d.readUvarint(what)
		if err != nil {
			return 0, err
		}
		if v > uint64(maxID) {
			return 0, d.errf("%s %d out of range 0..%d", what, v, maxID)
		}
		return int(v), nil
	}
	for i := 0; i < n; i++ {
		kb := bs.kinds[i]
		nargs := int(kb >> streamNArgsShift)
		rf := Ref{
			Kind:  RefKind(kb & kindMask),
			Chain: kb&streamChainBit != 0,
			Op:    ops[bs.opix[i]],
			Depth: int(bs.depths[i]),
		}
		switch rf.Kind {
		case RefPrim:
			if rf.Result, err = readID("result id"); err != nil {
				return refs, arena, 0, err
			}
			maxSeen = max(maxSeen, rf.Result)
			if nargs == streamNArgsOverflow {
				if nargs, err = d.readCount("argument count", maxEventArgs); err != nil {
					return refs, arena, 0, err
				}
			}
			if nargs > 0 {
				if len(arena)+nargs > cap(arena) {
					arena = make([]int, 0, max(4*blockEvents, nargs))
				}
				start := len(arena)
				for j := 0; j < nargs; j++ {
					id, err := readID("arg id")
					if err != nil {
						return refs, arena, 0, err
					}
					maxSeen = max(maxSeen, id)
					arena = append(arena, id)
				}
				rf.Args = arena[start:len(arena):len(arena)]
			}
		case RefEnter:
			if nargs == streamNArgsOverflow {
				if nargs, err = d.readCount("nargs", maxEventArgs); err != nil {
					return refs, arena, 0, err
				}
			}
			rf.NArgs = nargs
		}
		refs = append(refs, rf)
		d.event++
	}
	return refs, arena, maxSeen, nil
}

// recordingReader keeps a copy of every byte read through it, so a
// streaming consumer can hand out byte-range slices of an upload while
// it is still arriving. Earlier slices of buf stay valid across growth:
// append may move the backing array but never mutates handed-out
// prefixes.
type recordingReader struct {
	r   io.Reader
	buf []byte
}

func (rr *recordingReader) Read(p []byte) (int, error) {
	n, err := rr.r.Read(p)
	rr.buf = append(rr.buf, p[:n]...)
	return n, err
}

// StreamScanner decodes an SMRS stream one block at a time, building
// the same per-block bookkeeping an SMTX footer carries (byte offsets,
// counts, id and table watermarks) as it goes. ReadStream is a Scan
// loop; the ingest layer scans uploads block by block and dispatches
// shards while the body is still arriving. If the input ends in an
// SMTX footer, the final Scan verifies every claim it makes against
// the recorded actuals.
//
// A StreamScanner is confined to one goroutine: no field is mutex
// guarded, and concurrent shard work must share only the immutable
// snapshots (Raw prefixes, IndexSnapshot copies, SubStream views) it
// hands out — the confinement-by-snapshot discipline the ingest
// dispatcher relies on.
type StreamScanner struct {
	d         streamDecoder
	st        *Stream
	ops       []Opcode
	nrefs     int
	remaining int
	copyEnd   int64
	idStart   int64
	offs      []int64
	counts    []int
	marks     []int
	idEnds    []int64
	runMax    int
	idCum     []int64 // lazy: bytes of id-text entries 1..m, cumulative
	arena     []int
	rec       *recordingReader
	done      bool
}

// NewStreamScanner reads the stream header and prepares to scan
// blocks. With keepRaw, every byte read is retained and Raw() exposes
// the prefix read so far — the basis for zero-copy shard slicing.
func NewStreamScanner(r io.Reader, keepRaw bool) (*StreamScanner, error) {
	sc := &StreamScanner{}
	if keepRaw {
		sc.rec = &recordingReader{r: r}
		r = sc.rec
	}
	sc.d = streamDecoder{Decoder{r: r, buf: make([]byte, decodeBufSize)}}
	if err := sc.start(); err != nil {
		return nil, err
	}
	return sc, nil
}

// start reads the stream header through sc.d.
func (sc *StreamScanner) start() error {
	st, ops, copyEnd, idStart, nrefs, err := readStreamHeader(&sc.d)
	if err != nil {
		return err
	}
	sc.st, sc.ops = st, ops
	sc.copyEnd, sc.idStart, sc.nrefs = copyEnd, idStart, nrefs
	sc.remaining = nrefs
	st.Refs = make([]Ref, 0, min(nrefs, preallocCap))
	nb := blockCountOf(nrefs)
	sc.offs = append(make([]int64, 0, min(nb+1, preallocCap)), sc.d.off)
	sc.counts = make([]int, 0, min(nb, preallocCap))
	sc.marks = make([]int, 0, min(nb, preallocCap))
	sc.idEnds = make([]int64, 0, min(nb, preallocCap))
	return nil
}

// idCumTo is the byte length of id-text entries 1..m as encoded; built
// once, on first use, from the decoded texts.
func (sc *StreamScanner) idCumTo(m int) int64 {
	if sc.idCum == nil {
		cum := make([]int64, 1, min(sc.st.MaxID, maxTableCount)+1)
		for id := 1; id <= sc.st.MaxID; id++ {
			t := sc.st.IDText[id]
			cum = append(cum, cum[id-1]+int64(uvarintLen(uint64(len(t))))+int64(len(t)))
		}
		sc.idCum = cum
	}
	return sc.idCum[m]
}

// Scan decodes the next block, appending its refs to Stream().Refs,
// and returns the number of refs decoded. After the last block it
// consumes and verifies the optional SMTX footer, checks for trailing
// garbage, and returns io.EOF.
func (sc *StreamScanner) Scan() (int, error) {
	if sc.done {
		return 0, io.EOF
	}
	if sc.remaining == 0 {
		sc.done = true
		if err := sc.d.verifyTrailer("refs", sc.nrefs, sc.st.MaxID, sc.copyEnd, sc.idStart,
			sc.offs, sc.marks, func(mark int) int64 { return sc.idStart + sc.idCumTo(mark) }); err != nil {
			return 0, err
		}
		return 0, io.EOF
	}
	n := min(blockEvents, sc.remaining)
	refs, arena, maxSeen, err := sc.d.cols.decodeBlock(&sc.d, sc.ops, sc.st.MaxID, n, sc.st.Refs, sc.arena)
	sc.st.Refs, sc.arena = refs, arena
	if err != nil {
		return 0, err
	}
	sc.runMax = max(sc.runMax, maxSeen)
	sc.remaining -= n
	sc.offs = append(sc.offs, sc.d.off)
	sc.counts = append(sc.counts, n)
	sc.marks = append(sc.marks, sc.runMax)
	sc.idEnds = append(sc.idEnds, sc.idStart+sc.idCumTo(sc.runMax))
	return n, nil
}

// Stream returns the decoded stream: header fields are complete after
// NewStreamScanner, Refs grows with each Scan. Sub-slices of Refs taken
// between Scans stay valid as the slice grows.
func (sc *StreamScanner) Stream() *Stream { return sc.st }

// Refs is the total ref count declared by the header.
func (sc *StreamScanner) Refs() int { return sc.nrefs }

// Blocks is the number of blocks decoded so far.
func (sc *StreamScanner) Blocks() int { return len(sc.counts) }

// Offset is the number of input bytes consumed so far.
func (sc *StreamScanner) Offset() int64 { return sc.d.off }

// Raw returns the bytes read so far (keepRaw scanners only). The
// prefix covering any decoded block is complete: the decoder never
// consumes a byte it has not read.
func (sc *StreamScanner) Raw() []byte {
	if sc.rec == nil {
		return nil
	}
	return sc.rec.buf
}

// IndexSnapshot returns an Index over the blocks decoded so far. The
// slices alias the scanner's growing arrays: entries present at call
// time are immutable, so a snapshot taken after Scan k stays valid
// while scanning continues.
func (sc *StreamScanner) IndexSnapshot() Index {
	return Index{
		Total:   len(sc.st.Refs),
		MaxID:   sc.st.MaxID,
		CopyEnd: sc.copyEnd,
		IDStart: sc.idStart,
		Offs:    sc.offs,
		Counts:  sc.counts,
		Marks:   sc.marks,
		IDEnds:  sc.idEnds,
	}
}

// ReadStream decodes a .refs file written by WriteStream. Errors carry
// the byte offset of the failure. The decoder is strict — every id,
// op index, and kind is range-checked — because smalld accepts
// user-supplied streams.
func ReadStream(r io.Reader) (*Stream, error) {
	sc, err := NewStreamScanner(r, false)
	if err != nil {
		return nil, err
	}
	return sc.readAll()
}

// readAll scans every block and the end of input.
func (sc *StreamScanner) readAll() (*Stream, error) {
	for {
		if _, err := sc.Scan(); err != nil {
			if err == io.EOF {
				return sc.st, nil
			}
			return nil, err
		}
	}
}

// ReadAuto decodes a trace file in any supported format, sniffing the
// leading magic bytes: "SMTB" binary traces, "SMRS" reference streams,
// anything else the text format. Exactly one of the returns is non-nil
// on success; a .refs input yields only the Stream (the original text
// is not recoverable, and consumers of streams do not need it).
func ReadAuto(r io.Reader) (*Trace, *Stream, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(4)
	if err == nil {
		switch {
		case bytes.Equal(magic, magicTrace[:]):
			t, err := ReadBinary(br)
			return t, nil, err
		case bytes.Equal(magic, magicStream[:]):
			st, err := ReadStream(br)
			return nil, st, err
		}
	}
	t, err := Read(br)
	return t, nil, err
}

// Sniff reports the format of the leading bytes of a trace file:
// "binary", "refs", or "text".
func Sniff(prefix []byte) string {
	switch {
	case bytes.HasPrefix(prefix, magicTrace[:]):
		return "binary"
	case bytes.HasPrefix(prefix, magicStream[:]):
		return "refs"
	default:
		return "text"
	}
}
