// Block index footers ("SMTX", version 1).
//
// Both container formats (SMTB traces, SMRS reference streams) encode
// their payload as varint columns in 1024-event blocks, but nothing in
// the v1 layout says where a block's bytes begin: planning a sharded
// replay or slicing out a block range used to mean decoding everything.
// The SMTX footer is an optional trailer that records, per block, the
// encoded byte length, the event count, the running maximum identifier
// referenced so far (the "id watermark"), and the byte boundary of the
// id-text table entry for that watermark (the "table watermark"). With
// it, a shard covering blocks [b0,b1) is a byte-range sub-slice of the
// original encoding — verbatim header prefix, truncated id-text table,
// raw block bytes, fresh sub-footer — with no decode and no re-encode.
//
//	"SMTX"   4 bytes
//	version  1 byte
//	total    uvarint  event/ref count (must match the container header)
//	maxid    uvarint  SMRS: header maxid; SMTB: last string-table index
//	copyend  uvarint  bytes of header prefix a slice copies verbatim
//	                  (SMRS: through the op table; SMTB: through the
//	                  string table)
//	nblocks  uvarint  must equal ceil(total/1024)
//	lens     nblocks x uvarint   encoded byte length of each block
//	counts   nblocks x uvarint   events in each block (redundant with
//	                             total; verified, kept for dump tools)
//	marks    nblocks x uvarint   id watermark, delta-encoded
//	idends   nblocks x uvarint   table watermark byte offset,
//	                             delta-encoded from the id-text start
//	flen     4 bytes LE          footer length, "SMTX" through idends
//	"SMTX"   4 bytes
//
// The trailing magic + fixed-width length let ParseIndex locate the
// footer from the end of a byte slice; the leading magic lets the
// sequential decoders detect it where v1 files simply end. Back-compat
// is absolute in both directions: un-indexed files still decode
// everywhere (the footer hook only fires on the "SMTX" magic where
// trailing bytes were already an error), and indexed files decode in
// any v1 reader that checks events before trailing bytes — the block
// count in the header is authoritative, so the footer is never
// mistaken for event data.
//
// Trust model: the sequential decoders (ReadBinary, ReadStream) verify
// every footer claim against the actual offsets and ids they decode, so
// a stream that decodes cleanly has a truthful index. ParseIndex alone
// performs structural checks only; block-level consumers (DecodeBlock)
// re-check byte consumption, counts, and id ranges per block, so a
// lying index over hostile bytes is caught at decode time.
package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
)

var magicIndex = [4]byte{'S', 'M', 'T', 'X'}

const (
	indexVersion = 1
	// maxIndexBlocks bounds the footer's block count claim; it is
	// exactly the block count of the largest admissible event count.
	maxIndexBlocks = maxEventCount / blockEvents
	// maxFileOff bounds byte offsets and lengths claimed by a footer.
	// Far above any real file, far below int64 overflow when summed
	// across maxIndexBlocks blocks.
	maxFileOff = 1 << 40
)

// blockCountOf is the number of blocks covering n events.
func blockCountOf(n int) int {
	return (n + blockEvents - 1) / blockEvents
}

// uvarintLen is the encoded size of v in bytes.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// Index is a decoded SMTX footer plus the absolute offsets derived from
// it. Offs has one extra entry: block k spans bytes [Offs[k], Offs[k+1])
// of the encoding, so Offs[0] is the start of block 0 and the last entry
// is the end of the final block.
type Index struct {
	Total   int   // events (SMTB) / refs (SMRS) covered
	MaxID   int   // SMRS: header maxid; SMTB: last string-table index
	CopyEnd int64 // end of the verbatim header prefix
	IDStart int64 // first byte of the id-text (SMRS) section; == CopyEnd for SMTB
	Offs    []int64
	Counts  []int   // events per block
	Marks   []int   // running max id referenced through block k
	IDEnds  []int64 // byte offset just past id-text entry Marks[k]
}

// Blocks is the number of event blocks the index covers.
func (ix *Index) Blocks() int { return len(ix.Counts) }

// expectBlockCount is the event count block k must carry given the
// total: full blocks of blockEvents, with only the last one short.
func expectBlockCount(total, k int) int {
	return min(blockEvents, total-k*blockEvents)
}

// appendIndexFooterBytes serializes ix as an SMTX footer. Only the
// deltas of Offs and IDEnds are written, so the slices may carry
// offsets in a parent encoding's frame (AppendSlicePayload exploits
// this to emit sub-footers without copying index arrays).
func appendIndexFooterBytes(dst []byte, ix *Index) []byte {
	fStart := len(dst)
	dst = append(dst, magicIndex[:]...)
	dst = append(dst, indexVersion)
	dst = binary.AppendUvarint(dst, uint64(ix.Total))
	dst = binary.AppendUvarint(dst, uint64(ix.MaxID))
	dst = binary.AppendUvarint(dst, uint64(ix.CopyEnd))
	n := ix.Blocks()
	dst = binary.AppendUvarint(dst, uint64(n))
	for k := 0; k < n; k++ {
		dst = binary.AppendUvarint(dst, uint64(ix.Offs[k+1]-ix.Offs[k]))
	}
	for k := 0; k < n; k++ {
		dst = binary.AppendUvarint(dst, uint64(ix.Counts[k]))
	}
	prev := 0
	for k := 0; k < n; k++ {
		dst = binary.AppendUvarint(dst, uint64(ix.Marks[k]-prev))
		prev = ix.Marks[k]
	}
	prevEnd := ix.IDStart
	for k := 0; k < n; k++ {
		dst = binary.AppendUvarint(dst, uint64(ix.IDEnds[k]-prevEnd))
		prevEnd = ix.IDEnds[k]
	}
	flen := len(dst) - fStart
	dst = binary.LittleEndian.AppendUint32(dst, uint32(flen))
	return append(dst, magicIndex[:]...)
}

// indexFooter is the raw columns of a parsed footer, before absolute
// offsets are derived. idEndRel[k] is IDEnds[k] - IDStart.
type indexFooter struct {
	total    int
	maxID    int
	copyEnd  int64
	lens     []int64
	counts   []int
	marks    []int
	idEndRel []int64
}

// readIndexFooter decodes the footer columns after the leading "SMTX"
// magic and enforces the self-consistency invariants every index must
// satisfy: block count determined by total, per-block counts likewise,
// watermarks nondecreasing and bounded by maxid, offsets bounded.
func readIndexFooter(d *Decoder) (*indexFooter, error) {
	ver, err := d.readByte()
	if err != nil {
		return nil, d.errf("unexpected EOF reading index version")
	}
	if ver != indexVersion {
		return nil, d.errf("unsupported index version %d (want %d)", ver, indexVersion)
	}
	f := &indexFooter{}
	if f.total, err = d.readCount("index event count", maxEventCount); err != nil {
		return nil, err
	}
	if f.maxID, err = d.readCount("index max identifier", maxTableCount); err != nil {
		return nil, err
	}
	ce, err := d.readCount("index header prefix length", maxFileOff)
	if err != nil {
		return nil, err
	}
	f.copyEnd = int64(ce)
	nblocks, err := d.readCount("index block count", maxIndexBlocks)
	if err != nil {
		return nil, err
	}
	if nblocks != blockCountOf(f.total) {
		return nil, d.errf("index block count %d does not cover %d events", nblocks, f.total)
	}
	f.lens = make([]int64, 0, min(nblocks, preallocCap))
	var sum int64
	for k := 0; k < nblocks; k++ {
		l, err := d.readCount("index block length", maxFileOff)
		if err != nil {
			return nil, err
		}
		sum += int64(l)
		if sum > maxFileOff {
			return nil, d.errf("index block lengths sum past limit %d", int64(maxFileOff))
		}
		f.lens = append(f.lens, int64(l))
	}
	f.counts = make([]int, 0, min(nblocks, preallocCap))
	for k := 0; k < nblocks; k++ {
		c, err := d.readCount("index block event count", blockEvents)
		if err != nil {
			return nil, err
		}
		if c != expectBlockCount(f.total, k) {
			return nil, d.errf("index block %d event count %d, want %d", k, c, expectBlockCount(f.total, k))
		}
		f.counts = append(f.counts, c)
	}
	f.marks = make([]int, 0, min(nblocks, preallocCap))
	mark := 0
	for k := 0; k < nblocks; k++ {
		dm, err := d.readCount("index id watermark delta", maxTableCount)
		if err != nil {
			return nil, err
		}
		mark += dm
		if mark > f.maxID {
			return nil, d.errf("index block %d id watermark %d exceeds max identifier %d", k, mark, f.maxID)
		}
		f.marks = append(f.marks, mark)
	}
	f.idEndRel = make([]int64, 0, min(nblocks, preallocCap))
	var rel int64
	for k := 0; k < nblocks; k++ {
		de, err := d.readCount("index table watermark delta", maxFileOff)
		if err != nil {
			return nil, err
		}
		rel += int64(de)
		if rel > maxFileOff {
			return nil, d.errf("index table watermarks run past limit %d", int64(maxFileOff))
		}
		f.idEndRel = append(f.idEndRel, rel)
	}
	return f, nil
}

// verifyTrailer consumes an optional SMTX footer at the current decode
// position — which must be immediately after the last event block — and
// checks every claim it makes against the actuals the caller recorded
// while decoding: the header prefix boundary, each block's byte length,
// and each block's watermarks. Watermarks may over-approximate (a
// sliced payload inherits its parent's marks, which cover ids the slice
// never references) but must never under-approximate, and the table
// watermark must be the exact id-text boundary of the claimed mark, as
// reported by idEndAt. A clean EOF means an un-indexed file and is not
// an error; any other trailing bytes are corruption, exactly as before
// the footer existed.
func (d *Decoder) verifyTrailer(what string, total, maxID int, copyEnd, idStart int64, offs []int64, marks []int, idEndAt func(mark int) int64) error {
	var magic [4]byte
	got, err := d.readFull(magic[:])
	if err != nil {
		if got == 0 && err == io.EOF {
			return nil // un-indexed: clean end of input
		}
		return d.errf("trailing data after %d %s", total, what)
	}
	if magic != magicIndex {
		return d.errf("trailing data after %d %s", total, what)
	}
	fStart := d.off - int64(len(magic))
	f, err := readIndexFooter(d)
	if err != nil {
		return err
	}
	if f.total != total {
		return d.errf("index claims %d %s, file has %d", f.total, what, total)
	}
	if f.maxID != maxID {
		return d.errf("index claims max identifier %d, file has %d", f.maxID, maxID)
	}
	if f.copyEnd != copyEnd {
		return d.errf("index claims header prefix %d bytes, actual %d", f.copyEnd, copyEnd)
	}
	if len(f.lens) != len(offs)-1 {
		return d.errf("index covers %d blocks, file has %d", len(f.lens), len(offs)-1)
	}
	for k := range f.lens {
		if actual := offs[k+1] - offs[k]; f.lens[k] != actual {
			return d.errf("index block %d length %d, actual %d", k, f.lens[k], actual)
		}
	}
	for k := range f.marks {
		if f.marks[k] < marks[k] {
			return d.errf("index block %d id watermark %d below actual %d", k, f.marks[k], marks[k])
		}
		if want := idEndAt(f.marks[k]); idStart+f.idEndRel[k] != want {
			return d.errf("index block %d table watermark %d, want %d for id %d",
				k, idStart+f.idEndRel[k], want, f.marks[k])
		}
	}
	flen := d.off - fStart
	var lenBuf [4]byte
	if _, err := d.readFull(lenBuf[:]); err != nil {
		return d.errf("unexpected EOF reading index footer length")
	}
	if got := binary.LittleEndian.Uint32(lenBuf[:]); got != uint32(flen) {
		return d.errf("index footer length %d, actual %d", got, flen)
	}
	if _, err := d.readFull(magic[:]); err != nil || magic != magicIndex {
		return d.errf("index footer missing trailing magic")
	}
	if _, err := d.readByte(); err != io.EOF {
		return d.errf("trailing data after index footer")
	}
	return nil
}

// newBytesDecoder wraps a Decoder directly over an in-memory slice: the
// buffered window is the whole input, rerr is pre-set to io.EOF, so
// fill never runs (and never compacts, leaving the caller's bytes
// untouched) and no io.Reader round trips happen. base seeds the byte
// offset carried by decode errors.
func newBytesDecoder(data []byte, base int64) *Decoder {
	return &Decoder{buf: data, pos: 0, lim: len(data), rerr: io.EOF, off: base}
}

// ParseIndex locates and decodes the SMTX footer of a complete encoded
// trace or stream held in memory. It returns (nil, nil) when the bytes
// carry no footer, the decoded Index when they carry a structurally
// valid one, and an error when a footer is present but malformed. The
// checks here are structural (offsets nest, watermarks fit); truth
// against the event bytes comes from the sequential decoders or from
// per-block checks in DecodeBlock.
func ParseIndex(data []byte) (*Index, error) {
	if len(data) < 8 || !bytes.Equal(data[len(data)-4:], magicIndex[:]) {
		return nil, nil
	}
	isStream := bytes.HasPrefix(data, magicStream[:])
	if !isStream && !bytes.HasPrefix(data, magicTrace[:]) {
		return nil, fmt.Errorf("trace: index: trailer on unrecognized container")
	}
	end := int64(len(data)) - 8 // footer columns end here
	flen := int64(binary.LittleEndian.Uint32(data[end : end+4]))
	fStart := end - flen
	// Smallest conceivable container in front of the footer: magic,
	// version, empty name, empty tables, zero counts.
	if fStart < 7 {
		return nil, fmt.Errorf("trace: index: footer length %d exceeds file", flen)
	}
	if !bytes.Equal(data[fStart:fStart+4], magicIndex[:]) {
		return nil, fmt.Errorf("trace: index: footer at offset %d missing magic", fStart)
	}
	d := newBytesDecoder(data[fStart+4:end], fStart+4)
	f, err := readIndexFooter(d)
	if err != nil {
		return nil, err
	}
	if _, err := d.readByte(); err != io.EOF {
		return nil, d.errf("index footer has trailing bytes")
	}

	ix := &Index{Total: f.total, MaxID: f.maxID, CopyEnd: f.copyEnd}
	var sum int64
	for _, l := range f.lens {
		sum += l
	}
	blocksStart := fStart - sum
	if isStream {
		ix.IDStart = f.copyEnd + int64(uvarintLen(uint64(f.maxID)))
	} else {
		ix.IDStart = f.copyEnd
	}
	idTextEnd := blocksStart - int64(uvarintLen(uint64(f.total)))
	if f.copyEnd < 7 || ix.IDStart < f.copyEnd || idTextEnd < ix.IDStart || blocksStart < idTextEnd {
		return nil, fmt.Errorf("trace: index: inconsistent section offsets (header %d, ids %d..%d, blocks %d)",
			f.copyEnd, ix.IDStart, idTextEnd, blocksStart)
	}
	if !isStream && idTextEnd != ix.IDStart {
		return nil, fmt.Errorf("trace: index: binary trace claims %d bytes of id text", idTextEnd-ix.IDStart)
	}
	n := len(f.lens)
	ix.Offs = make([]int64, 0, min(n+1, preallocCap))
	ix.Offs = append(ix.Offs, blocksStart)
	off := blocksStart
	for k, l := range f.lens {
		// Every event costs at least a kind byte, a depth varint, and
		// an op-index varint.
		if l < 3*int64(f.counts[k]) {
			return nil, fmt.Errorf("trace: index: block %d length %d too short for %d events", k, l, f.counts[k])
		}
		off += l
		ix.Offs = append(ix.Offs, off)
	}
	ix.Counts = f.counts
	ix.Marks = f.marks
	ix.IDEnds = make([]int64, 0, min(n, preallocCap))
	for k, rel := range f.idEndRel {
		abs := ix.IDStart + rel
		if abs > idTextEnd {
			return nil, fmt.Errorf("trace: index: block %d table watermark %d past id text end %d", k, abs, idTextEnd)
		}
		ix.IDEnds = append(ix.IDEnds, abs)
	}
	return ix, nil
}

// AppendSlicePayload appends to dst a complete, self-contained encoding
// of blocks [b0,b1) of an indexed stream, built purely from byte-range
// copies of enc: the header prefix through the op table verbatim, a
// patched maxid (the slice's id watermark W), the id-text table
// truncated at W's boundary, a patched event count, the raw block
// bytes, and a fresh sub-footer. No event is decoded or re-encoded.
// Refs keep their absolute parent ids — the simulator never inspects
// identifier values, so replaying a slice is replaying the range (see
// SubStream).
func AppendSlicePayload(dst, enc []byte, ix *Index, b0, b1 int) ([]byte, error) {
	if b0 < 0 || b0 >= b1 || b1 > ix.Blocks() {
		return dst, fmt.Errorf("trace: index: slice blocks [%d,%d) out of range 0..%d", b0, b1, ix.Blocks())
	}
	last := ix.Offs[b1]
	idEnd := ix.IDEnds[b1-1]
	if ix.CopyEnd > ix.IDStart || ix.IDStart > idEnd || idEnd > int64(len(enc)) || last > int64(len(enc)) {
		return dst, fmt.Errorf("trace: index: offsets exceed encoding (%d bytes)", len(enc))
	}
	w := ix.Marks[b1-1]
	count := 0
	for k := b0; k < b1; k++ {
		count += ix.Counts[k]
	}
	dst = append(dst, enc[:ix.CopyEnd]...)
	dst = binary.AppendUvarint(dst, uint64(w))
	dst = append(dst, enc[ix.IDStart:idEnd]...)
	dst = binary.AppendUvarint(dst, uint64(count))
	dst = append(dst, enc[ix.Offs[b0]:last]...)
	// The sub-footer's Offs/IDEnds stay in the parent's frame: only
	// their deltas are serialized, and deltas are frame-invariant.
	return appendIndexFooterBytes(dst, &Index{
		Total:   count,
		MaxID:   w,
		CopyEnd: ix.CopyEnd,
		IDStart: ix.IDStart,
		Offs:    ix.Offs[b0 : b1+1],
		Counts:  ix.Counts[b0:b1],
		Marks:   ix.Marks[b0:b1],
		IDEnds:  ix.IDEnds[b0:b1],
	}), nil
}
