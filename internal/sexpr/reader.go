package sexpr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Reader parses s-expressions from a string. It supports lists, dotted
// pairs, integers, floats, strings, symbols, 'x quote shorthand, and
// ;-to-end-of-line comments. Symbol case is preserved.
//
// The reader walks the source byte by byte and decodes a rune only at a
// byte of 0x80 or above. A byte that does not begin valid UTF-8 reads
// as U+FFFD, as it would after converting the source to runes. An atom
// is a substring of the source, so a symbol kept after the parse (in
// compiled code, or in an atom table) keeps the source text alive.
type Reader struct {
	src string
	pos int // byte offset
	// line tracks the current 1-based line for error messages.
	line int
}

// NewReader returns a Reader over src.
func NewReader(src string) *Reader {
	return &Reader{src: src, line: 1}
}

// SyntaxError describes a parse failure with its line number.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sexpr: line %d: %s", e.Line, e.Msg)
}

func (r *Reader) errf(format string, args ...any) error {
	return &SyntaxError{Line: r.line, Msg: fmt.Sprintf(format, args...)}
}

// delim marks the ASCII bytes that end an atom: white space, brackets,
// the string quote, the comment start and the quote mark.
var delim = [utf8.RuneSelf]bool{
	'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true,
	'(': true, ')': true, '[': true, ']': true, '"': true, ';': true, '\'': true,
}

// isSpaceByte reports whether an ASCII byte is white space in the sense
// of unicode.IsSpace.
func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

func (r *Reader) skipSpace() {
	for r.pos < len(r.src) {
		c := r.src[r.pos]
		switch {
		case c == '\n':
			r.line++
			r.pos++
		case isSpaceByte(c):
			r.pos++
		case c == ';':
			i := strings.IndexByte(r.src[r.pos:], '\n')
			if i < 0 {
				r.pos = len(r.src)
				return
			}
			r.pos += i + 1
			r.line++
		case c >= utf8.RuneSelf:
			ch, n := utf8.DecodeRuneInString(r.src[r.pos:])
			if !unicode.IsSpace(ch) {
				return
			}
			r.pos += n
		default:
			return
		}
	}
}

// More reports whether any non-space, non-comment input remains.
func (r *Reader) More() bool {
	r.skipSpace()
	return r.pos < len(r.src)
}

// Read parses the next datum. At end of input it returns (nil, false, nil);
// the ok result distinguishes "read the atom nil" from "no more input".
func (r *Reader) Read() (v Value, ok bool, err error) {
	r.skipSpace()
	if r.pos >= len(r.src) {
		return nil, false, nil
	}
	switch c := r.src[r.pos]; c {
	case '(', '[':
		v, err = r.readList()
		return v, err == nil, err
	case ')', ']':
		r.pos++
		return nil, false, r.errf("unexpected %q", rune(c))
	case '\'':
		r.pos++
		inner, ok, err := r.Read()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, r.errf("quote at end of input")
		}
		return List(Symbol("quote"), inner), true, nil
	case '"':
		v, err = r.readString()
		return v, err == nil, err
	default:
		v, err = r.readAtom()
		return v, err == nil, err
	}
}

// readList consumes a balanced list starting at '(' or '['. Brackets must
// match their own kind: '[' pairs with ']' and '(' with ')'. Cells are
// linked as their items are read.
func (r *Reader) readList() (Value, error) {
	open := rune(r.src[r.pos])
	r.pos++
	closer := byte(')')
	if open == '[' {
		closer = ']'
	}
	var head, last *Cell
	dotted := Value(nil)
	sawDot := false
	for {
		r.skipSpace()
		if r.pos >= len(r.src) {
			return nil, r.errf("unterminated list")
		}
		c := r.src[r.pos]
		if c == ')' || c == ']' {
			if c != closer {
				return nil, r.errf("mismatched %q closing %q", rune(c), open)
			}
			r.pos++
			break
		}
		if c == '.' && r.isDotSeparator() {
			r.pos++
			if sawDot {
				return nil, r.errf("multiple dots in list")
			}
			sawDot = true
			tail, ok, err := r.Read()
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, r.errf("missing datum after dot")
			}
			dotted = tail
			continue
		}
		item, ok, err := r.Read()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, r.errf("unterminated list")
		}
		if sawDot {
			return nil, r.errf("datum after dotted tail")
		}
		cell := &Cell{Car: item}
		if head == nil {
			head = cell
		} else {
			last.Cdr = cell
		}
		last = cell
	}
	if head == nil {
		return dotted, nil
	}
	last.Cdr = dotted
	return head, nil
}

// isDotSeparator reports whether the '.' at the current position is a
// dotted-pair separator rather than the start of a symbol or float.
func (r *Reader) isDotSeparator() bool {
	if r.pos+1 >= len(r.src) {
		return true
	}
	c := r.src[r.pos+1]
	if c >= utf8.RuneSelf {
		ch, _ := utf8.DecodeRuneInString(r.src[r.pos+1:])
		return unicode.IsSpace(ch)
	}
	return isSpaceByte(c) || c == '(' || c == ')' || c == '[' || c == ']'
}

// readString reads a string literal. Its text is a substring of the
// source unless an escape or invalid UTF-8 makes it differ; from the
// first such byte on it is built in b.
func (r *Reader) readString() (Value, error) {
	r.pos++ // opening quote
	start := r.pos
	var b strings.Builder
	built := false
	for {
		if r.pos >= len(r.src) {
			return nil, r.errf("unterminated string")
		}
		c := r.src[r.pos]
		switch {
		case c == '"':
			r.pos++
			if built {
				return Str(b.String()), nil
			}
			return Str(r.src[start : r.pos-1]), nil
		case c == '\\':
			if !built {
				b.WriteString(r.src[start:r.pos])
				built = true
			}
			r.pos++
			if r.pos >= len(r.src) {
				return nil, r.errf("unterminated escape")
			}
			esc, n := rune(r.src[r.pos]), 1
			if esc >= utf8.RuneSelf {
				esc, n = utf8.DecodeRuneInString(r.src[r.pos:])
			}
			r.pos += n
			switch esc {
			case '\n':
				r.line++
				b.WriteByte('\n')
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteRune(esc)
			}
		case c < utf8.RuneSelf:
			if c == '\n' {
				r.line++
			}
			r.pos++
			if built {
				b.WriteByte(c)
			}
		default:
			ch, n := utf8.DecodeRuneInString(r.src[r.pos:])
			if ch == utf8.RuneError && n == 1 && !built {
				b.WriteString(r.src[start:r.pos])
				built = true
			}
			if built {
				b.WriteRune(ch)
			}
			r.pos += n
		}
	}
}

// readAtom reads a number or a symbol. Only a token that starts with a
// digit, or with a sign or a dot and goes on, can read as a number, so
// no other token is handed to strconv.
func (r *Reader) readAtom() (Value, error) {
	start := r.pos
	valid := true
	for r.pos < len(r.src) {
		c := r.src[r.pos]
		if c < utf8.RuneSelf {
			if delim[c] {
				break
			}
			r.pos++
			continue
		}
		ch, n := utf8.DecodeRuneInString(r.src[r.pos:])
		if unicode.IsSpace(ch) {
			break
		}
		if ch == utf8.RuneError && n == 1 {
			valid = false
		}
		r.pos += n
	}
	tok := r.src[start:r.pos]
	if !valid {
		var b strings.Builder
		for _, ch := range tok { // each invalid byte becomes U+FFFD
			b.WriteRune(ch)
		}
		tok = b.String()
	}
	switch tok {
	case "":
		return nil, r.errf("empty token")
	case ".":
		return nil, r.errf("lone dot is not a datum")
	case "nil", "NIL":
		return nil, nil
	}
	if numberLike(tok) {
		// ParseInt accepts no '.', 'e' or 'E', and a float needs one.
		if strings.ContainsAny(tok, ".eE") {
			if f, err := strconv.ParseFloat(tok, 64); err == nil &&
				!strings.ContainsAny(tok, "abcdfghijklmnopqrstuvwxyz") {
				return Float(f), nil
			}
		} else if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
			return Int(i), nil
		}
	}
	return Symbol(tok), nil
}

// numberLike reports whether tok can read as a number: it starts with a
// digit, or with '+', '-' or '.' followed by more.
func numberLike(tok string) bool {
	switch c := tok[0]; {
	case '0' <= c && c <= '9':
		return true
	case c == '+' || c == '-' || c == '.':
		return len(tok) > 1
	}
	return false
}

// Parse reads a single s-expression from src, requiring that nothing but
// whitespace and comments follow it.
func Parse(src string) (Value, error) {
	r := NewReader(src)
	v, ok, err := r.Read()
	if err != nil {
		return nil, err
	}
	if !ok && r.More() {
		return nil, r.errf("no datum")
	}
	if r.More() {
		return nil, r.errf("trailing input")
	}
	return v, nil
}

// ParseAll reads every s-expression in src.
func ParseAll(src string) ([]Value, error) {
	r := NewReader(src)
	var out []Value
	for r.More() {
		v, ok, err := r.Read()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out, nil
}
