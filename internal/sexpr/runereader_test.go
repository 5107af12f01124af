package sexpr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// runeReader is the reference the byte-level Reader is held to
// (FuzzReaderMatchesRuneReader): the reader as it was when it converted
// the source to runes, built each token rune by rune and tried strconv
// on every atom.
type runeReader struct {
	src []rune
	pos int
	// line tracks the current 1-based line for error messages.
	line int
}

// newRuneReader returns a runeReader over src.
func newRuneReader(src string) *runeReader {
	return &runeReader{src: []rune(src), line: 1}
}

func (r *runeReader) errf(format string, args ...any) error {
	return &SyntaxError{Line: r.line, Msg: fmt.Sprintf(format, args...)}
}

func (r *runeReader) peek() (rune, bool) {
	if r.pos >= len(r.src) {
		return 0, false
	}
	return r.src[r.pos], true
}

func (r *runeReader) next() (rune, bool) {
	ch, ok := r.peek()
	if ok {
		r.pos++
		if ch == '\n' {
			r.line++
		}
	}
	return ch, ok
}

func (r *runeReader) skipSpace() {
	for {
		ch, ok := r.peek()
		if !ok {
			return
		}
		switch {
		case unicode.IsSpace(ch):
			r.next()
		case ch == ';':
			for {
				c, ok := r.next()
				if !ok || c == '\n' {
					break
				}
			}
		default:
			return
		}
	}
}

// More reports whether any non-space, non-comment input remains.
func (r *runeReader) More() bool {
	r.skipSpace()
	_, ok := r.peek()
	return ok
}

// Read parses the next datum. At end of input it returns (nil, false, nil);
// the ok result distinguishes "read the atom nil" from "no more input".
func (r *runeReader) Read() (v Value, ok bool, err error) {
	r.skipSpace()
	ch, any := r.peek()
	if !any {
		return nil, false, nil
	}
	switch ch {
	case '(', '[':
		v, err = r.readList()
		return v, err == nil, err
	case ')', ']':
		r.next()
		return nil, false, r.errf("unexpected %q", ch)
	case '\'':
		r.next()
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
// match their own kind: '[' pairs with ']' and '(' with ')'.
func (r *runeReader) readList() (Value, error) {
	open, _ := r.next()
	closer := ')'
	if open == '[' {
		closer = ']'
	}
	var items []Value
	dotted := Value(nil)
	sawDot := false
	for {
		r.skipSpace()
		ch, ok := r.peek()
		if !ok {
			return nil, r.errf("unterminated list")
		}
		if ch == ')' || ch == ']' {
			if ch != closer {
				return nil, r.errf("mismatched %q closing %q", ch, open)
			}
			r.next()
			break
		}
		if ch == '.' && r.isDotSeparator() {
			r.next()
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
		items = append(items, item)
	}
	out := dotted
	for i := len(items) - 1; i >= 0; i-- {
		out = Cons(items[i], out)
	}
	return out, nil
}

// isDotSeparator reports whether the '.' at the current position is a
// dotted-pair separator rather than the start of a symbol or float.
func (r *runeReader) isDotSeparator() bool {
	if r.pos+1 >= len(r.src) {
		return true
	}
	nxt := r.src[r.pos+1]
	return unicode.IsSpace(nxt) || nxt == '(' || nxt == ')' || nxt == '[' || nxt == ']'
}

func (r *runeReader) readString() (Value, error) {
	r.next() // opening quote
	var b strings.Builder
	for {
		ch, ok := r.next()
		if !ok {
			return nil, r.errf("unterminated string")
		}
		switch ch {
		case '"':
			return Str(b.String()), nil
		case '\\':
			esc, ok := r.next()
			if !ok {
				return nil, r.errf("unterminated escape")
			}
			switch esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteRune(esc)
			}
		default:
			b.WriteRune(ch)
		}
	}
}

func runeIsTerminator(ch rune) bool {
	return unicode.IsSpace(ch) || ch == '(' || ch == ')' || ch == '[' ||
		ch == ']' || ch == '"' || ch == ';' || ch == '\''
}

func (r *runeReader) readAtom() (Value, error) {
	var b strings.Builder
	for {
		ch, ok := r.peek()
		if !ok || runeIsTerminator(ch) {
			break
		}
		b.WriteRune(ch)
		r.next()
	}
	tok := b.String()
	if tok == "" {
		return nil, r.errf("empty token")
	}
	if tok == "." {
		return nil, r.errf("lone dot is not a datum")
	}
	if tok == "nil" || tok == "NIL" {
		return nil, nil
	}
	if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return Int(i), nil
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil &&
		strings.ContainsAny(tok, ".eE") && !strings.ContainsAny(tok, "abcdfghijklmnopqrstuvwxyz") {
		return Float(f), nil
	}
	return Symbol(tok), nil
}

// runeParse reads a single s-expression from src, requiring that nothing but
// whitespace and comments follow it.
func runeParse(src string) (Value, error) {
	r := newRuneReader(src)
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

// runeParseAll reads every s-expression in src.
func runeParseAll(src string) ([]Value, error) {
	r := newRuneReader(src)
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
