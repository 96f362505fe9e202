package stream

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"

	"sssj/internal/vec"
)

// TextReader parses the text dataset format: one item per line,
//
//	<timestamp> <dim>:<val> <dim>:<val> ...
//
// Blank lines and lines starting with '#' are skipped. Vectors are
// normalized to unit length on read unless RawValues is set.
type TextReader struct {
	sc        *bufio.Scanner
	nextID    uint64
	line      int
	prevTime  float64
	started   bool
	RawValues bool // keep values as-is instead of L2-normalizing
	Strict    bool // reject out-of-order timestamps
}

// NewTextReader returns a TextReader over r.
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	return &TextReader{sc: sc}
}

// Next implements Source.
func (tr *TextReader) Next() (Item, error) {
	for tr.sc.Scan() {
		tr.line++
		line := bytes.TrimSpace(tr.sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		it, err := tr.parseLine(line)
		if err != nil {
			return Item{}, fmt.Errorf("stream: line %d: %w", tr.line, err)
		}
		if tr.Strict && tr.started && it.Time < tr.prevTime {
			return Item{}, fmt.Errorf("stream: line %d: %w", tr.line, ErrOutOfOrder)
		}
		tr.prevTime = it.Time
		tr.started = true
		return it, nil
	}
	if err := tr.sc.Err(); err != nil {
		return Item{}, err
	}
	return Item{}, io.EOF
}

// parseLine parses a trimmed, non-comment line over its bytes in place,
// allocating only the item's dims and vals when the line is accepted.
// The string(b) conversions handed to strconv do not escape and so do
// not allocate for fields of up to 32 bytes.
func (tr *TextReader) parseLine(line []byte) (Item, error) {
	f, rest := nextField(line)
	ts, err := strconv.ParseFloat(string(f), 64)
	if err != nil {
		return Item{}, fmt.Errorf("bad timestamp %q: %w", f, err)
	}
	if err := FiniteTime(ts); err != nil {
		return Item{}, err
	}
	n := bytes.Count(rest, []byte{':'}) // at least the coordinates of an accepted line
	dims := make([]uint32, 0, n)
	vals := make([]float64, 0, n)
	for f, rest = nextField(rest); len(f) > 0; f, rest = nextField(rest) {
		colon := bytes.IndexByte(f, ':')
		if colon <= 0 || colon == len(f)-1 {
			return Item{}, fmt.Errorf("bad coordinate %q", f)
		}
		d, err := strconv.ParseUint(string(f[:colon]), 10, 32)
		if err != nil {
			return Item{}, fmt.Errorf("bad dimension %q: %w", f[:colon], err)
		}
		v, err := strconv.ParseFloat(string(f[colon+1:]), 64)
		if err != nil {
			return Item{}, fmt.Errorf("bad value %q: %w", f[colon+1:], err)
		}
		dims = append(dims, uint32(d))
		vals = append(vals, v)
	}
	v, err := vec.Owned(dims, vals, !tr.RawValues)
	if err != nil {
		return Item{}, err
	}
	it := Item{ID: tr.nextID, Time: ts, Vec: v}
	tr.nextID++
	return it, nil
}

// nextField returns the first field of b and what follows it, splitting
// at white space as strings.Fields does; f is empty when b holds no
// field. A byte below 0x80 is looked up in asciiSpace, any other
// decoded as UTF-8.
func nextField(b []byte) (f, rest []byte) {
	i := 0
	for i < len(b) {
		w := 1
		if c := b[i]; c >= utf8.RuneSelf {
			w = unicodeSpaceWidth(b[i:])
		} else if !asciiSpace[c] {
			w = 0
		}
		if w == 0 {
			break
		}
		i += w
	}
	j := i
	for ; j < len(b); j++ { // a continuation byte never starts a space rune
		if c := b[j]; c < utf8.RuneSelf && asciiSpace[c] || c >= utf8.RuneSelf && unicodeSpaceWidth(b[j:]) > 0 {
			break
		}
	}
	return b[i:j], b[j:]
}

// asciiSpace marks the bytes below 0x80 that unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// unicodeSpaceWidth returns the width of the white space rune b starts
// with, or 0 if it starts with none.
func unicodeSpaceWidth(b []byte) int {
	if r, w := utf8.DecodeRune(b); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// WriteText writes items in the text format.
func WriteText(w io.Writer, items []Item) error {
	bw := bufio.NewWriter(w)
	for _, it := range items {
		if _, err := fmt.Fprintf(bw, "%g", it.Time); err != nil {
			return err
		}
		for i := range it.Vec.Dims {
			if _, err := fmt.Fprintf(bw, " %d:%g", it.Vec.Dims[i], it.Vec.Vals[i]); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
