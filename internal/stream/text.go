package stream

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

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
		text := strings.TrimSpace(tr.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		it, err := tr.parseLine(text)
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

func (tr *TextReader) parseLine(text string) (Item, error) {
	fields := strings.Fields(text)
	ts, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return Item{}, fmt.Errorf("bad timestamp %q: %w", fields[0], err)
	}
	if err := FiniteTime(ts); err != nil {
		return Item{}, err
	}
	dims := make([]uint32, 0, len(fields)-1)
	vals := make([]float64, 0, len(fields)-1)
	for _, f := range fields[1:] {
		colon := strings.IndexByte(f, ':')
		if colon <= 0 || colon == len(f)-1 {
			return Item{}, fmt.Errorf("bad coordinate %q", f)
		}
		d, err := strconv.ParseUint(f[:colon], 10, 32)
		if err != nil {
			return Item{}, fmt.Errorf("bad dimension %q: %w", f[:colon], err)
		}
		v, err := strconv.ParseFloat(f[colon+1:], 64)
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
