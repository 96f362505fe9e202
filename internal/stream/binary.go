package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"sssj/internal/vec"
)

// Binary dataset format (little endian):
//
//	header:  8-byte magic "SSSJBIN1"
//	record:  float64 timestamp
//	         uint32  nnz
//	         nnz ×  (uint32 dim, float64 value)
//
// Records appear in stream order; IDs are assigned sequentially on read.
// The record is also the body of the server's item frames (see
// internal/server/frame.go), which is why its codec is exported.
var binaryMagic = [8]byte{'S', 'S', 'S', 'J', 'B', 'I', 'N', '1'}

// RecordHeaderSize and CoordSize are the encoded sizes of a record's
// (timestamp, nnz) header and of one (dim, value) coordinate.
const (
	RecordHeaderSize = 12
	CoordSize        = 12
)

// AppendRecord appends the record of (t, v) to b.
func AppendRecord(b []byte, t float64, v vec.Vector) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
	b = binary.LittleEndian.AppendUint32(b, uint32(v.NNZ()))
	for i, d := range v.Dims {
		b = binary.LittleEndian.AppendUint32(b, d)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Vals[i]))
	}
	return b
}

// RecordHeader decodes the RecordHeaderSize bytes that start a record.
func RecordHeader(b []byte) (t float64, nnz uint32) {
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), binary.LittleEndian.Uint32(b[8:])
}

// AppendCoords decodes the len(b)/CoordSize coordinates in b onto dims
// and vals.
func AppendCoords(dims []uint32, vals []float64, b []byte) ([]uint32, []float64) {
	for ; len(b) >= CoordSize; b = b[CoordSize:] {
		dims = append(dims, binary.LittleEndian.Uint32(b))
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(b[4:])))
	}
	return dims, vals
}

// ErrBadMagic is returned when a binary dataset has an unknown header.
var ErrBadMagic = errors.New("stream: bad binary dataset magic")

// maxBinaryNNZ bounds a single record so corrupted files cannot trigger
// huge allocations.
const maxBinaryNNZ = 1 << 24

// binaryInitCap caps the capacity a record's coordinate slices start
// with, so a header claiming maxBinaryNNZ costs kilobytes, not the
// ~200 MB it claims, until its coordinates are really there.
const binaryInitCap = 4096

// BinaryWriter writes items in the binary dataset format.
type BinaryWriter struct {
	w           *bufio.Writer
	wroteHeader bool
	rec         []byte // the record being written, reused
}

// NewBinaryWriter returns a BinaryWriter on w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriter(w)}
}

// Write appends one item.
func (bw *BinaryWriter) Write(it Item) error {
	if !bw.wroteHeader {
		if _, err := bw.w.Write(binaryMagic[:]); err != nil {
			return err
		}
		bw.wroteHeader = true
	}
	bw.rec = AppendRecord(bw.rec[:0], it.Time, it.Vec)
	_, err := bw.w.Write(bw.rec)
	return err
}

// Flush flushes buffered output. An empty dataset still gets a header.
func (bw *BinaryWriter) Flush() error {
	if !bw.wroteHeader {
		if _, err := bw.w.Write(binaryMagic[:]); err != nil {
			return err
		}
		bw.wroteHeader = true
	}
	return bw.w.Flush()
}

// WriteBinary writes all items and flushes.
func WriteBinary(w io.Writer, items []Item) error {
	bw := NewBinaryWriter(w)
	for _, it := range items {
		if err := bw.Write(it); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// BinaryReader reads the binary dataset format as a Source.
type BinaryReader struct {
	r          *bufio.Reader
	nextID     uint64
	readHeader bool
}

// NewBinaryReader returns a BinaryReader on r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReader(r)}
}

// Next implements Source.
func (br *BinaryReader) Next() (Item, error) {
	if !br.readHeader {
		var magic [8]byte
		if _, err := io.ReadFull(br.r, magic[:]); err != nil {
			if err == io.EOF {
				return Item{}, io.ErrUnexpectedEOF
			}
			return Item{}, err
		}
		if magic != binaryMagic {
			return Item{}, ErrBadMagic
		}
		br.readHeader = true
	}
	var head [RecordHeaderSize]byte
	if _, err := io.ReadFull(br.r, head[:]); err != nil {
		if err == io.EOF {
			return Item{}, io.EOF // clean end between records
		}
		return Item{}, err
	}
	ts, nnz := RecordHeader(head[:])
	if err := FiniteTime(ts); err != nil {
		return Item{}, fmt.Errorf("stream: record %d: %w", br.nextID, err)
	}
	if nnz > maxBinaryNNZ {
		return Item{}, fmt.Errorf("stream: record nnz %d exceeds limit", nnz)
	}
	// The header alone must not size the allocation: start small and let
	// append grow the slices only as coordinates actually arrive.
	dims := make([]uint32, 0, min(nnz, binaryInitCap))
	vals := make([]float64, 0, min(nnz, binaryInitCap))
	var buf [CoordSize]byte
	for i := uint32(0); i < nnz; i++ {
		if _, err := io.ReadFull(br.r, buf[:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Item{}, err
		}
		dims, vals = AppendCoords(dims, vals, buf[:])
	}
	v := vec.Vector{Dims: dims, Vals: vals}
	if err := v.Validate(); err != nil {
		return Item{}, fmt.Errorf("stream: record %d: %w", br.nextID, err)
	}
	it := Item{ID: br.nextID, Time: ts, Vec: v}
	br.nextID++
	return it, nil
}
