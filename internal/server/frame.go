package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"sssj/internal/apss"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// Item frames are the binary form of the three item verbs. A connection
// may mix them freely with text lines: the server tells them apart by
// the first byte. Little endian throughout.
//
//	request:  0xF5 marker     (no UTF-8 text, hence no verb, starts with it)
//	          kind            'A' ADD, 'N' ADDNOW, 'P' PUT
//	          side            'A' or 'B'; PUT only — ADD and ADDNOW use the
//	                          connection's SIDE, as their text forms do
//	          uint64 id       PUT only
//	          then one internal/stream binary record:
//	          float64 time    raw bits; ignored by ADDNOW
//	          uint32  nnz     at most MaxFrameNNZ
//	          nnz × (uint32 dim, float64 value)
//
//	reply:    zero or more  'M' uint64 x, uint64 y, float64 sim, dot, dt
//	          closed by one 'K' uint64 id                       (OK)
//	                    or  'B' | 'V' | 'E' uint16 n, n bytes   (BUSY session,
//	                                          MOVED addr, ERR message)
//
// Replies are tagged records rather than a counted block because matches
// stream out of the join before their number is known (see emitFrame).
// Every float crosses as its IEEE bits, so both directions are exact for
// all three kinds; the text verbs stay for people, nc and scripts.
const (
	frameMarker = 0xF5

	frameAdd    = 'A'
	frameAddNow = 'N'
	framePut    = 'P'

	tagMatch = 'M'
	tagOK    = 'K'
	tagBusy  = 'B'
	tagMoved = 'V'
	tagErr   = 'E'

	frameHeaderSize = 3 + 8 + stream.RecordHeaderSize
	matchSize       = 5 * 8 // after the tag

	// MaxFrameNNZ bounds the coordinates of one item frame. A frame
	// announcing more is refused and its connection closed: the server
	// will not read that far to find the next request.
	MaxFrameNNZ = 1 << 16

	maxFrameSize = frameHeaderSize + MaxFrameNNZ*stream.CoordSize

	// maxLineBytes bounds one text line in either direction — an ADD of
	// about 50 000 coordinates — so a peer that never sends a newline
	// costs a bounded buffer.
	maxLineBytes = 1 << 20

	// connReadBuf is the server's per-connection read buffer; frame
	// bodies are decoded out of it in chunks of whole coordinates.
	connReadBuf = 1 << 16
	frameChunk  = connReadBuf / stream.CoordSize * stream.CoordSize
)

// ErrLineTooLong reports a text line over the protocol's 1 MiB bound.
// The line has been consumed, so the connection is still aligned.
var ErrLineTooLong = errors.New("line too long")

// errFrameTooLarge refuses, before anything is sent, a vector the server
// would close the connection over.
var errFrameTooLarge = fmt.Errorf("server: item exceeds %d coordinates", MaxFrameNNZ)

// readLine reads one text line of at most maxLineBytes into *buf (reused
// across calls) and returns it without its newline. A longer line is
// consumed to its end (or to the end of input), never buffered, and
// reported as ErrLineTooLong. At end of input a short unterminated rest
// comes back along with the error.
func readLine(r *bufio.Reader, buf *[]byte) ([]byte, error) {
	line, long := (*buf)[:0], false
	for {
		part, err := r.ReadSlice('\n')
		if long = long || len(line)+len(part) > maxLineBytes; !long {
			line = append(line, part...)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		*buf = line[:0]
		if long {
			return nil, ErrLineTooLong
		}
		return line, err
	}
}

// AppendPutFrame appends the PUT frame of one item to b. The cluster
// coordinator encodes an item once with it and hands the same bytes to
// StartPut on every target worker.
func AppendPutFrame(b []byte, id uint64, side apss.Side, t float64, v vec.Vector) []byte {
	return appendFrame(b, framePut, side, id, t, v)
}

func appendFrame(b []byte, kind byte, side apss.Side, id uint64, t float64, v vec.Vector) []byte {
	b = append(b, frameMarker, kind, 'A'+byte(side))
	b = binary.LittleEndian.AppendUint64(b, id)
	return stream.AppendRecord(b, t, v)
}

// serveFrame reads and executes the item frame at the head of r. It
// reports whether the connection must close: the input ended inside the
// frame, or the frame's length cannot be trusted (unknown kind) or will
// not be honoured (nnz over MaxFrameNNZ), so the next request cannot be
// found. A frame that is merely unacceptable — bad side, non-finite time
// or value, PUT on a lateness session — is consumed whole and answered
// with the message its text verb gives.
func (st *connState) serveFrame(r *bufio.Reader) (closeConn bool) {
	hdr, err := r.Peek(frameHeaderSize)
	if err != nil {
		return true
	}
	kind, sideByte := hdr[1], hdr[2]
	id := binary.LittleEndian.Uint64(hdr[3:])
	t, nnz := stream.RecordHeader(hdr[11:])
	r.Discard(frameHeaderSize)

	if kind != frameAdd && kind != frameAddNow && kind != framePut {
		st.frameErr(fmt.Errorf("unknown frame kind %q", kind))
		return true
	}
	if nnz > MaxFrameNNZ {
		st.frameErr(fmt.Errorf("frame nnz %d exceeds %d", nnz, MaxFrameNNZ))
		return true
	}
	req := ingestReq{kind: ingestAdd, t: t, stampNow: kind == frameAddNow, side: st.side, emit: st.matchFrame}
	if kind == framePut {
		req.explicitID, req.id = true, id
		req.side, err = st.sess.putSide(string(sideByte))
	}
	if err == nil && !req.stampNow {
		err = stream.FiniteTime(t)
	}
	if err != nil {
		if _, derr := r.Discard(int(nnz) * stream.CoordSize); derr != nil {
			return true
		}
		st.frameErr(err)
		return false
	}
	// The body is decoded straight out of the read buffer, a chunk at a
	// time, and dims/vals — the only allocations, which the index keeps —
	// grow only by what has already arrived: a header that lies about nnz
	// reserves nothing.
	var dims []uint32
	var vals []float64
	for left := int(nnz) * stream.CoordSize; left > 0; {
		n := min(left, frameChunk)
		b, err := r.Peek(n)
		if err != nil {
			return true
		}
		if dims == nil {
			dims = make([]uint32, 0, n/stream.CoordSize)
			vals = make([]float64, 0, n/stream.CoordSize)
		}
		dims, vals = stream.AppendCoords(dims, vals, b)
		r.Discard(n)
		left -= n
	}
	// PUT coordinates are taken verbatim: the coordinator normalized once.
	if req.v, err = vec.Owned(dims, vals, kind != framePut); err != nil {
		st.frameErr(err)
		return false
	}
	st.frameResp(st.submit(req, false))
	return false
}

// emitFrame is the frame form of the connection's match sink: one 'M'
// record per match, appended to the connection's write buffer by the
// session pipeline while the handler is parked on the reply.
func (st *connState) emitFrame(m apss.Match) error {
	if st.writeErr != nil {
		return nil
	}
	b := append(st.w.AvailableBuffer(), tagMatch)
	b = binary.LittleEndian.AppendUint64(b, m.X)
	b = binary.LittleEndian.AppendUint64(b, m.Y)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Sim))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Dot))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.DT))
	_, st.writeErr = st.w.Write(b)
	return nil
}

// frameResp closes a frame's reply with OK or the typed refusal.
func (st *connState) frameResp(resp ingestResp) {
	switch {
	case resp.busy:
		st.frameText(tagBusy, st.sess.name)
	case resp.moved != "":
		st.frameText(tagMoved, resp.moved)
	case resp.err != nil:
		st.frameErr(resp.err)
	default:
		b := append(st.w.AvailableBuffer(), tagOK)
		st.w.Write(binary.LittleEndian.AppendUint64(b, resp.id))
	}
}

func (st *connState) frameErr(err error) { st.frameText(tagErr, err.Error()) }

// frameText writes a closing record that carries text, cut to what its
// uint16 length can say.
func (st *connState) frameText(tag byte, s string) {
	s = s[:min(len(s), math.MaxUint16)]
	b := append(st.w.AvailableBuffer(), tag)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	st.w.Write(append(b, s...))
}

// item sends one item frame and collects its reply. Add, AddNow and Put
// are this call with their kind.
func (c *Client) item(kind byte, side apss.Side, id uint64, t float64, v vec.Vector) (uint64, []apss.Match, error) {
	c.mu.Lock()
	c.frame = appendFrame(c.frame[:0], kind, side, id, t, v)
	if err := c.sendFrame(c.frame); err != nil {
		c.mu.Unlock()
		return 0, nil, err
	}
	return c.finishFrame(nil)
}

// StartPut sends an AppendPutFrame-encoded item and leaves the request
// open: unless it returns an error, the caller must call FinishPut next,
// and until then every other method of c blocks. Splitting the round
// trip lets the coordinator hand one item to all of its workers before
// it waits for any of them.
func (c *Client) StartPut(frame []byte) error {
	c.mu.Lock()
	if err := c.sendFrame(frame); err != nil {
		c.mu.Unlock()
		return err
	}
	return nil
}

// FinishPut completes the request StartPut opened for item id: it
// appends the matches to dst and returns the extended slice — dst
// itself when the worker refused the item or the connection failed.
func (c *Client) FinishPut(id uint64, dst []apss.Match) ([]apss.Match, error) {
	got, ms, err := c.finishFrame(dst)
	return ms, putAck(id, got, err)
}

// putAck checks that a PUT was acknowledged under the ID it carried.
func putAck(id, got uint64, err error) error {
	if err == nil && got != id {
		err = fmt.Errorf("server: PUT %d acknowledged as %d", id, got)
	}
	return err
}

// sendFrame arms the deadline and writes one frame. Callers hold c.mu.
func (c *Client) sendFrame(frame []byte) error {
	if len(frame) > maxFrameSize {
		return errFrameTooLarge
	}
	c.beginRequest()
	_, err := c.conn.Write(frame)
	return err
}

// finishFrame reads one frame reply, appending its matches to dst, and
// releases c.mu, which its caller took before sending. Records are
// decoded in place in the read buffer; only a refusal's text allocates.
func (c *Client) finishFrame(dst []apss.Match) (uint64, []apss.Match, error) {
	defer c.mu.Unlock()
	ms := dst
	for {
		tag, err := c.r.ReadByte()
		if err != nil {
			return 0, dst, err
		}
		switch tag {
		case tagMatch:
			b, err := c.r.Peek(matchSize)
			if err != nil {
				return 0, dst, unexpectedEOF(err)
			}
			ms = append(ms, apss.Match{
				X:   binary.LittleEndian.Uint64(b),
				Y:   binary.LittleEndian.Uint64(b[8:]),
				Sim: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
				Dot: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
				DT:  math.Float64frombits(binary.LittleEndian.Uint64(b[32:])),
			})
			c.r.Discard(matchSize)
		case tagOK:
			b, err := c.r.Peek(8)
			if err != nil {
				return 0, dst, unexpectedEOF(err)
			}
			id := binary.LittleEndian.Uint64(b)
			c.r.Discard(8)
			return id, ms, nil
		case tagBusy, tagMoved, tagErr:
			b, err := c.r.Peek(2)
			if err != nil {
				return 0, dst, unexpectedEOF(err)
			}
			text := make([]byte, binary.LittleEndian.Uint16(b))
			c.r.Discard(2)
			if _, err := io.ReadFull(c.r, text); err != nil {
				return 0, dst, unexpectedEOF(err)
			}
			switch tag {
			case tagBusy:
				err = &BusyError{Session: string(text)}
			case tagMoved:
				err = &MovedError{Addr: string(text)}
			default:
				err = errors.New(string(text))
			}
			return 0, dst, err
		default:
			return 0, dst, fmt.Errorf("server: unexpected reply tag %q", tag)
		}
	}
}

// unexpectedEOF names an end of input that fell inside a record.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
