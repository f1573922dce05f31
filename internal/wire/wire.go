// Package wire provides the canonical binary encoding used for every
// signed structure in proxykit (proxy certificates, tickets, checks) and
// the length-prefixed framing used on network connections.
//
// Signatures are computed over encoded bytes, so encoding must be
// deterministic: fixed field order, fixed-width integers in big-endian
// byte order, and length-prefixed variable fields. The Encoder/Decoder
// pair implements a minimal schema-less format; each structure's
// marshaling code fixes its own field order.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// Limits protecting decoders from hostile inputs.
const (
	// MaxFieldLen bounds a single variable-length field.
	MaxFieldLen = 1 << 24
	// MaxFrameLen bounds one framed network message.
	MaxFrameLen = 1 << 26
	// MaxSliceLen bounds the element count of encoded slices.
	MaxSliceLen = 1 << 20
)

// Decoding errors.
var (
	ErrTruncated  = errors.New("wire: truncated input")
	ErrFieldSize  = errors.New("wire: field exceeds size limit")
	ErrTrailing   = errors.New("wire: trailing bytes after structure")
	ErrFrameSize  = errors.New("wire: frame exceeds size limit")
	ErrSliceCount = errors.New("wire: slice exceeds element limit")
)

// Encoder accumulates a deterministic byte encoding. The zero value is
// ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder with capacity preallocated for sizeHint
// bytes.
func NewEncoder(sizeHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// Bytes returns the accumulated encoding. The returned slice aliases the
// encoder's buffer; callers must not retain it across further writes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Uint8 appends a single byte.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint8(1)
	} else {
		e.Uint8(0)
	}
}

// Uint32 appends a fixed-width big-endian uint32.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Uint64 appends a fixed-width big-endian uint64.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int64 appends a two's-complement int64.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Time appends an instant as Unix nanoseconds. The zero time encodes as
// math.MinInt64 so it survives round-trips distinctly.
func (e *Encoder) Time(t time.Time) {
	if t.IsZero() {
		e.Int64(math.MinInt64)
		return
	}
	e.Int64(t.UnixNano())
}

// Bytes32 appends a variable-length byte field with a uint32 length
// prefix.
func (e *Encoder) Bytes32(b []byte) {
	e.Uint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// StringSlice appends a count-prefixed slice of strings.
func (e *Encoder) StringSlice(ss []string) {
	e.Uint32(uint32(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// BytesSlice appends a count-prefixed slice of byte fields.
func (e *Encoder) BytesSlice(bs [][]byte) {
	e.Uint32(uint32(len(bs)))
	for _, b := range bs {
		e.Bytes32(b)
	}
}

// Decoder consumes an encoding produced by Encoder. Errors are sticky:
// after the first failure every subsequent read returns the zero value
// and Err reports the failure.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps buf for decoding. The buffer is not copied.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish verifies the input was consumed exactly and returns any pending
// error.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint8 reads one byte.
func (d *Decoder) Uint8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a boolean; any nonzero value is true.
func (d *Decoder) Bool() bool { return d.Uint8() != 0 }

// Uint32 reads a big-endian uint32.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Uint64 reads a big-endian uint64.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int64 reads a two's-complement int64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Time reads an instant encoded by Encoder.Time.
func (d *Decoder) Time() time.Time {
	v := d.Int64()
	if d.err != nil || v == math.MinInt64 {
		return time.Time{}
	}
	return time.Unix(0, v)
}

// Bytes32 reads a length-prefixed byte field. The result is a copy.
func (d *Decoder) Bytes32() []byte {
	n := d.Uint32()
	if d.err != nil {
		return nil
	}
	if n > MaxFieldLen {
		d.fail(ErrFieldSize)
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uint32()
	if d.err != nil {
		return ""
	}
	if n > MaxFieldLen {
		d.fail(ErrFieldSize)
		return ""
	}
	b := d.take(int(n))
	return string(b)
}

// StringSlice reads a count-prefixed slice of strings.
func (d *Decoder) StringSlice() []string {
	n := d.Uint32()
	if d.err != nil {
		return nil
	}
	if n > MaxSliceLen {
		d.fail(ErrSliceCount)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, min(int(n), 1024))
	for i := uint32(0); i < n; i++ {
		out = append(out, d.String())
		if d.err != nil {
			return nil
		}
	}
	return out
}

// BytesSlice reads a count-prefixed slice of byte fields.
func (d *Decoder) BytesSlice() [][]byte {
	n := d.Uint32()
	if d.err != nil {
		return nil
	}
	if n > MaxSliceLen {
		d.fail(ErrSliceCount)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([][]byte, 0, min(int(n), 1024))
	for i := uint32(0); i < n; i++ {
		out = append(out, d.Bytes32())
		if d.err != nil {
			return nil
		}
	}
	return out
}

// WriteFrame writes one length-prefixed message to w as a single Write
// call. A single write matters when w is an unbuffered net.Conn shared
// by concurrent senders: header and body issued as two writes can
// interleave with another frame, tearing the stream irrecoverably.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameLen {
		return ErrFrameSize
	}
	bp := getFrameBuf(4 + len(payload))
	frame := *bp
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	copy(frame[4:], payload)
	_, err := w.Write(frame)
	putFrameBuf(bp)
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed message from r. The payload is
// freshly allocated and owned by the caller.
func ReadFrame(r io.Reader) ([]byte, error) {
	return readFrame(r, nil)
}

// ReadFrameReuse reads one length-prefixed message from r into scratch
// when it has sufficient capacity, allocating only when the frame is
// larger. It returns the payload (which may alias scratch) and a buffer
// to pass as scratch on the next call. Only for read loops that fully
// consume each frame before reading the next — the payload must not
// escape the loop iteration.
func ReadFrameReuse(r io.Reader, scratch []byte) (payload, next []byte, err error) {
	payload, err = readFrame(r, scratch)
	if err != nil {
		return nil, scratch, err
	}
	if cap(payload) > cap(scratch) {
		scratch = payload
	}
	return payload, scratch, nil
}

func readFrame(r io.Reader, scratch []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameLen {
		return nil, ErrFrameSize
	}
	var payload []byte
	if int(n) <= cap(scratch) {
		payload = scratch[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: read frame body: %w", err)
	}
	return payload, nil
}
