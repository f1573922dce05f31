package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundTripScalars(t *testing.T) {
	e := NewEncoder(64)
	now := time.Unix(1234567890, 987654321)
	e.Uint8(7)
	e.Bool(true)
	e.Bool(false)
	e.Uint32(0xdeadbeef)
	e.Uint64(1 << 60)
	e.Int64(-42)
	e.Time(now)
	e.Time(time.Time{})

	d := NewDecoder(e.Bytes())
	if got := d.Uint8(); got != 7 {
		t.Fatalf("uint8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools")
	}
	if got := d.Uint32(); got != 0xdeadbeef {
		t.Fatalf("uint32 = %x", got)
	}
	if got := d.Uint64(); got != 1<<60 {
		t.Fatalf("uint64 = %d", got)
	}
	if got := d.Int64(); got != -42 {
		t.Fatalf("int64 = %d", got)
	}
	if got := d.Time(); !got.Equal(now) {
		t.Fatalf("time = %v", got)
	}
	if got := d.Time(); !got.IsZero() {
		t.Fatalf("zero time = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripVariable(t *testing.T) {
	e := NewEncoder(0)
	e.Bytes32([]byte{1, 2, 3})
	e.Bytes32(nil)
	e.String("principal@REALM")
	e.String("")
	e.StringSlice([]string{"a", "b", "c"})
	e.StringSlice(nil)
	e.BytesSlice([][]byte{{9}, {8, 7}})
	e.BytesSlice(nil)

	d := NewDecoder(e.Bytes())
	if got := d.Bytes32(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", got)
	}
	if got := d.Bytes32(); len(got) != 0 {
		t.Fatalf("nil bytes = %v", got)
	}
	if got := d.String(); got != "principal@REALM" {
		t.Fatalf("string = %q", got)
	}
	if got := d.String(); got != "" {
		t.Fatalf("empty string = %q", got)
	}
	ss := d.StringSlice()
	if len(ss) != 3 || ss[0] != "a" || ss[2] != "c" {
		t.Fatalf("string slice = %v", ss)
	}
	if got := d.StringSlice(); got != nil {
		t.Fatalf("nil slice = %v", got)
	}
	bs := d.BytesSlice()
	if len(bs) != 2 || !bytes.Equal(bs[1], []byte{8, 7}) {
		t.Fatalf("bytes slice = %v", bs)
	}
	if got := d.BytesSlice(); got != nil {
		t.Fatalf("nil bytes slice = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	enc := func() []byte {
		e := NewEncoder(0)
		e.String("grantor")
		e.StringSlice([]string{"r1", "r2"})
		e.Time(time.Unix(100, 0))
		out := make([]byte, len(e.Bytes()))
		copy(out, e.Bytes())
		return out
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("encoding not deterministic")
	}
}

func TestDecoderTruncation(t *testing.T) {
	e := NewEncoder(0)
	e.String("hello")
	full := e.Bytes()
	// Every strict prefix must fail with ErrTruncated, never panic.
	for i := 0; i < len(full); i++ {
		d := NewDecoder(full[:i])
		_ = d.String()
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Fatalf("prefix %d: err = %v", i, d.Err())
		}
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{0x01})
	_ = d.Uint32() // fails
	if d.Err() == nil {
		t.Fatal("expected error")
	}
	first := d.Err()
	_ = d.String()
	_ = d.Uint64()
	if d.Err() != first {
		t.Fatal("error not sticky")
	}
}

func TestDecoderFieldSizeLimit(t *testing.T) {
	e := NewEncoder(0)
	e.Uint32(MaxFieldLen + 1)
	d := NewDecoder(e.Bytes())
	_ = d.Bytes32()
	if !errors.Is(d.Err(), ErrFieldSize) {
		t.Fatalf("err = %v", d.Err())
	}
	d2 := NewDecoder(e.Bytes())
	_ = d2.String()
	if !errors.Is(d2.Err(), ErrFieldSize) {
		t.Fatalf("string err = %v", d2.Err())
	}
}

func TestDecoderSliceCountLimit(t *testing.T) {
	e := NewEncoder(0)
	e.Uint32(MaxSliceLen + 1)
	d := NewDecoder(e.Bytes())
	_ = d.StringSlice()
	if !errors.Is(d.Err(), ErrSliceCount) {
		t.Fatalf("err = %v", d.Err())
	}
	d2 := NewDecoder(e.Bytes())
	_ = d2.BytesSlice()
	if !errors.Is(d2.Err(), ErrSliceCount) {
		t.Fatalf("bytes err = %v", d2.Err())
	}
}

func TestFinishDetectsTrailing(t *testing.T) {
	e := NewEncoder(0)
	e.Uint8(1)
	e.Uint8(2)
	d := NewDecoder(e.Bytes())
	_ = d.Uint8()
	if err := d.Finish(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("err = %v", err)
	}
}

func TestBytes32ReturnsCopy(t *testing.T) {
	e := NewEncoder(0)
	e.Bytes32([]byte{1, 2, 3})
	buf := e.Bytes()
	d := NewDecoder(buf)
	got := d.Bytes32()
	got[0] = 99
	d2 := NewDecoder(buf)
	if d2.Bytes32()[0] != 1 {
		t.Fatal("decoded bytes alias the input buffer")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := [][]byte{[]byte("first"), {}, []byte("third message")}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestFrameSizeLimits(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrameLen+1)); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("write: %v", err)
	}
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // absurd length header
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("read: %v", err)
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("complete")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// Property: any sequence of string/bytes fields round-trips.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(s string, b []byte, ss []string, n uint64, tt int64) bool {
		e := NewEncoder(0)
		e.String(s)
		e.Bytes32(b)
		e.StringSlice(ss)
		e.Uint64(n)
		e.Int64(tt)

		d := NewDecoder(e.Bytes())
		gs := d.String()
		gb := d.Bytes32()
		gss := d.StringSlice()
		gn := d.Uint64()
		gt := d.Int64()
		if err := d.Finish(); err != nil {
			return false
		}
		if gs != s || !bytes.Equal(gb, b) || gn != n || gt != tt {
			return false
		}
		if len(gss) != len(ss) {
			return false
		}
		for i := range ss {
			if gss[i] != ss[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary garbage never panics.
func TestPropertyDecoderNoPanic(t *testing.T) {
	f := func(garbage []byte) bool {
		d := NewDecoder(garbage)
		_ = d.String()
		_ = d.Bytes32()
		_ = d.StringSlice()
		_ = d.BytesSlice()
		_ = d.Time()
		_ = d.Finish()
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncoderLenAndDecoderRemaining(t *testing.T) {
	e := NewEncoder(0)
	if e.Len() != 0 {
		t.Fatal("fresh encoder not empty")
	}
	e.Uint32(7)
	e.String("ab")
	if e.Len() != 4+4+2 {
		t.Fatalf("len = %d", e.Len())
	}
	d := NewDecoder(e.Bytes())
	if v, s := d.Uint32(), d.String(); v != 7 || s != "ab" {
		t.Fatalf("decoded %d, %q", v, s)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("decoder left bytes of a %d-byte encoding: %v", e.Len(), err)
	}
}
