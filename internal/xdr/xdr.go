// Package xdr implements the subset of XDR (RFC 1832, External Data
// Representation) needed to marshal SunRPC and NFSv3 messages. The
// simulation needs exact wire sizes, not wire contents: message sizes
// decide transmission times and IP fragment counts, so they must be
// faithful to what the 2.4.4 client put on the network. Headers are
// encoded as real bytes. Bulk WRITE/READ data, which is never modeled
// beyond its length, is carried as a count: an opaque whose bytes are a
// view of the shared zero slab (Zeroes) is counted, not copied, and the
// encoder and decoder treat those counted bytes as zeros that follow the
// encoded head. The RPC hot paths reuse encoders, head buffers and
// decoders instead of allocating per message: AcquireEncoder, Release,
// Detach and RecycleBuffer move encoders through two pools that hold
// only *Encoder, and Decoder.Reset points a long-lived decoder at the
// next message.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Errors returned by the decoder.
var (
	ErrShortBuffer = errors.New("xdr: short buffer")
	ErrBadLength   = errors.New("xdr: invalid length")
)

// Encoder appends XDR-encoded values to a buffer. The zero value is ready
// to use. A zero-slab opaque is counted, not copied (see Opaque): the
// message is then Head() followed by Bulk() zero bytes.
type Encoder struct {
	buf []byte
	// bulk counts zero bytes that belong at offset at of buf. Appends
	// after them go to buf unchecked, keeping the hot path as cheap as
	// a plain append; Head, Bulk and Bytes put the counted bytes in
	// place when anything follows them.
	bulk, at int
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// zeroes backs Zeroes. 1 MiB covers any wsize/rsize the harness
// configures; larger requests fall back to a fresh allocation.
var zeroes = make([]byte, 1<<20)

// Zeroes returns an all-zero payload of n bytes. Payload content is not
// modeled (only wire size), so every bulk-data slice aliases one shared
// read-only slab instead of allocating per RPC, and the encoder counts a
// slab view instead of copying it. The slice must never be written to.
func Zeroes(n int) []byte {
	if n <= len(zeroes) {
		return zeroes[:n:n]
	}
	return make([]byte, n)
}

// isZeroes reports whether b is a view of the zero slab.
func isZeroes(b []byte) bool { return len(b) > 0 && &b[0] == &zeroes[0] }

// The RPC hot paths recycle encoders and head buffers instead of
// allocating one per message: a thousand-client fleet encodes millions
// of RPCs, and per-RPC allocation is almost entirely GC pressure. Bulk
// data is counted, not copied, so pooled buffers stay header-sized.
// Buffer contents never influence behaviour (every byte is written
// before it is read), so pooling cannot change simulation output;
// sync.Pool keeps concurrent sweep workers race-free.
//
// Both pools hold only *Encoder: putting a []byte in a sync.Pool boxes
// its slice header, one allocation per Put. encPool holds encoders with
// a head buffer, shellPool encoders without one. A message's head
// buffer travels on its own once Detach hands it to a datagram, and
// RecycleBuffer puts it back into a shell, so a round trip moves
// encoders between the two pools without allocating.
var (
	encPool   sync.Pool
	shellPool sync.Pool
)

// shell returns a pooled encoder without a buffer, or a new one.
func shell() *Encoder {
	if e, ok := shellPool.Get().(*Encoder); ok {
		return e
	}
	return &Encoder{}
}

// AcquireEncoder returns a pooled encoder. Pair with Release once the
// encoded bytes are no longer referenced by anyone, or with Detach to
// hand the head buffer on.
func AcquireEncoder() *Encoder {
	if e, ok := encPool.Get().(*Encoder); ok {
		return e
	}
	e := shell()
	e.buf = make([]byte, 0, 256)
	return e
}

// Release returns the encoder and its buffer to the pool. The caller
// asserts that no slice of the buffer (Head, Bytes, decoded aliases) is
// still live.
func (e *Encoder) Release() {
	e.bulk = 0
	if e.buf == nil {
		shellPool.Put(e)
		return
	}
	e.buf = e.buf[:0]
	encPool.Put(e)
}

// Detach returns the message's head and bulk count and releases the
// encoder without its buffer. The head now belongs to the caller, who
// passes it to RecycleBuffer once its bytes are dead.
func (e *Encoder) Detach() (head []byte, bulk int) {
	head, bulk = e.Head(), e.Bulk()
	e.buf = nil
	e.Release()
	return head, bulk
}

// RecycleBuffer returns a wire payload whose bytes are dead — fully
// consumed by a decoder whose aliases have been dropped — to the encode
// buffer pool.
func RecycleBuffer(b []byte) {
	e := shell()
	e.buf = b[:0]
	encPool.Put(e)
}

// Bytes returns the whole encoded message (not a copy), writing any
// counted bulk out as zero bytes.
func (e *Encoder) Bytes() []byte {
	if e.bulk != 0 {
		e.spill()
	}
	return e.buf
}

// Head returns the encoded bytes that precede the counted bulk (not a
// copy). If anything was appended after counted bytes, they are written
// out first, so Head and Bulk always describe the message exactly.
func (e *Encoder) Head() []byte {
	e.settle()
	return e.buf
}

// Bulk returns the number of counted zero bytes, padding included, that
// follow Head on the wire.
func (e *Encoder) Bulk() int {
	e.settle()
	return e.bulk
}

// Len returns the encoded message size: head plus counted bulk.
func (e *Encoder) Len() int { return len(e.buf) + e.bulk }

// Reset discards the buffer contents, retaining capacity.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.bulk = 0
}

// settle writes the counted bytes out if anything was appended after
// them, so that only a message's trailing bulk stays counted.
func (e *Encoder) settle() {
	if e.bulk != 0 && e.at < len(e.buf) {
		e.spill()
	}
}

// spill writes the counted bytes out as zeros at their place in the
// message, moving whatever was appended after them up.
func (e *Encoder) spill() {
	end := len(e.buf)
	e.buf = append(e.buf, make([]byte, e.bulk)...)
	copy(e.buf[e.at+e.bulk:], e.buf[e.at:end])
	clear(e.buf[e.at : e.at+e.bulk])
	e.bulk = 0
}

// Uint32 encodes a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Int32 encodes a 32-bit signed integer.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 encodes a 64-bit unsigned integer (XDR hyper).
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Bool encodes a boolean as a 32-bit 0/1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint32(1)
	} else {
		e.Uint32(0)
	}
}

// Opaque encodes variable-length opaque data: a length word followed by
// the bytes padded to a 4-byte boundary. A view of the zero slab is
// counted, not copied: its padded length is added to Bulk.
func (e *Encoder) Opaque(b []byte) {
	e.Uint32(uint32(len(b)))
	e.FixedOpaque(b)
}

// FixedOpaque encodes fixed-length opaque data (bytes plus padding, no
// length word). Like Opaque, it counts a view of the zero slab.
func (e *Encoder) FixedOpaque(b []byte) {
	if isZeroes(b) {
		e.settle() // leaves at == len(e.buf) if any bulk remains
		e.at = len(e.buf)
		e.bulk += FixedLen(len(b))
		return
	}
	e.buf = append(e.buf, b...)
	if pad := (4 - len(b)%4) % 4; pad > 0 {
		e.buf = append(e.buf, make([]byte, pad)...)
	}
}

// String encodes an XDR string (same wire form as Opaque).
func (e *Encoder) String(s string) { e.Opaque([]byte(s)) }

// Decoder consumes XDR-encoded values from a buffer, optionally
// followed by a count of bulk zero bytes (NewBulkDecoder).
type Decoder struct {
	buf  []byte
	off  int
	bulk int
}

// NewDecoder returns a decoder reading from b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// NewBulkDecoder returns a decoder over an encoder's two parts: the head
// bytes followed by bulk counted zero bytes. It decodes exactly what
// NewDecoder would over the written-out message.
func NewBulkDecoder(head []byte, bulk int) *Decoder {
	return &Decoder{buf: head, bulk: bulk}
}

// Reset points the decoder at a new message, as NewBulkDecoder would, so
// a long-lived decoder can be reused for every message it reads.
func (d *Decoder) Reset(head []byte, bulk int) {
	*d = Decoder{buf: head, bulk: bulk}
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) + d.bulk - d.off }

// Offset returns the number of consumed bytes.
func (d *Decoder) Offset() int { return d.off }

// Uint32 decodes a 32-bit unsigned integer. A word that runs past the
// head reads the counted bulk as zeros.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, ErrShortBuffer
	}
	off := d.off
	d.off += 4
	if off+4 <= len(d.buf) {
		return binary.BigEndian.Uint32(d.buf[off:]), nil
	}
	var w [4]byte
	copy(w[:], d.buf[min(off, len(d.buf)):])
	return binary.BigEndian.Uint32(w[:]), nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes a 64-bit unsigned integer, reading any counted bulk as
// zeros like Uint32.
func (d *Decoder) Uint64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, ErrShortBuffer
	}
	off := d.off
	d.off += 8
	if off+8 <= len(d.buf) {
		return binary.BigEndian.Uint64(d.buf[off:]), nil
	}
	var w [8]byte
	copy(w[:], d.buf[min(off, len(d.buf)):])
	return binary.BigEndian.Uint64(w[:]), nil
}

// Bool decodes a boolean; any nonzero word is true (per RFC 1832 booleans
// are 0 or 1, but we are liberal in what we accept).
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	return v != 0, err
}

// Opaque decodes variable-length opaque data, returning a copy. Like
// every other read, it is atomic on failure: a bad length restores the
// cursor to before the length word.
func (d *Decoder) Opaque() ([]byte, error) {
	start := d.off
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > uint32(d.Remaining()) {
		d.off = start
		return nil, ErrBadLength
	}
	b, err := d.FixedOpaque(int(n))
	if err != nil {
		d.off = start
	}
	return b, err
}

// FixedOpaque decodes n bytes of fixed-length opaque data plus padding.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	if n < 0 {
		return nil, ErrBadLength
	}
	padded := FixedLen(n)
	if d.Remaining() < padded {
		return nil, ErrShortBuffer
	}
	out := make([]byte, n)
	if d.off < len(d.buf) {
		copy(out, d.buf[d.off:]) // bytes past the head are counted zeros
	}
	d.off += padded
	return out, nil
}

// OpaqueRef decodes variable-length opaque data like Opaque but returns
// a subslice of the decoder's buffer instead of a copy, or a view of
// the zero slab when the data lies in the counted bulk. The result is
// only valid while the underlying buffer is, and must not be mutated.
// Hot paths (bulk WRITE/READ payloads, file handles, credentials) use
// it to avoid copying data the simulation never inspects.
func (d *Decoder) OpaqueRef() ([]byte, error) {
	start := d.off
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > uint32(d.Remaining()) {
		d.off = start
		return nil, ErrBadLength
	}
	padded := FixedLen(int(n))
	if d.Remaining() < padded {
		d.off = start
		return nil, ErrShortBuffer
	}
	var b []byte
	switch end := d.off + int(n); {
	case end <= len(d.buf):
		b = d.buf[d.off:end:end]
	case d.off >= len(d.buf):
		b = Zeroes(int(n))
	default:
		// Straddles the end of the head: only hand-built input does this.
		b = make([]byte, n)
		copy(b, d.buf[d.off:])
	}
	d.off += padded
	return b, nil
}

// String decodes an XDR string.
func (d *Decoder) String() (string, error) {
	b, err := d.Opaque()
	return string(b), err
}

// OpaqueLen returns the encoded size of variable-length opaque data of n
// bytes: 4-byte length word plus the payload rounded up to 4 bytes.
func OpaqueLen(n int) int { return 4 + FixedLen(n) }

// FixedLen returns the encoded size of n bytes of fixed opaque data.
func FixedLen(n int) int { return n + (4-n%4)%4 }

// StringLen returns the encoded size of an XDR string.
func StringLen(s string) int { return OpaqueLen(len(s)) }

// Check is a convenience for decode sequences: it returns the first
// non-nil error.
func Check(errs ...error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("xdr: field %d: %w", i, err)
		}
	}
	return nil
}
