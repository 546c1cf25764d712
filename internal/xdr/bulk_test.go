package xdr

import (
	"bytes"
	"testing"
)

// bulkSizes covers empty, sub-word, padded, page and multi-page data.
var bulkSizes = []int{0, 1, 3, 4, 5, 4096, 8191, 8192, 32768}

// encodeWith writes a small message around one opaque of n bytes made
// by data: a header before it, and optionally a trailer after it that
// forces the counted bulk to be written out.
func encodeWith(e *Encoder, data func(int) []byte, n int, trailer bool) {
	e.Uint32(0xfeedface)
	e.Uint64(1 << 40)
	e.Opaque(data(n))
	if trailer {
		e.String("tail")
	}
}

func TestBulkLenMatchesBytes(t *testing.T) {
	for _, n := range bulkSizes {
		for _, trailer := range []bool{false, true} {
			e := NewEncoder(64)
			encodeWith(e, Zeroes, n, trailer)
			if got := len(e.Head()) + e.Bulk(); got != e.Len() {
				t.Fatalf("n=%d trailer=%v: head %d + bulk %d != Len %d", n, trailer, len(e.Head()), e.Bulk(), e.Len())
			}
			want := e.Len()
			if got := len(e.Bytes()); got != want {
				t.Fatalf("n=%d trailer=%v: Len() = %d before Bytes, len(Bytes()) = %d", n, trailer, want, got)
			}
			if e.Bulk() != 0 || e.Len() != want {
				t.Fatalf("n=%d trailer=%v: after Bytes bulk = %d, Len = %d", n, trailer, e.Bulk(), e.Len())
			}
		}
	}
}

func TestBulkCountedNotCopied(t *testing.T) {
	e := NewEncoder(64)
	encodeWith(e, Zeroes, 8192, false)
	if e.Bulk() != 8192 || len(e.Head()) != 4+8+4 {
		t.Fatalf("head %d bytes, bulk %d: want the 8 KiB counted after a 16-byte head", len(e.Head()), e.Bulk())
	}
	// A trailer writes the counted bytes out, so only the last opaque of
	// a message is ever counted.
	e.Reset()
	encodeWith(e, Zeroes, 8192, true)
	if e.Bulk() != 0 {
		t.Fatalf("bulk %d after a trailer, want 0", e.Bulk())
	}
	// Slices that only look like the slab are copied.
	e.Reset()
	e.Opaque(make([]byte, 8))
	e.Opaque(Zeroes(16)[4:])
	if e.Bulk() != 0 {
		t.Fatalf("bulk %d for non-slab slices, want 0", e.Bulk())
	}
}

func TestBulkBytesMatchCopy(t *testing.T) {
	for _, n := range bulkSizes {
		for _, trailer := range []bool{false, true} {
			counted, copied := NewEncoder(64), NewEncoder(64)
			encodeWith(counted, Zeroes, n, trailer)
			encodeWith(copied, func(n int) []byte { return make([]byte, n) }, n, trailer)
			if !bytes.Equal(counted.Bytes(), copied.Bytes()) {
				t.Fatalf("n=%d trailer=%v: counted encoding differs from copied", n, trailer)
			}
		}
	}
}

// split captures an encoder's two parts before Bytes writes the bulk
// out, and returns them with the written-out message.
func split(e *Encoder) (head []byte, bulk int, full []byte) {
	head = append([]byte(nil), e.Head()...)
	bulk = e.Bulk()
	return head, bulk, e.Bytes()
}

func TestBulkDecoderMatchesBytes(t *testing.T) {
	for _, n := range bulkSizes {
		for _, trailer := range []bool{false, true} {
			e := NewEncoder(64)
			encodeWith(e, Zeroes, n, trailer)
			head, bulk, full := split(e)
			for _, ref := range []bool{false, true} {
				a, b := NewBulkDecoder(head, bulk), NewDecoder(full)
				a32, ea1 := a.Uint32()
				b32, eb1 := b.Uint32()
				a64, ea2 := a.Uint64()
				b64, eb2 := b.Uint64()
				var ad, bd []byte
				var ea3, eb3 error
				if ref {
					ad, ea3 = a.OpaqueRef()
					bd, eb3 = b.OpaqueRef()
				} else {
					ad, ea3 = a.Opaque()
					bd, eb3 = b.Opaque()
				}
				if err := Check(ea1, ea2, ea3, eb1, eb2, eb3); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if a32 != b32 || a64 != b64 || !bytes.Equal(ad, bd) || len(ad) != n {
					t.Fatalf("n=%d ref=%v: bulk decoder read (%x %x %d bytes), byte decoder (%x %x %d bytes)",
						n, ref, a32, a64, len(ad), b32, b64, len(bd))
				}
				if a.Offset() != b.Offset() || a.Remaining() != b.Remaining() {
					t.Fatalf("n=%d ref=%v: cursors differ: %d/%d vs %d/%d",
						n, ref, a.Offset(), a.Remaining(), b.Offset(), b.Remaining())
				}
			}
		}
	}
}

func TestBulkOneByteShort(t *testing.T) {
	for _, n := range bulkSizes[1:] {
		e := NewEncoder(64)
		encodeWith(e, Zeroes, n, false)
		head, bulk, full := split(e)
		for _, ref := range []bool{false, true} {
			a, b := NewBulkDecoder(head, bulk-1), NewDecoder(full[:len(full)-1])
			for _, d := range []*Decoder{a, b} {
				if _, err := d.Uint32(); err != nil {
					t.Fatal(err)
				}
				if _, err := d.Uint64(); err != nil {
					t.Fatal(err)
				}
			}
			before := a.Offset()
			var ea, eb error
			if ref {
				_, ea = a.OpaqueRef()
				_, eb = b.OpaqueRef()
			} else {
				_, ea = a.Opaque()
				_, eb = b.Opaque()
			}
			if ea == nil || ea != eb {
				t.Fatalf("n=%d ref=%v: bulk decoder error %v, byte decoder error %v", n, ref, ea, eb)
			}
			if a.Offset() != before || b.Offset() != before {
				t.Fatalf("n=%d ref=%v: failed read moved cursors to %d and %d, want %d",
					n, ref, a.Offset(), b.Offset(), before)
			}
		}
	}
}

func TestBulkOpaqueRefIsSlabView(t *testing.T) {
	e := NewEncoder(64)
	e.Opaque(Zeroes(8192))
	d := NewBulkDecoder(e.Head(), e.Bulk())
	b, err := d.OpaqueRef()
	if err != nil || len(b) != 8192 || !isZeroes(b) {
		t.Fatalf("OpaqueRef over counted bulk: %d bytes, slab view %v, err %v", len(b), isZeroes(b), err)
	}
}

func TestZeroes(t *testing.T) {
	if b := Zeroes(8192); len(b) != 8192 || cap(b) != 8192 || !isZeroes(b) {
		t.Fatalf("Zeroes(8192): len %d cap %d slab %v", len(b), cap(b), isZeroes(b))
	}
	big := len(zeroes) + 1
	if b := Zeroes(big); len(b) != big || isZeroes(b) {
		t.Fatalf("Zeroes(%d) should be a fresh buffer", big)
	}
}
