package xdr

import (
	"bytes"
	"testing"
)

// FuzzDecode drives a Decoder over arbitrary bytes with an op script
// and checks the cursor invariants that every nfsproto decoder relies
// on: the offset never exceeds the buffer, Offset+Remaining is always
// exactly the buffer length, a successful read advances the cursor,
// and a failed read leaves it where it was.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, bytes.Repeat([]byte{0xff}, 7))
	f.Add([]byte{4, 4, 4}, []byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o', 0, 0, 0})
	f.Add([]byte{5, 3}, bytes.Repeat([]byte{0xff}, 256))
	f.Add([]byte{2, 2, 2}, []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, script, data []byte) {
		d := NewDecoder(data)
		for _, op := range script {
			before := d.Offset()
			var err error
			switch op % 7 {
			case 0:
				_, err = d.Uint32()
			case 1:
				_, err = d.Int32()
			case 2:
				_, err = d.Uint64()
			case 3:
				_, err = d.Bool()
			case 4:
				_, err = d.Opaque()
			case 5:
				// Length byte comes from the script so the fuzzer can
				// aim it at the padding edge cases.
				_, err = d.FixedOpaque(int(op) % 97)
			case 6:
				_, err = d.String()
			}
			off := d.Offset()
			if off < 0 || off > len(data) {
				t.Fatalf("op %d: offset %d outside [0,%d]", op, off, len(data))
			}
			if off+d.Remaining() != len(data) {
				t.Fatalf("op %d: offset %d + remaining %d != len %d",
					op, off, d.Remaining(), len(data))
			}
			if err != nil {
				if off != before {
					t.Fatalf("op %d: failed read moved cursor %d -> %d", op, before, off)
				}
				return
			}
		}
	})
}

// FuzzRoundTrip encodes one value of each kind and decodes it back:
// the decode must reproduce the inputs exactly and consume the buffer
// fully, for any values the fuzzer picks.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint32(7), int32(-1), uint64(1<<40), true, []byte("opaque"), "str")
	f.Add(uint32(0), int32(0), uint64(0), false, []byte{}, "")
	f.Fuzz(func(t *testing.T, u32 uint32, i32 int32, u64 uint64, b bool, op []byte, s string) {
		e := NewEncoder(64)
		e.Uint32(u32)
		e.Int32(i32)
		e.Uint64(u64)
		e.Bool(b)
		e.Opaque(op)
		e.String(s)

		d := NewDecoder(e.Bytes())
		gu32, e1 := d.Uint32()
		gi32, e2 := d.Int32()
		gu64, e3 := d.Uint64()
		gb, e4 := d.Bool()
		gop, e5 := d.Opaque()
		gs, e6 := d.String()
		if err := Check(e1, e2, e3, e4, e5, e6); err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		if gu32 != u32 || gi32 != i32 || gu64 != u64 || gb != b ||
			!bytes.Equal(gop, op) || gs != s {
			t.Fatalf("round trip mismatch: got (%d %d %d %v %x %q), want (%d %d %d %v %x %q)",
				gu32, gi32, gu64, gb, gop, gs, u32, i32, u64, b, op, s)
		}
		if d.Remaining() != 0 {
			t.Fatalf("round trip left %d bytes", d.Remaining())
		}
	})
}

// FuzzBulk pins the counted-bulk path to the byte codec. An op script
// encodes the same message twice, once with zero-slab views (counted)
// and once with fresh zero buffers (copied): the two must agree on
// Len and on every byte. Then a decoder over the counted encoder's
// (Head, Bulk), and one over arbitrary data followed by extra counted
// zeros, must read exactly what a byte decoder reads over the
// written-out message: the same values, errors and cursor after every
// op.
func FuzzBulk(f *testing.F) {
	f.Add([]byte{0, 3, 1}, []byte{0, 1, 2, 3, 4, 5, 6, 7}, uint16(5))
	f.Add([]byte{3, 4, 2, 3}, []byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'}, uint16(0))
	f.Add([]byte{5, 3, 9, 17}, []byte{0, 0, 32, 0}, uint16(8192))
	f.Fuzz(func(t *testing.T, script, data []byte, extra uint16) {
		counted, copied := NewEncoder(0), NewEncoder(0)
		fresh := func(n int) []byte { return make([]byte, n) }
		for _, op := range script {
			encodeOp(counted, op, data, Zeroes)
			encodeOp(copied, op, data, fresh)
			if counted.Len() != copied.Len() {
				t.Fatalf("op %d: counted Len %d, copied Len %d", op, counted.Len(), copied.Len())
			}
		}
		head := append([]byte(nil), counted.Head()...)
		bulk := counted.Bulk()
		if !bytes.Equal(counted.Bytes(), copied.Bytes()) {
			t.Fatal("counted encoding differs from copied")
		}
		sameReads(t, script, head, bulk)
		sameReads(t, script, data, int(extra))
	})
}

// encodeOp performs the append an op byte selects; zero makes the
// all-zero opaques.
func encodeOp(e *Encoder, op byte, data []byte, zero func(int) []byte) {
	n := int(op) * 37 % 9000
	switch op % 6 {
	case 0:
		e.Uint32(uint32(op) * 0x01010101)
	case 1:
		e.Uint64(uint64(op) << 33)
	case 2:
		e.Opaque(data[:int(op)%(len(data)+1)])
	case 3:
		e.Opaque(zero(n))
	case 4:
		e.FixedOpaque(zero(n))
	case 5:
		e.String("s")
	}
}

// sameReads drives a bulk decoder over (head, bulk) and a byte decoder
// over head followed by bulk zero bytes through the same op script and
// fails on the first difference.
func sameReads(t *testing.T, script, head []byte, bulk int) {
	full := append(append([]byte(nil), head...), make([]byte, bulk)...)
	a, b := NewBulkDecoder(head, bulk), NewDecoder(full)
	for _, op := range script {
		va, ea := decodeOp(a, op)
		vb, eb := decodeOp(b, op)
		if ea != eb {
			t.Fatalf("op %d: bulk decoder error %v, byte decoder error %v", op, ea, eb)
		}
		if ba, ok := va.([]byte); ok {
			if !bytes.Equal(ba, vb.([]byte)) {
				t.Fatalf("op %d: bulk decoder read %x, byte decoder %x", op, ba, vb)
			}
		} else if va != vb {
			t.Fatalf("op %d: bulk decoder read %v, byte decoder %v", op, va, vb)
		}
		if a.Offset() != b.Offset() || a.Remaining() != b.Remaining() {
			t.Fatalf("op %d: cursors differ: %d/%d vs %d/%d", op, a.Offset(), a.Remaining(), b.Offset(), b.Remaining())
		}
		if ea != nil {
			return
		}
	}
}

// decodeOp performs the read an op byte selects.
func decodeOp(d *Decoder, op byte) (any, error) {
	switch op % 8 {
	case 0:
		return d.Uint32()
	case 1:
		return d.Int32()
	case 2:
		return d.Uint64()
	case 3:
		return d.Bool()
	case 4:
		return d.Opaque()
	case 5:
		return d.FixedOpaque(int(op) % 97)
	case 6:
		return d.String()
	default:
		return d.OpaqueRef()
	}
}
