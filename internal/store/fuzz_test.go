package store

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"factordb/internal/relstore"
	"factordb/internal/world"
)

// decodeAllocBound caps what decoding a payload of n bytes may allocate:
// every op, column and value the decoder sizes a slice for costs at least
// one input byte, so allocation is linear in the input — 256 bytes per
// input byte covers the widest per-byte case (an op header) with room
// for size-class rounding, plus slack for the runtime's own bookkeeping.
func decodeAllocBound(n int) uint64 { return 256*uint64(n) + 64<<10 }

// FuzzWAL: whatever the bytes, the WAL decoder returns a batch or an
// error — no panic, allocation bounded by the input length — a batch it
// returns decodes identically after re-encoding, and the scanner never
// claims a valid prefix past the image. The input is fuzzed three ways:
// as a log body behind the header (random bytes rarely pass the CRC, so
// the seeds are real frames and truncations of them), as a payload
// decoded directly, and as that payload re-framed behind a valid CRC,
// where the scanner must agree with the decoder.
func FuzzWAL(f *testing.F) {
	var log []byte
	for i, ops := range [][]world.Op{
		{insertOp(100, "añ\x00ẞ"), updateOp(3, "Boston"), deleteOp(5)},
		{{Kind: world.OpUpdate, Rel: "R", Row: -7, Cols: []int{0, 2},
			Vals: []relstore.Value{relstore.Float(math.NaN()), relstore.Bool(false)}}},
		nil,
	} {
		payload := encodePayload(int64(i+1), ops)
		frame := appendFrame(nil, payload)
		log = append(log, frame...)
		f.Add(payload)
		for _, n := range []int{len(frame), len(frame) - 1, len(frame) / 2, 8, 4, 1} {
			f.Add(frame[:n])
		}
	}
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScan(t, append(append([]byte(nil), walHeader...), data...))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		epoch, ops, err := decodePayload(data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > decodeAllocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(data), got, decodeAllocBound(len(data)))
		}

		framed := append(append([]byte(nil), walHeader...), appendFrame(nil, data)...)
		if recs := checkScan(t, framed); (err == nil) != (len(recs) == 1) {
			t.Fatalf("decoder error %v, but the scanner kept %d records of the re-framed payload", err, len(recs))
		}
		if err != nil {
			return
		}
		again := encodePayload(epoch, ops)
		epoch2, ops2, err := decodePayload(again)
		if err != nil {
			t.Fatalf("decoder rejects the re-encoding of a batch it accepted: %v", err)
		}
		// The encoding is injective, so equal encodings are equal batches
		// (NaN floats included, which a field comparison would not match).
		if epoch2 != epoch || !bytes.Equal(encodePayload(epoch2, ops2), again) {
			t.Fatalf("decode(encode(decode(p))) = epoch %d %+v, decode(p) = epoch %d %+v", epoch2, ops2, epoch, ops)
		}
	})
}

// checkScan scans a WAL image that starts with a valid header and checks
// the scanner's framing contract: the valid prefix ends inside the image,
// at its end unless the tail is reported torn, and the records tile the
// bytes between the header and it.
func checkScan(t *testing.T, image []byte) []walRecord {
	t.Helper()
	recs, end, torn, err := scanWAL(image)
	if err != nil {
		t.Fatalf("scanWAL behind a valid header: %v", err)
	}
	if end > int64(len(image)) || (!torn && end != int64(len(image))) {
		t.Fatalf("valid prefix ends at %d of %d bytes (torn=%v)", end, len(image), torn)
	}
	off := len(walHeader)
	for _, r := range recs {
		if !bytes.Equal(image[off:off+len(r.frame)], r.frame) {
			t.Fatalf("record at %d is not the image's bytes there", off)
		}
		off += len(r.frame)
	}
	if int64(off) != end {
		t.Fatalf("records tile %d bytes, the valid prefix ends at %d", off, end)
	}
	return recs
}
