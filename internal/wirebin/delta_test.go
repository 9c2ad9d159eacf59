package wirebin

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
)

// appendCRC seals a hand-built body with the frame trailer.
func appendCRC(body []byte) []byte {
	return appendUint32(body, crc32.Checksum(body, crcTable))
}

// testDelta builds a representative delta: two groups, three stripes,
// integer-valued counts next to a raw-mode group, and an unsorted spend
// ledger the encoder must canonicalize.
func testDelta() *Delta {
	return &Delta{
		Node:   "node-a",
		Tenant: "default",
		Epoch:  7,
		Seq:    7,
		Counts: [][]float64{
			{3, 0, 1, 9},
			{0, 0.5, math.Inf(1), -1},
		},
		Ns: []float64{13, 2.5},
		StripeSums: [][]float64{
			{1.25, -0.5, 0},
			{math.Copysign(0, -1), 3.75, math.NaN()},
		},
		Spend: []SpendEntry{
			{User: "carol", Eps: 2},
			{User: "alice", Eps: 1},
			{User: "bob", Eps: 0.0625},
		},
	}
}

// deltasEqual compares deltas with bit-level float semantics (NaN-safe,
// −0 ≠ +0 — the merge plane preserves bit patterns, so the tests must
// distinguish them too).
func deltasEqual(a, b *Delta) bool {
	if a.Node != b.Node || a.Tenant != b.Tenant || a.Epoch != b.Epoch || a.Seq != b.Seq {
		return false
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if len(a.Counts) != len(b.Counts) || len(a.StripeSums) != len(b.StripeSums) {
		return false
	}
	for g := range a.Counts {
		if !reflect.DeepEqual(bits(a.Counts[g]), bits(b.Counts[g])) ||
			!reflect.DeepEqual(bits(a.StripeSums[g]), bits(b.StripeSums[g])) {
			return false
		}
	}
	return reflect.DeepEqual(bits(a.Ns), bits(b.Ns)) &&
		reflect.DeepEqual(a.Spend, b.Spend)
}

func TestDeltaRoundTrip(t *testing.T) {
	d := testDelta()
	frame, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDelta(frame); err != nil {
		t.Fatalf("VerifyDelta: %v", err)
	}
	got, err := DecodeDelta(frame)
	if err != nil {
		t.Fatalf("DecodeDelta: %v", err)
	}
	want := testDelta()
	// The wire ledger is sorted; the round-tripped delta carries it that way.
	want.Spend = []SpendEntry{
		{User: "alice", Eps: 1},
		{User: "bob", Eps: 0.0625},
		{User: "carol", Eps: 2},
	}
	if !deltasEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestDeltaSizeBounds: DeltaFixedBytes plus DeltaSpendBytes of every
// entry bounds the encoded frame at the field caps (longest node and
// tenant, raw-mode counts, 255-byte ids) and at small shapes.
func TestDeltaSizeBounds(t *testing.T) {
	long := string(bytes.Repeat([]byte{'x'}, MaxUserLen))
	for _, tc := range []struct {
		name    string
		node    string
		tenant  string
		buckets []int
		stripes int
		raw     bool
		users   []string
	}{
		{"small", "a", "", []int{1}, 1, false, []string{"u"}},
		{"uvarint counts", "node-a", "default", []int{64, 1024}, 16, false, []string{"alice", "bob"}},
		{"at the caps", long, long, []int{MaxDeltaBuckets, 3}, 64, true, []string{long, long[1:] + "y", "z"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := &Delta{Node: tc.node, Tenant: tc.tenant, Epoch: math.MaxUint64, Seq: math.MaxUint64}
			for _, b := range tc.buckets {
				counts := make([]float64, b)
				for i := range counts {
					counts[i] = 1 << 52 // the longest uvarint a packable count takes
					if tc.raw {
						counts[i] = 0.5
					}
				}
				d.Counts = append(d.Counts, counts)
				d.Ns = append(d.Ns, 1<<52)
				d.StripeSums = append(d.StripeSums, make([]float64, tc.stripes))
			}
			bound := DeltaFixedBytes(tc.tenant, tc.buckets, tc.stripes)
			for _, u := range tc.users {
				d.Spend = append(d.Spend, SpendEntry{User: u, Eps: 1})
				bound += DeltaSpendBytes(u)
			}
			frame, err := EncodeDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			if len(frame) > bound {
				t.Fatalf("frame of %d bytes exceeds the bound %d", len(frame), bound)
			}
		})
	}
}

func TestDeltaEncodeDeterministic(t *testing.T) {
	a, err := EncodeDelta(testDelta())
	if err != nil {
		t.Fatal(err)
	}
	// Same content, different spend order in memory.
	d := testDelta()
	d.Spend[0], d.Spend[2] = d.Spend[2], d.Spend[0]
	b, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same delta content encoded to different bytes")
	}
}

func TestDeltaEncodeDoesNotMutate(t *testing.T) {
	d := testDelta()
	if _, err := EncodeDelta(d); err != nil {
		t.Fatal(err)
	}
	if d.Spend[0].User != "carol" {
		t.Fatal("EncodeDelta reordered the caller's spend slice")
	}
}

func TestDeltaCorruptionDetected(t *testing.T) {
	frame, err := EncodeDelta(testDelta())
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		for _, flip := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), frame...)
			mut[i] ^= flip
			if err := VerifyDelta(mut); err == nil {
				t.Fatalf("byte %d flipped by %#x passed verification", i, flip)
			}
		}
	}
	if err := VerifyDelta(frame[:deltaHeaderSize]); !errors.Is(err, ErrFrameTooShort) {
		t.Fatalf("short frame: got %v, want ErrFrameTooShort", err)
	}
	notDelta := append([]byte("DAPF"), frame[4:]...)
	if err := VerifyDelta(notDelta); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("ingest magic: got %v, want ErrBadMagic", err)
	}
}

// TestDeltaIngestDecoderRejects keeps the two frame kinds disjoint: an
// ingest decoder fed a delta frame (and vice versa) must fail on magic,
// not misparse.
func TestDeltaIngestDecoderRejects(t *testing.T) {
	frame, err := EncodeDelta(testDelta())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(frame); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("ingest Verify on delta frame: got %v, want ErrBadMagic", err)
	}
	var enc Encoder
	ingest, err := enc.Encode("default", 1, []Entry{{User: "u", Group: 0, Values: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDelta(ingest); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("VerifyDelta on ingest frame: got %v, want ErrBadMagic", err)
	}
}

func TestDeltaEncodeRejectsMalformed(t *testing.T) {
	cases := map[string]func(*Delta){
		"empty node":       func(d *Delta) { d.Node = "" },
		"no groups":        func(d *Delta) { d.Counts = nil; d.Ns = nil; d.StripeSums = nil },
		"ragged ns":        func(d *Delta) { d.Ns = d.Ns[:1] },
		"ragged stripes":   func(d *Delta) { d.StripeSums[1] = d.StripeSums[1][:1] },
		"empty group":      func(d *Delta) { d.Counts[0] = nil },
		"duplicate ledger": func(d *Delta) { d.Spend[0].User = "bob" },
		"empty user":       func(d *Delta) { d.Spend[1].User = "" },
	}
	for name, mutate := range cases {
		d := testDelta()
		mutate(d)
		if _, err := EncodeDelta(d); err == nil {
			t.Errorf("%s: encode accepted a malformed delta", name)
		}
	}
}

func TestDeltaDecodeRejectsUnsortedLedger(t *testing.T) {
	d := testDelta()
	d.Spend = d.Spend[:2] // carol, alice — encoder would sort them
	frame, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-corrupt: swap the two ledger entries in the encoded body and
	// re-seal the CRC, producing a syntactically valid but unsorted frame.
	body := frame[:len(frame)-trailerSize]
	alice := bytes.Index(body, []byte("\x05alice"))
	carol := bytes.Index(body, []byte("\x05carol"))
	if alice < 0 || carol < 0 || alice+14 != carol {
		t.Fatalf("unexpected ledger layout (alice@%d carol@%d)", alice, carol)
	}
	swapped := append([]byte(nil), body[:alice]...)
	swapped = append(swapped, body[carol:carol+14]...)
	swapped = append(swapped, body[alice:alice+14]...)
	swapped = appendCRC(swapped)
	if _, err := DecodeDelta(swapped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unsorted ledger: got %v, want ErrCorrupt", err)
	}
}

func TestDeltaDecodeLimits(t *testing.T) {
	// A tiny frame claiming 2^20 spends must be rejected by the
	// remaining-bytes bound before any allocation.
	d := testDelta()
	d.Spend = nil
	frame, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[:len(frame)-trailerSize]
	if body[len(body)-1] != 0 {
		t.Fatal("expected trailing zero spend count")
	}
	huge := append([]byte(nil), body[:len(body)-1]...)
	huge = append(huge, 0x80, 0x80, 0x40) // uvarint 2^20
	huge = appendCRC(huge)
	if _, err := DecodeDelta(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized spend count: got %v, want ErrCorrupt", err)
	}
}
