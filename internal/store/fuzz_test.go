package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// fuzzRecordsEqual compares records field-wise with bit-exact float
// comparison, so NaN payloads round-tripping through the codec count as
// equal instead of tripping on NaN != NaN.
func fuzzRecordsEqual(a, b *Record) bool {
	if a.Type != b.Type || a.Tenant != b.Tenant || a.User != b.User ||
		a.Group != b.Group || a.Seq != b.Seq || !bytes.Equal(a.Spec, b.Spec) {
		return false
	}
	if len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// FuzzWALRecord feeds arbitrary bytes to the WAL record payload decoder:
// it must never panic, and any payload it accepts must re-encode to a
// canonical form that decodes back to the identical record.
func FuzzWALRecord(f *testing.F) {
	seeds := []Record{
		{Type: RecIngest, Tenant: "t", User: "u", Group: 1, Values: []float64{0.25, math.NaN(), -1}},
		{Type: RecRotate, Tenant: "t", Seq: 42},
		{Type: RecJoin, Tenant: "t", User: "u", Group: 0},
		{Type: RecTenantCreate, Tenant: "t", Spec: []byte(`{"task":"mean"}`)},
		{Type: RecTenantDelete, Tenant: "gone"},
		{Type: RecMergeDelta, Tenant: "t", User: "node-1", Seq: 7, Spec: []byte("DAPD\x01\x00frame")},
	}
	for i := range seeds {
		f.Add(encodeRecord(nil, &seeds[i]))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var r Record
		if err := decodeRecord(payload, &r); err != nil {
			return // rejected input: only the no-panic property applies
		}
		enc := encodeRecord(nil, &r)
		var r2 Record
		if err := decodeRecord(enc, &r2); err != nil {
			t.Fatalf("re-encoded accepted record fails to decode: %v", err)
		}
		if !fuzzRecordsEqual(&r, &r2) {
			t.Fatalf("record round-trip mismatch:\n first %+v\nsecond %+v", r, r2)
		}
		if enc2 := encodeRecord(nil, &r2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encode is not canonical:\n first %x\nsecond %x", enc, enc2)
		}
	})
}

// FuzzWALSegment feeds arbitrary bytes to the CRC-framed segment reader
// as a segment file: torn and corrupt tails must come back as torn or
// error, never as a panic, and the good-bytes offset can never exceed the
// file length.
func FuzzWALSegment(f *testing.F) {
	var frame []byte
	frame = append(frame, walMagic...)
	frame = append(frame, 1, 0, 0, 0, 0, 0, 0, 0)
	f.Add(frame)                             // header only
	f.Add(append([]byte(nil), frame[:4]...)) // torn header
	f.Add([]byte("not a wal segment at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		good, _, _, err := new(walReader).readSegment(OS{}, path, func(*Record) {})
		if err != nil {
			return
		}
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d out of range [0,%d]", good, len(data))
		}
	})
}

// FuzzSnapshot feeds arbitrary bytes to the snapshot decoder: no panics,
// and accepted snapshots re-encode canonically.
func FuzzSnapshot(f *testing.F) {
	f.Add(encodeSnapshot(&Snapshot{}))
	f.Add([]byte{})
	f.Add([]byte("DAPSNAPgarbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		enc := encodeSnapshot(snap)
		snap2, err := decodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded accepted snapshot fails to decode: %v", err)
		}
		if enc2 := encodeSnapshot(snap2); !bytes.Equal(enc, enc2) {
			t.Fatalf("snapshot encode is not canonical")
		}
	})
}
