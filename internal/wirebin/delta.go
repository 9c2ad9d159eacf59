package wirebin

import (
	"hash/crc32"
	"math"
	"slices"
	"strings"
)

// Delta frames — the merge wire.
//
// A delta frame carries one node's sealed epoch for one tenant to the
// coordinator: the per-group bucket counts and report totals, the
// per-stripe value sums, and per-user cumulative budget spends (the
// users the node charged since its previous delta, or its whole ledger).
// Deltas reuse the ingest frame's engineering (little-endian
// fixed header, uvarint packing, CRC-32C trailer) under a distinct
// magic ("DAPD" vs "DAPF") so the two decoders never confuse each
// other's bytes and the v1 ingest decoder — which rejects any nonzero
// flag byte — stays byte-compatible.
//
// Layout (all multi-byte integers little-endian):
//
//	magic     [4]byte  "DAPD"
//	version   u8       1
//	flags     u8       reserved, must be zero
//	epoch     u64      sealed epoch index (tenant seq after the seal)
//	seq       u64      node-local delta sequence, for duplicate drops
//	node      uvarint len | bytes
//	tenant    uvarint len | bytes
//	groups    uvarint
//	stripes   uvarint  lock stripes per group histogram
//	per group:
//	  buckets uvarint
//	  mode    u8       0 = counts as uvarints, 1 = raw float64 bits
//	  counts  buckets × (uvarint | u64 bits)
//	  n       uvarint | u64 bits (same mode)
//	  sums    stripes × u64 float64 bits (per-stripe value sums)
//	spends    uvarint
//	per spend, sorted by user, strictly increasing:
//	  user    uvarint len | bytes
//	  eps     u64 float64 bits
//	crc32c    u32      Castagnoli, over everything above
//
// Bucket counts and report totals are integer-valued by construction
// (each accepted value increments one bucket by one), so the uvarint
// mode is the norm; the raw mode is a safety hatch that keeps encoding
// total for any float64. Per-stripe sums are always raw bits: they are
// true floating-point accumulations whose bit pattern the coordinator
// must preserve to reproduce the single-node stripe fold exactly.
//
// Encoding is deterministic: one delta has exactly one byte
// representation (spends sorted, canonical uvarints), so WAL replay and
// property tests can compare frames byte-for-byte.

// DeltaContentType is the media type of a delta frame on the merge wire.
const DeltaContentType = "application/x-dap-delta"

// Delta frame limits. Deltas are coordinator-to-node traffic on the
// lossless HTTP wire only, so the size cap is generous compared to
// ingest frames: the spend list grows with the users a node charges in
// one epoch (about 620k at 17-byte ids fit in MaxDeltaBytes).
const (
	// MaxDeltaBytes caps a whole encoded delta frame.
	MaxDeltaBytes = 16 << 20
	// MaxDeltaGroups caps the group count in one delta.
	MaxDeltaGroups = 1 << 10
	// MaxDeltaBuckets caps one group's histogram resolution.
	MaxDeltaBuckets = 1 << 16
	// MaxDeltaStripes caps the per-group stripe count.
	MaxDeltaStripes = 1 << 12
	// MaxDeltaSpends caps the ledger entries in one delta.
	MaxDeltaSpends = 1 << 21
	// MaxNodeLen caps the node identifier length.
	MaxNodeLen = 255
)

const (
	deltaHeaderSize = 4 + 1 + 1 + 8 + 8
	deltaCountsU64  = 1 // group count mode: raw float64 bits
	deltaCountsUv   = 0 // group count mode: uvarints
)

var deltaMagic = [4]byte{'D', 'A', 'P', 'D'}

// SpendEntry is one user's cumulative budget spend inside a Delta.
type SpendEntry struct {
	User string
	Eps  float64
}

// Delta is one node's sealed epoch for one tenant, decoded. Counts and
// Ns mirror the engine's per-group histograms; StripeSums[g][s] is the
// value sum accumulated by stripe s of group g, kept separate so the
// coordinator can re-fold stripes in index order and reproduce the
// single-node sum bit-for-bit. Spend holds per-user cumulative budget
// spends, sorted by user: a node's seal lists the users it charged since
// its previous seal, or its whole ledger after a hook install or a
// resend. The coordinator max-merges spends per user, so either form
// rebuilds the same ledger.
type Delta struct {
	Node   string
	Tenant string
	Epoch  uint64
	Seq    uint64

	Counts     [][]float64
	Ns         []float64
	StripeSums [][]float64
	Spend      []SpendEntry
}

// packableScalar reports whether v survives a uvarint round trip.
func packableScalar(v float64) bool {
	u := uint64(v)
	return v == math.Trunc(v) && v >= 0 && v < (1<<53) && float64(u) == v
}

// EncodeDelta serializes d into a fresh CRC-sealed delta frame.
// Encoding is total for any finite or non-finite float64 content and
// deterministic: Spend is written sorted by user (an unsorted Spend is
// sorted in a copy — d is not mutated; a seal's is already sorted) and
// every integer takes its canonical uvarint form.
func EncodeDelta(d *Delta) ([]byte, error) {
	if len(d.Node) == 0 || len(d.Node) > MaxNodeLen || len(d.Tenant) > MaxTenantLen {
		return nil, ErrCorrupt
	}
	groups := len(d.Counts)
	if groups == 0 || groups > MaxDeltaGroups ||
		len(d.Ns) != groups || len(d.StripeSums) != groups {
		return nil, ErrCorrupt
	}
	stripes := len(d.StripeSums[0])
	if stripes == 0 || stripes > MaxDeltaStripes {
		return nil, ErrCorrupt
	}
	if len(d.Spend) > MaxDeltaSpends {
		return nil, ErrFrameTooLarge
	}
	b := make([]byte, 0, deltaHeaderSize+256)
	b = append(b, deltaMagic[:]...)
	b = append(b, Version, 0)
	b = appendUint64(b, d.Epoch)
	b = appendUint64(b, d.Seq)
	b = appendUvarint(b, uint64(len(d.Node)))
	b = append(b, d.Node...)
	b = appendUvarint(b, uint64(len(d.Tenant)))
	b = append(b, d.Tenant...)
	b = appendUvarint(b, uint64(groups))
	b = appendUvarint(b, uint64(stripes))
	for g := 0; g < groups; g++ {
		counts := d.Counts[g]
		if len(counts) == 0 || len(counts) > MaxDeltaBuckets {
			return nil, ErrCorrupt
		}
		if len(d.StripeSums[g]) != stripes {
			return nil, ErrCorrupt
		}
		b = appendUvarint(b, uint64(len(counts)))
		mode := byte(deltaCountsUv)
		if !packable(counts) || !packableScalar(d.Ns[g]) {
			mode = deltaCountsU64
		}
		b = append(b, mode)
		for _, c := range counts {
			if mode == deltaCountsUv {
				b = appendUvarint(b, uint64(c))
			} else {
				b = appendUint64(b, math.Float64bits(c))
			}
		}
		if mode == deltaCountsUv {
			b = appendUvarint(b, uint64(d.Ns[g]))
		} else {
			b = appendUint64(b, math.Float64bits(d.Ns[g]))
		}
		for _, s := range d.StripeSums[g] {
			b = appendUint64(b, math.Float64bits(s))
		}
	}
	spend := d.Spend
	if !spendSorted(spend) {
		spend = slices.Clone(spend)
		slices.SortFunc(spend, func(a, b SpendEntry) int { return strings.Compare(a.User, b.User) })
	}
	b = appendUvarint(b, uint64(len(spend)))
	prev := ""
	for i, e := range spend {
		if len(e.User) == 0 || len(e.User) > MaxUserLen {
			return nil, ErrCorrupt
		}
		if i > 0 && e.User <= prev {
			return nil, ErrCorrupt // duplicate user in the ledger
		}
		prev = e.User
		b = appendUvarint(b, uint64(len(e.User)))
		b = append(b, e.User...)
		b = appendUint64(b, math.Float64bits(e.Eps))
	}
	if len(b)+trailerSize > MaxDeltaBytes {
		return nil, ErrFrameTooLarge
	}
	b = appendUint32(b, crc32.Checksum(b, crcTable))
	return b, nil
}

// spendSorted reports whether spend is strictly increasing by user.
func spendSorted(spend []SpendEntry) bool {
	for i := 1; i < len(spend); i++ {
		if spend[i-1].User >= spend[i].User {
			return false
		}
	}
	return true
}

// VerifyDelta checks framing and the CRC without decoding the body —
// the cheap first gate before a delta enters the WAL.
func VerifyDelta(buf []byte) error {
	if len(buf) < deltaHeaderSize+trailerSize {
		return ErrFrameTooShort
	}
	if len(buf) > MaxDeltaBytes {
		return ErrFrameTooLarge
	}
	if buf[0] != deltaMagic[0] || buf[1] != deltaMagic[1] ||
		buf[2] != deltaMagic[2] || buf[3] != deltaMagic[3] {
		return ErrBadMagic
	}
	if buf[4] != Version {
		return ErrBadVersion
	}
	if buf[5] != 0 {
		return ErrCorrupt // reserved flags must be zero in v1
	}
	body, trailer := buf[:len(buf)-trailerSize], buf[len(buf)-trailerSize:]
	if crc32.Checksum(body, crcTable) != le32(trailer) {
		return ErrBadCRC
	}
	return nil
}

// DecodeDelta verifies and decodes one delta frame. The returned Delta
// aliases nothing in buf.
func DecodeDelta(buf []byte) (*Delta, error) {
	if err := VerifyDelta(buf); err != nil {
		return nil, err
	}
	d := &Delta{
		Epoch: le64(buf[6:14]),
		Seq:   le64(buf[14:22]),
	}
	p := buf[deltaHeaderSize : len(buf)-trailerSize]
	var ok bool
	if d.Node, p, ok = deltaString(p, MaxNodeLen); !ok || d.Node == "" {
		return nil, ErrCorrupt
	}
	if d.Tenant, p, ok = deltaString(p, MaxTenantLen); !ok {
		return nil, ErrCorrupt
	}
	var groups, stripes uint64
	if groups, p, ok = readUvarint(p); !ok || groups == 0 || groups > MaxDeltaGroups {
		return nil, ErrCorrupt
	}
	if stripes, p, ok = readUvarint(p); !ok || stripes == 0 || stripes > MaxDeltaStripes {
		return nil, ErrCorrupt
	}
	d.Counts = make([][]float64, groups)
	d.Ns = make([]float64, groups)
	d.StripeSums = make([][]float64, groups)
	for g := range d.Counts {
		var buckets uint64
		if buckets, p, ok = readUvarint(p); !ok || buckets == 0 || buckets > MaxDeltaBuckets {
			return nil, ErrCorrupt
		}
		// A uvarint-mode bucket costs ≥ 1 byte, a raw one 8: either way
		// the remaining bytes bound the claimed count before allocating.
		if buckets > uint64(len(p)) {
			return nil, ErrCorrupt
		}
		if len(p) < 1 {
			return nil, ErrCorrupt
		}
		mode := p[0]
		p = p[1:]
		if mode != deltaCountsUv && mode != deltaCountsU64 {
			return nil, ErrCorrupt
		}
		counts := make([]float64, buckets)
		for b := range counts {
			if counts[b], p, ok = deltaScalar(p, mode); !ok {
				return nil, ErrCorrupt
			}
		}
		d.Counts[g] = counts
		if d.Ns[g], p, ok = deltaScalar(p, mode); !ok {
			return nil, ErrCorrupt
		}
		if uint64(len(p)) < 8*stripes {
			return nil, ErrCorrupt
		}
		sums := make([]float64, stripes)
		for s := range sums {
			sums[s] = math.Float64frombits(le64(p[:8]))
			p = p[8:]
		}
		d.StripeSums[g] = sums
	}
	var spends uint64
	if spends, p, ok = readUvarint(p); !ok || spends > MaxDeltaSpends {
		return nil, ErrCorrupt
	}
	// Each ledger entry costs at least 1 (len) + 1 (user) + 8 (bits).
	if spends > uint64(len(p))/10 {
		return nil, ErrCorrupt
	}
	d.Spend = make([]SpendEntry, spends)
	prev := ""
	for i := range d.Spend {
		var user string
		if user, p, ok = deltaString(p, MaxUserLen); !ok || user == "" {
			return nil, ErrCorrupt
		}
		if i > 0 && user <= prev {
			return nil, ErrCorrupt // ledger must be strictly sorted
		}
		prev = user
		if len(p) < 8 {
			return nil, ErrCorrupt
		}
		d.Spend[i] = SpendEntry{User: user, Eps: math.Float64frombits(le64(p[:8]))}
		p = p[8:]
	}
	if len(p) != 0 {
		return nil, ErrCorrupt // trailing garbage inside the CRC'd body
	}
	return d, nil
}

// deltaString reads one uvarint-length-prefixed string of at most max
// bytes, copying out of buf.
func deltaString(p []byte, max int) (string, []byte, bool) {
	n, p, ok := readUvarint(p)
	if !ok || n > uint64(max) || n > uint64(len(p)) {
		return "", p, false
	}
	return string(p[:n]), p[n:], true
}

// deltaScalar reads one histogram scalar in the group's count mode.
func deltaScalar(p []byte, mode byte) (float64, []byte, bool) {
	if mode == deltaCountsUv {
		u, p, ok := readUvarint(p)
		return float64(u), p, ok
	}
	if len(p) < 8 {
		return 0, p, false
	}
	return math.Float64frombits(le64(p[:8])), p[8:], true
}
