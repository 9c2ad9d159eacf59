package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// The WAL is a sequence of segment files named wal-<firstLSN>.log. Every
// segment starts with an 8-byte magic plus the little-endian LSN of its
// first record; records follow back to back, each framed as
//
//	u32le payload length | u32le CRC-32C(payload) | payload
//
// so a reader can detect a torn tail (short frame or checksum mismatch)
// and truncate to the last intact record. Record LSNs are implicit: the
// segment header carries the first, and each record increments it —
// nothing in the hot append path writes per-record sequence numbers.
//
// The payload is type-tagged, length-prefixed binary (uvarint lengths,
// float64 bit patterns for values), versioned by the segment magic — the
// same self-describing conventions the snapshot format uses, so the two
// can later travel together as a multi-node merge wire format.

// walMagic identifies (and versions) a WAL segment file.
const walMagic = "DAPWAL01"

// walHeaderSize is the segment header length: magic + first LSN.
const walHeaderSize = len(walMagic) + 8

// frameHeaderSize is the per-record frame header: length + CRC.
const frameHeaderSize = 8

// maxRecordBytes bounds a single record frame; larger lengths in a
// corrupted file are treated as a torn tail rather than allocated.
const maxRecordBytes = 16 << 20

// readBufBytes is the WAL scan's read buffer: recovery reads the log a
// MiB per read(2) instead of two reads per record. Each payload is copied
// out of it into walReader.payload, which grows to the largest record.
const readBufBytes = 1 << 20

// castagnoli is the CRC-32C table used for record and snapshot checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RecordType tags a WAL record.
type RecordType uint8

// WAL record types.
const (
	// RecIngest is one accepted report batch: (tenant, user, group,
	// values). Replay feeds it back through the tenant's ingest path.
	RecIngest RecordType = iota + 1
	// RecRotate seals a tenant's live epoch; Seq is the epoch counter
	// after the seal.
	RecRotate
	// RecJoin records a user-group assignment handed out by Join.
	RecJoin
	// RecTenantCreate records a tenant registration; Spec carries the
	// tenant's task-spec JSON (with Serve section), enough to recreate it.
	RecTenantCreate
	// RecTenantDelete records a tenant deletion.
	RecTenantDelete
	// RecMergeDelta is one node's sealed-epoch delta accepted by a
	// coordinator: User carries the node id, Seq the epoch index and
	// Spec the raw CRC-sealed delta frame bytes (wirebin.EncodeDelta),
	// so replay re-verifies and re-merges the exact frame.
	RecMergeDelta
)

// String implements fmt.Stringer.
func (t RecordType) String() string {
	switch t {
	case RecIngest:
		return "ingest"
	case RecRotate:
		return "rotate"
	case RecJoin:
		return "join"
	case RecTenantCreate:
		return "tenant-create"
	case RecTenantDelete:
		return "tenant-delete"
	case RecMergeDelta:
		return "merge-delta"
	}
	return fmt.Sprintf("record(%d)", uint8(t))
}

// Record is one WAL entry. Which fields are meaningful depends on Type;
// LSN is assigned by the log (append order, monotone, gaps only where a
// torn tail was truncated).
type Record struct {
	// LSN is the record's log sequence number.
	LSN uint64
	// Type selects the fields below.
	Type RecordType
	// Tenant names the owning tenant (all types).
	Tenant string
	// User is the reporting or joining user (RecIngest, RecJoin) or the
	// reporting node id (RecMergeDelta).
	User string
	// Group is the user's group index (RecIngest, RecJoin).
	Group int
	// Values are the accepted report values (RecIngest).
	Values []float64
	// Seq is the sealed-epoch counter (RecRotate, RecMergeDelta).
	Seq uint64
	// Spec is the tenant's task-spec JSON (RecTenantCreate) or the raw
	// delta frame bytes (RecMergeDelta).
	Spec []byte
}

// appendUstring appends a uvarint-length-prefixed string.
func appendUstring(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendUbytes appends a uvarint-length-prefixed byte slice.
func appendUbytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// encodeRecord appends r's payload (no frame) to b.
func encodeRecord(b []byte, r *Record) []byte {
	b = append(b, byte(r.Type))
	b = appendUstring(b, r.Tenant)
	switch r.Type {
	case RecIngest:
		b = appendUstring(b, r.User)
		b = binary.AppendUvarint(b, uint64(r.Group))
		b = binary.AppendUvarint(b, uint64(len(r.Values)))
		for _, v := range r.Values {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	case RecRotate:
		b = binary.AppendUvarint(b, r.Seq)
	case RecJoin:
		b = appendUstring(b, r.User)
		b = binary.AppendUvarint(b, uint64(r.Group))
	case RecTenantCreate:
		b = appendUbytes(b, r.Spec)
	case RecTenantDelete:
	case RecMergeDelta:
		b = appendUstring(b, r.User)
		b = binary.AppendUvarint(b, r.Seq)
		b = appendUbytes(b, r.Spec)
	}
	return b
}

// appendFramed appends r as one frame (length, CRC, payload) to b.
func appendFramed(b []byte, r *Record) []byte {
	off := len(b)
	b = append(b, make([]byte, frameHeaderSize)...)
	b = encodeRecord(b, r)
	payload := b[off+frameHeaderSize:]
	binary.LittleEndian.PutUint32(b[off:off+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[off+4:off+8], crc32.Checksum(payload, castagnoli))
	return b
}

// errCorrupt marks an undecodable payload (bad length, short buffer).
var errCorrupt = errors.New("store: corrupt record")

// byteCursor walks a record payload.
type byteCursor struct {
	b   []byte
	off int
}

func (c *byteCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, errCorrupt
	}
	c.off += n
	return v, nil
}

func (c *byteCursor) ustring() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(c.b)-c.off) {
		return "", errCorrupt
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s, nil
}

// ustringAs is ustring that returns prev, without allocating, when the
// bytes spell it — a replayed log names the same tenant record after
// record.
func (c *byteCursor) ustringAs(prev string) (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(c.b)-c.off) {
		return "", errCorrupt
	}
	b := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	if string(b) == prev {
		return prev, nil
	}
	return string(b), nil
}

func (c *byteCursor) ubytes() ([]byte, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.b)-c.off) {
		return nil, errCorrupt
	}
	p := append([]byte(nil), c.b[c.off:c.off+int(n)]...)
	c.off += int(n)
	return p, nil
}

func (c *byteCursor) float64() (float64, error) {
	if len(c.b)-c.off < 8 {
		return 0, errCorrupt
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return v, nil
}

// decodeRecord parses one payload into r, overwriting every field. It
// reuses r's Values storage and, when the tenant is unchanged, its
// Tenant string, so a scan decoding into one Record allocates little
// beyond the user ids.
func decodeRecord(payload []byte, r *Record) error {
	if len(payload) < 1 {
		return errCorrupt
	}
	*r = Record{Tenant: r.Tenant, Values: r.Values[:0]}
	c := byteCursor{b: payload, off: 1}
	r.Type = RecordType(payload[0])
	var err error
	if r.Tenant, err = c.ustringAs(r.Tenant); err != nil {
		return err
	}
	switch r.Type {
	case RecIngest:
		if r.User, err = c.ustring(); err != nil {
			return err
		}
		g, err := c.uvarint()
		if err != nil {
			return err
		}
		r.Group = int(g)
		n, err := c.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(c.b)-c.off)/8 {
			return errCorrupt
		}
		r.Values = slices.Grow(r.Values, int(n))[:n]
		for i := range r.Values {
			if r.Values[i], err = c.float64(); err != nil {
				return err
			}
		}
	case RecRotate:
		if r.Seq, err = c.uvarint(); err != nil {
			return err
		}
	case RecJoin:
		if r.User, err = c.ustring(); err != nil {
			return err
		}
		g, err := c.uvarint()
		if err != nil {
			return err
		}
		r.Group = int(g)
	case RecTenantCreate:
		if r.Spec, err = c.ubytes(); err != nil {
			return err
		}
	case RecTenantDelete:
	case RecMergeDelta:
		if r.User, err = c.ustring(); err != nil {
			return err
		}
		if r.Seq, err = c.uvarint(); err != nil {
			return err
		}
		if r.Spec, err = c.ubytes(); err != nil {
			return err
		}
	default:
		return errCorrupt
	}
	return nil
}

// walReader scans segment files through one read buffer, one payload
// buffer and one decoded Record, all reused from record to record and
// segment to segment.
type walReader struct {
	br      *bufio.Reader
	payload []byte
	rec     Record
}

// readSegment scans one segment file, calling emit for every intact
// record (the *Record is reused for the next one). It returns the byte
// offset of the end of the last intact record (the truncation point when
// the tail is torn), whether a torn/corrupt tail was found, and the next
// LSN after the last intact record. A file too short for the header
// counts as torn at offset 0.
func (w *walReader) readSegment(fs FS, path string, emit func(*Record)) (good int64, nextLSN uint64, torn bool, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	if w.br == nil {
		w.br = bufio.NewReaderSize(f, readBufBytes)
	} else {
		w.br.Reset(f)
	}
	br := w.br
	hdr, err := br.Peek(walHeaderSize)
	if err != nil || string(hdr[:len(walMagic)]) != walMagic {
		return 0, 0, true, nil
	}
	lsn := binary.LittleEndian.Uint64(hdr[len(walMagic):])
	_, _ = br.Discard(walHeaderSize) // peeked: cannot fail
	good = int64(walHeaderSize)
	for {
		frame, err := br.Peek(frameHeaderSize)
		if len(frame) < frameHeaderSize {
			// A clean end of file lands exactly on a frame boundary;
			// anything else is a torn frame header or a read error.
			return good, lsn, len(frame) > 0 || !errors.Is(err, io.EOF), nil
		}
		n := int(binary.LittleEndian.Uint32(frame[:4]))
		crc := binary.LittleEndian.Uint32(frame[4:])
		if n > maxRecordBytes {
			return good, lsn, true, nil
		}
		_, _ = br.Discard(frameHeaderSize)
		w.payload = slices.Grow(w.payload[:0], n)[:n]
		if _, err := io.ReadFull(br, w.payload); err != nil {
			return good, lsn, true, nil
		}
		if crc32.Checksum(w.payload, castagnoli) != crc {
			return good, lsn, true, nil
		}
		if err := decodeRecord(w.payload, &w.rec); err != nil {
			return good, lsn, true, nil
		}
		w.rec.LSN = lsn
		lsn++
		good += int64(frameHeaderSize) + int64(n)
		emit(&w.rec)
	}
}
