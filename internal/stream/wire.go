// Package stream is the sigmond streaming assertion-monitoring
// service: it multiplexes thousands of independent plant signal
// streams over the Table 1-3 monitor engine of internal/core, each
// stream carrying the seven monitored signals of the paper's Table 4.
//
// The service is a sharded monitor pool. Stream IDs are split into
// contiguous ranges, one range per shard; each shard owns a goroutine,
// the monitor instances of its streams, a bounded ingest queue and a
// batched violation sink, so the hot path never takes a cross-shard
// lock. Clients submit fixed-layout binary sample batches (the wire
// format below) that are decoded and dispatched with zero heap
// allocations per sample.
//
// Per-stream guarantee (observer equivalence): a sigmond stream fed a
// sequence of samples reports exactly the violations — same tick, same
// assertion, same offending value — that an inline core monitor suite
// fed the same sequence reports. Inline implements that reference
// observer; cmd/sigmon's replay mode checks the two byte for byte.
// See SIGMOND.md for the operator-level contract.
package stream

import (
	"fmt"

	"easig/internal/target"
)

// NumSignals is the number of signal values per sample record: one per
// Table 4 monitored signal (the wire format is fixed-layout, so this
// is a protocol constant, not a negotiable field).
const NumSignals = target.NumEAs

// Wire format. All integers are big-endian. A request body is one or
// more batches back to back; each batch is an 8-byte header followed
// by count fixed-size records:
//
//	header:  "EASB" | version uint8 | reserved uint8 | count uint16
//	record:  stream uint32 | tick uint32 | flags uint8 | mode uint8 |
//	         7 x value uint16
//
// A record carries one tick's observation of all seven monitored
// signals of one stream. The tick is the client's timestamp in
// milliseconds of plant time; it becomes Violation.Time.
const (
	// HeaderBytes is the fixed batch header size.
	HeaderBytes = 8
	// RecordBytes is the fixed sample record size.
	RecordBytes = 24
	// WireVersion is the protocol version this package speaks.
	WireVersion = 1
	// MaxBatchRecords bounds one batch (the count field is 16-bit).
	MaxBatchRecords = 1<<16 - 1
)

// Record flags.
const (
	// FlagReset marks the first sample of a new session on a stream
	// whose monitor instances are being reused (a reconnect): every
	// monitor is Reset before the sample is applied, so it is tested as
	// a first observation (bounds/domain only, no rate test against the
	// previous session's stale s'). Lifetime counters keep accumulating
	// — see the Monitor reuse contract in internal/core.
	FlagReset = 0x01
)

// magic opens every batch header.
var magic = [4]byte{'E', 'A', 'S', 'B'}

// Record is one decoded sample: one tick's observation of a stream's
// seven monitored signals. The hot path never materializes Records —
// shards read fields straight out of the wire bytes — but clients and
// tests build batches from them.
type Record struct {
	// Stream identifies the plant stream (must be < the service's
	// configured MaxStreams).
	Stream uint32
	// Tick is the sample's timestamp in ms of plant time.
	Tick uint32
	// Flags carries the Flag* bits.
	Flags uint8
	// Mode selects the monitors' parameter-set mode (the Table 4 suite
	// is single-mode, so 0; the field exists for multi-mode suites).
	Mode uint8
	// Values are the signal observations in Table 4 order
	// (SetValue, IsValue, i, pulscnt, ms_slot_nbr, mscnt, OutValue).
	Values [NumSignals]uint16
}

// AppendHeader appends a batch header for count records.
func AppendHeader(dst []byte, count int) []byte {
	dst = append(dst, magic[0], magic[1], magic[2], magic[3])
	dst = append(dst, WireVersion, 0)
	return append(dst, byte(count>>8), byte(count))
}

// AppendRecord appends one encoded sample record.
func AppendRecord(dst []byte, r Record) []byte {
	dst = append(dst,
		byte(r.Stream>>24), byte(r.Stream>>16), byte(r.Stream>>8), byte(r.Stream),
		byte(r.Tick>>24), byte(r.Tick>>16), byte(r.Tick>>8), byte(r.Tick),
		r.Flags, r.Mode)
	for _, v := range r.Values {
		dst = append(dst, byte(v>>8), byte(v))
	}
	return dst
}

// AppendBatch appends a whole batch: header plus every record. Batches
// longer than MaxBatchRecords must be split by the caller.
func AppendBatch(dst []byte, recs []Record) []byte {
	dst = AppendHeader(dst, len(recs))
	for _, r := range recs {
		dst = AppendRecord(dst, r)
	}
	return dst
}

// be32 and be16 read big-endian integers. The explicit bounds
// subslicing keeps the compiler's bounds checks off the per-field hot
// path.
func be32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func be16(b []byte) uint16 {
	_ = b[1]
	return uint16(b[0])<<8 | uint16(b[1])
}

// DecodeRecord decodes the record at the start of b (tests and the
// replay client's bookkeeping; the service hot path reads fields
// directly).
func DecodeRecord(b []byte) (Record, error) {
	if len(b) < RecordBytes {
		return Record{}, fmt.Errorf("stream: short record: %d bytes", len(b))
	}
	r := Record{
		Stream: be32(b),
		Tick:   be32(b[4:]),
		Flags:  b[8],
		Mode:   b[9],
	}
	for k := 0; k < NumSignals; k++ {
		r.Values[k] = be16(b[10+2*k:])
	}
	return r, nil
}

// walkBatches validates the framing of a payload (one or more batches
// back to back: magic, version, a zero reserved byte and a count the
// payload holds) and calls visit with each batch's record region. It
// performs no per-record work, so callers fold their own per-record
// pass into visit.
func walkBatches(payload []byte, visit func(records []byte) error) error {
	off := 0
	for off < len(payload) {
		rest := payload[off:]
		if len(rest) < HeaderBytes {
			return fmt.Errorf("stream: truncated batch header at offset %d", off)
		}
		if rest[0] != magic[0] || rest[1] != magic[1] || rest[2] != magic[2] || rest[3] != magic[3] {
			return fmt.Errorf("stream: bad batch magic at offset %d", off)
		}
		if rest[4] != WireVersion {
			return fmt.Errorf("stream: wire version %d, want %d", rest[4], WireVersion)
		}
		if rest[5] != 0 {
			return fmt.Errorf("stream: reserved header byte is %d at offset %d, want 0", rest[5], off)
		}
		count := int(be16(rest[6:]))
		size := HeaderBytes + count*RecordBytes
		if len(rest) < size {
			return fmt.Errorf("stream: batch at offset %d declares %d records but only %d bytes follow",
				off, count, len(rest)-HeaderBytes)
		}
		if err := visit(rest[HeaderBytes:size]); err != nil {
			return err
		}
		off += size
	}
	return nil
}
