package stream

import (
	"bytes"
	"testing"
)

// FuzzDecodeEASB drives arbitrary bytes through the wire validation and
// the service's ingest path. Properties:
//   - validation never panics;
//   - an accepted payload, decoded record by record with DecodeRecord
//     and re-encoded with AppendBatch one batch at a time, gives back
//     the identical bytes, so validation accepts only canonical
//     encodings;
//   - Service.Ingest of a payload the validation rejects returns an
//     error, and no rejected payload applies a single sample.
//
// The seed corpus is the wire tests' payloads, valid and mangled.
func FuzzDecodeEASB(f *testing.F) {
	recs := sampleRecords()
	good := AppendBatch(nil, recs)
	f.Add(good)
	f.Add(AppendBatch(AppendBatch(nil, recs[:1]), recs[1:]))
	f.Add(AppendBatch(nil, recs[:2])) // streams 0 and 7: ingestible below
	f.Add(EncodeTrace(nil, 3, []TraceRow{{Tick: 0}, {Tick: 1}, {Tick: 2}, {Tick: 3}, {Tick: 4}}, 2, true))
	f.Add([]byte{})
	for _, tt := range mangledPayloads(good) {
		f.Add(tt.mangled)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		var reenc []byte
		werr := walkBatches(payload, func(b []byte) error {
			batch := make([]Record, 0, len(b)/RecordBytes)
			for off := 0; off < len(b); off += RecordBytes {
				r, err := DecodeRecord(b[off:])
				if err != nil {
					return err
				}
				batch = append(batch, r)
			}
			reenc = AppendBatch(reenc, batch)
			return nil
		})
		if werr == nil && !bytes.Equal(reenc, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", reenc, payload)
		}

		svc, err := NewUnstarted(Config{Shards: 1, MaxStreams: 8})
		if err != nil {
			t.Fatal(err)
		}
		accepted, dropped, ierr := svc.Ingest(payload)
		svc.DrainQueued()
		applied := svc.Metrics().Samples
		if werr != nil && ierr == nil {
			t.Fatalf("Ingest accepted a payload validation rejects (%v)", werr)
		}
		if ierr != nil && (accepted != 0 || dropped != 0 || applied != 0) {
			t.Fatalf("rejected payload (%v) applied samples: accepted %d, dropped %d, applied %d",
				ierr, accepted, dropped, applied)
		}
		if ierr == nil && applied != uint64(accepted) {
			t.Fatalf("accepted payload: Ingest reports %d samples, monitors applied %d", accepted, applied)
		}
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
