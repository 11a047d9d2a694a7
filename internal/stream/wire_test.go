package stream

import (
	"bytes"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Stream: 0, Tick: 1, Values: [NumSignals]uint16{100, 90, 3, 40, 2, 999, 80}},
		{Stream: 7, Tick: 2, Flags: FlagReset, Values: [NumSignals]uint16{65535, 0, 6, 1, 0, 0, 1750}},
		{Stream: 1 << 20, Tick: 1 << 30, Mode: 3},
	}
}

func TestWireRoundTrip(t *testing.T) {
	recs := sampleRecords()
	payload := AppendBatch(nil, recs)
	if want := HeaderBytes + len(recs)*RecordBytes; len(payload) != want {
		t.Fatalf("encoded batch is %d bytes, want %d", len(payload), want)
	}
	var got []Record
	err := walkBatches(payload, func(b []byte) error {
		for off := 0; off < len(b); off += RecordBytes {
			r, err := DecodeRecord(b[off:])
			if err != nil {
				return err
			}
			got = append(got, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestWireConcatenatedBatches(t *testing.T) {
	recs := sampleRecords()
	payload := AppendBatch(nil, recs[:1])
	payload = AppendBatch(payload, recs[1:])
	n := 0
	if err := walkBatches(payload, func(b []byte) error {
		n += len(b) / RecordBytes
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("walked %d records across 2 batches, want %d", n, len(recs))
	}
}

// mangledPayloads returns framing-invalid variants of a valid payload,
// one per validation rule. The wire tests and the fuzz seed corpus
// share them.
func mangledPayloads(good []byte) []struct {
	name    string
	mangled []byte
} {
	set := func(i int, b byte) []byte {
		out := bytes.Clone(good)
		out[i] = b
		return out
	}
	return []struct {
		name    string
		mangled []byte
	}{
		{"truncated header", good[:HeaderBytes-2]},
		{"bad magic", append([]byte("XXSB"), good[4:]...)},
		{"bad version", set(4, 99)},
		{"non-zero reserved byte", set(5, 1)},
		{"truncated records", good[:len(good)-1]},
		{"count overruns payload", func() []byte {
			b := bytes.Clone(good)
			b[6], b[7] = 0xff, 0xff
			return b
		}()},
	}
}

func TestWireValidationErrors(t *testing.T) {
	for _, tt := range mangledPayloads(AppendBatch(nil, sampleRecords())) {
		t.Run(tt.name, func(t *testing.T) {
			if err := walkBatches(tt.mangled, func([]byte) error { return nil }); err == nil {
				t.Error("mangled payload validated")
			}
		})
	}
}

func TestEncodeTraceIsValidPayload(t *testing.T) {
	rows := []TraceRow{{Tick: 0}, {Tick: 1}, {Tick: 2}, {Tick: 3}, {Tick: 4}}
	payload := EncodeTrace(nil, 3, rows, 2, true)
	var got []Record
	if err := walkBatches(payload, func(b []byte) error {
		for off := 0; off < len(b); off += RecordBytes {
			r, _ := DecodeRecord(b[off:])
			got = append(got, r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("%d records, want %d", len(got), len(rows))
	}
	if got[0].Flags&FlagReset == 0 {
		t.Error("first record lost FlagReset")
	}
	for i, r := range got {
		if r.Flags&FlagReset != 0 && i != 0 {
			t.Errorf("record %d has a spurious FlagReset", i)
		}
		if r.Stream != 3 || r.Tick != uint32(i) {
			t.Errorf("record %d: stream %d tick %d", i, r.Stream, r.Tick)
		}
	}
}

func TestCanonicalizeDetections(t *testing.T) {
	in := []byte("5\ta\n1\tb\n5\tc\n0\td\n1\te\npartial-tail")
	want := []byte("0\td\n1\tb\n1\te\n5\ta\n5\tc\n")
	if got := CanonicalizeDetections(in); !bytes.Equal(got, want) {
		t.Errorf("canonical form:\n%q\nwant:\n%q", got, want)
	}
	if got := CanonicalizeDetections([]byte("no-newline")); got != nil {
		t.Errorf("partial-only input canonicalized to %q", got)
	}
}
