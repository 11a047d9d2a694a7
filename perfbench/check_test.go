package main

import (
	"testing"
	"time"

	"easig/internal/stream"
)

func TestWrongDigestFailsEveryOpOfTheShard(t *testing.T) {
	tables := []byte("Table 7. ...\n")
	if got := checkDigest(tables, digest(tables), 5480); got != 0 {
		t.Errorf("matching digest: %d failed ops, want 0", got)
	}
	if got := checkDigest(tables, digest([]byte("other tables\n")), 5480); got != 5480 {
		t.Errorf("wrong digest: %d failed ops, want 5480", got)
	}
	// A census shard whose replayed journal diverged returns no tables.
	if got := checkDigest(nil, digest(nil), 57000); got != 57000 {
		t.Errorf("diverging replay: %d failed ops, want 57000", got)
	}
}

func TestDivergingDetectionsFailTheirStreamsSamples(t *testing.T) {
	want := []byte("1\t10\tSetValue\tx\n3\t20\tIsValue\ty\n3\t25\tIsValue\ty\n")
	// Same lines, other stream interleaving: not a divergence.
	same := []byte("3\t20\tIsValue\ty\n1\t10\tSetValue\tx\n3\t25\tIsValue\ty\n")
	if bad := divergentStreams(same, want); len(bad) != 0 {
		t.Fatalf("reordered streams reported divergent: %v", bad)
	}
	// Stream 3 misses a detection; a detection appears on stream 4.
	got := []byte("1\t10\tSetValue\tx\n3\t20\tIsValue\ty\n4\t5\ti\tz\n")
	bad := divergentStreams(got, want)
	if len(bad) != 2 || !bad[3] || !bad[4] {
		t.Fatalf("divergent streams = %v, want {3, 4}", bad)
	}
	recs := []stream.Record{{Stream: 1}, {Stream: 3}, {Stream: 3, Tick: 1}, {Stream: 4}, {Stream: 5}}
	payload := stream.AppendBatch(nil, recs[:2])
	payload = stream.AppendBatch(payload, recs[2:])
	if n := badSamples(payload, bad); n != 3 {
		t.Errorf("failed samples = %d, want 3 (two of stream 3, one of stream 4)", n)
	}
	if n := badSamples(payload, nil); n != 0 {
		t.Errorf("failed samples with no divergence = %d, want 0", n)
	}
}

// TestReplayMatchesInline runs a short sigmond replay end to end: every
// sample is accepted and the service's detections equal the inline
// reference's.
func TestReplayMatchesInline(t *testing.T) {
	out, setups, err := sigmondReplay(1, 300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(setups) != setupRepeats {
		t.Errorf("%d set-ups, want %d", len(setups), setupRepeats)
	}
	if out.attempted == 0 || out.failed != 0 || out.divergent != 0 {
		t.Errorf("attempted %d, failed %d, divergent streams %d; want >0, 0, 0", out.attempted, out.failed, out.divergent)
	}
	if out.detections == 0 {
		t.Error("no detections: the bit-flipped streams were not checked")
	}
}
