package memory

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func twoRegions(t *testing.T) *Memory {
	t.Helper()
	m, err := New(
		RegionSpec{Name: "ram", Base: 0x0000, Size: 417},
		RegionSpec{Name: "stack", Base: 0x4000, Size: 1008},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("no regions accepted")
	}
	if _, err := New(RegionSpec{Name: "z", Base: 0, Size: 0}); !errors.Is(err, ErrEmptyRegion) {
		t.Error("zero-size region accepted")
	}
	_, err := New(
		RegionSpec{Name: "a", Base: 0, Size: 100},
		RegionSpec{Name: "b", Base: 50, Size: 100},
	)
	if !errors.Is(err, ErrOverlap) {
		t.Errorf("overlap = %v, want ErrOverlap", err)
	}
	// Adjacent regions are fine.
	if _, err := New(
		RegionSpec{Name: "a", Base: 0, Size: 100},
		RegionSpec{Name: "b", Base: 100, Size: 100},
	); err != nil {
		t.Errorf("adjacent regions rejected: %v", err)
	}
	// A region may end exactly at the top of the address space.
	if _, err := New(RegionSpec{Name: "top", Base: 0xFFF0, Size: 16}); err != nil {
		t.Errorf("top-of-space region rejected: %v", err)
	}
	// Sorting: declaration order must not matter.
	if _, err := New(
		RegionSpec{Name: "hi", Base: 0x4000, Size: 8},
		RegionSpec{Name: "lo", Base: 0x0000, Size: 8},
	); err != nil {
		t.Errorf("unsorted specs rejected: %v", err)
	}
}

func TestByteAccess(t *testing.T) {
	m := twoRegions(t)
	if err := m.SetByteAt(0x4000, 0xAB); err != nil {
		t.Fatal(err)
	}
	b, err := m.ByteAt(0x4000)
	if err != nil || b != 0xAB {
		t.Fatalf("ByteAt = (%#x, %v), want (0xAB, nil)", b, err)
	}
	// Out of range: between the regions and past the end.
	for _, addr := range []uint16{417, 0x3FFF, 0x4000 + 1008, 0xFFFF} {
		if _, err := m.ByteAt(addr); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("ByteAt(%#x) = %v, want ErrOutOfRange", addr, err)
		}
		if err := m.SetByteAt(addr, 1); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("SetByteAt(%#x) = %v, want ErrOutOfRange", addr, err)
		}
	}
}

func TestWordAccessBigEndian(t *testing.T) {
	m := twoRegions(t)
	if err := m.WriteU16(10, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	hi, _ := m.ByteAt(10)
	lo, _ := m.ByteAt(11)
	if hi != 0xBE || lo != 0xEF {
		t.Fatalf("bytes = (%#x, %#x), want big-endian (0xBE, 0xEF)", hi, lo)
	}
	v, err := m.ReadU16(10)
	if err != nil || v != 0xBEEF {
		t.Fatalf("ReadU16 = (%#x, %v)", v, err)
	}
	// A word may not cross the region end.
	if _, err := m.ReadU16(416); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("word crossing region end: %v", err)
	}
	if err := m.WriteU16(416, 1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("word write crossing region end: %v", err)
	}
}

func TestFlipBit(t *testing.T) {
	m := twoRegions(t)
	m.SetByteAt(5, 0b0000_1000)
	if err := m.FlipBit(5, 3); err != nil {
		t.Fatal(err)
	}
	if b, _ := m.ByteAt(5); b != 0 {
		t.Fatalf("bit 3 not cleared: %#b", b)
	}
	if err := m.FlipBit(5, 8); !errors.Is(err, ErrBit) {
		t.Errorf("bit 8 = %v, want ErrBit", err)
	}
	if err := m.FlipBit(9999, 0); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("flip out of range = %v, want ErrOutOfRange", err)
	}
}

func TestFlipWordBit(t *testing.T) {
	m := twoRegions(t)
	m.WriteU16(20, 0)
	for bit := uint8(0); bit < 16; bit++ {
		if err := m.FlipWordBit(20, bit); err != nil {
			t.Fatal(err)
		}
		v, _ := m.ReadU16(20)
		if v != 1<<bit {
			t.Fatalf("bit %d: word = %#x, want %#x", bit, v, 1<<bit)
		}
		m.FlipWordBit(20, bit) // restore
	}
	if err := m.FlipWordBit(20, 16); !errors.Is(err, ErrBit) {
		t.Errorf("word bit 16 = %v, want ErrBit", err)
	}
}

// TestFlipWordBitStaysInOneRegion checks that a word flip obeys the
// same one-region word rule as ReadU16, WriteU16 and Bind: a word whose
// high byte is the last byte of a region is out of range, whether addr+1
// wraps to 0x0000 or lands in an adjacent region. Nothing is flipped.
func TestFlipWordBitStaysInOneRegion(t *testing.T) {
	m, err := New(
		RegionSpec{Name: "low", Base: 0x0000, Size: 4},
		RegionSpec{Name: "mid", Base: 0x0100, Size: 4},
		RegionSpec{Name: "next", Base: 0x0104, Size: 4},
		RegionSpec{Name: "top", Base: 0xFFF0, Size: 16},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []uint16{0xFFFF, 0x0103} {
		if _, err := m.ReadU16(addr); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("ReadU16(%#04x) = %v, want ErrOutOfRange", addr, err)
		}
		for bit := uint8(0); bit < 16; bit++ {
			if err := m.FlipWordBit(addr, bit); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("FlipWordBit(%#04x, %d) = %v, want ErrOutOfRange", addr, bit, err)
			}
		}
	}
	for _, snap := range m.Snapshot() {
		for i, b := range snap {
			if b != 0 {
				t.Errorf("a rejected flip changed a byte: offset %d = %#x", i, b)
			}
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := twoRegions(t)
	m.WriteU16(0, 0x1234)
	m.WriteU16(0x4000, 0x5678)
	snap := m.Snapshot()
	m.WriteU16(0, 0xFFFF)
	m.Zero()
	if v, _ := m.ReadU16(0x4000); v != 0 {
		t.Fatal("Zero did not clear")
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.ReadU16(0); v != 0x1234 {
		t.Errorf("restored ram word = %#x", v)
	}
	if v, _ := m.ReadU16(0x4000); v != 0x5678 {
		t.Errorf("restored stack word = %#x", v)
	}
	if err := m.Restore([][]byte{{1}}); err == nil {
		t.Error("mismatched snapshot accepted")
	}
	if err := m.Restore([][]byte{{1}, {2}}); err == nil {
		t.Error("mismatched region size accepted")
	}
}

func TestRegionsAndNamed(t *testing.T) {
	m := twoRegions(t)
	regs := m.Regions()
	if len(regs) != 2 || regs[0].Name != "ram" || regs[1].Name != "stack" {
		t.Fatalf("Regions() = %+v", regs)
	}
	r, ok := m.RegionNamed("stack")
	if !ok || r.Base != 0x4000 || r.Size != 1008 {
		t.Fatalf("RegionNamed(stack) = (%+v, %v)", r, ok)
	}
	if _, ok := m.RegionNamed("flash"); ok {
		t.Error("unknown region reported present")
	}
	if got := r.End(); got != 0x4000+1008 {
		t.Errorf("End() = %d", got)
	}
}

// Flipping the same bit twice is the identity (the involution that
// makes 20 ms re-injection toggle errors on and off).
func TestQuickFlipInvolution(t *testing.T) {
	m := twoRegions(t)
	f := func(addrRaw uint16, bit uint8, val byte) bool {
		addr := addrRaw % 417
		bit %= 8
		if err := m.SetByteAt(addr, val); err != nil {
			return false
		}
		m.FlipBit(addr, bit)
		m.FlipBit(addr, bit)
		got, _ := m.ByteAt(addr)
		return got == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Word writes round-trip through byte storage for any value.
func TestQuickWordRoundTrip(t *testing.T) {
	m := twoRegions(t)
	f := func(addrRaw, v uint16) bool {
		addr := addrRaw % 415 // keep the word inside the ram region
		if err := m.WriteU16(addr, v); err != nil {
			return false
		}
		got, err := m.ReadU16(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDump(t *testing.T) {
	m := twoRegions(t)
	m.WriteU16(0, 0xBEEF)
	var buf strings.Builder
	if err := m.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`region "ram"`, `region "stack"`, "be ef", "0000:"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump lacks %q", want)
		}
	}
	// Every region byte appears: 417 + 1008 bytes over 16-byte lines.
	lines := strings.Count(out, "\n")
	want := 2 + (417+15)/16 + (1008+15)/16
	if lines != want {
		t.Errorf("dump has %d lines, want %d", lines, want)
	}
}
