package memory

import (
	"testing"
	"testing/quick"
)

func testMemory(t *testing.T) *Memory {
	t.Helper()
	m, err := New(RegionSpec{Name: "ram", Base: 0x100, Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBind(t *testing.T) {
	m := testMemory(t)
	v, err := Bind(m, "x", 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Valid() || v.Name() != "x" || v.Addr() != 0x100 {
		t.Fatalf("bound var = %+v", v)
	}
	if _, err := Bind(m, "oob", 0x00); err == nil {
		t.Error("binding outside regions accepted")
	}
	if _, err := Bind(m, "cross", 0x100+63); err == nil {
		t.Error("binding across region end accepted")
	}
	var zero Var16
	if zero.Valid() {
		t.Error("zero Var16 claims to be valid")
	}
}

func TestMustBindPanics(t *testing.T) {
	m := testMemory(t)
	defer func() {
		if recover() == nil {
			t.Error("MustBind with bad address did not panic")
		}
	}()
	MustBind(m, "bad", 0)
}

func TestVar16GetSet(t *testing.T) {
	m := testMemory(t)
	v := MustBind(m, "x", 0x102)
	v.Set(0xA55A)
	if got := v.Get(); got != 0xA55A {
		t.Fatalf("Get = %#x", got)
	}
	// The memory view agrees (big-endian).
	w, _ := m.ReadU16(0x102)
	if w != 0xA55A {
		t.Fatalf("memory word = %#x", w)
	}
	// A bit-flip through the memory API is visible through the Var16.
	m.FlipWordBit(0x102, 15)
	if got := v.Get(); got != 0x255A {
		t.Fatalf("after flip Get = %#x, want 0x255A", got)
	}
}

func TestVar16Signed(t *testing.T) {
	m := testMemory(t)
	v := MustBind(m, "s", 0x104)
	v.SetSigned(-1234)
	if got := v.GetSigned(); got != -1234 {
		t.Fatalf("GetSigned = %d", got)
	}
	// Stores truncate to 16 bits like the target's store instruction.
	big := int32(70000)
	v.SetSigned(big) // 70000 mod 2^16 = 4464
	if got := v.Get(); got != uint16(int16(big)) {
		t.Fatalf("truncated store = %d", got)
	}
}

func TestVar16Add(t *testing.T) {
	m := testMemory(t)
	v := MustBind(m, "c", 0x106)
	v.Set(0xFFFF)
	if got := v.Add(1); got != 0 {
		t.Fatalf("Add wrap = %d, want 0", got)
	}
	v.Set(10)
	if got := v.AddSat(-20); got != 0 {
		t.Fatalf("AddSat floor = %d, want 0", got)
	}
	v.Set(0xFFF0)
	if got := v.AddSat(0x100); got != 0xFFFF {
		t.Fatalf("AddSat ceiling = %d, want 0xFFFF", got)
	}
	v.Set(100)
	if got := v.AddSat(23); got != 123 {
		t.Fatalf("AddSat = %d, want 123", got)
	}
}

// Get/Set round-trips for every value, and signed/unsigned views agree
// on the bit pattern.
func TestQuickVar16RoundTrip(t *testing.T) {
	m := testMemory(t)
	v := MustBind(m, "q", 0x108)
	f := func(x uint16) bool {
		v.Set(x)
		if v.Get() != x {
			return false
		}
		return uint16(int16(v.GetSigned())) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVar16AliasesRegionStorage checks that a Var16 keeps aliasing its
// word in the region's backing store across the checkpoint operations,
// which copy into that store: a variable bound before Restore,
// RestoreImage or Zero reads the restored bytes, and its Set is visible
// to ReadU16.
func TestVar16AliasesRegionStorage(t *testing.T) {
	m := testMemory(t)
	v := MustBind(m, "x", 0x110)
	check := func(step string, want uint16) {
		t.Helper()
		if got := v.Get(); got != want {
			t.Errorf("%s: Get = %#x, want %#x", step, got, want)
		}
		x := want ^ 0x5AA5
		v.Set(x)
		if w, err := m.ReadU16(0x110); err != nil || w != x {
			t.Errorf("%s: ReadU16 after Set = (%#x, %v), want %#x", step, w, err, x)
		}
	}

	if err := m.WriteU16(0x110, 0x1234); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	var img Image
	if err := m.WriteU16(0x110, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	m.Capture(&img)

	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	check("Restore", 0x1234)
	if err := m.RestoreImage(&img); err != nil {
		t.Fatal(err)
	}
	check("RestoreImage", 0xBEEF)
	m.Zero()
	check("Zero", 0)
}
