package model

import (
	"strings"
	"testing"
)

func page(b byte) []byte {
	p := make([]byte, 64)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestAckedWriteMustSurvive(t *testing.T) {
	m := New()
	m.Write(7, page(1))
	if err := m.Check(7, page(1)); err != nil {
		t.Fatalf("acked content rejected: %v", err)
	}
	if err := m.Check(7, page(2)); err == nil {
		t.Fatal("divergent content accepted")
	}
	if err := m.Check(9, make([]byte, 64)); err != nil {
		t.Fatalf("zeros on unwritten page rejected: %v", err)
	}
	if err := m.Check(9, page(3)); err == nil {
		t.Fatal("non-zero content on unwritten page accepted")
	}
}

func TestCrashWriteResolvesOldOrNewAndPins(t *testing.T) {
	for _, pin := range []byte{1, 2} {
		m := New()
		m.Write(5, page(1))
		m.CrashWrite(5, page(2))
		if got := m.Unresolved(); len(got) != 1 || got[0] != 5 {
			t.Fatalf("unresolved = %v, want [5]", got)
		}
		if _, ok := m.Value(5); ok {
			t.Fatal("unresolved page reported a value")
		}
		if err := m.Check(5, page(pin)); err != nil {
			t.Fatalf("pin to version %d: %v", pin, err)
		}
		// Pinned: the other version is now a violation.
		other := byte(3 - pin)
		if err := m.Check(5, page(other)); err == nil {
			t.Fatalf("oscillation to version %d accepted after pin", other)
		}
		if v, ok := m.Value(5); !ok || v[0] != pin {
			t.Fatalf("Value after pin = %v,%v", v, ok)
		}
	}
}

func TestCrashWriteTornContentRejected(t *testing.T) {
	m := New()
	m.Write(5, page(1))
	m.CrashWrite(5, page(2))
	err := m.Check(5, page(9))
	if err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("torn content: %v", err)
	}
}

func TestCrashWriteOnUnwrittenPageOldIsZeros(t *testing.T) {
	m := New()
	m.CrashWrite(4, page(2))
	if err := m.Check(4, make([]byte, 64)); err != nil {
		t.Fatalf("old (zeros) rejected: %v", err)
	}
}

func TestFootprintIncludesInflight(t *testing.T) {
	m := New()
	m.Write(3, page(1))
	m.CrashWrite(8, page(2))
	fp := m.Footprint()
	if len(fp) != 2 || fp[0] != 3 || fp[1] != 8 {
		t.Fatalf("footprint = %v, want [3 8]", fp)
	}
}

func TestWrittenKeepsFirstResolvedOrder(t *testing.T) {
	m := New()
	m.Write(5, page(1))
	m.CrashWrite(2, page(2))
	m.Write(9, page(3))
	m.Write(5, page(4))
	if err := m.Check(2, make([]byte, 64)); err != nil {
		t.Fatalf("pin to old zeros rejected: %v", err)
	}
	got := m.Written()
	want := []int64{5, 9, 2}
	if len(got) != len(want) {
		t.Fatalf("Written() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Written() = %v, want %v", got, want)
		}
	}
}
