package simrt

import (
	"reflect"
	"testing"
)

func TestLaneMask(t *testing.T) {
	if FullMask(0) != 0 {
		t.Fatalf("FullMask(0) = %x", FullMask(0))
	}
	if FullMask(3) != 0b111 {
		t.Fatalf("FullMask(3) = %x", FullMask(3))
	}
	if FullMask(64) != ^LaneMask(0) {
		t.Fatalf("FullMask(64) = %x", FullMask(64))
	}
	m := LaneMask(0b101001)
	if m.Count() != 3 || !m.Has(0) || m.Has(1) || !m.Has(3) || !m.Has(5) {
		t.Fatalf("membership wrong for %b", m)
	}
	if got := m.Lanes(make([]int, 0, 64)); !reflect.DeepEqual(got, []int{0, 3, 5}) {
		t.Fatalf("Lanes = %v", got)
	}
	if LaneMask(0).Lowest() != 64 {
		t.Fatalf("empty Lowest = %d", LaneMask(0).Lowest())
	}
	if m.Drop() != 0b101000 {
		t.Fatalf("Drop = %b", m.Drop())
	}
}
