package tensor

import (
	"testing"
	"testing/quick"
)

func TestDTypeSize(t *testing.T) {
	cases := map[DType]int64{F32: 4, F16: 2, BF16: 2, I64: 8, I32: 4, I8: 1}
	for dt, want := range cases {
		if got := dt.Size(); got != want {
			t.Errorf("%v.Size() = %d, want %d", dt, got, want)
		}
	}
}

func TestDTypeStrings(t *testing.T) {
	for _, dt := range []DType{F32, F16, BF16, I64, I32, I8} {
		if dt.String() == "" {
			t.Errorf("empty string for dtype %d", int(dt))
		}
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{Input, Weight, Gradient, OptState, Activation, Constant, Workspace} {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", int(k))
		}
	}
}

func TestMetaBytes(t *testing.T) {
	var r Registry
	m := r.New("x", Activation, F32, 2, 3, 4)
	if m.Elems() != 24 {
		t.Errorf("Elems = %d, want 24", m.Elems())
	}
	if m.Bytes() != 96 {
		t.Errorf("Bytes = %d, want 96", m.Bytes())
	}
	scalar := r.New("s", Constant, F32)
	if scalar.Elems() != 1 || scalar.Bytes() != 4 {
		t.Errorf("scalar: elems=%d bytes=%d", scalar.Elems(), scalar.Bytes())
	}
}

func TestRegistryUniqueIDs(t *testing.T) {
	var r Registry
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		m := r.New("t", Activation, F32, 1)
		if seen[m.ID] {
			t.Fatalf("duplicate ID %d", m.ID)
		}
		seen[m.ID] = true
	}
}

func TestRegistryCopiesShape(t *testing.T) {
	var r Registry
	shape := []int{2, 3}
	m := r.New("x", Weight, F32, shape...)
	shape[0] = 99
	if m.Shape[0] != 2 {
		t.Error("Registry.New must copy the shape")
	}
}

func TestTotalBytesDeduplicates(t *testing.T) {
	var r Registry
	a := r.New("a", Activation, F32, 10) // 40 B
	b := r.New("b", Activation, F32, 5)  // 20 B
	got := TotalBytes([]*Meta{a, b, a, nil, b})
	if got != 60 {
		t.Errorf("TotalBytes = %d, want 60", got)
	}
	if TotalBytes(nil) != 0 {
		t.Error("TotalBytes(nil) must be 0")
	}
}

func TestBytesProperty(t *testing.T) {
	var r Registry
	f := func(d1, d2, d3 uint8) bool {
		s1, s2, s3 := int(d1%16)+1, int(d2%16)+1, int(d3%16)+1
		m := r.New("p", Activation, F16, s1, s2, s3)
		return m.Bytes() == int64(s1*s2*s3)*2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMetaString(t *testing.T) {
	var r Registry
	m := r.New("w", Weight, F32, 4, 4)
	if s := m.String(); s == "" {
		t.Error("empty String()")
	}
}
