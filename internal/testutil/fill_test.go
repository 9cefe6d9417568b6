package testutil

import "testing"

func TestFillDistinct(t *testing.T) {
	type inner struct{ A, B float64 }
	var v struct {
		N  int
		U  uint64
		S  string
		In inner
		F  float64
	}
	FillDistinct(&v)
	if v.N != 1 || v.U != 2 || v.S != "v3" || v.In.A != 5.5 || v.In.B != 6.5 || v.F != 7.5 {
		t.Fatalf("FillDistinct = %+v", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("slice field did not panic")
		}
	}()
	var bad struct{ Xs []int }
	FillDistinct(&bad)
}
