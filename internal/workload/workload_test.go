package workload

import "testing"

func TestDeepBenchGEMMCountAndRanges(t *testing.T) {
	cases := DeepBenchGEMM()
	if len(cases) != 166 {
		t.Fatalf("DeepBench cases = %d, want 166 (Table 3)", len(cases))
	}
	for _, c := range cases {
		s := c.Shape
		if !s.Valid() {
			t.Fatalf("%s: invalid shape %v", c.ID, s)
		}
		if s.M < 2 || s.M > 10752 || s.N < 1 || s.N > 48000 || s.K < 128 || s.K > 500000 {
			t.Fatalf("%s: shape %v outside Table 3 ranges", c.ID, s)
		}
	}
}

func TestTransformerGEMM(t *testing.T) {
	cases := TransformerGEMM(100)
	if len(cases) != 100 {
		t.Fatalf("count = %d", len(cases))
	}
	validN := map[int]bool{
		768: true, 3 * 768: true, 3072: true,
		2048: true, 3 * 2048: true, 8192: true,
	}
	for _, c := range cases {
		if !c.Shape.Valid() {
			t.Fatalf("%s invalid", c.ID)
		}
		if !validN[c.Shape.N] {
			t.Fatalf("%s: N=%d is not a Transformer projection width", c.ID, c.Shape.N)
		}
		if c.Shape.M < 1 || c.Shape.M > 512*64 {
			t.Fatalf("%s: M=%d outside dynamic range", c.ID, c.Shape.M)
		}
	}
}

func TestCNNFCGEMM(t *testing.T) {
	for _, c := range CNNFCGEMM(50) {
		if !c.Shape.Valid() {
			t.Fatalf("%s invalid", c.ID)
		}
		if c.Shape.M > 1024 {
			t.Fatalf("%s: batch %d > 1024", c.ID, c.Shape.M)
		}
	}
}

func TestTable3SuiteSize(t *testing.T) {
	suite := Table3Suite()
	if len(suite) != 1599 {
		t.Fatalf("Table 3 suite = %d cases, want 1599 (§5.2.3)", len(suite))
	}
	ids := map[string]bool{}
	for _, c := range suite {
		if ids[c.ID] {
			t.Fatalf("duplicate case ID %s", c.ID)
		}
		ids[c.ID] = true
	}
}

func TestSuitesDeterministic(t *testing.T) {
	a, b := Table3Suite(), Table3Suite()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("case %d differs between runs", i)
		}
	}
}

func TestSubsample(t *testing.T) {
	suite := Table3Suite()
	small := Subsample(suite, 100)
	if len(small) < 80 || len(small) > 100 {
		t.Fatalf("Subsample(100) = %d cases", len(small))
	}
	if got := Subsample(suite, 0); len(got) != len(suite) {
		t.Fatal("target 0 must return all")
	}
	if got := Subsample(suite, 10000); len(got) != len(suite) {
		t.Fatal("oversized target must return all")
	}
}

func TestTable4SuiteSizeAndValidity(t *testing.T) {
	suite := Table4Suite()
	if len(suite) != 5485 {
		t.Fatalf("Table 4 suite = %d cases, want 5485", len(suite))
	}
	models := map[string]int{}
	for _, c := range suite {
		if !c.Shape.Valid() {
			t.Fatalf("%s: invalid conv shape %v", c.ID, c.Shape)
		}
		if !c.Shape.GemmShape().Valid() {
			t.Fatalf("%s: invalid GEMM lowering", c.ID)
		}
		models[c.Category]++
	}
	for _, m := range []string{"alexnet", "googlenet", "resnet", "vgg"} {
		if models[m] == 0 {
			t.Fatalf("no cases for %s", m)
		}
	}
}

func TestSubsampleConv(t *testing.T) {
	suite := Table4Suite()
	small := SubsampleConv(suite, 50)
	if len(small) < 40 || len(small) > 50 {
		t.Fatalf("SubsampleConv(50) = %d", len(small))
	}
}

func TestTable8Suite(t *testing.T) {
	suite := Table8Suite()
	if len(suite) != 52 {
		t.Fatalf("Table 8 suite = %d cases, want 52 (4 ops × 13 token counts)", len(suite))
	}
	ops := map[string]int{}
	for _, c := range suite {
		if !c.Shape.Valid() {
			t.Fatalf("%s invalid", c.ID)
		}
		if c.Shape.N < 1 || c.Shape.N > 4096 {
			t.Fatalf("%s: N=%d outside [1, 4096]", c.ID, c.Shape.N)
		}
		ops[c.Category]++
	}
	if len(ops) != 4 {
		t.Fatalf("ops = %v, want 4 operators", ops)
	}
	for op, n := range ops {
		if n != 13 {
			t.Fatalf("%s has %d cases, want 13", op, n)
		}
	}
}

func TestLlamaOpsMatchTable8(t *testing.T) {
	ops := LlamaOps()
	want := map[string][2]int{
		"qkv_proj": {3840, 5120}, "o_proj": {5120, 1280},
		"ffn_up": {3456, 5120}, "ffn_down": {5120, 3456},
	}
	for _, op := range ops {
		w, ok := want[op.Layer]
		if !ok || op.M != w[0] || op.K != w[1] {
			t.Fatalf("op %+v does not match Table 8", op)
		}
	}
}

func TestLogInBounds(t *testing.T) {
	r := newRNG(7)
	for i := 0; i < 1000; i++ {
		v := r.logIn(3, 777)
		if v < 3 || v > 777 {
			t.Fatalf("logIn out of bounds: %d", v)
		}
	}
	if r.logIn(5, 5) != 5 {
		t.Fatal("degenerate range")
	}
	if r.intIn(9, 9) != 9 {
		t.Fatal("degenerate intIn")
	}
}
