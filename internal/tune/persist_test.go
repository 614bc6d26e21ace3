package tune

import (
	"bytes"
	"strings"
	"testing"

	"mikpoly/internal/hw"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	orig, err := Generate(hw.A100(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.HW.Name != orig.HW.Name || loaded.Opts != orig.Opts {
		t.Fatal("metadata lost in round trip")
	}
	if len(loaded.Kernels) != len(orig.Kernels) {
		t.Fatalf("kernel count %d != %d", len(loaded.Kernels), len(orig.Kernels))
	}
	for i, k := range orig.Kernels {
		if loaded.Kernels[i] != k {
			t.Fatalf("kernel %d differs", i)
		}
		for _, tt := range []int{1, 7, 100, 250} {
			if got, want := loaded.PredictTask(k, tt), orig.PredictTask(k, tt); got != want {
				t.Fatalf("kernel %v t=%d: loaded predicts %g, original %g", k, tt, got, want)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":       "][",
		"wrong version":  `{"format_version": 99}`,
		"no kernels":     `{"format_version": 1, "hardware": {}, "options": {"NGen":1,"NSyn":1,"NMik":1,"NPred":1}}`,
		"empty document": `{}`,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadRejectsCrossDeviceKernels(t *testing.T) {
	// Save an NPU library (big tiles), then claim it is for a GPU: the
	// big kernels are infeasible on 192 KiB local memory and must be
	// rejected.
	npu, err := Generate(hw.Ascend910(), Options{NGen: 20, NSyn: 9, NMik: 8, NPred: 128})
	if err != nil {
		t.Fatal(err)
	}
	hasBig := false
	for _, k := range npu.Kernels {
		if !k.Feasible(hw.A100()) {
			hasBig = true
		}
	}
	if !hasBig {
		t.Skip("no NPU-only kernels generated; nothing to test")
	}
	var buf bytes.Buffer
	if err := npu.Save(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	doc = strings.Replace(doc, `"ascend-910a"`, `"nvidia-a100"`, 1)
	doc = strings.Replace(doc, `"LocalMemBytes": 1048576`, `"LocalMemBytes": 196608`, 1)
	if _, err := Load(strings.NewReader(doc)); err == nil {
		t.Fatal("cross-device artifact accepted")
	}
}

func TestSaveLoadPreservesRankOrder(t *testing.T) {
	orig, err := Generate(hw.A100(), Options{NGen: 4, NSyn: 6, NMik: 6, NPred: 64})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Kernels {
		if loaded.Kernels[i] != orig.Kernels[i] {
			t.Fatal("library order changed")
		}
	}
}

// FuzzLoadLibrary: Load never panics, and a library it accepts saves and
// loads again to the same content hash.
func FuzzLoadLibrary(f *testing.F) {
	lib, err := Generate(hw.A100(), smallOpts())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lib.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"format_version": 1, "hardware": {}, "options": {"NGen":1,"NSyn":1,"NMik":1,"NPred":1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		lib, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if lib.Hash() == "" {
			t.Fatal("accepted library has no content hash")
		}
		var out bytes.Buffer
		if err := lib.Save(&out); err != nil {
			t.Fatalf("accepted library does not save: %v", err)
		}
		again, err := Load(&out)
		if err != nil {
			t.Fatalf("saved library does not load: %v", err)
		}
		if again.Hash() != lib.Hash() {
			t.Fatalf("hash %.12s.. after a round trip, %.12s.. before", again.Hash(), lib.Hash())
		}
	})
}
