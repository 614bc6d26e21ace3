// Torn-write and compatibility matrix for the snapshot artifact: every way a
// snapshot file can be damaged or go stale must reject cleanly — an error,
// never a panic, never a silently loaded wrong program.
package plancache_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mikpoly/internal/core"
	"mikpoly/internal/hw"
	"mikpoly/internal/plancache"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

func testOpts() tune.Options {
	return tune.Options{NGen: 6, NSyn: 9, NMik: 10, NPred: 256}
}

// buildSnapshot plans a few shapes on a real compiler and exports them, so the
// matrix exercises genuine programs rather than hand-built stand-ins.
func buildSnapshot(t testing.TB) (*plancache.Snapshot, *core.Compiler) {
	t.Helper()
	lib, err := core.SharedLibrary(hw.A100(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewCompilerFromLibrary(lib)
	for _, s := range []tensor.GemmShape{
		{M: 128, N: 768, K: 768},
		{M: 384, N: 3072, K: 768},
		{M: 8, N: 4096, K: 4096},
	} {
		if _, err := c.Plan(s); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := c.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != 3 {
		t.Fatalf("exported %d entries, want 3", len(snap.Entries))
	}
	return snap, c
}

func saveToTemp(t *testing.T, snap *plancache.Snapshot) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plans.snap")
	if err := plancache.SaveFile(snap, path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap, c := buildSnapshot(t)
	path := saveToTemp(t, snap)

	loaded, err := plancache.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(c.LibraryHash(), c.Hardware().Name); err != nil {
		t.Fatalf("round-tripped snapshot invalid: %v", err)
	}
	if len(loaded.Entries) != len(snap.Entries) {
		t.Fatalf("loaded %d entries, want %d", len(loaded.Entries), len(snap.Entries))
	}
	for i := range snap.Entries {
		want, got := snap.Entries[i].Fingerprint(), loaded.Entries[i].Fingerprint()
		if want != got {
			t.Errorf("entry %d fingerprint drifted through JSON:\n saved:  %s\n loaded: %s", i, want, got)
		}
	}
}

// TestSnapshotCorruptionMatrix damages the on-disk artifact in every way a
// torn write, partial copy, or bit rot can, and requires a clean rejection.
func TestSnapshotCorruptionMatrix(t *testing.T) {
	snap, _ := buildSnapshot(t)
	path := saveToTemp(t, snap)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"truncated trailer", func(b []byte) []byte { return b[:len(b)-10] }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)/2] }},
		{"flipped byte", func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)/3] ^= 0x40
			return out
		}},
		{"missing trailer", func(b []byte) []byte {
			i := len(b) - 1
			for i > 0 && b[i] != '#' {
				i--
			}
			return b[:i]
		}},
		{"empty file", func([]byte) []byte { return nil }},
		{"trailer only", func(b []byte) []byte {
			i := len(b) - 1
			for i > 0 && b[i] != '#' {
				i--
			}
			return b[i:]
		}},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "damaged.snap")
			if err := os.WriteFile(p, tc.mangle(append([]byte(nil), pristine...)), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := plancache.LoadFile(p)
			if err == nil {
				t.Fatalf("damaged artifact loaded: %+v", s)
			}
		})
	}

	if _, err := plancache.LoadFile(filepath.Join(t.TempDir(), "nope.snap")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: got %v, want os.ErrNotExist", err)
	}
}

// TestSnapshotCompatibilityMatrix stales the envelope in every dimension and
// requires each to reject with ErrIncompatible.
func TestSnapshotCompatibilityMatrix(t *testing.T) {
	snap, c := buildSnapshot(t)
	libHash, hwName := c.LibraryHash(), c.Hardware().Name

	stale := []struct {
		name   string
		mangle func(*plancache.Snapshot)
	}{
		{"wrong schema", func(s *plancache.Snapshot) { s.Schema = "mikpoly-plancache/v0" }},
		{"future format version", func(s *plancache.Snapshot) { s.FormatVersion++ }},
		{"future planner version", func(s *plancache.Snapshot) { s.PlannerVersion++ }},
		{"stale library hash", func(s *plancache.Snapshot) { s.LibraryHash = "0123456789abcdef" }},
		{"wrong hardware", func(s *plancache.Snapshot) { s.HW = "ascend910" }},
		{"nil entry program", func(s *plancache.Snapshot) { s.Entries[1].Program = nil }},
		{"tampered cost bits", func(s *plancache.Snapshot) { s.Entries[0].CostBits = "0000000000000000" }},
	}
	for _, tc := range stale {
		t.Run(tc.name, func(t *testing.T) {
			path := saveToTemp(t, snap)
			loaded, err := plancache.LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.mangle(loaded)
			if err := loaded.Validate(libHash, hwName); !errors.Is(err, plancache.ErrIncompatible) {
				t.Fatalf("got %v, want ErrIncompatible", err)
			}
		})
	}

	var nilSnap *plancache.Snapshot
	if err := nilSnap.Validate(libHash, hwName); !errors.Is(err, plancache.ErrIncompatible) {
		t.Fatalf("nil snapshot: got %v, want ErrIncompatible", err)
	}
	if err := snap.Validate("", hwName); !errors.Is(err, plancache.ErrIncompatible) {
		t.Fatalf("hashless consumer: got %v, want ErrIncompatible", err)
	}
	if err := snap.Validate(libHash, hwName); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// FuzzLoadSnapshot: Load then Validate never panics, and a snapshot both
// accept holds only valid programs whose recorded cost bits match.
func FuzzLoadSnapshot(f *testing.F) {
	snap, c := buildSnapshot(f)
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	hash, hwName := c.LibraryHash(), c.Hardware().Name
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := plancache.Load(bytes.NewReader(data))
		if err != nil || s.Validate(hash, hwName) != nil {
			return
		}
		for i, e := range s.Entries {
			if err := e.Program.Validate(); err != nil {
				t.Fatalf("accepted entry %d: %v", i, err)
			}
			if e.CostBits != plancache.CostBits(e.Program) {
				t.Fatalf("accepted entry %d with cost bits %s, program cost %s", i, e.CostBits, plancache.CostBits(e.Program))
			}
		}
	})
}
