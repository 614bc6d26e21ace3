// Plan-cache warm-start benchmark: cold vs warm plans-before-first-hit.
//
// The persistent plan-cache tier exists so a freshly started replica can
// serve its predecessor's hot shapes without paying the online planner once.
// This suite proves that end to end: a cold compiler plans the hot-shape set
// online, exports a snapshot, round-trips it through the crash-safe file
// format, and a second compiler warm-started from that file must serve every
// hot shape with ZERO online plans and bitwise-identical programs (program
// string plus IEEE-754 cost bits). A tampered library hash must reject the
// snapshot cleanly and fall back to online planning. All of that is
// self-checks; the cases record each hot shape's cold and warm fingerprints
// and the suite's plan counts as exact fields.
package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"mikpoly/internal/core"
	"mikpoly/internal/hw"
	"mikpoly/internal/plancache"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

// planCacheSuite runs the cold/warm comparison over the planner suite's
// pinned GPU cases — the same traffic the planner suite measures.
func planCacheSuite(quick bool, _ []uint64) ([]Case, []string, error) {
	var cases []plannerCase
	for _, c := range plannerCases(quick) {
		if c.HW.Name == hw.A100().Name {
			cases = append(cases, c)
		}
	}
	lib, err := core.SharedLibrary(hw.A100(), tune.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}

	var failed []string
	fail := func(format string, args ...any) {
		failed = append(failed, fmt.Sprintf(format, args...))
	}

	// Cold replica: every hot shape is an online plan.
	cold := core.NewCompilerFromLibrary(lib)
	if cold.LibraryHash() == "" {
		return nil, nil, errors.New("library has no content hash; snapshots disabled")
	}
	coldFP := make(map[string]string, len(cases))
	for _, c := range cases {
		shape := tensor.GemmShape{M: c.M, N: c.N, K: c.K}
		prog, err := cold.Plan(shape)
		if err != nil {
			return nil, nil, fmt.Errorf("cold plan %s: %w", c.Name, err)
		}
		coldFP[c.Name] = plancache.ProgramFingerprint(prog)
	}
	coldPlans, _ := cold.PlanStats()
	if coldPlans != len(cases) {
		fail("cold replica planned %d shapes online, want %d (cache not cold?)", coldPlans, len(cases))
	}

	// Snapshot round-trip through the crash-safe file format.
	snap, err := cold.ExportSnapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("export snapshot: %w", err)
	}
	dir, err := os.MkdirTemp("", "mikbench-plancache-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "plans.snap")
	if err := plancache.SaveFile(snap, path); err != nil {
		return nil, nil, fmt.Errorf("save snapshot: %w", err)
	}
	loaded, err := plancache.LoadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("load snapshot: %w", err)
	}
	if len(loaded.Entries) != len(snap.Entries) {
		fail("snapshot round-trip lost entries: saved %d, loaded %d", len(snap.Entries), len(loaded.Entries))
	}
	for i := range snap.Entries {
		if i >= len(loaded.Entries) {
			break
		}
		want := plancache.ProgramFingerprint(snap.Entries[i].Program)
		got := plancache.ProgramFingerprint(loaded.Entries[i].Program)
		if want != got {
			fail("snapshot round-trip entry %d not bitwise-identical:\n  saved:  %s\n  loaded: %s", i, want, got)
		}
	}

	// Warm replica: import the round-tripped snapshot, then serve every hot
	// shape. The gate: zero online plans, bitwise-identical programs.
	warm := core.NewCompilerFromLibrary(lib)
	imported, err := warm.ImportSnapshot(loaded)
	if err != nil {
		return nil, nil, fmt.Errorf("import snapshot: %w", err)
	}
	var out []Case
	for _, c := range cases {
		shape := tensor.GemmShape{M: c.M, N: c.N, K: c.K}
		before, _ := warm.PlanStats()
		prog, err := warm.Plan(shape)
		if err != nil {
			return nil, nil, fmt.Errorf("warm plan %s: %w", c.Name, err)
		}
		after, _ := warm.PlanStats()
		warmFP := plancache.ProgramFingerprint(prog)
		out = append(out, Case{Name: c.Name, Exact: map[string]string{
			"cold_fp": coldFP[c.Name], "warm_fp": warmFP,
		}})
		if after > before {
			fail("%s: warm replica planned online (want snapshot hit)", c.Name)
		}
		if warmFP != coldFP[c.Name] {
			fail("%s: warm program not bitwise-identical to cold:\n  cold: %s\n  warm: %s",
				c.Name, coldFP[c.Name], warmFP)
		}
	}
	warmPlans, _ := warm.PlanStats()
	if warmPlans != 0 {
		fail("warm replica performed %d online plans over the hot set, want 0", warmPlans)
	}
	out = append(out, Case{Name: "replicas", Exact: map[string]string{
		"cold_plans":       itoa(coldPlans),
		"snapshot_entries": itoa(len(snap.Entries)),
		"imported":         itoa(imported),
		"warm_plans":       itoa(warmPlans),
	}})

	// Invalidation: a snapshot from a retuned (different-hash) library must
	// be rejected cleanly, and the replica must still plan online.
	tampered := *loaded
	tampered.LibraryHash = "deadbeef" + tampered.LibraryHash
	stale := core.NewCompilerFromLibrary(lib)
	if n, err := stale.ImportSnapshot(&tampered); err == nil {
		fail("tampered library-hash snapshot was accepted (%d entries), want rejection", n)
	} else if !errors.Is(err, plancache.ErrIncompatible) {
		fail("tampered snapshot rejection is not ErrIncompatible: %v", err)
	}
	first := cases[0]
	prog, err := stale.Plan(tensor.GemmShape{M: first.M, N: first.N, K: first.K})
	if err != nil {
		return nil, nil, fmt.Errorf("replan after rejected snapshot: %w", err)
	}
	if fp := plancache.ProgramFingerprint(prog); fp != coldFP[first.Name] {
		fail("%s: online replan after rejected snapshot diverged:\n  cold:   %s\n  replan: %s",
			first.Name, coldFP[first.Name], fp)
	}
	if n, _ := stale.PlanStats(); n != 1 {
		fail("replica with rejected snapshot performed %d online plans for one request, want 1", n)
	}

	return out, failed, nil
}
