// Package plancache is MikPoly's persistent, shareable program-cache tier.
//
// The online polymerization stage makes planning cheap, but a cold replica
// still replans every shape it sees before its cache warms. This package
// serializes planned programs — together with everything that makes them
// valid: the library content hash, the planner algorithm version, the target
// hardware, and the health fingerprint each program was planned under — into
// a crash-safe snapshot artifact (the sealedfile format tune.SaveFile also
// uses: temp file, fsync, atomic rename, SHA-256 trailer). A new replica loads the snapshot and
// serves its first hot shapes with zero online plans; a snapshot whose
// compatibility envelope mismatches is rejected wholesale and the replica
// falls back to planning online, which is always correct, merely slower.
//
// Program identity is bitwise: an entry's fingerprint pairs the program's
// region layout with the IEEE-754 bit pattern of its estimated cost, the same
// convention as the BENCH_gate.json benchmark gate, so "the warm program equals
// the cold program" is checkable to the last bit.
package plancache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"mikpoly/internal/poly"
	"mikpoly/internal/sealedfile"
)

// Schema names the snapshot wire format; FormatVersion guards structural
// changes within it.
const (
	Schema        = "mikpoly-plancache/v1"
	FormatVersion = 1
)

// ErrIncompatible marks a structurally intact snapshot that must not be used
// by this process: wrong library hash, planner version, format, or hardware.
// Callers distinguish it from corruption only for diagnostics — either way
// the correct reaction is to drop the snapshot and plan online.
var ErrIncompatible = errors.New("plancache: snapshot incompatible")

// Entry is one cached program: the health fingerprint of the hardware view it
// was planned against ("" = pristine) plus the program itself and its bitwise
// cost fingerprint.
type Entry struct {
	// FP is the health-view fingerprint the program targets.
	FP string `json:"fp,omitempty"`
	// Program is the planned program verbatim (regions, pattern, estimated
	// cost, target hardware).
	Program *poly.Program `json:"program"`
	// CostBits is the IEEE-754 bit pattern (hex) of Program.EstimatedCost,
	// recorded redundantly so JSON round-trip drift is detectable.
	CostBits string `json:"cost_bits"`
}

// Fingerprint is the entry's bitwise identity: region layout + cost bits.
func (e Entry) Fingerprint() string {
	if e.Program == nil {
		return ""
	}
	return ProgramFingerprint(e.Program)
}

// ProgramFingerprint renders a program's bitwise identity — its region layout
// string paired with the exact cost bit pattern. Two programs with equal
// fingerprints are the same plan at the same modeled cost.
func ProgramFingerprint(p *poly.Program) string {
	return p.String() + "|" + CostBits(p)
}

// CostBits is the IEEE-754 bit pattern of the program's estimated cost, hex
// encoded — the BENCH_gate.json convention.
func CostBits(p *poly.Program) string {
	return fmt.Sprintf("%016x", math.Float64bits(p.EstimatedCost))
}

// Snapshot is one persisted program-cache image with its compatibility
// envelope.
type Snapshot struct {
	Schema        string `json:"schema"`
	FormatVersion int    `json:"format_version"`

	// PlannerVersion is poly.PlannerVersion at save time; LibraryHash the
	// tune.Library content digest; HW the hardware class name. All three
	// must match the loading replica exactly.
	PlannerVersion int    `json:"planner_version"`
	LibraryHash    string `json:"library_hash"`
	HW             string `json:"hw"`

	Entries []Entry `json:"entries"`
}

// New builds an empty snapshot bound to a library hash and hardware name.
func New(libraryHash, hwName string) *Snapshot {
	return &Snapshot{
		Schema:         Schema,
		FormatVersion:  FormatVersion,
		PlannerVersion: poly.PlannerVersion,
		LibraryHash:    libraryHash,
		HW:             hwName,
	}
}

// Validate checks the snapshot's internal integrity and its compatibility
// with a consumer holding libraryHash and hwName. Every rejection wraps
// ErrIncompatible; a nil error means every entry carries a valid program
// whose recorded cost bits match the program's actual cost.
func (s *Snapshot) Validate(libraryHash, hwName string) error {
	switch {
	case s == nil:
		return fmt.Errorf("%w: nil snapshot", ErrIncompatible)
	case s.Schema != Schema:
		return fmt.Errorf("%w: schema %q, want %q", ErrIncompatible, s.Schema, Schema)
	case s.FormatVersion != FormatVersion:
		return fmt.Errorf("%w: format version %d, want %d", ErrIncompatible, s.FormatVersion, FormatVersion)
	case s.PlannerVersion != poly.PlannerVersion:
		return fmt.Errorf("%w: planner version %d, want %d (programs may differ between planner generations)",
			ErrIncompatible, s.PlannerVersion, poly.PlannerVersion)
	case libraryHash == "":
		return fmt.Errorf("%w: consuming library has no content hash", ErrIncompatible)
	case s.LibraryHash != libraryHash:
		return fmt.Errorf("%w: library hash %.12s.. does not match %.12s.. (library retuned or reloaded)",
			ErrIncompatible, s.LibraryHash, libraryHash)
	case s.HW != hwName:
		return fmt.Errorf("%w: snapshot targets %s, consumer runs %s", ErrIncompatible, s.HW, hwName)
	}
	for i, e := range s.Entries {
		if e.Program == nil {
			return fmt.Errorf("%w: entry %d has no program", ErrIncompatible, i)
		}
		if err := e.Program.Validate(); err != nil {
			return fmt.Errorf("%w: entry %d (%v): %v", ErrIncompatible, i, e.Program.Shape, err)
		}
		if got := CostBits(e.Program); e.CostBits != got {
			return fmt.Errorf("%w: entry %d (%v): cost bits %s do not match program cost %s",
				ErrIncompatible, i, e.Program.Shape, e.CostBits, got)
		}
	}
	return nil
}

// Save writes the snapshot as indented JSON.
func (s *Snapshot) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("plancache: encoding snapshot: %w", err)
	}
	return nil
}

// Load restores a snapshot saved with Save. It checks structure only; call
// Validate to check compatibility with a concrete library.
func Load(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("plancache: decoding snapshot: %w", err)
	}
	return &s, nil
}

// SaveFile persists the snapshot to path in the crash-safe, checksummed
// sealedfile format, so a crash mid-flush can never leave a torn snapshot
// where a complete one is expected.
func SaveFile(s *Snapshot, path string) error {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return err
	}
	if err := sealedfile.Write(path, buf.Bytes()); err != nil {
		return fmt.Errorf("plancache: saving snapshot: %w", err)
	}
	return nil
}

// LoadFile restores a snapshot written by SaveFile. Any corruption —
// truncation, bit flips, a missing trailer — is rejected with an error rather
// than silently loading a damaged artifact; the caller falls back to online
// planning.
func LoadFile(path string) (*Snapshot, error) {
	payload, err := sealedfile.Read(path)
	if err != nil {
		return nil, fmt.Errorf("plancache: loading snapshot: %w", err)
	}
	s, err := Load(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("plancache: snapshot %s: %w", path, err)
	}
	return s, nil
}
