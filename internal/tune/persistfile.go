package tune

import (
	"bytes"
	"fmt"

	"mikpoly/internal/sealedfile"
)

// SaveFile persists the library to path in the crash-safe, checksummed
// sealedfile format, so a crash mid-write can never leave a truncated
// library where a complete one is expected.
func SaveFile(l *Library, path string) error {
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		return err
	}
	if err := sealedfile.Write(path, buf.Bytes()); err != nil {
		return fmt.Errorf("tune: saving library: %w", err)
	}
	return nil
}

// LoadFile restores a library written by SaveFile. Any corruption —
// truncation, bit flips, a missing trailer — is rejected with an error
// rather than silently loading a damaged artifact.
func LoadFile(path string) (*Library, error) {
	payload, err := sealedfile.Read(path)
	if err != nil {
		return nil, fmt.Errorf("tune: loading library: %w", err)
	}
	lib, err := Load(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("tune: library %s: %w", path, err)
	}
	return lib, nil
}
