// Package sealedfile is the crash-safe, integrity-checked file format of the
// persisted micro-kernel library: the payload followed by a SHA-256 trailer
// line, written through a temporary file, fsync and atomic rename.
package sealedfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
)

// checksumPrefix introduces the integrity trailer Write appends after the
// payload. The payloads are single JSON documents and json.Decoder stops at
// the end of the first value, so the trailer is invisible to stream decoders
// handed the whole file; Read verifies it.
const checksumPrefix = "#mikpoly-sha256:"

// Write persists payload to path crash-safely: the bytes are written to a
// temporary file in the same directory, fsynced, and atomically renamed over
// path, so a crash mid-write can never leave a truncated artifact where a
// complete one is expected. A SHA-256 trailer over the payload lets Read
// detect bit rot and partial copies.
func Write(path string, payload []byte) error {
	sum := sha256.Sum256(payload)
	trailer := checksumPrefix + hex.EncodeToString(sum[:]) + "\n"

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.WriteString(trailer); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Persist the rename itself: fsync the directory so the new name
	// survives a crash. Some filesystems refuse directory syncs; the data
	// is already durable, so that is not fatal.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Read returns the payload of a file written by Write, verifying the SHA-256
// trailer first. Any corruption — truncation, bit flips, a missing trailer —
// is rejected with an error rather than handing back damaged bytes.
func Read(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	i := bytes.LastIndex(data, []byte(checksumPrefix))
	if i < 0 {
		return nil, fmt.Errorf("%s: missing integrity trailer (truncated or not written by SaveFile)", path)
	}
	payload, trailer := data[:i], data[i+len(checksumPrefix):]
	want := string(bytes.TrimSpace(trailer))
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != want {
		return nil, fmt.Errorf("%s: checksum mismatch (artifact corrupted)", path)
	}
	return payload, nil
}
