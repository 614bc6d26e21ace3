package fleet

import (
	"encoding/json"
	"fmt"

	"mikpoly/internal/hw"
	"mikpoly/internal/sim"
	"mikpoly/internal/tune"
)

// SpecEntry is one line of a fleet spec: a hardware class and a replica
// count. The JSON form is what `mikserve -fleet` accepts, e.g.
//
//	[{"hw":"a100","replicas":2},{"hw":"ascend910","replicas":1}]
type SpecEntry struct {
	// Name prefixes the replica names (default: the hw class name);
	// replicas are named "<name>-<i>".
	Name string `json:"name,omitempty"`
	// HW is the hardware class: a100, a100cuda, or ascend910.
	HW string `json:"hw"`
	// Replicas is the device count for this class (default 1).
	Replicas int `json:"replicas,omitempty"`
}

// maxDevices bounds the replica total of one fleet spec.
const maxDevices = 64

// ParseSpec decodes and validates a JSON fleet spec.
func ParseSpec(data []byte) ([]SpecEntry, error) {
	var entries []SpecEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("fleet: bad spec: %w", err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("fleet: spec lists no devices")
	}
	total := 0
	for i := range entries {
		if _, err := hw.ByName(entries[i].HW); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		if entries[i].Replicas == 0 {
			entries[i].Replicas = 1
		}
		if entries[i].Replicas < 0 {
			return nil, fmt.Errorf("fleet: negative replica count for %q", entries[i].HW)
		}
		if entries[i].Name == "" {
			entries[i].Name = entries[i].HW
		}
		// Checked before summing, so a huge count cannot wrap the total.
		if entries[i].Replicas > maxDevices-total {
			return nil, fmt.Errorf("fleet: %q replicas %d exceed the %d-device limit (%d already listed)",
				entries[i].HW, entries[i].Replicas, maxDevices, total)
		}
		total += entries[i].Replicas
	}
	return entries, nil
}

// BuildDevices materializes a spec into devices: one micro-kernel library per
// spec entry, obtained from libFor and shared by the entry's replicas, and one
// compiler + plan cache + health registry + runtime per replica. devFaults,
// when non-nil, assigns per-replica device-level fault domains by fleet index
// (the chaos knob); extra entries are ignored, missing ones default to
// healthy.
func BuildDevices(entries []SpecEntry, libFor func(hw.Hardware) (*tune.Library, error), base DeviceConfig, devFaults []sim.DeviceFaults) ([]*Device, error) {
	var out []*Device
	k := 0
	for _, e := range entries {
		h, err := hw.ByName(e.HW)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		lib, err := libFor(h)
		if err != nil {
			return nil, fmt.Errorf("fleet: library for %s: %w", e.HW, err)
		}
		for i := 0; i < e.Replicas; i++ {
			cfg := base
			cfg.Name = fmt.Sprintf("%s-%d", e.Name, i)
			if k < len(devFaults) {
				if err := devFaults[k].Validate(); err != nil {
					return nil, err
				}
				cfg.DevFaults = devFaults[k]
			}
			out = append(out, NewDevice(lib, cfg))
			k++
		}
	}
	return out, nil
}
