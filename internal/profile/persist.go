// Profile-table persistence — the persistent lookup table of Table V's
// "offline" row. One file format: per-entry CRC32C framing so one flipped
// bit costs one entry instead of the whole table, torn-tail tolerance so a
// crash mid-write loses only the tail, and the journal's atomic publish so
// readers never observe a half-written table.
package profile

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"slate/internal/engine"
	"slate/internal/fault"
	"slate/internal/ipc"
	"slate/internal/journal"
)

// persistEntry is one framed record of the on-disk profile table.
type persistEntry struct {
	Key     string   `json:"key"`
	Profile *Profile `json:"profile"`
}

// LoadStats reports what LoadFile found: how many entries were merged, how
// many were skipped as foreign (device or model-version mismatch), how many
// were quarantined as corrupt, and how many torn bytes the tail held.
type LoadStats struct {
	Loaded        int
	Skipped       int
	Quarantined   int
	TruncatedTail int
}

// SaveFile atomically writes the completed profile table to path: entries
// are framed individually (sorted by key, so the bytes are deterministic)
// and published with journal.Publish — a crash leaves either the old table
// or the new one, never a blend. crash is the crash-point hook for chaos
// tests (nil in production): it fires at fault.SiteProfileRenameMid, after
// the temp file is durable but before the rename publishes it.
func (p *Profiler) SaveFile(path string, crash func(site string) error) error {
	var entries []persistEntry
	p.table.Range(func(fp string, pr *Profile) bool {
		entries = append(entries, persistEntry{Key: fp, Profile: pr})
		return true
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })

	var buf []byte
	for _, ent := range entries {
		b, err := json.Marshal(ent)
		if err != nil {
			return fmt.Errorf("profile: encode %q: %w", ent.Key, err)
		}
		buf = ipc.AppendFrame(buf, b)
	}
	return journal.Publish(path, buf, crash, "", fault.SiteProfileRenameMid)
}

// LoadFile merges a table written by SaveFile. Damage is contained per
// entry: a frame failing its checksum, or one that no longer parses, is
// copied to a `.bad` sidecar and skipped; a torn tail (the partial frame a
// crash mid-write leaves) stops the walk, and so does a file in any other
// format, which loads nothing; entries stamped for a different device or
// model generation are skipped — their numbers would be wrong here — while
// legacy unstamped entries load as-is. Loaded entries satisfy Get without
// re-measuring. A leftover temp file from a crashed publish is removed. A
// missing file is not an error — the table simply starts cold.
func (p *Profiler) LoadFile(path string) (LoadStats, error) {
	var st LoadStats
	os.Remove(path + ".tmp") // crashed publish: the temp was never the table
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, err
	}
	var bad []byte
	rest := data
	for len(rest) > 0 {
		payload, next, err := ipc.DecodeFrame(rest)
		if err != nil {
			if next == nil {
				// Torn tail or unrecoverable length damage: everything from
				// here on is unreadable.
				st.TruncatedTail = len(rest)
				break
			}
			// Complete frame, bad checksum: quarantine it, keep walking.
			bad = append(bad, rest[:len(rest)-len(next)]...)
			st.Quarantined++
			rest = next
			continue
		}
		var ent persistEntry
		if uerr := json.Unmarshal(payload, &ent); uerr != nil || ent.Profile == nil {
			bad = append(bad, rest[:len(rest)-len(next)]...)
			st.Quarantined++
			rest = next
			continue
		}
		if p.merge(ent.Key, ent.Profile) {
			st.Loaded++
		} else {
			st.Skipped++
		}
		rest = next
	}
	if len(bad) > 0 {
		if werr := os.WriteFile(path+".bad", bad, 0o644); werr != nil {
			return st, fmt.Errorf("profile: quarantine sidecar: %w", werr)
		}
	}
	return st, nil
}

// merge installs one loaded entry under the shared device/version rules:
// entries stamped with a different device or model generation are rejected,
// legacy unstamped entries load as-is.
func (p *Profiler) merge(key string, v *Profile) bool {
	if v == nil {
		return false
	}
	if v.Device != "" && v.Device != p.Dev.Name {
		return false
	}
	if v.ModelVersion != 0 && v.ModelVersion != engine.ModelVersion {
		return false
	}
	if v.Fingerprint != "" {
		key = v.Fingerprint
	}
	if key == "" {
		return false
	}
	p.table.Put(key, v)
	return true
}
