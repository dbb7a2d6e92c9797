package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"

	"sanity/internal/store"
)

// footprintLimit bounds the live benchmark files (staged sources plus
// spools). Sizing showed that a footprint growing for a whole run walks
// into never-touched guest pages and round time steps up mid-run;
// bounded, rounds stay flat.
const footprintLimit = 512 << 20

// newWorkRoot makes the run's scratch directory. Spools and staged
// sources live on tmpfs when the box has one: this sandbox cannot
// measure disk writeback, only be disturbed by it. Without /dev/shm the
// directory falls back under the benchmark's own out/ and the result
// says tmpfs=false.
func newWorkRoot(outDir string) (dir string, tmpfs bool, err error) {
	if dir, err = os.MkdirTemp("/dev/shm", "tdr-bench-*"); err == nil {
		return dir, true, nil
	}
	if err = os.MkdirAll(outDir, 0o755); err != nil {
		return "", false, err
	}
	dir, err = os.MkdirTemp(outDir, "work-*")
	return dir, false, err
}

// liveBytes sums the regular files under root, counting a file that is
// hard-linked several times once.
func liveBytes(root string) (int64, error) {
	seen := make(map[uint64]struct{})
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			// A daemon finishing its sweep renames its temp files away
			// under the walk.
			return nil
		}
		if err != nil {
			return err
		}
		if st, ok := info.Sys().(*syscall.Stat_t); ok {
			if _, dup := seen[st.Ino]; dup {
				return nil
			}
			seen[st.Ino] = struct{}{}
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// checkEpoch refuses an epoch whose spool would take the live files
// past the limit: staged bytes are already on tmpfs, and each of the
// epoch's rounds adds one round's containers to the spool.
func checkEpoch(staged, roundBytes int64, rounds int) error {
	if peak := staged + roundBytes*int64(rounds); peak > footprintLimit {
		return fmt.Errorf("bench: an epoch of %d rounds x %d bytes on top of %d staged bytes would hold %d live bytes, over the %d limit",
			rounds, roundBytes, staged, peak, int64(footprintLimit))
	}
	return nil
}

// linkStore builds a store directory at dst holding every shard and
// trace of the source stores, hard-linking containers and sidecars
// instead of copying them. The store never writes a container or a
// sidecar in place (both are replaced by rename), so a linked copy can
// be audited, re-scored and deleted without touching its sources.
func linkStore(dst string, srcs ...string) error {
	merged := store.Manifest{}
	for _, src := range srcs {
		b, err := os.ReadFile(filepath.Join(src, store.ManifestName))
		if err != nil {
			return err
		}
		var m store.Manifest
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("bench: manifest of %s: %w", src, err)
		}
		if m.Version > merged.Version {
			merged.Version = m.Version
		}
	shards:
		for _, sh := range m.Shards {
			for _, have := range merged.Shards {
				if have.Key == sh.Key {
					continue shards
				}
			}
			merged.Shards = append(merged.Shards, sh)
		}
		for _, e := range m.Traces {
			if err := os.MkdirAll(filepath.Dir(filepath.Join(dst, e.File)), 0o755); err != nil {
				return err
			}
			for _, name := range []string{e.File, e.File + ".json"} {
				if err := os.Link(filepath.Join(src, name), filepath.Join(dst, name)); err != nil {
					return err
				}
			}
			merged.Traces = append(merged.Traces, e)
		}
	}
	b, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dst, store.ManifestName), append(b, '\n'), 0o644)
}
