package main

import (
	"os"
	"path/filepath"
	"testing"

	"sanity/internal/fixtures"
	"sanity/internal/store"
)

// An epoch that would take the live files past 512 MB is refused
// before its daemon boots.
func TestFootprintGuard(t *testing.T) {
	const mb = 1 << 20
	if err := checkEpoch(222*mb, 111*mb, 2); err != nil {
		t.Errorf("the window_restore shape (222 MB staged, 2 rounds of 111 MB) must fit: %v", err)
	}
	if err := checkEpoch(222*mb, 111*mb, 3); err == nil {
		t.Error("a third 111 MB round on 222 MB staged exceeds 512 MB and must abort")
	}
	if err := checkEpoch(footprintLimit, 1, 1); err == nil {
		t.Error("one byte over the limit must abort")
	}
}

// No workload may hold more verdicts in one daemon than the retention
// cliff allows, at either size.
func TestWorkloadsRespectTheNoiseRules(t *testing.T) {
	for _, short := range []bool{false, true} {
		for _, w := range workloadTable(short) {
			if err := w.check(); err != nil {
				t.Error(err)
			}
		}
	}
	over := &workload{name: "over", batch: 256, epochRounds: 13}
	if err := over.check(); err == nil {
		t.Error("13 rounds of 256 verdicts in one daemon must be refused")
	}
}

func TestLinkStoreSharesContainers(t *testing.T) {
	set, err := fixtures.SyntheticSet(fixtures.SetSizes{Training: 4, Benign: 3, Covert: 1, Packets: 220}, 7)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	shard := fixtures.NFSShardMeta(7)
	export := func(name string, part *fixtures.Set) string {
		st, err := store.Create(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := fixtures.ExportSet(st, part, shard); err != nil {
			t.Fatal(err)
		}
		return st.Dir()
	}
	prime := export("prime", &fixtures.Set{Training: set.Training})
	tests := export("round", &fixtures.Set{Traces: set.Traces})
	before, err := liveBytes(root)
	if err != nil {
		t.Fatal(err)
	}

	merged := filepath.Join(root, "merged")
	if err := linkStore(merged, prime, tests); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(st.Entries()), len(set.Training)+len(set.Traces); got != want {
		t.Errorf("merged store has %d entries, want %d", got, want)
	}
	if len(st.Shards()) != 1 {
		t.Errorf("merged store has %d shards, want the one both sources share", len(st.Shards()))
	}
	for _, e := range st.Entries() {
		if _, err := st.LoadIPDs(e.File); err != nil {
			t.Errorf("linked container %s does not load: %v", e.File, err)
		}
	}
	// Only the merged manifest is new bytes: the containers are links.
	after, err := liveBytes(root)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.Stat(filepath.Join(merged, store.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if after != before+manifest.Size() {
		t.Errorf("linking grew the live bytes from %d to %d, want only the %d-byte manifest", before, after, manifest.Size())
	}
	// Auditing state written through the copy leaves the source alone.
	if err := st.SetAuditState(st.Entries()[len(set.Training)].File, store.AuditAudited); err != nil {
		t.Fatal(err)
	}
	src, err := store.Open(tests)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range src.Entries() {
		b, err := os.ReadFile(filepath.Join(tests, e.File+".json"))
		if err != nil || len(b) == 0 || e.Audit != store.AuditPending {
			t.Errorf("source entry %s changed under its linked copy (audit %q, err %v)", e.ID, e.Audit, err)
		}
	}
}
