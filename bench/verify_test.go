package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"sanity/internal/pipeline"
)

func refVerdicts() []pipeline.Verdict {
	return []pipeline.Verdict{
		{JobID: "benign-0", Shard: "nfsd", Label: pipeline.LabelBenign, Scores: []pipeline.Score{{Detector: "cce", Value: 0.5}}},
		{JobID: "ipctc-0", Shard: "nfsd", Label: pipeline.LabelCovert, Suspicious: true, Scores: []pipeline.Score{{Detector: "cce", Value: 7}}},
	}
}

// renderRound renders a reference as the expected lines and the daemon's
// stream of them, the latter with sweep indexes the reference does not
// share.
func renderRound(t *testing.T, daemon []pipeline.Verdict) (map[verdictKey][]byte, [][]byte) {
	t.Helper()
	want := make(map[verdictKey][]byte)
	for _, v := range refVerdicts() {
		line, err := expectedLine(v, v.JobID)
		if err != nil {
			t.Fatal(err)
		}
		want[verdictKey{v.Shard, v.JobID}] = line
	}
	var lines [][]byte
	for i, v := range daemon {
		v.Index = 40 + i
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, append(b, '\n'))
	}
	return want, lines
}

func TestRoundCheck(t *testing.T) {
	ref := refVerdicts()
	flipped := refVerdicts()
	flipped[0].Suspicious = true
	errored := refVerdicts()
	errored[1].Err = "sanity-tdr: replay failed"
	stranger := append(refVerdicts(), pipeline.Verdict{JobID: "benign-9", Shard: "nfsd"})

	for _, c := range []struct {
		name   string
		daemon []pipeline.Verdict
		want   []string // a substring per expected failure
	}{
		{"identical but for the index", ref, nil},
		{"reordered", []pipeline.Verdict{ref[1], ref[0]}, nil},
		{"flipped suspicious", flipped, []string{"differs from the reference"}},
		{"duplicate id", []pipeline.Verdict{ref[0], ref[1], ref[1]}, []string{"duplicate verdict for nfsd/ipctc-0"}},
		{"missing id", ref[:1], []string{"missing verdict for nfsd/ipctc-0"}},
		{"err set", errored, []string{"carries err"}},
		{"not of this round", stranger, []string{"was not expected"}},
	} {
		want, lines := renderRound(t, c.daemon)
		check := newRoundCheck(want)
		for _, l := range lines {
			check.line(l)
		}
		got := check.finish()
		if len(got) != len(c.want) {
			t.Errorf("%s: %d failures %q, want %d", c.name, len(got), got, len(c.want))
			continue
		}
		for i, sub := range c.want {
			if !strings.Contains(got[i], sub) {
				t.Errorf("%s: failure %q does not mention %q", c.name, got[i], sub)
			}
		}
	}
}

func TestStripIndex(t *testing.T) {
	got, err := stripIndex([]byte(`{"index":12,"id":"a,b","shard":"s"}` + "\n"))
	if err != nil || !bytes.Equal(got, []byte(`{"id":"a,b","shard":"s"}`)) {
		t.Errorf("stripIndex = %s, %v", got, err)
	}
	for _, bad := range []string{`{"id":"a"}`, `{"index":3}`, `garbage`} {
		if _, err := stripIndex([]byte(bad)); err == nil {
			t.Errorf("stripIndex(%s) accepted a line without a leading index", bad)
		}
	}
}
