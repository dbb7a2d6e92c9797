package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"sanity/internal/pipeline"
)

// verdictKey names a verdict the way the daemon's manifest does.
type verdictKey struct{ shard, id string }

// stripIndex removes the leading "index" member from a verdict line.
// The index is a verdict's position in its own sweep — claim order in
// the daemon, manifest order in the reference audit — so it is the one
// member the two legitimately disagree on.
func stripIndex(line []byte) ([]byte, error) {
	const prefix = `{"index":`
	line = bytes.TrimSpace(line)
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return nil, fmt.Errorf("verdict line does not start with %s: %.60q", prefix, line)
	}
	comma := bytes.IndexByte(line, ',')
	if comma < 0 {
		return nil, fmt.Errorf("verdict line has no member after index: %.60q", line)
	}
	return append([]byte{'{'}, line[comma+1:]...), nil
}

// expectedLine renders the line the daemon must stream for a reference
// verdict once the trace is staged under id.
func expectedLine(v pipeline.Verdict, id string) ([]byte, error) {
	v.JobID = id
	v.Explain = nil
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return stripIndex(b)
}

// roundCheck compares one round's verdict lines against the reference:
// each expected verdict must arrive exactly once, byte-equal, with no
// err. Anything else is a failed operation.
type roundCheck struct {
	want     map[verdictKey][]byte
	seen     map[verdictKey]bool
	failures []string
}

func newRoundCheck(want map[verdictKey][]byte) *roundCheck {
	return &roundCheck{want: want, seen: make(map[verdictKey]bool, len(want))}
}

func (c *roundCheck) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// line checks one NDJSON line read from /verdicts.
func (c *roundCheck) line(raw []byte) {
	var head struct {
		ID    string `json:"id"`
		Shard string `json:"shard"`
		Err   string `json:"err"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		c.fail("unparsable verdict line %.60q: %v", raw, err)
		return
	}
	k := verdictKey{head.Shard, head.ID}
	want, ok := c.want[k]
	switch {
	case !ok:
		c.fail("verdict for %s/%s was not expected in this round", k.shard, k.id)
		return
	case c.seen[k]:
		c.fail("duplicate verdict for %s/%s", k.shard, k.id)
		return
	}
	c.seen[k] = true
	if head.Err != "" {
		c.fail("verdict for %s/%s carries err %q", k.shard, k.id, head.Err)
		return
	}
	got, err := stripIndex(raw)
	if err != nil {
		c.fail("%s/%s: %v", k.shard, k.id, err)
		return
	}
	if !bytes.Equal(got, want) {
		c.fail("verdict for %s/%s differs from the reference:\n  got  %s\n  want %s", k.shard, k.id, got, want)
	}
}

// finish adds a failure per expected verdict that never arrived and
// returns every failure of the round.
func (c *roundCheck) finish() []string {
	for k := range c.want {
		if !c.seen[k] {
			c.fail("missing verdict for %s/%s", k.shard, k.id)
		}
	}
	return c.failures
}
