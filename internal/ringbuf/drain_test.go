package ringbuf

// TSRecord is a drained T-S entry as the SC sees it.
type TSRecord struct {
	Kind    int64
	Payload []byte // outputs
	Value   int64  // events
}

// SCDrain removes and returns all queued records, as SCDiscard
// removes them: the tests' view of what the SC receives.
func (t *TS) SCDrain() []TSRecord {
	r := t.r
	var out []TSRecord
	for ; r.count > 0; r.count-- {
		slot := r.slots[r.head]
		rec := TSRecord{Kind: slot[0]}
		if slot[0] == TSOutput {
			rec.Payload = make([]byte, slot[1])
			unpackBytes(rec.Payload, slot[2:])
		} else {
			rec.Value = slot[2]
		}
		out = append(out, rec)
		r.empty(r.head)
		r.head = (r.head + 1) % len(r.slots)
	}
	return out
}
