package ringbuf

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAccessWordPlayWritesValue(t *testing.T) {
	slot := int64(999)
	got := AccessWord(42, &slot, PlayMask)
	if got != 42 || slot != 42 {
		t.Fatalf("play: got %d slot %d, want 42 42", got, slot)
	}
}

func TestAccessWordReplayReadsSlot(t *testing.T) {
	slot := int64(77)
	got := AccessWord(42, &slot, ReplayMask)
	if got != 77 || slot != 77 {
		t.Fatalf("replay: got %d slot %d, want 77 77", got, slot)
	}
}

func TestAccessWordProperty(t *testing.T) {
	// For any value/slot pair, play returns value and replay returns
	// the slot, and both leave slot == result.
	f := func(value, slotInit int64) bool {
		s1 := slotInit
		p := AccessWord(value, &s1, PlayMask)
		s2 := slotInit
		r := AccessWord(value, &s2, ReplayMask)
		return p == value && s1 == value && r == slotInit && s2 == slotInit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSTEmptyPollMisses(t *testing.T) {
	st := NewST(0x9000_0000, 16, nil)
	if _, _, ok := st.TCPoll(1_000_000, PlayMask, nil); ok {
		t.Fatal("poll on empty buffer returned an entry")
	}
}

func TestSTPlayDelivery(t *testing.T) {
	st := NewST(0x9000_0000, 16, nil)
	if err := st.SCPush([]byte("hello"), FreshTimestamp); err != nil {
		t.Fatal(err)
	}
	payload, ts, ok := st.TCPoll(12345, PlayMask, nil)
	if !ok {
		t.Fatal("entry not delivered")
	}
	if string(payload) != "hello" {
		t.Fatalf("payload %q", payload)
	}
	if ts != 12345 {
		t.Fatalf("play timestamp = %d, want the poll instruction count", ts)
	}
	// Buffer is empty again (only the sentinel remains).
	if _, _, ok := st.TCPoll(99999, PlayMask, nil); ok {
		t.Fatal("second poll should miss")
	}
}

func TestSTReplayGating(t *testing.T) {
	st := NewST(0x9000_0000, 16, nil)
	// Replay: the SC preloads the entry with its logged delivery
	// point; the TC must not receive it earlier.
	if err := st.SCPush([]byte("pkt"), 500); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.TCPoll(499, ReplayMask, nil); ok {
		t.Fatal("entry delivered before its logged instruction count")
	}
	payload, ts, ok := st.TCPoll(500, ReplayMask, nil)
	if !ok {
		t.Fatal("entry not delivered at its logged point")
	}
	if ts != 500 {
		t.Fatalf("replay timestamp = %d, want 500 (the logged value)", ts)
	}
	if string(payload) != "pkt" {
		t.Fatalf("payload %q", payload)
	}
}

func TestSTOrdering(t *testing.T) {
	st := NewST(0x9000_0000, 16, nil)
	for i := 0; i < 3; i++ {
		if err := st.SCPush([]byte{byte('a' + i)}, FreshTimestamp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		p, _, ok := st.TCPoll(int64(1000+i), PlayMask, nil)
		if !ok || p[0] != byte('a'+i) {
			t.Fatalf("entry %d out of order: %q ok=%v", i, p, ok)
		}
	}
}

func TestSTPendingAndOverflow(t *testing.T) {
	st := NewST(0x9000_0000, 4, nil)
	if st.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", st.Pending())
	}
	for i := 0; i < 3; i++ {
		if err := st.SCPush([]byte{1}, FreshTimestamp); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if st.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", st.Pending())
	}
	if err := st.SCPush([]byte{1}, FreshTimestamp); err != ErrFull {
		t.Fatalf("expected ErrFull, got %v", err)
	}
}

func TestSTChargesSameAccessesOnHitVsPlayReplay(t *testing.T) {
	// The TC-visible access pattern when consuming an entry must be
	// identical in play and replay — the symmetric-access property.
	trace := func(mask int64, ts int64) []int64 {
		var addrs []int64
		st := NewST(0x9000_0000, 16, func(addr int64, write bool) {
			a := addr * 2
			if write {
				a++
			}
			addrs = append(addrs, a)
		})
		if err := st.SCPush([]byte("abcdefgh"), ts); err != nil {
			t.Fatal(err)
		}
		st.TCPoll(10_000, mask, nil)
		return addrs
	}
	play := trace(PlayMask, FreshTimestamp)
	replay := trace(ReplayMask, 9_000)
	if len(play) != len(replay) {
		t.Fatalf("access counts differ: %d vs %d", len(play), len(replay))
	}
	for i := range play {
		if play[i] != replay[i] {
			t.Fatalf("access %d differs: %d vs %d", i, play[i], replay[i])
		}
	}
}

func TestTSOutputRoundTrip(t *testing.T) {
	ts := NewTS(0xA000_0000, 16, nil)
	msg := []byte("response-payload-123")
	if err := ts.TCSendOutput(msg); err != nil {
		t.Fatal(err)
	}
	recs := ts.SCDrain()
	if len(recs) != 1 || recs[0].Kind != TSOutput {
		t.Fatalf("records %+v", recs)
	}
	if !bytes.Equal(recs[0].Payload, msg) {
		t.Fatalf("payload %q, want %q", recs[0].Payload, msg)
	}
}

func TestTSEventPlayRecordsValue(t *testing.T) {
	ts := NewTS(0xA000_0000, 16, nil)
	got, err := ts.TCEvent(1234567, PlayMask)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1234567 {
		t.Fatalf("play event returned %d", got)
	}
	recs := ts.SCDrain()
	if len(recs) != 1 || recs[0].Kind != TSEvent || recs[0].Value != 1234567 {
		t.Fatalf("SC saw %+v", recs)
	}
}

func TestTSEventReplayInjectsLoggedValue(t *testing.T) {
	ts := NewTS(0xA000_0000, 16, nil)
	ts.SCPreloadEvent(42) // logged value from play
	got, err := ts.TCEvent(999999, ReplayMask)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("replay event returned %d, want the logged 42", got)
	}
}

func TestTSMixedStream(t *testing.T) {
	ts := NewTS(0xA000_0000, 16, nil)
	if err := ts.TCSendOutput([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.TCEvent(7, PlayMask); err != nil {
		t.Fatal(err)
	}
	if err := ts.TCSendOutput([]byte("b")); err != nil {
		t.Fatal(err)
	}
	recs := ts.SCDrain()
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Kind != TSOutput || recs[1].Kind != TSEvent || recs[2].Kind != TSOutput {
		t.Fatalf("kinds wrong: %+v", recs)
	}
}

func TestTSOverflow(t *testing.T) {
	ts := NewTS(0xA000_0000, 2, nil)
	if err := ts.TCSendOutput([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := ts.TCSendOutput([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := ts.TCSendOutput([]byte("z")); err != ErrFull {
		t.Fatalf("expected ErrFull, got %v", err)
	}
}

func TestPackUnpackBytes(t *testing.T) {
	f := func(b []byte) bool {
		if len(b) > 512 {
			b = b[:512]
		}
		words := make([]int64, (len(b)+7)/8)
		packBytes(words, b)
		out := make([]byte, len(b))
		unpackBytes(out, words)
		return bytes.Equal(b, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRingsReuseStorage: once a ring has held its entries, cycling
// more through it allocates nothing, when TCPoll copies each payload
// into the caller's buffer.
func TestRingsReuseStorage(t *testing.T) {
	st := NewST(0x9000_0000, 16, nil)
	ts := NewTS(0xA000_0000, 16, nil)
	payload := []byte("a request of a few words")
	buf := make([]byte, 64)
	cycle := func() {
		if err := st.SCPush(payload, FreshTimestamp); err != nil {
			t.Fatal(err)
		}
		if got, _, ok := st.TCPoll(1, PlayMask, buf); !ok || string(got) != string(payload) {
			t.Fatalf("entry not delivered (got %q)", got)
		}
		if err := ts.TCSendOutput(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := ts.TCEvent(7, PlayMask); err != nil {
			t.Fatal(err)
		}
		ts.SCDiscard()
		ts.SCPreloadEvent(9)
		if _, err := ts.TCEvent(8, ReplayMask); err != nil {
			t.Fatal(err)
		}
		ts.SCDiscard()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a push/poll/send/event cycle allocates %v times", allocs)
	}
}

// TestAlignResumeZeroIsNew: a used buffer aligned to 0 snapshots
// exactly as a new one does, which is what lets an engine reuse rings.
func TestAlignResumeZeroIsNew(t *testing.T) {
	st, ts := NewST(0x9000_0000, 8, nil), NewTS(0xA000_0000, 8, nil)
	for i := 0; i < 11; i++ {
		if err := st.SCPush([]byte{byte(i)}, FreshTimestamp); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			st.TCPoll(int64(i), PlayMask, nil)
		}
		if err := ts.TCSendOutput([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			ts.SCDiscard()
		}
	}
	st.AlignResume(0)
	ts.AlignResume(0)
	if got, want := st.State(), NewST(0x9000_0000, 8, nil).State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("aligned S-T buffer %+v, new %+v", got, want)
	}
	if got, want := ts.State(), NewTS(0xA000_0000, 8, nil).State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("aligned T-S buffer %+v, new %+v", got, want)
	}
}
