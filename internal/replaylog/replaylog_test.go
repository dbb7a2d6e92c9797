package replaylog

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func sample() *Log {
	l := New("echo", "optiplex9020", "sanity")
	l.AppendPacket(100, 5000, []byte("first packet"))
	l.AppendValue(KindTimeRead, 150, 6000, 123456789)
	l.AppendPacket(300, 9000, []byte{0, 1, 2, 3, 255})
	l.AppendValue(KindRandom, 400, 9500, -42)
	return l
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l := sample()
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != l.Program || got.Machine != l.Machine || got.Profile != l.Profile {
		t.Fatalf("metadata lost: %+v", got)
	}
	if len(got.Records) != len(l.Records) {
		t.Fatalf("record count %d, want %d", len(got.Records), len(l.Records))
	}
	for i := range l.Records {
		a, b := l.Records[i], got.Records[i]
		if a.Kind != b.Kind || a.Instr != b.Instr || a.Value != b.Value || a.PlayPs != b.PlayPs {
			t.Fatalf("record %d differs: %+v vs %+v", i, a, b)
		}
		if !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("record %d payload differs", i)
		}
	}
}

func TestEncodedSizeMatchesSizeBytes(t *testing.T) {
	l := sample()
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != l.SizeBytes() {
		t.Fatalf("encoded %d bytes, SizeBytes says %d", buf.Len(), l.SizeBytes())
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a log at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	l := sample()
	var buf bytes.Buffer
	if err := l.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) / 2, len(magic) + 2} {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestStatsComposition(t *testing.T) {
	l := sample()
	s := l.Stats()
	if s.Packets != 2 || s.ValueRecords != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.PacketBytes <= int64(len("first packet")) {
		t.Fatal("packet bytes should include framing")
	}
	if s.TotalBytes != l.SizeBytes() {
		t.Fatal("total bytes inconsistent")
	}
}

func TestPacketHeavyLogComposition(t *testing.T) {
	// Packets dominate the log for packet-heavy workloads (84% in the
	// paper's NFS trace, §6.5).
	l := New("nfs", "m", "sanity")
	for i := int64(0); i < 100; i++ {
		l.AppendPacket(i*1000, i*5000, bytes.Repeat([]byte{byte(i)}, 120))
		if i%10 == 0 {
			l.AppendValue(KindTimeRead, i*1000+5, i*5000+9, i)
		}
	}
	s := l.Stats()
	frac := float64(s.PacketBytes) / float64(s.TotalBytes)
	if frac < 0.8 {
		t.Fatalf("packet fraction %.2f, want >= 0.8", frac)
	}
}

func TestPacketsAndValuesSplit(t *testing.T) {
	l := sample()
	if got := len(l.Packets()); got != 2 {
		t.Fatalf("Packets() = %d", got)
	}
	if got := len(l.Values()); got != 2 {
		t.Fatalf("Values() = %d", got)
	}
	if l.Packets()[0].Instr != 100 || l.Values()[1].Value != -42 {
		t.Fatal("wrong records in split")
	}
}

// TestRoundTripProperty: a log whose instruction counts lie in
// [0, MaxInstr] decodes to what was encoded; one with any count
// outside that range is refused with ErrInstrRange.
func TestRoundTripProperty(t *testing.T) {
	build := func(instrs []int64, payload []byte, value int64) (*Log, []byte) {
		l := New("p", "m", "prof")
		for _, i := range instrs {
			l.AppendPacket(i, i*2, payload)
			l.AppendValue(KindTimeRead, i, i*2, value)
		}
		var buf bytes.Buffer
		if err := l.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return l, buf.Bytes()
	}
	f := func(raw []int64, payload []byte, value int64) bool {
		inRange := true
		instrs := make([]int64, len(raw))
		for n, i := range raw {
			inRange = inRange && i >= 0 && i <= MaxInstr
			instrs[n] = i & (MaxInstr - 1)
		}
		if _, enc := build(raw, payload, value); !inRange {
			if _, err := Decode(bytes.NewReader(enc)); !errors.Is(err, ErrInstrRange) {
				return false
			}
		}
		l, enc := build(instrs, payload, value)
		got, err := Decode(bytes.NewReader(enc))
		if err != nil {
			return false
		}
		if len(got.Records) != len(l.Records) {
			return false
		}
		for i := range l.Records {
			if got.Records[i].Instr != l.Records[i].Instr {
				return false
			}
			if !bytes.Equal(got.Records[i].Payload, l.Records[i].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestIdleClaimRefused is the reproducer for an unbounded idle skip: a
// log whose packet records jump by 2^60 instructions would have a
// blocked replay model idle polling, and fire every noise event, for
// 2^60 instructions. Every decoder refuses it, fast.
func TestIdleClaimRefused(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		l := New("nfsd", "optiplex9020", "sanity")
		for i := int64(0); i < 4; i++ {
			l.AppendPacket(i<<60, i*1000, []byte{byte(i)})
		}
		var buf bytes.Buffer
		if err := l.Encode(&buf); err != nil {
			t.Error(err)
			return
		}
		for name, dec := range map[string]func() error{
			"Validate":     func() error { _, err := Validate(bytes.NewReader(buf.Bytes())); return err },
			"Decode":       func() error { _, err := Decode(bytes.NewReader(buf.Bytes())); return err },
			"DecodeWindow": func() error { _, err := DecodeWindow(bytes.NewReader(buf.Bytes()), 1); return err },
		} {
			if err := dec(); !errors.Is(err, ErrInstrRange) {
				t.Errorf("%s: got %v, want ErrInstrRange", name, err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("decoding the reproducer took over 10 s")
	}
}

func TestAppendPacketCopiesPayload(t *testing.T) {
	l := New("p", "m", "prof")
	buf := []byte{1, 2, 3}
	l.AppendPacket(1, 1, buf)
	buf[0] = 99
	if l.Records[0].Payload[0] != 1 {
		t.Fatal("log aliases caller's buffer")
	}
}
