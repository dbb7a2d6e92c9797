package ingest_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sanity/internal/fixtures"
	"sanity/internal/ingest"
	"sanity/internal/pipeline"
	"sanity/internal/store"
)

// exportSynthetic materializes a small synthetic (IPD-only) corpus —
// no engine runs, so the protocol tests stay cheap.
func exportSynthetic(t testing.TB, dir string) *store.Store {
	t.Helper()
	set, err := fixtures.SyntheticSet(fixtures.SetSizes{Training: 4, Benign: 3, Covert: 1, Packets: 220}, 99)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fixtures.ExportSet(st, set, fixtures.NFSShardMeta(7)); err != nil {
		t.Fatal(err)
	}
	return st
}

func startServer(t testing.TB, dir string) (*ingest.Server, *store.Store) {
	t.Helper()
	spool, err := store.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ingest.Listen("127.0.0.1:0", spool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, spool
}

// TestPushSyntheticCorpus ships a synthetic corpus over TCP and
// audits both sides: the spooled corpus must verdict byte-identically
// to the in-memory set it came from.
func TestPushSyntheticCorpus(t *testing.T) {
	src := exportSynthetic(t, filepath.Join(t.TempDir(), "src"))
	srv, spool := startServer(t, filepath.Join(t.TempDir(), "spool"))

	res, err := ingest.Push(srv.Addr().String(), src)
	if err != nil {
		t.Fatal(err)
	}
	want := len(src.Entries())
	if res.Accepted != want || len(res.Rejected) != 0 || res.Shards != 1 {
		t.Fatalf("push result %+v, want %d accepted", res, want)
	}

	// The spool's manifest was flushed by DONE: reopen from disk.
	reopened, err := store.Open(spool.Dir())
	if err != nil {
		t.Fatal(err)
	}
	set, err := fixtures.SyntheticSet(fixtures.SetSizes{Training: 4, Benign: 3, Covert: 1, Packets: 220}, 99)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.Config{Workers: 2}
	base, err := pipeline.New(cfg).Run(set.Batch(false, 7))
	if err != nil {
		t.Fatal(err)
	}
	// No resolver: statistical detectors only, same as Batch(false).
	b, err := pipeline.BatchFromStore(reopened, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pipeline.New(cfg).Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base.Canonical(), got.Canonical()) {
		t.Fatalf("spooled corpus diverged from in-memory audit:\n--- want\n%s--- got\n%s", base.Canonical(), got.Canonical())
	}
}

// TestCorruptedUploadRejectedPerTrace flips one byte of a stored
// container and pushes the corpus: the server must reject exactly that
// trace with an ERR reply, keep the connection usable, and accept the
// rest.
func TestCorruptedUploadRejectedPerTrace(t *testing.T) {
	src := exportSynthetic(t, filepath.Join(t.TempDir(), "src"))
	entries := src.Entries()
	victim := entries[len(entries)/2]
	path := filepath.Join(src.Dir(), victim.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), raw...)
	mut[len(mut)-2] ^= 0x40 // inside the end frame's CRC
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, spool := startServer(t, filepath.Join(t.TempDir(), "spool"))
	res, err := ingest.Push(srv.Addr().String(), src)
	if err != nil {
		t.Fatalf("push aborted instead of degrading: %v", err)
	}
	if res.Accepted != len(entries)-1 {
		t.Fatalf("accepted %d of %d", res.Accepted, len(entries))
	}
	if len(res.Rejected) != 1 || !strings.Contains(res.Rejected[0], victim.ID) {
		t.Fatalf("rejections %v, want one naming %s", res.Rejected, victim.ID)
	}
	if !strings.Contains(res.Rejected[0], "CRC") {
		t.Fatalf("rejection does not blame the checksum: %v", res.Rejected[0])
	}
	if got := len(spool.Entries()); got != len(entries)-1 {
		t.Fatalf("spool holds %d traces, want %d", got, len(entries)-1)
	}
}

// TestProtocolRaw speaks the wire protocol by hand: bad banner, bad
// sizes, unknown commands, and a valid session.
func TestProtocolRaw(t *testing.T) {
	srv, _ := startServer(t, filepath.Join(t.TempDir(), "spool"))
	addr := srv.Addr().String()

	dial := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn, bufio.NewReader(conn)
	}
	expect := func(br *bufio.Reader, prefix string) string {
		t.Helper()
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading reply: %v", err)
		}
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("reply %q, want prefix %q", line, prefix)
		}
		return line
	}

	t.Run("bad banner", func(t *testing.T) {
		conn, br := dial()
		fmt.Fprintf(conn, "HELLO\n")
		expect(br, "ERR")
	})
	t.Run("oversized put", func(t *testing.T) {
		conn, br := dial()
		fmt.Fprintf(conn, "%s\n", ingest.Banner)
		expect(br, "OK")
		fmt.Fprintf(conn, "PUT 99999999999999\n")
		expect(br, "ERR")
	})
	t.Run("unknown command", func(t *testing.T) {
		conn, br := dial()
		fmt.Fprintf(conn, "%s\n", ingest.Banner)
		expect(br, "OK")
		fmt.Fprintf(conn, "FROB 12\n")
		expect(br, "ERR")
	})
	t.Run("garbage put then valid session", func(t *testing.T) {
		conn, br := dial()
		fmt.Fprintf(conn, "%s\n", ingest.Banner)
		expect(br, "OK")
		// A PUT whose payload is noise: per-trace ERR, connection lives.
		junk := bytes.Repeat([]byte{0xEE}, 100)
		fmt.Fprintf(conn, "PUT %d\n", len(junk))
		conn.Write(junk)
		expect(br, "ERR")
		fmt.Fprintf(conn, "DONE\n")
		expect(br, "BYE 0")
	})
}

// TestAuth covers the shared-secret slice of ingest hardening: an
// authenticated server admits only clients presenting the right
// token, answers a wrong or missing token with exactly one ERR and a
// closed connection, and an open server still interoperates with
// token-carrying clients.
func TestAuth(t *testing.T) {
	const secret = "squeamish-ossifrage"
	src := exportSynthetic(t, filepath.Join(t.TempDir(), "src"))
	spool, err := store.Create(filepath.Join(t.TempDir(), "spool"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ingest.ListenOpts("127.0.0.1:0", spool, ingest.Options{Secret: secret})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := srv.Addr().String()

	t.Run("right token", func(t *testing.T) {
		res, err := ingest.PushAuth(addr, src, secret)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != len(src.Entries()) || len(res.Rejected) != 0 {
			t.Fatalf("authenticated push result %+v", res)
		}
	})
	t.Run("missing token", func(t *testing.T) {
		if _, err := ingest.Push(addr, src); err == nil || !strings.Contains(err.Error(), "authentication required") {
			t.Fatalf("unauthenticated push error = %v, want authentication required", err)
		}
	})
	t.Run("wrong token closes connection", func(t *testing.T) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		fmt.Fprintf(conn, "%s\nAUTH wrong-token\n", ingest.Banner)
		if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "OK") {
			t.Fatalf("banner reply %q err=%v", line, err)
		}
		if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "ERR") {
			t.Fatalf("wrong token reply %q err=%v, want one ERR", line, err)
		}
		// Exactly one ERR, then the connection is gone.
		fmt.Fprintf(conn, "DONE\n")
		if line, err := br.ReadString('\n'); err == nil {
			t.Fatalf("connection still alive after bad token: got %q", line)
		}
	})
	t.Run("multiline token rejected client-side", func(t *testing.T) {
		if _, err := ingest.PushAuth(addr, src, "a\nb"); err == nil {
			t.Fatal("newline token accepted")
		}
	})
	t.Run("open server tolerates AUTH", func(t *testing.T) {
		open, openSpool := startServer(t, filepath.Join(t.TempDir(), "openspool"))
		res, err := ingest.PushAuth(open.Addr().String(), src, "anything")
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted != len(src.Entries()) {
			t.Fatalf("open-server push result %+v", res)
		}
		_ = openSpool
	})

	// Only the authenticated session's traces made it into the spool.
	if got := len(spool.Entries()); got != len(src.Entries()) {
		t.Fatalf("spool holds %d traces, want %d", got, len(src.Entries()))
	}
}

// startServerOpts is startServer with explicit server options.
func startServerOpts(t testing.TB, dir string, opts ingest.Options) (*ingest.Server, *store.Store) {
	t.Helper()
	spool, err := store.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ingest.ListenOpts("127.0.0.1:0", spool, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, spool
}

// TestQuotaMaxTraces: a connection may PUT at most MaxTracesPerConn
// traces; the next PUT earns the typed quota refusal and a closed
// connection, with exactly the budgeted traces admitted.
func TestQuotaMaxTraces(t *testing.T) {
	src := exportSynthetic(t, filepath.Join(t.TempDir(), "src"))
	srv, spool := startServerOpts(t, filepath.Join(t.TempDir(), "spool"),
		ingest.Options{MaxTracesPerConn: 2})

	_, err := ingest.Push(srv.Addr().String(), src)
	if !errors.Is(err, ingest.ErrQuota) {
		t.Fatalf("over-budget push error = %v, want ErrQuota", err)
	}
	var qe *ingest.QuotaError
	if !errors.As(err, &qe) || !strings.Contains(qe.Detail, "traces") {
		t.Fatalf("errors.As lost the quota detail: %v", err)
	}
	if got := len(spool.Entries()); got != 2 {
		t.Fatalf("spool admitted %d traces, want exactly the 2-trace budget", got)
	}
}

// TestQuotaMaxBytes: the byte budget is charged against the declared
// payload size before any byte is read, so an over-quota container is
// refused without being spooled.
func TestQuotaMaxBytes(t *testing.T) {
	src := exportSynthetic(t, filepath.Join(t.TempDir(), "src"))
	// The shard JSON fits; the first ~2KB trace container does not.
	srv, spool := startServerOpts(t, filepath.Join(t.TempDir(), "spool"),
		ingest.Options{MaxBytesPerConn: 1024})

	_, err := ingest.Push(srv.Addr().String(), src)
	if !errors.Is(err, ingest.ErrQuota) {
		t.Fatalf("over-budget push error = %v, want ErrQuota", err)
	}
	var qe *ingest.QuotaError
	if !errors.As(err, &qe) || !strings.Contains(qe.Detail, "bytes") {
		t.Fatalf("errors.As lost the quota detail: %v", err)
	}
	if got := len(spool.Entries()); got != 0 {
		t.Fatalf("spool admitted %d traces despite the byte quota", got)
	}
}

// TestQuotaProtocolRaw pins the wire behavior: exceeding a quota
// earns exactly one "ERR quota" line and a closed connection, and the
// budget is per connection — a fresh session starts from zero.
func TestQuotaProtocolRaw(t *testing.T) {
	srv, _ := startServerOpts(t, filepath.Join(t.TempDir(), "spool"),
		ingest.Options{MaxTracesPerConn: 1})
	addr := srv.Addr().String()

	session := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		br := bufio.NewReader(conn)
		fmt.Fprintf(conn, "%s\n", ingest.Banner)
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
		return conn, br
	}
	spendBudget := func(conn net.Conn, br *bufio.Reader) {
		t.Helper()
		// A junk PUT spends a trace slot (rejected, connection lives).
		junk := bytes.Repeat([]byte{0xEE}, 16)
		fmt.Fprintf(conn, "PUT %d\n", len(junk))
		conn.Write(junk)
		if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "ERR") {
			t.Fatalf("junk PUT reply %q err=%v", line, err)
		}
	}

	conn, br := session()
	spendBudget(conn, br)
	fmt.Fprintf(conn, "PUT 16\n")
	conn.Write(bytes.Repeat([]byte{0xEE}, 16)) // the refusal drains the declared payload
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ERR quota") {
		t.Fatalf("over-budget PUT reply %q err=%v, want ERR quota", line, err)
	}
	// The server hung up: the next read sees EOF, not another reply.
	if extra, err := br.ReadString('\n'); err == nil {
		t.Fatalf("connection still open after quota refusal, read %q", extra)
	}

	// A fresh connection gets a fresh budget.
	conn2, br2 := session()
	spendBudget(conn2, br2)
	fmt.Fprintf(conn2, "DONE\n")
	if line, err := br2.ReadString('\n'); err != nil || !strings.HasPrefix(line, "BYE") {
		t.Fatalf("fresh session close reply %q err=%v", line, err)
	}
}

// TestQuotaLargePayloadStillGetsReply: a refused PUT's payload is
// drained before the connection closes, so the typed quota reply
// survives even when the declared payload is far larger than any
// socket buffer (the client writes the whole container before it
// reads a reply).
func TestQuotaLargePayloadStillGetsReply(t *testing.T) {
	srv, _ := startServerOpts(t, filepath.Join(t.TempDir(), "spool"),
		ingest.Options{MaxBytesPerConn: 1024})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "%s\n", ingest.Banner)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	const size = 4 << 20 // well past any default socket buffer
	fmt.Fprintf(conn, "PUT %d\n", size)
	payload := bytes.Repeat([]byte{0xAB}, 64<<10)
	for sent := 0; sent < size; sent += len(payload) {
		if _, err := conn.Write(payload); err != nil {
			t.Fatalf("payload write failed at %d bytes: %v — server closed without draining", sent, err)
		}
	}
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ERR quota") {
		t.Fatalf("reply %q err=%v, want ERR quota", line, err)
	}
}

// TestConcurrentPushes runs several clients at once; the store must
// serialize admissions without losing or duplicating traces.
func TestConcurrentPushes(t *testing.T) {
	srv, spool := startServer(t, filepath.Join(t.TempDir(), "spool"))
	const clients = 4
	dirs := make([]*store.Store, clients)
	for i := range dirs {
		set, err := fixtures.SyntheticSet(fixtures.SetSizes{Training: 2, Benign: 2, Covert: 1, Packets: 220}, 100+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Create(filepath.Join(t.TempDir(), fmt.Sprintf("c%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		shard := fixtures.NFSShardMeta(7)
		shard.Key = fmt.Sprintf("shard-%d", i)
		if err := fixtures.ExportSet(st, set, shard); err != nil {
			t.Fatal(err)
		}
		dirs[i] = st
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := range dirs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := ingest.Push(srv.Addr().String(), dirs[i])
			if err == nil && (res.Accepted != len(dirs[i].Entries()) || len(res.Rejected) != 0) {
				err = fmt.Errorf("client %d: %+v", i, res)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := 0
	for _, d := range dirs {
		want += len(d.Entries())
	}
	if got := len(spool.Entries()); got != want {
		t.Fatalf("spool holds %d traces, want %d", got, want)
	}
	if got := len(spool.Shards()); got != clients {
		t.Fatalf("spool holds %d shards, want %d", got, clients)
	}
}

// TestStoreIngestAuditRoundTrip is the acceptance path: record a
// heterogeneous corpus (two programs, two machine types), export it,
// ship it over TCP, load the spooled corpus through BatchFromStore,
// and demand byte-identical verdicts to auditing the same population
// in memory — with 1 worker and with N.
func TestStoreIngestAuditRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("played corpus in -short mode")
	}
	const seed = 777
	nfs, echo, err := fixtures.HeterogeneousSets(fixtures.SetSizes{
		Training: 3, Benign: 2, Covert: 1, Packets: 50,
	}, 4242)
	if err != nil {
		t.Fatal(err)
	}
	mem := fixtures.HeterogeneousBatch(nfs, echo, seed)
	base, err := pipeline.New(pipeline.Config{Workers: 1}).Run(mem)
	if err != nil {
		t.Fatal(err)
	}

	src, err := store.Create(filepath.Join(t.TempDir(), "playside"))
	if err != nil {
		t.Fatal(err)
	}
	if err := fixtures.ExportHeterogeneous(src, nfs, echo, seed); err != nil {
		t.Fatal(err)
	}
	srv, spool := startServer(t, filepath.Join(t.TempDir(), "auditside"))
	res, err := ingest.Push(srv.Addr().String(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rejected) != 0 || res.Accepted != len(src.Entries()) || res.Shards != 2 {
		t.Fatalf("push result %+v", res)
	}

	for _, cfg := range []pipeline.Config{
		{Workers: 1},
		{Workers: 4},
	} {
		b, err := pipeline.BatchFromStore(spool, fixtures.Resolver)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pipeline.New(cfg).Run(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base.Canonical(), got.Canonical()) {
			t.Fatalf("store round trip diverged at workers=%d:\n--- in-memory\n%s--- store\n%s",
				cfg.Workers, base.Canonical(), got.Canonical())
		}
	}
}

// TestIdleClientTimedOut: a client that connects and goes silent must
// not pin a handler goroutine (and its quota slot) forever. With
// IdleTimeout set, the server answers the stall with exactly one
// typed "ERR idle-timeout ..." line and closes the connection — in
// both the mid-command and mid-payload positions.
func TestIdleClientTimedOut(t *testing.T) {
	const idle = 150 * time.Millisecond
	srv, _ := startServerOpts(t, filepath.Join(t.TempDir(), "spool"),
		ingest.Options{IdleTimeout: idle})

	t.Run("silent after banner", func(t *testing.T) {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "%s\n", ingest.Banner)
		br := bufio.NewReader(conn)
		if reply, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(reply, "OK") {
			t.Fatalf("banner reply %q err=%v", reply, err)
		}
		// Go silent: the server must give up on its own.
		start := time.Now()
		rest, _ := io.ReadAll(br)
		if got := string(rest); !strings.Contains(got, "ERR idle-timeout") {
			t.Fatalf("silent connection ended with %q, want an idle-timeout ERR", got)
		}
		if waited := time.Since(start); waited > 10*idle {
			t.Fatalf("server took %v to cut a silent client off (timeout %v)", waited, idle)
		}
	})

	t.Run("stalled mid payload", func(t *testing.T) {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "%s\n", ingest.Banner)
		br := bufio.NewReader(conn)
		if reply, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(reply, "OK") {
			t.Fatalf("banner reply %q err=%v", reply, err)
		}
		// Declare a payload, send half of it, stall.
		fmt.Fprintf(conn, "PUT 1000\n")
		conn.Write(bytes.Repeat([]byte{0xAB}, 500))
		rest, _ := io.ReadAll(br)
		if got := string(rest); !strings.Contains(got, "ERR idle-timeout") {
			t.Fatalf("stalled upload ended with %q, want an idle-timeout ERR", got)
		}
	})

	t.Run("slow but moving upload survives", func(t *testing.T) {
		// Each chunk arrives well inside the idle window but the whole
		// transfer takes several windows: progress must keep it alive.
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "%s\n", ingest.Banner)
		br := bufio.NewReader(conn)
		if reply, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(reply, "OK") {
			t.Fatalf("banner reply %q err=%v", reply, err)
		}
		const total = 600
		fmt.Fprintf(conn, "PUT %d\n", total)
		for sent := 0; sent < total; sent += 100 {
			if _, err := conn.Write(bytes.Repeat([]byte{0xCD}, 100)); err != nil {
				t.Fatalf("write at %d bytes: %v", sent, err)
			}
			time.Sleep(idle / 3)
		}
		// The junk payload is rejected per-trace — but over a live
		// connection, which is the point.
		reply, err := br.ReadString('\n')
		if err != nil || !strings.HasPrefix(reply, "ERR") || strings.Contains(reply, "idle-timeout") {
			t.Fatalf("slow upload got %q err=%v, want a per-trace ERR, not a timeout", reply, err)
		}
		fmt.Fprintf(conn, "DONE\n")
		if reply, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(reply, "BYE") {
			t.Fatalf("DONE reply %q err=%v", reply, err)
		}
	})

	if s := srv.Stats(); s.IdleTimeouts != 2 {
		t.Fatalf("Stats.IdleTimeouts = %d, want 2", s.IdleTimeouts)
	}
}

// TestIdleTimeoutTypedOnClient: the wire-level timeout refusal maps
// onto the typed ErrIdleTimeout on the client side, the way quota
// refusals map onto ErrQuota.
func TestIdleTimeoutTypedOnClient(t *testing.T) {
	if se := ingest.ErrorFromReply("ERR idle-timeout no progress for 2m0s"); !errors.Is(se, ingest.ErrIdleTimeout) {
		t.Fatalf("timeout reply did not map to ErrIdleTimeout: %v", se)
	}
	var te *ingest.IdleTimeoutError
	if se := ingest.ErrorFromReply("ERR idle-timeout no progress for 2m0s"); !errors.As(se, &te) || te.Detail != "no progress for 2m0s" {
		t.Fatalf("typed detail lost: %v", se)
	}
	if se := ingest.ErrorFromReply("ERR something else"); se != nil {
		t.Fatalf("unrelated ERR mapped to a session error: %v", se)
	}
	if se := ingest.ErrorFromReply("ERR quota traces: over budget"); !errors.Is(se, ingest.ErrQuota) {
		t.Fatalf("quota reply did not map to ErrQuota: %v", se)
	}
}

// TestServerCloseIdempotentAndConcurrent: every Close call — first,
// repeated, concurrent — returns only after shutdown has fully
// completed, and a connection accepted while Close runs is closed,
// never leaked. Run under -race, this is the close/accept
// interleaving audit.
func TestServerCloseIdempotentAndConcurrent(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		spool, err := store.Create(filepath.Join(t.TempDir(), fmt.Sprintf("spool-%d", round)))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ingest.Listen("127.0.0.1:0", spool)
		if err != nil {
			t.Fatal(err)
		}
		addr := srv.Addr().String()

		// Dialers hammer the listener while Close races them.
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						return // listener closed
					}
					fmt.Fprintf(conn, "%s\n", ingest.Banner)
					br := bufio.NewReader(conn)
					br.ReadString('\n')
					conn.Close()
				}
			}()
		}

		// Several goroutines close concurrently; each must observe the
		// fully-shut-down server when its call returns.
		var closers sync.WaitGroup
		for i := 0; i < 3; i++ {
			closers.Add(1)
			go func() {
				defer closers.Done()
				if err := srv.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
		}
		closers.Wait()
		// After any Close returns, the manifest must be on disk.
		if _, err := store.Open(spool.Dir()); err != nil {
			t.Fatalf("round %d: manifest not flushed when Close returned: %v", round, err)
		}
		close(stop)
		wg.Wait()
	}
	// No handler, accept-loop, or dialer goroutines may survive.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}
