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
	"testing"
	"time"

	"sanity/internal/ingest"
	"sanity/internal/store"
)

// rawSession dials srv and exchanges the banner, returning the
// connection and a reader over its replies.
func rawSession(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "%s\n", ingest.Banner)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "OK") {
		t.Fatalf("banner reply %q err=%v", line, err)
	}
	return conn, br
}

// pipelined renders a run of commands as one write: a shard and then
// one PUT per payload, none waiting for a reply.
func pipelined(t *testing.T, src *store.Store, payloads [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	sh := src.Shards()[0]
	js := fmt.Sprintf(`{"key":%q,"program":%q,"machine":%q,"profile":%q,"seed":%d}`, sh.Key, sh.Program, sh.Machine, sh.Profile, sh.Seed)
	fmt.Fprintf(&buf, "SHARD %d\n%s", len(js), js)
	for _, p := range payloads {
		fmt.Fprintf(&buf, "PUT %d\n", len(p))
		buf.Write(p)
	}
	return buf.Bytes()
}

// containers reads every container of src, in manifest order, with
// the entries they belong to.
func containers(t *testing.T, src *store.Store) ([]store.Entry, [][]byte) {
	t.Helper()
	entries := src.Entries()
	raws := make([][]byte, len(entries))
	for i, e := range entries {
		b, err := os.ReadFile(filepath.Join(src.Dir(), e.File))
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = b
	}
	return entries, raws
}

// readReplies reads n reply lines.
func readReplies(t *testing.T, br *bufio.Reader, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d: %v (after %q)", i, err, out[:i])
		}
		out[i] = strings.TrimSuffix(line, "\n")
	}
	return out
}

// TestPipelinedRepliesInCommandOrder sends a whole corpus as PUTs
// without waiting for one reply: the replies must come back one per
// PUT, each naming its own trace, in the order the PUTs were sent,
// and the manifest must hold the traces in upload order.
func TestPipelinedRepliesInCommandOrder(t *testing.T) {
	src := exportSynthetic(t, filepath.Join(t.TempDir(), "src"))
	entries, raws := containers(t, src)
	srv, spool := startServer(t, filepath.Join(t.TempDir(), "spool"))
	conn, br := rawSession(t, srv.Addr().String())
	conn.Write(append(pipelined(t, src, raws), "DONE\n"...))
	replies := readReplies(t, br, 1+len(raws)+1)
	if !strings.HasPrefix(replies[0], "OK shard") {
		t.Fatalf("shard reply %q", replies[0])
	}
	for i, e := range entries {
		if want := "OK " + e.ID; replies[1+i] != want {
			t.Fatalf("reply %d is %q, want %q (replies %q)", i, replies[1+i], want, replies)
		}
	}
	if want := fmt.Sprintf("BYE %d", len(entries)); replies[len(replies)-1] != want {
		t.Fatalf("close reply %q, want %q", replies[len(replies)-1], want)
	}
	for i, e := range spool.Entries() {
		if e.ID != entries[i].ID {
			t.Fatalf("manifest entry %d is %s, uploaded %s", i, e.ID, entries[i].ID)
		}
	}
}

// TestPipelinedRejectKeepsOrder: a PUT rejected inside the window
// earns its ERR in its own place, and the PUTs around it are admitted
// with their replies in order.
func TestPipelinedRejectKeepsOrder(t *testing.T) {
	src := exportSynthetic(t, filepath.Join(t.TempDir(), "src"))
	entries, raws := containers(t, src)
	junk := bytes.Repeat([]byte{0xEE}, 100)
	payloads := [][]byte{raws[0], junk, raws[1], junk, raws[2]}
	srv, spool := startServer(t, filepath.Join(t.TempDir(), "spool"))
	conn, br := rawSession(t, srv.Addr().String())
	conn.Write(append(pipelined(t, src, payloads), "DONE\n"...))
	replies := readReplies(t, br, 1+len(payloads)+1)[1:]
	want := []string{"OK " + entries[0].ID, "ERR", "OK " + entries[1].ID, "ERR", "OK " + entries[2].ID, "BYE 3"}
	for i, w := range want {
		if !strings.HasPrefix(replies[i], w) {
			t.Fatalf("reply %d is %q, want %q (replies %q)", i, replies[i], w, replies)
		}
	}
	if n := len(spool.Entries()); n != 3 {
		t.Fatalf("spool holds %d traces, want 3", n)
	}
}

// TestPipelinedQuotaMidWindow: the trace quota trips on a PUT with
// more PUTs pipelined behind it. The wire carries the replies to the
// PUTs before it, the one quota refusal, and then EOF; Push surfaces
// ErrQuota with exactly the budgeted traces accepted, and leaves no
// goroutine behind.
func TestPipelinedQuotaMidWindow(t *testing.T) {
	src := exportSynthetic(t, filepath.Join(t.TempDir(), "src"))
	entries, raws := containers(t, src)
	if len(entries) < 6 {
		t.Fatalf("corpus of %d traces cannot overrun a 2-trace budget mid-window", len(entries))
	}
	srv, spool := startServerOpts(t, filepath.Join(t.TempDir(), "spool"), ingest.Options{MaxTracesPerConn: 2})

	t.Run("wire", func(t *testing.T) {
		conn, br := rawSession(t, srv.Addr().String())
		conn.Write(pipelined(t, src, raws[:6]))
		replies := readReplies(t, br, 4)
		if !strings.HasPrefix(replies[1], "OK ") || !strings.HasPrefix(replies[2], "OK ") || !strings.HasPrefix(replies[3], "ERR quota") {
			t.Fatalf("replies %q, want OK, OK, ERR quota after the shard", replies)
		}
		if extra, err := br.ReadString('\n'); err == nil {
			t.Fatalf("a reply after the quota refusal: %q", extra)
		}
	})

	t.Run("push", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		fresh, freshSpool := startServerOpts(t, filepath.Join(t.TempDir(), "fresh"), ingest.Options{MaxTracesPerConn: 2})
		res, err := ingest.Push(fresh.Addr().String(), src)
		if !errors.Is(err, ingest.ErrQuota) {
			t.Fatalf("push error = %v, want ErrQuota", err)
		}
		if res == nil || res.Accepted != 2 {
			t.Fatalf("push result %+v, want 2 accepted", res)
		}
		if n := len(freshSpool.Entries()); n != 2 {
			t.Fatalf("spool admitted %d traces, want 2", n)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline+2 {
			t.Fatalf("%d goroutines after the push, %d before", n, baseline)
		}
	})
	if n := len(spool.Entries()); n != 2 {
		t.Fatalf("spool admitted %d traces, want 2", n)
	}
}

// TestPipelinedIdleTimeoutMidWindow: a client that stalls inside a
// PUT, with PUTs before it still being admitted, gets their replies
// and then the one idle-timeout refusal — on the wire, and as the
// typed ErrIdleTimeout from Push when the refusal answers a PUT in the
// middle of its window.
func TestPipelinedIdleTimeoutMidWindow(t *testing.T) {
	src := exportSynthetic(t, filepath.Join(t.TempDir(), "src"))
	entries, raws := containers(t, src)

	t.Run("wire", func(t *testing.T) {
		srv, spool := startServerOpts(t, filepath.Join(t.TempDir(), "spool"), ingest.Options{IdleTimeout: 150 * time.Millisecond})
		conn, br := rawSession(t, srv.Addr().String())
		stream := pipelined(t, src, raws[:3])
		conn.Write(stream[:len(stream)-len(raws[2])/2]) // stall inside the third
		rest, _ := io.ReadAll(br)
		replies := strings.Split(strings.TrimSuffix(string(rest), "\n"), "\n")
		if len(replies) != 4 || replies[1] != "OK "+entries[0].ID || replies[2] != "OK "+entries[1].ID || !strings.HasPrefix(replies[3], "ERR idle-timeout") {
			t.Fatalf("replies %q, want the shard, two OKs and the idle-timeout refusal", replies)
		}
		if n := len(spool.Entries()); n != 2 {
			t.Fatalf("spool admitted %d traces, want 2", n)
		}
	})

	t.Run("push", func(t *testing.T) {
		// A server that answers the banner, the shard and the first PUT,
		// then refuses the second as timed out while the client still
		// has PUTs in flight.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			br.ReadString('\n')
			fmt.Fprintf(conn, "OK %s\nOK shard x\nOK %s\nERR idle-timeout no progress for 1s\n", ingest.Banner, entries[0].ID)
			conn.(*net.TCPConn).CloseWrite()
			io.Copy(io.Discard, br)
		}()
		res, err := ingest.Push(ln.Addr().String(), src)
		if !errors.Is(err, ingest.ErrIdleTimeout) {
			t.Fatalf("push error = %v, want ErrIdleTimeout", err)
		}
		if res == nil || res.Accepted != 1 || !strings.Contains(err.Error(), entries[1].ID) {
			t.Fatalf("push result %+v, err %v: want one accepted and the refusal on %s", res, err, entries[1].ID)
		}
	})
}

// TestPipelinedPutLeavesOneContainerOneSidecar: a pushed corpus leaves
// one container and one sidecar per trace in the spool, and no temp
// file.
func TestPipelinedPutLeavesOneContainerOneSidecar(t *testing.T) {
	src := exportSynthetic(t, filepath.Join(t.TempDir(), "src"))
	srv, spool := startServer(t, filepath.Join(t.TempDir(), "spool"))
	if _, err := ingest.Push(srv.Addr().String(), src); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	for _, e := range src.Entries() {
		want[e.File], want[e.File+".json"] = true, true
	}
	traces, err := os.ReadDir(filepath.Join(spool.Dir(), "traces"))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != len(want) {
		t.Fatalf("spool traces/ holds %d files, want %d", len(traces), len(want))
	}
	for _, f := range traces {
		if !want[filepath.Join("traces", f.Name())] {
			t.Fatalf("unexpected file %s in the spool", f.Name())
		}
	}
	if left, _ := filepath.Glob(filepath.Join(spool.Dir(), ".spool-*")); len(left) != 0 {
		t.Fatalf("temp files left in the spool: %v", left)
	}
}
