// Package ingest implements the network leg of the audit hand-off:
// the play side records trace corpora to stable storage
// (internal/store) and ships them to an auditor machine over TCP,
// mirroring the cloud-verification setting of paper §5.2 where
// recorded executions are checked by a separate verifier.
//
// The protocol is line-framed commands with binary payloads. After
// exchanging the banner, a client issues:
//
//	AUTH <token>\n  shared-secret authentication (when the server requires it)
//	SHARD <n>\n     followed by n bytes of ShardMeta JSON
//	PUT <n>\n       followed by n bytes of trace container
//	DONE\n          flush the manifest and end the session
//
// The server answers every command with one line, "OK ..." or
// "ERR <reason>", in command order. A client may pipeline PUTs — send
// the next before the previous one's reply — and Push keeps a few in
// flight. A PUT is validated while it is spooled — frame CRCs, section
// structure, log decoding, metadata cross-checks — and a corrupted
// upload earns a per-trace ERR while the connection stays usable for
// the next command; while it is admitted, the server already reads the
// next. Uploads from many connections may interleave; the store
// serializes admissions.
//
// A server configured with a shared secret (Options.Secret) refuses
// every command until the session has authenticated: a wrong or
// missing token earns exactly one ERR line and a closed connection,
// so an unauthenticated peer can neither fill the spool nor probe the
// validator.
//
// Per-connection quotas (Options.MaxTracesPerConn, MaxBytesPerConn)
// bound what any one session may upload: the trace budget counts
// every PUT attempt, the byte budget is charged against declared
// payload sizes before a byte is read, and exceeding either earns
// exactly one "ERR quota ..." line and a closed connection — the
// typed ErrQuota on the client side. The refusal is the reply to the
// PUT that overran the budget: the PUTs before it keep their replies,
// and whatever the client pipelined after it is read and discarded,
// never admitted.
package ingest

import (
	"bufio"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sanity/internal/obs"
	"sanity/internal/store"
	"sanity/internal/triage"
)

// Banner is the protocol greeting either side must send first.
const Banner = "TDR-INGEST/1"

// Upload size limits. Shard metadata is a handful of names; containers
// are bounded generously (a day-long NFS log at the paper's §6.5
// growth rate is well under this).
const (
	maxShardJSON = 64 << 10
	maxContainer = 1 << 30
)

// Options tunes a server beyond its listener and store.
type Options struct {
	// Secret, when non-empty, requires every session to authenticate
	// with "AUTH <secret>" before any other command. The comparison is
	// constant-time. An empty secret accepts all sessions (trusted
	// networks, tests), and treats a client's AUTH as a no-op so a
	// token-configured client can still talk to an open server.
	Secret string
	// MaxTracesPerConn caps how many traces one connection may PUT
	// (accepted or rejected — a validator probe spends quota too).
	// Exceeding it earns a single "ERR quota ..." reply and a closed
	// connection. Zero means unlimited.
	MaxTracesPerConn int
	// MaxBytesPerConn caps the total payload bytes (SHARD and PUT
	// declarations combined) one connection may upload. The check
	// runs against the declared size before any payload byte is read,
	// so an over-quota upload is refused without spooling it.
	// Exceeding it earns a single "ERR quota ..." reply and a closed
	// connection. Zero means unlimited.
	MaxBytesPerConn int64
	// IdleTimeout bounds how long a connection may sit without
	// progressing: the deadline is refreshed before every read (each
	// protocol line, each payload chunk) and every reply write, so a
	// slow-but-moving upload never trips it while a half-open or
	// stalled client — which would otherwise pin a handler goroutine
	// and a quota slot for the life of the process — earns a single
	// "ERR idle-timeout ..." reply and a closed connection (the typed
	// ErrIdleTimeout on the client side). Zero disables the timeout
	// (trusted networks, tests); long-running daemons should set it.
	IdleTimeout time.Duration
	// OnDone, when non-nil, is called after a session's DONE command
	// has flushed the manifest — the "a corpus landed" notification a
	// watching daemon audits on. It runs synchronously on the handler
	// goroutine and must be cheap and non-blocking.
	OnDone func()
	// OnTrace, when non-nil, is called after each accepted container
	// with its admitted metadata and triage score (nil when the store
	// has triage disabled or the trace is not scoreable — training
	// corpora). It runs synchronously on the session's admit goroutine
	// (the one that commits each PUT and writes its reply, beside the
	// handler goroutine that reads the next PUT) and must be cheap and
	// non-blocking; uploads from many connections may invoke it
	// concurrently.
	OnTrace func(store.Meta, *triage.Score)
	// Obs, when non-nil, records each accepted container as an
	// "ingest" span (with the admitted trace's ID and shard) and each
	// session DONE as an instant event. Owned by the embedding
	// daemon; nil disables.
	Obs *obs.Observer
	// Log, when non-nil, receives structured records for the paths an
	// operator needs to see — rejected containers, quota refusals,
	// idle-timeout cuts, failed authentication. Nil keeps the server
	// silent (library embedding, tests).
	Log *slog.Logger
}

// logger returns the configured log sink or a discard logger, so the
// hot path never branches on nil at each call site.
func (s *Server) logger() *slog.Logger {
	if s.opts.Log == nil {
		return discardLogger
	}
	return s.opts.Log
}

var discardLogger = slog.New(slog.DiscardHandler)

// Stats is a snapshot of a server's lifetime counters.
type Stats struct {
	// Conns counts accepted connections.
	Conns uint64
	// Bytes counts accepted payload bytes: declared SHARD and PUT
	// sizes actually admitted to the byte budget (refused payloads are
	// drained but not counted).
	Bytes uint64
	// QuotaRejections counts sessions cut off for exceeding a
	// per-connection quota.
	QuotaRejections uint64
	// IdleTimeouts counts sessions cut off by Options.IdleTimeout.
	IdleTimeouts uint64
}

// ErrQuota is the sentinel matched by errors.Is when the server
// closed a session for exceeding a per-connection quota — the typed
// form the "ERR quota ..." protocol reply takes on the client side.
var ErrQuota = errors.New("ingest: per-connection quota exceeded")

// QuotaError is the typed form of ErrQuota: which quota tripped, as
// reported by the server's ERR line. It unwraps to ErrQuota.
type QuotaError struct {
	// Detail is the server's reason ("traces: ...", "bytes: ...").
	Detail string
}

// Error implements error.
func (e *QuotaError) Error() string {
	return "ingest: per-connection quota exceeded: " + e.Detail
}

// Unwrap makes errors.Is(err, ErrQuota) hold.
func (e *QuotaError) Unwrap() error { return ErrQuota }

// quotaPrefix marks a quota refusal on the wire; clients map it back
// to the typed QuotaError.
const quotaPrefix = "ERR quota "

// ErrIdleTimeout is the sentinel matched by errors.Is when the server
// cut a session off for idling past Options.IdleTimeout — the typed
// form of the "ERR idle-timeout ..." protocol reply.
var ErrIdleTimeout = errors.New("ingest: connection idle timeout")

// IdleTimeoutError is the typed form of ErrIdleTimeout, carrying the
// server's reason line. It unwraps to ErrIdleTimeout.
type IdleTimeoutError struct {
	// Detail is the server's reason ("no progress for 2m0s").
	Detail string
}

// Error implements error.
func (e *IdleTimeoutError) Error() string {
	return "ingest: connection idle timeout: " + e.Detail
}

// Unwrap makes errors.Is(err, ErrIdleTimeout) hold.
func (e *IdleTimeoutError) Unwrap() error { return ErrIdleTimeout }

// timeoutPrefix marks an idle-timeout refusal on the wire.
const timeoutPrefix = "ERR idle-timeout "

// Server accepts framed log uploads and spools them into a store.
type Server struct {
	st   *store.Store
	ln   net.Listener
	opts Options

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	closeOnce sync.Once
	closeErr  error

	conns64   atomic.Uint64
	bytes64   atomic.Uint64
	quota64   atomic.Uint64
	timeout64 atomic.Uint64
}

// Listen starts an ingest server on addr (e.g. ":7070" or
// "127.0.0.1:0") spooling into st.
func Listen(addr string, st *store.Store) (*Server, error) {
	return ListenOpts(addr, st, Options{})
}

// ListenOpts is Listen with explicit options.
func ListenOpts(addr string, st *store.Store, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ingest: listen %s: %w", addr, err)
	}
	return ServeOpts(ln, st, opts), nil
}

// ServeOpts starts an ingest server on an existing listener.
func ServeOpts(ln net.Listener, st *store.Store, opts Options) *Server {
	s := &Server{st: st, ln: ln, opts: opts, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Stats snapshots the server's lifetime counters.
func (s *Server) Stats() Stats {
	return Stats{
		Conns:           s.conns64.Load(),
		Bytes:           s.bytes64.Load(),
		QuotaRejections: s.quota64.Load(),
		IdleTimeouts:    s.timeout64.Load(),
	}
}

// Close stops accepting, closes live connections, waits for handlers
// AND the accept loop, and flushes the manifest. It is safe to call
// from any number of goroutines: every call — not just the first —
// returns only after the shutdown has fully completed, so "Close
// returned" always means "no handler goroutine is left and the
// manifest is on disk". (The first version returned early from
// repeated calls, which let a daemon's ordered shutdown race its own
// ingest teardown.)
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.ln.Close()
		s.wg.Wait()
		s.closeErr = s.st.Flush()
	})
	return s.closeErr
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		// On some platforms Accept can hand back a connection that was
		// already queued when Close ran ln.Close() — or this goroutine
		// can sit here, conn in hand, while Close walks the conns map.
		// Either way the conn is not yet in the map, so Close cannot
		// have closed it: re-checking the closed flag under the same
		// lock Close takes guarantees every accepted connection is
		// either registered (and thus closed by Close) or closed here.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.conns64.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// idleConn enforces Options.IdleTimeout as a progress bound: the
// deadline is pushed forward before every Read and Write, so any
// moving transfer lives on while a stalled one fails with a timeout
// at most IdleTimeout after its last progress. A zero timeout leaves
// the connection deadline-free.
type idleConn struct {
	net.Conn
	d time.Duration
}

func (c *idleConn) Read(p []byte) (int, error) {
	if c.d > 0 {
		c.Conn.SetReadDeadline(time.Now().Add(c.d))
	}
	return c.Conn.Read(p)
}

func (c *idleConn) Write(p []byte) (int, error) {
	if c.d > 0 {
		c.Conn.SetWriteDeadline(time.Now().Add(c.d))
	}
	return c.Conn.Write(p)
}

// isTimeout reports whether an error is a connection deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// oneline folds any newlines out of text destined for a reply line,
// so identifiers that originate in an upload cannot inject extra
// protocol lines.
func oneline(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '\n' || r == '\r' {
			return ' '
		}
		return r
	}, s)
}

// errLine renders an error as a single protocol line.
func errLine(err error) string {
	return "ERR " + oneline(err.Error()) + "\n"
}

// session is one connection's server side, run in two stages. The
// handler goroutine reads commands and spools each PUT's payload
// (stage A: SpoolContainer validates it into a temp file and scores
// it); a second goroutine, started by the first PUT, admits each
// spooled upload and writes its reply (stage B: AdmitSpooled reserves,
// renames, writes the sidecar and commits). So the next PUTs stream
// in while PUT k is admitted, and admissions — hence manifest order —
// stay in upload order. Every PUT reply is written by stage B; any
// other reply is written by the handler only after waitAdmitted, when
// stage B holds nothing, so replies leave in command order.
type session struct {
	s    *Server
	conn *idleConn
	br   *bufio.Reader
	// admits queues PUTs for stage B; inFlight counts the PUTs handed
	// over and not yet replied to; admitDone closes when stage B exits.
	admits    chan admission
	inFlight  sync.WaitGroup
	admitDone chan struct{}
}

// admission is one PUT passed from stage A to stage B: a validated
// upload, or the reason its spooling failed.
type admission struct {
	sp   *store.Spooled
	err  error
	span *obs.Span
}

func (s *Server) handle(raw net.Conn) {
	defer raw.Close()
	// Every read and reply goes through the idle-deadline wrapper: a
	// protocol line, a payload chunk, a reply write each push the
	// deadline forward, so only a genuinely stalled peer trips it.
	conn := &idleConn{Conn: raw, d: s.opts.IdleTimeout}
	ss := &session{s: s, conn: conn, br: bufio.NewReader(conn)}
	defer ss.stopAdmitting()
	ss.serve()
}

// serve is stage A: the banner, then commands until the session ends.
func (ss *session) serve() {
	s, conn, br := ss.s, ss.conn, ss.br
	line, err := readLine(br)
	if err != nil || line != Banner {
		if err != nil && isTimeout(err) {
			ss.bail(err)
			return
		}
		fmt.Fprintf(conn, "ERR expected banner %s\n", Banner)
		return
	}
	fmt.Fprintf(conn, "OK %s\n", Banner)
	authed := s.opts.Secret == ""
	// Per-connection quota accounting: payload bytes are charged
	// against the declared size before they are read, traces against
	// every PUT attempt.
	var usedBytes int64
	usedTraces := 0
	chargeBytes := func(n int64) bool {
		if s.opts.MaxBytesPerConn > 0 && usedBytes+n > s.opts.MaxBytesPerConn {
			ss.refuseQuota(n, "bytes: payload of %d would exceed the connection's %d-byte budget (%d used)",
				n, s.opts.MaxBytesPerConn, usedBytes)
			return false
		}
		usedBytes += n
		s.bytes64.Add(uint64(n))
		return true
	}
	for {
		line, err := readLine(br)
		if err != nil {
			ss.bail(err)
			return
		}
		cmd, arg, _ := strings.Cut(line, " ")
		if cmd != "PUT" {
			// Only a PUT's reply is stage B's to write.
			ss.waitAdmitted()
		}
		if cmd == "AUTH" {
			// Constant-time comparison: a probing client learns nothing
			// about the secret from timing. With no secret configured the
			// command is a no-op, so token-carrying clients interoperate
			// with open servers.
			if authed || subtle.ConstantTimeCompare([]byte(arg), []byte(s.opts.Secret)) == 1 {
				authed = true
				fmt.Fprint(conn, "OK authenticated\n")
				continue
			}
			s.logger().Warn("ingest auth rejected", "remote", conn.RemoteAddr().String())
			fmt.Fprint(conn, "ERR invalid auth token\n")
			return
		}
		if !authed {
			fmt.Fprint(conn, "ERR authentication required\n")
			return
		}
		switch cmd {
		case "SHARD":
			n, err := parseSize(arg, maxShardJSON)
			if err != nil {
				fmt.Fprint(conn, errLine(err))
				return
			}
			if !chargeBytes(n) {
				return
			}
			buf := make([]byte, n)
			if _, err := io.ReadFull(br, buf); err != nil {
				ss.bail(err)
				return
			}
			var m store.ShardMeta
			if err := json.Unmarshal(buf, &m); err != nil {
				fmt.Fprint(conn, errLine(fmt.Errorf("ingest: shard metadata: %w", err)))
				continue
			}
			if err := s.st.AddShard(m); err != nil {
				fmt.Fprint(conn, errLine(err))
				continue
			}
			fmt.Fprintf(conn, "OK shard %s\n", oneline(m.Key))
		case "PUT":
			n, err := parseSize(arg, maxContainer)
			if err != nil {
				ss.waitAdmitted()
				fmt.Fprint(conn, errLine(err))
				return
			}
			if s.opts.MaxTracesPerConn > 0 && usedTraces >= s.opts.MaxTracesPerConn {
				ss.refuseQuota(n, "traces: connection already uploaded its %d-trace budget",
					s.opts.MaxTracesPerConn)
				return
			}
			usedTraces++
			if !chargeBytes(n) {
				return
			}
			lr := io.LimitReader(br, n)
			sp := s.opts.Obs.StartRoot(obs.StageIngest)
			spooled, perr := s.st.SpoolContainer(lr)
			if perr != nil {
				// Drain what is left of the declared payload so a rejected
				// container does not desynchronize the command stream (a
				// spooled one was read to its end).
				if _, err := io.Copy(io.Discard, lr); err != nil {
					sp.End()
					ss.bail(err)
					return
				}
			}
			ss.admit(admission{sp: spooled, err: perr, span: sp})
		case "DONE":
			if err := s.st.Flush(); err != nil {
				fmt.Fprint(conn, errLine(err))
				return
			}
			fmt.Fprintf(conn, "BYE %d\n", s.st.Len())
			s.opts.Obs.Event("ingest.done")
			if s.opts.OnDone != nil {
				s.opts.OnDone()
			}
			return
		default:
			fmt.Fprintf(conn, "ERR unknown command %q\n", cmd)
			return
		}
	}
}

// admitQueue is how many spooled PUTs may wait for stage B. With no
// queue each stage waits for the other at every PUT; a few let each
// run on through a burst (on bench/'s stat_flood, 2 vCPUs, 4 read
// about 15 % more traces a second than a hand-off with no queue, and
// 1 little more than none).
const admitQueue = 4

// admit hands one PUT to stage B, starting it on the session's first
// PUT. It blocks while admitQueue PUTs already wait.
func (ss *session) admit(a admission) {
	if ss.admits == nil {
		ss.admits = make(chan admission, admitQueue)
		ss.admitDone = make(chan struct{})
		go ss.admitLoop()
	}
	ss.inFlight.Add(1)
	ss.admits <- a
}

// waitAdmitted returns once every PUT handed to stage B has been
// replied to: the handler may then write to the connection.
func (ss *session) waitAdmitted() { ss.inFlight.Wait() }

// stopAdmitting ends stage B once it has replied to what it holds.
func (ss *session) stopAdmitting() {
	if ss.admits != nil {
		close(ss.admits)
		<-ss.admitDone
	}
}

// admitLoop is stage B: it admits the session's PUTs in upload order
// and replies to each.
func (ss *session) admitLoop() {
	defer close(ss.admitDone)
	for a := range ss.admits {
		ss.admitOne(a)
		ss.inFlight.Done()
	}
}

// admitOne admits one PUT, or refuses it, and writes its reply.
func (ss *session) admitOne(a admission) {
	s, conn := ss.s, ss.conn
	var meta store.Meta
	var sc *triage.Score
	err := a.err
	if err == nil {
		meta, sc, err = s.st.AdmitSpooled(a.sp)
	}
	sp := a.span
	if err != nil {
		sp.Attr("rejected", "true")
		sp.End()
		s.logger().Warn("ingest container rejected", "remote", conn.RemoteAddr().String(), "err", err)
		fmt.Fprint(conn, errLine(err))
		return
	}
	sp.Attr("id", meta.ID)
	sp.Attr("shard", meta.Shard)
	if sc != nil {
		sp.Attr("suspicion", strconv.FormatFloat(sc.Suspicion, 'g', 6, 64))
	}
	sp.End()
	if s.opts.OnTrace != nil {
		s.opts.OnTrace(meta, sc)
	}
	fmt.Fprintf(conn, "OK %s\n", oneline(meta.ID))
}

// bail ends a session after a fatal read failure, once stage B has
// replied to what it holds. An idle-timeout expiry earns the one typed
// ERR line the protocol promises (the reply write refreshes the write
// deadline, so it goes out even though the read side just expired);
// any other failure — peer gone, connection closed by Close — ends the
// session silently.
func (ss *session) bail(err error) {
	ss.waitAdmitted()
	s := ss.s
	if isTimeout(err) {
		s.timeout64.Add(1)
		s.logger().Warn("ingest session idle timeout", "remote", ss.conn.RemoteAddr().String(), "timeout", s.opts.IdleTimeout.String())
		fmt.Fprintf(ss.conn, timeoutPrefix+"no progress for %s\n", s.opts.IdleTimeout)
	}
}

// refuseQuota ends a session over budget with its one "ERR quota"
// line, after the replies to every PUT before it. The declared payload
// n is then drained, and the session hung up on.
func (ss *session) refuseQuota(n int64, format string, args ...any) {
	ss.waitAdmitted()
	s := ss.s
	s.quota64.Add(1)
	s.logger().Warn("ingest quota refused", "remote", ss.conn.RemoteAddr().String(), "reason", fmt.Sprintf(format, args...))
	fmt.Fprintf(ss.conn, quotaPrefix+format+"\n", args...)
	io.CopyN(io.Discard, ss.br, n)
	ss.hangUp()
}

// lingerTimeout bounds how long a refused session keeps reading what
// its client had already sent.
const lingerTimeout = 2 * time.Second

// hangUp ends a session the server refused while its client may still
// be sending: a pipelining client may have written further PUTs before
// it read the refusal, and closing a socket with unread bytes in it
// resets the connection, which can destroy the refusal line on its
// way. So the server half-closes — the client reads the refusal, then
// EOF — and discards what still arrives until the client closes its
// side or lingerTimeout passes.
func (ss *session) hangUp() {
	raw := ss.conn.Conn
	if cw, ok := raw.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	raw.SetReadDeadline(time.Now().Add(lingerTimeout))
	ss.br.Discard(ss.br.Buffered())
	io.Copy(io.Discard, raw)
}

// readLine reads one newline-terminated command or reply. The line
// must fit the bufio buffer (4 KiB): a peer that streams bytes without
// ever sending a newline gets an error, not unbounded buffering.
func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return "", fmt.Errorf("ingest: protocol line exceeds %d bytes", br.Size())
	}
	if err != nil {
		return "", err
	}
	return strings.TrimRight(string(line), "\r\n"), nil
}

func parseSize(arg string, limit int64) (int64, error) {
	n, err := strconv.ParseInt(strings.TrimSpace(arg), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("ingest: bad payload size %q", arg)
	}
	if n > limit {
		return 0, fmt.Errorf("ingest: payload of %d bytes exceeds the %d limit", n, limit)
	}
	return n, nil
}

// PushResult summarizes one Push: how many traces the server accepted
// and any per-trace rejections (which do not abort the session).
type PushResult struct {
	Shards   int
	Accepted int
	Rejected []string // "id: reason" for every ERR reply
}

// Push uploads every shard and trace of a local store to the ingest
// server at addr. Containers are streamed straight from disk. It
// returns the per-trace outcome; err is non-nil only for protocol or
// transport failures.
func Push(addr string, st *store.Store) (*PushResult, error) {
	return PushAuth(addr, st, "")
}

// PushAuth is Push with a shared-secret token, sent as an AUTH line
// right after the banner exchange. An empty secret sends no AUTH line.
func PushAuth(addr string, st *store.Store, secret string) (*PushResult, error) {
	if strings.ContainsAny(secret, "\r\n") {
		return nil, fmt.Errorf("ingest: auth token must be a single line")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ingest: dial %s: %w", addr, err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "%s\n", Banner)
	if reply, err := readLine(br); err != nil || !strings.HasPrefix(reply, "OK") {
		return nil, fmt.Errorf("ingest: banner rejected: %q err=%v", reply, err)
	}
	if secret != "" {
		fmt.Fprintf(conn, "AUTH %s\n", secret)
		if reply, err := readLine(br); err != nil || !strings.HasPrefix(reply, "OK") {
			return nil, fmt.Errorf("ingest: authentication rejected: %q err=%v", reply, err)
		}
	}
	res := &PushResult{}
	for _, sh := range st.Shards() {
		b, err := json.Marshal(sh)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(conn, "SHARD %d\n", len(b))
		conn.Write(b)
		reply, err := readLine(br)
		if err != nil {
			return nil, fmt.Errorf("ingest: shard %s: %w", sh.Key, err)
		}
		if se := sessionError(reply); se != nil {
			return res, fmt.Errorf("ingest: shard %s: %w", sh.Key, se)
		}
		if !strings.HasPrefix(reply, "OK") {
			return nil, fmt.Errorf("ingest: shard %s rejected: %s", sh.Key, reply)
		}
		res.Shards++
	}
	return res, pushTraces(conn, br, st, res)
}

// pushWindow is how many PUTs a client keeps in flight: enough to keep
// a server busy with one PUT spooling, one being admitted and
// admitQueue waiting between the two, with the rest covering the round
// trip.
const pushWindow = 8

// pushTraces uploads every trace of st with up to pushWindow PUTs in
// flight, then ends the session. A writer goroutine streams the PUTs,
// and DONE after the last; this goroutine reads the replies, which
// come in command order. A session error in a reply (quota, idle
// timeout) stops the upload and is returned typed, whatever the writer
// was doing meanwhile.
func pushTraces(conn net.Conn, br *bufio.Reader, st *store.Store, res *PushResult) error {
	// sent carries the ID of each PUT the writer starts, in order; a
	// slot is held from a PUT's start to its reply.
	sent := make(chan string, pushWindow)
	slots := make(chan struct{}, pushWindow)
	stop := make(chan struct{})
	var werr error
	go func() {
		defer close(sent)
		werr = writePuts(conn, st, sent, slots, stop)
	}()
	var rerr error
	session := false // rerr is a reply that ended the session
	for id := range sent {
		reply, err := readLine(br)
		<-slots
		if err != nil {
			rerr = fmt.Errorf("ingest: upload %s: %w", id, err)
			break
		}
		if strings.HasPrefix(reply, "OK") {
			res.Accepted++
			continue
		}
		// A quota or idle-timeout refusal closes the session: surface it
		// as the typed error instead of a per-trace rejection, so callers
		// can tell "the server rejected this trace" from "the server cut
		// us off".
		if se := sessionError(reply); se != nil {
			rerr, session = fmt.Errorf("ingest: upload %s: %w", id, se), true
			break
		}
		res.Rejected = append(res.Rejected, id+": "+strings.TrimPrefix(reply, "ERR "))
	}
	if rerr != nil {
		// Unblock the writer and wait for it: sent closes when it exits.
		close(stop)
		conn.Close()
		for range sent {
		}
		// A reply that ended the session says why. Otherwise a writer
		// failure of its own (a local file, say) is what cut the session
		// short, unless it only saw the connection closed above.
		if werr != nil && !session && !errors.Is(werr, net.ErrClosed) {
			return werr
		}
		return rerr
	}
	if werr != nil {
		return werr
	}
	reply, err := readLine(br)
	if err != nil {
		return fmt.Errorf("ingest: closing session: %w", err)
	}
	if !strings.HasPrefix(reply, "BYE") {
		return fmt.Errorf("ingest: unexpected close reply %q", reply)
	}
	return nil
}

// writePuts is pushTraces' writer: each PUT takes a slot, is announced
// on sent and streamed, and DONE follows the last. A failure
// half-closes the connection, so the server ends the session and the
// reader is not left waiting for a reply to a PUT cut short.
func writePuts(conn net.Conn, st *store.Store, sent chan<- string, slots chan<- struct{}, stop <-chan struct{}) (err error) {
	defer func() {
		if err != nil {
			if cw, ok := conn.(interface{ CloseWrite() error }); ok {
				cw.CloseWrite()
			}
		}
	}()
	var hdr []byte
	for _, e := range st.Entries() {
		select {
		case slots <- struct{}{}:
		case <-stop:
			return nil
		}
		if hdr, err = putOne(conn, st, e, hdr, sent); err != nil {
			return err
		}
	}
	_, err = io.WriteString(conn, "DONE\n")
	return err
}

// putOne streams one trace as a PUT, the container going out as
// io.Copy from its file (sendfile on a TCP connection: no user-space
// copy, no buffer). hdr is the caller's scratch for the command line.
func putOne(conn net.Conn, st *store.Store, e store.Entry, hdr []byte, sent chan<- string) ([]byte, error) {
	f, err := st.OpenTrace(e.File)
	if err != nil {
		return hdr, fmt.Errorf("ingest: opening %s: %w", e.File, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return hdr, fmt.Errorf("ingest: sizing %s: %w", e.File, err)
	}
	sent <- e.ID
	hdr = append(strconv.AppendInt(append(hdr[:0], "PUT "...), info.Size(), 10), '\n')
	if _, err := conn.Write(hdr); err != nil {
		return hdr, fmt.Errorf("ingest: uploading %s: %w", e.ID, err)
	}
	if _, err := io.Copy(conn, f); err != nil {
		return hdr, fmt.Errorf("ingest: uploading %s: %w", e.ID, err)
	}
	return hdr, nil
}

// quotaReply maps a server "ERR quota ..." line onto the typed
// QuotaError, or nil for any other reply.
func quotaReply(reply string) *QuotaError {
	if detail, ok := strings.CutPrefix(reply, quotaPrefix); ok {
		return &QuotaError{Detail: detail}
	}
	return nil
}

// sessionError maps a server reply that ends the whole session —
// quota exceeded, idle timeout — onto its typed error, or nil for a
// per-trace rejection or success.
func sessionError(reply string) error {
	if qe := quotaReply(reply); qe != nil {
		return qe
	}
	if detail, ok := strings.CutPrefix(reply, timeoutPrefix); ok {
		return &IdleTimeoutError{Detail: detail}
	}
	return nil
}
