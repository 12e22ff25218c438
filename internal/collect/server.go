package collect

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"healers/internal/gen"
	"healers/internal/xmlrep"
)

// FuncAggregate is one wrapped function's fleet-wide totals, merged across
// every profile document the server has received.
type FuncAggregate struct {
	// FuncCounters sums the function's profile counters.
	xmlrep.FuncCounters
	// ContainedBy splits Contained per failure class, indexed by
	// gen.FailureClass — the grain the control plane's escalation
	// decisions consume. Profiles from pre-containment clients leave it
	// all-zero.
	ContainedBy [gen.NumFailureClasses]uint64
	// Hist is the dense log2 latency histogram (gen.HistBuckets buckets),
	// or nil when no uploaded profile carried latency data for this
	// function (pre-observability clients).
	Hist []uint64
	// Errnos maps errno name to the number of calls that set it.
	Errnos map[string]uint64
}

// FleetAggregate is the server's streaming profile aggregate: per-function
// totals, the cross-function errno distribution, and the overflow count,
// all maintained incrementally at ingest time. It covers every profile
// ever received, even after the raw XML has been evicted.
type FleetAggregate struct {
	// Funcs maps function name to its merged totals.
	Funcs map[string]*FuncAggregate
	// Global maps errno name to its cross-function count.
	Global map[string]uint64
	// Overflows sums detected canary/bound violations.
	Overflows uint64
	// Outcomes maps outcome class ("ok", "crash", "silent-corruption",
	// ...) to fleet-wide run counts. Sequence reports feed it one count
	// per fault-combination run; profile documents feed the
	// silent-corruption class from their per-function counters.
	Outcomes map[string]uint64
}

func newFleetAggregate() *FleetAggregate {
	return &FleetAggregate{
		Funcs:    make(map[string]*FuncAggregate),
		Global:   make(map[string]uint64),
		Outcomes: make(map[string]uint64),
	}
}

// merge folds one parsed profile into the aggregate. Latency buckets are
// merged element-wise — the log2 layout makes a fleet-wide percentile an
// O(buckets) read (gen.HistQuantileNS) instead of a re-parse.
func (a *FleetAggregate) merge(prof *xmlrep.ProfileLog) {
	for _, f := range prof.Funcs {
		fa := a.Funcs[f.Name]
		if fa == nil {
			fa = &FuncAggregate{}
			a.Funcs[f.Name] = fa
		}
		fa.FuncCounters.Add(f.FuncCounters)
		if f.SilentCorrupt > 0 {
			a.Outcomes["silent-corruption"] += f.SilentCorrupt
		}
		for _, cc := range f.ContainedBy {
			for c := 0; c < gen.NumFailureClasses; c++ {
				if gen.FailureClass(c).String() == cc.Class {
					fa.ContainedBy[c] += cc.Count
					break
				}
			}
		}
		if f.Latency != nil {
			for _, b := range f.Latency.Buckets {
				if b.Bucket < 0 || b.Bucket >= gen.HistBuckets {
					continue
				}
				if fa.Hist == nil {
					fa.Hist = make([]uint64, gen.HistBuckets)
				}
				fa.Hist[b.Bucket] += b.Count
			}
		}
		for _, e := range f.Errnos {
			if fa.Errnos == nil {
				fa.Errnos = make(map[string]uint64)
			}
			fa.Errnos[e.Errno] += e.Count
		}
	}
	for _, e := range prof.Global {
		a.Global[e.Errno] += e.Count
	}
	a.Overflows += prof.Overflows
}

// mergeSequence folds one sequence-campaign report into the aggregate:
// every fault-combination run counts once under its outcome class.
func (a *FleetAggregate) mergeSequence(doc *xmlrep.SequenceReportDoc) {
	for _, r := range doc.Runs {
		a.Outcomes[r.Outcome]++
	}
}

// clone deep-copies the aggregate so callers can read it without holding
// the server lock.
func (a *FleetAggregate) clone() *FleetAggregate {
	out := &FleetAggregate{
		Funcs:     make(map[string]*FuncAggregate, len(a.Funcs)),
		Global:    maps.Clone(a.Global),
		Overflows: a.Overflows,
		Outcomes:  maps.Clone(a.Outcomes),
	}
	for fn, fa := range a.Funcs {
		c := *fa
		c.Hist = slices.Clone(fa.Hist)
		c.Errnos = maps.Clone(fa.Errnos)
		out.Funcs[fn] = &c
	}
	return out
}

// Server defaults; each has a matching Option to override.
const (
	// DefaultMaxConns caps concurrently served connections.
	DefaultMaxConns = 256
	// DefaultMaxDocs bounds the retained document count.
	DefaultMaxDocs = 8192
	// DefaultMaxBytes bounds the retained document bytes.
	DefaultMaxBytes = 256 << 20
	// DefaultIdleTimeout bounds how long a connection may sit between
	// frames before the server drops it.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultReadTimeout bounds reading one frame body once its header
	// has arrived — the slowloris guard.
	DefaultReadTimeout = 30 * time.Second
)

// Handler is a dispatch table of request documents (see WithHandler):
// each entry answers one document kind with the marshalled response
// frame. Kinds without an entry fall through to the ordinary store path.
type Handler map[xmlrep.DocKind]func(from string, data []byte) []byte

type config struct {
	maxConns    int
	maxDocs     int
	maxBytes    int64
	idleTimeout time.Duration
	readTimeout time.Duration
	handlers    Handler
	dupKind     xmlrep.DocKind // a kind claimed by two WithHandler tables
}

// Option configures a Server at Serve time.
type Option func(*config)

// WithMaxConns caps concurrently served connections; excess connections
// are closed on accept. n <= 0 removes the cap.
func WithMaxConns(n int) Option { return func(c *config) { c.maxConns = n } }

// WithMaxDocs bounds retained documents; the oldest are evicted when the
// budget is exceeded. Eviction drops raw XML only — the streaming
// aggregate and kind counts keep every document ever received. n <= 0
// removes the bound.
func WithMaxDocs(n int) Option { return func(c *config) { c.maxDocs = n } }

// WithMaxBytes bounds retained document bytes, evicting oldest-first like
// WithMaxDocs. n <= 0 removes the bound.
func WithMaxBytes(n int64) Option { return func(c *config) { c.maxBytes = n } }

// WithIdleTimeout bounds the gap between frames on one connection;
// d <= 0 disables the deadline.
func WithIdleTimeout(d time.Duration) Option { return func(c *config) { c.idleTimeout = d } }

// WithReadTimeout bounds reading one frame body after its header;
// d <= 0 disables the deadline.
func WithReadTimeout(d time.Duration) Option { return func(c *config) { c.readTimeout = d } }

// WithHandler merges a request-handler table into the server's single
// dispatch map: a received document whose kind has an entry gets the
// entry's response written back on the same connection as one frame,
// turning the one-way upload protocol into request/response without
// changing the framing. Documents of any other kind are stored as usual.
// Repeated WithHandler options merge, which is how one server can be a
// campaign coordinator, a policy control plane and a cache registry at
// once; Serve refuses two tables that claim the same kind. Handlers run
// on the connection's goroutine and may be called concurrently across
// connections; response writes run under the server's read timeout so a
// non-draining peer cannot pin a handler.
func WithHandler(h Handler) Option {
	return func(c *config) {
		for kind, f := range h {
			if _, dup := c.handlers[kind]; dup {
				c.dupKind = kind
			}
			c.handlers[kind] = f
		}
	}
}

// Stats are the server's ingest counters. All counters are cumulative
// over the server's lifetime except ActiveConns and the Retained pair,
// which describe the current moment.
type Stats struct {
	DocsReceived   uint64 // documents stored (and aggregated)
	BytesReceived  uint64 // raw XML bytes of stored documents
	FramesRejected uint64 // bad lengths, truncated or timed-out bodies
	DocsRejected   uint64 // unknown kinds, unparseable profiles, unverifiable sequence reports
	DocsEvicted    uint64 // documents dropped by the retention budget
	BytesEvicted   uint64 // their raw XML bytes
	ConnsAccepted  uint64 // connections admitted to a handler
	ConnsRejected  uint64 // connections closed by the connection cap
	ActiveConns    int    // connections currently being served
	DocsRetained   int    // documents currently held
	BytesRetained  int64  // their raw XML bytes
	// RequestsHandled counts documents answered by the WithHandler
	// request handler instead of being stored.
	RequestsHandled uint64
}

// Server is the central collection daemon.
type Server struct {
	ln  net.Listener
	cfg config

	mu    sync.Mutex
	docs  []Received // docs[head:] are the retained documents, Seq-ascending
	head  int
	bytes int64 // raw XML bytes retained
	next  uint64
	fleet *FleetAggregate           // streaming per-function profile totals
	kinds map[xmlrep.DocKind]uint64 // per-kind received counts
	stats Stats
	conns map[net.Conn]struct{}

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// Serve starts a collection server on addr (use "127.0.0.1:0" for an
// ephemeral port) and begins accepting uploads in the background.
func Serve(addr string, opts ...Option) (*Server, error) {
	cfg := config{
		maxConns:    DefaultMaxConns,
		maxDocs:     DefaultMaxDocs,
		maxBytes:    DefaultMaxBytes,
		idleTimeout: DefaultIdleTimeout,
		readTimeout: DefaultReadTimeout,
		handlers:    Handler{},
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.dupKind != "" {
		return nil, fmt.Errorf("collect: more than one handler for document kind %q", cfg.dupKind)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collect: listen: %w", err)
	}
	s := &Server{
		ln:     ln,
		cfg:    cfg,
		fleet:  newFleetAggregate(),
		kinds:  make(map[xmlrep.DocKind]uint64),
		conns:  make(map[net.Conn]struct{}),
		closed: make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, force-closes every tracked connection, and
// waits for the handlers to drain. It returns promptly even while
// clients hold idle connections open, and is safe to call repeatedly.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.closeErr = s.ln.Close()
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return s.closeErr
}

// acceptBackoff bounds the retry delay after transient Accept failures
// (fd exhaustion and friends), so a persistent error condition does not
// hot-spin the accept goroutine on a core.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// transientAcceptError reports whether an Accept failure is worth backing
// off and retrying, by explicit errno classification (the deprecated
// net.Error.Temporary grab-bag is not consulted): resource exhaustion and
// peer-side aborts are transient, a dead listener is not.
func transientAcceptError(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return false
	}
	for _, errno := range []syscall.Errno{
		syscall.ECONNABORTED, // peer gave up before we accepted
		syscall.ECONNRESET,
		syscall.EINTR,
		syscall.EMFILE, // process fd table full
		syscall.ENFILE, // system fd table full
		syscall.ENOBUFS,
		syscall.ENOMEM,
		syscall.EAGAIN,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := acceptBackoffMin
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if !transientAcceptError(err) {
				// The listener is permanently broken; no session will
				// ever arrive, so spinning on it helps nobody.
				return
			}
			// Transient accept failure (e.g. EMFILE): back off and
			// retry, doubling up to the cap.
			select {
			case <-s.closed:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		backoff = acceptBackoffMin
		s.mu.Lock()
		if s.cfg.maxConns > 0 && len(s.conns) >= s.cfg.maxConns {
			s.stats.ConnsRejected++
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.stats.ConnsAccepted++
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// handle drains one connection's documents under the configured idle and
// per-frame read deadlines.
func (s *Server) handle(conn net.Conn) {
	defer s.dropConn(conn)
	from := conn.RemoteAddr().String()
	var hdr [4]byte
	for {
		// Idle deadline: how long the peer may sit between frames.
		if s.cfg.idleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.idleTimeout))
		}
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return // EOF, idle timeout, or forced close ends the session
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > MaxDocSize {
			s.bump(&s.stats.FramesRejected)
			return // protocol violation ends the session
		}
		// Read deadline: once a frame is announced its body must arrive
		// promptly — a trickling client cannot pin the handler.
		if s.cfg.readTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.readTimeout))
		}
		data, err := readBody(conn, int(n))
		if err != nil {
			s.bump(&s.stats.FramesRejected)
			return
		}
		if !s.dispatch(conn, from, data) {
			return
		}
	}
}

// dispatch routes one received document by its kind, sniffed once: a
// kind with a handler gets the handler's response written back on the
// connection, everything else goes to the store. It returns false when
// the session must end (a response write failed — the peer is gone or
// not draining).
func (s *Server) dispatch(conn net.Conn, from string, data []byte) bool {
	kind, err := xmlrep.Kind(data)
	if err != nil {
		s.bump(&s.stats.DocsRejected)
		return true // unknown document; skip, keep the session
	}
	h, ok := s.cfg.handlers[kind]
	if !ok {
		s.store(from, kind, data)
		return true
	}
	resp := h(from, data)
	s.bump(&s.stats.RequestsHandled)
	if s.cfg.readTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.readTimeout))
	}
	if err := WriteFrame(conn, resp); err != nil {
		return false
	}
	conn.SetWriteDeadline(time.Time{})
	return true
}

func (s *Server) dropConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// bump adds one to the Stats counter c under the server lock.
func (s *Server) bump(c *uint64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// store validates, aggregates, and retains one document of a sniffed
// kind.
func (s *Server) store(from string, kind xmlrep.DocKind, data []byte) {
	var err error
	// Parse profiles outside the lock: the parse feeds the streaming
	// aggregate, and doing it at ingest is what lets AggregateCalls
	// answer without touching stored XML.
	var prof *xmlrep.ProfileLog
	var seq *xmlrep.SequenceReportDoc
	switch kind {
	case xmlrep.KindProfile:
		// The aggregate never reads the trace: the counters-only decode
		// checks it exactly as strictly and builds none of it.
		prof, err = xmlrep.UnmarshalProfileCounters(data)
	case xmlrep.KindSequenceReport:
		// Sequence reports carry an integrity checksum; a mismatched or
		// unparseable document is rejected rather than aggregated — the
		// outcome counters must never absorb a truncated upload.
		seq, err = xmlrep.Unmarshal[xmlrep.SequenceReportDoc](data)
		if err == nil {
			err = xmlrep.Verify(seq)
		}
	}
	if err != nil {
		s.bump(&s.stats.DocsRejected)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs = append(s.docs, Received{Seq: s.next, From: from, Kind: kind, Data: data, At: time.Now()})
	s.next++
	s.bytes += int64(len(data))
	s.stats.DocsReceived++
	s.stats.BytesReceived += uint64(len(data))
	s.kinds[kind]++
	if prof != nil {
		s.fleet.merge(prof)
	}
	if seq != nil {
		s.fleet.mergeSequence(seq)
	}
	s.evictLocked()
}

// evictLocked enforces the retention budget, dropping oldest documents
// first. The head index makes eviction O(1); the slice is compacted once
// the dead prefix dominates, keeping memory proportional to the budget.
func (s *Server) evictLocked() {
	for s.head < len(s.docs) &&
		((s.cfg.maxDocs > 0 && len(s.docs)-s.head > s.cfg.maxDocs) ||
			(s.cfg.maxBytes > 0 && s.bytes > s.cfg.maxBytes)) {
		d := &s.docs[s.head]
		s.bytes -= int64(len(d.Data))
		s.stats.DocsEvicted++
		s.stats.BytesEvicted += uint64(len(d.Data))
		*d = Received{}
		s.head++
	}
	if s.head > 64 && s.head*2 >= len(s.docs) {
		n := copy(s.docs, s.docs[s.head:])
		clear(s.docs[n:])
		s.docs = s.docs[:n]
		s.head = 0
	}
}

// Stats snapshots the ingest counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.ActiveConns = len(s.conns)
	st.DocsRetained = len(s.docs) - s.head
	st.BytesRetained = s.bytes
	return st
}

// Count returns the number of retained documents (see Stats for the
// cumulative received count).
func (s *Server) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.docs) - s.head
}

// DocsSince returns the retained documents with sequence number >= seq,
// the cursor to pass next time, and the number of documents in [seq,
// next) that were evicted before this poll could see them — a pollable
// drain that never re-copies already-seen documents and never hides
// loss. A poller whose cursor fell behind the retention budget gets the
// surviving suffix plus an explicit evicted count instead of a silent
// gap; a drain that cannot tolerate loss (the distributed campaign
// coordinator's) must treat evicted > 0 as an error. Evicted documents'
// cumulative counts also survive in Stats.
func (s *Server) DocsSince(seq uint64) (docs []Received, next uint64, evicted uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := s.docs[s.head:]
	// Sequence numbers are dense (one per stored document), so the gap
	// between the cursor and the oldest surviving document IS the
	// evicted count.
	oldest := s.next
	if len(live) > 0 {
		oldest = live[0].Seq
	}
	if seq < oldest {
		evicted = oldest - seq
	}
	i := sort.Search(len(live), func(i int) bool { return live[i].Seq >= seq })
	if i < len(live) {
		docs = append(docs, live[i:]...)
	}
	return docs, s.next, evicted
}

// KindCounts returns the cumulative per-kind received counts, maintained
// at ingest time (eviction does not decrement them).
func (s *Server) KindCounts() map[xmlrep.DocKind]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[xmlrep.DocKind]uint64, len(s.kinds))
	for k, n := range s.kinds {
		out[k] = n
	}
	return out
}

// Profiles parses every retained profile document, oldest first.
func (s *Server) Profiles() ([]*xmlrep.ProfileLog, error) {
	logs, _, err := s.RecentProfiles(math.MaxInt)
	return logs, err
}

// RecentProfiles parses the newest n retained profile documents, oldest
// first, and reports how many older retained profiles it left out. Its
// cost is bounded by n however many documents the server retains.
func (s *Server) RecentProfiles(n int) (logs []*xmlrep.ProfileLog, omitted int, err error) {
	var recent [][]byte // newest first
	s.mu.Lock()
	for i := len(s.docs) - 1; i >= s.head; i-- {
		switch {
		case s.docs[i].Kind != xmlrep.KindProfile:
		case len(recent) < n:
			recent = append(recent, s.docs[i].Data)
		default:
			omitted++
		}
	}
	s.mu.Unlock()
	logs = make([]*xmlrep.ProfileLog, len(recent))
	for i, data := range recent {
		log, err := xmlrep.Unmarshal[xmlrep.ProfileLog](data)
		if err != nil {
			return nil, 0, err
		}
		logs[len(recent)-1-i] = log
	}
	return logs, omitted, nil
}

// AggregateCalls sums call counts per function across all received
// profiles — the server-side view the paper's Figure 5 renders. The
// totals are maintained incrementally at ingest time, so this is a map
// copy, not a re-parse, and it covers every profile ever received even
// after its raw XML has been evicted.
func (s *Server) AggregateCalls() (map[string]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.fleet.Funcs))
	for fn, fa := range s.fleet.Funcs {
		out[fn] = fa.Calls
	}
	return out, nil
}

// Aggregate snapshots the full streaming profile aggregate: per-function
// call/latency/errno/outcome totals plus the global errno distribution.
// Like AggregateCalls it is maintained at ingest time — a deep copy, not
// a re-parse — and survives eviction of the raw documents.
func (s *Server) Aggregate() *FleetAggregate {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fleet.clone()
}

// AggregateCallsFull recomputes the call aggregate by re-parsing every
// retained profile document — the O(docs × parse) reference
// implementation that AggregateCalls replaced, kept for the determinism
// tests and the ingest benchmark. Unlike AggregateCalls it only sees
// documents that survived eviction.
func (s *Server) AggregateCallsFull() (map[string]uint64, error) {
	logs, err := s.Profiles()
	if err != nil {
		return nil, err
	}
	agg := make(map[string]uint64)
	for _, l := range logs {
		for _, f := range l.Funcs {
			agg[f.Name] += f.Calls
		}
	}
	return agg, nil
}
