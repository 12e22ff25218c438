// Package webui serves the HEALERS demonstration interface: the paper's
// §3 demos are presented through a Web UI ("The Web interface for this
// demo is illustrated in Figure 4"). This is that interface for the
// simulated system — library and application browsing, declaration files,
// campaign tables, and received profiles, rendered as plain HTML over
// net/http.
package webui

import (
	"fmt"
	"html"
	"net"
	"net/http"
	"sort"
	"strings"

	"healers/internal/collect"
	"healers/internal/core"
	"healers/internal/gen"
	"healers/internal/xmlrep"
)

// Server is the toolkit's web front end.
type Server struct {
	tk   *core.Toolkit
	col  *collect.Server // optional: received profiles
	camp *CampaignMetrics
	mux  *http.ServeMux
	ln   net.Listener
	srv  *http.Server
}

// New builds the front end over a toolkit; col may be nil when no
// collection server is attached.
func New(tk *core.Toolkit, col *collect.Server) *Server {
	s := &Server{tk: tk, col: col, camp: &CampaignMetrics{}, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/library", s.handleLibrary)
	s.mux.HandleFunc("/library.xml", s.handleLibraryXML)
	s.mux.HandleFunc("/app", s.handleApp)
	s.mux.HandleFunc("/profiles", s.handleProfiles)
	s.mux.Handle("/metrics", MetricsHandlerFor(MetricsSources{Collector: col, Campaign: s.camp}))
	return s
}

// Campaign returns the server's campaign metrics accumulator; pass its
// Sink to inject.WithStatsSink so campaign throughput shows on /metrics.
func (s *Server) Campaign() *CampaignMetrics { return s.camp }

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves in the background.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("webui: listen: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	go func() {
		// Serve returns ErrServerClosed on Close; nothing to do.
		_ = s.srv.Serve(ln)
	}()
	return nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

// Handler exposes the mux for tests (httptest) and embedding.
func (s *Server) Handler() http.Handler { return s.mux }

// page writes the shared HTML frame.
func page(w http.ResponseWriter, title string, body func(b *strings.Builder)) {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html><html><head><title>")
	b.WriteString(html.EscapeString(title))
	b.WriteString("</title><style>body{font-family:monospace;margin:2em}table{border-collapse:collapse}td,th{border:1px solid #999;padding:2px 8px;text-align:left}h1{font-size:1.2em}</style></head><body>")
	fmt.Fprintf(&b, "<h1>%s</h1><p><a href=\"/\">HEALERS</a></p>", html.EscapeString(title))
	body(&b)
	b.WriteString("</body></html>")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// handleIndex is the system browser: all libraries and applications
// (demo §3.1's "our toolkit can list all libraries in the system").
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	page(w, "HEALERS — system browser", func(b *strings.Builder) {
		b.WriteString("<h2>libraries</h2><table><tr><th>soname</th><th>functions</th><th></th></tr>")
		for _, lib := range s.tk.ListLibraries() {
			scan, err := s.tk.ScanLibrary(lib)
			if err != nil {
				continue
			}
			fmt.Fprintf(b, "<tr><td><a href=\"/library?name=%s\">%s</a></td><td>%d</td><td><a href=\"/library.xml?name=%s\">declarations.xml</a></td></tr>",
				html.EscapeString(lib), html.EscapeString(lib), len(scan.Functions), html.EscapeString(lib))
		}
		b.WriteString("</table><h2>applications</h2><ul>")
		for _, app := range s.tk.ListApplications() {
			fmt.Fprintf(b, "<li><a href=\"/app?name=%s\">%s</a></li>", html.EscapeString(app), html.EscapeString(app))
		}
		b.WriteString("</ul>")
		if s.col != nil {
			st := s.col.Stats()
			fmt.Fprintf(b, "<p><a href=\"/profiles\">collection server: %d documents received, %d retained, %d connections active</a></p>",
				st.DocsReceived, st.DocsRetained, st.ActiveConns)
		}
	})
}

// handleLibrary lists one library's functions with prototypes (demo §3.1).
func (s *Server) handleLibrary(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	scan, err := s.tk.ScanLibrary(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	page(w, "functions defined in "+name, func(b *strings.Builder) {
		b.WriteString("<table><tr><th>prototype</th></tr>")
		for _, fn := range scan.Functions {
			p := scan.Protos[fn]
			if p == nil {
				fmt.Fprintf(b, "<tr><td>%s (no prototype)</td></tr>", html.EscapeString(fn))
				continue
			}
			fmt.Fprintf(b, "<tr><td>%s</td></tr>", html.EscapeString(p.String()))
		}
		b.WriteString("</table>")
	})
}

// handleLibraryXML serves the declaration file (demo §3.1's "XML-style
// declaration file that describes the prototype of each function").
func (s *Server) handleLibraryXML(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	scan, err := s.tk.ScanLibrary(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	data, err := xmlrep.Marshal(scan.Declarations())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.Write(data)
}

// handleApp is the application-centric view of Figure 4: linked libraries
// and undefined functions.
func (s *Server) handleApp(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	scan, err := s.tk.ScanApplication(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	page(w, "application "+name, func(b *strings.Builder) {
		b.WriteString("<h2>linked libraries</h2><ul>")
		for _, l := range scan.AllLibs {
			fmt.Fprintf(b, "<li><a href=\"/library?name=%s\">%s</a></li>", html.EscapeString(l), html.EscapeString(l))
		}
		for _, l := range scan.MissingLibs {
			fmt.Fprintf(b, "<li>%s (NOT FOUND)</li>", html.EscapeString(l))
		}
		b.WriteString("</ul><h2>undefined functions</h2><table><tr><th>symbol</th><th>resolved by</th></tr>")
		for _, sym := range scan.Undefined {
			by := scan.ResolvedBy[sym]
			if by == "" {
				by = "UNRESOLVED"
			}
			fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td></tr>", html.EscapeString(sym), html.EscapeString(by))
		}
		b.WriteString("</table>")
	})
}

// profilesShown bounds the documents the profiles page parses and
// renders: a collector retains thousands, and the aggregate above the
// sections already covers every one.
const profilesShown = 32

// handleProfiles renders the newest received profiling documents with
// HTML bar charts — the Figure 5 display.
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if s.col == nil {
		http.Error(w, "no collection server attached", http.StatusNotFound)
		return
	}
	logs, omitted, err := s.col.RecentProfiles(profilesShown)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	agg := s.col.Aggregate()
	page(w, "received profiles", func(b *strings.Builder) {
		s.writeIngestStats(b)
		s.writeAggregate(b, agg)
		if omitted > 0 {
			fmt.Fprintf(b, "<p>showing the newest %d retained profiles; %d older ones are left out</p>", len(logs), omitted)
		}
		for _, log := range logs {
			fmt.Fprintf(b, "<h2>%s on %s (wrapper %s)</h2>", html.EscapeString(log.App), html.EscapeString(log.Host), html.EscapeString(log.Wrapper))
			type row struct {
				name  string
				calls uint64
			}
			var rows []row
			var max uint64
			for _, f := range log.Funcs {
				if f.Calls == 0 {
					continue
				}
				rows = append(rows, row{f.Name, f.Calls})
				if f.Calls > max {
					max = f.Calls
				}
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].calls > rows[j].calls })
			b.WriteString("<table><tr><th>function</th><th>calls</th><th></th></tr>")
			for _, rw := range rows {
				width := 1
				if max > 0 {
					width = int(rw.calls * 300 / max)
					if width == 0 {
						width = 1
					}
				}
				fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td><div style=\"background:#36c;height:10px;width:%dpx\"></div></td></tr>",
					html.EscapeString(rw.name), rw.calls, width)
			}
			b.WriteString("</table>")
			hasErr := false
			for _, f := range log.Funcs {
				for _, e := range f.Errnos {
					if !hasErr {
						b.WriteString("<h3>error distribution</h3><table><tr><th>function</th><th>errno</th><th>count</th></tr>")
						hasErr = true
					}
					fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%d</td></tr>",
						html.EscapeString(f.Name), html.EscapeString(e.Errno), e.Count)
				}
			}
			if hasErr {
				b.WriteString("</table>")
			}
		}
		if len(logs) == 0 {
			b.WriteString("<p>no profiles received yet</p>")
		}
	})
}

// writeIngestStats renders the collection server's ingest counters —
// the fleet operator's view of the pipeline's health.
func (s *Server) writeIngestStats(b *strings.Builder) {
	st := s.col.Stats()
	b.WriteString("<h2>ingest counters</h2><table><tr><th>counter</th><th>value</th></tr>")
	fmt.Fprintf(b, "<tr><td>documents received</td><td>%d (%d bytes)</td></tr>", st.DocsReceived, st.BytesReceived)
	fmt.Fprintf(b, "<tr><td>documents retained</td><td>%d (%d bytes)</td></tr>", st.DocsRetained, st.BytesRetained)
	fmt.Fprintf(b, "<tr><td>documents evicted</td><td>%d (%d bytes)</td></tr>", st.DocsEvicted, st.BytesEvicted)
	fmt.Fprintf(b, "<tr><td>frames rejected</td><td>%d</td></tr>", st.FramesRejected)
	fmt.Fprintf(b, "<tr><td>documents rejected</td><td>%d</td></tr>", st.DocsRejected)
	fmt.Fprintf(b, "<tr><td>connections</td><td>%d accepted, %d rejected, %d active</td></tr>",
		st.ConnsAccepted, st.ConnsRejected, st.ActiveConns)
	kinds := s.col.KindCounts()
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, string(k))
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(b, "<tr><td>kind %s</td><td>%d</td></tr>", html.EscapeString(k), kinds[xmlrep.DocKind(k)])
	}
	b.WriteString("</table>")
}

// writeAggregate renders the streaming fleet aggregate — the server-side
// Figure 5 view, maintained at ingest time so it covers every profile
// ever received, evicted or not: per-function call counts, latency
// percentiles derived from the merged log2 histograms, and the errno
// distribution.
func (s *Server) writeAggregate(b *strings.Builder, agg *collect.FleetAggregate) {
	names := make([]string, 0, len(agg.Funcs))
	for fn, fa := range agg.Funcs {
		if fa.Calls > 0 {
			names = append(names, fn)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Slice(names, func(i, j int) bool {
		ci, cj := agg.Funcs[names[i]].Calls, agg.Funcs[names[j]].Calls
		if ci != cj {
			return ci > cj
		}
		return names[i] < names[j]
	})
	b.WriteString("<h2>aggregate call counts</h2><table><tr><th>function</th><th>calls</th><th>denied</th></tr>")
	for _, fn := range names {
		fa := agg.Funcs[fn]
		fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%d</td></tr>", html.EscapeString(fn), fa.Calls, fa.Denied)
	}
	b.WriteString("</table>")

	hasHist := false
	for _, fn := range names {
		fa := agg.Funcs[fn]
		if fa.Hist == nil || gen.HistTotal(fa.Hist) == 0 {
			continue
		}
		if !hasHist {
			b.WriteString("<h2>fleet latency (merged log2 histograms)</h2>" +
				"<table><tr><th>function</th><th>samples</th><th>p50 ≤</th><th>p90 ≤</th><th>p99 ≤</th><th>max ≤</th></tr>")
			hasHist = true
		}
		fmt.Fprintf(b, "<tr><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>",
			html.EscapeString(fn), gen.HistTotal(fa.Hist),
			gen.FormatNS(gen.HistQuantileNS(fa.Hist, 0.50)),
			gen.FormatNS(gen.HistQuantileNS(fa.Hist, 0.90)),
			gen.FormatNS(gen.HistQuantileNS(fa.Hist, 0.99)),
			gen.FormatNS(gen.HistQuantileNS(fa.Hist, 1)))
	}
	if hasHist {
		b.WriteString("</table>")
	}

	hasErr := false
	for _, fn := range names {
		fa := agg.Funcs[fn]
		errnos := make([]string, 0, len(fa.Errnos))
		for e := range fa.Errnos {
			errnos = append(errnos, e)
		}
		sort.Strings(errnos)
		for _, e := range errnos {
			if !hasErr {
				b.WriteString("<h2>fleet errno distribution</h2><table><tr><th>function</th><th>errno</th><th>count</th></tr>")
				hasErr = true
			}
			fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td>%d</td></tr>",
				html.EscapeString(fn), html.EscapeString(e), fa.Errnos[e])
		}
	}
	if hasErr {
		b.WriteString("</table>")
	}
}
