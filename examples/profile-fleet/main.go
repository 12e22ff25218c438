// Profile-fleet demonstrates the distributed profiling pipeline of §2.3
// and §3.3: several applications run under the profiling wrapper, each
// ships its self-describing XML log toward a central collection server
// over TCP, and the server's aggregate view is rendered — the scenario
// behind the paper's Figure 5.
//
// The uploads go through the asynchronous spooler, and the collection
// server is restarted in the middle of the fleet run: the profiles
// produced while it is down are buffered and replayed on reconnect, so
// the final aggregate still covers every run — the fleet-scale ingest
// story (bounded storage, streaming aggregation, lossless restart).
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"healers"
	"healers/internal/collect"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	srv, err := collect.Serve("127.0.0.1:0", collect.WithMaxDocs(64))
	if err != nil {
		return err
	}
	defer srv.Close()
	addr := srv.Addr()
	fmt.Printf("collection server listening on %s\n\n", addr)

	tk, err := healers.NewToolkit()
	if err != nil {
		return err
	}
	if err := tk.InstallSampleApps(); err != nil {
		return err
	}

	// One spooler serves the whole fleet: sends never block on the
	// network, and a down collector only delays delivery.
	sp := collect.NewSpooler(addr,
		collect.WithSpoolBackoff(10*time.Millisecond, 250*time.Millisecond))
	defer sp.Close()

	runs := []struct {
		app   string
		stdin string
		argv  []string
	}{
		{healers.Textutil, "alpha beta gamma\ndelta epsilon\n", nil},
		{healers.Stress, "", []string{"50"}},
		{healers.Textutil, "one two three four five six seven\n", nil},
	}
	for i, r := range runs {
		if i == 1 {
			// Let the first profile land, then take the collector
			// down mid-fleet: the remaining profiles spool locally.
			if err := sp.Flush(10 * time.Second); err != nil {
				return err
			}
			if err := awaitStored(srv, 1); err != nil {
				return err
			}
			if err := srv.Close(); err != nil {
				return err
			}
			fmt.Println("collection server stopped — uploads now spool locally")
		}
		rr, err := tk.RunProfiled(r.app, r.stdin, r.argv...)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s %-8s %6d libc calls profiled\n", r.app, rr.Proc, rr.Profile.TotalCalls())
		if err := sp.Send(rr.Profile); err != nil {
			return err
		}
	}

	// Restart on the same address; the spooler replays the buffer.
	srv2, err := restart(addr)
	if err != nil {
		return err
	}
	defer srv2.Close()
	fmt.Printf("collection server restarted — %d spooled profiles replaying\n", sp.Pending())
	if err := sp.Flush(10 * time.Second); err != nil {
		return err
	}
	if err := awaitStored(srv2, uint64(len(runs)-1)); err != nil {
		return err
	}

	// The restarted server holds the replayed profiles; the first one
	// landed before the restart — fold both aggregates for the fleet
	// view (a long-lived deployment would run one server and read its
	// streaming aggregate directly).
	agg, err := srv.AggregateCalls()
	if err != nil {
		return err
	}
	agg2, err := srv2.AggregateCalls()
	if err != nil {
		return err
	}
	for fn, calls := range agg2 {
		agg[fn] += calls
	}
	spst := sp.Stats()
	st1, st2 := srv.Stats(), srv2.Stats()
	fmt.Printf("\nspooler: %d enqueued, %d sent, %d retries, %d dropped\n",
		spst.Enqueued, spst.Sent, spst.Retries, spst.Dropped)
	fmt.Printf("servers received %d + %d profile documents; aggregate call counts:\n",
		st1.DocsReceived, st2.DocsReceived)
	names := make([]string, 0, len(agg))
	for fn := range agg {
		if agg[fn] > 0 {
			names = append(names, fn)
		}
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]] > agg[names[j]] })
	for _, fn := range names {
		fmt.Printf("  %-12s %6d\n", fn, agg[fn])
	}

	// Render the last run's Figure 5-style report.
	logs, err := srv2.Profiles()
	if err != nil {
		return err
	}
	if len(logs) == 0 {
		return fmt.Errorf("restarted collection server holds no profiles")
	}
	fmt.Println()
	fmt.Print(healers.RenderProfile(logs[len(logs)-1]))
	return nil
}

// awaitStored waits until srv has stored want documents. Spooler.Flush
// returns once the frames are written to the socket, not once the server
// has stored them.
func awaitStored(srv *collect.Server, want uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := srv.Stats().DocsReceived
		if got >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("collection server stored %d of %d profiles", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// restart re-binds the collection address, retrying briefly while the
// kernel releases the old listener.
func restart(addr string) (*collect.Server, error) {
	var err error
	for i := 0; i < 100; i++ {
		var s *collect.Server
		if s, err = collect.Serve(addr, collect.WithMaxDocs(64)); err == nil {
			return s, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil, err
}
