package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"

	"healers/internal/collect"
	"healers/internal/core"
	"healers/internal/victim"
	"healers/internal/xmlrep"
)

const (
	// fleetBatch is how many pre-rendered profile documents one
	// fleet-ingest operation uploads before its policy poll; it is also
	// the size of the seed's document pool, so every batch is the pool.
	fleetBatch = 8
	// fleetScrapeEvery is how many batches worker 0 uploads between two
	// reads of the fleet aggregate.
	fleetScrapeEvery = 4
	// fleetPolicyRev is the revision of the policy the control plane
	// serves.
	fleetPolicyRev = 1
)

// fleetIngest is the collector side: a server configured like
// healers-collectd's defaults ingests profile documents from two
// connections, each of which ends every batch with a policy poll. A
// connection's frames are handled in order, so the poll's reply is the
// ingest barrier for the batch.
type fleetIngest struct {
	srv     *collect.Server
	cp      *collect.ControlPlane
	clients [2]*collect.Client
	pool    [][]byte
	// want is the per-function call total of one batch.
	want map[string]uint64

	mu      sync.Mutex
	batches int
	probes  layerProbes
	tracing bool
}

func setupFleetIngest(seed uint64, traced bool) (bench, error) {
	pool, want, err := renderPool(seed)
	if err != nil {
		return nil, err
	}
	cp := collect.NewControlPlane()
	policy := xmlrep.NewPolicyDoc(8, 60000, []xmlrep.PolicyRuleXML{
		{Func: "*", Class: "*", Action: "retry", Retries: 2},
	})
	policy.Stamp(fleetPolicyRev)
	if err := cp.SetPolicy(policy); err != nil {
		return nil, err
	}
	srv, err := collect.Serve("127.0.0.1:0",
		collect.WithMaxDocs(collect.DefaultMaxDocs),
		collect.WithMaxBytes(collect.DefaultMaxBytes),
		collect.WithMaxConns(collect.DefaultMaxConns),
		collect.WithHandler(cp.Handler()))
	if err != nil {
		return nil, err
	}
	f := &fleetIngest{srv: srv, cp: cp, pool: pool, want: want, tracing: traced}
	for i := range f.clients {
		c := collect.NewClient(srv.Addr())
		f.clients[i] = c
		// Each client starts behind and fetches the policy once, the
		// way a wrapped process subscribing with -policy-from does.
		doc, err := collect.FetchPolicy(c, "perfbench-"+strconv.Itoa(i), 0)
		if err != nil || doc == nil || doc.Revision != fleetPolicyRev {
			f.close()
			return nil, fmt.Errorf("fleet-ingest: initial policy fetch: doc=%v err=%v", doc != nil, err)
		}
	}
	return f, nil
}

// renderPool runs the seed's profiled applications and renders their
// profile documents: half stress runs with seed-drawn iteration counts,
// half textutil runs over seed-drawn text.
func renderPool(seed uint64) ([][]byte, map[string]uint64, error) {
	tk, err := core.NewToolkit()
	if err != nil {
		return nil, nil, err
	}
	if err := tk.InstallSampleApps(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x666c656574706f6f))
	want := make(map[string]uint64)
	pool := make([][]byte, 0, fleetBatch)
	for i := 0; i < fleetBatch; i++ {
		var res *core.RunResult
		if i%2 == 0 {
			res, err = tk.RunProfiled(victim.StressName, "", strconv.Itoa(50+rng.IntN(250)))
		} else {
			text := textutilInput(rng.Uint64())
			res, err = tk.RunProfiled(victim.TextutilName, text)
		}
		if err != nil {
			return nil, nil, err
		}
		if res.Proc.Crashed() || res.Proc.Status != 0 {
			return nil, nil, fmt.Errorf("fleet-ingest: profiled run ended with %s", res.Proc)
		}
		doc, err := xmlrep.Marshal(res.Profile)
		if err != nil {
			return nil, nil, err
		}
		for _, fp := range res.Profile.Funcs {
			want[fp.Name] += fp.Calls
		}
		pool = append(pool, doc)
	}
	return pool, want, nil
}

// op uploads one batch and polls. The untimed warm-up operation (i < 0)
// first fills the server to its retention budget, so that every timed
// batch runs in the steady state of a long-running collector: each one
// evicts as many old documents as it adds, and the retained heap no
// longer grows.
func (f *fleetIngest) op(worker, i int, traced bool) (int, time.Duration, error) {
	if i < 0 {
		if err := f.fill(worker); err != nil {
			return 0, 0, err
		}
	}
	return f.batch(worker, traced, true)
}

// fill uploads batches, without aggregate reads, until the server
// evicts documents. Both workers fill at once.
func (f *fleetIngest) fill(worker int) error {
	limit := 2 * collect.DefaultMaxDocs / fleetBatch
	for n := 0; f.srv.Stats().DocsEvicted == 0; n++ {
		if n == limit {
			return fmt.Errorf("fleet-ingest: no document evicted after %d batches", n)
		}
		if _, _, err := f.batch(worker, false, false); err != nil {
			return err
		}
	}
	return nil
}

// batch uploads the pool on the worker's connection and ends it with a
// policy poll. If scrapes is set, every fleetScrapeEvery-th batch of
// worker 0 is followed by a read of the aggregate.
func (f *fleetIngest) batch(worker int, traced, scrapes bool) (int, time.Duration, error) {
	c := f.clients[worker]
	var sends []float64
	t0 := time.Now()
	for _, doc := range f.pool {
		ts := time.Now()
		if err := c.SendRaw(doc); err != nil {
			return 0, time.Since(t0), err
		}
		if traced {
			sends = append(sends, float64(time.Since(ts))/1e3)
		}
	}
	tb := time.Now()
	doc, err := collect.FetchPolicy(c, "perfbench-"+strconv.Itoa(worker), fleetPolicyRev)
	dur := time.Since(t0)
	barrier := time.Since(tb)
	if err != nil {
		return 0, dur, err
	}
	if doc != nil {
		return 0, dur, fmt.Errorf("fleet-ingest: poll at the current revision returned a policy document")
	}
	f.mu.Lock()
	f.batches++
	batches := f.batches
	scrape := scrapes && worker == 0 && batches%fleetScrapeEvery == 0
	if traced {
		for _, s := range sends {
			f.probes.add("collect.send_us_per_doc", s)
		}
		f.probes.add("collect.barrier_us", float64(barrier)/1e3)
	}
	f.mu.Unlock()
	if scrape {
		// A /metrics scrape reads the aggregate beside the ingest.
		ta := time.Now()
		agg := f.srv.Aggregate()
		d := time.Since(ta)
		if len(agg.Funcs) == 0 {
			return 0, dur, fmt.Errorf("fleet-ingest: empty aggregate after %d batches", batches)
		}
		if f.tracing {
			f.mu.Lock()
			f.probes.add("collect.aggregate_us", float64(d)/1e3)
			f.mu.Unlock()
		}
	}
	return fleetBatch, dur, nil
}

func (f *fleetIngest) finish() (map[string]float64, error) {
	st := f.srv.Stats()
	sent := uint64(f.batches * fleetBatch)
	if st.DocsReceived != sent || st.DocsRejected != 0 || st.FramesRejected != 0 {
		return nil, fmt.Errorf("fleet-ingest: sent %d documents, server received %d, rejected %d documents and %d frames",
			sent, st.DocsReceived, st.DocsRejected, st.FramesRejected)
	}
	agg := f.srv.Aggregate()
	for fn, calls := range f.want {
		if got := agg.Funcs[fn]; calls > 0 && (got == nil || got.Calls != calls*uint64(f.batches)) {
			return nil, fmt.Errorf("fleet-ingest: aggregate of %s differs from the uploaded documents' sum", fn)
		}
	}
	if !f.tracing {
		return nil, nil
	}
	for i := 0; i < 5; i++ {
		for _, doc := range f.pool {
			t0 := time.Now()
			if _, err := xmlrep.Kind(doc); err != nil {
				return nil, err
			}
			if _, err := xmlrep.Unmarshal[xmlrep.ProfileLog](doc); err != nil {
				return nil, err
			}
			f.probes.add("xmlrep.parse_us_per_doc", float64(time.Since(t0))/1e3)
		}
	}
	cs := f.cp.Stats()
	out, err := f.probes.result()
	if err != nil {
		return nil, err
	}
	out["collect.accept_ratio"] = float64(st.DocsReceived) / float64(sent)
	out["collect.docs_rejected"] = float64(st.DocsRejected)
	out["collect.frames_rejected"] = float64(st.FramesRejected)
	out["collect.docs_evicted"] = float64(st.DocsEvicted)
	out["collect.policy_not_modified_ratio"] = float64(cs.NotModified) / float64(cs.NotModified+cs.Served)
	return out, nil
}

func (f *fleetIngest) close() {
	for _, c := range f.clients {
		if c != nil {
			c.Close()
		}
	}
	f.srv.Close()
}
