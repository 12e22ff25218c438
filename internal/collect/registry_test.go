package collect

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"healers/internal/xmlrep"
)

// regFunc builds a distinct cache entry keyed by i, padded so byte
// budgets have something to measure.
func regFunc(i int) *xmlrep.CacheFuncXML {
	return &xmlrep.CacheFuncXML{
		Name:   fmt.Sprintf("func_%03d", i),
		Key:    fmt.Sprintf("%064d", i),
		Config: "cafe0123",
		Probes: 4, Failures: 1,
		Results: []xmlrep.CacheProbeXML{
			{Probe: "null", Param: 0, Outcome: "abort"},
			{Probe: "unaligned", Param: 1, Outcome: "ok"},
		},
	}
}

func TestRegistryPutGetRoundTrip(t *testing.T) {
	r, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fn := regFunc(1)
	stored, err := r.Put("v1", fn)
	if err != nil || !stored {
		t.Fatalf("Put = %v, %v; want stored", stored, err)
	}
	// Second put of the same key: known, not stored.
	if stored, err = r.Put("v1", fn); err != nil || stored {
		t.Fatalf("duplicate Put = %v, %v; want known", stored, err)
	}
	ans := r.Get([]string{fn.Key, "absent"}, false)
	if len(ans.Funcs) != 1 || ans.Funcs[0].Name != "func_001" {
		t.Fatalf("Get entries = %+v", ans.Funcs)
	}
	if ans.Funcs[0].Sum != xmlrep.Checksum(&ans.Funcs[0].CacheFuncXML) {
		t.Error("served entry's integrity sum does not match its content")
	}
	if strings.Join(ans.Found, ",") != fn.Key || strings.Join(ans.Missing, ",") != "absent" {
		t.Errorf("Found/Missing = %v / %v", ans.Found, ans.Missing)
	}
	// Presence probe: keys only, no bodies.
	has := r.Get([]string{fn.Key}, true)
	if len(has.Funcs) != 0 || len(has.Found) != 1 {
		t.Errorf("has-only answer carried bodies: %+v", has)
	}
	st := r.Stats()
	if st.Entries != 1 || st.Puts != 1 || st.Known != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRegistryPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Put("v1", regFunc(i)); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	ans := r2.Get([]string{regFunc(1).Key}, false)
	if len(ans.Funcs) != 1 || ans.Funcs[0].Probes != 4 {
		t.Fatalf("reopened registry lost entries: %+v", ans)
	}
	if st := r2.Stats(); st.Entries != 3 || st.Corrupt != 0 {
		t.Errorf("reopened stats = %+v", st)
	}
}

func TestRegistryDiscardsCorruptFilesAtLoad(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := regFunc(1), regFunc(2)
	if _, err := r.Put("v1", good); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("v1", bad); err != nil {
		t.Fatal(err)
	}
	// Corrupt bad's file: flip its content without restamping.
	path := filepath.Join(dir, bad.Key+".xml")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), `probes="4"`, `probes="9"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	// And drop a file that is not XML at all.
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("f", 64)+".xml"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := NewRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := r2.Stats()
	if st.Entries != 1 || st.Corrupt != 2 {
		t.Fatalf("stats after corrupt load = %+v; want 1 entry, 2 corrupt", st)
	}
	ans := r2.Get([]string{good.Key, bad.Key}, false)
	if len(ans.Funcs) != 1 || ans.Funcs[0].Key != good.Key {
		t.Fatalf("corrupted entry served: %+v", ans.Funcs)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupted file left on disk")
	}
}

func TestRegistryEvictionByDocBudget(t *testing.T) {
	r, err := NewRegistry(t.TempDir(), WithRegistryMaxDocs(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := r.Put("v1", regFunc(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Entries != 3 || st.Evicted != 2 {
		t.Fatalf("stats = %+v; want 3 entries, 2 evicted", st)
	}
	// Oldest first: 0 and 1 gone, 2..4 present — on disk too.
	ans := r.Get([]string{regFunc(0).Key, regFunc(4).Key}, true)
	if strings.Join(ans.Found, ",") != regFunc(4).Key || len(ans.Missing) != 1 {
		t.Errorf("eviction order wrong: %+v", ans)
	}
	if _, err := os.Stat(filepath.Join(r.dir, regFunc(0).Key+".xml")); !os.IsNotExist(err) {
		t.Error("evicted entry's file left on disk")
	}
}

func TestRegistryEvictionByByteBudget(t *testing.T) {
	// Learn one entry's on-disk size, then budget for about two.
	probe, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Put("v1", regFunc(0)); err != nil {
		t.Fatal(err)
	}
	one := probe.Stats().Bytes

	r, err := NewRegistry(t.TempDir(), WithRegistryMaxBytes(2*one+one/2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := r.Put("v1", regFunc(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Entries != 2 || st.Evicted != 2 || st.Bytes > 2*one+one/2 {
		t.Fatalf("stats = %+v; want 2 entries under the byte budget", st)
	}
}

// TestRegistryConcurrentGetPut hammers one key from writers and readers
// at once; run under -race this is the data-race check, and the final
// state must be exactly one stored entry.
func TestRegistryConcurrentGetPut(t *testing.T) {
	r, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fn := regFunc(7)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				f := *fn
				if _, err := r.Put("v1", &f); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				ans := r.Get([]string{fn.Key}, false)
				for k := range ans.Funcs {
					if ans.Funcs[k].Sum != xmlrep.Checksum(&ans.Funcs[k].CacheFuncXML) {
						t.Error("served entry failed its integrity sum under concurrency")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	st := r.Stats()
	if st.Entries != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v; want exactly one stored entry", st)
	}
}

// TestRegistryWireExchanges runs get/put over a real server with the
// registry handler installed, including refusal of a corrupted put frame.
func TestRegistryWireExchanges(t *testing.T) {
	r, err := NewRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", WithHandler(r.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr())
	defer c.Close()

	fn := regFunc(3)
	ack, err := RegistryPush(c, "t", "v1", []xmlrep.CacheFuncXML{*fn})
	if err != nil || !ack.OK || ack.Stored != 1 {
		t.Fatalf("push ack = %+v, %v", ack, err)
	}
	// Replay: all known.
	ack, err = RegistryPush(c, "t", "v1", []xmlrep.CacheFuncXML{*fn})
	if err != nil || !ack.OK || ack.Stored != 0 || ack.Known != 1 {
		t.Fatalf("replay ack = %+v, %v", ack, err)
	}

	ans, err := RegistryFetch(c, "t", []string{fn.Key, "absent"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Funcs) != 1 || ans.Funcs[0].Key != fn.Key || len(ans.Missing) != 1 {
		t.Fatalf("fetch answer = %+v", ans)
	}

	// A put whose checksum does not verify must be refused whole.
	bad := &xmlrep.RegistryPut{Client: "t", Funcs: []xmlrep.CacheFuncXML{*regFunc(4)}}
	bad.Checksum = strings.Repeat("a", 64)
	resp, err := c.Call(bad)
	if err != nil {
		t.Fatal(err)
	}
	back, err := xmlrep.Unmarshal[xmlrep.RegistryAck](resp)
	if err != nil || back.OK {
		t.Fatalf("corrupted put not refused: %+v, %v", back, err)
	}
	if st := r.Stats(); st.Entries != 1 || st.Rejected != 1 {
		t.Errorf("stats = %+v", st)
	}

	// Non-registry traffic still passes through to the document store.
	if err := c.Send(&xmlrep.ProfileLog{Host: "h"}); err != nil {
		t.Fatal(err)
	}
}
