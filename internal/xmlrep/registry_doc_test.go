package xmlrep

import (
	"strings"
	"testing"
)

// TestRegistryDocRoundTrips: every registry document survives a
// marshal/unmarshal round trip and sniffs to its own kind.
func TestRegistryDocRoundTrips(t *testing.T) {
	get := &RegistryGet{Client: "runner-1", Keys: []string{"k1", "k2"}}
	Seal(get)
	entry := CacheFuncXML{
		Name: "strlen", Key: "k1", Config: "cafe0123", Probes: 5, Failures: 2,
		Results: []CacheProbeXML{{Probe: "null", Param: 0, Outcome: "abort", FaultKind: 2}},
	}
	ans := &RegistryAnswer{
		Funcs:   []RegistryEntryXML{{CacheFuncXML: entry, Sum: Checksum(&entry)}},
		Found:   []string{"k1"},
		Missing: []string{"k2"},
	}
	Seal(ans)
	put := &RegistryPut{Client: "runner-1", Hierarchy: "v1", Funcs: []CacheFuncXML{entry}}
	Seal(put)
	for _, tc := range []struct {
		doc  any
		kind DocKind
	}{
		{get, KindRegistryGet},
		{ans, KindRegistryAnswer},
		{put, KindRegistryPut},
		{&RegistryAck{OK: true, Stored: 1, Known: 2}, KindRegistryAck},
	} {
		data, err := Marshal(tc.doc)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", tc.kind, err)
		}
		kind, err := Kind(data)
		if err != nil || kind != tc.kind {
			t.Errorf("Kind = %q, %v; want %q", kind, err, tc.kind)
		}
	}

	data, err := Marshal(get)
	if err != nil {
		t.Fatal(err)
	}
	gback, err := Unmarshal[RegistryGet](data)
	if err != nil {
		t.Fatal(err)
	}
	if Verify(gback) != nil {
		t.Error("get checksum does not survive the round trip")
	}
	if strings.Join(gback.Keys, ",") != "k1,k2" || gback.Client != "runner-1" {
		t.Errorf("get fields lost in round trip: %+v", gback)
	}

	adata, err := Marshal(ans)
	if err != nil {
		t.Fatal(err)
	}
	aback, err := Unmarshal[RegistryAnswer](adata)
	if err != nil {
		t.Fatal(err)
	}
	if Verify(aback) != nil {
		t.Error("answer checksum does not survive the round trip")
	}
	if len(aback.Funcs) != 1 || aback.Funcs[0].Sum != Checksum(&entry) {
		t.Errorf("answer entry/sum lost in round trip: %+v", aback.Funcs)
	}
	if len(aback.Funcs[0].Results) != 1 || aback.Funcs[0].Results[0].Outcome != "abort" {
		t.Errorf("answer probe results lost in round trip: %+v", aback.Funcs)
	}
	if strings.Join(aback.Missing, ",") != "k2" {
		t.Errorf("answer Missing lost in round trip: %+v", aback.Missing)
	}

	pdata, err := Marshal(put)
	if err != nil {
		t.Fatal(err)
	}
	pback, err := Unmarshal[RegistryPut](pdata)
	if err != nil {
		t.Fatal(err)
	}
	if Verify(pback) != nil {
		t.Error("put checksum does not survive the round trip")
	}
	if pback.Hierarchy != "v1" || len(pback.Funcs) != 1 || pback.Funcs[0].Probes != 5 {
		t.Errorf("put fields lost in round trip: %+v", pback)
	}
}

// TestRegistryChecksumDetectsTamper: mutating any covered field
// invalidates the stored checksum, and mutating a served entry
// invalidates its per-entry sum even when the frame checksum is
// recomputed — the defense against corruption inside registry storage.
func TestRegistryChecksumDetectsTamper(t *testing.T) {
	get := &RegistryGet{Keys: []string{"k1"}}
	Seal(get)
	get.Keys[0] = "k2"
	if Verify(get) == nil {
		t.Error("get checksum missed a key mutation")
	}

	entry := CacheFuncXML{Name: "strlen", Key: "k1", Probes: 3}
	sum := Checksum(&entry)
	ans := &RegistryAnswer{Funcs: []RegistryEntryXML{{CacheFuncXML: entry, Sum: sum}}}
	Seal(ans)
	ans.Funcs[0].Failures = 99
	if Verify(ans) == nil {
		t.Error("answer checksum missed an entry mutation")
	}
	// Per-entry integrity: even inside a frame whose checksum was
	// recomputed after the corruption, the entry's own sum disagrees.
	Seal(ans)
	if Checksum(&ans.Funcs[0].CacheFuncXML) == sum {
		t.Error("per-entry checksum missed an entry mutation")
	}

	put := &RegistryPut{Funcs: []CacheFuncXML{{Name: "strlen", Probes: 3}}}
	Seal(put)
	put.Funcs[0].Probes = 4
	if Verify(put) == nil {
		t.Error("put checksum missed an entry mutation")
	}
}
