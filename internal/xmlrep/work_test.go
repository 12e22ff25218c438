package xmlrep

import (
	"strings"
	"testing"
)

// TestWorkDocRoundTrips: every distributed-campaign document survives a
// marshal/unmarshal round trip and sniffs to its own kind.
func TestWorkDocRoundTrips(t *testing.T) {
	lease := &WorkLease{
		Shard: 2, Attempt: 3, Library: "libc.so.6", Stdin: "seed",
		Preloads: []string{"libhealers_rob.so"}, Config: "cafe0123",
		Hierarchy: "v1", LeaseMS: 30000, RetryMS: 250,
		Funcs: []string{"memcpy", "strlen"},
	}
	Seal(lease)
	res := &WorkResult{
		Worker: "w1", Shard: 2, Attempt: 3, Config: "cafe0123",
		Funcs: []WorkFuncXML{{
			CacheFuncXML: CacheFuncXML{Name: "strlen", Key: "k1", Config: "cafe0123", Probes: 5, Failures: 2},
			WallNS:       12345,
		}},
	}
	Seal(res)
	for _, tc := range []struct {
		doc  any
		kind DocKind
	}{
		{&WorkRequest{Worker: "w1", Hierarchy: "v1"}, KindWorkRequest},
		{lease, KindWorkLease},
		{res, KindWorkResult},
		{&Heartbeat{Worker: "w1", Shard: 2, Attempt: 3, DoneFuncs: 4}, KindHeartbeat},
		{&WorkAck{OK: true, Accepted: 1}, KindWorkAck},
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

	data, err := Marshal(lease)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal[WorkLease](data)
	if err != nil {
		t.Fatal(err)
	}
	if Verify(back) != nil {
		t.Error("lease checksum does not survive the round trip")
	}
	if strings.Join(back.Funcs, ",") != "memcpy,strlen" || back.Stdin != "seed" || back.LeaseMS != 30000 {
		t.Errorf("lease fields lost in round trip: %+v", back)
	}

	rdata, err := Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	rback, err := Unmarshal[WorkResult](rdata)
	if err != nil {
		t.Fatal(err)
	}
	if Verify(rback) != nil {
		t.Error("result checksum does not survive the round trip")
	}
	if len(rback.Funcs) != 1 || rback.Funcs[0].WallNS != 12345 || rback.Funcs[0].Probes != 5 {
		t.Errorf("result entry lost in round trip: %+v", rback.Funcs)
	}
}

// TestWorkChecksumDetectsTamper: mutating any covered field invalidates
// the stored checksum.
func TestWorkChecksumDetectsTamper(t *testing.T) {
	lease := &WorkLease{Shard: 1, Funcs: []string{"memcpy"}}
	Seal(lease)
	lease.Funcs[0] = "system"
	if Verify(lease) == nil {
		t.Error("function-list tamper not reflected in the lease checksum")
	}

	res := &WorkResult{Worker: "w", Funcs: []WorkFuncXML{{CacheFuncXML: CacheFuncXML{Name: "f", Probes: 3}}}}
	Seal(res)
	res.Funcs[0].Probes = 4
	if Verify(res) == nil {
		t.Error("probe-count tamper not reflected in the result checksum")
	}
}
