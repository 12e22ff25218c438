package xmlrep

import (
	"strings"
	"testing"
)

func sampleCacheDoc() *CampaignCacheDoc {
	return &CampaignCacheDoc{
		Hierarchy: "abcdef0123456789",
		Funcs: []CacheFuncXML{
			{
				Name: "strcpy", Key: "k1", Config: "c1", Probes: 2, Failures: 1,
				NeedsContainment: true,
				Params: []RobustParamXML{
					{Name: "dest", Chain: "out_buf", Level: "uncontainable"},
					{Name: "src", Chain: "in_str", Level: "cstring"},
				},
				Results: []CacheProbeXML{
					{Param: 0, Probe: "null", Sat: 0, Outcome: "crash",
						FaultKind: 2, FaultAddr: 0x1000, FaultOp: "write", FaultDetail: "unmapped"},
					{Param: 1, Probe: "golden", Sat: 3, Outcome: "ok"},
				},
			},
		},
	}
}

// TestCampaignCacheRoundTrip: the document marshals, sniffs as its kind,
// and unmarshals with the checksum still verifying.
func TestCampaignCacheRoundTrip(t *testing.T) {
	doc := sampleCacheDoc()
	Seal(doc)
	data, err := Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	kind, err := Kind(data)
	if err != nil || kind != KindCampaignCache {
		t.Fatalf("Kind = %v, %v; want %v", kind, err, KindCampaignCache)
	}
	back, err := Unmarshal[CampaignCacheDoc](data)
	if err != nil {
		t.Fatal(err)
	}
	if Checksum(back) != back.Checksum {
		t.Error("checksum does not verify after round trip")
	}
	if len(back.Funcs) != 1 || back.Funcs[0].Name != "strcpy" ||
		len(back.Funcs[0].Results) != 2 || back.Funcs[0].Results[0].FaultAddr != 0x1000 {
		t.Errorf("round-tripped doc lost content: %+v", back.Funcs)
	}
}

// TestCampaignCacheChecksumSemantics: the checksum must ignore the
// Generated timestamp but change with any semantic entry field.
func TestCampaignCacheChecksumSemantics(t *testing.T) {
	doc := sampleCacheDoc()
	base := Checksum(doc)

	doc.Generated = "2026-08-06T00:00:00Z"
	if Checksum(doc) != base {
		t.Error("checksum depends on the Generated timestamp")
	}
	doc.Checksum = base
	if Checksum(doc) != base {
		t.Error("checksum depends on the stored checksum itself")
	}

	doc.Funcs[0].Results[1].Outcome = "crash"
	if Checksum(doc) == base {
		t.Error("checksum missed an outcome change")
	}
	doc.Funcs[0].Results[1].Outcome = "ok"
	doc.Funcs[0].Params[1].Level = "any"
	if Checksum(doc) == base {
		t.Error("checksum missed a level change")
	}
}

// TestRobustFuncFailuresAttr: the optional failures attribute survives a
// round trip and is omitted when zero (so plain robust-API documents are
// unchanged).
func TestRobustFuncFailuresAttr(t *testing.T) {
	doc := &RobustAPIDoc{Library: "libx.so", Funcs: []RobustFuncXML{
		{Name: "f", Failures: 3},
		{Name: "g"},
	}}
	data, err := Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `failures="3"`) {
		t.Error("failures attribute not marshalled")
	}
	if strings.Contains(string(data), `failures="0"`) {
		t.Error("zero failures attribute should be omitted")
	}
	back, err := Unmarshal[RobustAPIDoc](data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Funcs[0].Failures != 3 || back.Funcs[1].Failures != 0 {
		t.Errorf("failures round trip: %+v", back.Funcs)
	}
}
