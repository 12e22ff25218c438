package xmlrep

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"healers/internal/cheader"
	"healers/internal/ctypes"
	"healers/internal/cval"
	"healers/internal/gen"
)

func fixedNow(t *testing.T) {
	t.Helper()
	old := now
	now = func() time.Time { return time.Date(2003, 6, 22, 12, 0, 0, 0, time.UTC) }
	t.Cleanup(func() { now = old })
}

func TestDeclarationsRoundTrip(t *testing.T) {
	fixedNow(t)
	strcpy, err := cheader.ParsePrototype("char *strcpy(char *dest, const char *src); // @dest out_buf src=src nul @src in_str")
	if err != nil {
		t.Fatal(err)
	}
	strcpy.Header = "string.h"
	randp, err := cheader.ParsePrototype("int rand(void);")
	if err != nil {
		t.Fatal(err)
	}
	doc := NewDeclarations("libc.so.6", []*ctypes.Prototype{strcpy, randp})
	data, err := Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`<healers-declarations library="libc.so.6"`,
		`<function name="strcpy" returns="char*" header="string.h">`,
		`<param name="dest" type="char*" role="out_buf">`,
		`<param name="src" type="const char*" role="in_str">`,
		`<function name="rand" returns="int">`,
		`generated="2003-06-22T12:00:00Z"`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("declaration XML missing %q:\n%s", want, data)
		}
	}
	back, err := Unmarshal[Declarations](data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Library != "libc.so.6" || len(back.Funcs) != 2 {
		t.Errorf("round trip = %+v", back)
	}
	if back.Funcs[0].Params[1].Role != "in_str" {
		t.Errorf("src role = %q", back.Funcs[0].Params[1].Role)
	}
	kind, err := Kind(data)
	if err != nil || kind != KindDeclarations {
		t.Errorf("Kind = %v, %v", kind, err)
	}
}

// checkSpare fails when Marshal's result keeps more spare capacity than
// a copy of it would: callers may keep rendered documents.
func checkSpare(t *testing.T, data []byte) {
	t.Helper()
	if c := cap(append([]byte(nil), data...)); cap(data) > max(c, len(data)+len(data)/8) {
		t.Errorf("a %d-byte document keeps capacity %d; a copy keeps %d", len(data), cap(data), c)
	}
}

func TestRobustAPIRoundTrip(t *testing.T) {
	fixedNow(t)
	api := ctypes.RobustAPI{
		"strcpy": {
			{Name: "dest", Chain: "out_buf", Level: 3, LevelName: "writable_sized"},
			{Name: "src", Chain: "in_str", Level: 3, LevelName: "cstring"},
		},
		"sprintf": {
			{Name: "str", Chain: "out_buf", Level: 4, LevelName: "uncontainable"},
			{Name: "format", Chain: "fmt", Level: 3, LevelName: "fmt_no_percent_n"},
		},
	}
	doc := NewRobustAPIDoc("libc.so.6", api)
	data, err := Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	checkSpare(t, data)
	if kind, _ := Kind(data); kind != KindRobustAPI {
		t.Errorf("Kind = %v", kind)
	}
	back, err := Unmarshal[RobustAPIDoc](data)
	if err != nil {
		t.Fatal(err)
	}
	api2, err := back.API()
	if err != nil {
		t.Fatalf("API(): %v", err)
	}
	if len(api2) != 2 {
		t.Fatalf("api funcs = %v", api2.Funcs())
	}
	d := api2["strcpy"][0]
	if d.Chain != "out_buf" || d.Level != 3 || d.LevelName != "writable_sized" {
		t.Errorf("strcpy dest = %+v", d)
	}
	u := api2["sprintf"][0]
	if u.LevelName != "uncontainable" || u.Level != len(ctypes.ChainOutBuf.Levels) {
		t.Errorf("sprintf str = %+v", u)
	}
}

func TestRobustAPIBadDoc(t *testing.T) {
	bad := &RobustAPIDoc{Funcs: []RobustFuncXML{{Name: "f", Params: []RobustParamXML{{Chain: "nope", Level: "any"}}}}}
	if _, err := bad.API(); err == nil {
		t.Error("unknown chain accepted")
	}
	bad = &RobustAPIDoc{Funcs: []RobustFuncXML{{Name: "f", Params: []RobustParamXML{{Chain: "in_str", Level: "nope"}}}}}
	if _, err := bad.API(); err == nil {
		t.Error("unknown level accepted")
	}
}

func TestProfileLog(t *testing.T) {
	fixedNow(t)
	st := gen.NewState("libhealers_prof.so")
	i := st.Index("strlen")
	st.Funcs[i].Calls = 42
	st.Funcs[i].ExecNS = 1500
	st.FuncErrno[i][cval.EINVAL] = 3
	st.GlobalErrno[cval.EINVAL] = 3
	st.GlobalErrno[cval.MaxErrno] = 1
	st.Overflows = 2

	log := NewProfileLog("node1", "textutil", st)
	data, err := Marshal(log)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`host="node1"`, `app="textutil"`, `wrapper="libhealers_prof.so"`,
		`<function name="strlen" calls="42" exec_ns="1500">`,
		`<error errno="EINVAL" count="3">`,
		`<global-error errno="EINVAL" count="3">`,
		`<global-error errno="OTHER" count="1">`,
		`overflows="2"`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("profile XML missing %q:\n%s", want, data)
		}
	}
	back, err := Unmarshal[ProfileLog](data)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalCalls() != 42 {
		t.Errorf("TotalCalls = %d", back.TotalCalls())
	}
	if kind, _ := Kind(data); kind != KindProfile {
		t.Errorf("Kind = %v", kind)
	}
}

func TestKindErrors(t *testing.T) {
	if _, err := Kind([]byte("<unknown-root/>")); err == nil {
		t.Error("unknown root accepted")
	}
	if _, err := Kind([]byte("not xml at all")); err == nil {
		t.Error("non-XML accepted")
	}
}

// checksummed maps every checksummed document kind to a constructor of
// its document type.
var checksummed = map[DocKind]func() any{
	KindCampaignCache:  func() any { return new(CampaignCacheDoc) },
	KindSequenceReport: func() any { return new(SequenceReportDoc) },
	KindPolicy:         func() any { return new(PolicyDoc) },
	KindWorkLease:      func() any { return new(WorkLease) },
	KindWorkResult:     func() any { return new(WorkResult) },
	KindRegistryGet:    func() any { return new(RegistryGet) },
	KindRegistryAnswer: func() any { return new(RegistryAnswer) },
	KindRegistryPut:    func() any { return new(RegistryPut) },
}

// checksumSamples returns one unsealed document of every checksummed kind,
// with every slice non-empty so every nested field is present.
func checksumSamples() map[DocKind]any {
	entry := sampleCacheDoc().Funcs[0]
	return map[DocKind]any{
		KindCampaignCache: sampleCacheDoc(),
		KindSequenceReport: &SequenceReportDoc{
			Scenario: "textutil-words", App: "textutil", Calls: 9, GoldenDigest: "abc123",
			Runs: []SeqRunXML{{
				Steps:   []SeqStepXML{{Call: 3, Class: "crash", Func: "strdup"}},
				Outcome: "crash", Exit: 139, Diverged: true,
				FaultKind: 2, FaultOp: "write", FaultDetail: "unmapped",
			}},
		},
		KindPolicy: &PolicyDoc{
			Revision: 2, BreakerThreshold: 3, BreakerWindowMS: 1000,
			Rules: []PolicyRuleXML{{
				Func: "strcpy", Class: "crash", Action: "retry",
				Retries: 2, BackoffMS: 5, Value: -1, BreakerThreshold: 1,
			}},
		},
		KindWorkLease: &WorkLease{
			Shard: 2, Attempt: 3, Library: "libc.so.6", Stdin: "seed",
			Preloads: []string{"libhealers_rob.so"}, Config: "cafe0123",
			Hierarchy: "v1", LeaseMS: 30000, RetryMS: 250,
			Funcs: []string{"memcpy", "strlen"},
		},
		KindWorkResult: &WorkResult{
			Worker: "w1", Shard: 2, Attempt: 3, Config: "cafe0123",
			Funcs: []WorkFuncXML{{CacheFuncXML: entry, WallNS: 12345}},
		},
		KindRegistryGet: &RegistryGet{Client: "runner-1", Keys: []string{"k1", "k2"}},
		KindRegistryAnswer: &RegistryAnswer{
			Funcs: []RegistryEntryXML{{CacheFuncXML: entry, Sum: Checksum(&entry)}},
			Found: []string{"k1"}, Missing: []string{"k2"},
		},
		KindRegistryPut: &RegistryPut{Client: "runner-1", Hierarchy: "v1", Funcs: []CacheFuncXML{entry}},
	}
}

// leaves calls visit on every scalar field reachable from v through
// struct fields and slice elements, skipping XMLName and the envelope's
// own Checksum and Generated fields. An empty slice is reported as an
// error: the sample would leave its element fields untested.
func leaves(t *testing.T, v reflect.Value, path string, visit func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			switch name := v.Type().Field(i).Name; name {
			case "XMLName", "Checksum", "Generated":
			default:
				leaves(t, v.Field(i), path+"."+name, visit)
			}
		}
	case reflect.Slice:
		if v.Len() == 0 {
			t.Errorf("%s: empty slice in the sample", path)
		}
		for i := 0; i < v.Len(); i++ {
			leaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	default:
		visit(path, v)
	}
}

// TestEnvelopeCoversEveryField is the envelope table: for every
// checksummed kind, changing any single serialized field makes Verify
// fail, while changing only the Generated timestamp leaves it passing.
func TestEnvelopeCoversEveryField(t *testing.T) {
	samples := checksumSamples()
	if len(samples) != len(checksummed) {
		t.Fatalf("%d samples for %d checksummed kinds", len(samples), len(checksummed))
	}
	for kind, doc := range samples {
		t.Run(string(kind), func(t *testing.T) {
			if err := Verify(doc); err == nil {
				t.Fatal("an unsealed document verified")
			}
			Seal(doc)
			if err := Verify(doc); err != nil {
				t.Fatalf("freshly sealed document: %v", err)
			}
			if g := reflect.ValueOf(doc).Elem().FieldByName("Generated"); g.IsValid() {
				g.SetString("2026-08-06T00:00:00Z")
				if err := Verify(doc); err != nil {
					t.Errorf("Generated is covered by the checksum: %v", err)
				}
			}
			n := 0
			leaves(t, reflect.ValueOf(doc).Elem(), string(kind), func(path string, f reflect.Value) {
				n++
				old := reflect.New(f.Type()).Elem()
				old.Set(f)
				switch f.Kind() {
				case reflect.String:
					f.SetString(f.String() + "x")
				case reflect.Bool:
					f.SetBool(!f.Bool())
				case reflect.Int, reflect.Int32, reflect.Int64:
					f.SetInt(f.Int() + 1)
				case reflect.Uint32, reflect.Uint64:
					f.SetUint(f.Uint() + 1)
				default:
					t.Fatalf("%s: unhandled field kind %s", path, f.Kind())
				}
				if Verify(doc) == nil {
					t.Errorf("%s: changed field still verifies", path)
				}
				f.Set(old)
			})
			if err := Verify(doc); err != nil || n == 0 {
				t.Errorf("after %d restored mutations: %v", n, err)
			}
		})
	}
}

// TestChecksumFieldBoundaries: values that only differ in where one
// field ends and the next begins must not collide — the failure of a
// separator-joined field encoding.
func TestChecksumFieldBoundaries(t *testing.T) {
	fault := func(op, detail string) *CampaignCacheDoc {
		doc := sampleCacheDoc()
		doc.Funcs[0].Results[0].FaultOp, doc.Funcs[0].Results[0].FaultDetail = op, detail
		return doc
	}
	for _, tc := range []struct {
		name string
		a, b any
	}{
		{"lease preloads", &WorkLease{Preloads: []string{"a,b"}}, &WorkLease{Preloads: []string{"a", "b"}}},
		{"fault op/detail", fault("x/y", "z"), fault("x", "y/z")},
		{"registry keys", &RegistryGet{Keys: []string{"a,b"}}, &RegistryGet{Keys: []string{"a", "b"}}},
	} {
		if Checksum(tc.a) == Checksum(tc.b) {
			t.Errorf("%s: distinct documents share a checksum", tc.name)
		}
	}
}

// TestWriteFileAtomic: the writer replaces the target with the given
// mode, and a failed replacement leaves the target untouched and no
// temporary file behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	for _, content := range []string{"first", "second"} {
		if err := WriteFileAtomic(path, []byte(content), 0o640); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Errorf("file holds %q, want %q", got, content)
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o640 {
		t.Errorf("stat = %v, %v; want mode 0640", fi, err)
	}
	// A directory in the target's place makes the rename fail.
	blocked := filepath.Join(dir, "blocked")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(blocked, "keep"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(blocked, []byte("x"), 0o644); err == nil {
		t.Fatal("replacing a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"blocked", "doc.xml"}; !reflect.DeepEqual(names, want) {
		t.Errorf("directory holds %v after a failed write, want %v", names, want)
	}
}
