package webui

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"healers/internal/collect"
	"healers/internal/core"
	"healers/internal/victim"
	"healers/internal/xmlrep"
)

func testServer(t *testing.T, col *collect.Server) *httptest.Server {
	t.Helper()
	tk, err := core.NewToolkit()
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.InstallSampleApps(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(tk, col).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string, wantStatus int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestIndexListsSystem(t *testing.T) {
	ts := testServer(t, nil)
	body := get(t, ts.URL+"/", http.StatusOK)
	for _, want := range []string{"libc.so.6", "libm.so.6", "rootd", "calc", "declarations.xml"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
	get(t, ts.URL+"/nonexistent", http.StatusNotFound)
}

func TestLibraryPages(t *testing.T) {
	ts := testServer(t, nil)
	body := get(t, ts.URL+"/library?name=libc.so.6", http.StatusOK)
	if !strings.Contains(body, "char* strcpy(char* dest, const char* src)") {
		t.Errorf("library page missing strcpy prototype:\n%.300s", body)
	}
	xml := get(t, ts.URL+"/library.xml?name=libc.so.6", http.StatusOK)
	if !strings.Contains(xml, "<healers-declarations") || !strings.Contains(xml, `name="strcpy"`) {
		t.Error("declaration XML malformed")
	}
	get(t, ts.URL+"/library?name=nope.so", http.StatusNotFound)
	get(t, ts.URL+"/library.xml?name=nope.so", http.StatusNotFound)
}

func TestAppPage(t *testing.T) {
	ts := testServer(t, nil)
	body := get(t, ts.URL+"/app?name=rootd", http.StatusOK)
	for _, want := range []string{"libc.so.6", "memcpy", "system"} {
		if !strings.Contains(body, want) {
			t.Errorf("app page missing %q", want)
		}
	}
	// The two-library app links both.
	body = get(t, ts.URL+"/app?name=calc", http.StatusOK)
	if !strings.Contains(body, "libm.so.6") {
		t.Error("calc page missing libm")
	}
	get(t, ts.URL+"/app?name=nope", http.StatusNotFound)
}

func TestProfilesPage(t *testing.T) {
	col, err := collect.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	ts := testServer(t, col)

	// Empty first.
	body := get(t, ts.URL+"/profiles", http.StatusOK)
	if !strings.Contains(body, "no profiles received yet") {
		t.Error("empty profiles page wrong")
	}

	// Run a profiled app that uploads on exit, then the page shows it.
	tk, err := core.NewToolkit()
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.InstallSampleApps(); err != nil {
		t.Fatal(err)
	}
	rr, err := tk.RunProfiled(victim.TextutilName, "words for the web\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := collect.Upload(col.Addr(), rr.Profile); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for col.Count() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	body = get(t, ts.URL+"/profiles", http.StatusOK)
	for _, want := range []string{"textutil", "strtok", "div style",
		"ingest counters", "documents received", "aggregate call counts", "kind profile"} {
		if !strings.Contains(body, want) {
			t.Errorf("profiles page missing %q", want)
		}
	}
	// The index links the collection server with its ingest counts.
	body = get(t, ts.URL+"/", http.StatusOK)
	if !strings.Contains(body, "1 documents received") {
		t.Errorf("index missing collection stats:\n%.300s", body)
	}
}

// TestProfilesPageShowsNewest checks that the profiles page renders only
// the newest profilesShown documents and says how many it left out.
func TestProfilesPageShowsNewest(t *testing.T) {
	col, err := collect.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	ts := testServer(t, col)
	c, err := collect.Dial(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const sent = profilesShown + 3
	for i := range sent {
		if err := c.Send(&xmlrep.ProfileLog{Host: "h", App: fmt.Sprintf("app-%03d", i), Wrapper: "w"}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for col.Count() < sent && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	body := get(t, ts.URL+"/profiles", http.StatusOK)
	if n := strings.Count(body, "<h2>app-"); n != profilesShown {
		t.Errorf("page renders %d profiles, want %d", n, profilesShown)
	}
	if strings.Contains(body, "app-002 ") || !strings.Contains(body, "app-003 ") || !strings.Contains(body, fmt.Sprintf("app-%03d ", sent-1)) {
		t.Error("page does not render the newest profiles")
	}
	if !strings.Contains(body, "3 older ones are left out") {
		t.Error("page does not say how many profiles it left out")
	}
}

func TestProfilesWithoutCollector(t *testing.T) {
	ts := testServer(t, nil)
	get(t, ts.URL+"/profiles", http.StatusNotFound)
}

func TestStartAndClose(t *testing.T) {
	tk, err := core.NewToolkit()
	if err != nil {
		t.Fatal(err)
	}
	s := New(tk, nil)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	body := get(t, "http://"+s.Addr()+"/", http.StatusOK)
	if !strings.Contains(body, "libraries") {
		t.Error("served index malformed")
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
