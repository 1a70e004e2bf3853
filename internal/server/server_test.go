package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mmvalue"
)

func newServer(t *testing.T) (*core.DB, *httptest.Server) {
	t.Helper()
	return newServerWith(t, core.Options{})
}

func newServerWith(t *testing.T, opts core.Options) (*core.DB, *httptest.Server) {
	t.Helper()
	db, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	err = db.Update(func(tx engine.Tx) error {
		return db.Docs.CreateCollection(tx, "products", catalog.Schemaless)
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	t.Cleanup(func() { ts.Close(); db.Close() })
	return db, ts
}

func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

func TestHealthz(t *testing.T) {
	_, ts := newServer(t)
	code, body := do(t, "GET", ts.URL+"/healthz", "")
	if code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz = %d %s", code, body)
	}
}

// TestHealthzSharded hits /healthz on a sharded database, where there is no
// single engine to ask for keyspaces: the handler must count them through
// the backend instead of panicking.
func TestHealthzSharded(t *testing.T) {
	db, ts := newServerWith(t, core.Options{Shards: 4})
	code, body := do(t, "GET", ts.URL+"/healthz", "")
	if code != 200 {
		t.Fatalf("healthz = %d %s", code, body)
	}
	var got struct {
		Status    string `json:"status"`
		Keyspaces int    `json:"keyspaces"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("healthz body %q: %v", body, err)
	}
	if want := len(db.Keyspaces()); got.Status != "ok" || want == 0 || got.Keyspaces != want {
		t.Fatalf("healthz = %+v, want status ok and %d keyspaces", got, want)
	}
}

func TestDocumentCRUD(t *testing.T) {
	_, ts := newServer(t)
	code, _ := do(t, "PUT", ts.URL+"/collections/products/p1", `{"name":"Toy","price":66}`)
	if code != 200 {
		t.Fatalf("PUT = %d", code)
	}
	code, body := do(t, "GET", ts.URL+"/collections/products/p1", "")
	if code != 200 || !strings.Contains(body, `"name":"Toy"`) {
		t.Fatalf("GET = %d %s", code, body)
	}
	code, _ = do(t, "DELETE", ts.URL+"/collections/products/p1", "")
	if code != 200 {
		t.Fatalf("DELETE = %d", code)
	}
	code, _ = do(t, "GET", ts.URL+"/collections/products/p1", "")
	if code != 404 {
		t.Fatalf("GET after delete = %d", code)
	}
	code, _ = do(t, "DELETE", ts.URL+"/collections/products/p1", "")
	if code != 404 {
		t.Fatalf("double DELETE = %d", code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newServer(t)
	do(t, "PUT", ts.URL+"/collections/products/p1", `{"name":"Toy","price":66}`)
	do(t, "PUT", ts.URL+"/collections/products/p2", `{"name":"Book","price":40}`)
	code, body := do(t, "POST", ts.URL+"/query",
		`{"query": "FOR p IN products FILTER p.price > @min RETURN p.name", "params": {"min": 50}}`)
	if code != 200 {
		t.Fatalf("query = %d %s", code, body)
	}
	var resp struct {
		Results []mmvalue.Value `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].AsString() != "Toy" {
		t.Fatalf("results = %v", resp.Results)
	}
}

func TestSQLEndpoint(t *testing.T) {
	_, ts := newServer(t)
	do(t, "PUT", ts.URL+"/collections/products/p1", `{"name":"Toy","price":66}`)
	code, body := do(t, "POST", ts.URL+"/sql",
		`{"query": "SELECT name FROM products p WHERE price = 66"}`)
	if code != 200 || !strings.Contains(body, `"name":"Toy"`) {
		t.Fatalf("sql = %d %s", code, body)
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := newServer(t)
	code, _ := do(t, "POST", ts.URL+"/query", `{"query": ""}`)
	if code != 400 {
		t.Fatalf("empty query = %d", code)
	}
	code, _ = do(t, "POST", ts.URL+"/query", `not json`)
	if code != 400 {
		t.Fatalf("bad json = %d", code)
	}
	code, body := do(t, "POST", ts.URL+"/query", `{"query": "FOR x IN nope RETURN x"}`)
	if code != 400 || !strings.Contains(body, "unknown source") {
		t.Fatalf("bad source = %d %s", code, body)
	}
}

func TestKVEndpoints(t *testing.T) {
	_, ts := newServer(t)
	code, _ := do(t, "PUT", ts.URL+"/kv/cart/1", `"34e5e759"`)
	if code != 200 {
		t.Fatalf("PUT kv = %d", code)
	}
	code, body := do(t, "GET", ts.URL+"/kv/cart/1", "")
	if code != 200 || strings.TrimSpace(body) != `"34e5e759"` {
		t.Fatalf("GET kv = %d %q", code, body)
	}
	code, _ = do(t, "GET", ts.URL+"/kv/cart/missing", "")
	if code != 404 {
		t.Fatalf("missing kv = %d", code)
	}
}

func TestBadPaths(t *testing.T) {
	_, ts := newServer(t)
	code, _ := do(t, "GET", ts.URL+"/collections/onlyone", "")
	if code != 404 {
		t.Fatalf("short path = %d", code)
	}
	code, _ = do(t, "PATCH", ts.URL+"/kv/b/k", "")
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("bad method = %d", code)
	}
}

func TestPutInvalidDocument(t *testing.T) {
	_, ts := newServer(t)
	code, _ := do(t, "PUT", ts.URL+"/collections/products/p1", `{broken`)
	if code != 400 {
		t.Fatalf("invalid doc = %d", code)
	}
	// Unregistered collection fails.
	code, _ = do(t, "PUT", ts.URL+"/collections/ghost/k", `{"a":1}`)
	if code != 400 {
		t.Fatalf("unregistered coll = %d", code)
	}
}
