package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"mmjoin/internal/join"
	"mmjoin/internal/mstore"
	"mmjoin/internal/relation"
	"mmjoin/internal/shard"
)

// newShardedServer builds a 3-shard store from one source database and
// serves it. Returns the server, the test HTTP server, the shard map,
// and the source's expected stats.
func newShardedServer(t *testing.T, objects int, cfg Config) (*Server, *httptest.Server, *shard.Map, mstore.JoinStats) {
	t.Helper()
	base := t.TempDir()
	srcDir := filepath.Join(base, "src")
	src, err := mstore.CreateDB(srcDir, 3, objects, objects, 32, 23)
	if err != nil {
		t.Fatal(err)
	}
	want := src.ExpectedStats()
	src.Close()

	outs := []string{
		filepath.Join(base, "shard-0"),
		filepath.Join(base, "shard-1"),
		filepath.Join(base, "shard-2"),
	}
	m, err := shard.Split(srcDir, 3, outs)
	if err != nil {
		t.Fatal(err)
	}
	router, err := shard.Open(m, shard.Config{
		MapPath:         filepath.Join(base, "shards.json"),
		WorkersPerShard: 1,
		PlanFunc: func(id string, w *relation.Workload, req mstore.JoinRequest) (join.Algorithm, error) {
			return join.Grace, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = router
	cfg.TmpDir = filepath.Join(base, "tmp")
	if cfg.CalibrationOps == 0 {
		cfg.CalibrationOps = 60
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, m, want
}

func decodeError(t *testing.T, resp *http.Response) ErrorBody {
	t.Helper()
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	resp.Body.Close()
	return env.Error
}

// TestShardedServiceJoin checks a /v1/join against a 3-shard store
// returns the single-store signature with a per-shard breakdown, for
// concrete algorithms and for auto (per-shard planning).
func TestShardedServiceJoin(t *testing.T) {
	_, ts, _, want := newShardedServer(t, 900, Config{})
	for _, alg := range []string{"auto", "grace", "hybrid-hash", "sort-merge", "nested-loops"} {
		body, _ := json.Marshal(JoinRequest{Algorithm: alg})
		resp, err := http.Post(ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var jr JoinResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", alg, resp.StatusCode)
		}
		if jr.Pairs != want.Pairs || jr.Signature != fmt.Sprintf("%016x", want.Signature) {
			t.Fatalf("%s: pairs=%d sig=%s, want pairs=%d sig=%016x",
				alg, jr.Pairs, jr.Signature, want.Pairs, want.Signature)
		}
		if len(jr.Shards) != 3 {
			t.Fatalf("%s: %d shard details, want 3", alg, len(jr.Shards))
		}
		if jr.Algorithm != alg {
			t.Errorf("%s: response algorithm %q", alg, jr.Algorithm)
		}
		var sum int64
		for _, det := range jr.Shards {
			sum += det.Pairs
			if alg != "auto" && det.Algorithm != alg {
				t.Errorf("%s: shard %s ran %s", alg, det.Shard, det.Algorithm)
			}
			if alg == "auto" && det.Algorithm != "grace" {
				t.Errorf("auto: shard %s ran %s, PlanFunc always picks grace", det.Shard, det.Algorithm)
			}
		}
		if sum != want.Pairs {
			t.Errorf("%s: shard pairs sum %d != %d", alg, sum, want.Pairs)
		}
	}
}

// TestShardedServiceLookup checks /v1/lookup reports the answering
// shard and maps the routed shard's bounds onto 400/404 envelope codes.
func TestShardedServiceLookup(t *testing.T) {
	s, ts, _, _ := newShardedServer(t, 600, Config{})

	resp, err := http.Get(ts.URL + "/v1/lookup?part=1&index=3")
	if err != nil {
		t.Fatal(err)
	}
	var lr LookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || lr.Shard == "" {
		t.Fatalf("status %d shard %q, want 200 with a shard id", resp.StatusCode, lr.Shard)
	}
	direct, err := s.store.Lookup(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lr.SWord != direct.SWord || lr.Shard != direct.Shard {
		t.Fatalf("wire %+v disagrees with store %+v", lr, direct)
	}

	resp, err = http.Get(ts.URL + "/v1/lookup?part=99&index=0")
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != "bad_request" {
		t.Fatalf("part=99: status %d code %q", resp.StatusCode, e.Code)
	}
	resp, err = http.Get(ts.URL + "/v1/lookup?part=0&index=99999999")
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeError(t, resp); resp.StatusCode != http.StatusNotFound || e.Code != "not_found" {
		t.Fatalf("huge index: status %d code %q", resp.StatusCode, e.Code)
	}
}

// TestShardedServiceStats checks /v1/stats carries the per-shard layout.
func TestShardedServiceStats(t *testing.T) {
	_, ts, _, _ := newShardedServer(t, 600, Config{})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.DB.Kind != "sharded" || len(st.DB.Shards) != 3 {
		t.Fatalf("kind %q with %d shards", st.DB.Kind, len(st.DB.Shards))
	}
	var nr int
	for _, sh := range st.DB.Shards {
		nr += sh.NR
	}
	if nr != 600 || st.DB.NR != 600 {
		t.Fatalf("shard NR sum %d, total %d, want 600", nr, st.DB.NR)
	}
}

// TestShardedServiceMembership drives the /v1/shards management
// surface: list, remove-with-drain, re-add — and checks joins reflect
// each membership.
func TestShardedServiceMembership(t *testing.T) {
	_, ts, m, want := newShardedServer(t, 900, Config{})
	client := ts.Client()

	resp, err := client.Get(ts.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Kind   string             `json:"kind"`
		Shards []mstore.ShardInfo `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Kind != "sharded" || len(list.Shards) != 3 {
		t.Fatalf("list: %+v", list)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/shards/shard-2", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: status %d", resp.StatusCode)
	}

	// Joins now cover two shards only.
	var reduced mstore.JoinStats
	for _, e := range m.Shards[:2] {
		db, err := mstore.OpenDB(e.Dir, e.D)
		if err != nil {
			t.Fatal(err)
		}
		reduced.Fold(db.ExpectedStats())
		db.Close()
	}
	body, _ := json.Marshal(JoinRequest{Algorithm: "grace"})
	resp, err = client.Post(ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jr JoinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.Pairs != reduced.Pairs || len(jr.Shards) != 2 {
		t.Fatalf("post-removal: pairs=%d shards=%d, want pairs=%d shards=2",
			jr.Pairs, len(jr.Shards), reduced.Pairs)
	}

	// Removing a shard that is gone is a 404 with the envelope code.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/shards/shard-2", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeError(t, resp); resp.StatusCode != http.StatusNotFound || e.Code != "not_found" {
		t.Fatalf("double remove: status %d code %q", resp.StatusCode, e.Code)
	}

	// Re-add through the API and confirm the full signature returns.
	add, _ := json.Marshal(ShardAddRequest{ID: "shard-2", Dir: m.Shards[2].Dir, D: m.Shards[2].D})
	resp, err = client.Post(ts.URL+"/v1/shards", "application/json", bytes.NewReader(add))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-add: status %d", resp.StatusCode)
	}
	resp, err = client.Post(ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.Pairs != want.Pairs || jr.Signature != fmt.Sprintf("%016x", want.Signature) {
		t.Fatalf("post-re-add: pairs=%d sig=%s, want %d/%016x",
			jr.Pairs, jr.Signature, want.Pairs, want.Signature)
	}
}

// TestShardedServiceNotSharded checks the management endpoints answer
// 409 not_sharded on a single-store server.
func TestShardedServiceNotSharded(t *testing.T) {
	s := newTestServer(t, 120, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	add, _ := json.Marshal(ShardAddRequest{ID: "x", Dir: "/nope", D: 1})
	resp, err := http.Post(ts.URL+"/v1/shards", "application/json", bytes.NewReader(add))
	if err != nil {
		t.Fatal(err)
	}
	if e := decodeError(t, resp); resp.StatusCode != http.StatusConflict || e.Code != "not_sharded" {
		t.Fatalf("add on single store: status %d code %q", resp.StatusCode, e.Code)
	}

	// The list endpoint is informational either way.
	resp, err = http.Get(ts.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Kind string `json:"kind"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || list.Kind != "single" {
		t.Fatalf("list on single store: status %d kind %q", resp.StatusCode, list.Kind)
	}
}

// TestShardedServiceVersionedAliases checks the surface is /v1 only:
// the versioned routes answer and the former unversioned aliases 404.
func TestShardedServiceVersionedAliases(t *testing.T) {
	_, ts, _, want := newShardedServer(t, 600, Config{})
	body, _ := json.Marshal(JoinRequest{Algorithm: "sort-merge"})
	resp, err := http.Post(ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jr JoinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.Pairs != want.Pairs {
		t.Fatalf("/v1/join: pairs %d, want %d", jr.Pairs, want.Pairs)
	}
	for path, code := range map[string]int{
		"/v1/healthz": http.StatusOK,
		"/join":       http.StatusNotFound, "/lookup": http.StatusNotFound,
		"/stats": http.StatusNotFound, "/healthz": http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, code)
		}
	}
}
