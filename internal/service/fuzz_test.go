package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sync/atomic"
	"testing"

	"mmjoin/internal/mstore"
)

// fuzzServer builds one tiny live server shared by every fuzz iteration
// (testing.F and testing.T both satisfy testing.TB).
func fuzzServer(tb testing.TB) (*Server, *httptest.Server) {
	tb.Helper()
	dir := filepath.Join(tb.TempDir(), "db")
	db, err := mstore.CreateDB(dir, 3, 200, 200, 32, 11)
	if err != nil {
		tb.Fatal(err)
	}
	db.Close()
	s, err := New(Config{Dir: dir, D: 3, CalibrationOps: 60})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// FuzzJoinDecode throws arbitrary bytes at the /join decoder. The
// contract under attack: malformed input is answered 400 (or another
// well-defined client error), the server never panics, never answers
// 5xx, and a rejected request never reaches the join goroutine — the
// mapped store must be untouchable through garbage.
func FuzzJoinDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"algorithm":"auto"}`))
	f.Add([]byte(`{"algorithm":"grace","memBytes":65536,"k":4}`))
	f.Add([]byte(`{"algorithm":42}`))
	f.Add([]byte(`{"algorithm":"riot"}`))
	f.Add([]byte(`{"memBytes":"much"}`))
	f.Add([]byte(`{"k":-1}`))
	f.Add([]byte(`{"k":999999999}`))
	f.Add([]byte(`{"timeoutMs":-5}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"alg`))
	f.Add([]byte("\x00\xff\xfe"))
	f.Add([]byte(``))

	s, ts := fuzzServer(f)
	var joinsStarted atomic.Int64
	s.preJoin = func() { joinsStarted.Add(1) }

	f.Fuzz(func(t *testing.T, body []byte) {
		started := joinsStarted.Load()
		resp, err := ts.Client().Post(ts.URL+"/v1/join", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("transport error (handler died?): %v", err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("body %q: status %d outside the contract", body, resp.StatusCode)
		}
		if resp.StatusCode == http.StatusBadRequest && joinsStarted.Load() != started {
			t.Errorf("body %q: rejected 400 yet a join goroutine touched the mapping", body)
		}
		if n := s.StatsSnapshot().Counters["panics_recovered"]; n != 0 {
			t.Fatalf("body %q: handler panicked (%d recovered)", body, n)
		}
	})
}

// FuzzLookupDecode drives /lookup's query-parameter decoding with
// arbitrary part/index strings: anything non-numeric or out of range is
// a 400/404, never a panic or a 5xx.
func FuzzLookupDecode(f *testing.F) {
	f.Add("0", "0")
	f.Add("2", "199")
	f.Add("-1", "5")
	f.Add("3", "0")
	f.Add("abc", "def")
	f.Add("", "")
	f.Add("999999999999999999999", "1")
	f.Add("0x10", "1e3")
	f.Add("0", "-9223372036854775808")
	f.Add("\x00", "☂")

	s, ts := fuzzServer(f)

	f.Fuzz(func(t *testing.T, part, index string) {
		q := url.Values{"part": {part}, "index": {index}}
		resp, err := ts.Client().Get(ts.URL + "/v1/lookup?" + q.Encode())
		if err != nil {
			t.Fatalf("transport error (handler died?): %v", err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Errorf("part=%q index=%q: status %d outside the contract", part, index, resp.StatusCode)
		}
		if n := s.StatsSnapshot().Counters["panics_recovered"]; n != 0 {
			t.Fatalf("part=%q index=%q: handler panicked (%d recovered)", part, index, n)
		}
	})
}
