package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += int64(k)
	return k, err
}

// TestMoveBodyIsBounded: a well-formed move padded to 8 MiB is refused with
// 400 after the service has read at most maxBodyBytes+1 bytes of it.
func TestMoveBodyIsBounded(t *testing.T) {
	svc := NewService(testConfig(t))
	defer svc.Close()
	snap, _, err := svc.NewGame(false)
	if err != nil {
		t.Fatal(err)
	}
	body := &countingReader{r: io.MultiReader(
		strings.NewReader(`{"action":4,"pad":"`),
		strings.NewReader(strings.Repeat("a", 8<<20)),
		strings.NewReader(`"}`),
	)}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/game/"+snap.ID+"/move", body))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d after reading %d bytes, want 400", rec.Code, body.n)
	}
	if body.n > maxBodyBytes+1 {
		t.Fatalf("read %d bytes of the body, want at most %d", body.n, maxBodyBytes+1)
	}
}

// TestMoveWithoutActionIsRefused: a move body that leaves out "action", sets
// it to null, or follows the object with anything but white space is
// answered 400 bad_request and plays nothing; a body with an action and a
// trailing newline still plays it.
func TestMoveWithoutActionIsRefused(t *testing.T) {
	svc := NewService(testConfig(t))
	defer svc.Close()
	snap, _, err := svc.NewGame(false)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(method, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		path := "/v1/game/" + snap.ID
		if method == http.MethodPost {
			path += "/move"
		}
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	ply := func() int {
		var got Snapshot
		if err := json.NewDecoder(serve(http.MethodGet, "").Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		return got.Ply
	}
	for _, body := range []string{`{}`, `{"acton": 3}`, `{"action": null}`, `{"action": 4} x`, `{"action": 4}}`, `{"action": 4}{"action": 5}`} {
		rec := serve(http.MethodPost, body)
		var e errorResponse
		if err := json.NewDecoder(rec.Body).Decode(&e); err != nil || rec.Code != http.StatusBadRequest || e.Code != "bad_request" {
			t.Fatalf("%s: status %d, code %q (%v), want 400 bad_request", body, rec.Code, e.Code, err)
		}
		if got := ply(); got != 0 {
			t.Fatalf("%s: ply %d after a refused move, want 0", body, got)
		}
	}
	if rec := serve(http.MethodPost, "{\"action\": 4}\n"); rec.Code != http.StatusOK {
		t.Fatalf(`{"action": 4} and a newline: status %d, want 200`, rec.Code)
	}
	if got := ply(); got != 2 {
		t.Fatalf("ply %d after a move and the engine's reply, want 2", got)
	}
}
