package serve

import (
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
