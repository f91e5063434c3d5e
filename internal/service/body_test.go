package service

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

// TestReadBody reads bodies on both sides of the preallocation cap under
// every kind of declared length: right, unknown, too short and too long.
// A right one fills one allocation; a long claim reserves at most the cap.
func TestReadBody(t *testing.T) {
	full := bytes.Repeat([]byte("0123456789"), 2*maxBodyPrealloc/10+1)
	for _, size := range []int{0, 1, 181, maxBodyPrealloc, 2 * maxBodyPrealloc} {
		body := full[:size]
		for _, claim := range []int64{int64(size), -1, int64(size / 2), MaxRequestBytes} {
			got, err := ReadBody(bytes.NewReader(body), claim)
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("size %d, claim %d: read %d bytes, %v", size, claim, len(got), err)
			}
			if claim == MaxRequestBytes && size <= maxBodyPrealloc && cap(got) > maxBodyPrealloc+1 {
				t.Errorf("size %d, claim %d: reserved %d bytes", size, claim, cap(got))
			}
		}
		if size > maxBodyPrealloc {
			continue
		}
		r := bytes.NewReader(body)
		allocs := testing.AllocsPerRun(20, func() {
			r.Reset(body)
			if _, err := ReadBody(r, int64(size)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("size %d: %.0f allocs, want 1", size, allocs)
		}
	}
	boom := errors.New("boom")
	got, err := ReadBody(io.MultiReader(strings.NewReader("abc"), iotest.ErrReader(boom)), 10)
	if string(got) != "abc" || !errors.Is(err, boom) {
		t.Errorf("failing reader: got %q, %v", got, err)
	}
}

// TestBodyLimit posts a body one byte over MaxRequestBytes: edfd answers
// 400 before it decodes anything.
func TestBodyLimit(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	body := bytes.Repeat([]byte(" "), MaxRequestBytes+1)
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "request body too large") {
		t.Errorf("status %d, body %s", rr.Code, rr.Body)
	}
}
