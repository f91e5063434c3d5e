package client_test

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/service"
	"repro/internal/service/client"
)

// TestClientReusesConnection calls Healthz, whose reply has a body the
// client does not decode, and Schema, whose reply it does: every call of
// either kind must go over the one kept-alive connection. A reply body
// closed unread makes net/http drop the connection, so each such call
// would dial a new one.
func TestClientReusesConnection(t *testing.T) {
	srv := service.New(service.Config{})
	t.Cleanup(srv.Close)
	hs := httptest.NewUnstartedServer(srv.Handler())
	var dials atomic.Int64
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(hs.Close)
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	c := client.New(hs.URL, &http.Client{Transport: tr})
	ctx := context.Background()
	for range 5 {
		if err := c.Healthz(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Schema(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("5 Healthz and 5 Schema calls opened %d connections, want 1", n)
	}
}
