package main

import (
	"net/http"
	"testing"
	"time"
)

// TestNewServerTimeouts pins the timeouts every gecco-serve listener gets,
// and the two it must not get: a /stream body may stay open indefinitely.
func TestNewServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newServer(":0", h)
	if srv.Addr != ":0" || srv.Handler != h {
		t.Fatalf("addr %q, handler %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 2*time.Minute {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want 10s and 2m", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v, WriteTimeout %v; both must stay unset for /stream", srv.ReadTimeout, srv.WriteTimeout)
	}
}
