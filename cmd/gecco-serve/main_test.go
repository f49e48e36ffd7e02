package main

import (
	"net/http"
	"testing"
	"time"

	"gecco/internal/service"
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

// TestCapacityFlags pins what -cache-size, -session-cache and -max-streams
// mean to the service: a positive value is the capacity, and 0 or below
// turns the result cache (with the /pipeline stage cache), the session cache
// and streaming off.
func TestCapacityFlags(t *testing.T) {
	for _, tc := range []struct{ flag, want int }{{256, 256}, {5, 5}, {0, 0}, {-1, 0}} {
		svc := service.New(service.Options{
			CacheCapacity:   capacity(tc.flag),
			SessionCapacity: capacity(tc.flag),
			MaxStreams:      capacity(tc.flag),
		})
		st := svc.Stats()
		svc.Close()
		if st.Cache.Capacity != tc.want || st.Sessions.Capacity != tc.want || st.Streams.Capacity != tc.want {
			t.Errorf("flag %d: cache %d, sessions %d, streams %d; want %d each",
				tc.flag, st.Cache.Capacity, st.Sessions.Capacity, st.Streams.Capacity, tc.want)
		}
		if stageCache := st.Pipeline.Capacity > 0; stageCache != (tc.want > 0) {
			t.Errorf("flag %d: /pipeline stage cache on = %t", tc.flag, stageCache)
		}
	}
}
