// Command gecco-serve exposes the GECCO pipeline as a concurrent HTTP
// service with a sharded result cache and cooperative cancellation: a
// disconnected client or a shutdown signal stops in-flight pipeline runs
// mid-frontier. POST /stream serves the online workload: NDJSON traces in,
// abstracted NDJSON out, with named per-stream abstractor state kept in a
// bounded LRU across requests. With -data-dir set, evicted session indexes
// spill to disk as .gidx files and feasible results persist across
// restarts (see the README's Persistence section and docs/FORMAT.md).
//
// Scale-out (see the README's Sharding section and docs/ARCHITECTURE.md):
//
//   - -shards N boots a single-box cluster: N worker services on
//     consecutive loopback ports behind a pure-coordinator router on -addr,
//     each owning a consistent-hash range of the log-digest space.
//   - -peers/-advertise joins a multi-process cluster: every node runs the
//     same embedded router over the shared peer list and serves or forwards
//     by ring ownership, so any node is a valid entry point.
//
// Usage:
//
//	gecco-serve -addr :8080 -max-jobs 4 -cache-size 256 -max-streams 64 -data-dir gecco-data
//	gecco-serve -addr :8080 -shards 2 -data-dir gecco-data
//	gecco-serve -addr :8081 -advertise http://10.0.0.1:8081 \
//	    -peers http://10.0.0.1:8081,http://10.0.0.2:8081
//
//	curl -s "localhost:8080/abstract?constraints=distinct(role)%20%3C%3D%201" \
//	     -X POST --data-binary @events.xes
//	curl -sN "localhost:8080/stream?stream=orders&constraints=distinct(role)%20%3C%3D%201" \
//	     -X POST --data-binary @traces.ndjson
//	curl -s localhost:8080/stats
//
// See the README's Serving and Streaming sections for the full API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gecco/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		maxJobs   = flag.Int("max-jobs", 0, "maximum concurrent pipeline runs (0 = one per CPU)")
		cacheSize = flag.Int("cache-size", 256, "result cache capacity in entries (0 = disable)")
		sessions  = flag.Int("session-cache", 16, "live per-log sessions kept for cross-request reuse (0 = disable)")
		streams   = flag.Int("max-streams", 64, "named online streams kept live for POST /stream (0 = disable streaming)")
		workers   = flag.Int("workers", 0, "default worker threads per job (0 = all cores)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful shutdown window before in-flight jobs are cut")
		dataDir   = flag.String("data-dir", "", "directory for the warm tier: spilled session indexes and persisted results survive restarts (empty = in-memory only)")
		shards    = flag.Int("shards", 0, "boot a single-box cluster: N worker shards on consecutive loopback ports behind a coordinator on -addr")
		peers     = flag.String("peers", "", "comma-separated base URLs of every shard in the cluster, in the same order on every node (multi-process mode)")
		advertise = flag.String("advertise", "", "this node's own base URL exactly as it appears in -peers")
	)
	flag.Parse()

	if *dataDir != "" {
		// Fail loudly at startup rather than degrading silently mid-flight:
		// an unusable data dir is an operator error, not a runtime condition.
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "gecco-serve: -data-dir:", err)
			os.Exit(1)
		}
	}
	if *shards > 0 && *peers != "" {
		fmt.Fprintln(os.Stderr, "gecco-serve: -shards (single-box) and -peers (multi-process) are mutually exclusive")
		os.Exit(1)
	}

	opts := service.Options{
		MaxConcurrent:   *maxJobs,
		CacheCapacity:   capacity(*cacheSize),
		SessionCapacity: capacity(*sessions),
		MaxStreams:      capacity(*streams),
		DefaultWorkers:  *workers,
		DataDir:         *dataDir,
	}

	var (
		svcs    []*service.Service
		servers []*http.Server
	)
	switch {
	case *shards > 0:
		// Single-box cluster: shard i serves on loopback port base+1+i with a
		// plain handler (all routing happens at the front door); the
		// coordinator router owns -addr. Shards share the warm tier, so a
		// drained shard's spilled sessions are warm-opened by its successor.
		basePort, err := listenPort(*addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gecco-serve: -addr:", err)
			os.Exit(1)
		}
		peerURLs := make([]string, *shards)
		memberIDs := make([]string, *shards)
		for i := 0; i < *shards; i++ {
			peerURLs[i] = fmt.Sprintf("http://127.0.0.1:%d", basePort+1+i)
			memberIDs[i] = fmt.Sprintf("shard-%d", i)
		}
		for i := 0; i < *shards; i++ {
			o := opts
			o.JobIDPrefix = fmt.Sprintf("s%d-", i)
			svc := service.New(o)
			svcs = append(svcs, svc)
			servers = append(servers, newServer(fmt.Sprintf("127.0.0.1:%d", basePort+1+i), service.Handler(svc)))
		}
		coord, err := service.NewRouter(nil, service.ShardOptions{
			Peers: peerURLs, MemberIDs: memberIDs, Self: -1,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gecco-serve:", err)
			os.Exit(1)
		}
		servers = append(servers, newServer(*addr, coord))
		fmt.Printf("gecco-serve coordinator on %s fronting %d shards (ports %d-%d)\n",
			*addr, *shards, basePort+1, basePort+*shards)

	case *peers != "":
		list := splitPeers(*peers)
		self := -1
		memberIDs := make([]string, len(list))
		for i, p := range list {
			memberIDs[i] = fmt.Sprintf("shard-%d", i)
			if p == strings.TrimSuffix(*advertise, "/") {
				self = i
			}
		}
		if self < 0 {
			fmt.Fprintf(os.Stderr, "gecco-serve: -advertise %q is not in -peers %v\n", *advertise, list)
			os.Exit(1)
		}
		o := opts
		o.JobIDPrefix = fmt.Sprintf("s%d-", self)
		svc := service.New(o)
		svcs = append(svcs, svc)
		router, err := service.NewRouter(svc, service.ShardOptions{
			Peers: list, MemberIDs: memberIDs, Self: self,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gecco-serve:", err)
			os.Exit(1)
		}
		servers = append(servers, newServer(*addr, router))
		fmt.Printf("gecco-serve shard %d/%d on %s (advertised %s)\n", self, len(list), *addr, *advertise)

	default:
		svc := service.New(opts)
		svcs = append(svcs, svc)
		servers = append(servers, newServer(*addr, service.Handler(svc)))
		fmt.Printf("gecco-serve listening on %s (max-jobs=%d cache-size=%d max-streams=%d)\n", *addr, *maxJobs, *cacheSize, *streams)
	}
	if *dataDir != "" {
		fmt.Printf("gecco-serve persisting to %s\n", *dataDir)
	}

	errc := make(chan error, len(servers))
	for _, srv := range servers {
		srv := srv
		go func() { errc <- srv.ListenAndServe() }()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("gecco-serve: %v, draining for up to %v...\n", sig, *drain)
		// Readiness goes 503 first so routers and load balancers stop
		// sending new work, then the listeners drain in-flight requests,
		// then Close cancels stragglers and spills sessions to the warm
		// tier for the ring successors to warm-open.
		for _, svc := range svcs {
			svc.StartDrain()
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		for _, srv := range servers {
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "gecco-serve: shutdown:", err)
			}
		}
		cancel()
		for _, svc := range svcs {
			svc.Close()
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "gecco-serve:", err)
			os.Exit(1)
		}
	}
}

// Connection timeouts. A client must finish sending its request line and
// headers within readHeaderTimeout, and a kept-alive connection is closed
// after idleTimeout without a request; without them a client can hold a
// connection, and its goroutine, forever. ReadTimeout and WriteTimeout stay
// unset: they bound the whole request body and response, and a /stream
// request body is unbounded by design — it stays open for as long as the
// client has traces to send.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer is the one way gecco-serve builds a listener's http.Server.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// capacity maps a "0 = disable" capacity flag onto service.Options, where
// 0 picks the default and a negative value turns the feature off.
func capacity(flagValue int) int {
	if flagValue <= 0 {
		return -1
	}
	return flagValue
}

// listenPort extracts the numeric port of a listen address like ":8080" or
// "0.0.0.0:8080"; shard ports are allocated consecutively after it.
func listenPort(addr string) (int, error) {
	_, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return 0, err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return 0, fmt.Errorf("port %q is not numeric (the -shards coordinator derives shard ports from it)", portStr)
	}
	return port, nil
}

// splitPeers parses the -peers list, trimming whitespace and trailing
// slashes so every node normalises the shared order identically.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSuffix(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
