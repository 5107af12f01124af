// Command smalld serves the SMALL machine over HTTP: stateful Lisp
// sessions (the bytecode VM by default, the plain interpreter, or direct
// execution on a core.Machine) and stateless Chapter-5
// simulation/experiment jobs, with a bounded admission queue, explicit
// backpressure, and Prometheus metrics.
//
// One binary, three roles:
//
//	smalld                                    # standalone HTTP service on :8344
//	smalld -role worker -rpc-addr :8350       # HTTP + binary RPC for a gateway
//	smalld -role gateway -peers :8350,:8351   # routes HTTP traffic to workers
//
// A gateway shards session traffic across its workers by rendezvous
// hashing over session IDs (sticky: one session, one worker) and spreads
// stateless sim/experiment jobs least-loaded with bounded retries and
// optional hedging.
//
//	smalld                      # listen on :8344
//	smalld -addr 127.0.0.1:0    # random port (printed on stdout)
//	smalld -queue 16 -workers 4 # tighter admission + execution bounds
//
// A quick conversation:
//
//	curl -s localhost:8344/v1/sessions -d '{"backend":"small"}'
//	curl -s localhost:8344/v1/sessions/s1/eval -d '{"expr":"(car (quote (a b)))"}'
//	curl -s localhost:8344/v1/sim -d '{"trace":"slang","point":{"table_size":256}}'
//	curl -s localhost:8344/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/parsweep"
	"repro/internal/server"
)

func main() {
	role := flag.String("role", "standalone", "standalone | worker | gateway")
	addr := flag.String("addr", ":8344", "HTTP listen address (host:0 picks a random port)")
	rpcAddr := flag.String("rpc-addr", ":8350", "binary RPC listen address (worker role)")
	peers := flag.String("peers", "", "comma-separated worker RPC addresses (gateway role)")
	queueDepth := flag.Int("queue", 64, "admission queue depth (full queue answers 429)")
	workers := flag.Int("workers", 0, "execution workers (default GOMAXPROCS)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request execution deadline")
	sessionTTL := flag.Duration("session-ttl", 10*time.Minute, "idle session expiry")
	maxSessions := flag.Int("max-sessions", 1024, "live session ceiling")
	sweepWorkers := flag.Int("sweep-workers", 0, "parsweep helper budget (default GOMAXPROCS)")
	retries := flag.Int("retries", 2, "gateway retry budget for stateless jobs")
	hedge := flag.Duration("hedge", 0, "gateway hedge delay for stateless jobs (0 disables)")
	healthInterval := flag.Duration("health-interval", time.Second, "gateway worker probe interval")
	ingestQuota := flag.Int64("ingest-quota", 0, "per-tenant ingest staging quota in bytes (default 64 MiB)")
	ingestRate := flag.Int64("ingest-rate", 0, "per-tenant sustained ingest rate in bytes/sec (0 disables limiting)")
	ingestBurst := flag.Int64("ingest-burst", 0, "ingest rate-limiter bucket depth in bytes (default: the rate)")
	ingestTenants := flag.Int("ingest-tenants", 0, "distinct ingest tenants with staged data (default 64)")
	cacheDir := flag.String("cachedir", "", "land completed ingest jobs in this experiments-style disk cache")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060; empty disables)")
	flag.Parse()

	if *pprofAddr != "" {
		if err := servePprof(*pprofAddr); err != nil {
			fmt.Fprintf(os.Stderr, "smalld: pprof: %v\n", err)
			os.Exit(1)
		}
	}

	ingestLimits := ingest.Limits{
		TenantBytes: *ingestQuota,
		MaxTenants:  *ingestTenants,
		RateBytes:   *ingestRate,
		BurstBytes:  *ingestBurst,
	}

	if *sweepWorkers > 0 {
		parsweep.SetWorkers(*sweepWorkers)
	}

	switch *role {
	case "standalone", "worker":
	case "gateway":
		runGateway(*addr, *peers, *retries, *hedge, *healthInterval, *timeout, ingestLimits, *cacheDir)
		return
	default:
		fmt.Fprintf(os.Stderr, "smalld: unknown -role %q (want standalone, worker, or gateway)\n", *role)
		os.Exit(1)
	}

	svc := server.New(server.Config{
		QueueDepth:     *queueDepth,
		Workers:        *workers,
		RequestTimeout: *timeout,
		SessionTTL:     *sessionTTL,
		MaxSessions:    *maxSessions,
		Ingest:         ingestLimits,
		CacheDir:       *cacheDir,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smalld: %v\n", err)
		os.Exit(1)
	}
	// Print the resolved address first so scripts using -addr :0 can
	// discover the port.
	fmt.Printf("smalld: listening on %s\n", ln.Addr())

	// A worker additionally serves the cluster's binary RPC protocol,
	// replaying request frames into the same handler the HTTP port uses.
	var (
		rpcSrv  *cluster.RPCServer
		rpcDone chan struct{}
	)
	rpcCtx, rpcCancel := context.WithCancel(context.Background())
	defer rpcCancel()
	if *role == "worker" {
		rln, err := net.Listen("tcp", *rpcAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smalld: rpc: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("smalld: rpc listening on %s\n", rln.Addr())
		rpcSrv = cluster.NewRPCServer(svc.Handler())
		rpcDone = make(chan struct{})
		go func() {
			defer close(rpcDone)
			if err := rpcSrv.Serve(rpcCtx, rln); err != nil {
				fmt.Fprintf(os.Stderr, "smalld: rpc: %v\n", err)
			}
		}()
	}

	hs := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		<-sig
		fmt.Println("smalld: draining")
		// Stop accepting, let in-flight handlers finish, then drain the
		// worker queue. RPC drains in parallel with HTTP: frames already
		// executing finish, new ones answer 503.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if rpcSrv != nil {
			rpcSrv.Drain(ctx)
		}
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "smalld: shutdown: %v\n", err)
		}
		svc.Shutdown()
	}()

	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "smalld: %v\n", err)
		os.Exit(1)
	}
	<-done
	if rpcDone != nil {
		rpcCancel()
		<-rpcDone
	}
	fmt.Println("smalld: stopped")
}

// servePprof starts the profiling listener on its own mux and port,
// kept off the service handler so profiles are never routable from the
// public address. Loopback only: profiling data (goroutine dumps, heap
// contents) is operator-facing, not tenant-facing.
func servePprof(addr string) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("bad -pprof address %q: %w", addr, err)
	}
	if ip := net.ParseIP(host); ip == nil || !ip.IsLoopback() {
		return fmt.Errorf("-pprof address %q is not a loopback address", addr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Printf("smalld: pprof listening on %s\n", ln.Addr())
	go func() {
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "smalld: pprof: %v\n", err)
		}
	}()
	return nil
}

// runGateway serves the gateway role: no local machine, just routing —
// plus the cluster-edge ingest staging area.
func runGateway(addr, peers string, retries int, hedge, healthInterval, timeout time.Duration, ingestLimits ingest.Limits, cacheDir string) {
	var peerList []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if len(peerList) == 0 {
		fmt.Fprintln(os.Stderr, "smalld: gateway role needs -peers host:port[,host:port...]")
		os.Exit(1)
	}
	gw, err := cluster.NewGateway(cluster.Config{
		Peers:          peerList,
		RetryBudget:    retries,
		HedgeDelay:     hedge,
		HealthInterval: healthInterval,
		RequestTimeout: timeout,
		Ingest:         ingestLimits,
		CacheDir:       cacheDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "smalld: %v\n", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "smalld: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("smalld: listening on %s\n", ln.Addr())
	fmt.Printf("smalld: gateway for %s\n", strings.Join(peerList, ", "))

	hs := &http.Server{
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		<-sig
		fmt.Println("smalld: draining")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "smalld: shutdown: %v\n", err)
		}
		gw.Close()
	}()

	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "smalld: %v\n", err)
		os.Exit(1)
	}
	<-done
	fmt.Println("smalld: stopped")
}
