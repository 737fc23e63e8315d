// Command fpartd is the long-running partitioning daemon: an HTTP/JSON
// front end over the same pipeline the one-shot fpart CLI drives, with a
// bounded job queue, a worker pool, a content-addressed result cache, and
// live event streaming. See internal/service for the API surface.
//
// Usage:
//
//	fpartd -addr :8080
//	fpartd -addr 127.0.0.1:0 -workers 4 -queue 128 -cache 256
//
// With -data-dir the result cache gains a disk-backed layer that survives
// restarts; with -peers several daemons form a cluster that routes each
// submission to its fingerprint's ring owner and steals work from busy
// peers:
//
//	fpartd -addr 127.0.0.1:9001 -data-dir /var/lib/fpartd \
//	       -peers 127.0.0.1:9001,127.0.0.1:9002 -advertise 127.0.0.1:9001
//
// Submit a job and follow it:
//
//	curl -s localhost:8080/v1/partition -d '{"circuit":"s9234","device":"XC3020"}'
//	curl -s localhost:8080/v1/jobs/job-1
//	curl -sN localhost:8080/v1/jobs/job-1/events
//	curl -s localhost:8080/metrics
//
// On SIGINT/SIGTERM the daemon stops admitting work, lets the HTTP server
// finish open requests, and drains in-flight jobs until -grace expires,
// after which they are canceled via their contexts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fpart/internal/cluster"
	"fpart/internal/driver"
	"fpart/internal/engine"
	"fpart/internal/service"
	"fpart/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "fpartd: %v\n", err)
		os.Exit(1)
	}
}

// options collects the flag values so boot validation is testable apart
// from flag.Parse and the daemon lifecycle.
type options struct {
	addr           string
	workers        int
	queueDepth     int
	cacheEntries   int
	retention      int
	defaultTimeout time.Duration
	grace          time.Duration

	dataDir    string
	storeBytes int64

	peers         string
	advertise     string
	replicas      int
	stealInterval time.Duration

	cpuprofile string
	memprofile string
}

// validate rejects nonsensical boot parameters outright. A negative pool
// or queue size is always a typo; failing fast with the flag's name beats
// silently normalizing it to a default the operator did not choose.
func (o *options) validate() error {
	type bound struct {
		name string
		v    int64
	}
	for _, b := range []bound{
		{"-workers", int64(o.workers)},
		{"-queue", int64(o.queueDepth)},
		{"-cache", int64(o.cacheEntries)},
		{"-retention", int64(o.retention)},
		{"-replicas", int64(o.replicas)},
		{"-store-bytes", o.storeBytes},
		{"-grace", int64(o.grace)},
		{"-default-timeout", int64(o.defaultTimeout)},
		{"-steal-interval", int64(o.stealInterval)},
	} {
		if b.v < 0 {
			return fmt.Errorf("%s must not be negative (got %v)", b.name, b.v)
		}
	}
	if o.dataDir == "" && o.storeBytes != 0 {
		return errors.New("-store-bytes needs -data-dir")
	}
	peers := o.peerList()
	if len(peers) == 0 {
		if o.advertise != "" {
			return errors.New("-advertise needs -peers")
		}
		return nil
	}
	self := o.selfAddr()
	found := false
	for _, p := range peers {
		if p == "" {
			return fmt.Errorf("-peers has an empty entry: %q", o.peers)
		}
		if p == self {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("advertise address %q missing from -peers %q", self, o.peers)
	}
	return nil
}

// peerList splits -peers, trimming whitespace; empty means single-node.
func (o *options) peerList() []string {
	if strings.TrimSpace(o.peers) == "" {
		return nil
	}
	parts := strings.Split(o.peers, ",")
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = strings.TrimSpace(p)
	}
	return out
}

// selfAddr is this peer's advertise address: -advertise, or -addr when
// unset.
func (o *options) selfAddr() string {
	if o.advertise != "" {
		return o.advertise
	}
	return o.addr
}

// run carries the whole daemon lifecycle so deferred cleanup (profile
// teardown) survives error exits and panics.
func run() error {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	flag.IntVar(&o.workers, "workers", 0, "worker pool size and shared CPU budget (0 = GOMAXPROCS)")
	flag.IntVar(&o.queueDepth, "queue", 0, "bounded job queue depth; overflow is rejected with 429 (0 = 64)")
	flag.IntVar(&o.cacheEntries, "cache", 0, "result cache capacity in entries, LRU-evicted (0 = 128)")
	flag.IntVar(&o.retention, "retention", 0, "finished jobs kept queryable (0 = 1024)")
	flag.DurationVar(&o.defaultTimeout, "default-timeout", 0, "per-job deadline when the request sets none (0 = unlimited)")
	flag.DurationVar(&o.grace, "grace", 30*time.Second, "shutdown grace period before in-flight jobs are canceled")
	flag.StringVar(&o.dataDir, "data-dir", "", "directory for the disk-backed result store; results survive restarts (empty = memory only)")
	flag.Int64Var(&o.storeBytes, "store-bytes", 0, "disk store byte budget, LRU-evicted (0 = 256 MiB; needs -data-dir)")
	flag.StringVar(&o.peers, "peers", "", "comma-separated static cluster membership (host:port,...); empty = single node")
	flag.StringVar(&o.advertise, "advertise", "", "this peer's address as listed in -peers (default: -addr)")
	flag.IntVar(&o.replicas, "replicas", 0, "virtual nodes per peer on the consistent-hash ring (0 = 64)")
	flag.DurationVar(&o.stealInterval, "steal-interval", 0, "idle work-stealing poll interval (0 = 500ms)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the daemon's lifetime to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile (taken at shutdown) to this file")
	flag.Parse()

	if err := o.validate(); err != nil {
		return err
	}

	stopProfiles, err := driver.StartProfiles(o.cpuprofile, o.memprofile, driver.StderrNotify)
	if err != nil {
		return err
	}
	defer stopProfiles()

	var st *store.Store
	if o.dataDir != "" {
		st, err = store.Open(o.dataDir, o.storeBytes)
		if err != nil {
			return err
		}
	}

	svc := service.New(service.Config{
		Workers:        o.workers,
		QueueDepth:     o.queueDepth,
		CacheEntries:   o.cacheEntries,
		JobRetention:   o.retention,
		DefaultTimeout: o.defaultTimeout,
		Store:          st,
	})

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	stealCtx, stopSteal := context.WithCancel(context.Background())
	defer stopSteal()
	if peers := o.peerList(); len(peers) > 0 {
		node, err := cluster.New(cluster.Config{
			Self:          o.selfAddr(),
			Peers:         peers,
			Replicas:      o.replicas,
			StealInterval: o.stealInterval,
		})
		if err != nil {
			return err
		}
		svc.SetCluster(node)
		go node.StealLoop(stealCtx, svc)
		log.Printf("fpartd: cluster of %d peers, self %s", len(peers), node.Self())
	}
	if st != nil {
		log.Printf("fpartd: disk store at %s (%d entries, %d bytes)", o.dataDir, st.Len(), st.Bytes())
	}

	// The smoke script and tests parse this line to learn the bound port.
	log.Printf("fpartd: listening on %s", ln.Addr())
	cfg := svc.Config()
	log.Printf("fpartd: %d workers, queue %d, cache %d entries",
		cfg.Workers, cfg.QueueDepth, cfg.CacheEntries)
	log.Printf("fpartd: methods: %s (GET /methods for capabilities)", engine.UsageString())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("fpartd: %v: draining (grace %v)", s, o.grace)
	case err := <-serveErr:
		svc.Shutdown(context.Background())
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.grace)
	defer cancel()
	// Stop the steal loop and the listener first so no new work arrives,
	// then drain the pool; jobs still running when the grace period expires
	// are canceled via their contexts.
	stopSteal()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("fpartd: http shutdown: %v", err)
	}
	if err := svc.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("fpartd: canceled in-flight jobs: %v", err)
	}
	log.Printf("fpartd: bye")
	return nil
}
