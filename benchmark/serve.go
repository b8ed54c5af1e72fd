package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"rolag/internal/cluster"
	"rolag/internal/daemon"
	"rolag/internal/rolagdapi"
)

// quietLog keeps the daemons' per-request log lines out of the
// benchmark's output while still surfacing warnings.
var quietLog = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

// server is one in-process HTTP server on a loopback port.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

// listen reserves a loopback port; serve starts answering on it.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func serve(ln net.Listener, url string, h http.Handler) *server {
	s := &server{srv: &http.Server{Handler: h}, url: url, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s
}

// close stops the server and waits until its accept loop has returned.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// standalone is one rolagd daemon with default engine settings.
type standalone struct {
	d   *daemon.Daemon
	srv *server
}

func bootDaemon() (*standalone, error) {
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	d := daemon.New(daemon.Config{Log: quietLog})
	s := &standalone{d: d, srv: serve(ln, url, d.Handler())}
	if err := waitReady(url + "/readyz"); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *standalone) close() {
	s.srv.close()
	s.d.Close(context.Background())
}

// shardCluster is a cluster router in front of in-process rolagd shards
// that share one membership map, all with default settings.
type shardCluster struct {
	names   []string
	urls    map[string]string // shard name to base URL
	daemons map[string]*daemon.Daemon
	servers []*server
	router  *cluster.Router
	rsrv    *server
}

func bootCluster(shards int) (*shardCluster, error) {
	peers := make(map[string]string, shards)
	c := &shardCluster{urls: peers, daemons: make(map[string]*daemon.Daemon, shards)}
	lns := make([]net.Listener, shards)
	for i := range lns {
		ln, url, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		name := fmt.Sprintf("shard-%c", 'a'+i)
		c.names = append(c.names, name)
		peers[name] = url
	}
	for i, name := range c.names {
		d := daemon.New(daemon.Config{Log: quietLog, ShardID: name, Peers: peers})
		c.daemons[name] = d
		c.servers = append(c.servers, serve(lns[i], peers[name], d.Handler()))
	}
	rt, err := cluster.New(cluster.Config{Shards: peers, Log: quietLog})
	if err != nil {
		c.close()
		return nil, err
	}
	c.router = rt
	ln, url, err := listen()
	if err != nil {
		c.close()
		return nil, err
	}
	c.rsrv = serve(ln, url, rt.Handler())
	probes := []string{url + "/healthz"}
	for _, u := range peers {
		probes = append(probes, u+"/readyz")
	}
	for _, u := range probes {
		if err := waitReady(u); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *shardCluster) close() {
	if c.rsrv != nil {
		c.rsrv.close()
	}
	if c.router != nil {
		c.router.Close()
	}
	for _, s := range c.servers {
		s.close()
	}
	for _, d := range c.daemons {
		d.Close(context.Background())
	}
}

// cacheStats sums the engine counters of every shard.
func (c *shardCluster) cacheStats() rolagdapi.CacheStats {
	var s rolagdapi.CacheStats
	for _, d := range c.daemons {
		cs := d.CacheStats()
		s.Add(&cs)
	}
	return s
}

// waitReady polls a readiness URL until it answers 200.
func waitReady(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %v", url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// prime sends every request once through c, conns at a time, and
// returns the responses in request order.
func prime(c *rolagdapi.Client, reqs []rolagdapi.CompileRequest, conns int) ([]*rolagdapi.CompileResponse, error) {
	out := make([]*rolagdapi.CompileResponse, len(reqs))
	errs := make([]error, len(reqs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
				out[i], errs[i] = c.Compile(ctx, &reqs[i])
				cancel()
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("prime request %d: %w", i, err)
		}
	}
	return out, nil
}
