package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"sortnets/client"
	"sortnets/internal/serve"
)

// node is one sortnetd shard served in-process on a loopback listener:
// the same serve.Service and Handler the sortnetd binary runs, reached
// through real TCP.
type node struct {
	url      string
	svc      *serve.Service
	srv      *http.Server
	done     chan error
	computes *atomic.Int64 // Config.OnCompute count
}

// listen reserves a loopback port; the URL is known before the
// service that will answer on it is built, which is what lets shards
// name each other as peers.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listening on loopback: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// startNode serves cfg on ln. With a tracer, the handler is wrapped in
// the span middleware and the peer probes go through a span transport.
func startNode(ln net.Listener, url string, cfg serve.Config, tr *tracer) *node {
	n := &node{url: url, done: make(chan error, 1), computes: new(atomic.Int64)}
	if tr != nil {
		cfg.OnCompute = func() { n.computes.Add(1) }
		if len(cfg.Peers) > 0 {
			cfg.PeerHTTPClient = &http.Client{Transport: tr.transport("serve.peer_probe", newTransport())}
		}
	}
	n.svc = serve.NewService(cfg)
	var h http.Handler = n.svc.Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	n.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { n.done <- n.srv.Serve(ln) }()
	return n
}

// close stops the server, waits for its accept loop to end, and
// releases the service's pool.
func (n *node) close() error {
	err := n.srv.Close()
	if serr := <-n.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	n.svc.Close()
	return err
}

// newTransport is a private connection pool per client, so that one
// set-up's idle connections never serve the next.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}
}

// newPool builds a client.Pool over urls. Background health probes are
// off: their cadence would pace nothing here and only add timer noise.
// With a tracer, the pool's HTTP client goes through the span
// transport.
func newPool(urls []string, tr *tracer, opts ...client.PoolOption) (*client.Pool, error) {
	var rt http.RoundTripper = newTransport()
	if tr != nil {
		rt = tr.transport("http.roundtrip", rt)
	}
	opts = append([]client.PoolOption{
		client.WithPoolHTTPClient(&http.Client{Transport: rt}),
		client.WithHealthInterval(0),
	}, opts...)
	p, err := client.NewPool(urls, opts...)
	if err != nil {
		return nil, fmt.Errorf("building client pool: %w", err)
	}
	return p, nil
}
