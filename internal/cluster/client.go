// The worker-side cluster agent: registers (and keeps re-registering,
// as a heartbeat) with the coordinator, flips the serve layer's
// readiness gate, and implements serve.PeerCache against the
// coordinator's digest→owner map. cmd/peiserved creates one per worker
// when -join is set.

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"
)

// ClientOptions configures a worker's cluster agent.
type ClientOptions struct {
	// HeartbeatInterval is the registration refresh cadence (default
	// 2s). Registration is idempotent, so the heartbeat doubles as
	// crash-recovery: a coordinator restart re-learns the worker within
	// one interval.
	HeartbeatInterval time.Duration
	// RequestTimeout bounds each coordinator call (default 5s).
	RequestTimeout time.Duration
	// Logf receives agent lifecycle lines (default log.Printf).
	Logf func(format string, args ...any)
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 2 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Client joins one worker to a cluster. It satisfies serve.PeerCache.
type Client struct {
	coordinator string // coordinator base URL
	advertise   string // this worker's base URL, as peers reach it
	opts        ClientOptions
	httpc       *http.Client

	mu         sync.Mutex
	registered bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	fills    sync.WaitGroup // in-flight ReportFill goroutines, joined by Stop
}

// NewClient creates an agent for the worker at advertiseURL, joining
// the coordinator at coordinatorURL. Call Start to begin registering.
func NewClient(coordinatorURL, advertiseURL string, opts ClientOptions) *Client {
	opts = opts.withDefaults()
	return &Client{
		coordinator: coordinatorURL,
		advertise:   advertiseURL,
		opts:        opts,
		httpc:       &http.Client{Timeout: opts.RequestTimeout},
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
}

// Start launches the registration/heartbeat loop. onRegistered (may be
// nil) is invoked with true after the first successful registration —
// wire it to serve.Server.SetRegistered so readiness flips once the
// coordinator can route to this worker.
func (c *Client) Start(onRegistered func(bool)) {
	go func() {
		defer close(c.done)
		// First attempt immediately, so startup readiness doesn't wait a
		// full interval.
		c.registerOnce(onRegistered)
		t := time.NewTicker(c.opts.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.registerOnce(onRegistered)
			}
		}
	}()
}

// Stop ends the heartbeat loop and best-effort deregisters, moving the
// worker to draining on the coordinator so no new work routes here
// while in-flight jobs finish.
func (c *Client) Stop() {
	c.stopOnce.Do(func() {
		close(c.stop)
		<-c.done
		c.fills.Wait()
		body, _ := json.Marshal(registerRequest{Name: c.advertise})
		resp, err := c.httpc.Post(c.coordinator+"/cluster/v1/deregister", "application/json", bytes.NewReader(body))
		if err != nil {
			c.opts.Logf("cluster deregister failed (coordinator will health-check us out): %v", err)
			return
		}
		resp.Body.Close()
		c.opts.Logf("cluster deregistered from %s", c.coordinator)
	})
}

// registerOnce performs one registration (or heartbeat refresh).
func (c *Client) registerOnce(onRegistered func(bool)) {
	body, _ := json.Marshal(registerRequest{Name: c.advertise})
	resp, err := c.httpc.Post(c.coordinator+"/cluster/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		c.opts.Logf("cluster register: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.opts.Logf("cluster register: coordinator returned %d", resp.StatusCode)
		return
	}
	var reply struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&reply); err != nil {
		c.opts.Logf("cluster register: decoding reply: %v", err)
		return
	}
	c.mu.Lock()
	first := !c.registered
	c.registered = true
	c.mu.Unlock()
	if first {
		c.opts.Logf("cluster registered with %s as %s (advertising %s)", c.coordinator, reply.ID, c.advertise)
		if onRegistered != nil {
			onRegistered(true)
		}
	}
}

// Lookup implements serve.PeerCache: fetch the digest's result through
// the coordinator's peer-cache proxy. Any failure is a miss — the
// worker then simulates, which is always correct.
func (c *Client) Lookup(ctx context.Context, digest string) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.coordinator+"/cluster/v1/cache/"+digest, nil)
	if err != nil {
		return nil, false
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	out, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, false
	}
	return out, true
}

// ReportFill implements serve.PeerCache: announce asynchronously that
// this worker now caches the digest's result. Fire-and-forget — a lost
// report only costs a future peer miss.
func (c *Client) ReportFill(digest string) {
	c.fills.Add(1)
	go func() {
		defer c.fills.Done()
		body, err := json.Marshal(fillRequest{Digest: digest, Name: c.advertise})
		if err != nil {
			return
		}
		resp, err := c.httpc.Post(c.coordinator+"/cluster/v1/fills", "application/json", bytes.NewReader(body))
		if err != nil {
			c.opts.Logf("cluster fill report for %.12s: %v", digest, err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode >= 400 {
			c.opts.Logf("cluster fill report for %.12s: coordinator returned %d", digest, resp.StatusCode)
		}
	}()
}

// String identifies the agent in logs.
func (c *Client) String() string {
	return fmt.Sprintf("cluster.Client(coordinator=%s advertise=%s)", c.coordinator, c.advertise)
}
