// Golden suite for the leaksafe analyzer: goroutines need a lifecycle —
// a ctx, a WaitGroup, or a channel, in the body or the named callee.
package leaksafe

import (
	"context"
	"sync"
)

type svc struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

func (s *svc) fetch(url string) error {
	_ = url
	return nil
}

// fireAndForget launches a goroutine nothing can stop or wait for.
func (s *svc) fireAndForget(url string) {
	go func() { // want `goroutine launched without a lifecycle`
		_ = s.fetch(url)
	}()
}

// withCtx observes a context: clean.
func (s *svc) withCtx(ctx context.Context, url string) {
	go func() {
		<-ctx.Done()
		_ = url
	}()
}

// withWait participates in a WaitGroup: clean.
func (s *svc) withWait(url string) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.fetch(url)
	}()
}

// withStop blocks on a stop channel: clean.
func (s *svc) withStop() {
	go func() {
		<-s.stop
	}()
}

// startHeartbeat's lifecycle lives in the named callee: clean.
func (s *svc) startHeartbeat() {
	go s.heartbeatLoop()
}

func (s *svc) heartbeatLoop() {
	for {
		select {
		case <-s.stop:
			return
		}
	}
}

// startWorker hands the goroutine a context: clean.
func (s *svc) startWorker(ctx context.Context) {
	go s.work(ctx)
}

func (s *svc) work(ctx context.Context) { <-ctx.Done() }
