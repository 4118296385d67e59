// Package serve turns the PEI simulator into a long-running service:
// an HTTP job API (submit / poll / stream / cancel), a bounded queue
// feeding a worker pool built on pei.RunJob, a content-addressed LRU
// result cache keyed on pei.JobSpec digests, and a Prometheus /metrics
// surface. cmd/peiserved is the binary front-end.
package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"pimsim/pei"
)

// JobState is the lifecycle phase of a submitted job.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker (or for an identical
	// in-flight job it coalesced onto).
	StateQueued JobState = "queued"
	// StateRunning: a worker is simulating it.
	StateRunning JobState = "running"
	// StateDone: finished successfully; Result holds the rendered output.
	StateDone JobState = "done"
	// StateFailed: the run returned an error.
	StateFailed JobState = "failed"
	// StateCancelled: cancelled via DELETE before completing.
	StateCancelled JobState = "cancelled"
)

func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one submission. All mutable fields are guarded by mu; the
// events log and done channel have their own synchronization.
type Job struct {
	ID     string
	Spec   pei.JobSpec
	Digest string

	mu        sync.Mutex
	state     JobState
	output    []byte
	errMsg    string
	cacheHit  bool
	created   time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // set while running
	cancelled bool               // cancel requested (any state)
	followers []*Job             // coalesced duplicates (leader only)

	events *eventLog
	done   chan struct{} // closed on terminal transition
}

// jobView is the API representation of a Job.
type jobView struct {
	ID        string      `json:"id"`
	State     JobState    `json:"state"`
	Digest    string      `json:"digest"`
	Spec      pei.JobSpec `json:"spec"`
	CacheHit  bool        `json:"cacheHit"`
	Created   time.Time   `json:"created"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
	Error     string      `json:"error,omitempty"`
	ResultURL string      `json:"resultUrl,omitempty"`
}

func (j *Job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:       j.ID,
		State:    j.state,
		Digest:   j.Digest,
		Spec:     j.Spec,
		CacheHit: j.cacheHit,
		Created:  j.created,
		Error:    j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.state == StateDone {
		v.ResultURL = "/v1/jobs/" + j.ID + "/result"
	}
	return v
}

// setState transitions the job and appends a state event; terminal
// transitions close done and the event stream. count, if non-nil, runs
// exactly once per accepted transition, before any reader can observe
// the new state, so a counter it bumps never lags the visible state.
// Returns false if the job was already terminal.
func (j *Job) setState(state JobState, now time.Time, count func()) bool {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return false
	}
	if count != nil {
		count()
	}
	j.state = state
	switch state {
	case StateRunning:
		j.started = now
	case StateDone, StateFailed, StateCancelled:
		j.finished = now
	}
	j.mu.Unlock()
	j.events.append("state", map[string]any{"state": state})
	if state.terminal() {
		j.events.close()
		close(j.done)
	}
	return true
}

// event is one server-sent event: a name and a JSON payload.
type event struct {
	name string
	data []byte
}

// eventLog is an append-only broadcast log. Writers append; any number
// of readers replay from an index and block for more via the wake
// channel. Closing marks the log complete, waking all readers.
type eventLog struct {
	mu     sync.Mutex
	events []event
	closed bool
	wake   chan struct{}
}

func newEventLog() *eventLog { return &eventLog{wake: make(chan struct{})} }

func (l *eventLog) append(name string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.events = append(l.events, event{name: name, data: data})
	close(l.wake)
	l.wake = make(chan struct{})
}

func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.wake)
	l.wake = make(chan struct{})
}

// next returns the events at and after index i, whether the log is
// complete, and a channel that is closed on the next append or close —
// wait on it when events is empty and closed is false.
func (l *eventLog) next(i int) (evs []event, closed bool, wake <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i < len(l.events) {
		evs = l.events[i:]
	}
	return evs, l.closed, l.wake
}
