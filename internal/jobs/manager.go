package jobs

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Job states as reported by /v1/jobs.
const (
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// maxActive bounds concurrently running jobs; submits past it are shed
// with serve.ErrOverloaded, which the HTTP layer maps to a retryable 429
// envelope.
const maxActive = 4

// maxFinished bounds how many finished jobs a Manager remembers: the most
// recent ones. A long-lived server otherwise holds every spec, tracker and
// result it ever saw. An evicted ID answers like an unknown one, and its
// checkpoint log is untouched, so resubmitting the spec still resumes.
const maxFinished = 64

// ManagerOptions configures a Manager.
type ManagerOptions struct {
	// CheckpointDir holds the checkpoint logs (required). It is also the one
	// directory a spec posted over HTTP can name files in (Spec.confine).
	CheckpointDir string
	// Rec threads observability through the engine. Nil disables it.
	Rec *obs.Recorder
}

// Manager runs jobs asynchronously and remembers them by ID — every running
// job and the maxFinished most recently finished: Submit is idempotent on the
// spec hash (re-posting a running job attaches to it; re-posting a finished
// one reruns it, which the checkpoint log turns into a no-op resume). It is
// the state the HTTP face exposes.
type Manager struct {
	eng  *Engine
	opts ManagerOptions

	mu       sync.Mutex
	jobs     map[string]*job
	active   int    // running jobs in jobs
	finished []*job // finished jobs in jobs, oldest first
}

// job is one tracked run.
type job struct {
	id      string
	spec    *Spec
	tracker *Tracker
	cancel  context.CancelFunc
	started time.Time

	mu     sync.Mutex
	state  string
	result *Result
	err    error
	wallS  float64
}

// Snapshot is the externally visible state of one job — the GET
// /v1/jobs/{id} body. The embedded Progress's keys sit between state and
// output.
type Snapshot struct {
	ID      string `json:"id"`
	Adapter string `json:"adapter"`
	State   string `json:"state"`
	Progress
	Output string  `json:"output,omitempty"`
	Error  string  `json:"error,omitempty"`
	WallS  float64 `json:"wall_s"`
}

// NewManager returns a manager running jobs against res.
func NewManager(res serve.Resolver, opts ManagerOptions) *Manager {
	return &Manager{
		eng:  &Engine{Res: res, CheckpointDir: opts.CheckpointDir, Rec: opts.Rec},
		opts: opts,
		jobs: map[string]*job{},
	}
}

// Submit starts (or attaches to) the job a spec describes. The returned
// bool reports whether a new run was started; false means an already
// running job with the same spec hash was attached instead.
func (m *Manager) Submit(sp *Spec) (Snapshot, bool, error) {
	id := sp.ID()
	m.mu.Lock()
	old, known := m.jobs[id]
	if known && old.stateNow() == StateRunning {
		m.mu.Unlock()
		return old.snapshot(), false, nil
	}
	if m.active >= maxActive {
		m.mu.Unlock()
		return Snapshot{}, false, fmt.Errorf("%w: %d jobs already running (max %d)", serve.ErrOverloaded, m.active, maxActive)
	}
	if known {
		m.finished = slices.DeleteFunc(m.finished, func(f *job) bool { return f == old })
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:      id,
		spec:    sp,
		tracker: &Tracker{},
		cancel:  cancel,
		started: time.Now(),
		state:   StateRunning,
	}
	m.jobs[id] = j
	m.active++
	m.opts.Rec.SetGauge("jobs.active", float64(m.active))
	m.mu.Unlock()

	m.opts.Rec.Count("jobs.submitted", 1)
	go m.run(ctx, j)
	return j.snapshot(), true, nil
}

// run plans and executes one job, recording its terminal state.
func (m *Manager) run(ctx context.Context, j *job) {
	defer j.cancel()
	res, err := func() (*Result, error) {
		p, perr := m.eng.Plan(j.spec)
		if perr != nil {
			return nil, perr
		}
		return m.eng.Run(ctx, p, j.tracker)
	}()
	// Count before publishing: a poller that sees the terminal state also
	// sees its counter. A finished job is the engine's jobs.completed.
	state := StateDone
	switch {
	case err == nil:
	case ctx.Err() != nil:
		state = StateCanceled
		m.opts.Rec.Count("jobs.canceled", 1)
	default:
		state = StateFailed
		m.opts.Rec.Count("jobs.failed", 1)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	j.mu.Lock()
	j.wallS = time.Since(j.started).Seconds()
	j.state, j.result, j.err = state, res, err
	j.mu.Unlock()
	m.active--
	m.opts.Rec.SetGauge("jobs.active", float64(m.active))
	if m.finished = append(m.finished, j); len(m.finished) > maxFinished {
		delete(m.jobs, m.finished[0].id)
		m.finished = slices.Delete(m.finished, 0, 1) // shifts down: the array never holds a forgotten job
	}
}

// Get returns the snapshot of one job by ID.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshot(), true
}

// List returns every remembered job, ordered by ID (deterministic output).
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	out := make([]Snapshot, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.snapshot())
	}
	m.mu.Unlock()
	slices.SortFunc(out, func(a, b Snapshot) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// Cancel stops a running job (its checkpoint log keeps the committed
// shards, so a later submit resumes it). Canceling a finished job is a
// no-op; an unknown ID reports false.
func (m *Manager) Cancel(id string) (Snapshot, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Snapshot{}, false
	}
	j.cancel()
	return j.snapshot(), true
}

// stateNow reads the job's state under its lock.
func (j *job) stateNow() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// snapshot assembles the externally visible view of the job.
func (j *job) snapshot() Snapshot {
	pr := j.tracker.Progress()
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:       j.id,
		Adapter:  j.spec.Adapter,
		State:    j.state,
		Progress: pr,
		WallS:    j.wallS,
	}
	if j.state == StateRunning {
		s.WallS = time.Since(j.started).Seconds()
	}
	if j.result != nil {
		s.Output = j.result.Output
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}
