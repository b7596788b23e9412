// Package sched is the workload manager: concurrency-aware admission
// control with optional time-batching.
//
// §4.2 of the paper argues the big energy levers are workload-level —
// deciding *when* work runs and *how much hardware* it may occupy, across
// concurrent queries. The Admission controller owns both decisions:
//
//   - Concurrency. It tracks the server's simulated cores. A job asks for
//     up to `want` cores and is granted its share of the currently free
//     ones at admission time — a lone query gets the whole box and plans
//     wide, while under a saturating multi-stream load every query is
//     granted one core and plans serial, so inter- and intra-query
//     parallelism coexist without oversubscribing the cost model's
//     assumptions. When no core is free, arrivals queue FIFO.
//
//   - Batching (grown out of the earlier Batcher). A nonzero Window holds
//     arrivals for that many seconds from the first held job and releases
//     them together, consolidating activity so the gaps between bursts
//     grow long enough for disks to spin down — at the cost of latency.
//
// Which queued job dispatches next, and how many cores it is granted, is
// delegated to a pluggable Policy (policy.go): FIFO with fair-share
// grants (the default), earliest-deadline-first, or the consolidating
// energy-aware policy. The controller additionally supports *re-grant on
// completion*: when a job finishes and leaves cores free with nothing
// queued, running jobs that registered a widen callback are offered the
// freed cores in admission order, so a query admitted narrow on a busy
// box can widen its live pipeline in place once the box drains.
package sched

import (
	"fmt"

	"energydb/internal/fault"
	"energydb/internal/sim"
)

// Ticket is one submitted job's admission record.
type Ticket struct {
	ID       int64
	Name     string
	Want     int     // cores requested (clamped to [1, TotalCores])
	Granted  int     // cores granted at admission; 0 while held or queued
	Deadline float64 // absolute engine time; 0 = none
	Tag      string  // compatibility tag for consolidating policies; "" = untagged

	run       func(p *sim.Proc, granted int)
	fail      func(err error)
	widen     func(free int) int
	submitted float64
	admitted  float64
	finished  float64
	canceled  bool
	running   bool
}

// Wait reports the delay between submission and admission.
func (t *Ticket) Wait() float64 { return t.admitted - t.submitted }

// Running reports whether the ticket's job has been dispatched and has
// not yet completed.
func (t *Ticket) Running() bool { return t.running }

// Stats summarises the controller's history.
type Stats struct {
	Submitted    int64
	Completed    int64   // jobs that ran to completion (never canceled/expired ones)
	Canceled     int64   // jobs dequeued by Cancel before ever running
	Expired      int64   // jobs rejected because their deadline passed while queued
	Batches      int64   // window releases (window > 0 only)
	Waited       int64   // jobs admitted strictly later than submitted
	TotalWait    float64 // time between submission and admission
	TotalLatency float64 // time between submission and completion
	PeakActive   int     // most jobs running at once
	PeakQueue    int     // deepest admission queue
	Regrants     int64   // widen offers accepted by running jobs
	RegrantCores int64   // cores handed out through accepted widen offers
}

// MeanWait reports the average queueing delay added by admission.
func (s Stats) MeanWait() float64 {
	if s.Completed == 0 {
		return 0
	}
	return s.TotalWait / float64(s.Completed)
}

// MeanLatency reports the average submission-to-completion time.
func (s Stats) MeanLatency() float64 {
	if s.Completed == 0 {
		return 0
	}
	return s.TotalLatency / float64(s.Completed)
}

// Admission is the engine-resident admission controller. It is not safe
// for use outside the owning engine's single-threaded discipline; Submit
// may be called from event context, from a process, or from ordinary code
// before the engine is pumped.
type Admission struct {
	eng *sim.Engine

	// TotalCores is the capacity grants are drawn from (the server's
	// simulated cores).
	TotalCores int
	// Window, when positive, holds arrivals for that many seconds from
	// the first held job and releases them together (admission batching).
	Window float64
	// ReGrant enables widen offers: when a completion leaves cores free
	// and the queue empty, running tickets that registered a widen
	// callback are offered the freed cores in admission order.
	ReGrant bool

	policy   Policy
	nextID   int64
	free     int
	active   int
	holding  []*Ticket // waiting for the window to close
	queue    []*Ticket // released, waiting for a free core
	running  []*Ticket // dispatched, not yet complete (admission order)
	armed    bool      // a dispatch event is pending
	windowed bool      // a window-release event is pending
	offering bool      // a widen-offer event is pending
	stats    Stats
}

// NewAdmission returns a controller over cores simulated cores using the
// FIFO fair-share policy.
func NewAdmission(eng *sim.Engine, cores int, window float64) *Admission {
	return NewAdmissionPolicy(eng, cores, window, FIFO{})
}

// NewAdmissionPolicy returns a controller dispatching under the given
// policy.
func NewAdmissionPolicy(eng *sim.Engine, cores int, window float64, pol Policy) *Admission {
	if cores < 1 {
		panic(fmt.Sprintf("sched: %d cores", cores))
	}
	if pol == nil {
		pol = FIFO{}
	}
	return &Admission{eng: eng, TotalCores: cores, Window: window, policy: pol, free: cores}
}

// Stats returns a copy of the counters.
func (a *Admission) Stats() Stats { return a.stats }

// Policy returns the dispatch policy in force.
func (a *Admission) Policy() Policy { return a.policy }

// Active reports how many admitted jobs are currently running.
func (a *Admission) Active() int { return a.active }

// FreeCores reports the cores not granted to any running job.
func (a *Admission) FreeCores() int { return a.free }

// Queued reports jobs released from the window but not yet admitted.
func (a *Admission) Queued() int { return len(a.queue) }

// Job describes a submission with the full lifecycle surface: an
// optional absolute deadline and an optional failure callback invoked
// (in event context) if the job is rejected before it ever runs —
// because its deadline passed while it was queued or held.
type Job struct {
	Name     string
	Want     int     // cores requested (clamped to [1, TotalCores])
	Deadline float64 // absolute engine time; 0 = none
	Tag      string  // compatibility tag (e.g. statement text); "" = untagged
	Run      func(p *sim.Proc, granted int)
	Fail     func(err error)
}

// Submit offers a job wanting up to want cores. The job starts when the
// window (if any) closes and a core is free; run receives its own
// simulated process and the number of cores granted. Submit returns the
// ticket, whose Granted field is filled at admission.
func (a *Admission) Submit(name string, want int, run func(p *sim.Proc, granted int)) *Ticket {
	return a.SubmitJob(Job{Name: name, Want: want, Run: run})
}

// SubmitJob is Submit with deadline and failure-callback support. A job
// whose deadline passes while it is still queued or held never runs: it
// leaves the queue, counts as Expired (not Completed), and its Fail
// callback fires with fault.ErrDeadlineExceeded. Deadline enforcement
// for *running* jobs belongs to the session layer, which owns the
// query's cancel flag.
func (a *Admission) SubmitJob(j Job) *Ticket {
	a.nextID++
	want := j.Want
	if want < 1 {
		want = 1
	}
	if want > a.TotalCores {
		want = a.TotalCores
	}
	t := &Ticket{ID: a.nextID, Name: j.Name, Want: want, Deadline: j.Deadline,
		Tag: j.Tag, run: j.Run, fail: j.Fail, submitted: a.eng.Now()}
	a.stats.Submitted++
	if t.Deadline > 0 {
		at := t.Deadline
		if at < a.eng.Now() {
			at = a.eng.Now()
		}
		a.eng.At(at, "sched-deadline", func() { a.expire(t) })
	}
	if a.Window > 0 {
		a.holding = append(a.holding, t)
		if !a.windowed {
			a.windowed = true
			a.eng.After(a.Window, "sched-window", func() { a.release() })
		}
		return t
	}
	a.queue = append(a.queue, t)
	if len(a.queue) > a.stats.PeakQueue {
		a.stats.PeakQueue = len(a.queue)
	}
	a.armDispatch()
	return t
}

// Cancel removes a ticket that has not started running from the queue
// (or the window hold), reporting whether it was dequeued. A canceled
// ticket never dispatches and is not counted as completed. Canceling a
// running or finished ticket reports false and does nothing — running
// work is stopped through the job's own cancellation path.
func (a *Admission) Cancel(t *Ticket) bool {
	if t.running || t.canceled {
		return false
	}
	if !a.remove(t) {
		return false
	}
	t.canceled = true
	a.stats.Canceled++
	return true
}

// expire rejects a ticket whose deadline passed while it was waiting.
func (a *Admission) expire(t *Ticket) {
	if t.running || t.canceled {
		return
	}
	if !a.remove(t) {
		return
	}
	t.canceled = true
	a.stats.Expired++
	if t.fail != nil {
		t.fail(fmt.Errorf("sched: %s queued past its deadline (%.6f): %w",
			t.Name, t.Deadline, fault.ErrDeadlineExceeded))
	}
}

// remove deletes t from the queue or the window hold, reporting success.
func (a *Admission) remove(t *Ticket) bool {
	for i, q := range a.queue {
		if q == t {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			return true
		}
	}
	for i, h := range a.holding {
		if h == t {
			a.holding = append(a.holding[:i], a.holding[i+1:]...)
			return true
		}
	}
	return false
}

// Reset forcibly returns the controller to an empty, all-cores-free
// state after Engine.Crash has unwound every running job. Queued and
// held tickets are dropped without callbacks — the crash path fails
// their owners directly.
func (a *Admission) Reset() {
	a.free = a.TotalCores
	a.active = 0
	a.queue = nil
	a.holding = nil
	a.running = nil
	a.armed = false
	a.windowed = false
	a.offering = false
}

// release moves the held window batch to the admission queue.
func (a *Admission) release() {
	a.windowed = false
	if len(a.holding) == 0 {
		return
	}
	a.stats.Batches++
	a.queue = append(a.queue, a.holding...)
	a.holding = nil
	if len(a.queue) > a.stats.PeakQueue {
		a.stats.PeakQueue = len(a.queue)
	}
	a.dispatch()
}

// armDispatch schedules one dispatch at the current instant, so all
// same-instant submissions are granted together under one fair share.
func (a *Admission) armDispatch() {
	if a.armed {
		return
	}
	a.armed = true
	a.eng.After(0, "sched-dispatch", func() {
		a.armed = false
		a.dispatch()
	})
}

// dispatch admits queued jobs while cores are free. The policy picks
// which queued job goes next (or holds the queue); the grant is the
// policy's, clamped to [1, free]. Under the default FIFO policy this is
// the historical behaviour: arrival order with fair-share grants —
// min(want, totalCores/(active+queued), free), never less than one — so
// grants come only from free cores, a lone query gets them all, and a
// saturating stream load degrades to one core per query.
func (a *Admission) dispatch() {
	for len(a.queue) > 0 && a.free > 0 {
		i := a.policy.Select(a.eng.Now(), a.queue, a.running, a.free, a.TotalCores)
		if i < 0 || i >= len(a.queue) {
			if a.active > 0 {
				break // policy holds the queue; a completion re-arms dispatch
			}
			i = 0 // starvation guard: never hold work on an idle box
		}
		t := a.queue[i]
		if t.Deadline > 0 && t.Deadline <= a.eng.Now() {
			// Already past its deadline at dispatch time: reject rather
			// than start work that can only be thrown away.
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			t.canceled = true
			a.stats.Expired++
			if t.fail != nil {
				t.fail(fmt.Errorf("sched: %s queued past its deadline (%.6f): %w",
					t.Name, t.Deadline, fault.ErrDeadlineExceeded))
			}
			continue
		}
		g := a.policy.Grant(t, a.eng.Now(), a.free, a.TotalCores, a.active, len(a.queue))
		if g < 1 {
			g = 1
		}
		if a.free < g {
			g = a.free
		}
		a.queue = append(a.queue[:i], a.queue[i+1:]...)
		a.free -= g
		a.active++
		if a.active > a.stats.PeakActive {
			a.stats.PeakActive = a.active
		}
		t.Granted = g
		t.running = true
		t.admitted = a.eng.Now()
		if t.admitted > t.submitted {
			a.stats.Waited++
		}
		a.stats.TotalWait += t.admitted - t.submitted
		a.running = append(a.running, t)
		a.eng.Go(t.Name, func(p *sim.Proc) {
			t.run(p, t.Granted)
			a.complete(t)
		})
	}
}

// SetWiden registers a running ticket's widen callback. When a completion
// leaves cores free and nothing queued (and ReGrant is enabled), the
// callback is offered the free cores and returns how many it accepts —
// the session hands them to its live pipeline's exchange, which spawns
// that many extra fragments (exec.Widener). It must return between 0 and
// the offer; the controller applies the acceptance to the ticket's
// grant. Pass nil to deregister.
func (a *Admission) SetWiden(t *Ticket, fn func(free int) int) { t.widen = fn }

// Shrink returns part of a running job's grant to the free pool — a
// query whose chosen plan uses fewer cores than it was granted gives the
// remainder back as soon as the plan is known, so staggered arrivals are
// not serialized behind grants nobody uses. The ticket keeps holding `to`
// cores (floor one) until completion.
func (a *Admission) Shrink(t *Ticket, to int) {
	if to < 1 {
		to = 1
	}
	if to >= t.Granted {
		return
	}
	a.free += t.Granted - to
	t.Granted = to
	if len(a.queue) > 0 {
		a.armDispatch()
	}
}

// complete returns a finished job's cores and admits waiting work. When
// nothing is queued and re-grant is enabled, the freed cores are instead
// offered to the jobs still running.
func (a *Admission) complete(t *Ticket) {
	t.finished = a.eng.Now()
	t.running = false
	t.widen = nil
	a.free += t.Granted
	a.active--
	a.stats.Completed++
	a.stats.TotalLatency += t.finished - t.submitted
	for i, r := range a.running {
		if r == t {
			a.running = append(a.running[:i], a.running[i+1:]...)
			break
		}
	}
	if len(a.queue) > 0 {
		a.armDispatch()
		return
	}
	if a.ReGrant && a.free > 0 && len(a.running) > 0 && !a.offering {
		a.offering = true
		a.eng.After(0, "sched-regrant", func() {
			a.offering = false
			a.offerWiden()
		})
	}
}

// offerWiden hands freed cores to running tickets in admission order.
// Each widen callback sees the cores still free and accepts some prefix
// of them; the controller moves the acceptance from the free pool onto
// the ticket's grant. Offers are only made when the queue is empty —
// queued work always has first claim on freed cores.
func (a *Admission) offerWiden() {
	if a.free <= 0 || len(a.queue) > 0 || len(a.holding) > 0 {
		return
	}
	for _, t := range a.running {
		if a.free <= 0 {
			break
		}
		if t.widen == nil || !t.running {
			continue
		}
		got := t.widen(a.free)
		if got <= 0 {
			continue
		}
		if got > a.free {
			got = a.free
		}
		a.free -= got
		t.Granted += got
		a.stats.Regrants++
		a.stats.RegrantCores += int64(got)
	}
}
