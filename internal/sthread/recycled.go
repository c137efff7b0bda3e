// Recycled callgates (§3.3, §4.1): long-lived sthreads that amortize
// creation cost over many invocations. Invocation copies arguments into
// memory shared between caller and gate, wakes the gate through a futex,
// and waits on a second futex for completion — two futex operations instead
// of an sthread creation, which is what makes them roughly the cost of
// pthread creation in Figure 7.
//
// As the paper warns, recycling trades isolation for performance: the gate
// sthread's memory persists across invocations, so an exploited recycled
// gate serving multiple principals can leak one caller's arguments to
// another. NewRecycled documents this; callers choose.

package sthread

import (
	"fmt"
	"sync"

	"wedge/internal/kernel"
	"wedge/internal/policy"
	"wedge/internal/tags"
	"wedge/internal/vm"
)

// Control-page word offsets. The control page lives in a dedicated tag
// shared read-write between the caller-facing handle and the gate sthread.
const (
	rcGen  = 0  // generation counter: odd = request pending
	rcArg  = 8  // untrusted argument
	rcRet  = 16 // return value
	rcDone = 24 // completion counter
	rcStop = 32 // nonzero requests shutdown
)

// Recycled is a reusable callgate. It is created by a privileged sthread
// and can be invoked by any sthread that was granted its invocation spec.
type Recycled struct {
	Name string

	app     *App
	gate    *Sthread
	ctlTag  tags.Tag
	ctl     vm.Addr
	creator *Sthread

	// ring is non-nil for a batch-mode gate (NewRecycledBatch): the gate
	// drains a ring of argument blocks instead of serving one generation
	// word, and its control words live in the ring, not a private tag.
	ring *BatchRing

	// fn and trusted are the gate's entry point and kernel-held trusted
	// argument, retained for inline invocation (SetInlineCalls).
	fn      GateFunc
	trusted vm.Addr

	// mu serializes invocations: a recycled gate is one sthread and can
	// serve one caller at a time, as in the paper's futex protocol.
	mu sync.Mutex

	// inlineCalls runs Call bodies on the caller's goroutine (still in
	// the gate's task context) instead of through the futex handoff; see
	// SetInlineCalls.
	inlineCalls bool

	closed bool
}

// NewRecycled creates a long-lived callgate sthread running with policy
// gateSC (plus read-write access to an internal control tag), entered at
// fn for every invocation with the kernel-held trusted argument.
//
// Unlike a one-shot gate — which always runs with its creator's uid and
// filesystem root (§3.3) — a recycled gate honours gateSC.UID and
// gateSC.Root when set: a long-lived gate standing in for a per-connection
// worker (the pooled servers' recycled workers) must start each life
// confined, not with root's ambient authority. Only a root creator may
// confine this way, per the same Unix semantics as sthread creation.
func (s *Sthread) NewRecycled(name string, gateSC *policy.SC, fn GateFunc, trusted vm.Addr) (*Recycled, error) {
	if gateSC == nil {
		gateSC = policy.New()
	}
	if err := s.checkRecycledSC(name, gateSC); err != nil {
		return nil, err
	}

	// The control page: a dedicated tag so the grant is precise. Every
	// error path below retires it — a failed gate construction must not
	// strand a tag (or, further down, a prepared-but-never-started task).
	ctlTag, err := s.app.Tags.TagNew(s.Task)
	if err != nil {
		return nil, err
	}
	reg, err := s.app.Tags.Lookup(ctlTag)
	if err != nil {
		s.app.Tags.TagDelete(ctlTag)
		return nil, err
	}
	ctl := reg.Base + vm.Addr(vm.PageSize) // skip the allocator header page

	eff := gateSC.Clone()
	if err := eff.MemAdd(ctlTag, vm.PermRW); err != nil {
		s.app.Tags.TagDelete(ctlTag)
		return nil, err
	}

	gate, err := s.prepareConfinedGate(name, gateSC, eff)
	if err != nil {
		s.app.Tags.TagDelete(ctlTag)
		return nil, err
	}

	r := &Recycled{
		Name:    name,
		app:     s.app,
		gate:    gate,
		ctlTag:  ctlTag,
		ctl:     ctl,
		creator: s,
		fn:      fn,
		trusted: trusted,
	}

	gate.Task.Start(func(*kernel.Task) {
		r.serve(gate, fn, trusted)
	})
	return r, nil
}

// checkRecycledSC validates a recycled gate's requested policy against its
// creator: the policy must be a subset, and only a root creator may ask
// for uid/root confinement.
func (s *Sthread) checkRecycledSC(name string, gateSC *policy.SC) error {
	if err := gateSC.CheckSubsetOf(s.SC); err != nil {
		return fmt.Errorf("recycled %q: %w", name, err)
	}
	if (gateSC.UID != policy.InheritUID || gateSC.Root != "") && s.Task.UID != 0 {
		return ErrUIDEscalate
	}
	return nil
}

// prepareConfinedGate prepares a gate task running with the effective
// policy eff and applies gateSC's uid/root confinement before the task
// starts. On error the prepared task is retired — a failed construction
// must not strand it.
func (s *Sthread) prepareConfinedGate(name string, gateSC, eff *policy.SC) (*Sthread, error) {
	gate, err := s.prepareGate(name, eff, s)
	if err != nil {
		return nil, err
	}
	if gateSC.Root != "" {
		if err := s.Task.ChrootOn(gate.Task, gateSC.Root); err != nil {
			gate.Task.Exit(-1)
			return nil, err
		}
	}
	if gateSC.UID != policy.InheritUID {
		if err := s.Task.SetUIDOn(gate.Task, gateSC.UID); err != nil {
			gate.Task.Exit(-1)
			return nil, err
		}
	}
	return gate, nil
}

// serve is the gate sthread's loop: wait for a request generation, run the
// entry point, publish the return value, bump the completion counter.
func (r *Recycled) serve(g *Sthread, fn GateFunc, trusted vm.Addr) {
	// The generation, stop and completion words are spun on from both
	// sides of the gate, so they go through the kernel's atomic word
	// accessors — the stand-in for the atomic instructions a real futex
	// protocol uses. The argument and return words are plain accesses,
	// ordered by the atomic words on either side.
	var lastGen uint64
	for {
		// Wait until the caller bumps the generation past what we saw.
		for {
			gen, err := g.Task.AtomicLoad64(r.ctl + rcGen)
			if err != nil {
				return
			}
			if gen != lastGen {
				lastGen = gen
				break
			}
			if stop, err := g.Task.AtomicLoad64(r.ctl + rcStop); err != nil || stop != 0 {
				return
			}
			g.Task.FutexWaitVal(r.ctl+rcGen, uint32(gen))
		}
		if stop, err := g.Task.AtomicLoad64(r.ctl + rcStop); err != nil || stop != 0 {
			return
		}
		arg := vm.Addr(g.Load64(r.ctl + rcArg))
		ret := fn(g, arg, trusted)
		g.Store64(r.ctl+rcRet, uint64(ret))
		g.Task.AtomicStore64(r.ctl+rcDone, lastGen)
		g.Task.FutexWake(r.ctl+rcDone, 1)
	}
}

// SetInlineCalls switches Call/CallFD between the futex handoff and
// inline invocation. A classic Call is fully synchronous — the caller
// parks until the gate publishes its return value — so running the gate
// body directly on the caller's goroutine observes the same blocking
// semantics while skipping two context switches per invocation; the body
// still executes in the gate's task context (address space, credentials,
// descriptors), so protection is unchanged. This is the run-to-completion
// discipline of the batched dataplane extended to its nested gates; the
// futex protocol remains the default, as §4.1 specifies it.
//
// A body that faults kills the gate task exactly as the futex path does:
// the caller gets ErrGateExited and Alive turns false, so pool respawn
// logic is oblivious to the mode.
func (r *Recycled) SetInlineCalls(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inlineCalls = on
}

// invokeInline runs the gate body on the caller's goroutine; r.mu is
// held. A *vm.Fault panic reproduces the gate-death contract: the task
// exits with the fault recorded, the parked serve goroutine is told to
// stop, and the caller sees ErrGateExited — indistinguishable from a
// fault under the futex protocol.
func (r *Recycled) invokeInline(arg vm.Addr) (ret vm.Addr, err error) {
	defer func() {
		if p := recover(); p != nil {
			f, ok := p.(*vm.Fault)
			if !ok {
				panic(p)
			}
			r.gate.Task.ExitFault(f)
			// Reap the parked serve goroutine the way Close does. The
			// task is already dead, so Close can still run afterwards to
			// retire the control tag; the caller's error is ErrGateExited
			// whether or not the stop request lands.
			_ = r.stopServe()
			ret, err = 0, ErrGateExited
		}
	}()
	return r.fn(r.gate, arg, r.trusted), nil
}

// Sthread returns the gate's long-lived sthread. Pool schedulers use it
// to manage the compartment between invocations — the sshd pool demotes
// a promoted worker's uid and filesystem root before the slot can serve
// another principal.
func (r *Recycled) Sthread() *Sthread { return r.gate }

// Alive reports whether the gate sthread is still serving invocations. A
// recycled gate dies when its entry point faults; pool schedulers probe
// liveness before dispatch so a dead gate can be replaced instead of
// failing every caller sharded onto it.
func (r *Recycled) Alive() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	select {
	case <-r.gate.Task.Done():
		return false
	default:
		return true
	}
}

// Call invokes the recycled gate on behalf of caller: copy the argument
// word into shared memory, wake the gate, wait for completion. The paper's
// futex protocol, verbatim (§4.1).
func (r *Recycled) Call(caller *Sthread, arg vm.Addr) (vm.Addr, error) {
	return r.call(caller, arg, -1, 0)
}

// CallFD is Call with an argument descriptor: fd is granted to the gate
// sthread for the duration of the invocation and revoked when it
// completes. Standard callgates receive argument descriptors at each
// instantiation (§3.3); this is the recycled counterpart, the hook that
// lets a long-lived gate serve a different connection's descriptor on
// every invocation. The grant is kernel-mediated: the caller must itself
// hold fd with at least perm.
func (r *Recycled) CallFD(caller *Sthread, arg vm.Addr, fd int, perm kernel.FDPerm) (vm.Addr, error) {
	return r.call(caller, arg, fd, perm)
}

func (r *Recycled) call(caller *Sthread, arg vm.Addr, fd int, perm kernel.FDPerm) (vm.Addr, error) {
	if r.ring != nil {
		return 0, fmt.Errorf("recycled %q: batch-mode gate is invoked through its ring, not Call", r.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrGateExited
	}
	select {
	case <-r.gate.Task.Done():
		return 0, ErrGateExited
	default:
	}
	if fd >= 0 {
		if err := caller.Task.ShareFDTo(r.gate.Task, fd, perm); err != nil {
			return 0, err
		}
		// Revoke the argument descriptor once the invocation is over, as
		// a one-shot gate's exit would.
		defer r.gate.Task.CloseFD(fd)
	}
	r.app.Stats.RecycledCalls.Add(1)

	if r.inlineCalls {
		return r.invokeInline(arg)
	}

	// The control page is mapped in the creator; only callers (serialized
	// by r.mu) write the generation word, so its read stays plain, while
	// the words the gate spins on or writes are atomic.
	ct := r.creator.Task
	as := ct.AS
	gen, err := as.Load64(r.ctl + rcGen)
	if err != nil {
		return 0, err
	}
	next := gen + 1
	if err := as.Store64(r.ctl+rcArg, uint64(arg)); err != nil {
		return 0, err
	}
	if err := ct.AtomicStore64(r.ctl+rcGen, next); err != nil {
		return 0, err
	}
	ct.FutexWake(r.ctl+rcGen, 1)

	for {
		done, err := ct.AtomicLoad64(r.ctl + rcDone)
		if err != nil {
			return 0, err
		}
		if done == next {
			break
		}
		select {
		case <-r.gate.Task.Done():
			return 0, ErrGateExited
		default:
		}
		// Abort the sleep if the gate dies after the check above: a gate
		// faulting mid-invocation must not strand its caller.
		ct.FutexWaitAbort(r.ctl+rcDone, uint32(done), r.gate.Task.Done())
	}
	ret, err := as.Load64(r.ctl + rcRet)
	if err != nil {
		return 0, err
	}
	return vm.Addr(ret), nil
}

// Close shuts the gate sthread down and retires its control tag. A
// batch-mode gate has no private control tag — its stop word lives in
// the ring, and the ring's arena belongs to the caller.
func (r *Recycled) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	if r.ring != nil {
		if err := r.creator.Task.AtomicStore64(r.ring.base+brStop, 1); err != nil {
			return err
		}
		// The channel, not the wake, is what ends a park reliably: the
		// stop word is not the futex word, so a worker between its stop
		// check and its sleep would miss a bare FutexWake forever.
		close(r.ring.stopped)
		r.creator.Task.FutexWake(r.ring.base+brTail, 1)
		<-r.gate.Task.Done()
		return nil
	}
	if err := r.stopServe(); err != nil {
		return err
	}
	<-r.gate.Task.Done()
	return r.app.Tags.TagDelete(r.ctlTag)
}

// stopServe asks the serve loop to exit; r.mu is held, so no caller races
// the generation word. The stop word alone is not enough: it is not the
// futex word, so a gate between its stop check and its sleep would miss
// the wake and sleep forever. Bumping the generation after the stop store
// makes that sleep fail its value check, and the loop then sees the stop.
func (r *Recycled) stopServe() error {
	ct := r.creator.Task
	if err := ct.AtomicStore64(r.ctl+rcStop, 1); err != nil {
		return err
	}
	gen, err := ct.AtomicLoad64(r.ctl + rcGen)
	if err != nil {
		return err
	}
	if err := ct.AtomicStore64(r.ctl+rcGen, gen+1); err != nil {
		return err
	}
	ct.FutexWake(r.ctl+rcGen, 1)
	return nil
}
