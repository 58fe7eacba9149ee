// Package harness is the ctxflow golden fixture: an exported *Ctx
// entry point (the root) reaching helpers with unbounded loops and
// blocking channel operations, in every accept/poll combination the
// analyzer distinguishes.
package harness

import "context"

// RunTrialCtx is the root entry point; everything below is reachable
// from it.
func RunTrialCtx(ctx context.Context, ch chan int) {
	spinNoCtx()
	spinNoPoll(ctx)
	spinPolls(ctx)
	spinTransitive(ctx)
	recvNoCtx(ch)
	boundedLoop(ctx)
	spinAllowed()
	carrier{ctx: ctx}.spinViaField()
}

// spinNoCtx cannot receive a context at all.
func spinNoCtx() {
	for { // want `harness\.spinNoCtx is reachable from harness\.RunTrialCtx and contains a loop with no condition but cannot receive a context\.Context`
	}
}

// spinNoPoll accepts a context but never looks at it.
func spinNoPoll(ctx context.Context) {
	_ = ctx
	for { // want `harness\.spinNoPoll is reachable from harness\.RunTrialCtx and contains a loop with no condition but never polls its context`
	}
}

// spinPolls is the shape the invariant wants: loop, poll, bail.
func spinPolls(ctx context.Context) {
	for {
		if ctx.Err() != nil {
			return
		}
	}
}

// spinTransitive polls through a callee; the closure over call edges
// must see through shouldStop.
func spinTransitive(ctx context.Context) {
	for {
		if shouldStop(ctx) {
			return
		}
	}
}

func shouldStop(ctx context.Context) bool {
	return ctx.Err() != nil
}

// recvNoCtx blocks on a bare channel receive with no way to get a
// context.
func recvNoCtx(ch chan int) {
	<-ch // want `harness\.recvNoCtx is reachable from harness\.RunTrialCtx and contains a blocking channel receive but cannot receive a context\.Context`
}

// boundedLoop has a condition; nothing to report.
func boundedLoop(ctx context.Context) {
	for i := 0; i < 10; i++ {
		_ = ctx
	}
}

// spinAllowed carries a function-scoped suppression: the directive on
// the declaration line silences the interprocedural finding inside the
// body.
func spinAllowed() { //lint:allow ctxflow -- fixture: terminates by an argument the analyzer cannot see
	for {
	}
}

// carrier holds a context in a struct field; methods on it count as
// able to receive one.
type carrier struct {
	ctx context.Context
}

func (c carrier) spinViaField() {
	for {
		if c.ctx.Err() != nil {
			return
		}
	}
}

// step is a named function type.
type step func(ctx context.Context)

// RunStepCtx is a second root; it reaches spinViaNamed only by calling
// through step.
func RunStepCtx(ctx context.Context) {
	var f step = spinViaNamed
	f(ctx)
}

func spinViaNamed(ctx context.Context) {
	_ = ctx
	for { // want `harness\.spinViaNamed is reachable from harness\.RunStepCtx and contains a loop with no condition but never polls its context`
	}
}

// orphan is not reachable from any root; its loop is out of scope.
func orphan() {
	for {
	}
}
