// Golden input for the atomicfield analyzer: sync/atomic's functions
// are findings wherever they appear, its typed values never are.
package counters

import "sync/atomic"

type Stats struct {
	hits uint64
	safe atomic.Uint64
	last atomic.Pointer[string]
}

func (s *Stats) Incr() {
	atomic.AddUint64(&s.hits, 1) // want `atomic.AddUint64 works on a plain variable`
}

// Even a variable touched only through the functions is a finding: the
// next edit can add a plain read, and nothing would stop it.
func (s *Stats) Read() uint64 {
	return atomic.LoadUint64(&s.hits) // want `atomic.LoadUint64`
}

// A function value is as much a use as a call.
var add = atomic.AddInt64 // want `atomic.AddInt64`

// The typed atomics are safe by construction: every method is atomic,
// and a plain access does not compile.
func (s *Stats) SafeIncr()        { s.safe.Add(1) }
func (s *Stats) SafeRead() uint64 { return s.safe.Load() }
func (s *Stats) Note(msg string)  { s.last.Store(&msg) }

// A plain field never used atomically is none of this analyzer's
// business.
type Plain struct{ n int }

func (p *Plain) Bump() { p.n++ }
