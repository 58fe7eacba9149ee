package main

// The run plumbing every subcommand shares: messages, flag parsing, the
// signal context, journals, the debug server, and the exit policy.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/harness"
	"repro/internal/obs"
)

// prog prefixes every stderr message: "kpart <subcommand>".
var prog = "kpart"

// logf writes one prog-prefixed line to stderr.
func logf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog, fmt.Sprintf(format, a...))
}

// newFlags returns a subcommand's flag set; parseFlags reports its errors.
func newFlags() *flag.FlagSet {
	return flag.NewFlagSet(prog, flag.ContinueOnError)
}

// parseFlags parses args into fs and refuses any int flag named in min whose
// value is below its minimum there.
func parseFlags(fs *flag.FlagSet, args []string, min map[string]int) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errReported
	}
	var err error
	fs.VisitAll(func(f *flag.Flag) {
		m, ok := min[f.Name]
		if !ok || err != nil {
			return
		}
		if v := f.Value.(flag.Getter).Get().(int); v < m {
			err = usagef("-%s %d is below its minimum %d", f.Name, v, m)
		}
	})
	return err
}

// usageError is an argument refused before any work started.
type usageError struct{ error }

// errReported is an argument error the flag set has already printed,
// together with the usage.
var errReported = usageError{errors.New("invalid arguments")}

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// errVerdict is a negative verdict the subcommand has already reported.
var errVerdict = errors.New("negative verdict")

// exitCode reports err and maps it to kpart's exit status.
func exitCode(err error) int {
	var ue usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		if ue != errReported {
			logf("%v", ue.error)
		}
		return 2
	case errors.Is(err, context.Canceled):
		logf("interrupted")
		return 130
	case errors.Is(err, errVerdict):
		return 1
	}
	logf("%v", err)
	return 1
}

// signalContext returns a subcommand's context. For an interruptible
// subcommand the first SIGINT/SIGTERM cancels it: dispatch stops,
// in-flight trials abort at their next poll, and completed ones are
// already journaled.
func signalContext(interruptible bool) (context.Context, context.CancelFunc) {
	if !interruptible {
		return context.Background(), func() {}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop() // a second signal kills the process the default way
	}()
	return ctx, stop
}

// openJournal creates the journal at path, or with resume reopens it and
// reports how many trials it already holds. meta names the campaign: a
// journal written under another meta is refused.
func openJournal(path, meta string, resume bool) (*harness.Journal, error) {
	if !resume {
		return harness.CreateJournal(path, meta)
	}
	j, err := harness.OpenJournal(path, meta)
	if err == nil && j.Len() > 0 {
		logf("resuming, %d trials already journaled in %s", j.Len(), path)
	}
	return j, err
}

// journaled runs f with the journal openJournal opens, or with nil when
// path is empty, and closes the journal before returning. After a
// cancelled run it says where the completed trials are.
func journaled(path, meta string, resume bool, f func(*harness.Journal) error) error {
	if path == "" {
		return f(nil)
	}
	j, err := openJournal(path, meta, resume)
	if err != nil {
		return err
	}
	err = f(j)
	if cerr := j.Close(); cerr != nil {
		// A failed close means the saved trials may be torn.
		if err == nil {
			return cerr
		}
		logf("closing journal %s: %v", path, cerr)
	}
	if errors.Is(err, context.Canceled) {
		logf("completed trials saved in %s — rerun with -resume to continue", path)
	}
	return err
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// registry returns the obs registry name, enabled and published on
// /debug/vars and /metrics, when on; otherwise the no-op registry.
func registry(name string, on bool) *obs.Registry {
	if !on {
		return obs.Nop()
	}
	reg := obs.New(name)
	reg.PublishExpvar()
	reg.PublishPrometheus()
	return reg
}

// serveDebug starts the -debug-addr server (pprof, /debug/vars,
// /metrics) when addr is set.
func serveDebug(addr string) error {
	if addr == "" {
		return nil
	}
	ln, err := obs.ServeDebug(addr)
	if err != nil {
		return err
	}
	logf("debug server on http://%s/debug/pprof", ln.Addr())
	return nil
}
