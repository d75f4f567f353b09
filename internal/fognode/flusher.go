package fognode

import (
	"context"
	"sync"
	"time"
)

// lifecycle holds the background-flusher state shared by Node and the
// cloud node.
type lifecycle struct {
	mu      sync.Mutex
	running bool
	stopped bool
	stop    chan struct{}
	done    chan struct{}
}

func newLifecycle() *lifecycle {
	return &lifecycle{
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// begin marks the worker started; returns false if already started or
// already stopped.
func (l *lifecycle) begin() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.running || l.stopped {
		return false
	}
	l.running = true
	return true
}

// end signals the worker to stop and waits for it if it was running.
func (l *lifecycle) end() {
	l.mu.Lock()
	wasRunning := l.running
	alreadyStopped := l.stopped
	l.running = false
	l.stopped = true
	l.mu.Unlock()
	if !alreadyStopped {
		close(l.stop)
	}
	if wasRunning {
		<-l.done
	}
}

// Start launches the background flusher, which moves pending data
// upward every FlushInterval — the paper's periodic upward data
// movement whose frequency is a tunable of the architecture. Start is
// idempotent; starting after Close is a no-op.
func (n *Node) Start() {
	if !n.lc.begin() {
		return
	}
	go n.run()
}

// run is the flusher goroutine: one flush every FlushInterval. It
// exits when Close is called.
func (n *Node) run() {
	defer close(n.lc.done)
	timer := time.NewTimer(n.cfg.FlushInterval)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			// Flush errors leave data queued for the next tick;
			// the flush-error counter records them for operators.
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.FlushInterval)
			_ = n.Flush(ctx)
			cancel()
			timer.Reset(n.cfg.FlushInterval)
		case <-n.lc.stop:
			return
		}
	}
}

// Close stops the background flusher (if running), waits for it to
// exit, then performs a final synchronous flush so no pending data is
// lost on shutdown. A durable node additionally writes a final
// checkpoint and closes its journal, so the next start recovers from
// the snapshot alone. Safe to call multiple times.
func (n *Node) Close(ctx context.Context) error {
	n.lc.end()
	var err error
	if n.cfg.Spec.Parent != "" || n.PendingBatches() > 0 {
		err = n.Flush(ctx)
	}
	if cerr := n.dur.Close(n.Checkpoint); err == nil {
		err = cerr
	}
	return err
}

// Discard tears the node down with crash semantics: the background
// flusher (if any) is stopped, but nothing is flushed or
// checkpointed — the journal file handle is simply released, leaving
// the on-disk state exactly as the last append left it. Used when an
// instance is replaced by a restart simulation; a real crash gets the
// same on-disk picture without the courtesy of the close.
func (n *Node) Discard() {
	n.lc.end()
	n.dur.Discard()
}
