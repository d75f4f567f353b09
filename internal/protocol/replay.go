package protocol

import "sync"

// DefaultReplayWindow is how many distinct delivery sequences a
// ReplayFilter remembers per origin when the window is not
// configured. It only needs to cover the sequences a sender can have
// in flight or queued for retry at once — far less than 4096 — so the
// default is generous without letting a single origin pin unbounded
// memory.
const DefaultReplayWindow = 4096

// ReplayFilter drops duplicate batch deliveries on an at-least-once
// path. Senders stamp each sealed batch with a per-origin delivery
// sequence (Sealer.SealSeq); when an acknowledgement is lost the
// sender retries the same sealed content with the same sequence, and
// the receiver routes the delivery through Accept to keep the retry
// from being counted twice. (Seen and Mark are the two halves of
// Accept for single-threaded callers; used as a pair across goroutines
// they let two copies of one delivery both pass Seen.)
//
// Memory is bounded: each origin keeps a FIFO window of the last
// `window` distinct sequences. Eviction is strictly by insertion
// order, so a corrupted or hostile sequence value (however large)
// displaces at most one oldest entry and can never invalidate the
// rest of the window — and the filter never reports "seen" for a
// sequence that was not marked, so a fresh batch is never falsely
// dropped. The tradeoff is that a replay older than the window is no
// longer recognized; windows are sized far above realistic in-flight
// counts. Sequence 0 means "unidentified" (a version-1 envelope) and
// is never tracked nor deduped.
//
// Safe for concurrent use.
type ReplayFilter struct {
	mu      sync.Mutex
	window  int
	origins map[string]*replayWindow
	dups    int64
	// claimed holds the deliveries Accept is applying right now; settled
	// wakes the concurrent copies of them waiting for the outcome.
	claimed map[replayKey]struct{}
	settled sync.Cond
}

type replayKey struct {
	origin string
	seq    uint64
}

// replayWindow is one origin's FIFO of recently seen sequences.
type replayWindow struct {
	ring []uint64
	head int
	seen map[uint64]struct{}
}

// NewReplayFilter builds a filter remembering the last `window`
// distinct sequences per origin (<= 0 selects DefaultReplayWindow).
func NewReplayFilter(window int) *ReplayFilter {
	if window <= 0 {
		window = DefaultReplayWindow
	}
	f := &ReplayFilter{
		window:  window,
		origins: make(map[string]*replayWindow),
		claimed: make(map[replayKey]struct{}),
	}
	f.settled.L = &f.mu
	return f
}

// Accept is the receive path's check-and-mark, atomic per delivery:
// it reports dup without calling apply when (origin, seq) already
// landed, and otherwise claims the delivery, runs apply, and marks it
// only if apply succeeded — marking earlier would blackhole the
// sender's retry of a delivery that failed to land. A concurrent copy
// of a claimed delivery (a timed-out send's retry overlapping its
// still-running original) waits for the claim to settle: it is a
// duplicate if the first copy landed and applies itself if that
// failed. seq 0 is unidentified: never claimed, always applied.
func (f *ReplayFilter) Accept(origin string, seq uint64, apply func() error) (dup bool, err error) {
	if seq == 0 {
		return false, apply()
	}
	key := replayKey{origin, seq}
	f.mu.Lock()
	for {
		if w, ok := f.origins[origin]; ok {
			if _, landed := w.seen[seq]; landed {
				f.dups++
				f.mu.Unlock()
				return true, nil
			}
		}
		if _, busy := f.claimed[key]; !busy {
			break
		}
		f.settled.Wait()
	}
	f.claimed[key] = struct{}{}
	f.mu.Unlock()

	err = apply()

	f.mu.Lock()
	delete(f.claimed, key)
	if err == nil {
		f.markLocked(origin, seq)
	}
	f.mu.Unlock()
	f.settled.Broadcast()
	return false, err
}

// Seen reports whether (origin, seq) was already marked — a duplicate
// delivery the receiver should acknowledge without re-ingesting. It
// also counts the duplicate when seen. seq 0 is never a duplicate.
func (f *ReplayFilter) Seen(origin string, seq uint64) bool {
	if seq == 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.origins[origin]
	if !ok {
		return false
	}
	if _, dup := w.seen[seq]; dup {
		f.dups++
		return true
	}
	return false
}

// Mark records (origin, seq) as delivered. Call it only after the
// batch was durably accepted: marking before a failed ingest would
// blackhole the sender's retry. Marking an already-seen sequence is a
// no-op.
func (f *ReplayFilter) Mark(origin string, seq uint64) {
	if seq == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.markLocked(origin, seq)
}

func (f *ReplayFilter) markLocked(origin string, seq uint64) {
	w, ok := f.origins[origin]
	if !ok {
		w = &replayWindow{
			ring: make([]uint64, 0, min(f.window, 64)),
			seen: make(map[uint64]struct{}),
		}
		f.origins[origin] = w
	}
	if _, dup := w.seen[seq]; dup {
		return
	}
	if len(w.ring) < f.window {
		w.ring = append(w.ring, seq)
	} else {
		delete(w.seen, w.ring[w.head])
		w.ring[w.head] = seq
		w.head = (w.head + 1) % f.window
	}
	w.seen[seq] = struct{}{}
}

// Duplicates returns how many duplicate deliveries the filter has
// suppressed.
func (f *ReplayFilter) Duplicates() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dups
}

// Dump returns every origin's remembered sequences in mark order —
// oldest first, exactly the order Restore must replay to reproduce
// the windows' eviction state. It is the persistence surface of a
// durable receiver: marks dumped into a snapshot survive a restart,
// so a recovered node still recognizes retried deliveries it deduped
// before the crash.
func (f *ReplayFilter) Dump() map[string][]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string][]uint64, len(f.origins))
	for origin, w := range f.origins {
		seqs := make([]uint64, 0, len(w.ring))
		if len(w.ring) < f.window {
			// Ring not yet wrapped: insertion order is slice order.
			seqs = append(seqs, w.ring...)
		} else {
			seqs = append(seqs, w.ring[w.head:]...)
			seqs = append(seqs, w.ring[:w.head]...)
		}
		out[origin] = seqs
	}
	return out
}

// Restore replays a Dump into the filter, preserving each origin's
// mark order (and therefore which sequences a full window would evict
// first). Restoring into a non-empty filter merges.
func (f *ReplayFilter) Restore(dump map[string][]uint64) {
	for origin, seqs := range dump {
		for _, seq := range seqs {
			f.Mark(origin, seq)
		}
	}
}
