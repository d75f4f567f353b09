package protocol

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"f2c/internal/aggregate"
)

// TestReplayFilterDumpRestore: a restored filter reproduces the
// original windows — same dedup answers and same eviction order — so
// a recovered receiver still recognizes pre-crash deliveries.
func TestReplayFilterDumpRestore(t *testing.T) {
	f := NewReplayFilter(4)
	for seq := uint64(1); seq <= 6; seq++ { // 5 and 6 evict 1 and 2
		f.Mark("origin-a", seq)
	}
	f.Mark("origin-b", 42)

	re := NewReplayFilter(4)
	re.Restore(f.Dump())

	for _, tc := range []struct {
		origin string
		seq    uint64
		want   bool
	}{
		{"origin-a", 1, false}, // evicted before the dump
		{"origin-a", 2, false},
		{"origin-a", 3, true},
		{"origin-a", 6, true},
		{"origin-b", 42, true},
		{"origin-b", 7, false},
		{"origin-c", 3, false},
	} {
		if got := re.Seen(tc.origin, tc.seq); got != tc.want {
			t.Errorf("restored Seen(%s, %d) = %v, want %v", tc.origin, tc.seq, got, tc.want)
		}
	}

	// Eviction order survives the round trip: the next mark past the
	// window must evict the restored window's oldest entry (3).
	re.Mark("origin-a", 7)
	if re.Seen("origin-a", 3) {
		t.Error("restored window evicted the wrong entry: 3 should be the oldest")
	}
	if !re.Seen("origin-a", 4) {
		t.Error("entry 4 lost after one post-restore eviction")
	}
}

// TestSealSeqRoundTrip checks the version-2 envelope: the delivery
// sequence survives the trip, the batch bytes stay intact, and the
// sequence-blind opener still accepts the payload.
func TestSealSeqRoundTrip(t *testing.T) {
	for _, codec := range []aggregate.Codec{aggregate.CodecNone, aggregate.CodecFlate, aggregate.CodecGzip, aggregate.CodecZip} {
		t.Run(codec.String(), func(t *testing.T) {
			var s Sealer
			payload, err := s.SealSeq(nil, sampleBatch(), codec, 42)
			if err != nil {
				t.Fatal(err)
			}
			b, gotCodec, seq, err := DecodeBatchPayloadSeq(payload)
			if err != nil {
				t.Fatal(err)
			}
			if seq != 42 || gotCodec != codec {
				t.Errorf("seq=%d codec=%v, want 42/%v", seq, gotCodec, codec)
			}
			if b.NodeID != "fog1/d01-s01" || len(b.Readings) != 2 {
				t.Errorf("batch = %+v", b)
			}
			// The sequence-blind opener accepts v2 envelopes too.
			if b2, _, err := DecodeBatchPayload(payload); err != nil || len(b2.Readings) != 2 {
				t.Errorf("DecodeBatchPayload(v2) = %+v, %v", b2, err)
			}
		})
	}
}

// TestSealSeqTruncatedHeader rejects a v2 envelope cut inside the
// sequence field.
func TestSealSeqTruncatedHeader(t *testing.T) {
	var s Sealer
	payload, err := s.SealSeq(nil, sampleBatch(), aggregate.CodecNone, 7)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 3; cut < envelopeHeaderV2; cut++ {
		if _, _, _, err := DecodeBatchPayloadSeq(payload[:cut]); err == nil {
			t.Errorf("truncation at %d bytes accepted", cut)
		}
	}
	// A v1 envelope reports sequence 0.
	v1, err := EncodeBatchPayload(sampleBatch(), aggregate.CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, seq, err := DecodeBatchPayloadSeq(v1); err != nil || seq != 0 {
		t.Errorf("v1 envelope: seq=%d err=%v, want 0/nil", seq, err)
	}
}

// TestReplayFilterBasics covers the mark/seen contract: fresh
// sequences pass, marked sequences dedupe, sequence 0 is never
// tracked, and origins are independent.
func TestReplayFilterBasics(t *testing.T) {
	f := NewReplayFilter(0)
	if f.Seen("a", 1) {
		t.Error("unmarked sequence reported seen")
	}
	f.Mark("a", 1)
	if !f.Seen("a", 1) {
		t.Error("marked sequence not seen")
	}
	if f.Seen("b", 1) {
		t.Error("origins must be independent")
	}
	f.Mark("a", 0)
	if f.Seen("a", 0) {
		t.Error("sequence 0 must never dedupe")
	}
	f.Mark("a", 1) // re-mark is a no-op
	if got := f.Duplicates(); got != 1 {
		t.Errorf("duplicates = %d, want 1", got)
	}
}

// TestReplayFilterWindowEviction checks the FIFO bound: after window
// newer distinct marks, the oldest sequence rotates out (a replay
// that old is accepted again — the documented tradeoff), and the
// tracked count never exceeds the window.
func TestReplayFilterWindowEviction(t *testing.T) {
	const window = 8
	f := NewReplayFilter(window)
	f.Mark("a", 100)
	for seq := uint64(1); seq <= window; seq++ {
		f.Mark("a", seq)
	}
	if f.Seen("a", 100) {
		t.Error("oldest sequence must rotate out after window newer marks")
	}
	for seq := uint64(1); seq <= window; seq++ {
		if !f.Seen("a", seq) {
			t.Errorf("sequence %d inside the window was evicted", seq)
		}
	}
	if got := f.Tracked(); got > window {
		t.Errorf("tracked = %d, want <= %d", got, window)
	}
}

// FuzzBatchIDDedup drives the replay filter with an arbitrary
// interleaving of marks and checks across origins, including hostile
// sequence values, and asserts the two delivery invariants against an
// independent model:
//
//   - no false positives: a sequence that was never marked is never
//     reported seen — a corrupted ID cannot make the receiver drop a
//     live batch;
//   - no premature eviction: a sequence marked within the last
//     `window` distinct marks for its origin is always reported seen —
//     a replayed ID inside the window can never double-count, no
//     matter what garbage was marked around it.
//
// The memory bound (tracked <= origins x window) is asserted at every
// step.
func FuzzBatchIDDedup(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte("\x00\x01\xff\xff\xff\xff\xff\xff\xff\xff" + "\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	seed := make([]byte, 0, 300)
	for i := byte(1); i <= 30; i++ { // sequential marks then a replay burst
		seed = append(seed, i%2, 0, 0, 0, 0, 0, 0, 0, 0, i/2+1)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		const window = 8
		const origins = 3
		filter := NewReplayFilter(window)
		// Model: per origin, every sequence ever marked and the FIFO
		// of the last `window` distinct marks.
		marked := make([]map[uint64]bool, origins)
		recent := make([][]uint64, origins)
		for i := range marked {
			marked[i] = make(map[uint64]bool)
		}
		for len(data) >= 10 {
			origin := int(data[0]) % origins
			op := data[1] % 2
			seq := binary.BigEndian.Uint64(data[2:10])
			data = data[10:]
			name := string(rune('a' + origin))
			switch op {
			case 0:
				filter.Mark(name, seq)
				if seq != 0 && !marked[origin][seq] {
					marked[origin][seq] = true
					recent[origin] = append(recent[origin], seq)
					if len(recent[origin]) > window {
						recent[origin] = recent[origin][1:]
					}
				}
			case 1:
				got := filter.Seen(name, seq)
				if got && !marked[origin][seq] {
					t.Fatalf("origin %s seq %d: seen but never marked (false positive would drop a live batch)", name, seq)
				}
				inWindow := false
				for _, s := range recent[origin] {
					if s == seq {
						inWindow = true
						break
					}
				}
				if inWindow && !got {
					t.Fatalf("origin %s seq %d: marked within the last %d marks but not seen (replay would double-count)", name, seq, window)
				}
			}
			if tracked := filter.Tracked(); tracked > origins*window {
				t.Fatalf("tracked %d sequences, bound is %d", tracked, origins*window)
			}
		}
	})
}

// TestReplayFilterAccept covers the atomic check-and-mark: a delivery
// is applied once however many copies race, a copy that arrives while
// the first is still applying waits for the outcome — a duplicate if
// it landed, applied itself if it failed — and sequence 0 is applied
// every time.
func TestReplayFilterAccept(t *testing.T) {
	f := NewReplayFilter(0)
	applied := 0
	apply := func() error { applied++; return nil }
	for i := 0; i < 2; i++ {
		if dup, err := f.Accept("a", 0, apply); dup || err != nil {
			t.Fatalf("sequence 0: dup=%v err=%v", dup, err)
		}
	}
	if applied != 2 {
		t.Fatalf("sequence 0 applied %d times, want every time", applied)
	}

	// The first copy fails while a second waits on its claim: the
	// second must then apply, and a third find it landed.
	entered, release := make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := f.Accept("a", 7, func() error {
			close(entered)
			<-release
			return errors.New("did not land")
		})
		first <- err
	}()
	<-entered
	second := make(chan bool, 1)
	go func() {
		dup, err := f.Accept("a", 7, func() error { return nil })
		if err != nil {
			t.Errorf("second copy: %v", err)
		}
		second <- dup
	}()
	if f.Seen("a", 7) {
		t.Fatal("a delivery still being applied reported seen")
	}
	close(release)
	if err := <-first; err == nil {
		t.Fatal("first copy's failure was swallowed")
	}
	if dup := <-second; dup {
		t.Fatal("second copy deduped against a delivery that failed to land")
	}
	if dup, err := f.Accept("a", 7, func() error { t.Error("applied a landed delivery again"); return nil }); !dup || err != nil {
		t.Fatalf("third copy: dup=%v err=%v, want a duplicate", dup, err)
	}

	// N racing copies: one applies.
	var wg sync.WaitGroup
	var mu sync.Mutex
	landed, dups := 0, 0
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dup, _ := f.Accept("b", 9, func() error { mu.Lock(); landed++; mu.Unlock(); return nil })
			if dup {
				mu.Lock()
				dups++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if landed != 1 || dups != 15 {
		t.Fatalf("16 racing copies: %d applied, %d duplicates, want 1 and 15", landed, dups)
	}
}

// Tracked returns how many sequences are currently remembered across
// all origins, for the memory-bound checks.
func (f *ReplayFilter) Tracked() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := 0
	for _, w := range f.origins {
		total += len(w.seen)
	}
	return total
}
