package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestMemberFrameRoundTrip(t *testing.T) {
	cases := []MemberFrame{
		{Gen: 0, Rank: 0},
		{Gen: 7, Rank: 3, Steps: []MemberStep{{Epoch: 2, Round: 14}}},
		{Gen: 0xffffffff, Rank: 255, Steps: []MemberStep{
			{Epoch: 5, Round: 0}, {Epoch: 4, Round: 120}, {Epoch: 4, Round: 60},
		}},
	}
	for _, want := range cases {
		b, err := AppendMemberFrame(nil, want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := DecodeMemberFrame(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.Gen != want.Gen || got.Rank != want.Rank || len(got.Steps) != len(want.Steps) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
		for i := range want.Steps {
			if got.Steps[i] != want.Steps[i] {
				t.Fatalf("step %d: got %+v want %+v", i, got.Steps[i], want.Steps[i])
			}
		}
	}
}

func TestMemberFrameEncodeRejects(t *testing.T) {
	if _, err := AppendMemberFrame(nil, MemberFrame{Rank: -1}); err == nil {
		t.Fatal("negative rank encoded")
	}
	if _, err := AppendMemberFrame(nil, MemberFrame{Steps: make([]MemberStep, MaxMemberSteps+1)}); err == nil {
		t.Fatal("over-long step list encoded")
	}
	if _, err := AppendMemberFrame(nil, MemberFrame{Steps: []MemberStep{{Epoch: -1}}}); err == nil {
		t.Fatal("negative step encoded")
	}
}

func TestMemberFrameDecodeRejects(t *testing.T) {
	good, err := AppendMemberFrame(nil, MemberFrame{Gen: 1, Rank: 2, Steps: []MemberStep{{Epoch: 1, Round: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		good[:memberFrameFixed-1],               // truncated fixed header
		good[:len(good)-1],                      // truncated step
		append([]byte(nil), good[:16]...),       // count says 1, no step bytes
		append(append([]byte(nil), good...), 0), // trailing byte
	}
	wrongMagic := append([]byte(nil), good...)
	wrongMagic[0] = 'X'
	bad = append(bad, wrongMagic)
	// A lying count field: claims MaxMemberSteps+1.
	lying := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(lying[12:], MaxMemberSteps+1)
	bad = append(bad, lying)
	for i, b := range bad {
		if _, err := DecodeMemberFrame(b); err == nil {
			t.Fatalf("case %d: corrupt frame %x decoded", i, b)
		}
	}
}

// rewriteComm is a lying or corrupt member: it rewrites the payload it
// sends to each peer before the real collective.
type rewriteComm struct {
	Comm
	rewrite func(dst int, b []byte) []byte
}

func (c *rewriteComm) AllToAll(send [][]byte) ([][]byte, error) {
	out := make([][]byte, len(send))
	for dst, b := range send {
		out[dst] = c.rewrite(dst, append([]byte(nil), b...))
	}
	return c.Comm.AllToAll(out)
}

// TestAgree pins the one membership exchange on both transports at K=3
// and K=1: a healthy round returns every member's frame; a stale
// generation, a wrong rank claim, truncated bytes, or a member telling
// peers different things fails the round without a panic; a stalled
// member fails it with ErrTimeout; and no goroutine outlives the group.
func TestAgree(t *testing.T) {
	const gen, timeout = 7, 50 * time.Millisecond
	steps := []MemberStep{{Epoch: 2, Round: 4}, {Epoch: 1, Round: 0}}
	rewrite := func(f func(dst int, b []byte) []byte) func(Comm) Comm {
		return func(c Comm) Comm { return &rewriteComm{Comm: c, rewrite: f} }
	}
	cases := []struct {
		name    string
		minK    int
		stall   bool             // stall member 0 under dist.Chaos
		liar    func(Comm) Comm  // wraps the last member
		wantErr func(error) bool // nil: the round must succeed
	}{
		{name: "healthy"},
		{name: "stale-generation", liar: rewrite(func(_ int, b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], gen-1)
			return b
		}), wantErr: isErr},
		{name: "wrong-rank", liar: rewrite(func(_ int, b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], binary.LittleEndian.Uint32(b[8:])+1)
			return b
		}), wantErr: isErr},
		{name: "truncated", liar: rewrite(func(_ int, b []byte) []byte { return b[:len(b)-1] }), wantErr: isErr},
		{name: "diverged", minK: 2, liar: rewrite(func(dst int, b []byte) []byte {
			if dst == 0 {
				binary.LittleEndian.PutUint32(b[memberFrameFixed:], 9) // a step only member 0 sees
			}
			return b
		}), wantErr: isErr},
		{name: "stalled", stall: true, wantErr: func(err error) bool { return errors.Is(err, ErrTimeout) }},
	}
	for _, tr := range []struct {
		name string
		tcp  bool
	}{{"local", false}, {"tcp", true}} {
		for _, k := range []int{3, 1} {
			for _, tc := range cases {
				if k < tc.minK {
					continue
				}
				t.Run(fmt.Sprintf("%s/K=%d/%s", tr.name, k, tc.name), func(t *testing.T) {
					baseline := runtime.NumGoroutine()
					comms, err := NewGroup(k, tr.tcp)
					if err != nil {
						t.Fatal(err)
					}
					frames := make([]MemberFrame, k)
					for i := range frames {
						frames[i] = MemberFrame{Gen: gen, Rank: int32(10 + i), Steps: steps}
					}
					if tc.liar != nil {
						comms[k-1] = tc.liar(comms[k-1])
					}
					if tc.stall {
						ch := NewChaos(ChaosConfig{})
						comms[0] = ch.Wrap(comms[0])
						ch.Stall()
					}
					for _, c := range comms {
						c.SetTimeout(timeout)
					}
					start := time.Now()
					got, err := Agree(comms, frames)
					elapsed := time.Since(start)
					for _, c := range comms {
						c.Close()
					}
					switch {
					case tc.wantErr == nil && err != nil:
						t.Fatalf("healthy round failed: %v", err)
					case tc.wantErr == nil:
						if len(got) != k {
							t.Fatalf("got %d frames, want %d", len(got), k)
						}
						for i, f := range got {
							if !sameFrame(f, frames[i]) {
								t.Fatalf("frame %d: got %+v, want %+v", i, f, frames[i])
							}
						}
					case !tc.wantErr(err):
						t.Fatalf("Agree returned %v", err)
					}
					if elapsed > 20*timeout {
						t.Fatalf("round took %v under a %v comm timeout", elapsed, timeout)
					}
					waitGoroutines(t, baseline, 0, tc.name)
				})
			}
		}
	}

	// A frame that cannot be encoded fails before any member sends, so an
	// unbounded group cannot wedge on it.
	comms, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	defer comms[0].Close()
	if _, err := Agree(comms, []MemberFrame{{Rank: 0}, {Rank: -1}}); err == nil {
		t.Fatal("negative rank agreed")
	}
	if _, err := Agree(comms, []MemberFrame{{Rank: 0}}); err == nil {
		t.Fatal("frame count mismatch agreed")
	}
}

func isErr(err error) bool { return err != nil }

func TestRecoverableClassification(t *testing.T) {
	if !Recoverable(ErrTimeout) || !Recoverable(ErrClosed) {
		t.Fatal("sentinels must be recoverable")
	}
	if Recoverable(errors.New("pipeline: checkpoint save failed")) {
		t.Fatal("arbitrary errors must not be recoverable")
	}
	// A closed local group surfaces ErrClosed through the wrapper chain.
	comms, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	comms[0].Close()
	_, err = comms[1].AllToAll([][]byte{{1}, {2}})
	if !Recoverable(err) || !errors.Is(err, ErrClosed) {
		t.Fatalf("closed-group error %v must classify as ErrClosed", err)
	}
}

// TestChaosKillTakesDownThePair pins WrapPair's shared fate: killing the
// schedule fails the next collective on either half and closes both inner
// groups, so peers blocked on the sibling communicator unwind too.
func TestChaosKillTakesDownThePair(t *testing.T) {
	feat, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	grad, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChaos(ChaosConfig{})
	f0, g0 := ch.WrapPair(feat[0], grad[0])

	// Healthy first: a collective passes through.
	done := make(chan error, 1)
	go func() {
		_, err := feat[1].AllToAll([][]byte{{0}, {0}})
		done <- err
	}()
	if _, err := f0.AllToAll([][]byte{{0}, {0}}); err != nil {
		t.Fatalf("healthy collective failed: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("healthy peer failed: %v", err)
	}

	ch.Kill()
	if _, err := f0.AllToAll([][]byte{{0}, {0}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("killed collective returned %v, want ErrClosed", err)
	}
	// The gradient group must be dead too — that is the pair contract.
	if err := grad[1].AllReduceSum([]float32{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("sibling gradient group survived the kill: %v", err)
	}
	if err := g0.AllReduceSum([]float32{1}); err == nil {
		t.Fatal("killed rank's gradient wrapper still works")
	}
}

// TestChaosStallTimeoutPoisonsPair pins the stall path on a pair: a
// stalled collective that exceeds the member's timeout fails with
// ErrTimeout and closes both halves.
func TestChaosStallTimeoutPoisonsPair(t *testing.T) {
	feat, err := NewLocalGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	grad, err := NewLocalGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewChaos(ChaosConfig{})
	f0, g0 := ch.WrapPair(feat[0], grad[0])
	f0.SetTimeout(20 * time.Millisecond)
	ch.Stall()
	_, err = f0.AllToAll([][]byte{{1}})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("stalled collective returned %v, want ErrTimeout", err)
	}
	if err := g0.AllReduceSum([]float32{1}); err == nil {
		t.Fatal("sibling survived the stall-timeout poison")
	}
}

// TestMemberFrameAppendReuse pins that encoding into a reused buffer
// produces the same bytes as a fresh encode (the agreement round reuses
// its scratch).
func TestMemberFrameAppendReuse(t *testing.T) {
	buf := make([]byte, 0, 64)
	a, err := AppendMemberFrame(buf, MemberFrame{Gen: 1, Rank: 0, Steps: []MemberStep{{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AppendMemberFrame(nil, MemberFrame{Gen: 1, Rank: 0, Steps: []MemberStep{{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("append into reused buffer differs from fresh encode")
	}
}
