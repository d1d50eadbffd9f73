package dist

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// Membership protocol.
//
// Every regroup — the serving prober installing a fresh comm group, the
// elastic training driver probing each rank and then agreeing on a resume
// point over the survivors — is one Agree round: each member broadcasts a
// MemberFrame carrying the regroup generation, its identity, and (for the
// training agreement) the checkpoint steps it holds, and every member
// decodes and checks the same K frames. A health probe is a frame with no
// steps. Frames are untrusted wire input: DecodeMemberFrame must error,
// never panic, and never allocate more than the bytes present allow
// (fuzzed by FuzzMembershipFrame).

// memberMagic distinguishes a membership frame from a stray collective
// payload ("SPMB": SALIENT++ membership).
var memberMagic = [4]byte{'S', 'P', 'M', 'B'}

// MaxMemberSteps bounds the checkpoint-step list one membership frame may
// carry. Savers retain a handful of files (ckpt.Config.Retain, default 3),
// so the bound is generous for real runs while keeping the decoder's worst
// case allocation small and fixed.
const MaxMemberSteps = 64

// memberFrameFixed is the wire size of a frame with no steps: magic,
// generation, rank, and the step count, each 4 bytes little-endian.
const memberFrameFixed = 16

// MemberStep identifies one barrier-consistent checkpoint position inside
// a membership frame. It mirrors ckpt.Step without importing it — dist is
// below ckpt in the package graph.
type MemberStep struct {
	Epoch int32
	Round int32
}

// MemberFrame is one member's contribution to an Agree round: which
// regroup generation it is answering for, which rank it is, and the
// checkpoint steps it holds locally, newest first (none for a health
// probe).
type MemberFrame struct {
	Gen   uint32
	Rank  int32
	Steps []MemberStep
}

// AppendMemberFrame appends f's wire encoding to buf and returns it.
// Frames carrying more than MaxMemberSteps steps are rejected — truncate
// to the newest MaxMemberSteps before encoding (older checkpoints past
// the retain window cannot win the consensus anyway).
func AppendMemberFrame(buf []byte, f MemberFrame) ([]byte, error) {
	if len(f.Steps) > MaxMemberSteps {
		return nil, fmt.Errorf("dist: membership frame carries %d steps, max %d", len(f.Steps), MaxMemberSteps)
	}
	if f.Rank < 0 {
		return nil, fmt.Errorf("dist: membership frame for negative rank %d", f.Rank)
	}
	buf = append(buf, memberMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, f.Gen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Rank))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.Steps)))
	for _, s := range f.Steps {
		if s.Epoch < 0 || s.Round < 0 {
			return nil, fmt.Errorf("dist: membership frame step (%d,%d) is negative", s.Epoch, s.Round)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Epoch))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Round))
	}
	return buf, nil
}

// DecodeMemberFrame validates and decodes a membership frame. The step
// count is checked against both MaxMemberSteps and the bytes actually
// present before anything is allocated, so a lying length field can
// neither panic the decoder nor force a large allocation.
func DecodeMemberFrame(b []byte) (MemberFrame, error) {
	var f MemberFrame
	if len(b) < memberFrameFixed {
		return f, fmt.Errorf("dist: membership frame is %d bytes, need at least %d", len(b), memberFrameFixed)
	}
	if [4]byte(b[:4]) != memberMagic {
		return f, fmt.Errorf("dist: membership frame magic %q, want %q", b[:4], memberMagic[:])
	}
	f.Gen = binary.LittleEndian.Uint32(b[4:])
	rank := binary.LittleEndian.Uint32(b[8:])
	if rank > 1<<20 {
		return f, fmt.Errorf("dist: membership frame rank %d is implausible", rank)
	}
	f.Rank = int32(rank)
	count := binary.LittleEndian.Uint32(b[12:])
	if count > MaxMemberSteps {
		return f, fmt.Errorf("dist: membership frame claims %d steps, max %d", count, MaxMemberSteps)
	}
	if want := memberFrameFixed + 8*int(count); len(b) != want {
		return f, fmt.Errorf("dist: membership frame is %d bytes, %d steps need %d", len(b), count, want)
	}
	if count == 0 {
		return f, nil
	}
	f.Steps = make([]MemberStep, count)
	for i := range f.Steps {
		off := memberFrameFixed + 8*i
		e := binary.LittleEndian.Uint32(b[off:])
		r := binary.LittleEndian.Uint32(b[off+4:])
		if e > 1<<30 || r > 1<<30 {
			return MemberFrame{}, fmt.Errorf("dist: membership frame step %d (%d,%d) is implausible", i, e, r)
		}
		f.Steps[i] = MemberStep{Epoch: int32(e), Round: int32(r)}
	}
	return f, nil
}

// Agree runs one membership exchange over a group: member i sends
// frames[i] to every peer, one goroutine per member, and decodes all K
// frames it receives, checking that each answers frames[i].Gen and that
// the frame from member src claims rank frames[src].Rank. All members must
// decode the same list. Agree returns that list, or the first error in
// member order. The caller owns the comms: it arms their timeouts (a
// stalled member then fails with ErrTimeout instead of wedging the round)
// and closes them.
func Agree(comms []Comm, frames []MemberFrame) ([]MemberFrame, error) {
	k := len(comms)
	if len(frames) != k {
		return nil, fmt.Errorf("dist: agreement over %d members with %d frames", k, len(frames))
	}
	payloads := make([][]byte, k)
	for i, f := range frames {
		b, err := AppendMemberFrame(nil, f)
		if err != nil {
			return nil, err
		}
		payloads[i] = b
	}
	got := make([][]MemberFrame, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i, c := range comms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = agreeMember(c, frames, i, payloads[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := 1; i < k; i++ {
		if !slices.EqualFunc(got[i], got[0], sameFrame) {
			return nil, fmt.Errorf("dist: membership round diverged: member %d decoded %v, member 0 %v", i, got[i], got[0])
		}
	}
	return got[0], nil
}

// agreeMember is member i's half of an Agree round.
func agreeMember(c Comm, frames []MemberFrame, i int, payload []byte) ([]MemberFrame, error) {
	send := make([][]byte, len(frames))
	for dst := range send {
		send[dst] = payload
	}
	recv, err := c.AllToAll(send)
	if err != nil {
		return nil, err
	}
	out := make([]MemberFrame, len(recv))
	for src, b := range recv {
		f, err := DecodeMemberFrame(b)
		if err != nil {
			return nil, fmt.Errorf("dist: membership frame from member %d: %w", src, err)
		}
		if f.Gen != frames[i].Gen {
			return nil, fmt.Errorf("dist: membership frame from member %d answers generation %d, round is %d", src, f.Gen, frames[i].Gen)
		}
		if f.Rank != frames[src].Rank {
			return nil, fmt.Errorf("dist: membership frame from member %d claims rank %d, want %d", src, f.Rank, frames[src].Rank)
		}
		out[src] = f
	}
	return out, nil
}

func sameFrame(a, b MemberFrame) bool {
	return a.Gen == b.Gen && a.Rank == b.Rank && slices.Equal(a.Steps, b.Steps)
}
