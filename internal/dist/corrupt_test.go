package dist

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"salientpp/internal/tensor"
)

// The corrupt-peer harness: rank 0 is a real store, rank 1 is played by
// hand over the raw communicator, sending scripted gather frames. A frame
// is [rows answering rank 0's previous request list][rank 1's request list
// for rank 0]; rank 0 owns [0, corruptN/2).
const corruptN, corruptDim = 32, 4

// scriptedPeer runs op against rank 0's store while rank 1 sends frames[i]
// to rank 0 in its i-th collective. A panic inside op fails the test;
// after op returns the group is closed so a peer still waiting on rank 0
// unwinds, and op's error is returned with the store for leak checks.
func scriptedPeer(t testing.TB, codec Codec, frames [][]byte, op func(st *Store) error) (*Store, error) {
	t.Helper()
	comms, err := NewLocalGroup(2)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := NewLayout([]int64{0, corruptN / 2, corruptN})
	if err != nil {
		t.Fatal(err)
	}
	local := tensor.New(corruptN/2, corruptDim)
	for i := range local.Data {
		local.Data[i] = float32(i)
	}
	st, err := NewStore(comms[0], layout, corruptDim, local, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.SetCodec(codec)
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		for _, f := range frames {
			if _, err := comms[1].AllToAll([][]byte{f, nil}); err != nil {
				return
			}
		}
	}()
	err = func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("store panicked on a scripted peer frame: %v", r)
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return op(st)
	}()
	comms[0].Close()
	<-peerDone
	return st, err
}

// i32Frame is the fp32 wire image of an id list.
func i32Frame(ids ...int32) []byte {
	var b []byte
	for _, v := range ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// TestGatherRejectsCorruptPeerRequests plays a malicious or broken rank 1
// against each check of the two-frame gather protocol. Every case must
// return an error — never panic — and leave nothing checked out of the
// store's pool. The id cases matter beyond hygiene: Layout.Owner maps
// everything below Starts[1], negatives included, to rank 0, so without
// the explicit interval check a negative id indexed the local shard out of
// bounds.
func TestGatherRejectsCorruptPeerRequests(t *testing.T) {
	remote := []int32{corruptN/2 + 1}
	cases := []struct {
		name   string
		codec  Codec
		ids    []int32  // rank 0's gather
		stream bool     // push ids with GatherNext, then call a one-shot Gather
		frames [][]byte // rank 1's frames to rank 0
		want   string
	}{
		{name: "short-rows", ids: remote,
			frames: [][]byte{nil, make([]byte, 4*corruptDim-4)}, want: "payload bytes"},
		{name: "short-rows-int8", codec: CodecInt8, ids: remote,
			frames: [][]byte{nil, make([]byte, 4+corruptDim-1)}, want: "payload bytes"},
		{name: "ids-on-flush", frames: [][]byte{i32Frame(0), i32Frame(1)}, want: "flush frame"},
		{name: "ids-on-flush-fp16", codec: CodecFP16,
			frames: [][]byte{nil, appendIDsDelta(nil, []int32{2})}, want: "flush frame"},
		{name: "fp32-ids-not-whole", frames: [][]byte{{1, 2, 3, 4, 5, 6}}, want: "request-id section"},
		{name: "negative-id", frames: [][]byte{i32Frame(-5)}, want: "not owned here"},
		{name: "id-past-interval", frames: [][]byte{i32Frame(3, corruptN)}, want: "not owned here"},
		{name: "id-huge", frames: [][]byte{i32Frame(1 << 30)}, want: "not owned here"},
		{name: "id-past-interval-fp16", codec: CodecFP16,
			frames: [][]byte{appendIDsDelta(nil, []int32{1, corruptN / 2})}, want: "not owned here"},
		{name: "truncated-varint-int8", codec: CodecInt8, frames: [][]byte{{0x80}}, want: "truncated"},
		{name: "gather-while-pending", ids: remote, stream: true,
			frames: [][]byte{nil}, want: "stream round is pending"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, err := scriptedPeer(t, c.codec, c.frames, func(st *Store) error {
				if c.stream {
					if _, _, err := st.GatherNext(c.ids); err != nil {
						return fmt.Errorf("scripted stream push failed: %w", err)
					}
				}
				out, _, err := st.Gather(c.ids)
				if err == nil {
					st.Release(out)
				}
				return err
			})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want an error containing %q", err, c.want)
			}
			if live := st.Live(); live != 0 {
				t.Fatalf("%d pooled matrices leaked", live)
			}
		})
	}
}

// FuzzGatherFrame drives a one-shot Gather with arbitrary peer frames for
// both of its collectives under every codec: the store must error — never
// panic — and on error hold nothing from its pool; on success it hands out
// exactly one matrix.
func FuzzGatherFrame(f *testing.F) {
	row32 := make([]byte, 4*corruptDim)
	// Valid exchanges: no traffic; rank 1 asks for two rows and answers
	// rank 0's two; the same under fp16.
	f.Add(uint8(CodecFP32), []byte(nil), append(append([]byte(nil), row32...), row32...))
	f.Add(uint8(CodecFP32), i32Frame(0, 7), append(append([]byte(nil), row32...), row32...))
	f.Add(uint8(CodecFP16), appendIDsDelta(nil, []int32{3}), make([]byte, 4*corruptDim))
	// One seed per corrupt case of TestGatherRejectsCorruptPeerRequests.
	f.Add(uint8(CodecFP32), []byte(nil), row32[:len(row32)-4])                        // short rows
	f.Add(uint8(CodecFP32), []byte(nil), append(append(row32, row32...), 0, 0, 0, 0)) // ids on a flush frame
	f.Add(uint8(CodecFP32), []byte{1, 2, 3, 4, 5, 6}, []byte(nil))                    // fp32 ids not whole
	f.Add(uint8(CodecFP32), i32Frame(-5), []byte(nil))                                // negative id
	f.Add(uint8(CodecFP32), i32Frame(corruptN), []byte(nil))                          // id past the interval
	f.Add(uint8(CodecInt8), []byte{0x80}, []byte(nil))                                // truncated varint
	f.Add(uint8(CodecFP16), []byte{0xff, 0xff, 0xff, 0xff, 0x0f}, []byte(nil))        // varint past int32

	ids := []int32{1, corruptN/2 + 1, corruptN/2 + 3} // one local row, two remote
	f.Fuzz(func(t *testing.T, codec uint8, first, second []byte) {
		var out *tensor.Matrix
		st, err := scriptedPeer(t, Codec(codec%3), [][]byte{first, second}, func(st *Store) error {
			var err error
			out, _, err = st.Gather(ids)
			return err
		})
		want := int64(0)
		if err == nil {
			want = 1
		}
		if live := st.Live(); live != want {
			t.Fatalf("gather returned err=%v holding %d pooled matrices, want %d", err, live, want)
		}
		st.Release(out)
	})
}
